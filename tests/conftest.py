"""Shared builders for notebook documents and git fixture repos, a
plain-SQL reader of store rows, and the container runtime every runtime test
drives: the shipped client over the benchmark's stub, with faults scripted
at the process seam."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import threading
from pathlib import Path

import pytest

from nbrepro import containerize, corpus
from nbrepro.tool import ToolRun, run_tool

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "setup" and report.skipped:
        outcome = "SKIP"
    elif report.when == "call":
        outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    else:
        return
    name = report.nodeid.split("::")[-1]
    print(f"[ACCEPTANCE] {name}: {outcome}", flush=True)


# ---- notebook document builders (nbformat v4 JSON) ---------------------------

def src_lines(text: str) -> list[str]:
    lines = text.split("\n")
    return [line + "\n" for line in lines[:-1]] + [lines[-1]]


def code_cell(source: str, outputs: list | None = None,
              execution_count: int | None = None) -> dict:
    return {"cell_type": "code", "execution_count": execution_count,
            "metadata": {}, "outputs": outputs or [],
            "source": src_lines(source)}


def markdown_cell(source: str) -> dict:
    return {"cell_type": "markdown", "metadata": {}, "source": src_lines(source)}


def raw_cell(source: str) -> dict:
    return {"cell_type": "raw", "metadata": {}, "source": src_lines(source)}


def stream_output(text: str, name: str = "stdout") -> dict:
    return {"output_type": "stream", "name": name, "text": src_lines(text)}


def execute_result(text: str, count: int = 1) -> dict:
    return {"output_type": "execute_result", "execution_count": count,
            "metadata": {}, "data": {"text/plain": src_lines(text)}}


def display_data(data: dict) -> dict:
    return {"output_type": "display_data", "metadata": {}, "data": data}


def error_output(ename: str, evalue: str = "", traceback: list | None = None) -> dict:
    return {"output_type": "error", "ename": ename, "evalue": evalue,
            "traceback": traceback or []}


def notebook_doc(cells: list, kernel_name: str | None = "python3",
                 nbformat: int = 4, nbformat_minor: int = 5) -> dict:
    metadata = {}
    if kernel_name is not None:
        metadata["kernelspec"] = {"display_name": "Python 3",
                                  "language": "python", "name": kernel_name}
    return {"cells": cells, "metadata": metadata, "nbformat": nbformat,
            "nbformat_minor": nbformat_minor}


def notebook_bytes(cells: list, **kwargs) -> bytes:
    return json.dumps(notebook_doc(cells, **kwargs)).encode("utf-8")


# ---- store rows ------------------------------------------------------------------

def store_rows(store, table: str, **equal) -> list[dict]:
    """The rows of one store table as column -> value dicts, in the order
    they were first written, read with plain SQL, as bench/oracle.py reads
    them, on the store's own connection; the keyword arguments keep the
    rows whose columns equal them. JSON columns stay text."""
    where = " AND ".join(f"{column} = ?" for column in equal) or "1"
    sql = f"SELECT * FROM {table} WHERE {where} ORDER BY rowid"
    with store._lock:
        return [dict(row) for row in store._conn.execute(sql, tuple(equal.values()))]


# ---- git fixture repositories --------------------------------------------------

def git_available() -> bool:
    return shutil.which("git") is not None


def make_git_repo(path: Path, files: dict[str, str | bytes],
                  links: dict[str, str] | None = None) -> str:
    """Create a committed git repository from a file map and a map of
    symlinks to their targets; returns its file URL."""
    path.mkdir(parents=True, exist_ok=True)
    for rel, content in files.items():
        target = path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content, encoding="utf-8")
    for rel, target in (links or {}).items():
        (path / rel).parent.mkdir(parents=True, exist_ok=True)
        (path / rel).symlink_to(target)
    def git(*args):
        subprocess.run(["git", "-C", str(path), *args], check=True,
                       capture_output=True)
    git("init", "--quiet")
    git("-c", "user.email=fixtures@example.org", "-c", "user.name=Fixtures",
        "add", "-A")
    git("-c", "user.email=fixtures@example.org", "-c", "user.name=Fixtures",
        "commit", "--quiet", "-m", "fixture")
    return path.resolve().as_uri()


requires_git = pytest.mark.skipif(not git_available(), reason="git not available")


# ---- container runtime gating ---------------------------------------------------

def docker_available() -> bool:
    if shutil.which("docker") is None:
        return False
    try:
        probe = subprocess.run(["docker", "version"], capture_output=True,
                               timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0


requires_docker = pytest.mark.skipif(
    not docker_available(),
    reason="container runtime not available; end-to-end stage is gated")


# ---- the container runtime every test drives -----------------------------------

STUB_RUNTIME = Path(__file__).resolve().parents[1] / "bench" / "stub_runtime.sh"

# How the docker client answers when no daemon does.
DAEMON_DOWN = ToolRun([], 1, "", "Cannot connect to the Docker daemon at "
                      "unix:///var/run/docker.sock. Is the docker daemon running?\n")


class Runtime:
    """The container runtime of every runtime test: the benchmark's stub
    behind the shipped ``DockerCli``, with faults scripted at the one seam
    every runtime call passes, ``containerize.run_tool``.

    Each call's argv after the executable is appended to ``calls``. A call
    that a test answers (see ``answer``) gets that answer; every other call
    runs ``bench/stub_runtime.sh`` unmodified, whatever executable the
    client was given, so no test reaches a host's container runtime. The
    stub keeps its images and containers under ``state``, and hands back the
    executed notebooks that ``plant`` puts under ``executed``.
    """

    def __init__(self, root: Path, monkeypatch) -> None:
        self.state, self.executed = root / "stub-state", root / "stub-executed"
        for kind in ("images", "containers"):
            (self.state / kind).mkdir(parents=True)
        self.executed.mkdir()
        monkeypatch.setenv("BENCH_STUB_STATE", str(self.state))
        monkeypatch.setenv("BENCH_STUB_EXECUTED", str(self.executed))
        monkeypatch.setattr(containerize, "run_tool", self._call)
        self.calls: list[list[str]] = []
        self._answers: list[list] = []  # [verb, reply, calls left or None]
        self._lock = threading.Lock()

    @property
    def verbs(self) -> list[str]:
        return [args[0] for args in self.calls]

    def plant(self, repository: str, notebooks: dict[str, bytes]) -> None:
        """The executed notebooks, by relative path, that the stub's ``run``
        hands back for a repository, named by its id or its URL; a notebook
        without one fails as the converter fails on a file that is not JSON."""
        if "://" in repository:
            repository = corpus.repository_id_for(repository)
        for relative_path, payload in notebooks.items():
            target = self.executed / repository / relative_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(payload)

    def answer(self, verb: str, reply, times: int | None = None) -> None:
        """Answer the next ``times`` calls of ``verb`` (every call when None;
        ``"*"`` matches every verb) with ``reply``: a ToolRun, returned with
        the call's argv when its own is empty; an exception, raised; or a
        function of the call's args and bound returning either, which may
        pass the call on to ``stub``. The earliest answer that matches is
        taken."""
        with self._lock:
            self._answers.append([verb, reply, times])

    def go_down(self, verb: str, reply=DAEMON_DOWN) -> None:
        """An outage from the first call of ``verb`` on: that call and every
        later one, ``version`` too, get ``reply``."""
        down = threading.Event()

        def outage(args, timeout):
            if args[0] == verb:
                down.set()
            return reply if down.is_set() else self.stub(args, timeout)

        self.answer("*", outage)

    def recover(self) -> None:
        """Drop every answer: each later call runs the stub."""
        with self._lock:
            self._answers.clear()

    def stub(self, args: list[str], timeout: float) -> ToolRun:
        return run_tool([str(STUB_RUNTIME), *args], timeout)

    def images(self) -> list[str]:
        """The stub's images, as ``repro/<repository_id>:<run_id>``."""
        return sorted("repro/{}:{}".format(*path.name.rsplit(".", 1))
                      for path in (self.state / "images").iterdir()
                      if path.stat().st_size)

    def containers(self) -> list[str]:
        """The names of the stub's containers not removed; it truncates
        the state file of a removed one."""
        return sorted(path.name for path in (self.state / "containers").iterdir()
                      if path.stat().st_size)

    def _call(self, argv: list[str], timeout: float) -> ToolRun:
        args = list(argv[1:])
        with self._lock:
            self.calls.append(args)
            entry = next((entry for entry in self._answers
                          if entry[0] in ("*", args[0]) and entry[2] != 0), None)
            if entry is not None and entry[2] is not None:
                entry[2] -= 1
        reply = self.stub if entry is None else entry[1]
        if callable(reply):
            reply = reply(args, timeout)
        if isinstance(reply, BaseException):
            raise reply
        return reply if reply.args else dataclasses.replace(reply, args=list(argv))


@pytest.fixture()
def runtime(tmp_path, monkeypatch) -> Runtime:
    return Runtime(tmp_path, monkeypatch)
