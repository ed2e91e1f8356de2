"""Shared builders for notebook documents, git fixture repos, and a fake
container runtime, and a plain-SQL reader of store rows."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from nbrepro.tool import ToolRun

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


# ---- fake container runtime -----------------------------------------------------

def logging_runtime(directory: Path, exits: dict[str, int] | None = None
                    ) -> tuple[Path, Path]:
    """A runtime executable for ``DockerCli`` that appends each call's verb
    to a log and exits with ``exits[verb]``, 0 by default, printing nothing;
    returns the executable and the log."""
    log = directory / "runtime.calls"
    cases = "".join(f"    {verb}) exit {code} ;;\n"
                    for verb, code in (exits or {}).items())
    executable = directory / "runtime"
    executable.write_text(f'#!/bin/sh\necho "$1" >> "{log}"\n'
                          f'case $1 in\n{cases}esac\n')
    executable.chmod(0o755)
    return executable, log


def FakeCompleted(returncode: int = 0, stdout: str = "", stderr: str = "",
                  args: list[str] | None = None) -> ToolRun:
    """A runtime call that finished with ``returncode``."""
    return ToolRun(args or ["docker"], returncode, stdout, stderr)


class FakeDocker:
    """In-memory stand-in for the container runtime CLI wrapper.

    Tracks containers/images per repository label and records every call so
    tests can assert on clean-room behavior without a daemon.
    """

    def __init__(self, available: bool = True):
        self._available = available
        self.containers: dict[str, str] = {}  # name -> label
        self.images: set[str] = set()
        self.calls: list[tuple] = []
        self.run_results: list = []
        self.copy_payloads: dict[str, bytes] = {}

    def build(self, tag, dockerfile, context, timeout=None):
        self.calls.append(("build", tag))
        self.images.add(tag)
        return FakeCompleted(0, stdout=f"built {tag}", args=[
            "docker", "build", "--no-cache", "-t", tag, "-f", str(dockerfile),
            str(context)])

    def list_images(self, repository):
        self.calls.append(("list_images", repository))
        return [tag for tag in sorted(self.images)
                if tag.startswith(repository + ":")]

    def list_containers(self, label):
        self.calls.append(("list_containers", label))
        if not self._available:
            from nbrepro.containerize import ContainerRuntimeUnavailable
            raise ContainerRuntimeUnavailable("fake runtime is down")
        value = label.split("=", 1)[1]
        return [name for name, lab in sorted(self.containers.items())
                if lab == value]

    def remove_container(self, name_or_id):
        self.calls.append(("remove_container", name_or_id))
        self.containers.pop(name_or_id, None)

    def remove_image(self, reference):
        self.calls.append(("remove_image", reference))
        self.images.discard(reference)

    def run_container(self, image, command, run_args, timeout=None):
        """Pops the next of ``run_results``, FakeCompleted(0) when none is
        left; a None there hits the wall-clock bound, as a timed-out run."""
        self.calls.append(("run_container", image, tuple(command)))
        name = run_args[run_args.index("--name") + 1]
        label = next((a.split("=", 1)[1] for a in run_args
                      if a.startswith("nbrepro.repository_id=")), "")
        self.containers[name] = label
        argv = ["docker", "run", *run_args, image, *command]
        result = self.run_results.pop(0) if self.run_results else FakeCompleted(0)
        if result is None:
            return ToolRun(argv, -1, "", "", timed_out=True)
        return dataclasses.replace(result, args=argv)

    def copy_from_container(self, container, source, destination, timeout=None):
        self.calls.append(("copy_from_container", container, source))
        payload = self.copy_payloads.get(source)
        if payload is None:
            return False
        Path(destination).parent.mkdir(parents=True, exist_ok=True)
        Path(destination).write_bytes(payload)
        return True
