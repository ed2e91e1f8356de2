"""CLI subcommand wiring, stage composition, and exit codes.

These run the real pipeline against local git fixtures and, for the
container stages, the shipped runtime client over the stub runtime; a
runtime that is missing or down degrades the run, which is itself part of
the contract under test.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import logging
import math
import shutil
import sqlite3
import sys
import threading
from contextlib import closing
from pathlib import Path

import pytest

from nbrepro import containerize, corpus, tool
from nbrepro.cli import build_parser, config_from_args, main
from nbrepro.config import MAX_TIMEOUT, ConfigError, PipelineConfig
from nbrepro.store import SCHEMA_VERSION, ProvisioningStatus, Store

from conftest import (
    DAEMON_DOWN,
    FIXTURES,
    STUB_RUNTIME,
    code_cell,
    make_git_repo,
    markdown_cell,
    notebook_bytes,
    requires_git,
    store_rows,
)

pytestmark = requires_git


def _notebook_file(*cells, kernel="python3"):
    return notebook_bytes(list(cells), kernel_name=kernel).decode("utf-8")


@pytest.fixture()
def workspace(tmp_path):
    return {
        "store": tmp_path / "store.sqlite3",
        "logdir": tmp_path / "logs",
        "artifacts": tmp_path / "artifacts",
        "reports": tmp_path / "reports",
        "root": tmp_path,
    }


def _common_flags(ws):
    return ["--store", str(ws["store"]), "--logdir", str(ws["logdir"]),
            "--artifacts", str(ws["artifacts"]), "--report-dir", str(ws["reports"])]


def _fixture_repo(ws, name, files):
    return make_git_repo(ws["root"] / "origins" / name, files)


def test_infer_writes_synthesized_manifest_without_container(workspace):
    url = _fixture_repo(workspace, "norequirements", {
        "analysis.ipynb": _notebook_file(
            markdown_cell("Analysis"),
            code_cell("import requests\nprint(requests.__name__)")),
    })
    code = main(["infer", "--input", url, *_common_flags(workspace)])
    assert code == 0
    with Store(workspace["store"]) as store:
        (repo,) = store.list_repositories()
        assert repo.notebook_count == 1
        (run,) = store_rows(store, "repository_runs")
        assert run["provisioning_status"] == ProvisioningStatus.PENDING.value
        tree = Path(repo.local_path)
    manifest = tree / "requirements.synthesized.txt"
    assert manifest.read_text() == "requests\n"
    assert (tree.parent / "Dockerfile").exists()


def test_infer_invalid_url_recorded_others_complete(workspace):
    good = _fixture_repo(workspace, "good", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    code = main(["infer", "--input", good, "--input", "not a url",
                 *_common_flags(workspace)])
    assert code == 0  # invalid URL is a data outcome, not a machinery failure
    with Store(workspace["store"]) as store:
        statuses = {run["provisioning_status"]
                    for run in store_rows(store, "repository_runs")}
        assert ProvisioningStatus.INVALID_URL.value in statuses
        assert ProvisioningStatus.PENDING.value in statuses


def test_infer_logs_each_repository_outcome(workspace, caplog, monkeypatch):
    good = _fixture_repo(workspace, "good", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    lost = _fixture_repo(workspace, "lost", {
        "nb.ipynb": _notebook_file(code_cell("print(2)"))})
    run_tool = corpus.run_tool

    def clone_fails(argv, timeout, env=None):
        if argv[:2] == ["git", "clone"] and lost in argv:
            return tool.ToolRun(argv, 128, "", "fatal: early EOF\n")
        return run_tool(argv, timeout, env)

    monkeypatch.setattr(corpus, "run_tool", clone_fails)
    caplog.set_level("INFO")
    code = main(["infer", "--input", good, "--input", lost,
                 *_common_flags(workspace)])
    assert code == 2
    lines = [rec.getMessage() for rec in caplog.records if " -> " in rec.getMessage()]
    assert lines == [f"{good} -> ok",
                     f"{lost} -> degraded: clone of {lost} failed: fatal: early EOF"]


def test_infer_records_an_input_that_does_not_parse_as_a_url(workspace):
    # urlparse raises on the unclosed bracket; validation calls it malformed.
    code = main(["infer", "--input", "http://[::1", "--input", "http://[::1 ",
                 *_common_flags(workspace)])
    assert code == 0
    with Store(workspace["store"]) as store:
        (run,) = store_rows(store, "repository_runs")
        assert run["provisioning_status"] == ProvisioningStatus.INVALID_URL.value
        assert run["status_reason"] == "malformed"
        (repo,) = store.list_repositories()
        assert repo.url == "http://[::1"
        assert not repo.accessible


@pytest.mark.parametrize("command", ["report", "infer"])
def test_newer_store_is_fatal_and_names_both_versions(workspace, caplog, command):
    with Store(workspace["store"]):
        pass
    conn = sqlite3.connect(workspace["store"])
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.close()
    inputs = ["--input", "not a url"] if command == "infer" else []
    assert main([command, *inputs, *_common_flags(workspace)]) == 1
    (error,) = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert f"schema version {SCHEMA_VERSION + 1}" in error
    assert f"schema version {SCHEMA_VERSION} and older" in error
    assert not workspace["reports"].exists()


def test_locked_version_0_store_is_fatal_and_left_as_is(workspace, caplog, monkeypatch):
    holder = sqlite3.connect(workspace["store"], isolation_level=None)
    holder.executescript((FIXTURES / "store_schema_v0.sql").read_text("utf-8"))
    holder.execute("BEGIN IMMEDIATE")  # another process writing to the store
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *args, **kwargs: connect(*args, **kwargs, timeout=0.05))
    try:
        assert main(["report", *_common_flags(workspace)]) == 1
    finally:
        holder.rollback()
    (error,) = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert str(workspace["store"]) in error
    assert f"from schema version 0 to {SCHEMA_VERSION}" in error
    assert "locked" in error
    assert holder.execute("PRAGMA user_version").fetchone()[0] == 0
    holder.close()
    assert not workspace["reports"].exists()


def test_infer_repo_without_notebooks_terminates_run(workspace):
    url = _fixture_repo(workspace, "nonotebooks", {"script.py": "print(1)\n"})
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        (run,) = store_rows(store, "repository_runs")
        assert run["provisioning_status"] == ProvisioningStatus.NO_PYTHON_NOTEBOOKS.value


def test_compare_before_execute_is_actionable_error(workspace, capsys, caplog):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    main(["infer", "--input", url, *_common_flags(workspace)])
    code = main(["compare", *_common_flags(workspace)])
    assert code == 1
    assert any("no executed artifacts for run" in rec.message
               for rec in caplog.records)


def test_execute_without_runtime_or_state(workspace, caplog):
    missing = ["--docker", "definitely-missing-runtime", *_common_flags(workspace)]
    assert main(["execute", *missing]) == 1
    assert any("no inferred runs are awaiting execution" in rec.getMessage()
               for rec in caplog.records)

    # Inferred runs on a missing runtime: nothing is recorded.
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    caplog.clear()
    with caplog.at_level("INFO", logger="nbrepro.cli"):
        assert main(["execute", *missing]) == 2
    with Store(workspace["store"]) as store:
        (run,) = store_rows(store, "repository_runs")
        assert run["provisioning_status"] == ProvisioningStatus.PENDING.value
        assert store_rows(store, "notebook_executions") == []
    assert any("not reachable" in rec.getMessage() for rec in caplog.records)


def test_classify_requires_baseline_flag(workspace, caplog):
    code = main(["classify", *_common_flags(workspace)])
    assert code == 1
    assert any("--baseline" in rec.message for rec in caplog.records)


def test_classify_malformed_baseline_is_fatal(workspace, caplog):
    bad = workspace["root"] / "bad.csv"
    bad.write_text("wrong,columns\n1,2\n")
    code = main(["classify", "--baseline", str(bad), *_common_flags(workspace)])
    assert code == 1
    assert any("missing columns" in rec.message for rec in caplog.records)


def test_classify_short_baseline_row_is_fatal(workspace, caplog):
    bad = workspace["root"] / "short.csv"
    bad.write_text("notebook_id,prev_dependency_install,prev_execution_status,"
                   "prev_diff_cells,prev_duration_s\nabc,Success\n")
    code = main(["classify", "--baseline", str(bad), *_common_flags(workspace)])
    assert code == 1
    assert any("line 2" in rec.message for rec in caplog.records)


_BASELINE_HEADER = ("notebook_id,prev_dependency_install,prev_execution_status,"
                    "prev_diff_cells,prev_duration_s\n")


def test_classify_repeated_baseline_notebook_is_fatal(workspace, caplog):
    baseline = workspace["root"] / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER + "nb1,Fail,Install Dependency Error,-,-\n"
                        "nb1,Success,Success,0,1\n")
    code = main(["classify", "--baseline", str(baseline), *_common_flags(workspace)])
    assert code == 1
    assert any("repeats notebook 'nb1' on lines 2 and 3" in rec.message
               for rec in caplog.records)
    assert not (workspace["reports"] / "classification.json").exists()


@pytest.mark.parametrize("rows, message", [
    (None, "fatal i/o error: [Errno 2] No such file or directory"),
    ("nb1,Success\n", "line 2 is short"),
    ("nb1,Fail,Install Dependency Error,-,-\nnb1,Success,Success,0,1\n",
     "repeats notebook 'nb1' on lines 2 and 3"),
], ids=["missing", "short", "repeated"])
def test_run_checks_its_baseline_before_any_repository(workspace, caplog, rows,
                                                       message):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    baseline = workspace["root"] / "baseline.csv"
    if rows is not None:
        baseline.write_text(_BASELINE_HEADER + rows)
    assert main(["run", "--input", url, "--baseline", str(baseline),
                 *_common_flags(workspace)]) == 1
    assert any(message in rec.getMessage() for rec in caplog.records)
    with Store(workspace["store"]) as store:
        assert store.list_repositories() == []
        assert store_rows(store, "repository_runs") == []
    assert not (workspace["artifacts"] / "repos").exists()
    assert not workspace["reports"].exists()


def test_run_with_a_baseline_writes_its_classes_into_the_report(workspace,
                                                               monkeypatch, runtime):
    notebook = _notebook_file(code_cell("print(1)", [
        {"output_type": "stream", "name": "stdout", "text": ["1\n"]}], 1))
    url = _fixture_repo(workspace, "classified", {"nb.ipynb": notebook})
    runtime.plant(url, {"nb.ipynb": notebook.encode()})
    notebook_id = corpus.notebook_id_for(
        corpus.repository_id_for(corpus.canonical_input(url)), "nb.ipynb")
    baseline = workspace["root"] / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER
                        + f"{notebook_id},Fail,Install Dependency Error,-,-\n")
    reads = []
    read = Store.latest_outcomes
    monkeypatch.setattr(Store, "latest_outcomes", lambda self: reads.append(1) or read(self))

    assert main(["run", "--input", url, "--baseline", str(baseline),
                 *_common_flags(workspace)]) == 0
    # classify's read serves the report too.
    assert len(reads) == 1
    payload = json.loads((workspace["reports"] / "classification.json").read_text())
    assert payload["assignments"] == [
        {"notebook_id": notebook_id, "outcome_class": "A_EnvironmentResolved"}]
    summary = json.loads((workspace["reports"] / "report.json").read_text())["summary"]
    assert summary["outcome_classes"]["A_EnvironmentResolved"] == 1
    assert summary["resolution_rate"] == 100.0


def test_cli_builds_no_runtime_client_of_its_own():
    """The pipeline builds the one runtime client."""
    from nbrepro import cli

    modules = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text("utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # "from nbrepro import containerize" imports the module too.
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "nbrepro.pipeline" in modules
    assert "nbrepro.containerize" not in modules


def test_cli_makes_no_runtime_call_and_one_place_probes():
    """The runtime is checked in one place: the client's call that a
    listing, build, run or copy-out makes. The CLI reads no runtime client,
    and only that call's fallback calls the version probe."""
    from nbrepro import cli

    sources = {path.stem: ast.parse(path.read_text("utf-8"))
               for path in sorted(Path(cli.__file__).parent.glob("*.py"))}
    assert [node.lineno for node in ast.walk(sources["cli"])
            if isinstance(node, ast.Attribute) and node.attr == "docker"] == []
    callers = [f"{module}.{function.name}"
               for module, source in sources.items()
               for function in ast.walk(source)
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "available"]
    assert callers == ["containerize._call"]


def test_report_on_empty_store_exits_zero(workspace):
    assert main(["report", *_common_flags(workspace)]) == 0
    report = json.loads((workspace["reports"] / "report.json").read_text())
    assert report["summary"]["total_repositories"] == 0


def test_run_without_runtime_skips_stages_3_4_with_status(workspace, caplog, runtime):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("import requests"))})
    runtime.answer("*", DAEMON_DOWN)
    with caplog.at_level("INFO", logger="nbrepro.cli"):
        code = main(["run", "--input", url, *_common_flags(workspace)])
    assert code == 2  # partial: stages 1-2 done, 3-4 skipped
    with Store(workspace["store"]) as store:
        (run,) = store_rows(store, "repository_runs")
        assert run["provisioning_status"] == ProvisioningStatus.PENDING.value
        assert store_rows(store, "notebook_executions") == []
        (repo,) = store.list_repositories()
        assert any(rec.getMessage().startswith(
                       f"{repo.url} -> degraded: container runtime unavailable: ")
                   for rec in caplog.records)
        manifest = Path(repo.local_path) / "requirements.synthesized.txt"
        assert manifest.exists()  # stage-2 artifacts still produced
    assert (workspace["reports"] / "report.json").exists()
    assert (workspace["logdir"] / "events.ndjson").exists()


def test_every_tool_call_of_a_run_has_a_finite_bound(workspace, monkeypatch, runtime):
    notebook = _notebook_file(code_cell("print(1)"))
    url = _fixture_repo(workspace, "repo", {"a.ipynb": notebook, "b.ipynb": notebook})
    # b.ipynb has no executed artifact: its run fails, and the version probe
    # finds the runtime reachable.
    runtime.plant(url, {"a.ipynb": notebook.encode()})
    bounds = []
    run = tool.subprocess.run

    def recording_run(argv, **kwargs):
        # git -C <tree> rev-parse names its verb after the tree
        args = argv[3:] if argv[1:2] == ["-C"] else argv[1:]
        name = "runtime" if argv[0] == str(STUB_RUNTIME) else Path(argv[0]).name
        bounds.append((f"{name} {args[0]}", kwargs.get("timeout")))
        return run(argv, **kwargs)

    monkeypatch.setattr(tool.subprocess, "run", recording_run)
    main(["run", "--input", url, *_common_flags(workspace)])

    assert {verb for verb, _ in bounds} == {
        "git ls-remote", "git clone", "git rev-parse", "runtime version",
        "runtime ps", "runtime images", "runtime build", "runtime run",
        "runtime cp", "runtime rm"}
    assert [(verb, bound) for verb, bound in bounds
            if bound is None or not 0 < bound < math.inf] == []


def test_a_hung_runtime_costs_one_bound_per_run(workspace, monkeypatch, caplog):
    urls = [_fixture_repo(workspace, f"repo{n}", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))}) for n in range(3)]
    calls = workspace["root"] / "runtime.calls"
    runtime = workspace["root"] / "runtime"
    runtime.write_text(f'#!/bin/sh\necho "$1" >> "{calls}"\nexec sleep 5\n')
    runtime.chmod(0o755)
    monkeypatch.setattr(containerize, "QUICK_CALL_TIMEOUT", 0.5)

    caplog.set_level("INFO", logger="nbrepro.cli")

    def repository_lines():
        lines = sorted(r.getMessage() for r in caplog.records if " -> " in r.getMessage())
        caplog.clear()
        return lines

    inputs = [arg for url in urls for arg in ("--input", url)]
    assert main(["run", *inputs, "--jobs", "1", "--docker", str(runtime),
                 *_common_flags(workspace)]) == 2
    # The first listing times out; the other repositories reuse its verdict.
    assert calls.read_text().split() == ["ps"]
    with Store(workspace["store"]) as store:
        runs = store_rows(store, "repository_runs")
        repo_urls = [repo.url for repo in store.list_repositories()]
    assert len(runs) == 3
    assert {(run["provisioning_status"], run["status_reason"]) for run in runs} == {
        (ProvisioningStatus.PENDING.value, None)}
    reason = (f"container runtime unavailable: container runtime {str(runtime)!r} "
              "is not reachable")
    degraded = sorted(f"{url} -> degraded: {reason}" for url in repo_urls)
    assert repository_lines() == degraded

    # execute takes up the runs and meets the same rule: one listing, no probe.
    assert main(["execute", "--docker", str(runtime), *_common_flags(workspace)]) == 2
    assert calls.read_text().split() == ["ps", "ps"]
    assert repository_lines() == degraded
    with Store(workspace["store"]) as store:
        assert store_rows(store, "repository_runs") == runs


def test_a_run_on_an_unreachable_runtime_is_resumed_by_execute(workspace, caplog, runtime):
    urls = []
    for name in ("a", "b"):
        notebook = _notebook_file(code_cell("print(1)", [
            {"output_type": "stream", "name": "stdout", "text": ["1\n"]}], 1))
        urls.append(_fixture_repo(workspace, name, {f"{name}.ipynb": notebook}))
        runtime.plant(urls[-1], {f"{name}.ipynb": notebook.encode()})
    inputs = [arg for url in urls for arg in ("--input", url)]
    # The executable does not exist.
    runtime.answer("*", OSError(2, "No such file or directory",
                                "definitely-missing-runtime"))

    with caplog.at_level("INFO", logger="nbrepro.cli"):
        assert main(["run", *inputs, "--docker", "definitely-missing-runtime",
                     *_common_flags(workspace)]) == 2
    with Store(workspace["store"]) as store:
        latest = store.latest_runs()
        repo_urls = {repo.url for repo in store.list_repositories()}
        assert {run.provisioning_status for run in latest.values()} == {
            ProvisioningStatus.PENDING}
        assert store_rows(store, "notebook_executions") == []
    assert {r.getMessage() for r in caplog.records if " -> " in r.getMessage()} == {
        f"{url} -> degraded: container runtime unavailable: container runtime "
        "'definitely-missing-runtime' is not reachable" for url in repo_urls}

    # The outage recorded nothing, so the next execute resumes those runs.
    runtime.recover()
    assert main(["execute", *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        for run in latest.values():
            assert (store.get_run(run.run_id).provisioning_status
                    is ProvisioningStatus.ENVIRONMENT_BUILT)
            assert len(store_rows(store, "notebook_executions",
                                  run_id=run.run_id)) == 1
    assert runtime.verbs.count("build") == 2


def test_run_requires_inputs(workspace, caplog):
    assert main(["run", *_common_flags(workspace)]) == 1
    assert any("--input" in rec.message for rec in caplog.records)


def test_rerun_creates_new_run_ids_same_deterministic_fields(workspace):
    url = _fixture_repo(workspace, "repo", {
        "requirements.txt": "packaging==21.0\n",
        "nb.ipynb": _notebook_file(code_cell("import yaml\nprint(1)")),
    })
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        (repo_first,) = store.list_repositories()
        manifest_first = (Path(repo_first.local_path)
                          / "requirements.synthesized.txt").read_text()
        run_ids_first = {r["run_id"] for r in store_rows(store, "repository_runs")}
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        (repo_second,) = store.list_repositories()
        manifest_second = (Path(repo_second.local_path)
                           / "requirements.synthesized.txt").read_text()
        run_ids = {r["run_id"] for r in store_rows(store, "repository_runs")}
    assert repo_first.repository_id == repo_second.repository_id
    assert manifest_first == manifest_second == "packaging==21.0\npyyaml\n"
    assert len(run_ids) == 2 and run_ids_first < run_ids


def test_config_file_flags_win(workspace, tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "jobs": 3,
        "store_path": str(tmp_path / "from-config.sqlite3"),
    }))
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    code = main(["infer", "--input", url, "--config", str(config_file),
                 *_common_flags(workspace)])
    assert code == 0
    # flag-provided store wins over the config file value
    assert workspace["store"].exists()
    assert not (tmp_path / "from-config.sqlite3").exists()


def test_invalid_config_is_fatal(workspace, caplog):
    code = main(["infer", "--input", "https://example.org/x", "--jobs", "0",
                 *_common_flags(workspace)])
    assert code == 1
    assert any("worker pool" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("key, value", [
    ("inputs", "file:///nonexistent/u/p"),
    ("inputs", ["file:///nonexistent/u/p", 3]),
    ("jobs", "2"),
    ("jobs", True),
    ("exec_timeout", "10"),
    ("build_timeout", 0),
    ("exec_timeout", math.inf),  # JSON's Infinity
    ("build_timeout", math.inf),
    ("validation_timeout", 1e9),
    ("store_path", None),
    ("cpu_limit", 2),
    ("scan_magic_installs", "no"),
])
def test_config_file_value_of_wrong_type_is_fatal(workspace, tmp_path, caplog,
                                                  key, value):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({key: value}))
    code = main(["infer", "--input", str(tmp_path / "missing"),
                 "--config", str(config_file), *_common_flags(workspace)])
    assert code == 1
    assert any(f"config key {key!r}" in rec.message for rec in caplog.records)
    assert not workspace["store"].exists()


def test_config_file_accepts_every_field(tmp_path):
    values = {
        "inputs": ["file:///nonexistent/u/p"], "store_path": "s.sqlite3",
        "logdir": "logs", "artifacts_dir": "artifacts", "report_dir": "reports",
        "jobs": 2, "build_timeout": 10, "exec_timeout": 2.5,
        "validation_timeout": 1, "base_image": "python:3.11-slim",
        "alias_table_path": None, "baseline_path": "baseline.csv",
        "scan_magic_installs": False, "docker_executable": "podman",
        "cpu_limit": "2", "memory_limit": None,
    }
    assert set(values) == {f.name for f in dataclasses.fields(PipelineConfig)}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(values))
    config = PipelineConfig.from_file(config_file)
    assert config.jobs == 2 and config.baseline_path == Path("baseline.csv")
    assert config.scan_magic_installs is False


# What a timeout may be, from a flag or a config file: finite, above 0 and
# at most MAX_TIMEOUT, which the process runner can still wait out.
@pytest.mark.parametrize("flag, value", [
    (flag, value) for flag in ("--exec-timeout", "--build-timeout")
    for value in ("nan", "inf", "1e9")])
def test_a_timeout_flag_out_of_range_is_fatal(workspace, caplog, flag, value):
    setting = flag[2:].replace("-", "_")
    assert main(["run", "--input", str(workspace["root"] / "missing"), flag, value,
                 *_common_flags(workspace)]) == 1
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{setting} must be a number of seconds")
    assert not workspace["store"].exists()


def test_the_longest_timeout_is_one_the_runner_can_wait_out():
    with pytest.raises(ConfigError):
        PipelineConfig(exec_timeout=MAX_TIMEOUT * 1.001).validate()
    PipelineConfig(exec_timeout=MAX_TIMEOUT, build_timeout=MAX_TIMEOUT,
                   validation_timeout=MAX_TIMEOUT).validate()
    done = tool.run_tool([sys.executable, "-c", "print('ok')"], MAX_TIMEOUT)
    assert (done.returncode, done.stdout) == (0, "ok\n")


# The behaviour flags each subcommand's handler reads; every subcommand also
# takes the workspace flags, and no other.
_WORKSPACE_FLAGS = {"--config", "--store", "--logdir", "--artifacts", "--report-dir"}
_ROWS = {
    "run": {"--input", "--jobs", "--build-timeout", "--exec-timeout", "--base-image",
            "--alias-table", "--scan-magic-installs", "--baseline", "--docker"},
    "infer": {"--input", "--jobs", "--base-image", "--alias-table",
              "--scan-magic-installs"},
    "execute": {"--jobs", "--build-timeout", "--exec-timeout", "--docker"},
    "compare": {"--jobs"},
    "report": set(),
    "classify": {"--baseline"},
}
# A value for each behaviour flag that its own commands would accept.
_FLAG_VALUES = {
    "--input": ["file:///nonexistent/u/p"], "--jobs": ["4"], "--build-timeout": ["5"],
    "--exec-timeout": ["5"], "--base-image": ["python:3.12-slim"],
    "--alias-table": ["aliases.json"], "--scan-magic-installs": [],
    "--no-scan-magic-installs": [], "--baseline": ["baseline.csv"],
    "--docker": ["podman"],
}


def _subparser(command: str) -> argparse.ArgumentParser:
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices[command]


@pytest.mark.parametrize("command", sorted(_ROWS))
def test_each_subcommand_takes_the_workspace_flags_and_its_row(command):
    options = [action for action in _subparser(command)._actions
               if not isinstance(action, argparse._HelpAction)]
    assert {action.option_strings[0] for action in options} \
        == _WORKSPACE_FLAGS | _ROWS[command]
    # config_from_args copies a flag by its dest and skips one that names no
    # field, so a misspelled dest would be accepted and ignored.
    fields = {field.name for field in dataclasses.fields(PipelineConfig)}
    assert {action.dest for action in options} <= fields | {"config"}


@pytest.mark.parametrize("command", sorted(set(_ROWS) - {"run"}))  # run reads them all
def test_a_behaviour_flag_of_another_subcommand_is_a_usage_error(workspace, capsys,
                                                                 monkeypatch, command):
    monkeypatch.chdir(workspace["root"])
    for flag in _FLAG_VALUES:
        if flag.replace("--no-", "--") in _ROWS[command]:
            continue
        assert main([command, flag, *_FLAG_VALUES[flag], *_common_flags(workspace)]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(workspace["root"].iterdir()) == []


def test_the_benchmark_argv_shapes_parse(tmp_path):
    # The argv that the benchmark harness sends, flag for flag: it passes
    # --logdir to classify and report, which read no log directory.
    store, reports, logs = tmp_path / "store.sqlite3", tmp_path / "reports", tmp_path / "logs"
    workspace = ["--store", str(store), "--report-dir", str(reports), "--logdir", str(logs)]
    parser = build_parser()
    run = config_from_args(parser.parse_args([
        "run", "--input", "file:///a", "--input", "file:///b", "--store", str(store),
        "--logdir", str(logs), "--artifacts", str(tmp_path / "artifacts"),
        "--report-dir", str(reports), "--jobs", "2", "--docker", "stub_runtime.sh"]))
    assert (run.inputs, run.jobs, run.docker_executable, run.artifacts_dir) \
        == (["file:///a", "file:///b"], 2, "stub_runtime.sh", tmp_path / "artifacts")
    classify = config_from_args(parser.parse_args(
        ["classify", *workspace, "--baseline", str(tmp_path / "baseline.csv")]))
    assert classify.baseline_path == tmp_path / "baseline.csv"
    report = config_from_args(parser.parse_args(["report", *workspace]))
    for config in (run, classify, report):
        assert (config.store_path, config.report_dir, config.logdir) == (store, reports, logs)


@pytest.mark.parametrize("argv", [
    # A prefix is no flag: --base is not classify's --baseline, nor --exec
    # execute's --exec-timeout.
    ["classify", "--base", "python:3.12-slim"],
    ["execute", "--exec", "5"],
    ["run", "--input", "file:///a", "--doc", "x"],
    ["report", "--jobs", "4"],
], ids=["classify-base", "execute-exec", "run-doc", "report-jobs"])
def test_a_flag_the_subcommand_does_not_take_shows_its_usage(workspace, capsys,
                                                              monkeypatch, argv):
    monkeypatch.chdir(workspace["root"])
    assert main([*argv, *_common_flags(workspace)]) == 1
    err = capsys.readouterr().err
    command, flag = argv[0], " ".join(argv[-2:])
    assert err.startswith(f"usage: nbrepro {command} [-h] [--config CONFIG]")
    assert f"nbrepro {command}: error: unrecognized arguments: {flag}" in err
    assert list(workspace["root"].iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    (["report", "--bogus"], 1),
    (["report", "--jobs"], 1),
    (["frobnicate"], 1),
    ([], 1),
    (["--help"], 0),
    (["classify", "--help"], 0),
    (["--version"], 0),
])
def test_a_usage_error_is_fatal_and_help_is_not(tmp_path, monkeypatch, capsys, argv, code):
    # 2 means partial: a script that resumes on it must not loop on a typo.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert (capsys.readouterr().err.startswith("usage: nbrepro")) == (code == 1)
    assert list(tmp_path.iterdir()) == []


def test_structured_event_log_lines_parse(workspace):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    main(["infer", "--input", url, *_common_flags(workspace)])
    events_path = workspace["logdir"] / "events.ndjson"
    lines = events_path.read_text().strip().splitlines()
    assert lines
    for line in lines:
        event = json.loads(line)
        assert {"ts", "stage", "event"} <= set(event)


def test_infer_events_spell_each_url_as_the_store_does(workspace):
    # Typed as a local path ending in .git, which the store's URL drops; the
    # second one is no git repository, so it is recorded as an invalid URL.
    _fixture_repo(workspace, "Repo.git", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    (workspace["root"] / "origins" / "Gone.git").mkdir()
    inputs = [str(workspace["root"] / "origins" / name)
              for name in ("Repo.git", "Gone.git")]
    main(["infer", *[arg for raw in inputs for arg in ("--input", raw)],
          *_common_flags(workspace)])
    with Store(workspace["store"]) as store:
        stored = {r.repository_id: r.url for r in store.list_repositories()}
    events = [json.loads(line) for line in
              (workspace["logdir"] / "events.ndjson").read_text().splitlines()]
    spelled = {(e["event"], e["repository_id"]): e["url"]
               for e in events if "url" in e}
    assert sorted(event for event, _ in spelled) == ["invalid_url", "start", "start"]
    assert len(stored) == 2
    for (_, repository_id), url in spelled.items():
        assert url == stored[repository_id]
        assert not url.endswith(".git")


def test_duplicate_inputs_deduplicated(workspace):
    url = _fixture_repo(workspace, "dup", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    path = str(workspace["root"] / "origins" / "dup")
    # Five spellings of one repository give one run.
    spellings = [url, url, url + "/", path, path + "/"]
    flags = [arg for spelling in spellings for arg in ("--input", spelling)]
    assert main(["infer", *flags, "--jobs", "2", *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        assert len(store_rows(store, "repository_runs")) == 1
        assert [r.url for r in store.list_repositories()] == [url]


def test_infer_parallel_jobs(workspace):
    urls = [
        _fixture_repo(workspace, f"par{i}", {
            "nb.ipynb": _notebook_file(code_cell(f"print({i})"))})
        for i in range(4)
    ]
    flags = [arg for url in urls for arg in ("--input", url)]
    assert main(["infer", *flags, "--jobs", "3", *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        assert len(store.list_repositories()) == 4
        assert len(store_rows(store, "repository_runs")) == 4


def test_only_a_stage_with_notebooks_starts_notebook_threads(workspace, monkeypatch,
                                                            runtime):
    """Both pools open with every stage, but a pool starts a thread only for
    work submitted to it."""
    started: list[str] = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    urls = [_fixture_repo(workspace, name, {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))}) for name in ("a", "b")]
    flags = [arg for url in urls for arg in ("--input", url)]
    assert main(["infer", *flags, "--jobs", "4", *_common_flags(workspace)]) == 0
    assert started
    assert not [name for name in started if name.startswith("nbrepro-notebook")]

    started.clear()
    assert main(["execute", "--jobs", "2", *_common_flags(workspace)]) == 0
    assert 1 <= len([name for name in started if name.startswith("nbrepro-notebook")]) <= 2


def test_classification_reports_rescue_direction(workspace):
    # Repositories without a requirements manifest that the synthesized
    # manifest makes executable must show a higher containerized success
    # rate than the baseline's for that stratum.
    from nbrepro.compare import metrics_from_partition
    from nbrepro.executor import ExecutionRecord, ExecutionStatus

    url = _fixture_repo(workspace, "noreq", {
        "nb.ipynb": _notebook_file(code_cell("import yaml\nprint('ok')"))})
    main(["infer", "--input", url, *_common_flags(workspace)])
    with Store(workspace["store"]) as store:
        (repo,) = store.list_repositories()
        assert not repo.has_requirements_file
        (run,) = store.latest_runs().values()
        (descriptor,) = store_rows(store, "notebooks")
        store.finish_run(run, ProvisioningStatus.ENVIRONMENT_BUILT,
                         image_reference="repro/x:y")
        store.insert_execution(ExecutionRecord(
            notebook_id=descriptor["notebook_id"], run_id=run.run_id,
            status=ExecutionStatus.SUCCESS, duration_s=1.0, code_cell_count=1,
            markdown_code_ratio=0.0, errors=(),
            executed_notebook_path="/tmp/x.ipynb"))
        store.insert_metrics(metrics_from_partition(
            [0], [], [], notebook_id=descriptor["notebook_id"], run_id=run.run_id))
        notebook_id = descriptor["notebook_id"]

    baseline = workspace["root"] / "baseline.csv"
    baseline.write_text(
        "notebook_id,prev_dependency_install,prev_execution_status,"
        "prev_diff_cells,prev_duration_s\n"
        f"{notebook_id},Fail,Install Dependency Error,-,-\n")
    assert main(["classify", "--baseline", str(baseline),
                 *_common_flags(workspace)]) == 0
    payload = json.loads(
        (workspace["reports"] / "classification.json").read_text())
    baseline_rate = payload["baseline_success_rate_by_requirements"][
        "without_requirements"]
    containerized_rate = payload["containerized_success_rate_by_requirements"][
        "without_requirements"]
    assert containerized_rate > baseline_rate
    assert payload["counts"] == {"A_EnvironmentResolved": 1}
    assert payload["resolution_rate"] == 100.0


def test_subcommand_chain_with_stubbed_runtime(workspace, runtime):
    from nbrepro.notebook import parse_notebook

    url = _fixture_repo(workspace, "chained", {
        "nb.ipynb": _notebook_file(
            code_cell("print('stable')", [
                {"output_type": "stream", "name": "stdout",
                 "text": ["stable\n"]}], 1)),
    })
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0

    with Store(workspace["store"]) as store:
        (repo,) = store.list_repositories()
        original = (Path(repo.local_path) / "nb.ipynb").read_bytes()
    parse_notebook(original)  # sanity: fixture is a valid artifact
    runtime.plant(url, {"nb.ipynb": original})

    assert main(["execute", *_common_flags(workspace)]) == 0
    assert main(["compare", *_common_flags(workspace)]) == 0
    assert main(["report", *_common_flags(workspace)]) == 0

    with Store(workspace["store"]) as store:
        (run,) = store_rows(store, "repository_runs")
        assert run["provisioning_status"] == ProvisioningStatus.ENVIRONMENT_BUILT.value
        (metrics,) = store_rows(store, "reproducibility_metrics", run_id=run["run_id"])
        assert metrics["structural_mismatch"] == 0 and metrics["score"] == 1.0
    report = json.loads((workspace["reports"] / "report.json").read_text())
    assert report["summary"]["score_categories"]["Perfect"] == 1
    assert report["summary"]["zero_error_notebooks"] == 1
    # build ran through the clean-room cleanup first
    assert runtime.verbs.index("ps") < runtime.verbs.index("build")


def test_execute_logs_each_repository_outcome(workspace, caplog, runtime):
    def crashing(args, timeout):
        if args[-1] == "bad.ipynb":
            raise RuntimeError("runtime client crashed")
        return runtime.stub(args, timeout)

    for name in ("good", "bad"):
        url = _fixture_repo(workspace, name, {
            f"{name}.ipynb": _notebook_file(code_cell("print(1)"))})
        assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        urls = {repo.url.rsplit("/", 1)[-1]: repo.url
                for repo in store.list_repositories()}
    runtime.answer("run", crashing)

    with caplog.at_level("INFO", logger="nbrepro.cli"):
        assert main(["execute", *_common_flags(workspace)]) == 2
    lines = {record.getMessage() for record in caplog.records
             if record.name == "nbrepro.cli"}
    assert f"{urls['good']} -> ok" in lines
    assert (f"{urls['bad']} -> degraded: unexpected error: "
            "runtime client crashed") in lines


def _executed_corpus(workspace, runtime, names):
    """Infer and execute one single-notebook repository per name on the
    stub runtime, whose artifacts reproduce the committed outputs."""
    for name in names:
        notebook = _notebook_file(code_cell("print(1)", [
            {"output_type": "stream", "name": "stdout", "text": ["1\n"]}], 1))
        url = _fixture_repo(workspace, name, {f"{name}.ipynb": notebook})
        runtime.plant(url, {f"{name}.ipynb": notebook.encode()})
        assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    assert main(["execute", *_common_flags(workspace)]) == 0


def test_compare_degrades_one_repository_not_the_corpus(workspace, runtime, caplog):
    _executed_corpus(workspace, runtime, ("blocked", "fine"))
    with Store(workspace["store"]) as store:
        runs = {Path(repo.url).name: store.latest_runs()[repo.repository_id]
                for repo in store.list_repositories()}
        urls = {Path(repo.url).name: repo.url for repo in store.list_repositories()}
    # The blocked run's log directory path is taken by a file.
    blocked = workspace["logdir"] / runs["blocked"].run_id
    shutil.rmtree(blocked)
    blocked.write_text("not a directory\n")

    with caplog.at_level("INFO", logger="nbrepro.cli"):
        assert main(["compare", *_common_flags(workspace)]) == 2
    with Store(workspace["store"]) as store:
        assert store_rows(store, "reproducibility_metrics",
                          run_id=runs["blocked"].run_id) == []
        (metrics,) = store_rows(store, "reproducibility_metrics",
                                run_id=runs["fine"].run_id)
    assert metrics["score"] == 1.0
    lines = {record.getMessage() for record in caplog.records
             if record.name == "nbrepro.cli"}
    assert f"{urls['fine']} -> ok" in lines
    assert any(line.startswith(f"{urls['blocked']} -> degraded: unexpected error: ")
               for line in lines)


def test_resource_limits_from_config_reach_the_runtime(workspace, runtime, tmp_path):
    config_file = tmp_path / "limits.json"
    config_file.write_text(json.dumps({"cpu_limit": "1.5", "memory_limit": "2g"}))
    url = _fixture_repo(workspace, "limited", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    common = [*_common_flags(workspace), "--config", str(config_file)]
    assert main(["infer", "--input", url, *common]) == 0
    assert main(["execute", *common]) == 0

    (run_args,) = [args for args in runtime.calls if args[0] == "run"]
    assert run_args[run_args.index("--cpus") + 1] == "1.5"
    assert run_args[run_args.index("--memory") + 1] == "2g"


def _classified_workspace(workspace, name):
    """A store of one inferred repository whose one notebook classify has
    classified, with its classification.json in the report directory."""
    url = _fixture_repo(workspace, name, {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        (descriptor,) = store_rows(store, "notebooks")
    baseline = workspace["root"] / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER
                        + f"{descriptor['notebook_id']},Fail,Install Dependency Error,-,-\n")
    assert main(["classify", "--baseline", str(baseline), *_common_flags(workspace)]) == 0
    return url


def _report_without_classes(workspace, caplog, flags):
    caplog.clear()
    assert main(["report", *flags]) == 0
    summary = json.loads((workspace["reports"] / "report.json").read_text())["summary"]
    assert summary["classified_notebooks"] == 0
    assert summary["resolution_rate"] is None
    (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert "classify" in warning and "classification.json" in warning
    return summary


def test_report_on_another_store_has_no_classes(workspace, caplog):
    _classified_workspace(workspace, "first")
    flags = _common_flags(workspace)
    flags[flags.index("--store") + 1] = str(workspace["root"] / "other.sqlite3")
    assert main(["report", *flags]) == 0
    summary = json.loads((workspace["reports"] / "report.json").read_text())["summary"]
    assert summary["total_notebooks"] == 0
    _report_without_classes(workspace, caplog, flags)


def test_report_after_compare_has_no_stale_classes(workspace, caplog, runtime):
    notebook = _notebook_file(code_cell("print(1)", [
        {"output_type": "stream", "name": "stdout", "text": ["1\n"]}], 1))
    url = _fixture_repo(workspace, "compared", {"nb.ipynb": notebook})
    runtime.plant(url, {"nb.ipynb": notebook.encode()})
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    assert main(["execute", *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        (descriptor,) = store_rows(store, "notebooks")
    baseline = workspace["root"] / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER
                        + f"{descriptor['notebook_id']},Fail,Install Dependency Error,-,-\n")
    assert main(["classify", "--baseline", str(baseline), *_common_flags(workspace)]) == 0
    assert main(["report", *_common_flags(workspace)]) == 0
    summary = json.loads((workspace["reports"] / "report.json").read_text())["summary"]
    assert summary["classified_notebooks"] == 1

    assert main(["compare", *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        assert store_rows(store, "reproducibility_metrics")
    assert _report_without_classes(workspace, caplog, _common_flags(workspace))[
        "scored_notebooks"] == 1


def test_a_garbage_classification_file_changes_no_report_byte(workspace, monkeypatch,
                                                               caplog):
    monkeypatch.setattr("nbrepro.report.utc_now_iso", lambda: "2026-01-01T00:00:00+00:00")
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    names = ("report.json", "summary.csv", "summary.md")
    assert main(["report", *_common_flags(workspace)]) == 0
    clean = {name: (workspace["reports"] / name).read_bytes() for name in names}
    (workspace["reports"] / "classification.json").write_text('{"counts": {"A": 1')
    _report_without_classes(workspace, caplog, _common_flags(workspace))
    assert {name: (workspace["reports"] / name).read_bytes() for name in names} == clean


@pytest.mark.parametrize("command, lock", [("report", "EXCLUSIVE"), ("classify", "IMMEDIATE")])
def test_a_locked_store_is_a_fatal_error_that_names_it(workspace, caplog, monkeypatch,
                                                      command, lock):
    """Another connection holds the store: report cannot read it, and
    classify cannot write its classes."""
    _classified_workspace(workspace, "locked")
    (workspace["reports"] / "classification.json").unlink()
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *args, **kwargs: connect(*args, **{**kwargs, "timeout": 0.05}))
    flags = _common_flags(workspace)
    if command == "classify":
        flags += ["--baseline", str(workspace["root"] / "baseline.csv")]
    with closing(connect(workspace["store"])) as holder:
        holder.execute(f"BEGIN {lock}")
        caplog.clear()
        assert main([command, *flags]) == 1
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"store {workspace['store']}: database is locked"
    assert not (workspace["reports"] / "classification.json").exists()
    with Store(workspace["store"]) as store:  # classify's row stands
        assert store.classification() is not None


@pytest.mark.parametrize("command", ["execute", "compare"])
def test_execute_and_compare_read_no_alias_table(workspace, caplog, runtime, command):
    # Neither command takes --alias-table, so the config file names one.
    config = workspace["root"] / "config.json"
    config.write_text(json.dumps({
        "alias_table_path": str(workspace["root"] / "missing.json")}))
    assert main([command, "--config", str(config), *_common_flags(workspace)]) == 1
    message = {"execute": "no inferred runs are awaiting execution",
               "compare": "no executed artifacts for run"}[command]
    assert any(message in r.getMessage() for r in caplog.records)
    assert runtime.calls == []


@pytest.mark.parametrize("command", ["infer", "run"])
def test_an_unreadable_alias_table_stops_infer_before_any_repository(workspace, caplog,
                                                                     command):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("import yaml"))})
    missing = workspace["root"] / "missing.json"
    assert main([command, "--input", url, "--alias-table", str(missing),
                 *_common_flags(workspace)]) == 1
    assert any(str(missing) in r.getMessage() for r in caplog.records)
    with Store(workspace["store"]) as store:
        assert store.list_repositories() == []
    assert not (workspace["artifacts"] / "repos").exists()


def test_each_log_line_names_a_repository_by_its_store_url(workspace, caplog):
    origin = workspace["root"] / "origins" / "Repo.git"
    make_git_repo(origin, {"nb.ipynb": _notebook_file(code_cell("print(1)"))})
    caplog.set_level(logging.INFO, logger="nbrepro.cli")
    # Only run reaches the runtime, so only run takes --docker.
    for command, flags in (("infer", []),
                           ("run", ["--docker", "definitely-missing-runtime"])):
        caplog.clear()
        main([command, "--input", str(origin), *flags, *_common_flags(workspace)])
        with Store(workspace["store"]) as store:
            (repo,) = store.list_repositories()
        assert repo.url.endswith("/Repo")
        (line,) = [r.getMessage() for r in caplog.records if " -> " in r.getMessage()]
        assert line.startswith(f"{repo.url} -> "), line


def test_run_matches_subcommand_chain_on_deterministic_state(workspace, tmp_path, runtime):
    # Same corpus through `run` and through the subcommand chain must agree
    # on every deterministic field (ids, counts, synthesized manifests);
    # run ids are random by design and local paths differ per workspace.
    files = {
        "requirements.txt": "packaging==21.0\n",
        "nb.ipynb": _notebook_file(code_cell("import yaml\nprint(1)")),
        "sub/other.ipynb": _notebook_file(code_cell("import bs4")),
    }
    url = _fixture_repo(workspace, "composed", files)

    chain_ws = {key: tmp_path / "chain" / key for key in
                ("store", "logdir", "artifacts", "reports")}
    chain_flags = ["--store", str(chain_ws["store"]),
                   "--logdir", str(chain_ws["logdir"]),
                   "--artifacts", str(chain_ws["artifacts"]),
                   "--report-dir", str(chain_ws["reports"])]

    main(["run", "--input", url, *_common_flags(workspace)])
    main(["infer", "--input", url, *chain_flags])
    main(["report", *chain_flags])

    def snapshot(store_path):
        with Store(store_path) as store:
            repos = [(r.repository_id, r.has_requirements_file, r.notebook_count,
                      r.manifest_paths) for r in store.list_repositories()]
            notebooks = [(n["notebook_id"], n["relative_path"], n["code_cell_count"],
                          n["nondeterministic_pattern_cells"])
                         for n in store_rows(store, "notebooks")]
            manifests = [
                (Path(r.local_path) / "requirements.synthesized.txt").read_text()
                for r in store.list_repositories()]
        return repos, notebooks, manifests

    assert snapshot(workspace["store"]) == snapshot(chain_ws["store"])


def test_classify_with_baseline_emits_classification(workspace):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    main(["infer", "--input", url, *_common_flags(workspace)])
    with Store(workspace["store"]) as store:
        (descriptor,) = store_rows(store, "notebooks")
        notebook_id = descriptor["notebook_id"]
    baseline = workspace["root"] / "baseline.csv"
    baseline.write_text(
        "notebook_id,prev_dependency_install,prev_execution_status,"
        "prev_diff_cells,prev_duration_s\n"
        f"{notebook_id},Fail,Install Dependency Error,-,-\n"
        "unknown-nb,Success,Success,0,1.0\n")
    assert main(["classify", "--baseline", str(baseline),
                 *_common_flags(workspace)]) == 0
    payload = json.loads(
        (workspace["reports"] / "classification.json").read_text())
    assert payload["unmatched_baseline_rows"] == ["unknown-nb"]
    assert payload["assignments"][0]["notebook_id"] == notebook_id
    # report picks up the classification counts
    assert main(["report", *_common_flags(workspace)]) == 0
    report = json.loads((workspace["reports"] / "report.json").read_text())
    assert report["summary"]["classified_notebooks"] == 1


@pytest.mark.parametrize(("status", "execution", "code"), [
    (ProvisioningStatus.PENDING, None, 1),
    (ProvisioningStatus.BUILD_FAILED, None, 1),
    (ProvisioningStatus.KERNEL_NOT_FOUND, "KernelNotFound", 0),
    (ProvisioningStatus.ENVIRONMENT_BUILT, "ErroredButCompleted", 0),
])
def test_compare_exit_code_follows_the_latest_run(workspace, caplog,
                                                   status, execution, code):
    # A latest run holds execution rows exactly when execute finished it as
    # EnvironmentBuilt or KernelNotFound; only those have work to compare.
    from nbrepro.executor import ExecutionRecord, ExecutionStatus
    from nbrepro.store import NotebookDescriptor, Repository, RunRecord

    with Store(workspace["store"]) as store:
        store.upsert_repository(Repository("r1", "file:///r1", notebook_count=1))
        store.upsert_notebook(NotebookDescriptor("n1", "r1", "nb.ipynb"))
        run = RunRecord("run1", "r1", "inv1", "2026-01-01T00:00:00+00:00")
        store.insert_run(run)
        if status is not ProvisioningStatus.PENDING:
            store.finish_run(run, status, reason="built")
        if execution is not None:
            store.insert_execution(ExecutionRecord(
                notebook_id="n1", run_id="run1",
                status=ExecutionStatus(execution), duration_s=1.0,
                code_cell_count=1, markdown_code_ratio=0.0, errors=()))

    assert main(["compare", *_common_flags(workspace)]) == code
    assert any("no executed artifacts for run" in record.message
               for record in caplog.records) == (code == 1)
