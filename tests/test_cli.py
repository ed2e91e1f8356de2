"""CLI subcommand wiring, stage composition, and exit codes.

These run the real pipeline against local git fixtures; container stages
degrade gracefully when no runtime is present, which is itself part of the
contract under test.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sqlite3
from pathlib import Path

import pytest

from nbrepro import containerize, corpus, tool
from nbrepro.cli import main
from nbrepro.config import PipelineConfig
from nbrepro.store import SCHEMA_VERSION, ProvisioningStatus, Store

from conftest import (
    FIXTURES,
    code_cell,
    docker_available,
    logging_runtime,
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
    code = main(["execute", "--docker", "definitely-missing-runtime",
                 *_common_flags(workspace)])
    assert code == 1
    assert any("not reachable" in rec.message for rec in caplog.records)


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


def test_report_on_empty_store_exits_zero(workspace):
    assert main(["report", *_common_flags(workspace)]) == 0
    report = json.loads((workspace["reports"] / "report.json").read_text())
    assert report["summary"]["total_repositories"] == 0


@pytest.mark.skipif(docker_available(),
                    reason="exercises the no-runtime degradation path")
def test_run_without_runtime_skips_stages_3_4_with_status(workspace):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("import requests"))})
    code = main(["run", "--input", url, *_common_flags(workspace)])
    assert code == 2  # partial: stages 1-2 done, 3-4 skipped
    with Store(workspace["store"]) as store:
        (run,) = store_rows(store, "repository_runs")
        assert run["provisioning_status"] == ProvisioningStatus.BUILD_FAILED.value
        assert "container runtime unavailable" in (run["status_reason"] or "")
        (repo,) = store.list_repositories()
        manifest = Path(repo.local_path) / "requirements.synthesized.txt"
        assert manifest.exists()  # stage-2 artifacts still produced
    assert (workspace["reports"] / "report.json").exists()
    assert (workspace["logdir"] / "events.ndjson").exists()


def test_every_tool_call_of_a_run_has_a_finite_bound(workspace, monkeypatch):
    url = _fixture_repo(workspace, "repo", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    executable, _ = logging_runtime(workspace["root"])
    bounds = []
    run = tool.subprocess.run

    def recording_run(argv, **kwargs):
        # git -C <tree> rev-parse names its verb after the tree
        args = argv[3:] if argv[1:2] == ["-C"] else argv[1:]
        bounds.append((f"{Path(argv[0]).name} {args[0]}", kwargs.get("timeout")))
        return run(argv, **kwargs)

    monkeypatch.setattr(tool.subprocess, "run", recording_run)
    main(["run", "--input", url, "--docker", str(executable),
          *_common_flags(workspace)])
    # run learns reachability from the cleanup listing; execute probes first
    main(["infer", "--input", url, *_common_flags(workspace)])
    main(["execute", "--docker", str(executable), *_common_flags(workspace)])

    assert {verb for verb, _ in bounds} == {
        "git ls-remote", "git clone", "git rev-parse", "runtime version",
        "runtime ps", "runtime images", "runtime build", "runtime run",
        "runtime cp", "runtime rm"}
    assert [(verb, bound) for verb, bound in bounds
            if bound is None or not 0 < bound < math.inf] == []


def test_a_hung_runtime_costs_one_bound_per_run(workspace, monkeypatch):
    urls = [_fixture_repo(workspace, f"repo{n}", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))}) for n in range(3)]
    calls = workspace["root"] / "runtime.calls"
    runtime = workspace["root"] / "runtime"
    runtime.write_text(f'#!/bin/sh\necho "$1" >> "{calls}"\nexec sleep 5\n')
    runtime.chmod(0o755)
    monkeypatch.setattr(containerize, "QUICK_CALL_TIMEOUT", 0.5)

    inputs = [arg for url in urls for arg in ("--input", url)]
    assert main(["run", *inputs, "--jobs", "1", "--docker", str(runtime),
                 *_common_flags(workspace)]) == 2
    # The first listing times out; the other repositories reuse its verdict.
    assert calls.read_text().split() == ["ps"]
    with Store(workspace["store"]) as store:
        runs = store_rows(store, "repository_runs")
    assert len(runs) == 3
    assert {(run["provisioning_status"], run["status_reason"]) for run in runs} == {
        (ProvisioningStatus.BUILD_FAILED.value,
         f"container runtime unavailable: container runtime {str(runtime)!r} "
         "is not reachable")}


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


def test_subcommand_chain_with_stubbed_runtime(workspace, monkeypatch):
    from conftest import FakeDocker
    from nbrepro import cli as climod
    from nbrepro.notebook import parse_notebook

    url = _fixture_repo(workspace, "chained", {
        "nb.ipynb": _notebook_file(
            code_cell("print('stable')", [
                {"output_type": "stream", "name": "stdout",
                 "text": ["stable\n"]}], 1)),
    })
    assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0

    docker = FakeDocker()
    with Store(workspace["store"]) as store:
        (repo,) = store.list_repositories()
        original = (Path(repo.local_path) / "nb.ipynb").read_bytes()
    parse_notebook(original)  # sanity: fixture is a valid artifact
    docker.copy_payloads["/workspace/nb.executed.ipynb"] = original
    monkeypatch.setattr(climod, "DockerCli", lambda executable: docker)

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
    ops = [c[0] for c in docker.calls]
    assert ops.index("list_containers") < ops.index("build")


def test_execute_logs_each_repository_outcome(workspace, monkeypatch, caplog):
    from conftest import FakeDocker
    from nbrepro import cli as climod

    class CrashingDocker(FakeDocker):
        def run_container(self, image, command, run_args, timeout=None):
            if command[-1] == "bad.ipynb":
                raise RuntimeError("runtime client crashed")
            return super().run_container(image, command, run_args, timeout)

    for name in ("good", "bad"):
        url = _fixture_repo(workspace, name, {
            f"{name}.ipynb": _notebook_file(code_cell("print(1)"))})
        assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    with Store(workspace["store"]) as store:
        urls = {repo.url.rsplit("/", 1)[-1]: repo.url
                for repo in store.list_repositories()}
    monkeypatch.setattr(climod, "DockerCli", lambda executable: CrashingDocker())

    with caplog.at_level("INFO", logger="nbrepro.cli"):
        assert main(["execute", *_common_flags(workspace)]) == 2
    lines = {record.getMessage() for record in caplog.records
             if record.name == "nbrepro.cli"}
    assert f"{urls['good']} -> ok" in lines
    assert (f"{urls['bad']} -> degraded: unexpected error: "
            "runtime client crashed") in lines


def _executed_corpus(workspace, monkeypatch, names):
    """Infer and execute one single-notebook repository per name on a fake
    runtime whose artifacts reproduce the committed outputs."""
    from conftest import FakeDocker
    from nbrepro import cli as climod

    docker = FakeDocker()
    for name in names:
        notebook = _notebook_file(code_cell("print(1)", [
            {"output_type": "stream", "name": "stdout", "text": ["1\n"]}], 1))
        docker.copy_payloads[f"/workspace/{name}.executed.ipynb"] = notebook.encode()
        url = _fixture_repo(workspace, name, {f"{name}.ipynb": notebook})
        assert main(["infer", "--input", url, *_common_flags(workspace)]) == 0
    monkeypatch.setattr(climod, "DockerCli", lambda executable: docker)
    assert main(["execute", *_common_flags(workspace)]) == 0


def test_compare_degrades_one_repository_not_the_corpus(workspace, monkeypatch,
                                                        caplog):
    _executed_corpus(workspace, monkeypatch, ("blocked", "fine"))
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


def test_resource_limits_from_config_reach_the_runtime(workspace, monkeypatch,
                                                       tmp_path):
    from conftest import FakeDocker
    from nbrepro import cli as climod

    class RecordingDocker(FakeDocker):
        def __init__(self):
            super().__init__()
            self.run_args = []

        def run_container(self, image, command, run_args, timeout=None):
            self.run_args.append(list(run_args))
            return super().run_container(image, command, run_args, timeout)

    config_file = tmp_path / "limits.json"
    config_file.write_text(json.dumps({"cpu_limit": "1.5", "memory_limit": "2g"}))
    docker = RecordingDocker()
    url = _fixture_repo(workspace, "limited", {
        "nb.ipynb": _notebook_file(code_cell("print(1)"))})
    common = [*_common_flags(workspace), "--config", str(config_file)]
    assert main(["infer", "--input", url, *common]) == 0
    monkeypatch.setattr(climod, "DockerCli", lambda executable: docker)
    assert main(["execute", *common]) == 0

    (run_args,) = docker.run_args
    assert run_args[run_args.index("--cpus") + 1] == "1.5"
    assert run_args[run_args.index("--memory") + 1] == "2g"


def test_report_names_an_unreadable_classification_file(workspace, caplog):
    workspace["reports"].mkdir()
    classification = workspace["reports"] / "classification.json"
    # Bad JSON, JSON that is not an object, counts that are not an object
    # of whole numbers, and a resolution rate that is not a number.
    for text in ('{"counts": {"A": 1', "[]", '{"counts": []}', '{"counts": {"A": "1"}}',
                 '{"counts": {"A": 1}, "resolution_rate": "lots"}'):
        classification.write_text(text)
        caplog.clear()
        assert main(["report", *_common_flags(workspace)]) == 1
        assert any(str(classification) in record.getMessage()
                   for record in caplog.records)


def test_run_matches_subcommand_chain_on_deterministic_state(workspace, tmp_path):
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
