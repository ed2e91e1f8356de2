"""Stage 3-4 orchestration wiring over a fake container runtime: store rows,
artifact layout, and the log directory contract."""

from __future__ import annotations

import json
import signal
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from nbrepro import containerize, corpus, depinfer, notebook
from nbrepro.compare import metrics_from_partition
from nbrepro.config import PipelineConfig
from nbrepro.containerize import DockerCli
from nbrepro.executor import (
    ErrorCategory,
    ExecutionError,
    ExecutionRecord,
    ExecutionStatus,
)
from nbrepro.pipeline import Pipeline
from nbrepro.store import ProvisioningStatus, Store
from nbrepro.tool import ToolRun

from conftest import (
    FakeCompleted,
    FakeDocker,
    code_cell,
    logging_runtime,
    make_git_repo,
    markdown_cell,
    notebook_bytes,
    requires_git,
    store_rows,
    stream_output,
)

pytestmark = requires_git


@pytest.fixture()
def env(tmp_path):
    config = PipelineConfig(
        store_path=tmp_path / "store.sqlite3",
        logdir=tmp_path / "logs",
        artifacts_dir=tmp_path / "artifacts",
        report_dir=tmp_path / "reports",
    )
    with Store(config.store_path) as store:
        yield config, store, tmp_path


def _original(source, output_text):
    return notebook_bytes([code_cell(source, [stream_output(output_text)], 1)])


def _events(config, event=None) -> list[dict]:
    """The invocation's event records, or those named ``event``."""
    records = [json.loads(line) for line in
               (Path(config.logdir) / "events.ndjson").read_text().splitlines()]
    return [r for r in records if event in (None, r["event"])]


def test_execute_and_compare_full_wiring(env):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "stable.ipynb": _original("print('ok')", "ok\n").decode(),
        "drift.ipynb": _original("print(data)", "before\n").decode(),
    })

    docker = FakeDocker()
    pipeline = Pipeline(config, store, docker)
    result = pipeline.infer_repository(url)
    assert result.completed
    run = store.get_run(result.run_id)
    assert run.provisioning_status is ProvisioningStatus.PENDING
    assert run.revision  # clone revision recorded for traceability

    # The fake runtime "re-executes" by returning artifacts: one identical,
    # one with drifted output.
    docker.copy_payloads["/workspace/stable.executed.ipynb"] = _original(
        "print('ok')", "ok\n")
    docker.copy_payloads["/workspace/drift.executed.ipynb"] = _original(
        "print(data)", "after\n")

    (execute_result,) = pipeline.map_repositories([run], pipeline.execute_run)
    assert execute_result.completed
    finished = store.get_run(run.run_id)
    assert finished.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT
    assert finished.image_reference == f"repro/{result.repository_id}:{run.run_id}"
    assert finished.finished_at is not None

    executions = store_rows(store, "notebook_executions", run_id=run.run_id)
    assert len(executions) == 2
    assert all(e["status"] == ExecutionStatus.SUCCESS.value for e in executions)
    for record in executions:
        assert Path(record["executed_notebook_path"]).exists()
        assert str(Path(config.artifacts_dir) / run.run_id) in (
            record["executed_notebook_path"])

    assert pipeline.compare_run(finished).completed
    rows = store_rows(store, "reproducibility_metrics", run_id=run.run_id)
    assert len(rows) == 2
    assert sorted(m["score"] for m in rows) == [0.0, 1.0]
    assert sorted((e["notebook_id"], e["structural_mismatch"], e["score"])
                  for e in _events(config, "notebook_compared")) == sorted(
        (m["notebook_id"], False, m["score"]) for m in rows)

    # log directory contract: build log, per-notebook execution logs,
    # per-notebook comparison JSON
    logdir = Path(config.logdir) / run.run_id
    assert (logdir / "build.log").exists()
    descriptors = store.list_notebooks(result.repository_id)
    verdicts = {"stable.ipynb": ("Identical", "1.0"),
                "drift.ipynb": ("Different", "0.0")}
    for descriptor in descriptors:
        assert (logdir / f"{descriptor.notebook_id}.execution.log").exists()
        verdict, score = verdicts[descriptor.relative_path]
        assert (logdir / f"{descriptor.notebook_id}.comparison.json").read_text() == (
            '{\n'
            '  "cells": [\n'
            '    {\n'
            '      "cell_index": 0,\n'
            '      "matched_patterns": [],\n'
            f'      "verdict": "{verdict}"\n'
            '    }\n'
            '  ],\n'
            f'  "score": {score},\n'
            '  "structural_mismatch": false,\n'
            '  "total_code_cells": 1\n'
            '}\n')

    # rerunning the comparison stage is a no-op for already-compared rows
    assert pipeline.compare_run(finished).completed
    assert store_rows(store, "reproducibility_metrics", run_id=run.run_id) == rows
    assert len(_events(config, "notebook_compared")) == 2

    stages = {e["stage"] for e in _events(config)}
    assert {"infer", "execute", "compare"} <= stages


def test_structural_mismatch_persists_unscored(env):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "shrunk.ipynb": notebook_bytes([
            code_cell("a", [stream_output("1\n")], 1),
            code_cell("b", [stream_output("2\n")], 2),
        ]).decode(),
    })
    docker = FakeDocker()
    pipeline = Pipeline(config, store, docker)
    result = pipeline.infer_repository(url)
    run = store.get_run(result.run_id)
    # executed artifact lost a code cell
    docker.copy_payloads["/workspace/shrunk.executed.ipynb"] = notebook_bytes([
        code_cell("a", [stream_output("1\n")], 1)])
    pipeline.map_repositories([run], pipeline.execute_run)
    pipeline.compare_run(store.get_run(run.run_id))
    descriptor = store.list_notebooks(result.repository_id)[0]
    (metrics,) = store_rows(store, "reproducibility_metrics", run_id=run.run_id)
    assert metrics == {
        "notebook_id": descriptor.notebook_id, "run_id": run.run_id,
        "identical_count": 0, "different_count": 0, "nondeterministic_count": 0,
        "identical_indices": "[]", "different_indices": "[]",
        "nondeterministic_indices": "[]", "total_code_cells": 2, "score": None,
        "structural_mismatch": 1}
    (event,) = _events(config, "notebook_compared")
    assert {k: v for k, v in event.items() if k not in ("ts", "invocation_id")} == {
        "stage": "compare", "event": "notebook_compared",
        "notebook_id": descriptor.notebook_id, "run_id": run.run_id,
        "repository_id": result.repository_id, "structural_mismatch": True,
        "score": None}
    assert (Path(config.logdir) / run.run_id /
            f"{descriptor.notebook_id}.comparison.json").read_text() == (
        '{\n'
        '  "executed_code_cells": 1,\n'
        '  "original_code_cells": 2,\n'
        '  "structural_mismatch": true\n'
        '}\n')


def test_all_kernels_missing_marks_run_kernel_not_found(env):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "exotic.ipynb": notebook_bytes(
            [code_cell("x", [], 1)], kernel_name="exotic-kernel").decode(),
    })
    docker = FakeDocker()
    from conftest import FakeCompleted
    docker.run_results = [
        FakeCompleted(1, stderr="No such kernel named exotic-kernel"),
        FakeCompleted(1, stderr="No such kernel named python3"),
    ]
    pipeline = Pipeline(config, store, docker)
    result = pipeline.infer_repository(url)
    pipeline.map_repositories([store.get_run(result.run_id)], pipeline.execute_run)
    finished = store.get_run(result.run_id)
    assert finished.provisioning_status is ProvisioningStatus.KERNEL_NOT_FOUND
    (record,) = store_rows(store, "notebook_executions", run_id=result.run_id)
    assert record["status"] == ExecutionStatus.KERNEL_NOT_FOUND.value


# ---- each fact computed once -------------------------------------------------

def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _two_notebook_repo(tmp_path, docker):
    first = notebook_bytes([
        markdown_cell("# setup"),
        code_cell("import numpy\n!pip install requests", [stream_output("a\n")], 1),
        code_cell("print('b')", [stream_output("b\n")], 2),
    ])
    second = _original("import pandas", "c\n")
    docker.copy_payloads["/workspace/first.executed.ipynb"] = first
    docker.copy_payloads["/workspace/second.executed.ipynb"] = second
    return make_git_repo(tmp_path / "origin", {
        "first.ipynb": first.decode(), "second.ipynb": second.decode()})


def test_run_computes_each_fact_once(env, monkeypatch):
    config, store, tmp_path = env
    docker = FakeDocker()
    url = _two_notebook_repo(tmp_path, docker)
    parses = _count_calls(monkeypatch, notebook, "parse_notebook")
    syntheses = _count_calls(monkeypatch, depinfer, "synthesize_dependency_spec")
    recipe_writes = _count_calls(monkeypatch, containerize, "write_recipe")
    import_scans = _count_calls(monkeypatch, depinfer, "extract_imports")

    pipeline = Pipeline(config, store, docker)
    (result,) = pipeline.map_repositories([url], pipeline.run_repository)

    assert result.completed
    executed = store_rows(store, "notebook_executions", run_id=result.run_id)
    assert len(executed) == 2
    assert len(store_rows(store, "reproducibility_metrics", run_id=result.run_id)) == 2
    # discover, the executed artifact, and compare's original and executed
    assert len(parses) <= 4 * len(executed)
    assert len(syntheses) == 1
    assert len(recipe_writes) == 1
    assert len(import_scans) == 3  # one per code cell


def test_infer_loads_the_package_data_once_per_pipeline(env, monkeypatch):
    config, store, tmp_path = env
    stdlib_loads = _count_calls(monkeypatch, depinfer, "load_stdlib_modules")
    alias_loads = _count_calls(monkeypatch, depinfer, "load_alias_table")
    pipeline = Pipeline(config, store, FakeDocker())
    for name in ("one", "two"):
        url = make_git_repo(tmp_path / name, {
            "nb.ipynb": _original("import os, numpy", "x\n").decode()})
        assert pipeline.infer_repository(url).completed

    assert len(stdlib_loads) == 1
    assert len(alias_loads) == 1


def test_infer_holds_at_most_one_parsed_notebook(env, monkeypatch):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        f"n{i}.ipynb": _original(f"import mod{i}", f"{i}\n").decode()
        for i in range(5)})
    parse = notebook.parse_notebook
    models = []
    alive_at_parse = []

    def tracking(data):
        alive_at_parse.append(sum(ref() is not None for ref in models))
        model = parse(data)
        models.append(weakref.ref(model))
        return model

    monkeypatch.setattr(notebook, "parse_notebook", tracking)
    result = Pipeline(config, store, FakeDocker()).infer_repository(url)

    assert result.completed
    assert len(alive_at_parse) == 5
    assert max(alive_at_parse) <= 1


def test_infer_without_magic_scan_leaves_pip_installs_out(env):
    config, store, tmp_path = env
    docker = FakeDocker()
    url = _two_notebook_repo(tmp_path, docker)
    config.scan_magic_installs = False
    result = Pipeline(config, store, docker).infer_repository(url)
    # the first notebook's "!pip install requests" is not a requirement
    assert _recipe_bytes(store, result.repository_id)[1] == b"numpy\npandas\n"


def _recipe_bytes(store, repository_id):
    tree = Path(store.get_repository(repository_id).local_path)
    return ((tree.parent / "Dockerfile").read_bytes(),
            (tree / containerize.SYNTHESIZED_MANIFEST_NAME).read_bytes())


def test_execute_builds_the_recipe_infer_wrote(env):
    config, store, tmp_path = env
    docker = FakeDocker()
    url = _two_notebook_repo(tmp_path, docker)
    result = Pipeline(config, store, docker).infer_repository(url)
    written = _recipe_bytes(store, result.repository_id)
    assert b"requests" in written[1]

    # Settings that shape the recipe act at infer time only.
    later = PipelineConfig(
        store_path=config.store_path, logdir=config.logdir,
        artifacts_dir=config.artifacts_dir, report_dir=config.report_dir,
        base_image="python:3.12-slim", scan_magic_installs=False)
    pipeline = Pipeline(later, store, docker)
    (outcome,) = pipeline.map_repositories([store.get_run(result.run_id)],
                                           pipeline.execute_run)

    assert outcome.completed
    assert _recipe_bytes(store, result.repository_id) == written
    tag = containerize.image_tag_for(result.repository_id, result.run_id)
    assert ("build", tag) in docker.calls
    assert store.get_run(result.run_id).image_reference == tag


# A re-infer killed after acquire_repository re-cloned the tree leaves the
# Dockerfile next to a tree without the synthesized manifest.
@pytest.mark.parametrize("removed", [
    "../Dockerfile", containerize.SYNTHESIZED_MANIFEST_NAME],
    ids=["dockerfile", "manifest"])
def test_execute_without_recipe_is_degraded(env, removed):
    config, store, tmp_path = env
    docker = FakeDocker()
    url = _two_notebook_repo(tmp_path, docker)
    pipeline = Pipeline(config, store, docker)
    result = pipeline.infer_repository(url)
    tree = Path(store.get_repository(result.repository_id).local_path)
    (tree / removed).unlink()

    (outcome,) = pipeline.map_repositories([store.get_run(result.run_id)],
                                           pipeline.execute_run)

    assert not outcome.completed
    assert outcome.degraded_reason == "build recipe missing; rerun the infer stage"
    assert not any(call[0] == "build" for call in docker.calls)
    assert store_rows(store, "notebook_executions", run_id=result.run_id) == []
    assert (store.get_run(result.run_id).provisioning_status
            is ProvisioningStatus.PENDING)


@pytest.mark.parametrize("build_fails", [False, True])
def test_build_events_carry_the_stored_build_duration(env, build_fails):
    config, store, tmp_path = env
    docker = FakeDocker()
    url = _two_notebook_repo(tmp_path, docker)
    pipeline = Pipeline(config, store, docker)
    result = pipeline.infer_repository(url)
    if build_fails:
        docker.build = lambda *args, **kwargs: FakeCompleted(1, stderr="no space")

    pipeline.map_repositories([store.get_run(result.run_id)], pipeline.execute_run)

    run = store.get_run(result.run_id)
    (built,) = [e for e in _events(config)
                if e["event"] in ("build_done", "build_failed")]
    assert built["event"] == ("build_failed" if build_fails else "build_done")
    assert run.build_duration_s is not None
    assert built["duration_s"] == run.build_duration_s
    if not build_fails:
        assert built["tag"] == run.image_reference


def test_cleanup_learns_reachability_from_its_own_listing(env):
    config, store, tmp_path = env
    docker = FakeDocker()
    pipeline = Pipeline(config, store, docker)
    run_id = pipeline.infer_repository(_two_notebook_repo(tmp_path, docker)).run_id
    executable, calls = logging_runtime(tmp_path, {"build": 1})
    pipeline.docker = DockerCli(str(executable))

    pipeline.map_repositories([store.get_run(run_id)], pipeline.execute_run)

    # no version probe repeats the one the command made before the stage
    assert calls.read_text().split() == ["ps", "images", "build"]
    assert (store.get_run(run_id).provisioning_status
            is ProvisioningStatus.BUILD_FAILED)


def test_build_printing_a_non_utf8_byte_fails_with_its_log(env):
    config, store, tmp_path = env
    docker = FakeDocker()
    pipeline = Pipeline(config, store, docker)
    run_id = pipeline.infer_repository(_two_notebook_repo(tmp_path, docker)).run_id
    executable = tmp_path / "runtime"
    executable.write_text("#!/bin/sh\n"
                          "[ \"$1\" = build ] || exit 0\n"
                          "printf 'step 1\\nbad byte \\377\\n' >&2\n"
                          "exit 1\n")
    executable.chmod(0o755)
    pipeline.docker = DockerCli(str(executable))

    (result,) = pipeline.map_repositories([store.get_run(run_id)], pipeline.execute_run)

    assert not result.degraded_reason
    run = store.get_run(run_id)
    assert run.provisioning_status is ProvisioningStatus.BUILD_FAILED
    assert run.status_reason == "Other: bad byte \ufffd"
    log = (Path(config.logdir) / run_id / "build.log").read_text("utf-8")
    assert log.endswith("exit=1 timed_out=False\n--- stdout ---\n\n"
                        "--- stderr ---\nstep 1\nbad byte \ufffd\n\n")


# ---- one --jobs budget over repository stages and notebook runs ------------

class _SlowDocker(FakeDocker):
    """Container runs take about 25 ms. Counts the runs in flight and the
    peak thread count; a notebook named in ``fail_on`` raises instead of
    running."""

    def __init__(self, fail_on: tuple[str, ...] = ()):
        super().__init__()
        self._lock = threading.Lock()
        self.fail_on = fail_on
        self.running = 0
        self.peak_running = 0
        self.peak_threads = 0

    def run_container(self, image, command, run_args, timeout=None):
        with self._lock:
            self.running += 1
            self.peak_running = max(self.peak_running, self.running)
            self.peak_threads = max(self.peak_threads, threading.active_count())
        try:
            time.sleep(0.025)
            if command[-1] in self.fail_on:
                raise RuntimeError(f"runtime crashed on {command[-1]}")
            return super().run_container(image, command, run_args, timeout)
        finally:
            with self._lock:
                self.running -= 1


def _skewed_corpus(tmp_path) -> list[str]:
    """One repository of six notebooks, then one of a single notebook."""
    large = {f"a{i}.ipynb": _original(f"print({i})", f"{i}\n").decode()
             for i in range(6)}
    small = {"b0.ipynb": _original("print('b')", "b\n").decode()}
    return [make_git_repo(tmp_path / "origin-large", large),
            make_git_repo(tmp_path / "origin-small", small)]


def _plant_artifacts(docker):
    for i in range(6):
        # odd notebooks drift, so scores differ between notebooks
        output = f"{i}\n" if i % 2 == 0 else "drift\n"
        docker.copy_payloads[f"/workspace/a{i}.executed.ipynb"] = _original(
            f"print({i})", output)
    docker.copy_payloads["/workspace/b0.executed.ipynb"] = _original(
        "print('b')", "b\n")


def _config(root: Path, jobs: int) -> PipelineConfig:
    return PipelineConfig(store_path=root / "store.sqlite3", logdir=root / "logs",
                          artifacts_dir=root / "artifacts",
                          report_dir=root / "reports", jobs=jobs)


def _run_corpus(root: Path, urls: list[str], jobs: int, docker):
    _plant_artifacts(docker)
    config = _config(root, jobs)
    with Store(config.store_path) as store:
        baseline_threads = threading.active_count()
        pipeline = Pipeline(config, store, docker)
        results = pipeline.map_repositories(urls, pipeline.run_repository)
        rows = _comparable_rows(store, config.artifacts_dir)
    return results, rows, baseline_threads


# Columns that differ between runs of the same inputs.
_VOLATILE = {"run_id", "invocation_id", "started_at", "finished_at",
             "image_reference", "build_duration_s", "duration_s"}


def _comparable_rows(store, artifacts: Path) -> dict:
    """Every store row without run ids, timestamps, durations and the
    artifact root, keyed by table."""
    def comparable(row: dict) -> dict:
        kept = {column: value for column, value in row.items()
                if column not in _VOLATILE}
        if row.get("local_path"):
            kept["local_path"] = str(Path(row["local_path"]).relative_to(artifacts))
        if row.get("executed_notebook_path"):
            kept["executed_notebook_path"] = str(Path(
                row["executed_notebook_path"]).relative_to(artifacts / row["run_id"]))
        return kept

    return {table: sorted((comparable(row) for row in store_rows(store, table)),
                          key=lambda row: json.dumps(row, sort_keys=True))
            for table in ("repositories", "notebooks", "repository_runs",
                          "notebook_executions", "reproducibility_metrics")}


def test_budget_bounds_container_runs_and_threads(tmp_path):
    urls = _skewed_corpus(tmp_path)
    docker = _SlowDocker()
    results, rows, baseline = _run_corpus(tmp_path / "parallel", urls, 2, docker)

    assert all(r.completed for r in results)
    assert len(rows["notebook_executions"]) == 7
    assert docker.peak_running == 2
    # a repository pool and a notebook pool of at most jobs threads each
    assert docker.peak_threads - baseline <= 2 * 2
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]


def test_each_build_precedes_its_repository_runs(tmp_path):
    urls = _skewed_corpus(tmp_path)
    docker = _SlowDocker()
    _run_corpus(tmp_path / "parallel", urls, 2, docker)

    calls = list(docker.calls)
    builds = {call[1]: index for index, call in enumerate(calls)
              if call[0] == "build"}
    assert len(builds) == 2
    for tag, built_at in builds.items():
        repository = tag.split(":", 1)[0]
        cleaned_at = calls.index(("list_images", repository))
        runs = [index for index, call in enumerate(calls)
                if call[0] == "run_container" and call[1] == tag]
        assert runs
        assert cleaned_at < built_at < min(runs)


def test_parallel_rows_equal_serial_rows(tmp_path):
    urls = _skewed_corpus(tmp_path)
    serial_docker = _SlowDocker()
    _, serial, _ = _run_corpus(tmp_path / "serial", urls, 1, serial_docker)
    _, parallel, _ = _run_corpus(tmp_path / "parallel", urls, 2, _SlowDocker())

    # --jobs 1 takes the pooled path with one slot: one container at a time,
    # and no worker thread outlives the invocation
    assert serial_docker.peak_running == 1
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]
    assert len(serial["notebook_executions"]) == 7
    assert len(serial["reproducibility_metrics"]) == 7
    assert parallel == serial


def test_failing_notebook_degrades_only_its_repository(tmp_path, caplog):
    urls = _skewed_corpus(tmp_path)
    docker = _SlowDocker(fail_on=("a2.ipynb", "a4.ipynb"))
    results, rows, _ = _run_corpus(tmp_path / "parallel", urls, 2, docker)

    large, small = results
    assert not large.completed
    assert "runtime crashed on a2.ipynb" in large.degraded_reason
    # the second failure is logged, not dropped
    assert any(str(r.exc_info[1]) == "runtime crashed on a4.ipynb"
               for r in caplog.records if r.exc_info)
    assert small.completed
    status = {r["repository_id"]: r["provisioning_status"]
              for r in rows["repository_runs"]}
    assert status == {
        corpus.repository_id_for(urls[0]): ProvisioningStatus.PENDING.value,
        corpus.repository_id_for(urls[1]): ProvisioningStatus.ENVIRONMENT_BUILT.value,
    }
    # nothing of the failed repository is still running afterwards
    assert docker.running == 0
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]


def test_single_repository_execute_runs_notebooks_side_by_side(tmp_path):
    urls = _skewed_corpus(tmp_path)
    docker = _SlowDocker()
    _plant_artifacts(docker)
    config = _config(tmp_path / "single", 2)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store, docker)
        inferred = pipeline.infer_repository(urls[0])
        (result,) = pipeline.map_repositories(
            [store.get_run(inferred.run_id)], pipeline.execute_run)
        assert result.completed
        assert len(store_rows(store, "notebook_executions",
                              run_id=inferred.run_id)) == 6
    assert docker.peak_running == 2


def test_timed_out_clone_degrades_only_its_repository(tmp_path, monkeypatch):
    urls = _skewed_corpus(tmp_path)
    run_tool = corpus.run_tool

    def clone_times_out(argv, timeout, env=None):
        if argv[:2] == ["git", "clone"] and urls[1] in argv:
            return ToolRun(argv, -1, "", "Cloning into 'tree'...\n", timed_out=True)
        return run_tool(argv, timeout, env)

    monkeypatch.setattr(corpus, "run_tool", clone_times_out)
    results, rows, _ = _run_corpus(tmp_path / "parallel", urls, 2, FakeDocker())

    large, small = results
    assert large.completed and not small.completed
    runs = {run["repository_id"]: run for run in rows["repository_runs"]}
    assert runs[small.repository_id]["provisioning_status"] == "Pending"
    assert runs[small.repository_id]["status_reason"] == (
        f"acquisition failed: clone of {urls[1]} timed out")
    assert runs[large.repository_id]["provisioning_status"] == "EnvironmentBuilt"
    assert len(rows["notebook_executions"]) == 6


def test_every_event_names_its_repository_and_run(tmp_path):
    urls = _skewed_corpus(tmp_path)
    results, _, _ = _run_corpus(tmp_path / "run", urls, 2, FakeDocker())

    run_of = {result.repository_id: result.run_id for result in results}
    events = _events(_config(tmp_path / "run", 2))
    pairs = Counter((event["stage"], event["event"]) for event in events)
    assert pairs[("infer", "start")] == 2
    for pair in (("execute", "notebook_start"), ("execute", "notebook_done"),
                 ("compare", "notebook_compared")):
        assert pairs[pair] == 7
    for event in events:
        assert event["repository_id"] in run_of
        # the run exists once validation is done
        if (event["stage"], event["event"]) != ("infer", "start"):
            assert event["run_id"] == run_of[event["repository_id"]]
    (first,) = {event["invocation_id"] for event in events}

    # a second invocation appends to the same log under its own id
    _run_corpus(tmp_path / "run", urls, 2, FakeDocker())
    later = _events(_config(tmp_path / "run", 2))[len(events):]
    assert len(later) == len(events)
    (second,) = {event["invocation_id"] for event in later}
    assert second != first
    with Store(_config(tmp_path / "run", 2).store_path) as store:
        assert {run["invocation_id"] for run in store_rows(
            store, "repository_runs")} == {first, second}


# ---- each stage records a repository's outcome in one transaction ----------

def test_infer_persists_repository_and_notebooks(env):
    """The rows infer writes equal what acquisition and discovery return,
    with the notebook count; a later invocation keeps one repository row
    and the same notebook rows."""
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "requirements.txt": "numpy\n",
        "a.ipynb": _original("print(1)", "1\n").decode(),
        "sub/b.ipynb": _original("print(2)", "2\n").decode(),
    })
    first = Pipeline(config, store, FakeDocker()).infer_repository(url)
    repo = store.get_repository(first.repository_id)
    notebooks = store.list_notebooks(first.repository_id)
    assert repo.notebook_count == 2
    assert repo == replace(corpus.acquire_repository(
        url, Path(config.artifacts_dir) / "repos"), notebook_count=2)
    assert notebooks == corpus.discover_notebooks(repo)[0]

    second = Pipeline(config, store, FakeDocker()).infer_repository(url)
    assert second.run_id != first.run_id
    assert store.list_repositories() == [repo]
    assert store.list_notebooks(first.repository_id) == notebooks
    assert len(store_rows(store, "notebooks")) == 2


def test_infer_without_notebooks_records_count_zero(env):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {"only.py": "pass\n"})
    result = Pipeline(config, store, FakeDocker()).infer_repository(url)
    assert store.get_repository(result.repository_id).notebook_count == 0
    assert store_rows(store, "notebooks") == []
    assert (store.get_run(result.run_id).provisioning_status
            is ProvisioningStatus.NO_PYTHON_NOTEBOOKS)


def test_failed_recipe_write_records_nothing(env, monkeypatch):
    config, store, tmp_path = env
    docker = FakeDocker()
    url = _two_notebook_repo(tmp_path, docker)

    def no_space(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(containerize, "write_recipe", no_space)
    with pytest.raises(OSError):
        Pipeline(config, store, docker).infer_repository(url)
    assert store.list_repositories() == []
    assert store_rows(store, "repository_runs") == []
    assert store_rows(store, "notebooks") == []


class _InterruptedDocker(FakeDocker):
    """Raises KeyboardInterrupt, as Ctrl-C would, in place of container run
    number ``interrupt_at`` (counting from 0); every other run succeeds."""

    def __init__(self, interrupt_at: int):
        super().__init__()
        self._lock = threading.Lock()
        self.interrupt_at = interrupt_at
        self.runs = 0

    def run_container(self, image, command, run_args, timeout=None):
        with self._lock:
            index, self.runs = self.runs, self.runs + 1
        if index == self.interrupt_at:
            raise KeyboardInterrupt
        return super().run_container(image, command, run_args, timeout)


def _execute_and_compare(pipeline, run_id):
    store = pipeline.store
    (result,) = pipeline.map_repositories([store.get_run(run_id)],
                                          pipeline.execute_run)
    pipeline.compare_run(store.get_run(run_id))
    return result


def _four_notebook_repo(tmp_path) -> str:
    return make_git_repo(tmp_path / "origin", {
        f"a{i}.ipynb": _original(f"print({i})", f"{i}\n").decode()
        for i in range(4)})


def _uninterrupted_rows(tmp_path, url: str, jobs: int) -> dict:
    clean = FakeDocker()
    _plant_artifacts(clean)
    config = _config(tmp_path / "clean", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store, clean)
        assert _execute_and_compare(
            pipeline, pipeline.infer_repository(url).run_id).completed
        return _comparable_rows(store, config.artifacts_dir)


@pytest.mark.parametrize("interrupt_at", range(4))
@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_execute_leaves_no_rows_and_reruns_whole(
        tmp_path, jobs, interrupt_at):
    url = _four_notebook_repo(tmp_path)
    expected = _uninterrupted_rows(tmp_path, url, jobs)

    docker = _InterruptedDocker(interrupt_at)
    _plant_artifacts(docker)
    config = _config(tmp_path / "interrupted", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store, docker)
        run_id = pipeline.infer_repository(url).run_id
        with pytest.raises(KeyboardInterrupt):
            pipeline.map_repositories([store.get_run(run_id)],
                                      pipeline.execute_run)
        left = (store.get_run(run_id).provisioning_status,
                store_rows(store, "notebook_executions"))

        # partial rows would make the rerun fail on the executions' key
        assert _execute_and_compare(pipeline, run_id).degraded_reason is None
        assert left == (ProvisioningStatus.PENDING, [])
        assert _comparable_rows(store, config.artifacts_dir) == expected
    # the rerun repeated the clean room and every notebook
    builds = [i for i, call in enumerate(docker.calls) if call[0] == "build"]
    assert len(builds) == 2
    assert sum(1 for call in docker.calls[builds[1]:]
               if call[0] == "run_container") == 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_execute_replaces_partial_rows_of_an_old_store(tmp_path, jobs):
    url = _four_notebook_repo(tmp_path)
    expected = _uninterrupted_rows(tmp_path, url, jobs)

    docker = FakeDocker()
    _plant_artifacts(docker)
    config = _config(tmp_path / "old", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store, docker)
        inferred = pipeline.infer_repository(url)
        run_id = inferred.run_id
        # A Pending run as an execute interrupted after two of its four
        # notebooks left it, before each outcome was committed whole.
        stale = config.artifacts_dir / run_id / "stale.ipynb"
        first, second = store.list_notebooks(inferred.repository_id)[:2]
        for descriptor in (first, second):
            store.insert_execution(ExecutionRecord(
                notebook_id=descriptor.notebook_id, run_id=run_id,
                status=ExecutionStatus.ERRORED_BUT_COMPLETED, duration_s=1.0,
                code_cell_count=1, markdown_code_ratio=0.0,
                errors=(ExecutionError("RuntimeError", ErrorCategory.LOGIC,
                                       "stale", 0),),
                executed_notebook_path=str(stale)))
        store.insert_metrics(metrics_from_partition(
            [], [0], [], notebook_id=first.notebook_id, run_id=run_id))

        result = _execute_and_compare(pipeline, run_id)
        assert (result.completed, result.degraded_reason) == (True, None)
        assert _comparable_rows(store, config.artifacts_dir) == expected


def test_unexpected_execute_error_names_the_repository(env):
    config, store, tmp_path = env
    url = _four_notebook_repo(tmp_path)
    pipeline = Pipeline(config, store, FakeDocker())
    inferred = pipeline.infer_repository(url)

    def crash(run):
        raise RuntimeError("runtime client crashed")

    (result,) = pipeline.map_repositories([store.get_run(inferred.run_id)], crash)
    (repo,) = store.list_repositories()
    assert (result.url, result.repository_id, result.run_id) == (
        repo.url, inferred.repository_id, inferred.run_id)
    assert not result.completed
    assert result.degraded_reason == "unexpected error: runtime client crashed"


class _CtrlCDocker(FakeDocker):
    """Ctrl-C during the notebook runs: the first container run sends
    SIGINT to the main thread, as a terminal does, and every run's client
    exits 130 once ``seen`` is set. ``runs`` counts the container runs."""

    def __init__(self, seen: threading.Event):
        super().__init__()
        self._lock = threading.Lock()
        self.seen = seen
        self.runs = 0

    def run_container(self, image, command, run_args, timeout=None):
        super().run_container(image, command, run_args, timeout)
        with self._lock:
            send, self.runs = self.runs == 0, self.runs + 1
        if send:
            # A real signal: it wakes a main thread that is blocked on a
            # future, which _thread.interrupt_main() does not.
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        # Without the interrupt seen, the run completes and commits.
        self.seen.wait(timeout=10)
        return FakeCompleted(130, stderr="KeyboardInterrupt")


@pytest.mark.parametrize("jobs", [1, 2])
def test_ctrl_c_under_parallel_execute_commits_no_run(tmp_path, jobs):
    urls = [make_git_repo(tmp_path / name, {
        f"{name}{i}.ipynb": _original(f"print({i})", f"{i}\n").decode()
        for i in range(8)}) for name in ("a", "b")]
    config = _config(tmp_path / "store", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store, FakeDocker())
        runs = [store.get_run(pipeline.infer_repository(url).run_id)
                for url in urls]
        docker = pipeline.docker = _CtrlCDocker(pipeline.interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.map_repositories(runs, pipeline.execute_run)

        # only the runs in flight at Ctrl-C started; no notebook after them
        assert 1 <= docker.runs <= config.jobs
        assert [store.get_run(run.run_id).provisioning_status for run in runs] == [
            ProvisioningStatus.PENDING, ProvisioningStatus.PENDING]
        assert store_rows(store, "notebook_executions") == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_ctrl_c_under_parallel_infer_records_no_run(tmp_path, monkeypatch, jobs):
    urls = [make_git_repo(tmp_path / name, {
        f"{name}.ipynb": _original("print(1)", "1\n").decode()})
        for name in ("a", "b", "c", "d")]
    config = _config(tmp_path / "store", jobs)
    validate = corpus.validate_repository
    lock = threading.Lock()
    probes = []
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store, FakeDocker())

        def interrupting_validate(url, timeout):
            with lock:
                first = not probes
                probes.append(url)
            if first:
                # What a terminal's Ctrl-C does to the main thread.
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            # Without the interrupt seen, the repository records its outcome.
            pipeline.interrupted.wait(timeout=10)
            return validate(url, timeout=timeout)

        monkeypatch.setattr(corpus, "validate_repository", interrupting_validate)
        with pytest.raises(KeyboardInterrupt):
            pipeline.map_repositories(urls, pipeline.infer_repository)

        # the repositories not yet started were cancelled
        assert 1 <= len(probes) <= jobs
        assert store_rows(store, "repository_runs") == []
        assert store.list_repositories() == []


# ---- compare reads its work once and commits a repository once --------------

def _executed_pipeline(config, store, tmp_path, names=("origin",)):
    """Infer and execute one two-notebook repository per name; returns the
    pipeline and the finished runs."""
    docker = FakeDocker()
    pipeline = Pipeline(config, store, docker)
    runs = []
    for name in names:
        url = _two_notebook_repo(tmp_path / name, docker)
        run_id = pipeline.infer_repository(url).run_id
        (result,) = pipeline.map_repositories([store.get_run(run_id)],
                                              pipeline.execute_run)
        assert result.completed
        runs.append(store.get_run(run_id))
    return pipeline, runs


def test_compare_commits_a_repository_once(env, monkeypatch):
    config, store, tmp_path = env
    pipeline, (run,) = _executed_pipeline(config, store, tmp_path)
    insert = store.insert_metrics
    inserted = []

    def second_fails(metrics):
        inserted.append(metrics.notebook_id)
        if len(inserted) == 2:
            raise OSError("disk full")
        insert(metrics)

    monkeypatch.setattr(store, "insert_metrics", second_fails)
    with pytest.raises(OSError):
        pipeline.compare_run(run)
    assert store_rows(store, "reproducibility_metrics", run_id=run.run_id) == []
    # no event names a row that the failed commit left out
    assert _events(config, "notebook_compared") == []

    monkeypatch.undo()
    assert pipeline.compare_run(run).completed
    rows = store_rows(store, "reproducibility_metrics", run_id=run.run_id)
    assert len(rows) == 2
    assert pipeline.compare_run(run).completed
    assert store_rows(store, "reproducibility_metrics", run_id=run.run_id) == rows
    assert len(_events(config, "notebook_compared")) == 2


def test_compare_decodes_no_rows(env, monkeypatch):
    from nbrepro import cli, store as storemod

    config, store, tmp_path = env
    pipeline, runs = _executed_pipeline(config, store, tmp_path, ("a", "b"))

    def no_decoding(row):
        raise AssertionError("compare decoded a notebook row")

    # compare finds its work in one query, not in the notebook list
    with monkeypatch.context() as patched:
        patched.setattr(storemod, "_notebook_from_row", no_decoding)
        assert pipeline.compare_run(runs[0]).completed
        assert cli.cmd_compare(config, store) == 0
    scores = {run.run_id: sorted(m["score"] for m in store_rows(
                  store, "reproducibility_metrics", run_id=run.run_id))
              for run in runs}
    assert scores == {run.run_id: [1.0, 1.0] for run in runs}


def test_compare_degrades_a_repository_with_an_unreadable_artifact(env, caplog):
    from nbrepro import cli

    config, store, tmp_path = env
    caplog.set_level("INFO")
    _, (run,) = _executed_pipeline(config, store, tmp_path)
    kept, lost = store_rows(store, "notebook_executions", run_id=run.run_id)
    artifact = Path(lost["executed_notebook_path"])
    saved = artifact.read_bytes()
    artifact.unlink()

    assert cli.cmd_compare(config, store) == 2
    (row,) = store_rows(store, "reproducibility_metrics", run_id=run.run_id)
    assert row["notebook_id"] == kept["notebook_id"]
    assert any("degraded: 1 notebook(s) not compared, the first: " in r.getMessage()
               and str(artifact) in r.getMessage() for r in caplog.records)

    # once the artifact is back, a rerun compares only that notebook
    artifact.write_bytes(saved)
    assert cli.cmd_compare(config, store) == 0
    assert [e["notebook_id"] for e in _events(config, "notebook_compared")] == [
        kept["notebook_id"], lost["notebook_id"]]
    assert len(store_rows(store, "reproducibility_metrics", run_id=run.run_id)) == 2
