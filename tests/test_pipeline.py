"""Stage 3-4 orchestration wiring through the shipped runtime client over
the stub runtime: store rows, artifact layout, and the log directory
contract."""

from __future__ import annotations

import json
import re
import signal
import sys
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from nbrepro import containerize, corpus, depinfer, notebook, report
from nbrepro.compare import metrics_from_partition
from nbrepro.config import PipelineConfig
from nbrepro.executor import (
    ErrorCategory,
    ExecutionError,
    ExecutionRecord,
    ExecutionStatus,
)
from nbrepro.pipeline import Pipeline, RepositoryResult, WorkBudget
from nbrepro.store import ProvisioningStatus, Repository, RunRecord, Store
from nbrepro.tool import ToolRun

from conftest import (
    DAEMON_DOWN,
    Runtime,
    code_cell,
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


def test_execute_and_compare_full_wiring(env, runtime):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "stable.ipynb": _original("print('ok')", "ok\n").decode(),
        "drift.ipynb": _original("print(data)", "before\n").decode(),
    })

    pipeline = Pipeline(config, store)
    result = pipeline.infer_repository(url)
    assert result.completed
    run = store.get_run(result.run_id)
    assert run.provisioning_status is ProvisioningStatus.PENDING
    assert run.revision  # clone revision recorded for traceability

    # The stub runtime "re-executes" by handing back artifacts: one
    # identical, one with drifted output.
    runtime.plant(url, {"stable.ipynb": _original("print('ok')", "ok\n"),
                        "drift.ipynb": _original("print(data)", "after\n")})

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


def test_structural_mismatch_persists_unscored(env, runtime):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "shrunk.ipynb": notebook_bytes([
            code_cell("a", [stream_output("1\n")], 1),
            code_cell("b", [stream_output("2\n")], 2),
        ]).decode(),
    })
    pipeline = Pipeline(config, store)
    result = pipeline.infer_repository(url)
    run = store.get_run(result.run_id)
    # executed artifact lost a code cell
    runtime.plant(url, {"shrunk.ipynb": notebook_bytes([
        code_cell("a", [stream_output("1\n")], 1)])})
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


def test_all_kernels_missing_marks_run_kernel_not_found(env, runtime):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "exotic.ipynb": notebook_bytes(
            [code_cell("x", [], 1)], kernel_name="exotic-kernel").decode(),
    })
    for missing in ("exotic-kernel", "python3"):
        runtime.answer("run", ToolRun([], 1, "", f"No such kernel named {missing}"),
                       times=1)
    pipeline = Pipeline(config, store)
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


def _two_notebook_repo(tmp_path, runtime=None):
    """A repository of two notebooks, each executed artifact planted on the
    ``runtime`` when one is given; returns its URL."""
    notebooks = {
        "first.ipynb": notebook_bytes([
            markdown_cell("# setup"),
            code_cell("import numpy\n!pip install requests", [stream_output("a\n")], 1),
            code_cell("print('b')", [stream_output("b\n")], 2),
        ]),
        "second.ipynb": _original("import pandas", "c\n"),
    }
    url = make_git_repo(tmp_path / "origin", {
        name: payload.decode() for name, payload in notebooks.items()})
    if runtime is not None:
        runtime.plant(url, notebooks)
    return url


def test_run_computes_each_fact_once(env, monkeypatch, runtime):
    config, store, tmp_path = env
    url = _two_notebook_repo(tmp_path, runtime)
    parses = _count_calls(monkeypatch, notebook, "parse_notebook")
    syntheses = _count_calls(monkeypatch, depinfer, "synthesize_dependency_spec")
    recipe_writes = _count_calls(monkeypatch, containerize, "write_recipe")
    import_scans = _count_calls(monkeypatch, depinfer, "extract_imports")

    pipeline = Pipeline(config, store)
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
    pipeline = Pipeline(config, store)
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
    result = Pipeline(config, store).infer_repository(url)

    assert result.completed
    assert len(alive_at_parse) == 5
    assert max(alive_at_parse) <= 1


def test_infer_without_magic_scan_leaves_pip_installs_out(env):
    config, store, tmp_path = env
    url = _two_notebook_repo(tmp_path)
    config.scan_magic_installs = False
    result = Pipeline(config, store).infer_repository(url)
    # the first notebook's "!pip install requests" is not a requirement
    assert _recipe_bytes(store, result.repository_id)[1] == b"numpy\npandas\n"


def _recipe_bytes(store, repository_id):
    tree = Path(store.get_repository(repository_id).local_path)
    return ((tree.parent / "Dockerfile").read_bytes(),
            (tree / containerize.SYNTHESIZED_MANIFEST_NAME).read_bytes())


def test_execute_builds_the_recipe_infer_wrote(env, runtime):
    config, store, tmp_path = env
    url = _two_notebook_repo(tmp_path, runtime)
    result = Pipeline(config, store).infer_repository(url)
    written = _recipe_bytes(store, result.repository_id)
    assert b"requests" in written[1]

    # Settings that shape the recipe act at infer time only.
    later = PipelineConfig(
        store_path=config.store_path, logdir=config.logdir,
        artifacts_dir=config.artifacts_dir, report_dir=config.report_dir,
        base_image="python:3.12-slim", scan_magic_installs=False)
    pipeline = Pipeline(later, store)
    (outcome,) = pipeline.map_repositories([store.get_run(result.run_id)],
                                           pipeline.execute_run)

    assert outcome.completed
    assert _recipe_bytes(store, result.repository_id) == written
    tag = containerize.image_tag_for(result.repository_id, result.run_id)
    assert [args[3] for args in runtime.calls if args[0] == "build"] == [tag]
    assert store.get_run(result.run_id).image_reference == tag


# A re-infer killed after acquire_repository re-cloned the tree leaves the
# Dockerfile next to a tree without the synthesized manifest.
@pytest.mark.parametrize("removed", [
    "../Dockerfile", containerize.SYNTHESIZED_MANIFEST_NAME],
    ids=["dockerfile", "manifest"])
def test_execute_without_recipe_is_degraded(env, runtime, removed):
    config, store, tmp_path = env
    url = _two_notebook_repo(tmp_path, runtime)
    pipeline = Pipeline(config, store)
    result = pipeline.infer_repository(url)
    tree = Path(store.get_repository(result.repository_id).local_path)
    (tree / removed).unlink()

    (outcome,) = pipeline.map_repositories([store.get_run(result.run_id)],
                                           pipeline.execute_run)

    assert not outcome.completed
    assert outcome.degraded_reason == "build recipe missing; rerun the infer stage"
    assert "build" not in runtime.verbs
    assert store_rows(store, "notebook_executions", run_id=result.run_id) == []
    assert (store.get_run(result.run_id).provisioning_status
            is ProvisioningStatus.PENDING)


@pytest.mark.parametrize("build_fails", [False, True])
def test_build_events_carry_the_stored_build_duration(env, runtime, build_fails):
    config, store, tmp_path = env
    url = _two_notebook_repo(tmp_path, runtime)
    pipeline = Pipeline(config, store)
    result = pipeline.infer_repository(url)
    if build_fails:
        runtime.answer("build", ToolRun([], 1, "", "no space"))

    pipeline.map_repositories([store.get_run(result.run_id)], pipeline.execute_run)

    run = store.get_run(result.run_id)
    (built,) = [e for e in _events(config)
                if e["event"] in ("build_done", "build_failed")]
    assert built["event"] == ("build_failed" if build_fails else "build_done")
    assert run.build_duration_s is not None
    assert built["duration_s"] == run.build_duration_s
    if not build_fails:
        assert built["tag"] == run.image_reference


def test_cleanup_learns_reachability_from_its_own_listing(env, runtime):
    config, store, tmp_path = env
    pipeline = Pipeline(config, store)
    run_id = pipeline.infer_repository(_two_notebook_repo(tmp_path, runtime)).run_id
    runtime.answer("build", ToolRun([], 1, "", ""))

    pipeline.map_repositories([store.get_run(run_id)], pipeline.execute_run)

    # the listing answered, so it is not probed; the failed build is, and
    # a reachable runtime makes it a verdict
    assert runtime.verbs == ["ps", "images", "build", "version"]
    assert (store.get_run(run_id).provisioning_status
            is ProvisioningStatus.BUILD_FAILED)


def test_build_printing_a_non_utf8_byte_fails_with_its_log(env):
    config, store, tmp_path = env
    executable = tmp_path / "runtime"
    executable.write_text("#!/bin/sh\n"
                          "[ \"$1\" = build ] || exit 0\n"
                          "printf 'step 1\\nbad byte \\377\\n' >&2\n"
                          "exit 1\n")
    executable.chmod(0o755)
    config.docker_executable = str(executable)
    pipeline = Pipeline(config, store)
    run_id = pipeline.infer_repository(_two_notebook_repo(tmp_path)).run_id

    (result,) = pipeline.map_repositories([store.get_run(run_id)], pipeline.execute_run)

    assert not result.degraded_reason
    run = store.get_run(run_id)
    assert run.provisioning_status is ProvisioningStatus.BUILD_FAILED
    assert run.status_reason == "Other: bad byte \ufffd"
    log = (Path(config.logdir) / run_id / "build.log").read_text("utf-8")
    assert log.endswith("exit=1 timed_out=False\n--- stdout ---\n\n"
                        "--- stderr ---\nstep 1\nbad byte \ufffd\n\n")


# ---- one --jobs budget over repository stages and notebook runs ------------

class _Watch:
    """Hooks on the stub runtime's container runs, copy-outs and removals.

    Logs, in one order, each container run as it starts, each copy-out as
    it returns and each removal, by container name; counts the runs, the
    runs in flight, their peak and the peak thread count. Each run first
    waits ``run_s``; the run of a notebook named in ``fail_on`` raises
    instead of running, and one in ``errored`` exits 1 once the stub ran
    it. Each copy-out first waits ``copy_s``. ``after_run``, when given,
    is called with each run's answer, and what it returns is the answer.
    """

    def __init__(self, runtime, run_s=0.025, copy_s=0.0, fail_on=(), errored=(),
                 after_run=None):
        self.runtime, self.run_s, self.copy_s = runtime, run_s, copy_s
        self.fail_on, self.errored, self.after_run = fail_on, errored, after_run
        self._lock = threading.Lock()
        self.lifecycle: list[tuple[str, str]] = []
        self.runs = self.running = self.peak_running = self.peak_threads = 0
        runtime.answer("run", self._run)
        runtime.answer("cp", self._copy)
        runtime.answer("rm", self._remove)

    def _log(self, verb: str, name: str) -> None:
        with self._lock:
            self.lifecycle.append((verb, name))

    def _run(self, args, timeout):
        notebook = args[-1]
        self._log("run", args[args.index("--name") + 1])
        with self._lock:
            self.runs += 1
            self.running += 1
            self.peak_running = max(self.peak_running, self.running)
            self.peak_threads = max(self.peak_threads, threading.active_count())
        try:
            time.sleep(self.run_s)
            if notebook in self.fail_on:
                raise RuntimeError(f"runtime crashed on {notebook}")
            done = self.runtime.stub(args, timeout)
            if notebook in self.errored:
                done = ToolRun([], 1, "", "RuntimeError: boom")
            return self.after_run(done) if self.after_run else done
        finally:
            with self._lock:
                self.running -= 1

    def _copy(self, args, timeout):
        time.sleep(self.copy_s)
        copied = self.runtime.stub(args, timeout)
        self._log("cp", args[1].split(":", 1)[0])
        return copied

    def _remove(self, args, timeout):
        removed = self.runtime.stub(args, timeout)
        self._log("rm", args[-1])
        return removed


def _skewed_corpus(tmp_path) -> list[str]:
    """One repository of six notebooks, then one of a single notebook."""
    large = {f"a{i}.ipynb": _original(f"print({i})", f"{i}\n").decode()
             for i in range(6)}
    small = {"b0.ipynb": _original("print('b')", "b\n").decode()}
    return [make_git_repo(tmp_path / "origin-large", large),
            make_git_repo(tmp_path / "origin-small", small)]


def _plant_artifacts(runtime, large, small=None):
    """The executed artifacts of ``_skewed_corpus``'s repositories, or of
    ``_four_notebook_repo``'s as the large one."""
    # odd notebooks drift, so scores differ between notebooks
    runtime.plant(large, {
        f"a{i}.ipynb": _original(f"print({i})", f"{i}\n" if i % 2 == 0 else "drift\n")
        for i in range(6)})
    if small is not None:
        runtime.plant(small, {"b0.ipynb": _original("print('b')", "b\n")})


def _config(root: Path, jobs: int) -> PipelineConfig:
    return PipelineConfig(store_path=root / "store.sqlite3", logdir=root / "logs",
                          artifacts_dir=root / "artifacts",
                          report_dir=root / "reports", jobs=jobs)


def _run_corpus(root: Path, urls: list[str], jobs: int, runtime):
    _plant_artifacts(runtime, *urls)
    config = _config(root, jobs)
    with Store(config.store_path) as store:
        baseline_threads = threading.active_count()
        pipeline = Pipeline(config, store)
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


def test_budget_bounds_container_runs_and_threads(tmp_path, runtime):
    urls = _skewed_corpus(tmp_path)
    watch = _Watch(runtime)
    results, rows, baseline = _run_corpus(tmp_path / "parallel", urls, 2, runtime)

    assert all(r.completed for r in results)
    assert len(rows["notebook_executions"]) == 7
    assert watch.peak_running == 2
    # a repository pool of at most 2 * jobs threads and a notebook pool of
    # at most jobs
    assert watch.peak_threads - baseline <= 3 * 2
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]


def test_each_build_precedes_its_repository_runs(tmp_path, runtime):
    urls = _skewed_corpus(tmp_path)
    _Watch(runtime)
    _run_corpus(tmp_path / "parallel", urls, 2, runtime)

    calls = list(runtime.calls)
    builds = {args[3]: index for index, args in enumerate(calls)
              if args[0] == "build"}
    assert len(builds) == 2
    for tag, built_at in builds.items():
        repository = tag.split(":", 1)[0]
        (cleaned_at,) = [index for index, args in enumerate(calls)
                         if args[0] == "images" and args[-1] == repository]
        runs = [index for index, args in enumerate(calls)
                if args[0] == "run" and tag in args]
        assert runs
        assert cleaned_at < built_at < min(runs)


def test_parallel_rows_equal_serial_rows(tmp_path, runtime):
    urls = _skewed_corpus(tmp_path)
    serial_watch = _Watch(runtime)
    _, serial, _ = _run_corpus(tmp_path / "serial", urls, 1, runtime)
    runtime.recover()
    _Watch(runtime)
    _, parallel, _ = _run_corpus(tmp_path / "parallel", urls, 2, runtime)

    # --jobs 1 takes the pooled path with one slot: one container at a time,
    # and no worker thread outlives the invocation
    assert serial_watch.peak_running == 1
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]
    assert len(serial["notebook_executions"]) == 7
    assert len(serial["reproducibility_metrics"]) == 7
    assert parallel == serial


def test_failing_notebook_degrades_only_its_repository(tmp_path, runtime, caplog):
    urls = _skewed_corpus(tmp_path)
    watch = _Watch(runtime, fail_on=("a2.ipynb", "a4.ipynb"))
    results, rows, _ = _run_corpus(tmp_path / "parallel", urls, 2, runtime)

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
    assert watch.running == 0
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]


def test_single_repository_execute_runs_notebooks_side_by_side(tmp_path, runtime):
    urls = _skewed_corpus(tmp_path)
    watch = _Watch(runtime)
    _plant_artifacts(runtime, *urls)
    config = _config(tmp_path / "single", 2)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
        inferred = pipeline.infer_repository(urls[0])
        (result,) = pipeline.map_repositories(
            [store.get_run(inferred.run_id)], pipeline.execute_run)
        assert result.completed
        assert len(store_rows(store, "notebook_executions",
                              run_id=inferred.run_id)) == 6
    assert watch.peak_running == 2


def _removed_once_after_copy(lifecycle: list[tuple[str, str]]) -> bool:
    """Whether each run of a container is followed by at most one copy-out
    and then exactly one removal, before any next run of it."""
    by_name: dict[str, list[str]] = {}
    for verb, name in lifecycle:
        by_name.setdefault(name, []).append(verb)
    return bool(by_name) and all(
        re.fullmatch(r"(run (cp )?rm ?)+", " ".join(verbs))
        for verbs in by_name.values())


def test_copy_out_and_removal_leave_the_slot(tmp_path, runtime):
    urls = _skewed_corpus(tmp_path)
    watch = _Watch(runtime, copy_s=0.2)
    results, rows, _ = _run_corpus(tmp_path / "serial", urls, 1, runtime)

    assert all(r.completed for r in results)
    assert len(rows["notebook_executions"]) == 7
    # one container at a time, yet the next run starts while the first
    # notebook's artifact is still being copied out
    assert watch.peak_running == 1
    verb, first = watch.lifecycle[0]
    assert verb == "run"
    copied_at = watch.lifecycle.index(("cp", first))
    assert any(verb == "run" and name != first
               for verb, name in watch.lifecycle[1:copied_at])


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_container_is_removed_once_after_its_copy(tmp_path, runtime, jobs):
    urls = _skewed_corpus(tmp_path)
    watch = _Watch(runtime, errored=("a1.ipynb",))
    # the stub's run of these fails with NoSuchKernel until a kernel is forced
    runtime.plant(urls[0], {"a3.ipynb.nokernel": b"ir\n"})
    runtime.plant(urls[1], {"b0.ipynb.nokernel": b"ir\n"})
    results, rows, _ = _run_corpus(tmp_path / "run", urls, jobs, runtime)

    assert all(r.completed for r in results)
    assert Counter(row["status"] for row in rows["notebook_executions"]) == {
        "Success": 6, "ErroredButCompleted": 1}
    assert _removed_once_after_copy(watch.lifecycle)
    assert len({name for _, name in watch.lifecycle}) == 7
    assert runtime.containers() == []


def _pipelined_corpus(tmp_path, count: int) -> list[str]:
    """``count`` repositories of two notebooks each."""
    return [make_git_repo(tmp_path / f"origin-r{n}", {
        f"r{n}n{i}.ipynb": _original(f"print({i})", f"{i}\n").decode()
        for i in range(2)}) for n in range(count)]


def _plant_pipelined(runtime, urls: list[str]) -> None:
    """The executed artifacts of ``_pipelined_corpus``: the notebooks of
    every other repository drift."""
    for n, url in enumerate(urls):
        runtime.plant(url, {
            f"r{n}n{i}.ipynb": _original(f"print({i})", f"{i}\n" if n % 2 else "drift\n")
            for i in range(2)})


def _run_logged(root: Path, urls: list[str], jobs: int, runtime, monkeypatch,
                one_at_a_time: bool = False) -> tuple[dict, list]:
    """Run the corpus and log where each runtime unit starts and ends (a
    clean room from its listing to the return of its build, and a container
    run) and each repository, validation and clone; the build and each run
    take a while, so other work can meet them. ``one_at_a_time`` maps the
    repositories one by one. Returns the rows and the log."""
    log, lock = [], threading.Lock()

    def note(edge, kind, key, repository):
        with lock:
            log.append((edge, kind, key, repository))

    def listing(args, timeout):
        repository = args[-1].rsplit("=", 1)[1]
        note("start", "clean_room", repository, repository)
        return runtime.stub(args, timeout)

    def build(args, timeout):
        repository = args[3].split(":", 1)[0].split("/", 1)[1]
        note("start", "build", repository, repository)
        time.sleep(0.03)
        try:
            return runtime.stub(args, timeout)
        finally:
            note("end", "build", repository, repository)
            note("end", "clean_room", repository, repository)

    def run(args, timeout):
        name = args[args.index("--name") + 1]
        repository = args[args.index("--label") + 1].rsplit("=", 1)[1]
        note("start", "run", name, repository)
        time.sleep(0.02)
        try:
            return runtime.stub(args, timeout)
        finally:
            note("end", "run", name, repository)

    runtime.recover()
    for verb, hook in (("ps", listing), ("build", build), ("run", run)):
        runtime.answer(verb, hook)
    _plant_pipelined(runtime, urls)

    def logged(kind, call):
        def wrapper(url, *args, **kwargs):
            repository = corpus.repository_id_for(corpus.canonical_input(url))
            note("start", kind, repository, repository)
            try:
                return call(url, *args, **kwargs)
            finally:
                note("end", kind, repository, repository)
        return wrapper

    config = _config(root, jobs)
    with monkeypatch.context() as patched, Store(config.store_path) as store:
        patched.setattr(corpus, "validate_repository",
                        logged("validate", corpus.validate_repository))
        patched.setattr(corpus, "acquire_repository",
                        logged("acquire", corpus.acquire_repository))
        pipeline = Pipeline(config, store)
        repository = logged("repository", pipeline.run_repository)
        for batch in ([[url] for url in urls] if one_at_a_time else [urls]):
            assert all(r.completed for r in pipeline.map_repositories(batch, repository))
        rows = _comparable_rows(store, config.artifacts_dir)
    return rows, log


def _pipelining(log: list) -> tuple[int, int, bool]:
    """The most runtime units and the most repositories in flight at once,
    and whether a validation or clone of one repository ever ran while a
    build or container run of another did."""
    infer, runtime = {"validate", "acquire"}, {"build", "run"}
    active: set[tuple[str, str, str]] = set()
    units = repositories = 0
    met = False
    for edge, kind, key, repository in log:
        if edge == "end":
            active.remove((kind, key, repository))
            continue
        active.add((kind, key, repository))
        units = max(units, sum(k in ("clean_room", "run") for k, _, _ in active))
        repositories = max(repositories, sum(k == "repository" for k, _, _ in active))
        met = met or any(
            r != repository and {k, kind} & infer and {k, kind} & runtime
            for k, _, r in active)
    return units, repositories, met


@pytest.mark.parametrize("jobs", [1, 2])
def test_repositories_clone_infer_and_compare_beside_the_runtime_units(
        tmp_path, monkeypatch, runtime, jobs):
    urls = _pipelined_corpus(tmp_path, 2 * jobs + 2)
    serial, _ = _run_logged(tmp_path / "serial", urls, jobs, runtime, monkeypatch,
                            one_at_a_time=True)
    rows, log = _run_logged(tmp_path / "pipelined", urls, jobs, runtime, monkeypatch)

    units, repositories, met = _pipelining(log)
    assert units <= jobs
    assert repositories <= 2 * jobs
    if jobs == 1:
        # one repository validated or cloned beside another's build or run
        assert met
    assert rows == serial
    assert len(rows["notebook_executions"]) == 2 * len(urls)
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]


def test_map_runs_the_callers_unstarted_items_on_its_own_thread(caplog):
    pool = ThreadPoolExecutor(max_workers=1)
    budget = WorkBudget(1, pool)
    held, release = threading.Barrier(3), threading.Event()

    def blocked(item):
        held.wait(timeout=10)
        release.wait(timeout=10)
        return item

    def other_unit():
        other.extend(budget.map(blocked, ["x", "y"]))

    # Another unit's two blocked items take the pool's only thread and the
    # other unit's own thread.
    other: list = []
    thread = threading.Thread(target=other_unit)
    thread.start()
    try:
        held.wait(timeout=10)
        ran_on = []

        def own(item):
            ran_on.append(threading.current_thread())
            if isinstance(item, BaseException):
                raise item
            return item * 10

        assert budget.map(own, [1, 2, 3]) == [10, 20, 30]
        with pytest.raises(ValueError, match="first"):
            budget.map(own, [1, ValueError("first"), 2, KeyError("second")])
        with pytest.raises(KeyboardInterrupt):
            budget.map(own, [KeyboardInterrupt(), 1])
        # every call ran on the calling thread while the pool was held
        assert set(ran_on) == {threading.current_thread()}
        assert len(ran_on) == 9
        assert any(isinstance(r.exc_info[1], KeyError)
                   for r in caplog.records if r.exc_info)
    finally:
        release.set()
        thread.join(timeout=10)
        pool.shutdown()
    assert not thread.is_alive()
    assert other == ["x", "y"]


def test_map_runs_each_item_once_under_contention():
    # More units and slots than cores, switching threads as often as the
    # interpreter allows: a call claimed by both the pool and its unit, or
    # by neither, shows in the counts.
    pool = ThreadPoolExecutor(max_workers=4)
    budget = WorkBudget(4, pool)
    lock = threading.Lock()
    runs, in_slot, peak = Counter(), [0], [0]

    def item(key):
        with budget.slots:
            with lock:
                in_slot[0] += 1
                peak[0] = max(peak[0], in_slot[0])
            with lock:
                in_slot[0] -= 1
        with lock:
            runs[key] += 1
        return key

    def unit(number):
        return budget.map(item, [(number, i) for i in range(50)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as units:
            results = list(units.map(unit, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert results == [[(number, i) for i in range(50)] for number in range(8)]
    assert runs == Counter({(number, i): 1 for number in range(8) for i in range(50)})
    assert peak[0] <= 4


# An outage begins at the first call of a verb: that call and every later
# one, the version probe too, get the reply the docker client gets without
# its daemon (exit 1), or one that hits its bound, or an executable that
# cannot start.
_OUTAGES = [
    *[pytest.param(verb, DAEMON_DOWN, id=verb)
      for verb in ("ps", "images", "build", "run", "cp", "rm")],
    pytest.param("run", ToolRun([], -1, "", "", timed_out=True), id="run-timed-out"),
    pytest.param("run", OSError(2, "No such file or directory", "docker"),
                 id="run-cannot-start"),
]


@pytest.fixture(scope="module")
def outage_corpus(tmp_path_factory):
    """Two repositories of two notebooks each, and the rows of a clean run
    of them on the stub runtime."""
    root = tmp_path_factory.mktemp("outage")
    urls = _pipelined_corpus(root, 2)
    with pytest.MonkeyPatch.context() as patched:
        runtime = Runtime(root, patched)
        _plant_pipelined(runtime, urls)
        config = _config(root / "clean", 2)
        with Store(config.store_path) as store:
            pipeline = Pipeline(config, store)
            assert all(r.completed for r in
                       pipeline.map_repositories(urls, pipeline.run_repository))
            return urls, _comparable_rows(store, config.artifacts_dir)


@pytest.mark.parametrize("verb, reply", _OUTAGES)
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_runtime_outage_records_nothing_and_execute_resumes(
        tmp_path, runtime, outage_corpus, jobs, verb, reply):
    urls, expected = outage_corpus
    _plant_pipelined(runtime, urls)
    runtime.go_down(verb, reply)

    config = _config(tmp_path / "stub", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
        results = pipeline.map_repositories(urls, pipeline.run_repository)

        # No verdict was taken from a failed call: every run stays Pending.
        # A removal is no reachability check, so an outage that begins after
        # a repository's last copy-out leaves its verdicts, which are valid,
        # and its container for the next clean room.
        recorded = [r.run_id for r in results if r.completed]
        if verb != "rm":
            assert recorded == []
        for result in results:
            if result.run_id in recorded:
                continue
            assert result.degraded_reason == (
                "container runtime unavailable: container runtime 'docker' "
                "is not reachable")
            assert (store.get_run(result.run_id).provisioning_status
                    is ProvisioningStatus.PENDING)
            assert store_rows(store, "notebook_executions", run_id=result.run_id) == []

        # With the runtime back, execute then compare give a clean run's rows.
        runtime.recover()
        pipeline = Pipeline(config, store)
        assert len(pipeline.runs_awaiting("execute")) == len(urls) - len(recorded)
        for stage, step in (("execute", pipeline.execute_run),
                            ("compare", pipeline.compare_run)):
            resumed = pipeline.map_repositories(pipeline.runs_awaiting(stage), step)
            assert all(r.completed for r in resumed)
        rows = _comparable_rows(store, config.artifacts_dir)
    assert rows == expected
    assert [name for name in runtime.containers()
            if not any(name.startswith(f"nbrepro-{run_id}-") for run_id in recorded)] == []


def test_timed_out_clone_degrades_only_its_repository(tmp_path, monkeypatch, runtime):
    urls = _skewed_corpus(tmp_path)
    run_tool = corpus.run_tool

    def clone_times_out(argv, timeout, env=None):
        if argv[:2] == ["git", "clone"] and urls[1] in argv:
            return ToolRun(argv, -1, "", "Cloning into 'tree'...\n", timed_out=True)
        return run_tool(argv, timeout, env)

    monkeypatch.setattr(corpus, "run_tool", clone_times_out)
    results, rows, _ = _run_corpus(tmp_path / "parallel", urls, 2, runtime)

    large, small = results
    assert large.completed and not small.completed
    runs = {run["repository_id"]: run for run in rows["repository_runs"]}
    assert runs[small.repository_id]["provisioning_status"] == "Pending"
    assert runs[small.repository_id]["status_reason"] == (
        f"acquisition failed: clone of {urls[1]} timed out")
    assert runs[large.repository_id]["provisioning_status"] == "EnvironmentBuilt"
    assert len(rows["notebook_executions"]) == 6


def test_every_event_names_its_repository_and_run(tmp_path, runtime):
    urls = _skewed_corpus(tmp_path)
    results, _, _ = _run_corpus(tmp_path / "run", urls, 2, runtime)

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
    _run_corpus(tmp_path / "run", urls, 2, runtime)
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
    first = Pipeline(config, store).infer_repository(url)
    repo = store.get_repository(first.repository_id)
    notebooks = store.list_notebooks(first.repository_id)
    assert repo.notebook_count == 2
    assert repo == replace(corpus.acquire_repository(
        url, Path(config.artifacts_dir) / "repos"), notebook_count=2)
    assert notebooks == corpus.discover_notebooks(repo)[0]

    second = Pipeline(config, store).infer_repository(url)
    assert second.run_id != first.run_id
    assert store.list_repositories() == [repo]
    assert store.list_notebooks(first.repository_id) == notebooks
    assert len(store_rows(store, "notebooks")) == 2


def test_infer_without_notebooks_records_count_zero(env):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {"only.py": "pass\n"})
    result = Pipeline(config, store).infer_repository(url)
    assert store.get_repository(result.repository_id).notebook_count == 0
    assert store_rows(store, "notebooks") == []
    assert (store.get_run(result.run_id).provisioning_status
            is ProvisioningStatus.NO_PYTHON_NOTEBOOKS)


def _clones_fail(monkeypatch):
    """Every later clone fails, as one after a successful validation can."""
    run_tool = corpus.run_tool

    def clone_fails(argv, timeout, env=None):
        if argv[:2] == ["git", "clone"]:
            return ToolRun(argv, 128, "", "fatal: early EOF\n")
        return run_tool(argv, timeout, env)

    monkeypatch.setattr(corpus, "run_tool", clone_fails)


def test_a_failed_clone_keeps_the_stored_facts(env, monkeypatch):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "requirements.txt": "numpy\n",
        "a.ipynb": _original("print(1)", "1\n").decode(),
        "b.ipynb": _original("print(2)", "2\n").decode(),
    })
    inferred = Pipeline(config, store).infer_repository(url)
    repo = store.get_repository(inferred.repository_id)
    assert (repo.has_requirements_file, repo.notebook_count) == (True, 2)

    _clones_fail(monkeypatch)
    failed = Pipeline(config, store).infer_repository(url)

    assert failed.degraded_reason.startswith(f"clone of {url} failed: ")
    # The failed clone deleted the tree; no other fact changed.
    assert store.get_repository(inferred.repository_id) == replace(repo, local_path=None)
    assert len(store.list_notebooks(inferred.repository_id)) == 2
    run = store.get_run(failed.run_id)
    assert run.provisioning_status is ProvisioningStatus.PENDING
    assert run.status_reason == f"acquisition failed: {failed.degraded_reason}"
    # a Pending run is unfinished
    assert run.finished_at is None
    with store.transaction():
        assert report.aggregate_corpus(store).repositories_with_requirements == 1


def test_execute_of_a_run_whose_clone_failed_asks_for_infer(env, monkeypatch, runtime):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "a.ipynb": _original("print(1)", "1\n").decode()})
    pipeline = Pipeline(config, store)
    _clones_fail(monkeypatch)
    inferred = pipeline.infer_repository(url)
    assert store.get_repository(inferred.repository_id).local_path is None

    (result,) = pipeline.map_repositories([store.get_run(inferred.run_id)],
                                          pipeline.execute_run)

    assert result.degraded_reason == "repository tree missing; rerun the infer stage"
    assert runtime.calls == []
    assert (store.get_run(inferred.run_id).provisioning_status
            is ProvisioningStatus.PENDING)
    assert store_rows(store, "notebook_executions") == []


def test_failed_recipe_write_records_nothing(env, monkeypatch):
    config, store, tmp_path = env
    url = _two_notebook_repo(tmp_path)

    def no_space(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(containerize, "write_recipe", no_space)
    with pytest.raises(OSError):
        Pipeline(config, store).infer_repository(url)
    assert store.list_repositories() == []
    assert store_rows(store, "repository_runs") == []
    assert store_rows(store, "notebooks") == []


def _interrupt_at_run(runtime, interrupt_at: int) -> None:
    """KeyboardInterrupt, as Ctrl-C would raise it, in place of container run
    number ``interrupt_at`` (counting from 0); every other run goes to the
    stub."""
    lock, runs = threading.Lock(), [0]

    def run(args, timeout):
        with lock:
            index, runs[0] = runs[0], runs[0] + 1
        if index == interrupt_at:
            raise KeyboardInterrupt
        return runtime.stub(args, timeout)

    runtime.answer("run", run)


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


def _uninterrupted_rows(tmp_path, url: str, jobs: int, runtime) -> dict:
    _plant_artifacts(runtime, url)
    config = _config(tmp_path / "clean", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
        assert _execute_and_compare(
            pipeline, pipeline.infer_repository(url).run_id).completed
        return _comparable_rows(store, config.artifacts_dir)


@pytest.mark.parametrize("interrupt_at", range(4))
@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_execute_leaves_no_rows_and_reruns_whole(
        tmp_path, runtime, jobs, interrupt_at):
    url = _four_notebook_repo(tmp_path)
    expected = _uninterrupted_rows(tmp_path, url, jobs, runtime)

    _interrupt_at_run(runtime, interrupt_at)
    config = _config(tmp_path / "interrupted", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
        run_id = pipeline.infer_repository(url).run_id
        first_call = len(runtime.calls)
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
    verbs = runtime.verbs[first_call:]
    builds = [i for i, verb in enumerate(verbs) if verb == "build"]
    assert len(builds) == 2
    assert verbs[builds[1]:].count("run") == 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_execute_replaces_partial_rows_of_an_old_store(tmp_path, runtime, jobs):
    url = _four_notebook_repo(tmp_path)
    expected = _uninterrupted_rows(tmp_path, url, jobs, runtime)

    config = _config(tmp_path / "old", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
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
    pipeline = Pipeline(config, store)
    inferred = pipeline.infer_repository(url)

    def crash(run):
        raise RuntimeError("runtime client crashed")

    (result,) = pipeline.map_repositories([store.get_run(inferred.run_id)], crash)
    (repo,) = store.list_repositories()
    assert (result.url, result.repository_id, result.run_id) == (
        repo.url, inferred.repository_id, inferred.run_id)
    assert not result.completed
    assert result.degraded_reason == "unexpected error: runtime client crashed"


def _ctrl_c_during_runs(runtime, seen: threading.Event, **watched) -> _Watch:
    """Ctrl-C during the notebook runs: the first container run sends
    SIGINT to the main thread, as a terminal does, and every run's client
    exits 130 once ``seen`` is set. Returns the watch that counts the runs."""
    lock, sent = threading.Lock(), []

    def interrupted(done):
        with lock:
            send = not sent
            sent.append(True)
        if send:
            # A real signal: it wakes a main thread that is blocked on a
            # future, which _thread.interrupt_main() does not.
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        # Without the interrupt seen, the run completes and commits.
        seen.wait(timeout=10)
        return ToolRun([], 130, "", "KeyboardInterrupt")

    return _Watch(runtime, run_s=0.0, after_run=interrupted, **watched)


@pytest.mark.parametrize("jobs", [1, 2])
def test_ctrl_c_under_parallel_execute_commits_no_run(tmp_path, runtime, jobs):
    urls = [make_git_repo(tmp_path / name, {
        f"{name}{i}.ipynb": _original(f"print({i})", f"{i}\n").decode()
        for i in range(8)}) for name in ("a", "b")]
    config = _config(tmp_path / "store", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
        runs = [store.get_run(pipeline.infer_repository(url).run_id)
                for url in urls]
        watch = _ctrl_c_during_runs(runtime, pipeline.interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.map_repositories(runs, pipeline.execute_run)

        # only the runs in flight at Ctrl-C started; no notebook after them
        assert 1 <= watch.runs <= config.jobs
        assert [store.get_run(run.run_id).provisioning_status for run in runs] == [
            ProvisioningStatus.PENDING, ProvisioningStatus.PENDING]
        assert store_rows(store, "notebook_executions") == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_container_is_removed_once_after_ctrl_c(tmp_path, runtime, jobs):
    urls = [make_git_repo(tmp_path / name, {
        f"{name}{i}.ipynb": _original(f"print({i})", f"{i}\n").decode()
        for i in range(4)}) for name in ("a", "b")]
    config = _config(tmp_path / "store", jobs)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
        runs = [store.get_run(pipeline.infer_repository(url).run_id)
                for url in urls]
        watch = _ctrl_c_during_runs(runtime, pipeline.interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.map_repositories(runs, pipeline.execute_run)

    assert 1 <= watch.runs <= jobs
    assert _removed_once_after_copy(watch.lifecycle)
    assert runtime.containers() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_ctrl_c_under_parallel_infer_records_no_run(tmp_path, monkeypatch, jobs):
    urls = [make_git_repo(tmp_path / name, {
        f"{name}.ipynb": _original("print(1)", "1\n").decode()})
        for name in "abcdef"[:2 * jobs + 2]]
    config = _config(tmp_path / "store", jobs)
    validate = corpus.validate_repository
    lock = threading.Lock()
    probes = []
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)

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
        assert 1 <= len(probes) <= 2 * jobs
        assert store_rows(store, "repository_runs") == []
        assert store.list_repositories() == []


def _interrupt_after(obj, name: str, interrupted: threading.Event) -> None:
    """Ctrl-C as the pipeline sees it, once ``obj.name`` returns."""
    call = getattr(obj, name)

    def interrupting(*args, **kwargs):
        try:
            return call(*args, **kwargs)
        finally:
            interrupted.set()

    setattr(obj, name, interrupting)


def test_ctrl_c_in_a_clean_room_starts_no_later_runtime_call(tmp_path, runtime):
    urls = [make_git_repo(tmp_path / name, {
        f"{name}.ipynb": _original("print(1)", "1\n").decode()})
        for name in ("a", "b")]
    config = _config(tmp_path / "store", 1)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)
        runs = [store.get_run(pipeline.infer_repository(url).run_id)
                for url in urls]

        def listing(args, timeout):
            # Ctrl-C as the pipeline sees it, once the first listing returns.
            try:
                return runtime.stub(args, timeout)
            finally:
                pipeline.interrupted.set()

        runtime.answer("ps", listing)

        results = pipeline.map_repositories(runs, pipeline.execute_run)

        # The first repository stops before its build, the second before
        # its cleanup's listing.
        assert runtime.verbs == ["ps", "images"]
        assert [r.degraded_reason for r in results] == [
            "interrupted; nothing was recorded"] * 2
        assert [store.get_run(run.run_id).provisioning_status for run in runs] == [
            ProvisioningStatus.PENDING] * 2
        assert store_rows(store, "notebook_executions") == []


class _WatchedSlots(threading.BoundedSemaphore):
    """Slots that set ``waiting`` when a taker finds none free."""

    def __init__(self, value: int, waiting: threading.Event):
        super().__init__(value)
        self.waiting = waiting

    def acquire(self, blocking=True, timeout=None):
        if super().acquire(blocking=False):
            return True
        self.waiting.set()
        return super().acquire(blocking, timeout)

    __enter__ = acquire


def test_ctrl_c_while_a_repository_waits_for_a_slot(tmp_path, monkeypatch, runtime):
    from nbrepro import pipeline as pipelinemod

    urls = [make_git_repo(tmp_path / name, {
        f"{name}.ipynb": _original("print(1)", "1\n").decode()})
        for name in ("a", "b")]
    waiting = threading.Event()

    class WatchedBudget(WorkBudget):
        def __init__(self, jobs, pool):
            super().__init__(jobs, pool)
            self.slots = _WatchedSlots(jobs, waiting)

    monkeypatch.setattr(pipelinemod, "WorkBudget", WatchedBudget)
    config = _config(tmp_path / "store", 1)
    with Store(config.store_path) as store:
        pipeline = Pipeline(config, store)

        def build(args, timeout):
            # The build waits until another repository waits for a slot,
            # sends SIGINT to the main thread, as a terminal does, and
            # returns once the pipeline has seen it.
            assert waiting.wait(timeout=10)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            assert pipeline.interrupted.wait(timeout=10)
            return runtime.stub(args, timeout)

        runtime.answer("build", build, times=1)
        with pytest.raises(KeyboardInterrupt):
            pipeline.map_repositories(urls, pipeline.run_repository)

        # The repository that built held the only slot; the other had
        # inferred and was waiting for it. It made no runtime call.
        (build,) = [args for args in runtime.calls if args[0] == "build"]
        runs = store.latest_runs()
        (waiter,) = [repository for repository in runs if repository not in build[3]]
        assert [args for args in runtime.calls if waiter in " ".join(args)] == []
        assert len(store.list_notebooks(waiter)) == 1
        assert {run.provisioning_status for run in runs.values()} == {
            ProvisioningStatus.PENDING}
        assert store_rows(store, "notebook_executions") == []
        assert waiter not in {e["repository_id"] for e in _events(config, "cleanup")}
    assert not [t for t in threading.enumerate()
                if t.name.startswith("nbrepro-")]


def test_ctrl_c_during_compare_commits_no_metrics(env, monkeypatch, runtime):
    from nbrepro import compare

    config, store, tmp_path = env
    pipeline, runs = _executed_pipeline(config, store, tmp_path, runtime, ("a", "b"))
    _interrupt_after(compare, "compare_notebooks", pipeline.interrupted)

    results = pipeline.map_repositories(runs, pipeline.compare_run)

    assert [r.degraded_reason for r in results] == [
        "interrupted; nothing was recorded"] * 2
    assert store_rows(store, "reproducibility_metrics") == []
    assert _events(config, "notebook_compared") == []
    assert [store.get_run(run.run_id).provisioning_status for run in runs] == [
        ProvisioningStatus.ENVIRONMENT_BUILT] * 2


# ---- compare reads its work once and commits a repository once --------------

def _executed_pipeline(config, store, tmp_path, runtime, names=("origin",)):
    """Infer and execute one two-notebook repository per name; returns the
    pipeline and the finished runs."""
    pipeline = Pipeline(config, store)
    runs = []
    for name in names:
        url = _two_notebook_repo(tmp_path / name, runtime)
        run_id = pipeline.infer_repository(url).run_id
        (result,) = pipeline.map_repositories([store.get_run(run_id)],
                                              pipeline.execute_run)
        assert result.completed
        runs.append(store.get_run(run_id))
    return pipeline, runs


def test_compare_commits_a_repository_once(env, monkeypatch, runtime):
    config, store, tmp_path = env
    pipeline, (run,) = _executed_pipeline(config, store, tmp_path, runtime)
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


def test_compare_decodes_no_rows(env, monkeypatch, runtime):
    from nbrepro import cli, store as storemod

    config, store, tmp_path = env
    pipeline, runs = _executed_pipeline(config, store, tmp_path, runtime, ("a", "b"))

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


def test_compare_degrades_a_repository_with_an_unreadable_artifact(env, caplog, runtime):
    from nbrepro import cli

    config, store, tmp_path = env
    caplog.set_level("INFO")
    _, (run,) = _executed_pipeline(config, store, tmp_path, runtime)
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


# ---- one table picks each stage's runs ---------------------------------------

_EXECUTED = {ProvisioningStatus.ENVIRONMENT_BUILT, ProvisioningStatus.KERNEL_NOT_FOUND}


def _latest_runs_in(store, status) -> list[str]:
    """Two repositories whose latest runs end in ``status``, each over an
    older run in another status; returns the latest run ids in start order,
    which is not their id order."""
    older = (ProvisioningStatus.ENVIRONMENT_BUILT if status is ProvisioningStatus.PENDING
             else ProvisioningStatus.PENDING)
    latest = []
    for repository_id, day in (("repo-b", 2), ("repo-a", 3)):
        store.upsert_repository(Repository(repository_id, f"file:///{repository_id}"))
        for run_id, started, finish in ((f"{repository_id}-old", 1, older),
                                        (f"{repository_id}-new", day, status)):
            run = RunRecord(run_id, repository_id, f"invocation-{started}",
                            f"2026-08-0{started}T00:00:00+00:00")
            store.insert_run(run)
            if finish is not ProvisioningStatus.PENDING:
                store.finish_run(run, finish)
        latest.append(f"{repository_id}-new")
    return latest


@pytest.mark.parametrize("status", list(ProvisioningStatus))
def test_execute_and_compare_take_the_runs_the_table_names(env, monkeypatch, status):
    from nbrepro import cli

    config, store, _ = env
    latest = _latest_runs_in(store, status)
    taken = []

    def step(self, run):
        taken.append(run.run_id)
        return RepositoryResult(url=run.repository_id)

    monkeypatch.setattr(Pipeline, "execute_run", step)
    monkeypatch.setattr(Pipeline, "compare_run", step)
    for handler, statuses in ((cli.cmd_execute, {ProvisioningStatus.PENDING}),
                              (cli.cmd_compare, _EXECUTED)):
        taken.clear()
        if status in statuses:
            assert handler(config, store) == 0
            assert taken == latest
        else:
            with pytest.raises(cli.PredecessorStateMissing):
                handler(config, store)
            assert taken == []


@pytest.mark.parametrize("status", list(ProvisioningStatus))
def test_run_goes_on_to_compare_exactly_when_the_table_says(env, monkeypatch, status):
    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "nb.ipynb": _original("print(1)", "1\n").decode()})
    pipeline = Pipeline(config, store)
    steps = []

    def execute(run):
        steps.append("execute")
        if status is not ProvisioningStatus.PENDING:
            store.finish_run(run, status)
        return pipeline._result_for(run)

    def compare(run):
        steps.append("compare")
        return pipeline._result_for(run)

    monkeypatch.setattr(pipeline, "execute_run", execute)
    monkeypatch.setattr(pipeline, "compare_run", compare)
    (result,) = pipeline.map_repositories([url], pipeline.run_repository)
    assert result.completed
    assert steps == (["execute", "compare"] if status in _EXECUTED else ["execute"])


def test_a_validation_that_does_not_finish_degrades_without_rows(env, monkeypatch):
    from nbrepro.tool import ToolRun

    config, store, tmp_path = env
    url = make_git_repo(tmp_path / "origin", {
        "nb.ipynb": _original("print(1)", "1\n").decode()})
    monkeypatch.setattr(corpus, "run_tool", lambda argv, timeout, env=None:
                        ToolRun(list(argv), -1, "", "", timed_out=True))
    pipeline = Pipeline(config, store)
    (result,) = pipeline.map_repositories([url], pipeline.infer_repository)

    canonical = corpus.canonical_input(url)
    assert result.degraded_reason == (
        f"validation did not finish: existence probe timed out for {canonical}")
    assert store.list_repositories() == []
    assert store_rows(store, "repository_runs") == []
    (event,) = _events(config, "validation_timeout")
    assert event["invocation_id"] == pipeline.invocation_id
    assert event["url"] == canonical
    assert event["repository_id"] == corpus.repository_id_for(canonical)
