"""Stage 3-4 orchestration wiring over a fake container runtime: store rows,
artifact layout, and the log directory contract."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from nbrepro import containerize, depinfer, notebook
from nbrepro.config import PipelineConfig
from nbrepro.executor import ExecutionStatus
from nbrepro.pipeline import Pipeline
from nbrepro.store import ProvisioningStatus, Store

from conftest import (
    FakeDocker,
    code_cell,
    make_git_repo,
    markdown_cell,
    notebook_bytes,
    requires_git,
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

    execute_result = pipeline.execute_run(run)
    assert execute_result.completed
    finished = store.get_run(run.run_id)
    assert finished.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT
    assert finished.image_reference == f"repro/{result.repository_id}:{run.run_id}"
    assert finished.finished_at is not None

    executions = store.list_executions(run.run_id)
    assert len(executions) == 2
    assert all(e.status is ExecutionStatus.SUCCESS for e in executions)
    for record in executions:
        assert Path(record.executed_notebook_path).exists()
        assert str(Path(config.artifacts_dir) / run.run_id) in (
            record.executed_notebook_path)

    written = pipeline.compare_run(finished)
    assert written == 2
    rows = {m.notebook_id: (m, mismatch)
            for m, mismatch in store.list_metrics(run.run_id)}
    scores = sorted(m.score for m, _ in rows.values())
    assert scores == [0.0, 1.0]

    # log directory contract: build log, per-notebook execution logs,
    # per-notebook comparison JSON
    logdir = Path(config.logdir) / run.run_id
    assert (logdir / "build.log").exists()
    descriptors = store.list_notebooks(result.repository_id)
    for descriptor in descriptors:
        assert (logdir / f"{descriptor.notebook_id}.execution.log").exists()
        comparison = json.loads(
            (logdir / f"{descriptor.notebook_id}.comparison.json").read_text())
        assert comparison["structural_mismatch"] is False
        assert len(comparison["cells"]) == 1

    # rerunning the comparison stage is a no-op for already-compared rows
    assert pipeline.compare_run(finished) == 0

    events = [json.loads(line) for line in
              (Path(config.logdir) / "events.ndjson").read_text().splitlines()]
    stages = {e["stage"] for e in events}
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
    pipeline.execute_run(run)
    pipeline.compare_run(store.get_run(run.run_id))
    ((metrics, mismatch),) = store.list_metrics(run.run_id)
    assert mismatch
    assert metrics.score is None
    descriptor = store.list_notebooks(result.repository_id)[0]
    comparison = json.loads(
        (Path(config.logdir) / run.run_id /
         f"{descriptor.notebook_id}.comparison.json").read_text())
    assert comparison["structural_mismatch"] is True
    assert comparison["original_code_cells"] == 2


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
    pipeline.execute_run(store.get_run(result.run_id))
    finished = store.get_run(result.run_id)
    assert finished.provisioning_status is ProvisioningStatus.KERNEL_NOT_FOUND
    (record,) = store.list_executions(result.run_id)
    assert record.status is ExecutionStatus.KERNEL_NOT_FOUND


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

    result = Pipeline(config, store, docker).run_repository(
        url, runtime_available=True)

    assert result.completed
    executed = store.list_executions(result.run_id)
    assert len(executed) == 2
    assert len(store.list_metrics(result.run_id)) == 2
    # discover, the executed artifact, and compare's original and executed
    assert len(parses) <= 4 * len(executed)
    assert len(syntheses) == 1
    assert len(recipe_writes) == 1
    assert len(import_scans) == 3  # one per code cell


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
    outcome = Pipeline(later, store, docker).execute_run(
        store.get_run(result.run_id))

    assert outcome.completed
    assert _recipe_bytes(store, result.repository_id) == written
    tag = containerize.image_tag_for(result.repository_id, result.run_id)
    assert ("build", tag) in docker.calls
    assert store.get_run(result.run_id).image_reference == tag


def test_execute_without_recipe_is_degraded(env):
    config, store, tmp_path = env
    docker = FakeDocker()
    url = _two_notebook_repo(tmp_path, docker)
    pipeline = Pipeline(config, store, docker)
    result = pipeline.infer_repository(url)
    tree = Path(store.get_repository(result.repository_id).local_path)
    (tree.parent / "Dockerfile").unlink()

    outcome = pipeline.execute_run(store.get_run(result.run_id))

    assert not outcome.completed
    assert outcome.degraded_reason == "build recipe missing; rerun the infer stage"
    assert not any(call[0] == "build" for call in docker.calls)
    assert store.list_executions(result.run_id) == []
    assert (store.get_run(result.run_id).provisioning_status
            is ProvisioningStatus.PENDING)
