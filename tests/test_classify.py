"""Outcome classification over each repository's latest run.

The store is populated directly through the Store API, so these tests need
neither git nor a container runtime.
"""

from __future__ import annotations

import json

from nbrepro.cli import cmd_classify
from nbrepro.compare import metrics_from_partition
from nbrepro.config import PipelineConfig
from nbrepro.executor import ExecutionRecord, ExecutionStatus
from nbrepro.report import aggregate_corpus
from nbrepro.store import (
    NotebookDescriptor,
    ProvisioningStatus,
    Repository,
    RunRecord,
    Store,
)

_BASELINE_HEADER = ("notebook_id,prev_dependency_install,prev_execution_status,"
                    "prev_diff_cells,prev_duration_s\n")


def _add_run(store: Store, run_id: str, started_at: str,
             status: ProvisioningStatus, reason: str | None = None) -> None:
    store.insert_run(RunRecord(
        run_id=run_id, repository_id="repo1", invocation_id=run_id,
        started_at=started_at, finished_at=started_at,
        provisioning_status=status, status_reason=reason))


def _add_scored_execution(store: Store, notebook_id: str, run_id: str) -> None:
    store.insert_execution(ExecutionRecord(
        notebook_id=notebook_id, run_id=run_id, status=ExecutionStatus.SUCCESS,
        duration_s=1.0, code_cell_count=2, markdown_code_ratio=0.0, errors=(),
        executed_notebook_path="/tmp/out.ipynb"))
    store.insert_metrics(metrics_from_partition(
        [0], [1], [], notebook_id=notebook_id, run_id=run_id))


def _store_with_notebooks(path, count: int) -> list[str]:
    """One repository whose one run executed and scored ``count`` notebooks."""
    notebook_ids = [f"nb{n:03d}" for n in range(count)]
    with Store(path) as store:
        store.upsert_repository(Repository(
            repository_id="repo1", url="https://example.org/repo1",
            accessible=True, notebook_count=count))
        _add_run(store, "run1", "2026-01-01T00:00:00+00:00",
                 ProvisioningStatus.ENVIRONMENT_BUILT)
        for notebook_id in notebook_ids:
            store.upsert_notebook(NotebookDescriptor(
                notebook_id=notebook_id, repository_id="repo1",
                relative_path=f"{notebook_id}.ipynb"))
            _add_scored_execution(store, notebook_id, "run1")
    return notebook_ids


def _classify(tmp_path, store: Store, baseline_rows: list[str]) -> dict:
    baseline = tmp_path / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER + "".join(baseline_rows))
    config = PipelineConfig(baseline_path=baseline,
                            report_dir=tmp_path / "reports")
    assert cmd_classify(config, store) == 0
    return json.loads((tmp_path / "reports" / "classification.json").read_text())


def _classify_reads(tmp_path, monkeypatch, count: int) -> int:
    """Store reads made by classify when ``count`` baseline rows match."""
    notebook_ids = _store_with_notebooks(tmp_path / "store.sqlite3", count)
    reads: list[str] = []
    original = Store._read

    def counting_read(self, sql, params=()):
        reads.append(sql)
        return original(self, sql, params)

    with Store(tmp_path / "store.sqlite3") as store, monkeypatch.context() as patch:
        patch.setattr(Store, "_read", counting_read)
        payload = _classify(tmp_path, store, [
            f"{notebook_id},Success,Success,0,1.0\n" for notebook_id in notebook_ids])
    assert payload["counts"] == {"C_ReproducibilityDrift": count}
    return len(reads)


def test_classify_store_reads_do_not_grow_with_matched_rows(tmp_path, monkeypatch):
    small = tmp_path / "small"
    large = tmp_path / "large"
    small.mkdir()
    large.mkdir()
    assert (_classify_reads(small, monkeypatch, 2)
            == _classify_reads(large, monkeypatch, 20))


def test_classify_and_report_use_only_the_latest_run(tmp_path):
    with Store(tmp_path / "store.sqlite3") as store:
        store.upsert_repository(Repository(
            repository_id="repo1", url="https://example.org/repo1",
            accessible=True, notebook_count=1))
        store.upsert_notebook(NotebookDescriptor(
            notebook_id="nb1", repository_id="repo1", relative_path="nb1.ipynb"))
        # The older run built the environment and scored the notebook; the
        # latest one failed to install the dependencies.
        _add_run(store, "old", "2026-01-01T00:00:00+00:00",
                 ProvisioningStatus.ENVIRONMENT_BUILT)
        _add_scored_execution(store, "nb1", "old")
        _add_run(store, "new", "2026-02-01T00:00:00+00:00",
                 ProvisioningStatus.BUILD_FAILED,
                 "DependencyInstall: ERROR: No matching distribution")

        payload = _classify(tmp_path, store,
                            ["nb1,Fail,Install Dependency Error,-,-\n"])
        # From the old run the notebook would be resolved (class A, rate 100).
        assert payload["counts"] == {"B_PersistentError": 1}
        assert payload["resolution_rate"] == 0.0
        assert payload["containerized_success_rate_by_requirements"] == {
            "with_requirements": None, "without_requirements": None}

        summary = aggregate_corpus(store)
        assert summary.provisioning["BuildFailed"] == 1
        assert summary.provisioning["EnvironmentBuilt"] == 0
        assert summary.executed_notebooks == 0
        assert summary.scored_notebooks == 0
        assert summary.mean_score is None
