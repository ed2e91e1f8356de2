"""Outcome classification over each repository's latest run.

The store is populated directly through the Store API, so these tests need
neither git nor a container runtime.
"""

from __future__ import annotations

import json

import nbrepro.store
from nbrepro.cli import _classification, cmd_classify, cmd_report
from nbrepro.compare import metrics_from_partition
from nbrepro.config import PipelineConfig
from nbrepro.executor import (
    ErrorCategory,
    ExecutionError,
    ExecutionRecord,
    ExecutionStatus,
)
from nbrepro.outcomes import BaselineRecord
from nbrepro.report import CorpusSummary, aggregate_corpus, emit_reports, load_report
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


# ---- the latest-run rule over a mixed store ----------------------------------------

_TIED = "2026-03-01T00:00:00+00:00"


def _mixed_store(store: Store) -> None:
    """Three repositories whose latest runs hide older rows.

    alpha: "alpha-9" started a day earlier; "alpha-1" and "alpha-2" share a
    start time and the greater run_id, "alpha-2", is the latest. beta: the
    same tie, but the latest run is inserted first and has the greater
    invocation id, so a tie broken by insertion or by invocation order picks
    an older run in one of the two repositories. gamma: no run at all.
    Every older run holds a Success row scored 1.0.
    """
    for repo_id, has_req in (("alpha", True), ("beta", False), ("gamma", True)):
        store.upsert_repository(Repository(
            repository_id=repo_id, url=f"https://example.org/{repo_id}",
            accessible=True, has_requirements_file=has_req))
    for notebook_id, repo_id, pattern_cells in (
            ("nbA1", "alpha", 2), ("nbA2", "alpha", 0), ("nbA3", "alpha", 0),
            ("nbB1", "beta", 1), ("nbG1", "gamma", 0)):
        store.upsert_notebook(NotebookDescriptor(
            notebook_id=notebook_id, repository_id=repo_id,
            relative_path=f"{notebook_id}.ipynb", code_cell_count=4,
            nondeterministic_pattern_cells=pattern_cells))

    def run(run_id, repo_id, invocation_id, started_at, status, reason=None):
        store.insert_run(RunRecord(
            run_id=run_id, repository_id=repo_id, invocation_id=invocation_id,
            started_at=started_at, finished_at=started_at,
            provisioning_status=status, status_reason=reason))

    def perfect(notebook_id, run_id):
        store.insert_execution(ExecutionRecord(
            notebook_id=notebook_id, run_id=run_id, status=ExecutionStatus.SUCCESS,
            duration_s=1.0, code_cell_count=4, markdown_code_ratio=0.0,
            errors=(), executed_notebook_path="/tmp/old.ipynb"))
        store.insert_metrics(metrics_from_partition(
            [0, 1, 2, 3], [], [], notebook_id=notebook_id, run_id=run_id))

    built = ProvisioningStatus.ENVIRONMENT_BUILT
    run("alpha-9", "alpha", "inv-0", "2026-02-28T00:00:00+00:00", built)
    perfect("nbA3", "alpha-9")
    run("alpha-1", "alpha", "inv-2", _TIED, built)
    perfect("nbA1", "alpha-1")
    run("alpha-2", "alpha", "inv-1", _TIED, built)
    # Latest alpha rows: nbA1 ran with two errors and scored 0.75, nbA2
    # succeeded but could not be scored, nbA3 was not executed.
    store.insert_execution(ExecutionRecord(
        notebook_id="nbA1", run_id="alpha-2",
        status=ExecutionStatus.ERRORED_BUT_COMPLETED, duration_s=2.0,
        code_cell_count=4, markdown_code_ratio=0.5,
        errors=(ExecutionError("NameError", ErrorCategory.LOGIC, "x", 0),
                ExecutionError("ModuleNotFoundError", ErrorCategory.DEPENDENCY,
                               "no module", 1, count=2)),
        executed_notebook_path="/tmp/nbA1.ipynb"))
    store.insert_metrics(metrics_from_partition(
        [0, 1, 2], [3], [], notebook_id="nbA1", run_id="alpha-2"))
    store.insert_execution(ExecutionRecord(
        notebook_id="nbA2", run_id="alpha-2", status=ExecutionStatus.SUCCESS,
        duration_s=1.0, code_cell_count=4, markdown_code_ratio=0.0,
        errors=(), executed_notebook_path="/tmp/nbA2.ipynb"))
    store.insert_unscored_metrics("nbA2", "alpha-2", total_code_cells=4)

    run("beta-2", "beta", "inv-2", _TIED, ProvisioningStatus.BUILD_FAILED,
        "DependencyInstall: ERROR: No matching distribution")
    run("beta-1", "beta", "inv-1", _TIED, built)
    perfect("nbB1", "beta-1")


_MIXED_BASELINE = [
    BaselineRecord("nbA1", "Success", "Success"),
    BaselineRecord("nbA2", "Success", "Success"),
    BaselineRecord("nbA3", "Success", "ModuleNotFoundError"),
    BaselineRecord("nbB1", "Fail", "Install Dependency Error"),
    BaselineRecord("nbG1", "Success", "Success"),
    BaselineRecord("nbX", "Success", "Success"),
]

# Worked out by hand from _mixed_store and _MIXED_BASELINE.
_MIXED_PAYLOAD = {
    "resolution_rate": 0.0,
    "counts": {"B_PersistentError": 1, "D_Regression": 3, "Unclassified": 1},
    "baseline_success_rate_by_requirements": {
        "with_requirements": 75.0, "without_requirements": 0.0},
    "containerized_success_rate_by_requirements": {
        "with_requirements": 50.0, "without_requirements": None},
    "unmatched_baseline_rows": ["nbX"],
    "assignments": [
        {"notebook_id": "nbA1", "outcome_class": "D_Regression"},
        {"notebook_id": "nbA2", "outcome_class": "Unclassified"},
        {"notebook_id": "nbA3", "outcome_class": "D_Regression"},
        {"notebook_id": "nbB1", "outcome_class": "B_PersistentError"},
        {"notebook_id": "nbG1", "outcome_class": "D_Regression"},
    ],
}

_MIXED_SUMMARY = CorpusSummary(
    total_repositories=3,
    provisioning={"EnvironmentBuilt": 1, "BuildFailed": 1, "KernelNotFound": 0,
                  "NoPythonNotebooks": 0, "InvalidUrl": 0, "Pending": 1},
    repositories_with_requirements=2,
    repositories_without_requirements=1,
    total_notebooks=5,
    executed_notebooks=2,
    zero_error_notebooks=1,
    notebooks_with_errors=1,
    total_error_records=2,
    error_types={"ModuleNotFoundError": 1, "NameError": 1},
    error_categories={"Dependency": 1, "Logic": 1},
    success_rate_by_requirements={"with_requirements": 50.0,
                                  "without_requirements": None},
    mean_score_by_requirements={"with_requirements": 0.75,
                                "without_requirements": None},
    scored_notebooks=2,
    score_categories={"Poor": 0, "Low": 0, "Moderate": 0, "Good": 1, "High": 0,
                      "Perfect": 0, "Unscored": 1},
    mean_score=0.75,
    nondeterministic_notebooks=2,
    nondeterminism_prevalence=0.4,
    outcome_classes={"A_EnvironmentResolved": 0, "B_PersistentError": 0,
                     "C_ReproducibilityDrift": 0, "D_Regression": 0,
                     "Unclassified": 0},
)


def test_latest_run_is_the_greatest_start_time_then_run_id(tmp_path):
    with Store(tmp_path / "store.sqlite3") as store:
        _mixed_store(store)
        assert {repo: run.run_id for repo, run in store.latest_runs().items()} == {
            "alpha": "alpha-2", "beta": "beta-2"}
        payload = _classification(_MIXED_BASELINE, store)
        summary = aggregate_corpus(store)
    del payload["note"]
    assert payload == _MIXED_PAYLOAD
    assert summary == _MIXED_SUMMARY


def test_classify_and_report_decode_no_rows(tmp_path, monkeypatch):
    def refuse(row):
        raise AssertionError("a store row was decoded into a record")

    for name in ("_metrics_from_row", "_execution_from_row", "_notebook_from_row"):
        monkeypatch.setattr(nbrepro.store, name, refuse)
    baseline = tmp_path / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER + "".join(
        f"{b.notebook_id},{b.prev_dependency_install},{b.prev_execution_status},-,-\n"
        for b in _MIXED_BASELINE))
    reports = tmp_path / "reports"
    config = PipelineConfig(baseline_path=baseline, report_dir=reports)
    with Store(tmp_path / "store.sqlite3") as store:
        _mixed_store(store)
        assert cmd_classify(config, store) == 0
        assert cmd_report(config, store) == 0

    payload = json.loads((reports / "classification.json").read_text())
    del payload["note"]
    assert payload == _MIXED_PAYLOAD
    expected = CorpusSummary(**{
        **_MIXED_SUMMARY.to_dict(),
        "classified_notebooks": 5,
        "outcome_classes": {**_MIXED_SUMMARY.outcome_classes,
                            **_MIXED_PAYLOAD["counts"]},
        "resolution_rate": 0.0,
    })
    assert load_report(reports / "report.json") == expected
    stamp = json.loads((reports / "report.json").read_text())["generated_at"]
    emit_reports(expected, tmp_path / "expected", generated_at=stamp)
    for name in ("report.json", "summary.csv", "summary.md"):
        assert ((reports / name).read_bytes()
                == (tmp_path / "expected" / name).read_bytes())
