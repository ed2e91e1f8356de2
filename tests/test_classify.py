"""Outcome classification over each repository's latest run.

The store is populated directly through the Store API, so these tests need
neither git nor a container runtime.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import pytest

import nbrepro.cli
import nbrepro.store
from nbrepro.cli import (
    _classification,
    _current_outcome,
    _render_classification,
    cmd_classify,
    cmd_report,
)
from nbrepro.compare import ScoreCategory, categorize_score, metrics_from_partition
from nbrepro.config import PipelineConfig
from nbrepro.executor import (
    ErrorCategory,
    ExecutionError,
    ExecutionRecord,
    ExecutionStatus,
    classify_error,
)
from nbrepro.outcomes import (
    BaselineRecord,
    CurrentOutcome,
    assign_outcome_class,
    shows_drift,
)
from nbrepro.report import (
    OUTCOME_CLASS_ORDER,
    PROVISIONING_ORDER,
    SCORE_CATEGORY_ORDER,
    CorpusSummary,
    aggregate_corpus,
    emit_reports,
)
from nbrepro.store import (
    NotebookDescriptor,
    ProvisioningStatus,
    Repository,
    RunRecord,
    Store,
)

from conftest import store_rows

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

    # Execution and metrics rows have no decoder; notebook rows are not read.
    monkeypatch.setattr(nbrepro.store, "_notebook_from_row", refuse)
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
    assert json.loads((reports / "report.json").read_text())["summary"] == (
        expected.to_dict())
    stamp = json.loads((reports / "report.json").read_text())["generated_at"]
    emit_reports(expected, tmp_path / "expected", generated_at=stamp)
    for name in ("report.json", "summary.csv", "summary.md"):
        assert ((reports / name).read_bytes()
                == (tmp_path / "expected" / name).read_bytes())


# ---- classification.json rendering --------------------------------------------------

def _payload(assignments, rate=50.0, unmatched=("nbX",)):
    return {
        "note": "a note",
        "resolution_rate": rate,
        "counts": {"D_Regression": len(assignments)} if assignments else {},
        "baseline_success_rate_by_requirements": {
            "with_requirements": rate, "without_requirements": None},
        "containerized_success_rate_by_requirements": {
            "with_requirements": None, "without_requirements": 12.5},
        "unmatched_baseline_rows": list(unmatched),
        "assignments": [{"notebook_id": notebook_id, "outcome_class": cls}
                        for notebook_id, cls in assignments],
    }


@pytest.mark.parametrize("payload", [
    _payload([]),
    _payload([], rate=None, unmatched=()),
    _payload([("nb1", "D_Regression")]),
    _payload([('say "hi"', "A_EnvironmentResolved"),
              ("back\\slash\\", "B_PersistentError"),
              ("caf\u00e9-\u6f22\u5b57-\U0001f600", "Unclassified"),
              ("tab\tnew\nline\x01", "C_ReproducibilityDrift")],
             rate=None, unmatched=()),
    _payload([(f"nb{n}", "D_Regression") for n in range(5)],
             unmatched=('q"uote', "\u00fc")),
], ids=["empty", "empty-none-rates", "one", "escaped-ids", "several"])
def test_rendered_classification_equals_indented_json(payload):
    assert (_render_classification(payload)
            == json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---- one classifier call per (baseline statuses, outcome group) ------------------

_STATUS_PAIRS = [("Success", "Success"), ("Fail", "Install Dependency Error"),
                 ("Fail", "Fail"), ("Fail", "ModuleNotFoundError"),
                 ("Success", "ModuleNotFoundError"),
                 ("Success", "NameError"), ("Sucess", "<Skipping notebook>"),
                 ("Success", "Timeout")]
_BUILT = ProvisioningStatus.ENVIRONMENT_BUILT
_RUN_STATUSES = [_BUILT] * 5 + list(ProvisioningStatus)
_EXECUTION_STATUSES = ([ExecutionStatus.SUCCESS, ExecutionStatus.ERRORED_BUT_COMPLETED] * 3
                       + list(ExecutionStatus))


def _random_store(store: Store, rng: random.Random) -> list[BaselineRecord]:
    """A few repositories whose latest runs, often tied on start time, end
    in every provisioning status and different build-failure phases, with
    executions of every status and up to three errors, scored, unscored
    and uncompared rows, and one baseline row per notebook. Signatures
    repeat within a store under different baseline statuses."""
    baselines = []
    for r in range(rng.randint(1, 4)):
        repo_id = f"repo{r}"
        store.upsert_repository(Repository(
            repository_id=repo_id, url=f"https://example.org/{repo_id}",
            accessible=True, has_requirements_file=rng.random() < 0.5))
        notebook_ids = [f"{repo_id}-nb{n}" for n in range(rng.randint(1, 12))]
        for notebook_id in notebook_ids:
            store.upsert_notebook(NotebookDescriptor(
                notebook_id=notebook_id, repository_id=repo_id,
                relative_path=f"{notebook_id}.ipynb"))
            install, status = rng.choice(_STATUS_PAIRS)
            baselines.append(BaselineRecord(notebook_id, install, status))
        for k in range(rng.randint(0, 3)):
            run_id = f"{repo_id}-run{k}"
            status = rng.choice(_RUN_STATUSES)
            reason = None
            if status is ProvisioningStatus.BUILD_FAILED:
                reason = rng.choice(("DependencyInstall: no matching distribution",
                                     "BaseImage: pull failed", "Other: x", ""))
            store.insert_run(RunRecord(
                run_id=run_id, repository_id=repo_id, invocation_id=run_id,
                started_at=rng.choice(("2026-01-01T00:00:00+00:00",
                                       "2026-01-02T00:00:00+00:00")),
                provisioning_status=status, status_reason=reason))
            for notebook_id in notebook_ids:
                if rng.random() < 0.1:
                    continue
                execution = rng.choice(_EXECUTION_STATUSES)
                errors = ()
                if execution is not ExecutionStatus.SUCCESS:
                    types = [rng.choice(("NameError", "ModuleNotFoundError"))
                             for _ in range(rng.randint(0, 3))]
                    errors = tuple(
                        ExecutionError(error_type, classify_error(error_type),
                                       f"{error_type} in {notebook_id}", n)
                        for n, error_type in enumerate(types))
                store.insert_execution(ExecutionRecord(
                    notebook_id=notebook_id, run_id=run_id, status=execution,
                    duration_s=1.0, code_cell_count=4, markdown_code_ratio=0.0,
                    errors=errors, executed_notebook_path="/tmp/out.ipynb"))
                roll = rng.random()
                if roll < 0.2:
                    store.insert_unscored_metrics(notebook_id, run_id, 4)
                elif roll < 0.8:
                    cut = rng.choice((1, 4))
                    pattern = rng.randint(cut, 4)
                    store.insert_metrics(metrics_from_partition(
                        range(cut), range(cut, pattern), range(pattern, 4),
                        notebook_id=notebook_id, run_id=run_id))
    baselines.append(BaselineRecord("ghost", "Success", "Success"))
    rng.shuffle(baselines)
    return baselines


def _latest_rows(store: Store) -> tuple[dict, dict, dict]:
    """The latest run row of each repository, picked in Python, and every
    execution and metrics row, keyed by (notebook_id, run_id)."""
    latest: dict[str, dict] = {}
    for run in store_rows(store, "repository_runs"):
        best = latest.get(run["repository_id"])
        if best is None or ((run["started_at"], run["run_id"])
                            > (best["started_at"], best["run_id"])):
            latest[run["repository_id"]] = run
    executions = {(e["notebook_id"], e["run_id"]): e
                  for e in store_rows(store, "notebook_executions")}
    metrics = {(m["notebook_id"], m["run_id"]): m
               for m in store_rows(store, "reproducibility_metrics")}
    return latest, executions, metrics


def test_memoised_classification_equals_per_row_classification():
    rng = random.Random(7)
    for _ in range(200):
        with Store() as store:
            baselines = _random_store(store, rng)
            payload = _classification(baselines, store)
            currents = {notebook_id: _current_outcome(group)
                        for group in store.latest_outcomes()
                        for notebook_id in group.notebook_ids}
        per_row = [
            {"notebook_id": b.notebook_id,
             "outcome_class": assign_outcome_class(b, currents[b.notebook_id]).value}
            for b in baselines if b.notebook_id in currents]
        assert payload["assignments"] == per_row
        counts: dict[str, int] = {}
        for assignment in per_row:
            counts[assignment["outcome_class"]] = (
                counts.get(assignment["outcome_class"], 0) + 1)
        assert payload["counts"] == dict(sorted(counts.items()))


def test_each_signature_equals_one_built_from_decoded_rows():
    rng = random.Random(13)
    for _ in range(200):
        with Store() as store:
            _random_store(store, rng)
            groups = store.latest_outcomes()
            latest, executions, metrics = _latest_rows(store)
            repositories = {nb["notebook_id"]: nb["repository_id"]
                            for nb in store_rows(store, "notebooks")}
            requirements = {repo.repository_id: repo.has_requirements_file
                            for repo in store.list_repositories()}
        grouped = [notebook_id for group in groups for notebook_id in group.notebook_ids]
        assert sorted(grouped) == sorted(repositories)
        for group in groups:
            for notebook_id in group.notebook_ids:
                repository_id = repositories[notebook_id]
                assert group.has_requirements_file == requirements[repository_id]
                run = latest.get(repository_id)
                expected = CurrentOutcome(ProvisioningStatus.PENDING)
                if run is not None:
                    key = (notebook_id, run["run_id"])
                    execution = executions.get(key)
                    metric = metrics.get(key)
                    status = ProvisioningStatus(run["provisioning_status"])
                    phase = None
                    if status is ProvisioningStatus.BUILD_FAILED and run["status_reason"]:
                        phase = run["status_reason"].split(":", 1)[0].strip()
                    expected = CurrentOutcome(
                        status, phase,
                        ExecutionStatus(execution["status"]) if execution else None,
                        frozenset(e["error_type"] for e in json.loads(execution["errors"]))
                        if execution else frozenset(),
                        metric is not None and not metric["structural_mismatch"]
                        and shows_drift(metric["different_count"],
                                        metric["nondeterministic_count"],
                                        metric["score"]))
                assert _current_outcome(group) == expected


def _forty_notebook_store(store: Store) -> list[BaselineRecord]:
    """Three signatures: 20 drifted successes of five different scores, 10
    perfect successes, and 10 completed runs with two NameErrors each, whose
    messages differ from notebook to notebook; one baseline row each."""
    store.upsert_repository(Repository(
        repository_id="repo1", url="https://example.org/repo1",
        accessible=True, notebook_count=40))
    _add_run(store, "run1", "2026-01-01T00:00:00+00:00",
             ProvisioningStatus.ENVIRONMENT_BUILT)
    for n in range(40):
        notebook_id = f"nb{n:03d}"
        store.upsert_notebook(NotebookDescriptor(
            notebook_id=notebook_id, repository_id="repo1",
            relative_path=f"{notebook_id}.ipynb"))
        if n < 20:
            cells = 2 + n % 5
            store.insert_execution(ExecutionRecord(
                notebook_id=notebook_id, run_id="run1", status=ExecutionStatus.SUCCESS,
                duration_s=1.0, code_cell_count=cells, markdown_code_ratio=0.0,
                errors=(), executed_notebook_path=f"/tmp/{notebook_id}.ipynb"))
            store.insert_metrics(metrics_from_partition(
                [0], range(1, cells), [], notebook_id=notebook_id, run_id="run1"))
            continue
        errors = () if n < 30 else tuple(
            ExecutionError("NameError", ErrorCategory.LOGIC,
                           f"name 'x{n}_{c}' is not defined", c)
            for c in range(2))
        store.insert_execution(ExecutionRecord(
            notebook_id=notebook_id, run_id="run1",
            status=(ExecutionStatus.ERRORED_BUT_COMPLETED if errors
                    else ExecutionStatus.SUCCESS),
            duration_s=float(n), code_cell_count=2, markdown_code_ratio=0.0,
            errors=errors, executed_notebook_path=f"/tmp/{notebook_id}.ipynb"))
        if not errors:
            store.insert_metrics(metrics_from_partition(
                [0, 1], [], [], notebook_id=notebook_id, run_id="run1"))
    return [BaselineRecord(f"nb{n:03d}", "Success", "Success") for n in range(40)]


def test_classify_calls_the_classifier_once_per_statuses_and_group(monkeypatch):
    calls = []

    def counting(baseline, current):
        calls.append((baseline.prev_dependency_install,
                      baseline.prev_execution_status, current))
        return assign_outcome_class(baseline, current)

    monkeypatch.setattr(nbrepro.cli, "assign_outcome_class", counting)
    with Store() as store:
        # Even notebooks failed on dependency install in the baseline, so
        # every outcome group holds rows of both status pairs.
        baselines = [
            b._replace(prev_dependency_install="Fail",
                       prev_execution_status="Install Dependency Error")
            if n % 2 == 0 else b
            for n, b in enumerate(_forty_notebook_store(store))]
        payload = _classification(baselines, store)
        groups = store.latest_outcomes()

    # Five drifted scores, one perfect score, and one error list: the ten
    # NameError messages differ but their types do not. The five drifted
    # groups share one signature, yet each is classified per status pair.
    assert len(groups) == 7
    assert len(calls) == 2 * len(groups)
    assert len({(install, status) for install, status, _ in calls}) == 2
    assert len({current for _, _, current in calls}) == 3
    assert payload["counts"] == {"A_EnvironmentResolved": 20,
                                 "C_ReproducibilityDrift": 10,
                                 "D_Regression": 5, "Unclassified": 5}


def test_report_groups_notebooks_whose_error_messages_differ():
    with Store() as store:
        _forty_notebook_store(store)
        groups = store.latest_outcomes()
        summary = aggregate_corpus(store)

    # Five drifted scores, one perfect score, one error list; the ten
    # NameError messages differ but their (type, category) pairs do not.
    assert len(groups) == 7
    assert sum(len(group.notebook_ids) for group in groups) == 40
    (errored,) = [group for group in groups if group.execution_status
                  == ExecutionStatus.ERRORED_BUT_COMPLETED.value]
    assert len(errored.notebook_ids) == 10
    assert json.loads(errored.error_pairs) == [["NameError", "Logic"]] * 2
    assert summary.error_types == {"NameError": 20}
    assert summary.error_categories == {"Logic": 20}


# ---- report folds distinct outcomes, weighted by their notebooks ------------------

def _reference_summary(store: Store) -> CorpusSummary:
    """The corpus summary folded one notebook at a time from the rows, with
    the latest run of each repository picked in Python."""
    latest, executions, metrics = _latest_rows(store)
    repositories = {repo.repository_id: repo for repo in store.list_repositories()}

    provisioning = {key: 0 for key in PROVISIONING_ORDER}
    for repo_id in repositories:
        run = latest.get(repo_id)
        provisioning[run["provisioning_status"] if run
                     else ProvisioningStatus.PENDING.value] += 1
    executed = zero_errors = records = scored = flagged = 0
    error_types: dict[str, int] = {}
    error_categories: dict[str, int] = {}
    runs = {True: [0, 0], False: [0, 0]}
    categories = {key: 0 for key in SCORE_CATEGORY_ORDER}
    scores: list[float] = []
    by_stratum: dict[bool, list[float]] = {True: [], False: []}
    notebooks = store_rows(store, "notebooks")
    for nb in notebooks:
        has_requirements = repositories[nb["repository_id"]].has_requirements_file
        flagged += (nb["nondeterministic_pattern_cells"] or 0) > 0
        run = latest.get(nb["repository_id"])
        key = (nb["notebook_id"], run["run_id"] if run else None)
        execution = executions.get(key)
        if execution is not None:
            errors = json.loads(execution["errors"])
            executed += 1
            zero_errors += not errors
            for error in errors:
                records += 1
                error_types[error["error_type"]] = error_types.get(error["error_type"], 0) + 1
                category = error["category"]
                error_categories[category] = error_categories.get(category, 0) + 1
            runs[has_requirements][0] += 1
            runs[has_requirements][1] += execution["status"] == ExecutionStatus.SUCCESS.value
        if key in metrics:
            row = metrics[key]
            mismatch = row["structural_mismatch"]
            scored += 1
            categories[(ScoreCategory.UNSCORED if mismatch
                        else categorize_score(row["score"])).value] += 1
            if not mismatch and row["score"] is not None:
                scores.append(row["score"])
                by_stratum[has_requirements].append(row["score"])

    def mean(values):
        return math.fsum(values) / len(values) if values else None

    def rate(stratum):
        total, hits = runs[stratum]
        return 100.0 * hits / total if total else None

    with_requirements = sum(repo.has_requirements_file for repo in repositories.values())
    return CorpusSummary(
        total_repositories=len(repositories), provisioning=provisioning,
        repositories_with_requirements=with_requirements,
        repositories_without_requirements=len(repositories) - with_requirements,
        total_notebooks=len(notebooks), executed_notebooks=executed,
        zero_error_notebooks=zero_errors, notebooks_with_errors=executed - zero_errors,
        total_error_records=records, error_types=dict(sorted(error_types.items())),
        error_categories=dict(sorted(error_categories.items())),
        success_rate_by_requirements={"with_requirements": rate(True),
                                      "without_requirements": rate(False)},
        mean_score_by_requirements={"with_requirements": mean(by_stratum[True]),
                                    "without_requirements": mean(by_stratum[False])},
        scored_notebooks=scored, score_categories=categories, mean_score=mean(scores),
        nondeterministic_notebooks=flagged,
        nondeterminism_prevalence=flagged / len(notebooks) if notebooks else 0.0,
        outcome_classes={key: 0 for key in OUTCOME_CLASS_ORDER})


def _random_report_store(store: Store, rng: random.Random) -> None:
    """``_random_store`` with NULL, zero and positive pattern counts, plus a
    repository whose tied and superseded runs score notebooks of up to nine
    cells, so that the scores' sum depends on how it is rounded."""
    _random_store(store, rng)
    for repo in store.list_repositories():
        for nb in store.list_notebooks(repo.repository_id):
            store.upsert_notebook(replace(
                nb, nondeterministic_pattern_cells=rng.choice((None, 0, 1, 3))))
    store.upsert_repository(Repository(
        repository_id="varied", url="https://example.org/varied",
        accessible=True, has_requirements_file=rng.random() < 0.5))
    notebook_ids = [f"varied-nb{n}" for n in range(rng.randint(0, 8))]
    for notebook_id in notebook_ids:
        store.upsert_notebook(NotebookDescriptor(
            notebook_id=notebook_id, repository_id="varied",
            relative_path=f"{notebook_id}.ipynb",
            nondeterministic_pattern_cells=rng.choice((None, 0, 2))))
    for k in range(rng.randint(1, 3)):
        run_id = f"varied-run{k}"
        store.insert_run(RunRecord(
            run_id=run_id, repository_id="varied", invocation_id=run_id,
            started_at=rng.choice(("2026-01-01T00:00:00+00:00",
                                   "2026-01-02T00:00:00+00:00")),
            provisioning_status=_BUILT))
        for notebook_id in notebook_ids:
            total = rng.randint(1, 9)
            store.insert_execution(ExecutionRecord(
                notebook_id=notebook_id, run_id=run_id, status=ExecutionStatus.SUCCESS,
                duration_s=1.0, code_cell_count=total, markdown_code_ratio=0.0,
                errors=(), executed_notebook_path="/tmp/out.ipynb"))
            same, drift = sorted(rng.randint(0, total) for _ in range(2))
            store.insert_metrics(metrics_from_partition(
                range(same), range(same, drift), range(drift, total),
                notebook_id=notebook_id, run_id=run_id))


def test_aggregate_corpus_equals_a_per_notebook_fold(tmp_path):
    rng = random.Random(11)
    stamp = "2026-01-01T00:00:00+00:00"
    for n in range(200):
        with Store() as store:
            _random_report_store(store, rng)
            summary = aggregate_corpus(store)
            reference = _reference_summary(store)
        assert summary == reference
        for side, value in (("grouped", summary), ("reference", reference)):
            emit_reports(value, tmp_path / side / str(n), generated_at=stamp)
        for name in ("report.json", "summary.csv", "summary.md"):
            assert ((tmp_path / "grouped" / str(n) / name).read_bytes()
                    == (tmp_path / "reference" / str(n) / name).read_bytes())
