"""Corpus aggregation, sum invariants, and deterministic report emission."""

from __future__ import annotations

import json
import math
import random
import threading
from itertools import chain, repeat

import pytest

from nbrepro.cli import main
from nbrepro.compare import metrics_from_partition, unscored_metrics
from nbrepro.executor import (
    ErrorCategory,
    ExecutionError,
    ExecutionRecord,
    ExecutionStatus,
)
from nbrepro.outcomes import BaselineRecord
from nbrepro.report import (
    REPORT_SCHEMA_VERSION,
    CorpusSummary,
    _mean,
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

from test_classify import _BASELINE_HEADER, _mixed_store
from test_store import _add_edge_repositories, _populate

_ERROR_TYPES = ["ModuleNotFoundError", "FileNotFoundError", "ImportError",
                "SyntaxError", "NameError", "ValueError", "TypeError"]
_CATEGORY = {
    "ModuleNotFoundError": ErrorCategory.DEPENDENCY,
    "ImportError": ErrorCategory.DEPENDENCY,
    "FileNotFoundError": ErrorCategory.DATA,
    "SyntaxError": ErrorCategory.CODE,
    "TypeError": ErrorCategory.CODE,
    "NameError": ErrorCategory.LOGIC,
    "ValueError": ErrorCategory.LOGIC,
}


def populate_random_store(store: Store, rng: random.Random) -> None:
    """Random but referentially intact corpus state."""
    for r in range(rng.randint(0, 6)):
        repo_id = f"repo{r}"
        store.upsert_repository(Repository(
            repository_id=repo_id, url=f"https://example.org/{repo_id}",
            accessible=True, has_requirements_file=rng.random() < 0.5,
            local_path=f"/tmp/{repo_id}"))
        status = rng.choice(list(ProvisioningStatus))
        run_id = f"run-{repo_id}"
        store.insert_run(RunRecord(
            run_id=run_id, repository_id=repo_id, invocation_id="inv",
            started_at="2026-08-08T00:00:00+00:00",
            provisioning_status=status))
        for n in range(rng.randint(0, 5)):
            nb_id = f"{repo_id}-nb{n}"
            total = rng.randint(0, 8)
            store.upsert_notebook(NotebookDescriptor(
                notebook_id=nb_id, repository_id=repo_id,
                relative_path=f"nb{n}.ipynb", kernel_name="python3",
                nbformat_version=(4, 5), code_cell_count=total,
                markdown_cell_count=rng.randint(0, 4),
                nondeterministic_pattern_cells=rng.randint(0, 2)))
            if status is not ProvisioningStatus.ENVIRONMENT_BUILT:
                continue
            errors = tuple(
                ExecutionError(error_type=t, category=_CATEGORY[t], message="m",
                               cell_index=i, count=rng.randint(1, 3))
                for i, t in enumerate(rng.sample(_ERROR_TYPES,
                                                 rng.randint(0, 3))))
            exec_status = (ExecutionStatus.SUCCESS if not errors
                           else ExecutionStatus.ERRORED_BUT_COMPLETED)
            store.insert_execution(ExecutionRecord(
                notebook_id=nb_id, run_id=run_id, status=exec_status,
                duration_s=rng.random() * 10, code_cell_count=total,
                markdown_code_ratio=None, errors=errors,
                executed_notebook_path="/tmp/out.ipynb"))
            if rng.random() < 0.2:
                store.insert_metrics(unscored_metrics(
                    total, notebook_id=nb_id, run_id=run_id))
            else:
                indices = list(range(total))
                rng.shuffle(indices)
                a = rng.randint(0, total)
                b = rng.randint(a, total)
                store.insert_metrics(metrics_from_partition(
                    indices[:a], indices[a:b], indices[b:],
                    notebook_id=nb_id, run_id=run_id))


def assert_sum_invariants(summary: CorpusSummary) -> None:
    assert sum(summary.provisioning.values()) == summary.total_repositories
    assert (summary.repositories_with_requirements
            + summary.repositories_without_requirements) == summary.total_repositories
    assert (summary.zero_error_notebooks
            + summary.notebooks_with_errors) == summary.executed_notebooks
    assert sum(summary.error_types.values()) == summary.total_error_records
    assert sum(summary.error_categories.values()) == summary.total_error_records
    assert sum(summary.score_categories.values()) == summary.scored_notebooks
    assert sum(summary.outcome_classes.values()) == summary.classified_notebooks
    assert 0.0 <= summary.nondeterminism_prevalence <= 1.0


def test_empty_store_yields_zeroed_summary():
    with Store(":memory:") as store:
        summary = aggregate_corpus(store)
    assert summary.total_repositories == 0
    assert summary.total_notebooks == 0
    assert summary.nondeterminism_prevalence == 0.0
    assert_sum_invariants(summary)


def test_provisioning_breakdown_sums(tmp_path):
    with Store(":memory:") as store:
        rng = random.Random(5)
        populate_random_store(store, rng)
        summary = aggregate_corpus(store)
        assert_sum_invariants(summary)


def test_sum_invariants_over_randomized_stores():
    rng = random.Random(20260808)
    for _ in range(120):
        with Store(":memory:") as store:
            populate_random_store(store, rng)
            assert_sum_invariants(aggregate_corpus(store))


def test_hand_counted_zero_error_split():
    with Store(":memory:") as store:
        store.upsert_repository(Repository(repository_id="r", url="u",
                                           accessible=True))
        store.insert_run(RunRecord(
            run_id="run", repository_id="r", invocation_id="i",
            started_at="2026-08-08T00:00:00+00:00",
            provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT))
        for n in range(4):
            store.upsert_notebook(NotebookDescriptor(
                notebook_id=f"nb{n}", repository_id="r",
                relative_path=f"nb{n}.ipynb", code_cell_count=1,
                markdown_cell_count=0, nondeterministic_pattern_cells=0))
            errors = () if n == 0 else (ExecutionError(
                "NameError", ErrorCategory.LOGIC, "m", 0),)
            store.insert_execution(ExecutionRecord(
                notebook_id=f"nb{n}", run_id="run",
                status=(ExecutionStatus.SUCCESS if not errors
                        else ExecutionStatus.ERRORED_BUT_COMPLETED),
                duration_s=1.0, code_cell_count=1, markdown_code_ratio=0.0,
                errors=errors, executed_notebook_path="/tmp/x.ipynb"))
        summary = aggregate_corpus(store)
    assert summary.zero_error_notebooks == 1
    assert summary.notebooks_with_errors == 3
    assert summary.error_types == {"NameError": 3}


def _stratified_store(store: Store) -> None:
    for repo_id, has_req in (("with", True), ("without", False)):
        store.upsert_repository(Repository(
            repository_id=repo_id, url=f"u/{repo_id}", accessible=True,
            has_requirements_file=has_req))
        store.insert_run(RunRecord(
            run_id=f"run-{repo_id}", repository_id=repo_id, invocation_id="i",
            started_at="2026-08-08T00:00:00+00:00",
            provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT))
    for n, (repo_id, ok) in enumerate([("with", True), ("with", True),
                                       ("without", True), ("without", False)]):
        store.upsert_notebook(NotebookDescriptor(
            notebook_id=f"nb{n}", repository_id=repo_id,
            relative_path=f"nb{n}.ipynb", code_cell_count=2,
            markdown_cell_count=0,
            nondeterministic_pattern_cells=1 if n == 0 else 0))
        errors = () if ok else (ExecutionError("ValueError",
                                               ErrorCategory.LOGIC, "m", 0),)
        store.insert_execution(ExecutionRecord(
            notebook_id=f"nb{n}", run_id=f"run-{repo_id}",
            status=(ExecutionStatus.SUCCESS if ok
                    else ExecutionStatus.ERRORED_BUT_COMPLETED),
            duration_s=1.0, code_cell_count=2, markdown_code_ratio=0.0,
            errors=errors, executed_notebook_path="/tmp/x.ipynb"))


def _success_rates(store: Store) -> dict[str, float | None]:
    return aggregate_corpus(store).success_rate_by_requirements


def test_success_rate_by_requirements_strata():
    with Store(":memory:") as store:
        _stratified_store(store)
        rates = _success_rates(store)
    assert rates["with_requirements"] == 100.0
    assert rates["without_requirements"] == 50.0


def test_success_rate_empty_stratum_undefined():
    with Store(":memory:") as store:
        rates = _success_rates(store)
    assert rates == {"with_requirements": None, "without_requirements": None}


def test_nondeterminism_prevalence():
    with Store(":memory:") as store:
        _stratified_store(store)
        assert aggregate_corpus(store).nondeterminism_prevalence == 0.25
    with Store(":memory:") as store:
        assert aggregate_corpus(store).nondeterminism_prevalence == 0.0


# ---- emission -----------------------------------------------------------------------

def test_report_json_round_trips(tmp_path):
    with Store(":memory:") as store:
        _stratified_store(store)
        summary = aggregate_corpus(store)
    emit_reports(summary, tmp_path, generated_at="2026-08-08T00:00:00+00:00")
    document = json.loads((tmp_path / "report.json").read_text())
    assert document["schema_version"] == REPORT_SCHEMA_VERSION
    assert document["summary"] == summary.to_dict()


def test_reports_deterministic_except_timestamp(tmp_path):
    with Store(":memory:") as store:
        _stratified_store(store)
        summary = aggregate_corpus(store)
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    emit_reports(summary, first_dir, generated_at="2026-08-08T00:00:00+00:00")
    emit_reports(summary, second_dir, generated_at="2026-08-09T11:11:11+00:00")
    assert ((first_dir / "summary.csv").read_bytes()
            == (second_dir / "summary.csv").read_bytes())
    first_json = json.loads((first_dir / "report.json").read_text())
    second_json = json.loads((second_dir / "report.json").read_text())
    assert first_json["generated_at"] != second_json["generated_at"]
    del first_json["generated_at"], second_json["generated_at"]
    assert first_json == second_json


def _scored_store(store: Store, run_ids: list[str]) -> None:
    """Three repositories scoring 0.1, 0.2 and 0.3 under the given run ids."""
    for n, run_id in enumerate(run_ids, start=1):
        repo_id, nb_id = f"repo{n}", f"nb{n}"
        store.upsert_repository(Repository(
            repository_id=repo_id, url=f"u/{repo_id}", accessible=True,
            has_requirements_file=True))
        store.insert_run(RunRecord(
            run_id=run_id, repository_id=repo_id, invocation_id="i",
            started_at="2026-08-08T00:00:00+00:00",
            provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT))
        store.upsert_notebook(NotebookDescriptor(
            notebook_id=nb_id, repository_id=repo_id,
            relative_path=f"{nb_id}.ipynb", code_cell_count=10))
        store.insert_execution(ExecutionRecord(
            notebook_id=nb_id, run_id=run_id, status=ExecutionStatus.SUCCESS,
            duration_s=1.0, code_cell_count=10, markdown_code_ratio=0.0,
            errors=(), executed_notebook_path="/tmp/x.ipynb"))
        store.insert_metrics(metrics_from_partition(
            range(n), range(n, 10), (), notebook_id=nb_id, run_id=run_id))


def test_report_bytes_independent_of_run_id_order(tmp_path):
    # Scores are summed in run-id order; 0.1 + 0.2 + 0.3 rounds differently
    # forwards and backwards, so only an exact sum gives one set of bytes.
    outputs = []
    for label, run_ids in (("up", ["run-a", "run-b", "run-c"]),
                           ("down", ["run-c", "run-b", "run-a"])):
        with Store(":memory:") as store:
            _scored_store(store, run_ids)
            summary = aggregate_corpus(store)
        emit_reports(summary, tmp_path / label,
                     generated_at="2026-08-08T00:00:00+00:00")
        outputs.append([(tmp_path / label / name).read_bytes()
                        for name in ("report.json", "summary.csv")])
    assert outputs[0] == outputs[1]


def _two_built_repositories(store: Store) -> None:
    """Two built repositories of three executed, scored notebooks each."""
    for repo_id in ("r1", "r2"):
        run_id = f"run-{repo_id}"
        store.upsert_repository(Repository(
            repository_id=repo_id, url=f"u/{repo_id}", accessible=True))
        store.insert_run(RunRecord(
            run_id=run_id, repository_id=repo_id, invocation_id="i",
            started_at="2026-08-08T00:00:00+00:00",
            provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT))
        for n in range(3):
            nb_id = f"{repo_id}-nb{n}"
            store.upsert_notebook(NotebookDescriptor(
                notebook_id=nb_id, repository_id=repo_id,
                relative_path=f"nb{n}.ipynb", code_cell_count=2))
            store.insert_execution(ExecutionRecord(
                notebook_id=nb_id, run_id=run_id, status=ExecutionStatus.SUCCESS,
                duration_s=1.0, code_cell_count=2, markdown_code_ratio=0.0,
                errors=(), executed_notebook_path="/tmp/x.ipynb"))
            store.insert_metrics(metrics_from_partition(
                [0, 1], [], [], notebook_id=nb_id, run_id=run_id))


def test_report_reads_one_state_of_the_store(tmp_path, monkeypatch):
    """Another connection starts r1's next run between two of the report's
    reads; the report shows the store before that write or after it."""
    store_path = tmp_path / "store.sqlite3"
    with Store(store_path) as store:
        _two_built_repositories(store)

    def report() -> dict:
        assert main(["report", "--store", str(store_path), "--logdir",
                     str(tmp_path / "logs"), "--report-dir", str(tmp_path / "reports")]) == 0
        return json.loads((tmp_path / "reports" / "report.json").read_text())["summary"]

    def start_next_run():
        with Store(store_path) as other:
            other.insert_run(RunRecord(
                run_id="run-r1-next", repository_id="r1", invocation_id="j",
                started_at="2026-08-09T00:00:00+00:00"))

    before = report()
    writers: list[threading.Thread] = []
    latest_runs = Store.latest_runs

    def racing_latest_runs(store):
        runs = latest_runs(store)
        if not writers:
            writers.append(threading.Thread(target=start_next_run))
            writers[0].start()
            writers[0].join(timeout=1)
        return runs

    monkeypatch.setattr(Store, "latest_runs", racing_latest_runs)
    raced = report()
    writers[0].join(timeout=10)
    assert not writers[0].is_alive()
    after = report()
    assert (before["executed_notebooks"], after["executed_notebooks"]) == (6, 3)
    assert raced in (before, after)


def test_empty_store_reports_valid(tmp_path):
    with Store(":memory:") as store:
        summary = aggregate_corpus(store)
    paths = emit_reports(summary, tmp_path)
    assert all(p.exists() for p in paths)
    document = json.loads((tmp_path / "report.json").read_text())
    assert document["summary"] == summary.to_dict()
    csv_text = (tmp_path / "summary.csv").read_text()
    assert csv_text.startswith("section,metric,value\n")
    assert "repositories,total,0" in csv_text


def test_unwritable_target_raises(tmp_path):
    with Store(":memory:") as store:
        summary = aggregate_corpus(store)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError):
        emit_reports(summary, blocker)


def test_classification_counts_included():
    with Store(":memory:") as store:
        store.record_classification({"A_EnvironmentResolved": 3,
                                     "B_PersistentError": 1}, 75.0, [])
        summary = aggregate_corpus(store)
    assert summary.outcome_classes["A_EnvironmentResolved"] == 3
    assert summary.classified_notebooks == 4
    assert summary.resolution_rate == 75.0
    assert_sum_invariants(summary)


def test_fsum_over_grouped_scores_equals_fsum_over_the_flat_list():
    rng = random.Random(9)
    for _ in range(300):
        groups = [(rng.choice((rng.random(), 0.1, 1 / 3, 0.7, 1.0)), rng.randint(1, 40))
                  for _ in range(rng.randint(1, 25))]
        flat = [score for score, count in groups for _ in range(count)]
        rng.shuffle(flat)
        grouped = chain.from_iterable(repeat(score, count) for score, count in groups)
        assert math.fsum(grouped) == math.fsum(flat)
        assert _mean(groups) == math.fsum(flat) / len(flat)
    assert _mean([]) is None


# ---- the groups classify stored stand in for the latest-run read -------------------

_STAMP = "2026-08-08T00:00:00+00:00"
_REPORTS = ("report.json", "summary.csv", "summary.md")


def _write_baseline(path, baselines: list[BaselineRecord]) -> None:
    path.write_text(_BASELINE_HEADER + "".join(
        f"{b.notebook_id},{b.prev_dependency_install},{b.prev_execution_status},-,-\n"
        for b in baselines))


def _cli(store_path, tmp_path, command: str, *flags: str) -> None:
    assert main([command, "--store", str(store_path), "--logdir", str(tmp_path / "logs"),
                 "--report-dir", str(tmp_path / "reports"), *flags]) == 0


def _count_latest_reads(monkeypatch) -> list[int]:
    reads: list[int] = []
    read = Store.latest_outcomes
    monkeypatch.setattr(Store, "latest_outcomes",
                        lambda self: reads.append(1) or read(self))
    return reads


def _pending_repository(store: Store) -> None:
    store.upsert_repository(Repository(
        repository_id="pending", url="u/pending", accessible=True))
    store.upsert_notebook(NotebookDescriptor(
        notebook_id="pending-nb", repository_id="pending", relative_path="nb.ipynb"))
    store.insert_run(RunRecord(run_id="run-pending", repository_id="pending",
                               invocation_id="i", started_at=_STAMP))


def _every_case(store: Store) -> None:
    _mixed_store(store)
    _pending_repository(store)
    _add_edge_repositories(store, random.Random(3))


# Each case's notebooks all have a baseline row; one more row matches none.
# "mixed" holds a BuildFailed run, a repository with no run, error pairs and
# a structural mismatch; "kernel-not-found" a KernelNotFound latest run with
# an unexecuted, an unscored and a scored notebook.
_CASES = {
    "empty": lambda store: None,
    "pending": _pending_repository,
    "mixed": _mixed_store,
    "kernel-not-found": lambda store: _add_edge_repositories(store, random.Random(3)),
    "all": _every_case,
}


@pytest.mark.parametrize("case", list(_CASES))
def test_report_after_classify_equals_the_live_fold(tmp_path, monkeypatch, case):
    monkeypatch.setattr("nbrepro.report.utc_now_iso", lambda: _STAMP)
    store_path, baseline = tmp_path / "store.sqlite3", tmp_path / "baseline.csv"
    pairs = [("Success", "Success"), ("Fail", "Install Dependency Error"),
             ("Success", "ModuleNotFoundError")]
    with Store(store_path) as store:
        _CASES[case](store)
        notebook_ids = [nb.notebook_id for repo in store.list_repositories()
                        for nb in store.list_notebooks(repo.repository_id)]
    _write_baseline(baseline, [BaselineRecord(notebook_id, *pairs[n % len(pairs)])
                               for n, notebook_id in enumerate(notebook_ids + ["ghost"])])
    _cli(store_path, tmp_path, "classify", "--baseline", str(baseline))
    assert json.loads((tmp_path / "reports" / "classification.json").read_text())[
        "unmatched_baseline_rows"] == ["ghost"]
    reads = _count_latest_reads(monkeypatch)
    _cli(store_path, tmp_path, "report")
    # An empty corpus has no groups to store, so its report reads the runs.
    assert len(reads) == (0 if notebook_ids else 1)

    with Store(store_path) as store, store.transaction():
        classification = store.classification()
        assert len(classification.outcomes) == len(store.latest_outcomes())
        live = aggregate_corpus(store, classification._replace(outcomes=[]))
    assert live.classified_notebooks == len(notebook_ids)
    emit_reports(live, tmp_path / "live", generated_at=_STAMP)
    for name in _REPORTS:
        assert ((tmp_path / "reports" / name).read_bytes()
                == (tmp_path / "live" / name).read_bytes()), name


def test_report_after_classify_makes_no_latest_run_read(tmp_path, monkeypatch):
    store_path, baseline = tmp_path / "store.sqlite3", tmp_path / "baseline.csv"
    with Store(store_path) as store:
        _every_case(store)
    _write_baseline(baseline, [BaselineRecord("nbA1", "Fail", "Install Dependency Error")])
    _cli(store_path, tmp_path, "classify", "--baseline", str(baseline))

    def refuse(self):
        raise AssertionError("report read the latest runs again")

    monkeypatch.setattr(Store, "latest_outcomes", refuse)
    _cli(store_path, tmp_path, "report")
    summary = json.loads((tmp_path / "reports" / "report.json").read_text())["summary"]
    assert (summary["total_notebooks"], summary["classified_notebooks"]) == (10, 1)


def _new_notebook(store: Store) -> None:
    store.upsert_notebook(NotebookDescriptor(
        notebook_id="r1-nb9", repository_id="r1", relative_path="nb9.ipynb"))


def _next_run(store: Store) -> None:
    store.insert_run(RunRecord(run_id="run-r1-next", repository_id="r1",
                               invocation_id="j", started_at="2026-08-09T00:00:00+00:00"))


# One write through the Store API per table, or two, and the field it moves.
_WRITES = {
    "repository": (lambda store: store.upsert_repository(Repository(
        repository_id="r1", url="u/r1", accessible=True, has_requirements_file=True)),
        "repositories_with_requirements", 0, 1),
    "notebook": (_new_notebook, "total_notebooks", 6, 7),
    "run": (_next_run, "executed_notebooks", 6, 3),
    "executions-and-metrics": (lambda store: store.delete_run_results(
        store.get_run("run-r2")), "scored_notebooks", 6, 3),
}


@pytest.mark.parametrize("write", list(_WRITES))
def test_report_after_a_write_reads_the_runs_again(tmp_path, monkeypatch, write):
    store_path, baseline = tmp_path / "store.sqlite3", tmp_path / "baseline.csv"
    with Store(store_path) as store:
        _two_built_repositories(store)
    _write_baseline(baseline, [BaselineRecord("r1-nb0", "Success", "Success")])
    _cli(store_path, tmp_path, "classify", "--baseline", str(baseline))
    change, field_name, before, after = _WRITES[write]
    with Store(store_path) as store:
        assert getattr(aggregate_corpus(store, None), field_name) == before
        change(store)
        live = aggregate_corpus(store, None)
    reads = _count_latest_reads(monkeypatch)
    _cli(store_path, tmp_path, "report")
    assert len(reads) == 1
    summary = json.loads((tmp_path / "reports" / "report.json").read_text())["summary"]
    assert summary == live.to_dict()
    assert summary["classified_notebooks"] == 0
    assert summary[field_name] == after


def _bits(value):
    """``value`` with every float as its hex digits and every dict as its
    items in order, so that equal means equal bits in the same order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    return value


def test_stored_groups_fold_to_the_live_summary_on_random_stores(tmp_path):
    """Per seed, one store is classified and folded from its stored groups,
    and an untouched copy of it from the latest-run read."""
    classes = ("classified_notebooks", "outcome_classes", "resolution_rate")
    for seed in range(30):
        path, copy = tmp_path / f"store{seed}.sqlite3", tmp_path / f"copy{seed}.sqlite3"
        baseline = tmp_path / f"baseline{seed}.csv"
        with Store(path) as store:
            _write_baseline(baseline, _populate(store, random.Random(seed)))
        copy.write_bytes(path.read_bytes())
        _cli(path, tmp_path / str(seed), "classify", "--baseline", str(baseline))
        with Store(path) as store, store.transaction():
            classification = store.classification()
            assert classification.outcomes
            stored = aggregate_corpus(store, classification)
        with Store(copy) as untouched:
            live = aggregate_corpus(untouched)
        assert ([(name, value) for name, value in _bits(stored.to_dict())
                 if name not in classes]
                == [(name, value) for name, value in _bits(live.to_dict())
                    if name not in classes]), seed
        assert stored.outcome_classes == classification.counts
        assert stored.classified_notebooks == stored.total_notebooks
