"""Outcome classes A-D against baseline records, including the published
example rows of the prior-vs-containerized comparison table."""

from __future__ import annotations

from collections import Counter

import pytest

from nbrepro.compare import metrics_from_partition
from nbrepro.executor import ExecutionStatus
from nbrepro.outcomes import (
    BaselineRecord,
    CurrentOutcome,
    OutcomeClass,
    assign_outcome_class,
    match_baselines,
    read_baseline_csv,
    resolution_rate,
    shows_drift,
)
from nbrepro.store import ProvisioningStatus


def _baseline(install, status, nb="nb"):
    return BaselineRecord(notebook_id=nb, prev_dependency_install=install,
                          prev_execution_status=status)


def _metrics(diff=0, total=10, nb="nb", run="run"):
    return metrics_from_partition(range(total - diff), range(total - diff, total),
                                  [], notebook_id=nb, run_id=run)


def _success_current(diff=0):
    metrics = _metrics(diff=diff)
    return CurrentOutcome(
        provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT,
        execution_status=ExecutionStatus.SUCCESS,
        drifted=shows_drift(metrics.different_count,
                            metrics.nondeterministic_count, metrics.score))


def _errored_current(*error_types):
    return CurrentOutcome(
        provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT,
        execution_status=ExecutionStatus.ERRORED_BUT_COMPLETED,
        error_types=frozenset(error_types))


# Published example rows: (baseline record, reconstructed current outcome,
# printed class). The one row printed as D despite Success/Success with
# drift is asserted as C below: its columns are indistinguishable from the
# printed C rows, so no column-level rule can reproduce it (the original
# table appears to group notebooks by repository).
TABLE_ROWS = [
    # A. environment failures resolved
    (_baseline("Fail", "Fail"), _success_current(diff=4),
     OutcomeClass.A_ENVIRONMENT_RESOLVED),
    (_baseline("Fail", "Install Dependency Error"), _success_current(diff=30),
     OutcomeClass.A_ENVIRONMENT_RESOLVED),
    (_baseline("Fail", "Install Dependency Error"),
     _errored_current("ModuleNotFoundError"),
     OutcomeClass.A_ENVIRONMENT_RESOLVED),
    (_baseline("Fail", "Install Dependency Error"),
     _errored_current("PermissionError"),
     OutcomeClass.A_ENVIRONMENT_RESOLVED),
    # B. persistent errors
    (_baseline("Success", "SyntaxError"), _errored_current("SyntaxError"),
     OutcomeClass.B_PERSISTENT_ERROR),
    (_baseline("Success", "FileNotFoundError"),
     _errored_current("FileNotFoundError"),
     OutcomeClass.B_PERSISTENT_ERROR),
    (_baseline("Sucess", "File Not Found Error"),
     _errored_current("FileNotFoundError"),
     OutcomeClass.B_PERSISTENT_ERROR),
    # C. reproducibility drift
    (_baseline("Success", "Success"), _success_current(diff=3),
     OutcomeClass.C_REPRODUCIBILITY_DRIFT),
    (_baseline("Success", "Success"), _success_current(diff=1),
     OutcomeClass.C_REPRODUCIBILITY_DRIFT),
    # D. regressions
    (_baseline("Success", "ModuleNotFoundError"),
     CurrentOutcome(provisioning_status=ProvisioningStatus.INVALID_URL),
     OutcomeClass.D_REGRESSION),
    (_baseline("Fail", "Install Dependency Error"),
     CurrentOutcome(provisioning_status=ProvisioningStatus.BUILD_FAILED,
                    build_failure_phase="Other"),
     OutcomeClass.D_REGRESSION),
    (_baseline("Sucess", "<Skipping notebook>"), _errored_current("TypeError"),
     OutcomeClass.D_REGRESSION),
    (_baseline("Fail", "Install Dependency Error"),
     CurrentOutcome(provisioning_status=ProvisioningStatus.BUILD_FAILED,
                    build_failure_phase="Other"),
     OutcomeClass.D_REGRESSION),
    (_baseline("Success", "ModuleNotFoundError"),
     CurrentOutcome(provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT,
                    execution_status=ExecutionStatus.NOTEBOOK_NOT_FOUND),
     OutcomeClass.D_REGRESSION),
]


@pytest.mark.parametrize("baseline,current,expected", TABLE_ROWS,
                         ids=[f"row{i:02d}_{e.value}" for i, (_, _, e)
                              in enumerate(TABLE_ROWS)])
def test_published_rows_reproduce_printed_classes(baseline, current, expected):
    assert assign_outcome_class(baseline, current) is expected


def test_success_success_drift_row_classifies_as_drift():
    # Printed under D in the original table, but carries exactly the same
    # column signals as the C rows; the per-notebook rule yields C.
    baseline = _baseline("Sucess", "Sucess")
    assert assign_outcome_class(baseline, _success_current(diff=5)) is (
        OutcomeClass.C_REPRODUCIBILITY_DRIFT)


def test_missing_baseline_unclassified():
    assert assign_outcome_class(None, _success_current()) is OutcomeClass.UNCLASSIFIED


def test_stable_pair_unclassified():
    baseline = _baseline("Success", "Success")
    assert assign_outcome_class(baseline, _success_current(diff=0)) is (
        OutcomeClass.UNCLASSIFIED)


def test_persistent_dependency_install_failure_is_b():
    baseline = _baseline("Fail", "Install Dependency Error")
    current = CurrentOutcome(
        provisioning_status=ProvisioningStatus.BUILD_FAILED,
        build_failure_phase="DependencyInstall")
    assert assign_outcome_class(baseline, current) is OutcomeClass.B_PERSISTENT_ERROR


def test_timeout_after_baseline_success_is_regression():
    baseline = _baseline("Success", "Success")
    current = CurrentOutcome(
        provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT,
        execution_status=ExecutionStatus.TIMEOUT)
    assert assign_outcome_class(baseline, current) is OutcomeClass.D_REGRESSION


def test_classes_mutually_exclusive_and_exhaustive_on_rows():
    for baseline, current, _ in TABLE_ROWS:
        outcome = assign_outcome_class(baseline, current)
        assert outcome in (OutcomeClass.A_ENVIRONMENT_RESOLVED,
                           OutcomeClass.B_PERSISTENT_ERROR,
                           OutcomeClass.C_REPRODUCIBILITY_DRIFT,
                           OutcomeClass.D_REGRESSION)


# ---- resolution rate ------------------------------------------------------------

def test_resolution_rate_published_value():
    assignments = []
    for i in range(96):
        baseline = _baseline("Fail", "Install Dependency Error", nb=f"nb{i}")
        outcome = (OutcomeClass.A_ENVIRONMENT_RESOLVED if i < 64
                   else OutcomeClass.D_REGRESSION)
        assignments.append((baseline, outcome))
    rate = resolution_rate(Counter(assignments))
    assert rate == pytest.approx(66.7, abs=0.05)


@pytest.mark.parametrize("resolved,failed,expected", [(0, 5, 0.0), (5, 5, 100.0)])
def test_resolution_rate_bounds(resolved, failed, expected):
    assignments = [
        (_baseline("Fail", "Install Dependency Error", nb=f"nb{i}"),
         OutcomeClass.A_ENVIRONMENT_RESOLVED if i < resolved
         else OutcomeClass.B_PERSISTENT_ERROR)
        for i in range(failed)
    ]
    assert resolution_rate(Counter(assignments)) == expected


def test_resolution_rate_undefined_without_failures():
    assignments = [(_baseline("Success", "Success"),
                    OutcomeClass.C_REPRODUCIBILITY_DRIFT)]
    assert resolution_rate(Counter(assignments)) is None


# ---- baseline ingestion ------------------------------------------------------------

def test_baseline_csv_round_trip(tmp_path):
    path = tmp_path / "baseline.csv"
    # Spreadsheet tools write a byte-order mark before the header.
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(
            "notebook_id,prev_dependency_install,prev_execution_status,"
            "prev_diff_cells,prev_duration_s\n"
            "nb1,Fail,Install Dependency Error,-,-\n"
            "nb2,Success,FileNotFoundError,0,80.4\n"
            "nb3,Sucess,<Skipping notebook>,,\n",
            encoding=encoding)
        records = read_baseline_csv(path)
        assert [r.notebook_id for r in records] == ["nb1", "nb2", "nb3"]
        assert records[0].install_failed
        assert not records[2].install_failed


def test_baseline_csv_missing_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("notebook_id,prev_dependency_install\nnb1,Fail\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_baseline_csv(path)


def test_baseline_csv_short_row_names_its_line(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "notebook_id,prev_dependency_install,prev_execution_status,"
        "prev_diff_cells,prev_duration_s\n"
        "nb1,Fail,Install Dependency Error,-,-\n"
        "\n"
        "abc,Success\n",
        encoding="utf-8")
    with pytest.raises(ValueError, match="line 4 is short: 2 fields"):
        read_baseline_csv(path)


def test_baseline_csv_repeated_notebook_names_both_lines(tmp_path):
    path = tmp_path / "repeated.csv"
    path.write_text(
        "notebook_id,prev_dependency_install,prev_execution_status,"
        "prev_diff_cells,prev_duration_s\n"
        "nb1,Fail,Install Dependency Error,-,-\n"
        "nb2,Success,Success,0,1\n"
        "\n"
        " nb1 ,Success,Success,0,1\n",
        encoding="utf-8")
    with pytest.raises(ValueError, match="repeats notebook 'nb1' on lines 2 and 5"):
        read_baseline_csv(path)


def test_baseline_csv_reads_columns_by_header_name(tmp_path):
    path = tmp_path / "reordered.csv"
    path.write_text(
        "prev_duration_s,notebook_id,extra,prev_execution_status,"
        "prev_dependency_install,prev_diff_cells,notes\n"
        "1.5, nb1 ,x,Success,Fail,3\n"
        "\n"
        "-,nb2,y,<Skipping notebook>,Success,,a note\n",
        encoding="utf-8")
    assert read_baseline_csv(path) == [
        BaselineRecord("nb1", "Fail", "Success"),
        BaselineRecord("nb2", "Success", "<Skipping notebook>"),
    ]


def test_baseline_success_rate_by_requirements():
    from nbrepro.outcomes import success_rate_by_requirements
    records = [
        _baseline("Success", "Success", nb="w1"),
        _baseline("Success", "FileNotFoundError", nb="w2"),
        _baseline("Fail", "Install Dependency Error", nb="wo1"),
        _baseline("Success", "Success", nb="wo2"),
        _baseline("Fail", "Install Dependency Error", nb="ghost"),
    ]
    strata = {"w1": True, "w2": True, "wo1": False, "wo2": False}
    matched, _ = match_baselines(records, strata)
    rates = success_rate_by_requirements(Counter(
        (strata[r.notebook_id], not r.install_failed and r.execution_succeeded)
        for r in matched))
    assert rates == {"with_requirements": 50.0, "without_requirements": 50.0}


def test_success_rate_counts_each_pair_by_its_count():
    from nbrepro.outcomes import success_rate_by_requirements
    rates = success_rate_by_requirements(
        {(True, True): 3, (True, False): 1, (False, False): 2})
    assert rates == {"with_requirements": 75.0, "without_requirements": 0.0}


def test_baseline_success_rate_empty_stratum_undefined():
    from nbrepro.outcomes import success_rate_by_requirements
    rates = success_rate_by_requirements(Counter())
    assert rates == {"with_requirements": None, "without_requirements": None}


def test_unmatched_baseline_rows_reported(caplog):
    records = [_baseline("Fail", "X", nb="known"),
               _baseline("Fail", "X", nb="ghost")]
    import logging
    with caplog.at_level(logging.WARNING, logger="nbrepro.outcomes"):
        matched, unmatched = match_baselines(records, {"known"})
    assert [r.notebook_id for r in matched] == ["known"]
    assert [r.notebook_id for r in unmatched] == ["ghost"]
    assert any("ghost" in rec.message for rec in caplog.records)


def test_unmatched_baseline_rows_logged_once(caplog):
    import logging
    records = [_baseline("Fail", "X", nb=f"ghost{n}") for n in range(7)]
    with caplog.at_level(logging.WARNING, logger="nbrepro.outcomes"):
        _, unmatched = match_baselines(records, set())
    assert len(unmatched) == 7
    (record,) = caplog.records
    assert record.getMessage() == (
        "7 baseline rows match no known notebook, first: "
        "ghost0, ghost1, ghost2, ghost3, ghost4")
