"""Outcome classification against a prior study's baseline records.

Each (baseline, current) notebook pair lands in exactly one class:

  A  a dependency-install failure the containerized run got past
  B  the same error type observed on both sides
  C  both executed successfully but the outputs drifted
  D  the containerized run regressed (failed earlier than the baseline,
     produced no artifact, or failed in a new way the baseline did not)

Precedence: a regression in pipeline progress is checked first, then A,
then B, then C; a remaining current-side failure is a regression. Pairs
where both sides fully succeeded with zero drift match no class definition
and return Unclassified, as do notebooks without a baseline row.

``CurrentOutcome`` is a notebook's signature: exactly the facts about its
containerized run that the rules read, as a hashable value. Of a baseline
row the rules read only its two statuses, so the notebooks that share those
statuses and one stored outcome group land in the same class: a corpus
costs one ``assign_outcome_class`` call per distinct (baseline statuses,
outcome group).
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Container, Iterable, Mapping, NamedTuple

from nbrepro.executor import ExecutionStatus
from nbrepro.store import LatestOutcome, ProvisioningStatus

logger = logging.getLogger(__name__)

BASELINE_CSV_COLUMNS = ("notebook_id", "prev_dependency_install",
                        "prev_execution_status", "prev_diff_cells",
                        "prev_duration_s")

# Legacy exports spell statuses inconsistently ("Sucess", "File Not Found
# Error"); normalization strips spacing and tolerates the known typo.
_SUCCESS_TOKENS = frozenset({"success", "sucess"})
_FAIL_TOKENS = frozenset({"fail", "failed", "failure"})
_SKIP_MARKERS = ("skip",)


class OutcomeClass(Enum):
    A_ENVIRONMENT_RESOLVED = "A_EnvironmentResolved"
    B_PERSISTENT_ERROR = "B_PersistentError"
    C_REPRODUCIBILITY_DRIFT = "C_ReproducibilityDrift"
    D_REGRESSION = "D_Regression"
    UNCLASSIFIED = "Unclassified"


class BaselineRecord(NamedTuple):
    """One row of the baseline export: the columns the classifier reads. A
    named tuple, as a corpus loads one per notebook."""

    notebook_id: str
    prev_dependency_install: str
    prev_execution_status: str

    @property
    def install_failed(self) -> bool:
        return _token(self.prev_dependency_install) in _FAIL_TOKENS

    @property
    def execution_succeeded(self) -> bool:
        return _token(self.prev_execution_status) in _SUCCESS_TOKENS


class CurrentOutcome(NamedTuple):
    """A notebook's signature: exactly the facts about its containerized
    run that the classifier reads.

    ``build_failure_phase`` is the failing build phase name when
    provisioning ended in BuildFailed (e.g. "DependencyInstall");
    ``execution_status`` is None when the notebook was not executed;
    ``drifted`` is ``shows_drift`` of its metrics, False when it was not
    scored.
    """

    provisioning_status: ProvisioningStatus
    build_failure_phase: str | None = None
    execution_status: ExecutionStatus | None = None
    error_types: frozenset[str] = frozenset()
    drifted: bool = False


def _token(status: str) -> str:
    return status.strip().strip("<>").replace(" ", "").replace("_", "").lower()


def percentage(hits: int, total: int) -> float | None:
    """``hits`` as a percentage of ``total``; undefined (None) when empty."""
    return 100.0 * hits / total if total else None


def _baseline_progress(b: BaselineRecord) -> float:
    # 1 failed at dependency install; 1.5 produced no execution artifact;
    # 2 executed but errored; 3 fully succeeded.
    if b.install_failed:
        return 1.0
    token = _token(b.prev_execution_status)
    if token in _SUCCESS_TOKENS:
        return 3.0
    if any(marker in token for marker in _SKIP_MARKERS):
        return 1.5
    return 2.0


def _current_progress(current: CurrentOutcome) -> float:
    status = current.provisioning_status
    if status in (ProvisioningStatus.INVALID_URL,
                  ProvisioningStatus.NO_PYTHON_NOTEBOOKS):
        return 0.0
    if status in (ProvisioningStatus.BUILD_FAILED,
                  ProvisioningStatus.KERNEL_NOT_FOUND,
                  ProvisioningStatus.PENDING):
        return 1.0
    execution = current.execution_status
    if execution in (None, ExecutionStatus.KERNEL_NOT_FOUND,
                     ExecutionStatus.NOTEBOOK_NOT_FOUND, ExecutionStatus.SKIPPED):
        return 1.5
    if execution is ExecutionStatus.SUCCESS:
        return 3.0
    return 2.0


def _current_error_tokens(current: CurrentOutcome) -> set[str]:
    tokens: set[str] = set()
    if current.provisioning_status is ProvisioningStatus.BUILD_FAILED:
        # A failed dependency-install layer is the same failure mode the
        # baseline pipeline reported as "Install Dependency Error".
        if _token(current.build_failure_phase or "") == "dependencyinstall":
            tokens.add("installdependencyerror")
        elif current.build_failure_phase:
            tokens.add(_token(current.build_failure_phase))
    if current.provisioning_status is ProvisioningStatus.KERNEL_NOT_FOUND:
        tokens.add("kernelnotfound")
    tokens.update(_token(error_type) for error_type in current.error_types)
    execution = current.execution_status
    if execution is ExecutionStatus.KERNEL_NOT_FOUND:
        tokens.add("kernelnotfound")
    elif execution is ExecutionStatus.NOTEBOOK_NOT_FOUND:
        tokens.add("notebooknotfound")
    elif execution is ExecutionStatus.TIMEOUT:
        tokens.add("timeout")
    return tokens


def _current_succeeded(current: CurrentOutcome) -> bool:
    return (current.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT
            and current.execution_status is ExecutionStatus.SUCCESS)


def shows_drift(different_count: int, nondeterministic_count: int,
                score: float | None) -> bool:
    """Whether a scored notebook's outputs drifted from the committed ones."""
    if different_count > 0 or nondeterministic_count > 0:
        return True
    return score is not None and score < 1.0


def assign_outcome_class(baseline: BaselineRecord | None,
                         current: CurrentOutcome) -> OutcomeClass:
    """Classify one notebook's (baseline, current) pair."""
    if baseline is None:
        return OutcomeClass.UNCLASSIFIED

    current_progress = _current_progress(current)
    baseline_progress = _baseline_progress(baseline)
    if current_progress < baseline_progress:
        return OutcomeClass.D_REGRESSION

    if (baseline.install_failed
            and current.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT):
        return OutcomeClass.A_ENVIRONMENT_RESOLVED

    prev_token = _token(baseline.prev_execution_status)
    if (prev_token not in _SUCCESS_TOKENS and prev_token not in _FAIL_TOKENS
            and prev_token in _current_error_tokens(current)):
        return OutcomeClass.B_PERSISTENT_ERROR

    if _current_succeeded(current):
        if baseline.execution_succeeded and current.drifted:
            return OutcomeClass.C_REPRODUCIBILITY_DRIFT
        # Stable pair (no drift) or an improvement over a non-install
        # baseline failure; no class definition covers either.
        return OutcomeClass.UNCLASSIFIED

    # Residual: the current run exhibits a failure that matches neither the
    # baseline's error nor any resolution pattern.
    return OutcomeClass.D_REGRESSION


def resolution_rate(counts: Mapping[tuple[BaselineRecord, OutcomeClass], int]
                    ) -> float | None:
    """Percentage of baseline dependency-install failures now in class A,
    from the number of notebooks per (baseline row, class) pair.

    Undefined (None) when no baseline record failed on dependency install.
    """
    failed = resolved = 0
    for (baseline, cls), notebooks in counts.items():
        if baseline.install_failed:
            failed += notebooks
            if cls is OutcomeClass.A_ENVIRONMENT_RESOLVED:
                resolved += notebooks
    return percentage(resolved, failed)


def success_rate_by_requirements(counts: Mapping[tuple[bool, bool], int]
                                 ) -> dict[str, float | None]:
    """Success rate per requirements stratum, from the number of notebooks
    per ``(has_requirements, succeeded)`` pair, for the baseline and for
    nbrepro."""
    def rate(has_requirements: bool) -> float | None:
        hits = counts.get((has_requirements, True), 0)
        return percentage(hits, hits + counts.get((has_requirements, False), 0))

    return {"with_requirements": rate(True), "without_requirements": rate(False)}


def containerized_success_rate_by_requirements(groups: Iterable[LatestOutcome]
                                               ) -> dict[str, float | None]:
    """nbrepro's success rate per requirements stratum over the executed
    notebooks of the store's latest-run groups."""
    success = ExecutionStatus.SUCCESS.value
    runs: Counter[tuple[bool, bool]] = Counter()
    for group in groups:
        if group.execution_status is not None:
            runs[bool(group.has_requirements_file),
                 group.execution_status == success] += len(group.notebook_ids)
    return success_rate_by_requirements(runs)


def read_baseline_csv(path: Path | str) -> list[BaselineRecord]:
    """Load baseline records from the flat comma-delimited export.

    Columns are found by name in the header; blank lines are skipped. A
    missing column or a row too short to hold every column is an error.
    ``prev_diff_cells`` and ``prev_duration_s`` must be present but are not
    read."""
    records: list[BaselineRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # A repeated name means its last column, as csv.DictReader reads it.
        header = {name: i for i, name in enumerate(next(reader, ()))}
        missing = set(BASELINE_CSV_COLUMNS) - header.keys()
        if missing:
            raise ValueError(
                f"baseline file missing columns: {', '.join(sorted(missing))}")
        positions = [header[name] for name in BASELINE_CSV_COLUMNS]
        notebook, install, status = positions[:3]
        width = max(positions) + 1
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                raise ValueError(
                    f"baseline file line {reader.line_num} is short: "
                    f"{len(row)} fields, the baseline columns need {width}")
            records.append(BaselineRecord(
                row[notebook].strip(), row[install].strip(), row[status].strip()))
    return records


def match_baselines(records: Iterable[BaselineRecord],
                    known_notebook_ids: Container[str]
                    ) -> tuple[list[BaselineRecord], list[BaselineRecord]]:
    """Split baseline rows into (matched, unmatched) against the corpus.

    Unmatched rows are reported, never silently dropped.
    """
    matched, unmatched = [], []
    for record in records:
        (matched if record.notebook_id in known_notebook_ids else unmatched
         ).append(record)
    if unmatched:
        logger.warning("%d baseline rows match no known notebook, first: %s",
                       len(unmatched),
                       ", ".join(r.notebook_id for r in unmatched[:5]))
    return matched, unmatched
