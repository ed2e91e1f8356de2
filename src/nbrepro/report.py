"""Corpus-level aggregation and report emission.

Aggregates the most recent run of every repository into one summary and
writes it as versioned JSON, a delimited table, and a human-readable
digest. The summary is folded from the latest-run groups that classify
folds too: one row per distinct outcome, weighted by its notebooks, each
error list reduced to its (type, category) pairs, so the Python work grows
with the distinct outcomes, not with the notebooks. While classify's row
stands, the groups it stored beside it are folded; otherwise the latest-run
read is made here. The small repository and latest-run reads add the
provisioning counts, and the store's classification row the classes.
Output bytes are a function of the one store state that the caller's
transaction reads; the generation timestamp is isolated in one header
field.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from pathlib import Path
from types import EllipsisType

from nbrepro import __version__, atomic
from nbrepro.compare import ScoreCategory, categorize_score
from nbrepro.outcomes import containerized_success_rate_by_requirements
from nbrepro.store import (
    Classification,
    OutcomeClass,
    ProvisioningStatus,
    Store,
    utc_now_iso,
)

REPORT_SCHEMA_VERSION = 1

PROVISIONING_ORDER = [status.value for status in ProvisioningStatus]
SCORE_CATEGORY_ORDER = [category.value for category in ScoreCategory]
OUTCOME_CLASS_ORDER = [cls.value for cls in OutcomeClass]


@dataclass(frozen=True)
class CorpusSummary:
    """One aggregation pass over the store.

    Histograms carry explicit populations so their sum invariants are
    checkable: provisioning sums to total_repositories, score categories to
    scored_notebooks, error types to total_error_records, outcome classes
    to classified_notebooks.
    """

    total_repositories: int = 0
    provisioning: dict[str, int] = field(default_factory=dict)
    repositories_with_requirements: int = 0
    repositories_without_requirements: int = 0

    total_notebooks: int = 0
    executed_notebooks: int = 0
    zero_error_notebooks: int = 0
    notebooks_with_errors: int = 0

    total_error_records: int = 0
    error_types: dict[str, int] = field(default_factory=dict)
    error_categories: dict[str, int] = field(default_factory=dict)

    success_rate_by_requirements: dict[str, float | None] = field(default_factory=dict)
    mean_score_by_requirements: dict[str, float | None] = field(default_factory=dict)

    scored_notebooks: int = 0
    score_categories: dict[str, int] = field(default_factory=dict)
    mean_score: float | None = None

    nondeterministic_notebooks: int = 0
    nondeterminism_prevalence: float = 0.0

    classified_notebooks: int = 0
    outcome_classes: dict[str, int] = field(default_factory=dict)
    resolution_rate: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_corpus(store: Store, classification: Classification | None
                     | EllipsisType = ...) -> CorpusSummary:
    """Deterministic aggregation over the latest run of each repository.

    Call it inside ``store.transaction()``: its reads then see one state of
    the store, and another connection's write waits until they are done.
    An empty store yields an all-zero summary rather than an error. The
    outcome classes and the resolution rate are classify's row, which the
    store holds only while the rows classify read are unchanged; a caller
    that has read it in the same transaction passes it. The row's groups
    are folded when it has any, so only a store that changed since classify,
    or was never classified, pays for the latest-run read.
    """
    if classification is ...:
        classification = store.classification()
    outcome_classes, resolution, groups = (
        classification or Classification({key: 0 for key in OUTCOME_CLASS_ORDER}, None, []))
    repositories = store.list_repositories()
    latest = store.latest_runs()
    groups = groups or store.latest_outcomes()

    provisioning = {key: 0 for key in PROVISIONING_ORDER}
    for repo in repositories:
        run = latest.get(repo.repository_id)
        status = run.provisioning_status.value if run else ProvisioningStatus.PENDING.value
        provisioning[status] = provisioning.get(status, 0) + 1
    with_req = sum(1 for repo in repositories if repo.has_requirements_file)

    # One group per distinct latest-run outcome, weighted by its notebooks.
    total = executed = zero_errors = flagged = scored = 0
    error_types: dict[str, int] = {}
    error_categories: dict[str, int] = {}
    total_error_records = 0
    score_categories = {key: 0 for key in SCORE_CATEGORY_ORDER}
    scores: list[tuple[float, int]] = []
    scores_by_stratum: dict[bool, list[tuple[float, int]]] = {True: [], False: []}
    for group in groups:
        count = group.notebook_count
        total += count
        flagged += group.pattern_notebooks
        if group.execution_status is not None:
            executed += count
            pairs = json.loads(group.error_pairs)
            if not pairs:
                zero_errors += count
            for error_type, category in pairs:
                total_error_records += count
                error_types[error_type] = error_types.get(error_type, 0) + count
                error_categories[category] = error_categories.get(category, 0) + count
        mismatch, score = group.structural_mismatch, group.score
        if mismatch is None:
            continue
        scored += count
        category = (ScoreCategory.UNSCORED if mismatch
                    else categorize_score(score))
        score_categories[category.value] += count
        if score is not None and not mismatch:
            scores.append((score, count))
            scores_by_stratum[bool(group.has_requirements_file)].append((score, count))

    prevalence = flagged / total if total else 0.0

    return CorpusSummary(
        total_repositories=len(repositories),
        provisioning=provisioning,
        repositories_with_requirements=with_req,
        repositories_without_requirements=len(repositories) - with_req,
        total_notebooks=total,
        executed_notebooks=executed,
        zero_error_notebooks=zero_errors,
        notebooks_with_errors=executed - zero_errors,
        total_error_records=total_error_records,
        error_types=dict(sorted(error_types.items())),
        error_categories=dict(sorted(error_categories.items())),
        success_rate_by_requirements=containerized_success_rate_by_requirements(groups),
        mean_score_by_requirements={
            "with_requirements": _mean(scores_by_stratum[True]),
            "without_requirements": _mean(scores_by_stratum[False]),
        },
        scored_notebooks=scored,
        score_categories=score_categories,
        mean_score=_mean(scores),
        nondeterministic_notebooks=flagged,
        nondeterminism_prevalence=prevalence,
        classified_notebooks=sum(outcome_classes.values()),
        outcome_classes=outcome_classes,
        resolution_rate=resolution,
    )


def _mean(groups: list[tuple[float, int]]) -> float | None:
    """Mean of the scores, each repeated by its count. fsum rounds once, so
    the result has the bits of the mean over the notebooks, in any order."""
    count = sum(n for _, n in groups)
    if not count:
        return None
    return math.fsum(chain.from_iterable(repeat(score, n) for score, n in groups)) / count


def emit_reports(summary: CorpusSummary, report_dir: Path,
                 generated_at: str | None = None) -> list[Path]:
    """Write report.json, summary.csv, and summary.md, each replaced atomically.

    Raises OSError when the target directory cannot be written; callers
    translate that into a fatal exit.
    """
    report_dir = Path(report_dir)
    stamp = generated_at or utc_now_iso()

    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "pipeline_version": __version__,
        "generated_at": stamp,
        "summary": summary.to_dict(),
    }
    json_path = report_dir / "report.json"
    atomic.write_text(json_path, json.dumps(
        document, indent=2, sort_keys=True, ensure_ascii=False) + "\n")

    csv_path = report_dir / "summary.csv"
    atomic.write_text(csv_path, _render_csv(summary))

    md_path = report_dir / "summary.md"
    atomic.write_text(md_path, _render_markdown(summary, stamp))
    return [json_path, csv_path, md_path]


def _format_value(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _rows(summary: CorpusSummary) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = [
        ("repositories", "total", _format_value(summary.total_repositories)),
        ("repositories", "with_requirements",
         _format_value(summary.repositories_with_requirements)),
        ("repositories", "without_requirements",
         _format_value(summary.repositories_without_requirements)),
    ]
    rows += [("provisioning", key, _format_value(count))
             for key, count in summary.provisioning.items()]
    rows += [
        ("notebooks", "total", _format_value(summary.total_notebooks)),
        ("notebooks", "executed", _format_value(summary.executed_notebooks)),
        ("notebooks", "zero_errors", _format_value(summary.zero_error_notebooks)),
        ("notebooks", "with_errors", _format_value(summary.notebooks_with_errors)),
    ]
    rows += [("error_types", key, _format_value(count))
             for key, count in summary.error_types.items()]
    rows += [("error_categories", key, _format_value(count))
             for key, count in summary.error_categories.items()]
    rows += [("success_rate_by_requirements", key, _format_value(value))
             for key, value in summary.success_rate_by_requirements.items()]
    rows += [("mean_score_by_requirements", key, _format_value(value))
             for key, value in summary.mean_score_by_requirements.items()]
    rows += [("score_categories", key, _format_value(count))
             for key, count in summary.score_categories.items()]
    rows += [
        ("scores", "scored_notebooks", _format_value(summary.scored_notebooks)),
        ("scores", "mean_score", _format_value(summary.mean_score)),
        ("nondeterminism", "flagged_notebooks",
         _format_value(summary.nondeterministic_notebooks)),
        ("nondeterminism", "prevalence",
         _format_value(summary.nondeterminism_prevalence)),
    ]
    rows += [("outcome_classes", key, _format_value(count))
             for key, count in summary.outcome_classes.items()]
    rows.append(("outcome_classes", "resolution_rate",
                 _format_value(summary.resolution_rate)))
    return rows


def _render_csv(summary: CorpusSummary) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["section", "metric", "value"])
    writer.writerows(_rows(summary))
    return buffer.getvalue()


def _render_markdown(summary: CorpusSummary, stamp: str) -> str:
    lines = [
        "# Corpus reproducibility summary",
        "",
        f"Generated: {stamp}",
        "",
        "| Section | Metric | Value |",
        "| --- | --- | --- |",
    ]
    lines += [f"| {section} | {metric} | {value} |"
              for section, metric, value in _rows(summary)]
    lines.append("")
    return "\n".join(lines)
