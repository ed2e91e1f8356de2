"""Output checks: store rows and reports against the generator's expectation.

Every disagreement counts as one mismatch. Run ids, timestamps, durations
and absolute paths are ignored; everything else the expectation states is
compared. The store is read with plain SQL rather than through nbrepro, so
a fault in the store's own readers cannot hide one in its rows.
"""

from __future__ import annotations

import csv
import json
import math
import sqlite3
from collections import Counter
from pathlib import Path

PROVISIONING = ("EnvironmentBuilt", "BuildFailed", "KernelNotFound",
                "NoPythonNotebooks", "InvalidUrl", "Pending")
SCORE_CATEGORIES = ("Poor", "Low", "Moderate", "Good", "High", "Perfect", "Unscored")
OUTCOME_CLASSES = ("A_EnvironmentResolved", "B_PersistentError",
                   "C_ReproducibilityDrift", "D_Regression", "Unclassified")


class Mismatches:
    """Disagreements found, plus ``float_drift``: report files of two runs
    that differ only in the last digits of floating-point fields."""

    def __init__(self) -> None:
        self.count = 0
        self.float_drift = 0
        self.examples: list[str] = []

    def check(self, what: str, actual, expected) -> None:
        if isinstance(expected, float) and isinstance(actual, float):
            equal = math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12)
        else:
            equal = actual == expected
        if not equal:
            self.count += 1
            if len(self.examples) < 10:
                self.examples.append(f"{what}: got {actual!r}, expected {expected!r}")


def _rows(conn: sqlite3.Connection, sql: str) -> dict:
    return {row[0]: row for row in conn.execute(sql)}


def check_pipeline_store(store_path: Path, expected: dict, found: Mismatches) -> None:
    conn = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
    conn.row_factory = sqlite3.Row
    try:
        repos = _rows(conn, "SELECT * FROM repositories")
        runs = _rows(conn, "SELECT repository_id, provisioning_status, status_reason,"
                           " revision, finished_at FROM repository_runs")
        notebooks = _rows(conn, "SELECT * FROM notebooks")
        executions = _rows(conn, "SELECT * FROM notebook_executions")
        metrics = _rows(conn, "SELECT * FROM reproducibility_metrics")
    finally:
        conn.close()

    want_notebooks = {}
    for repo in expected["repositories"]:
        rid, label = repo["repository_id"], repo["name"]
        row = repos.get(rid)
        found.check(f"{label} row present", row is not None, True)
        if row is None:
            continue
        found.check(f"{label} accessible", bool(row["accessible"]), repo["accessible"])
        found.check(f"{label} has_requirements_file", bool(row["has_requirements_file"]),
                    repo["has_requirements_file"])
        found.check(f"{label} notebook_count", row["notebook_count"], len(repo["notebooks"]))
        found.check(f"{label} manifest_paths", json.loads(row["manifest_paths"]),
                    repo["manifest_paths"])
        run = runs.get(rid)
        found.check(f"{label} run present", run is not None, True)
        if run is not None:
            found.check(f"{label} provisioning", run["provisioning_status"],
                        repo["provisioning"])
            reason = run["status_reason"] or ""
            prefix = repo["reason_prefix"]
            found.check(f"{label} status_reason", reason.split(":", 1)[0] if prefix else reason,
                        prefix or "")
            found.check(f"{label} revision", run["revision"], repo["revision"])
            found.check(f"{label} finished", run["finished_at"] is not None, True)
        for rel, nb in repo["notebooks"].items():
            want_notebooks[nb["notebook_id"]] = (f"{label}/{rel}", rel, nb)

    found.check("repository rows", len(repos), len(expected["repositories"]))
    found.check("run rows", len(runs), len(expected["repositories"]))
    found.check("notebook rows", len(notebooks), len(want_notebooks))
    for notebook_id, (label, rel, nb) in want_notebooks.items():
        row = notebooks.get(notebook_id)
        found.check(f"{label} notebook row", row is not None, True)
        if row is not None:
            found.check(f"{label} relative_path", row["relative_path"], rel)
            found.check(f"{label} kernel_name", row["kernel_name"], nb["kernel_name"])
            found.check(f"{label} code cells", row["code_cell_count"], nb["code_cells"])
            found.check(f"{label} markdown cells", row["markdown_cell_count"],
                        nb["markdown_cells"])
            found.check(f"{label} pattern cells", row["nondeterministic_pattern_cells"],
                        nb["pattern_cells"])
            found.check(f"{label} parse_failed", bool(row["parse_failed"]), nb["parse_failed"])
        _check_execution(label, executions.get(notebook_id), nb["execution"], found)
        _check_metrics(label, metrics.get(notebook_id), nb["verdicts"], found)
    found.check("execution rows", len(executions),
                sum(1 for _, _, nb in want_notebooks.values() if nb["execution"]))
    found.check("metrics rows", len(metrics),
                sum(1 for _, _, nb in want_notebooks.values() if nb["verdicts"]))


def _check_execution(label: str, row, want: dict | None, found: Mismatches) -> None:
    found.check(f"{label} execution row", row is not None, want is not None)
    if row is None or want is None:
        return
    found.check(f"{label} status", row["status"], want["status"])
    found.check(f"{label} executed code cells", row["code_cell_count"],
                want["code_cell_count"])
    found.check(f"{label} markdown ratio", row["markdown_code_ratio"],
                want["markdown_code_ratio"])
    errors = [[e["error_type"], e["category"], e["message"], e["cell_index"], e["count"]]
              for e in json.loads(row["errors"])]
    found.check(f"{label} errors", errors, want["errors"])
    found.check(f"{label} artifact", row["executed_notebook_path"] is not None,
                want["has_artifact"])


def _check_metrics(label: str, row, verdicts: list[str] | None, found: Mismatches) -> None:
    found.check(f"{label} metrics row", row is not None, verdicts is not None)
    if row is None or verdicts is None:
        return
    found.check(f"{label} structural mismatch", row["structural_mismatch"], 0)
    for verdict, column in (("Identical", "identical"), ("Different", "different"),
                            ("NonDeterministic", "nondeterministic")):
        indices = [i for i, v in enumerate(verdicts) if v == verdict]
        found.check(f"{label} {verdict} cells", json.loads(row[f"{column}_indices"]), indices)
        found.check(f"{label} {verdict} count", row[f"{column}_count"], len(indices))
    found.check(f"{label} total cells", row["total_code_cells"], len(verdicts))
    found.check(f"{label} score", row["score"], verdicts.count("Identical") / len(verdicts))


def _summary_totals(repos: list[dict], notebooks: list[dict]) -> dict:
    executed = [nb for nb in notebooks if nb["execution"]]
    errors = [e for nb in executed for e in nb["execution"]["errors"]]
    scored = [nb for nb in notebooks if nb["score_category"]]
    return {
        "total_repositories": len(repos),
        "provisioning": {k: sum(1 for r in repos if r["provisioning"] == k)
                         for k in PROVISIONING},
        "repositories_with_requirements": sum(1 for r in repos if r["has_requirements_file"]),
        "total_notebooks": len(notebooks),
        "executed_notebooks": len(executed),
        "zero_error_notebooks": sum(1 for nb in executed if not nb["execution"]["errors"]),
        "total_error_records": len(errors),
        "error_types": dict(sorted(Counter(e[0] for e in errors).items())),
        "error_categories": dict(sorted(Counter(e[1] for e in errors).items())),
        "scored_notebooks": len(scored),
        "score_categories": {k: sum(1 for nb in scored if nb["score_category"] == k)
                             for k in SCORE_CATEGORIES},
        "nondeterministic_notebooks": sum(1 for nb in notebooks
                                          if (nb["pattern_cells"] or 0) > 0),
    }


def pipeline_report_totals(expected: dict) -> dict:
    """Report fields the expectation of a pipeline corpus determines."""
    repos = expected["repositories"]
    notebooks = [nb for repo in repos for nb in repo["notebooks"].values()]
    rates = {}
    for key, stratum in (("with_requirements", True), ("without_requirements", False)):
        runs = [nb for repo in repos if repo["has_requirements_file"] is stratum
                for nb in repo["notebooks"].values() if nb["execution"]]
        ok = sum(1 for nb in runs if nb["execution"]["status"] == "Success")
        rates[key] = 100.0 * ok / len(runs) if runs else None
    scores = [nb["verdicts"].count("Identical") / len(nb["verdicts"])
              for nb in notebooks if nb["verdicts"]]
    return {**_summary_totals(repos, notebooks),
            "success_rate_by_requirements": rates,
            "mean_score": sum(scores) / len(scores) if scores else None}


def report_large_totals(expected: dict) -> dict:
    """Report fields the expectation of the populated store determines."""
    classes = Counter(expected["classes"].values())
    return {**_summary_totals(expected["repositories"], expected["notebooks"]),
            "classified_notebooks": sum(classes.values()),
            "outcome_classes": {k: classes.get(k, 0) for k in OUTCOME_CLASSES}}


def check_report(report_dir: Path, totals: dict, found: Mismatches) -> None:
    summary = json.loads((report_dir / "report.json").read_text("utf-8"))["summary"]
    for key, value in totals.items():
        found.check(f"report.json {key}", summary.get(key), value)
    with open(report_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        table = {(row[0], row[1]): row[2] for row in csv.reader(fh)}
    found.check("summary.csv notebooks total", table.get(("notebooks", "total")),
                str(totals["total_notebooks"]))
    found.check("summary.csv notebooks executed", table.get(("notebooks", "executed")),
                str(totals["executed_notebooks"]))


def check_classification(report_dir: Path, expected: dict, found: Mismatches) -> None:
    data = json.loads((report_dir / "classification.json").read_text("utf-8"))
    classes = expected["classes"]
    assigned = {a["notebook_id"]: a["outcome_class"] for a in data["assignments"]}
    found.check("classification assignments", len(assigned), len(classes))
    wrong = sum(1 for nid, cls in classes.items() if assigned.get(nid) != cls)
    found.check("classification wrong assignments", wrong, 0)
    counts = Counter(classes.values())
    found.check("classification counts", data["counts"], dict(sorted(counts.items())))
    found.check("classification unmatched rows", data["unmatched_baseline_rows"],
                expected["unmatched"])
    install_failed = len(expected["install_failed"])
    found.check("classification resolution rate", data["resolution_rate"],
                100.0 * counts["A_EnvironmentResolved"] / install_failed
                if install_failed else None)


def report_bytes(report_dir: Path) -> dict[str, bytes]:
    """Report files with the line of the generation timestamp taken out."""
    lines = (report_dir / "report.json").read_bytes().splitlines(keepends=True)
    return {"report.json": b"".join(line for line in lines
                                    if not line.lstrip().startswith(b'"generated_at"')),
            "summary.csv": (report_dir / "summary.csv").read_bytes()}


def check_same_bytes(first: dict[str, bytes], later: dict[str, bytes],
                     found: Mismatches) -> None:
    for name, content in first.items():
        if later.get(name) == content:
            continue
        # aggregate_corpus sums scores in run_id order, and run ids are
        # random, so a mean can differ in its last bits from run to run, and
        # a mean on a rounding tie can print one unit apart in summary.csv.
        # That known defect is counted apart; any other difference is a
        # mismatch.
        if name == "report.json":
            drift = _same_up_to_rounding(json.loads(content), json.loads(later[name]))
        else:
            drift = _same_cells_up_to_last_digit(content, later[name])
        if drift:
            found.float_drift += 1
        else:
            found.check(f"{name} bytes equal across runs", False, True)


def _same_up_to_rounding(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_up_to_rounding(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_up_to_rounding, a, b))
    return a == b


def _same_cells_up_to_last_digit(first: bytes, later: bytes) -> bool:
    rows_a = list(csv.reader(first.decode("utf-8").splitlines()))
    rows_b = list(csv.reader(later.decode("utf-8").splitlines()))
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if row_a[:2] != row_b[:2]:
            return False
        a, b = row_a[2], row_b[2]
        if a == b:
            continue
        decimals = len(a.partition(".")[2])
        if "." not in a or len(b.partition(".")[2]) != decimals:
            return False
        if abs(float(a) - float(b)) > 1.5 * 10 ** -decimals:
            return False
    return True
