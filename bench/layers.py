"""Per-layer metrics derived from the spans of one traced nbrepro process.

``busy_s`` is the summed duration of a layer's spans, children included.
``self_s`` of a layer is the time its spans ran with none of their child
spans running. Spans a worker thread opens without a parent are children
of the innermost main-thread span that encloses them, so a pool's wait is
not counted as the pool's own work.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import MODULES, STORE_READS

# metric prefix -> span name
SPANS = {
    "pipeline.infer_repository": "pipeline.Pipeline.infer_repository",
    "pipeline.execute_run": "pipeline.Pipeline.execute_run",
    "pipeline.compare_run": "pipeline.Pipeline.compare_run",
    "pipeline.events": "pipeline.EventLog.emit",
    "corpus.validate": "corpus.validate_repository",
    "corpus.acquire": "corpus.acquire_repository",
    "corpus.discover": "corpus.discover_notebooks",
    "notebook.parse": "notebook.parse_notebook",
    "depinfer.synthesize": "depinfer.synthesize_dependency_spec",
    "depinfer.extract_imports": "depinfer.extract_imports",
    "containerize.write_recipe": "containerize.write_recipe",
    "containerize.cleanup": "containerize.cleanup_previous",
    "containerize.build": "containerize.build_image",
    "executor.execute": "executor.execute_notebook",
    "executor.extract_errors": "executor.extract_errors",
    "compare.compare_notebooks": "compare.compare_notebooks",
    "compare.detect_nondeterminism": "compare.detect_nondeterminism",
    "store.write": "store.Store._write",
    "report.aggregate": "report.aggregate_corpus",
    "report.emit": "report.emit_reports",
    "outcomes.read_baseline": "outcomes.read_baseline_csv",
    "outcomes.assign": "outcomes.assign_outcome_class",
    "cli.classify": "cli.cmd_classify",
}
# Every span above except those reported as ratios or percentiles only.
_BUSY = [key for key in SPANS
         if key not in ("containerize.write_recipe", "executor.execute")]
_READS = frozenset(f"store.Store.{name}" for name in STORE_READS)
_RUNTIME_VERBS = ("run", "cp", "rm")
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LAYERS = (*MODULES, "runtime")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(count: int) -> float | None:
    """Highest listed percentile with at least ten of ``count`` samples
    beyond it."""
    for pct in _TAIL_PERCENTILES:
        if count * (1 - pct / 100) >= 10:
            return pct
    return None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: list, counts: dict, jobs: int) -> dict[str, float]:
    """``counts`` gives the denominators: notebooks, code_cells and
    repositories_with_notebooks of the corpus."""
    by_id = {span[0]: span for span in spans}
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    main_thread = min(spans, key=lambda s: s[3])[6] if spans else None
    main_spans = sorted((s for s in spans if s[6] == main_thread), key=lambda s: s[3])

    children: dict[int, list] = defaultdict(list)
    for span in spans:
        parent = span[1]
        if parent is None and span[6] != main_thread:
            enclosing = [s for s in main_spans if s[3] <= span[3] and s[4] >= span[4]]
            parent = enclosing[-1][0] if enclosing else None
        if parent is not None:
            children[parent].append(span)

    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = span[2].split(".", 1)[0]
        covered = _union_length([(c[3], c[4]) for c in children[span[0]]])
        self_s[layer] = self_s.get(layer, 0.0) + (span[4] - span[3]) - covered

    def busy(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def inside(span, name: str) -> bool:
        parent = span[1]
        while parent is not None:
            if by_id[parent][2] == name:
                return True
            parent = by_id[parent][1]
        return False

    metrics: dict[str, float] = {}
    for key in _BUSY:
        metrics[f"{key}.busy_s"] = busy(SPANS[key])

    executions = by_name[SPANS["executor.execute"]]
    durations = [s[4] - s[3] for s in executions]
    runtime = [s for s in spans if s[2].startswith("runtime.")]
    per_notebook = [s for s in runtime if inside(s, SPANS["executor.execute"])]
    tail_pct = tail_percentile(len(durations))
    metrics.update({
        "executor.execute.p50_s": percentile(durations, 50) if durations else 0.0,
        "executor.execute.tail_s": percentile(durations, tail_pct) if tail_pct else 0.0,
        "executor.attempts_per_notebook": ratio(calls("runtime.run"), len(executions)),
        "runtime.calls_per_notebook": ratio(len(per_notebook), len(executions)),
        "runtime.calls": len(runtime),
        "runtime.busy_s": sum(s[4] - s[3] for s in runtime),
    })
    for verb in _RUNTIME_VERBS:
        metrics[f"runtime.{verb}.busy_s"] = busy(f"runtime.{verb}")

    parses = by_name[SPANS["notebook.parse"]]
    writes = calls(SPANS["store.write"])
    reads = [s for s in spans if s[2] in _READS]
    metrics.update({
        "notebook.parse.calls_per_notebook": ratio(len(parses), counts["notebooks"]),
        "notebook.parse.mb": sum(s[7] for s in parses) / 1e6,
        "depinfer.synthesize.calls_per_repo": ratio(
            calls(SPANS["depinfer.synthesize"]), counts["repositories_with_notebooks"]),
        "depinfer.extract_imports.calls_per_code_cell": ratio(
            calls(SPANS["depinfer.extract_imports"]), counts["code_cells"]),
        "containerize.write_recipe.calls_per_repo": ratio(
            calls(SPANS["containerize.write_recipe"]), counts["repositories_with_notebooks"]),
        "compare.detect_nondeterminism.calls_per_code_cell": ratio(
            calls(SPANS["compare.detect_nondeterminism"]), counts["code_cells"]),
        "pipeline.events.calls": calls(SPANS["pipeline.events"]),
        "store.write.calls": writes,
        "store.write.per_s": ratio(writes, busy(SPANS["store.write"])),
        "store.read.calls": len(reads),
        "store.read.busy_s": sum(s[4] - s[3] for s in reads),
        "store.read.rows": sum(s[7] for s in reads),
    })

    repository_spans = by_name["pipeline.Pipeline.run_repository"]
    passes = by_name["pipeline.Pipeline.map_repositories"]
    corpus_wall = max((s[4] - s[3] for s in passes), default=0.0)
    corpus_start = min((s[3] for s in passes), default=0.0)
    metrics["pipeline.repo_wait_s"] = sum(s[3] - corpus_start for s in repository_spans)
    metrics["pipeline.worker_idle_share"] = (
        1 - sum(s[4] - s[3] for s in repository_spans) / (jobs * corpus_wall)
        if repository_spans and corpus_wall else 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
