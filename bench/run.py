"""nbrepro benchmark: one workload, timed end to end, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/nbrepro``. The workload's
inputs are generated from the seed under ``.bench_work/``; nbrepro sees only
those inputs. Each repetition launches nbrepro as a fresh process on the
resolved interpreter, with the POSIX ``sh`` stub in place of the container
runtime. Repetitions continue while another one fits in the seconds given
(at least one); every metric is the median over them.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
untraced and traced repetitions alternate: the traced ones give the
per-layer metrics, and the difference of the two medians is the tracing
overhead. Every repetition's store and reports are checked against the
generator's expectation; any mismatch makes the run incorrect and the exit
code 1. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STUB = BENCH / "stub_runtime.sh"
LAUNCH = BENCH / "launch.py"
_DEGRADED_RE = re.compile(r" -> degraded: ")

END_TO_END_UNITS = {"wall_s": "s", "notebooks_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class PipelineWorkload:
    """``nbrepro run`` over a generated corpus with a given stub delay."""

    notebooks_per_repo: tuple[int, ...]
    code_cells: int
    png_share: float
    random_share: float
    edge_repositories: bool
    jobs: int
    delay_s: float = 0.0
    run_delay_s: float = 0.0
    build_delay_s: float = 0.0


@dataclass(frozen=True)
class ReportWorkload:
    """``nbrepro classify`` then ``nbrepro report`` over a populated store."""

    repositories: int
    notebooks_per_repo: int
    code_cells: int
    unmatched_rows: int


WORKLOADS = {
    # Parsing, dependency synthesis, comparison and store writes dominate;
    # the runtime adds no delay.
    "wide_cells": PipelineWorkload(
        notebooks_per_repo=(10,) * 10, code_cells=50, png_share=0.05,
        random_share=0.10, edge_repositories=True, jobs=1),
    # One repository of 50 notebooks and nine of 2 on two workers, with a
    # runtime that waits on every call: the large repository's serial chain
    # (build + 50 x (run, cp, rm)) is about 1.5x the rest of the corpus, so
    # one worker idles while the other finishes it.
    "skewed_runtime": PipelineWorkload(
        notebooks_per_repo=(50,) + (2,) * 9, code_cells=8, png_share=0.0,
        random_share=0.10, edge_repositories=False, jobs=2,
        delay_s=0.01, run_delay_s=0.08, build_delay_s=0.10),
    # Reads only: full-table loads in the report and point lookups per
    # notebook in classify; no writes and no subprocesses.
    "report_large": ReportWorkload(
        repositories=1000, notebooks_per_repo=50, code_cells=20, unmatched_rows=500),
}


@dataclass
class Launch:
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    exit_code: int
    degraded: int
    spans: list


def launch(argv: list[str], rep_dir: Path, trace: bool, env: dict) -> Launch:
    """Run one nbrepro command in its own process and collect its probe."""
    probe_path = rep_dir / f"probe-{argv[0]}.json"
    with open(rep_dir / f"nbrepro-{argv[0]}.log", "w+", encoding="utf-8") as log:
        started = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(probe_path), "1" if trace else "0", *argv],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        code = process.wait()
        wall = time.monotonic() - started
        log.seek(0)
        degraded = len(_DEGRADED_RE.findall(log.read()))
    probe = json.loads(probe_path.read_text("utf-8")) if probe_path.exists() else {}
    stamps = probe.get("stamps", {})
    first = stamps.get("first_repository", stamps.get("handler"))
    return Launch(wall_s=wall, setup_s=None if first is None else first - started,
                  peak_rss_mb=probe.get("maxrss_kib", 0) / 1024, exit_code=code,
                  degraded=degraded, spans=probe.get("spans", []))


class Result:
    """Per-repetition samples and checks of one workload run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
        self.traced_walls: list[float] = []
        self.untraced_walls: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = oracle.Mismatches()
        self.first_reports: dict[str, bytes] | None = None

    def add(self, launches: list[Launch], notebooks: int, trace: bool,
            report_dir: Path) -> None:
        wall = sum(item.wall_s for item in launches)
        (self.traced_walls if trace else self.untraced_walls).append(wall)
        if not trace:
            self.samples["wall_s"].append(wall)
            self.samples["notebooks_per_s"].append(notebooks / wall)
            self.samples["peak_rss_mb"].append(max(item.peak_rss_mb for item in launches))
            self.samples["setup_s"] += [item.setup_s for item in launches
                                        if item.setup_s is not None]
        reports = oracle.report_bytes(report_dir)
        if self.first_reports is None:
            self.first_reports = reports
        else:
            oracle.check_same_bytes(self.first_reports, reports, self.mismatches)


def _another_repetition(started: float, done: int, seconds: float, trace: bool) -> bool:
    """Repeat while one more repetition of the average length still fits in
    ``seconds``; a traced run needs an untraced and a traced one at least."""
    elapsed = time.monotonic() - started
    return (trace and done < 2) or elapsed + elapsed / done <= seconds


def _measure(work: Path, seconds: float, trace: bool, notebooks: int, counts: dict,
             jobs: int, repetition) -> Result:
    """Call ``repetition(rep_dir, traced, result)``, which launches and checks
    one repetition and returns its launches and spans, until the seconds are
    spent. Each repetition keeps its own directory until the next run, so no
    deletion runs while a later repetition is timed."""
    result = Result()
    started = time.monotonic()
    done = 0
    while True:
        traced = trace and done % 2 == 1
        rep_dir = work / f"rep-{done}"
        rep_dir.mkdir()
        launches, spans = repetition(rep_dir, traced, result)
        result.add(launches, notebooks, traced, rep_dir / "reports")
        if traced:
            result.layers.append(layers.layer_metrics(spans, counts, jobs))
        done += 1
        if not _another_repetition(started, done, seconds, trace):
            return result


def run_pipeline(spec: PipelineWorkload, work: Path, seed: int, seconds: float,
                 trace: bool) -> Result:
    import corpus_gen  # imports nbrepro; main puts src on the path

    shape = corpus_gen.CorpusShape(spec.notebooks_per_repo, spec.code_cells,
                                   spec.png_share, spec.random_share,
                                   spec.edge_repositories)
    expected = corpus_gen.generate_pipeline_corpus(work / "corpus", seed, shape)
    repos = expected["repositories"]
    notebooks = [nb for repo in repos for nb in repo["notebooks"].values()]
    counts = {"notebooks": len(notebooks),
              "code_cells": sum(nb["code_cells"] or 0 for nb in notebooks),
              "repositories_with_notebooks": sum(1 for r in repos if r["notebooks"])}
    totals = oracle.pipeline_report_totals(expected)
    inputs = [arg for repo in repos for arg in ("--input", repo["input"])]

    def repetition(rep_dir: Path, traced: bool, result: Result):
        state = rep_dir / "stub"
        (state / "images").mkdir(parents=True)
        (state / "containers").mkdir()
        env = {**os.environ,
               "BENCH_STUB_STATE": str(state),
               "BENCH_STUB_EXECUTED": str(work / "corpus" / "executed"),
               "BENCH_STUB_DELAY_S": str(spec.delay_s),
               "BENCH_STUB_RUN_DELAY_S": str(spec.run_delay_s),
               "BENCH_STUB_BUILD_DELAY_S": str(spec.build_delay_s)}
        item = launch(["run", *inputs, "--store", str(rep_dir / "store.sqlite3"),
                       "--logdir", str(rep_dir / "logs"),
                       "--artifacts", str(rep_dir / "artifacts"),
                       "--report-dir", str(rep_dir / "reports"), "--jobs", str(spec.jobs),
                       "--docker", str(STUB)], rep_dir, traced, env)
        result.attempted += len(repos)
        result.failed += len(repos) if item.exit_code == 1 else item.degraded
        oracle.check_pipeline_store(rep_dir / "store.sqlite3", expected, result.mismatches)
        oracle.check_report(rep_dir / "reports", totals, result.mismatches)
        return [item], item.spans

    return _measure(work, seconds, trace, len(notebooks), counts, spec.jobs, repetition)


def run_report(spec: ReportWorkload, work: Path, seed: int, seconds: float,
               trace: bool) -> Result:
    import corpus_gen  # imports nbrepro; main puts src on the path

    (work / "corpus").mkdir()
    expected = corpus_gen.generate_report_store(
        work / "corpus", seed, spec.repositories, spec.notebooks_per_repo,
        spec.code_cells, spec.unmatched_rows)
    store = work / "corpus" / "store.sqlite3"
    baseline = work / "corpus" / "baseline.csv"
    notebooks = len(expected["notebooks"])
    counts = {"notebooks": notebooks, "code_cells": notebooks * spec.code_cells,
              "repositories_with_notebooks": spec.repositories}
    totals = oracle.report_large_totals(expected)

    def repetition(rep_dir: Path, traced: bool, result: Result):
        common = ["--store", str(store), "--report-dir", str(rep_dir / "reports"),
                  "--logdir", str(rep_dir / "logs")]
        items = [launch(["classify", *common, "--baseline", str(baseline)],
                        rep_dir, traced, dict(os.environ)),
                 launch(["report", *common], rep_dir, traced, dict(os.environ))]
        result.attempted += len(items)
        result.failed += sum(1 for item in items if item.exit_code != 0)
        oracle.check_classification(rep_dir / "reports", expected, result.mismatches)
        oracle.check_report(rep_dir / "reports", totals, result.mismatches)
        # The two processes' span ids overlap; shift the second's.
        shift = 1 + max((span[0] for span in items[0].spans), default=0)
        return items, items[0].spans + [
            [s[0] + shift, None if s[1] is None else s[1] + shift, *s[2:]]
            for s in items[1].spans]

    return _measure(work, seconds, trace, notebooks, counts, 1, repetition)


def per_layer_units(name: str) -> str:
    if name.endswith(".per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith(".mb"):
        return "MB"
    if "_per_" in name:
        return "calls/" + name.rsplit("_per_", 1)[1].replace("code_cell", "cell")
    return "count"


def summarize(name: str, result: Result, trace: bool) -> dict:
    median = statistics.median
    metrics: dict[str, dict] = {}
    if trace:
        for key in result.layers[0]:
            metrics[key] = {"value": median(layer[key] for layer in result.layers),
                            "unit": per_layer_units(key)}
        metrics["trace.overhead_s"] = {
            "value": median(result.traced_walls) - median(result.untraced_walls),
            "unit": "s"}
    else:
        for key, unit in END_TO_END_UNITS.items():
            metrics[key] = {"value": median(result.samples[key]), "unit": unit}
    reps = len(result.traced_walls) + len(result.untraced_walls)
    print(f"workload {name}: {reps} repetitions"
          + (f", {len(result.layers)} traced" if trace else ""))
    for key, metric in metrics.items():
        print(f"  {key:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<52} {result.failed / result.attempted:>14.6g} ratio")
    print(f"  {'output_mismatches':<52} {result.mismatches.count:>14d} count")
    print(f"  {'report_float_drift':<52} {result.mismatches.float_drift:>14d} count")
    walls = ", ".join(f"{wall:.3f}" for wall in result.untraced_walls)
    print(f"  untraced wall_s per repetition: {walls}")
    for example in result.mismatches.examples:
        print(f"mismatch: {example}", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nbrepro" / "cli.py").is_file():
        print(f"no nbrepro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if not os.access(STUB, os.X_OK):
        STUB.chmod(0o755)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        spec = WORKLOADS[name]
        work = ROOT / ".bench_work" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = run_report if isinstance(spec, ReportWorkload) else run_pipeline
        result = runner(spec, work, args.seed, args.seconds, bool(args.trace))
        workload_metrics = summarize(name, result, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in workload_metrics.items()})
        correct = correct and result.mismatches.count == 0
        attempted += result.attempted
        failed += result.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
