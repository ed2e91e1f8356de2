"""Command-line interface.

Subcommands expose each pipeline stage independently; ``run`` chains them.

  run       full pipeline: infer -> execute -> compare (-> classify) -> report
  infer     discovery, validation, dependency inference, recipe generation
  execute   clean-room image build + notebook execution (needs a runtime)
  compare   cell-level output comparison for executed runs
  report    corpus aggregation into report.json / summary.csv / summary.md
  classify  outcome classes A-D against a baseline export

Exit codes: 0 complete, 2 partial (some repositories not fully assessed),
1 fatal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from collections import Counter
from pathlib import Path

from nbrepro import __version__, atomic, corpus, report as reportmod
from nbrepro.config import ConfigError, PipelineConfig
from nbrepro.containerize import DockerCli
from nbrepro.executor import ExecutionStatus
from nbrepro.outcomes import (
    BaselineRecord,
    CurrentOutcome,
    OutcomeClass,
    assign_outcome_class,
    containerized_success_rate_by_requirements,
    match_baselines,
    read_baseline_csv,
    resolution_rate,
    shows_drift,
    success_rate_by_requirements,
)
from nbrepro.pipeline import (
    EXIT_COMPLETE,
    EXIT_FATAL,
    Pipeline,
    PredecessorStateMissing,
    RepositoryResult,
    exit_code_for,
)
from nbrepro.store import LatestOutcome, ProvisioningStatus, Store, StoreError

logger = logging.getLogger(__name__)

CLASSIFICATION_FILE = "classification.json"

_INTERPRETATION_NOTE = (
    "outcome classes are assigned per notebook by fixed precedence "
    "(progress regression, resolution, persistence, drift, residual "
    "regression); repository-level groupings may differ"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbrepro",
        description="Containerized re-execution and reproducibility "
                    "assessment for notebook repositories.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, with_inputs: bool) -> None:
        if with_inputs:
            sub.add_argument("--input", action="append", dest="inputs",
                             metavar="URL_OR_PATH",
                             help="repository URL or local path; repeatable")
        sub.add_argument("--config", type=Path,
                         help="JSON config file; flags take precedence")
        sub.add_argument("--store", type=Path, dest="store_path",
                         help="SQLite store file")
        sub.add_argument("--logdir", type=Path, help="log directory root")
        sub.add_argument("--artifacts", type=Path, dest="artifacts_dir",
                         help="artifacts directory (clones, executed notebooks)")
        sub.add_argument("--report-dir", type=Path, dest="report_dir",
                         help="directory for emitted reports")
        sub.add_argument("--jobs", type=int,
                         help="work budget: at most this many repository "
                              "stages and notebook runs at once (default 1, "
                              "serial)")
        sub.add_argument("--build-timeout", type=float, dest="build_timeout",
                         help="image build timeout in seconds")
        sub.add_argument("--exec-timeout", type=float, dest="exec_timeout",
                         help="per-notebook execution timeout in seconds")
        sub.add_argument("--base-image", dest="base_image",
                         help="container base image override")
        sub.add_argument("--alias-table", type=Path, dest="alias_table_path",
                         help="JSON file extending the import alias table")
        sub.add_argument("--baseline", type=Path, dest="baseline_path",
                         help="baseline CSV export for outcome classification")
        sub.add_argument("--scan-magic-installs", dest="scan_magic_installs",
                         action=argparse.BooleanOptionalAction, default=None,
                         help="scan notebook pip-install lines as declared "
                              "dependencies (default on)")
        sub.add_argument("--docker", dest="docker_executable",
                         help="container runtime executable (default docker)")

    for name, help_text, with_inputs in (
        ("run", "full pipeline over the input repositories", True),
        ("infer", "discovery, validation, and dependency inference only", True),
        ("execute", "build images and execute notebooks for inferred runs", False),
        ("compare", "compare executed artifacts against committed outputs", False),
        ("report", "aggregate the store and emit reports", False),
        ("classify", "assign outcome classes against a baseline export", False),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        add_common(sub, with_inputs)
        sub.set_defaults(handler=_HANDLERS[name])
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = (PipelineConfig.from_file(args.config)
              if args.config else PipelineConfig())
    # A field without a flag is absent from args; an unset flag is None.
    for field in dataclasses.fields(PipelineConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    config.normalized()
    config.validate()
    return config


def cmd_run(config: PipelineConfig, store: Store) -> int:
    if not config.inputs:
        raise ConfigError("no repositories given; pass --input")
    pipeline = Pipeline(config, store)
    results, code = pipeline.run_corpus(_unique(config.inputs))
    if config.baseline_path is not None:
        cmd_classify(config, store)
    _emit_report(config, store)
    _log_results(results)
    return code


def _log_results(results: list[RepositoryResult]) -> None:
    for result in results:
        state = "ok" if result.completed else f"degraded: {result.degraded_reason}"
        logger.info("%s -> %s", result.url, state)


def _run_stage(pipeline: Pipeline, items: list, stage) -> int:
    """Map one stage over the corpus, log one line per repository and
    return the exit code."""
    results = pipeline.map_repositories(items, stage)
    _log_results(results)
    return exit_code_for(results)


def cmd_infer(config: PipelineConfig, store: Store) -> int:
    if not config.inputs:
        raise ConfigError("no repositories given; pass --input")
    pipeline = Pipeline(config, store)
    return _run_stage(pipeline, _unique(config.inputs), pipeline.infer_repository)


def _unique(inputs: list[str]) -> list[str]:
    """One input per repository, the first spelling kept: one run per
    repository per invocation."""
    first: dict[str, str] = {}
    for raw in inputs:
        first.setdefault(corpus.repository_id_for(corpus.canonical_input(raw)), raw)
    return list(first.values())


def cmd_execute(config: PipelineConfig, store: Store) -> int:
    docker = DockerCli(config.docker_executable)
    if not docker.available():
        raise PredecessorStateMissing(
            f"container runtime {config.docker_executable!r} is not reachable; "
            "the execute stage requires one")
    pipeline = Pipeline(config, store, docker)
    runs = [run for run in store.latest_runs().values()
            if run.provisioning_status is ProvisioningStatus.PENDING]
    if not runs:
        raise PredecessorStateMissing(
            "no inferred runs are awaiting execution; run the infer "
            "subcommand first")
    return _run_stage(pipeline, runs, pipeline.execute_run)


def cmd_compare(config: PipelineConfig, store: Store) -> int:
    pipeline = Pipeline(config, store)
    # Only runs that execute finished so hold execution rows.
    executed = (ProvisioningStatus.ENVIRONMENT_BUILT, ProvisioningStatus.KERNEL_NOT_FOUND)
    candidates = [run for run in store.latest_runs().values()
                  if run.provisioning_status in executed]
    if not candidates:
        raise PredecessorStateMissing(
            "no executed artifacts for run; run the execute subcommand first")
    return _run_stage(pipeline, candidates, pipeline.compare_run)


def cmd_report(config: PipelineConfig, store: Store) -> int:
    _emit_report(config, store)
    return EXIT_COMPLETE


def cmd_classify(config: PipelineConfig, store: Store) -> int:
    if config.baseline_path is None:
        raise ConfigError(
            "outcome classification requires a baseline export; pass --baseline")
    # The store rows stay inside _classification, so they are freed before
    # the payload is rendered.
    payload = _classification(read_baseline_csv(config.baseline_path), store)
    out_path = Path(config.report_dir) / CLASSIFICATION_FILE
    atomic.write_text(out_path, _render_classification(payload))
    logger.info("classification written to %s", out_path)
    return EXIT_COMPLETE


def _classification(baselines: list[BaselineRecord], store: Store) -> dict:
    groups = store.latest_outcomes()
    group_of: dict[str, int] = {}
    for index, group in enumerate(groups):
        group_of.update(dict.fromkeys(group.notebook_ids, index))
    matched, unmatched = match_baselines(baselines, group_of.keys())

    # Baseline rows repeat few pairs of statuses, and a corpus few outcomes
    # even where its error messages vary. So the matched rows are counted
    # per (pair, group) and each key is classified once: the classifier
    # reads only a row's two statuses, so a record of the pair stands for
    # every row of the key.
    keys = [(b.prev_dependency_install, b.prev_execution_status,
             group_of[b.notebook_id]) for b in matched]
    class_values: dict[tuple[str, str, int], str] = {}
    counts: Counter[str] = Counter()
    baseline_classes: Counter[tuple[BaselineRecord, OutcomeClass]] = Counter()
    baseline_runs: Counter[tuple[bool, bool]] = Counter()
    for key, notebooks in Counter(keys).items():
        install, status, index = key
        group = groups[index]
        baseline = BaselineRecord("", install, status)
        cls = assign_outcome_class(baseline, _current_outcome(group))
        class_values[key] = cls.value
        counts[cls.value] += notebooks
        baseline_classes[baseline, cls] += notebooks
        baseline_runs[bool(group.has_requirements_file),
                      not baseline.install_failed
                      and baseline.execution_succeeded] += notebooks

    return {
        "note": _INTERPRETATION_NOTE,
        "resolution_rate": resolution_rate(baseline_classes),
        "counts": dict(sorted(counts.items())),
        "baseline_success_rate_by_requirements":
            success_rate_by_requirements(baseline_runs),
        "containerized_success_rate_by_requirements":
            containerized_success_rate_by_requirements(groups),
        "unmatched_baseline_rows": sorted(b.notebook_id for b in unmatched),
        "assignments": [
            {"notebook_id": b.notebook_id, "outcome_class": class_values[key]}
            for b, key in zip(matched, keys)
        ],
    }


def _current_outcome(group: LatestOutcome) -> CurrentOutcome:
    """The signature of an outcome in a repository's latest run; it reads
    every column of ``group`` but the requirements flag and the notebooks'
    ids."""
    if group.provisioning_status is None:
        return CurrentOutcome(ProvisioningStatus.PENDING)
    execution = None
    if group.execution_status is not None:
        execution = ExecutionStatus(group.execution_status)
    # An unscored (structural-mismatch) or uncompared outcome shows no drift.
    drifted = group.structural_mismatch == 0 and shows_drift(
        group.different_count, group.nondeterministic_count, group.score)
    return CurrentOutcome(ProvisioningStatus(group.provisioning_status),
                          group.build_phase, execution,
                          frozenset(error_type for error_type, _
                                    in json.loads(group.error_pairs)),
                          drifted)


# One assignment as json.dumps(..., indent=2) lays it out inside the payload.
_ASSIGNMENT = '    {\n      "notebook_id": %s,\n      "outcome_class": %s\n    }'


def _render_classification(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for
    byte. The indenting encoder is pure Python, so the assignments, one per
    notebook, are written from a template with C-encoded strings instead."""
    quote = json.encoder.encode_basestring_ascii
    rows = ",\n".join(
        _ASSIGNMENT % (quote(a["notebook_id"]), quote(a["outcome_class"]))
        for a in payload["assignments"])
    head = json.dumps({k: v for k, v in payload.items() if k != "assignments"},
                      indent=2, sort_keys=True)
    # "assignments" sorts before every other key, so it opens the object.
    return ('{\n  "assignments": ' + (f"[\n{rows}\n  ]" if rows else "[]")
            + ",\n" + head[len("{\n"):] + "\n")


def _emit_report(config: PipelineConfig, store: Store) -> None:
    classification = None
    rate = None
    classification_path = Path(config.report_dir) / CLASSIFICATION_FILE
    if classification_path.exists():
        try:
            data = json.loads(classification_path.read_text("utf-8"))
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            classification = data.get("counts", {})
            rate = data.get("resolution_rate")
            if not (isinstance(classification, dict)
                    and all(type(count) is int for count in classification.values())
                    and (rate is None or type(rate) in (int, float))):
                raise ValueError("the counts must be whole numbers and the "
                                 "resolution rate a number")
        except ValueError as exc:
            raise ValueError(f"cannot read {classification_path}: {exc}") from exc
    summary = reportmod.aggregate_corpus(store, classification, rate)
    paths = reportmod.emit_reports(summary, Path(config.report_dir))
    logger.info("reports written: %s", ", ".join(str(p) for p in paths))


_HANDLERS = {
    "run": cmd_run,
    "infer": cmd_infer,
    "execute": cmd_execute,
    "compare": cmd_compare,
    "report": cmd_report,
    "classify": cmd_classify,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        with Store(config.store_path) as store:
            return args.handler(config, store)
    except (ConfigError, PredecessorStateMissing, StoreError, ValueError) as exc:
        logger.error("%s", exc)
        return EXIT_FATAL
    except OSError as exc:
        logger.error("fatal i/o error: %s", exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
