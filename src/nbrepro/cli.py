"""Command-line interface.

Subcommands expose each pipeline stage independently; ``run`` chains them.

  run       full pipeline: infer -> execute -> compare (-> classify) -> report
  infer     discovery, validation, dependency inference, recipe generation
  execute   clean-room image build + notebook execution (needs a runtime)
  compare   cell-level output comparison for executed runs
  report    corpus aggregation into report.json / summary.csv / summary.md
  classify  outcome classes A-D against a baseline export

``classify`` stores its classes, with the groups they were folded from, and
exports them; ``report`` reads the store.
Every subcommand takes the workspace flags (``--config``, ``--store``,
``--logdir``, ``--artifacts``, ``--report-dir``) and only the behaviour flags
its handler reads (``_COMMANDS``); any other flag is a usage error.
Exit codes: 0 complete, 2 partial (some repositories not fully assessed),
1 fatal, also for a locked store or a usage error; this module owns them.
Only the stage handlers import the pipeline, git and runtime modules, so
``report`` and ``classify`` never load them. The CLI makes no runtime call
of its own: each clean room's first call is the pipeline's one
reachability check.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sqlite3
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from nbrepro import __version__, atomic, report as reportmod
from nbrepro.config import ConfigError, PipelineConfig
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
from nbrepro.store import ExecutionStatus, LatestOutcome, ProvisioningStatus, Store, StoreError

if TYPE_CHECKING:
    from nbrepro.pipeline import Pipeline

logger = logging.getLogger(__name__)

EXIT_COMPLETE = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

CLASSIFICATION_FILE = "classification.json"

_INTERPRETATION_NOTE = (
    "outcome classes are assigned per notebook by fixed precedence "
    "(progress regression, resolution, persistence, drift, residual "
    "regression); repository-level groupings may differ"
)


# Every subcommand takes the workspace flags: the deployment's paths, and
# the config file that may name them.
_WORKSPACE_FLAGS = ("--config", "--store", "--logdir", "--artifacts", "--report-dir")

# Each subcommand's help and the behaviour flags its handler reads. A flag
# that a subcommand would ignore is a usage error there.
_COMMANDS = {
    "run": ("full pipeline over the input repositories",
            ("--input", "--jobs", "--build-timeout", "--exec-timeout", "--base-image",
             "--alias-table", "--scan-magic-installs", "--baseline", "--docker")),
    "infer": ("discovery, validation, and dependency inference only",
              ("--input", "--jobs", "--base-image", "--alias-table",
               "--scan-magic-installs")),
    "execute": ("build images and execute notebooks for inferred runs",
                ("--jobs", "--build-timeout", "--exec-timeout", "--docker")),
    "compare": ("compare executed artifacts against committed outputs", ("--jobs",)),
    "report": ("aggregate the store and emit reports", ()),
    "classify": ("assign outcome classes against a baseline export", ("--baseline",)),
}

# How each flag parses. Its dest (by default the flag's own name) is the
# PipelineConfig field it sets, or ``config``; an unset flag is None, and
# the config file's value stands.
_FLAGS = {
    "--config": dict(type=Path, help="JSON config file; flags take precedence"),
    "--store": dict(type=Path, dest="store_path", help="SQLite store file"),
    "--logdir": dict(type=Path, help="log directory root"),
    "--artifacts": dict(type=Path, dest="artifacts_dir",
                        help="artifacts directory (clones, executed notebooks)"),
    "--report-dir": dict(type=Path, help="directory for emitted reports"),
    "--input": dict(action="append", dest="inputs", metavar="URL_OR_PATH",
                    help="repository URL or local path; repeatable"),
    "--jobs": dict(type=int,
                   help="runtime budget: at most this many clean rooms (cleanup "
                        "and build) and notebook container runs at once, while "
                        "up to twice as many repositories are in flight, "
                        "cloning, inferring or comparing beside them (default 1)"),
    "--build-timeout": dict(type=float, help="image build timeout in seconds"),
    "--exec-timeout": dict(type=float, help="per-notebook execution timeout in seconds"),
    "--base-image": dict(help="container base image override"),
    "--alias-table": dict(type=Path, dest="alias_table_path",
                          help="JSON file extending the import alias table"),
    "--baseline": dict(type=Path, dest="baseline_path",
                       help="baseline CSV export for outcome classification"),
    "--scan-magic-installs": dict(action=argparse.BooleanOptionalAction, default=None,
                                  help="scan notebook pip-install lines as declared "
                                       "dependencies (default on)"),
    "--docker": dict(dest="docker_executable",
                     help="container runtime executable (default docker)"),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a flag it does not take is an error reported
    with its own usage, not passed up to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand. A flag is matched only as spelled in
    full: a prefix of another flag is an error, not that flag."""
    parser = argparse.ArgumentParser(
        prog="nbrepro", allow_abbrev=False,
        description="Containerized re-execution and reproducibility "
                    "assessment for notebook repositories.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_CommandParser)
    for name, (help_text, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in (*_WORKSPACE_FLAGS, *flags):
            sub.add_argument(flag, **_FLAGS[flag])
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


class PredecessorStateMissing(Exception):
    """A subcommand was invoked before the stage it depends on."""


def cmd_run(config: PipelineConfig, store: Store) -> int:
    from nbrepro.pipeline import Pipeline

    inputs = _unique(config.inputs)
    # A baseline or alias table that cannot be read stops the run first.
    baselines = (None if config.baseline_path is None
                 else read_baseline_csv(config.baseline_path))
    pipeline = Pipeline(config, store)
    pipeline.synthesis_tables  # noqa: B018 - loads the alias table
    code = _run_stage(pipeline, inputs, pipeline.run_repository)
    if baselines is not None:
        _write_classification(config, baselines, store)
    _emit_report(config, store)
    return code


def _run_stage(pipeline: Pipeline, items: list, stage) -> int:
    """Map one stage over the corpus and log one line per repository. The
    exit code is 0 when every repository was fully assessed and 2 when any
    was not; fatal corpus-level errors (exit 1) are raised, not returned."""
    results = pipeline.map_repositories(items, stage)
    for result in results:
        state = "ok" if result.completed else f"degraded: {result.degraded_reason}"
        logger.info("%s -> %s", result.url, state)
    return EXIT_PARTIAL if any(not r.completed for r in results) else EXIT_COMPLETE


def cmd_infer(config: PipelineConfig, store: Store) -> int:
    from nbrepro.pipeline import Pipeline

    inputs = _unique(config.inputs)
    pipeline = Pipeline(config, store)
    pipeline.synthesis_tables  # noqa: B018 - unreadable: fatal before any repository
    return _run_stage(pipeline, inputs, pipeline.infer_repository)


def _unique(inputs: list[str]) -> list[str]:
    """One input per repository, the first spelling kept: one run per
    repository per invocation. No input at all is a fatal error."""
    from nbrepro import corpus

    if not inputs:
        raise ConfigError("no repositories given; pass --input")
    first: dict[str, str] = {}
    for raw in inputs:
        first.setdefault(corpus.repository_id_for(corpus.canonical_input(raw)), raw)
    return list(first.values())


# What the execute or compare stage says when no latest run awaits it.
_NOTHING_AWAITING = {
    "execute": "no inferred runs are awaiting execution; run the infer "
               "subcommand first",
    "compare": "no executed artifacts for run; run the execute subcommand first",
}


def cmd_stored_stage(stage: str, config: PipelineConfig, store: Store) -> int:
    """The ``execute`` or ``compare`` stage over the latest runs awaiting it."""
    from nbrepro.pipeline import Pipeline

    pipeline = Pipeline(config, store)
    runs = pipeline.runs_awaiting(stage)
    if not runs:
        raise PredecessorStateMissing(_NOTHING_AWAITING[stage])
    step = pipeline.execute_run if stage == "execute" else pipeline.compare_run
    return _run_stage(pipeline, runs, step)


cmd_execute = functools.partial(cmd_stored_stage, "execute")
cmd_compare = functools.partial(cmd_stored_stage, "compare")


def cmd_report(config: PipelineConfig, store: Store) -> int:
    _emit_report(config, store)
    return EXIT_COMPLETE


def cmd_classify(config: PipelineConfig, store: Store) -> int:
    if config.baseline_path is None:
        raise ConfigError(
            "outcome classification requires a baseline export; pass --baseline")
    _write_classification(config, read_baseline_csv(config.baseline_path), store)
    return EXIT_COMPLETE


def _write_classification(config: PipelineConfig, baselines: list[BaselineRecord],
                          store: Store) -> None:
    # The counts and the groups commit in the transaction of the read they
    # are folded from. The groups' ids are freed before the payload is
    # rendered.
    with store.transaction():
        groups = store.latest_outcomes()
        payload = _classification(baselines, groups)
        store.record_classification(payload["counts"], payload["resolution_rate"], groups)
        del groups
    out_path = Path(config.report_dir) / CLASSIFICATION_FILE
    atomic.write_text(out_path, _render_classification(payload))
    logger.info("classification written to %s", out_path)


def _classification(baselines: list[BaselineRecord], groups: list[LatestOutcome]) -> dict:
    group_of: dict[str, int] = {}
    for index, group in enumerate(groups):
        group_of.update(dict.fromkeys(json.loads(group.notebook_ids), index))
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
    the outcome columns of ``group``, not its flag or its notebooks."""
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
    """Aggregate the store and write the reports. Every read is made in one
    transaction, as classify's are, so the report shows one state of the
    store; a write by another connection waits the read out."""
    export = Path(config.report_dir) / CLASSIFICATION_FILE
    with store.transaction():
        classification = store.classification()
        summary = reportmod.aggregate_corpus(store, classification)
    if classification is None and export.exists():
        logger.warning("%s does not describe this store as it is: the report "
                       "has no outcome classes until classify runs again",
                       export)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error; --help and --version exit 0
        return EXIT_FATAL if exc.code else EXIT_COMPLETE
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
    except sqlite3.OperationalError as exc:  # locked, or not writable
        logger.error("store %s: %s", config.store_path, exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
