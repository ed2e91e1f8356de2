"""Four-stage orchestration over a repository corpus.

Per repository: validate -> acquire -> discover -> infer -> recipe ->
cleanup -> build -> execute -> compare. Each stage maps over the corpus on
one ``--jobs`` budget of slots, and a slot covers only runtime work: a
repository's clean room (its cleanup and no-cache build) or one notebook's
container run. Validation, the clone, discovery, synthesis, a notebook's
copy-out and removal, and comparison hold none, and nothing waits while
holding one. A failing repository becomes data, never a corpus abort. Every
``--jobs`` value takes the same path: repositories run on a pool of
``2 * jobs`` worker threads, so that beside every repository using the
runtime another can clone, infer or compare, and notebooks on a second pool
of ``jobs``, both opened and closed around the stage, where a repository
waiting for its notebooks runs the ones not yet started on its own thread.
Infer holds facts, not parsed notebooks. A large repository's notebooks run
side by side while the clean room holds (its cleanup and no-cache build
finish before any of its notebooks start, and each notebook gets its own
fresh container). This
module is the only writer of the store: a stage records each repository's
outcome in one transaction on that repository's thread, never a partial
one, and compare finds its work with one query. After Ctrl-C, no further
container starts and nothing is recorded; an unreachable runtime records
nothing either, at any runtime call. Every stage appends machine-parseable
events, each naming the invocation, to the event log beside the raw tool
logs. All parallelism lives here. One table,
``NEXT_STAGE``, sends a stored run to its next stage by its status: the
execute and compare stages take the latest runs it sends them, and
``run_repository`` follows it after infer. The pipeline builds the one
runtime client. A stage returns one ``RepositoryResult`` per repository;
the CLI turns them into an exit code, and the read-only commands never
import this module.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path

from nbrepro import atomic, compare as comparemod
from nbrepro import containerize, corpus, depinfer, executor, notebook as nbmodel
from nbrepro.config import PipelineConfig
from nbrepro.containerize import BuildFailure
from nbrepro.store import (
    ExecutionRecord, ExecutionStatus, NotebookDescriptor, ProvisioningStatus,
    Repository, RunRecord, Store, new_invocation_id, utc_now_iso)

logger = logging.getLogger(__name__)

# The stage a stored run goes to next, by its status; other statuses are final.
NEXT_STAGE = {ProvisioningStatus.PENDING: "execute",
              ProvisioningStatus.ENVIRONMENT_BUILT: "compare",
              ProvisioningStatus.KERNEL_NOT_FOUND: "compare"}

@dataclass
class RepositoryResult:
    """Machinery outcome for one repository; failed builds and errored
    notebooks are data and still count as completed assessments."""

    url: str
    repository_id: str | None = None
    run_id: str | None = None
    degraded_reason: str | None = None

    @property
    def completed(self) -> bool:
        return self.degraded_reason is None


class EventLog:
    """Line-delimited JSON event records of one invocation, appended to one
    file per store location."""

    def __init__(self, path: Path, invocation_id: str) -> None:
        self.path = path
        self.invocation_id = invocation_id
        self._lock = threading.Lock()
        path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, stage: str, event: str, **details) -> None:
        record = {"ts": utc_now_iso(), "invocation_id": self.invocation_id,
                  "stage": stage, "event": event, **details}
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


class WorkBudget:
    """``jobs`` slots shared by the runtime units of one stage, and the pool
    that stage's notebooks run on.

    A unit is a repository's clean room or one notebook's container run; it
    holds one of ``slots`` while it runs, so at most ``jobs`` units are in
    flight. Nothing waits while holding a slot: a notebook's copy-out and
    removal, and all of a repository's other work, hold none. The caller of
    ``map`` runs its own not yet started calls on its thread, so the thread
    count stays O(jobs). The caller owns the pool and shuts it down once
    the stage is over.
    """

    def __init__(self, jobs: int, pool: ThreadPoolExecutor) -> None:
        self.slots = threading.BoundedSemaphore(jobs)
        self.pool = pool

    def map(self, fn, items: list) -> list:
        """``[fn(item) for item in items]`` on the notebook pool; each call
        takes ``slots`` itself for what needs one, and the caller holds
        none. The caller runs on its own thread each call the pool has not
        started (a successful ``cancel`` claims it) and waits for the rest.
        Once none of the calls is running, the first exception in item
        order is raised and any later ones are logged.
        """
        futures = [self.pool.submit(fn, item) for item in items]
        futures = [_run_here(fn, item) if future.cancel() else future
                   for future, item in zip(futures, items)]
        wait(futures)
        failures = [f.exception() for f in futures if f.exception() is not None]
        for exc in failures[1:]:
            logger.error("unit of work failed as well", exc_info=exc)
        if failures:
            raise failures[0]
        return [future.result() for future in futures]


class _NotStarted(Exception):
    """A notebook's slot was taken after Ctrl-C; its container never ran."""


def _run_here(fn, item) -> Future:
    """``fn(item)`` run on the calling thread, as a finished future; an
    exception, a KeyboardInterrupt too, is kept in it as a pool keeps it."""
    future = Future()
    try:
        future.set_result(fn(item))
    except BaseException as exc:  # noqa: BLE001 - map raises it
        future.set_exception(exc)
    return future


class Pipeline:
    def __init__(self, config: PipelineConfig, store: Store) -> None:
        self.config = config
        self.store = store
        self.docker = containerize.DockerCli(config.docker_executable)
        self.invocation_id = new_invocation_id()
        self.events = EventLog(Path(config.logdir) / "events.ndjson",
                               self.invocation_id)
        # Set when the caller of map_repositories was interrupted.
        self.interrupted = threading.Event()

    @functools.cached_property
    def synthesis_tables(self) -> tuple[dict[str, str], frozenset[str]]:
        """The import alias table and the standard-library names, loaded on
        first use: only the stages that infer read them."""
        return (depinfer.load_alias_table(self.config.alias_table_path),
                depinfer.load_stdlib_modules())

    # ---- stage 1 + 2: discovery, validation, inference ----------------------

    def infer_repository(self, raw_input: str) -> RepositoryResult:
        # git reads ``url``; events spell the URL as the store does.
        url = corpus.canonical_input(raw_input)
        repository_id = corpus.repository_id_for(url)
        result = self._result_for(raw_input)
        self.events.emit("infer", "start", url=result.url, repository_id=repository_id)

        try:
            validation = corpus.validate_repository(
                url, timeout=self.config.validation_timeout)
        except corpus.TransientNetworkError as exc:
            # Timed out, or killed by the signal of a Ctrl-C: worth a retry.
            # The event keeps its name for both.
            self.events.emit("infer", "validation_timeout", url=result.url,
                             repository_id=repository_id, error=str(exc))
            result.degraded_reason = f"validation did not finish: {exc}"
            return result

        result.repository_id = repository_id
        run = RunRecord(
            run_id=corpus.new_run_id(),
            repository_id=repository_id,
            invocation_id=self.invocation_id,
            started_at=utc_now_iso(),
        )
        result.run_id = run.run_id
        known = Repository(repository_id=repository_id, url=result.url)

        if validation is not corpus.ValidationResult.ACCESSIBLE:
            self._record_inferred(result, known, run, ProvisioningStatus.INVALID_URL,
                                  validation.value)
            self.events.emit("infer", "invalid_url", url=result.url,
                             reason=validation.value,
                             repository_id=repository_id, run_id=run.run_id)
            return result

        try:
            repo = corpus.acquire_repository(
                url, Path(self.config.artifacts_dir) / "repos")
        except corpus.AcquisitionError as exc:
            # Transient: validation said accessible but the clone failed.
            self.events.emit("infer", "acquisition_failed", url=result.url,
                             error=str(exc),
                             repository_id=repository_id, run_id=run.run_id)
            result.degraded_reason = str(exc)
            # The failed clone deleted the tree; the stored facts stand. The
            # run stays Pending, and unfinished, with the reason.
            known = self.store.get_repository(repository_id) or known
            return self._record_inferred(
                result, replace(known, local_path=None, accessible=True),
                replace(run, status_reason=f"acquisition failed: {exc}"))

        tree = Path(repo.local_path or "")
        run = replace(run, revision=corpus.current_revision(tree))
        descriptors, imported, magic = corpus.discover_notebooks(repo)
        repo = replace(repo, notebook_count=len(descriptors))
        self.events.emit("infer", "discovered", repository_id=repository_id,
                         run_id=run.run_id, notebooks=len(descriptors))
        if not descriptors:
            return self._record_inferred(result, repo, run,
                                         ProvisioningStatus.NO_PYTHON_NOTEBOOKS)

        aliases, stdlib = self.synthesis_tables
        spec = depinfer.synthesize_dependency_spec(
            repo,
            imported,
            magic if self.config.scan_magic_installs else (),
            notebook_paths=[d.relative_path for d in descriptors
                            if not d.parse_failed],
            tree=tree,
            aliases=aliases,
            stdlib=stdlib,
        )
        recipe = containerize.generate_build_recipe(
            spec, context_dir=tree, base_image=self.config.base_image)
        containerize.write_recipe(recipe, _dockerfile_for(tree))
        # The run is Pending, i.e. ready to execute, only once its recipe is
        # on disk.
        self._record_inferred(result, repo, run, notebooks=descriptors)
        self.events.emit("infer", "synthesized", repository_id=repository_id,
                         run_id=run.run_id, requirements=len(spec.requirements))
        return result

    def _record_inferred(self, result: RepositoryResult, repo: Repository,
                         run: RunRecord, status: ProvisioningStatus | None = None,
                         reason: str | None = None,
                         notebooks: list[NotebookDescriptor] | tuple = ()
                         ) -> RepositoryResult:
        """One infer outcome in one transaction: the repository row, its
        notebooks and its run, finished with ``status`` unless that is None.
        After the invocation was interrupted nothing is recorded, so the
        next infer starts the repository afresh."""
        if self._interrupted(result):
            return result
        with self.store.transaction():
            self.store.upsert_repository(repo)
            for descriptor in notebooks:
                self.store.upsert_notebook(descriptor)
            self.store.insert_run(run)
            if status is not None:
                self.store.finish_run(run, status, reason=reason)
        return result

    # ---- stage 3: clean-room build + execution ------------------------------

    def execute_run(self, run: RunRecord) -> RepositoryResult:
        repo = self.store.get_repository(run.repository_id)
        result = self._result_for(run, repo)
        if repo is None or not repo.local_path:
            result.degraded_reason = "repository tree missing; rerun the infer stage"
            return result

        # Infer is the only writer of the recipe; execute builds its bytes.
        tree = Path(repo.local_path)
        dockerfile = _dockerfile_for(tree)
        if not (dockerfile.is_file()
                and (tree / containerize.SYNTHESIZED_MANIFEST_NAME).is_file()):
            result.degraded_reason = "build recipe missing; rerun the infer stage"
            return result

        logdir = Path(self.config.logdir) / run.run_id
        ids = {"repository_id": repo.repository_id, "run_id": run.run_id}
        try:
            # The clean room is one runtime unit. Ctrl-C is checked once its
            # slot is held: after it, no clean room starts and the run stays
            # Pending.
            with self.budget.slots:
                if self._interrupted(result):
                    return result
                self.events.emit("execute", "cleanup", **ids)
                containerize.cleanup_previous(repo.repository_id, self.docker)
                if self._interrupted(result):
                    return result
                tag = containerize.image_tag_for(repo.repository_id, run.run_id)
                self.events.emit("execute", "build_start", tag=tag, **ids)
                started = time.monotonic()
                built = containerize.build_image(
                    tag, dockerfile, tree, self.docker,
                    timeout=self.config.build_timeout, log_path=logdir / "build.log")
                build_duration_s = time.monotonic() - started
            if isinstance(built, BuildFailure):
                self.events.emit("execute", "build_failed", phase=built.phase.value,
                                 duration_s=build_duration_s, **ids)
                return self._record_executed(
                    result, run, ProvisioningStatus.BUILD_FAILED,
                    reason=f"{built.phase.value}: {built.last_line}",
                    build_duration_s=build_duration_s)
            self.events.emit("execute", "build_done", tag=tag,
                             duration_s=build_duration_s, **ids)

            # The image is built: the notebooks fan out on the shared budget.
            # Their rows commit with the run's outcome: an interrupted execute
            # leaves the run Pending with no rows, and the next one repeats it.
            records = self.budget.map(
                functools.partial(self._execute_notebook, run.run_id, built, logdir),
                self.store.list_notebooks(repo.repository_id))
        except containerize.ContainerRuntimeUnavailable as exc:
            # An outage is no outcome of the run, at whichever call it shows:
            # the run stays Pending, with no rows, and the next execute
            # resumes it.
            self.events.emit("execute", "runtime_unavailable", **ids)
            result.degraded_reason = f"container runtime unavailable: {exc}"
            return result
        if self._interrupted(result):  # notebooks not started returned None
            return result

        # An environment in which no notebook ever found a usable kernel is
        # a provisioning-level kernel failure, not a built environment.
        status = ProvisioningStatus.ENVIRONMENT_BUILT
        if records and all(r.status is ExecutionStatus.KERNEL_NOT_FOUND for r in records):
            status = ProvisioningStatus.KERNEL_NOT_FOUND
        return self._record_executed(result, run, status, records,
                                     image_reference=built,
                                     build_duration_s=build_duration_s)

    def _record_executed(self, result: RepositoryResult, run: RunRecord,
                         status: ProvisioningStatus,
                         records: list[ExecutionRecord] | tuple = (),
                         **finish) -> RepositoryResult:
        """One execute outcome in one transaction: the run's execution rows
        and its finish. Rows of this run already in the store go first; only
        a store written before outcomes were committed whole holds any. After
        the invocation was interrupted nothing is recorded, and the run stays
        Pending for the next execute."""
        if self._interrupted(result):
            return result
        with self.store.transaction():
            self.store.delete_run_results(run)
            for record in records:
                self.store.insert_execution(record)
            self.store.finish_run(run, status, **finish)
        return result

    def _interrupted(self, result: RepositoryResult) -> bool:
        """Whether Ctrl-C was seen; if so, ``result`` says nothing was recorded."""
        if not self.interrupted.is_set():
            return False
        result.degraded_reason = "interrupted; nothing was recorded"
        return True

    def _execute_notebook(self, run_id: str, image: str, logdir: Path,
                          descriptor: NotebookDescriptor) -> ExecutionRecord | None:
        """One notebook in its own fresh container, whose run holds a slot;
        returns its record, or None without starting one once the
        invocation was interrupted."""
        ids = {"repository_id": descriptor.repository_id, "run_id": run_id,
               "notebook_id": descriptor.notebook_id}
        try:
            record = executor.execute_notebook(
                self.docker, image, descriptor,
                run_id=run_id,
                artifacts_dir=Path(self.config.artifacts_dir),
                log_path=logdir / f"{descriptor.notebook_id}.execution.log",
                timeout=self.config.exec_timeout,
                cpu_limit=self.config.cpu_limit,
                memory_limit=self.config.memory_limit,
                slot=self._container_slot(descriptor, ids),
            )
        except _NotStarted:
            return None
        self.events.emit("execute", "notebook_done", status=record.status.value,
                         duration_s=record.duration_s, **ids)
        return record

    @contextlib.contextmanager
    def _container_slot(self, descriptor: NotebookDescriptor, ids: dict):
        """A slot for one notebook's container run. Ctrl-C is checked once
        the slot is held, right before the run: after it, ``_NotStarted``
        is raised and no container starts."""
        with self.budget.slots:
            if self.interrupted.is_set():
                raise _NotStarted
            self.events.emit("execute", "notebook_start",
                             relative_path=descriptor.relative_path, **ids)
            yield

    # ---- stage 4: comparison -------------------------------------------------

    def compare_run(self, run: RunRecord) -> RepositoryResult:
        """Compare what is due in the run and commit it in one transaction;
        after the invocation was interrupted nothing is recorded. Each
        compared notebook's event follows the commit, so every event names
        a stored row. A notebook or artifact that cannot be read degrades
        the repository once the rest is committed; a rerun compares it."""
        repo = self.store.get_repository(run.repository_id)
        result = self._result_for(run, repo)
        if repo is None or not repo.local_path:
            return result
        tree = Path(repo.local_path)
        logdir = Path(self.config.logdir) / run.run_id
        compared, unread = [], []
        for notebook_id, relative_path, executed_path in self.store.comparisons_due(run):
            try:
                original = nbmodel.parse_notebook((tree / relative_path).read_bytes())
                executed = nbmodel.parse_notebook(Path(executed_path).read_bytes())
            except (nbmodel.ParseError, OSError) as exc:
                logger.warning("cannot compare %s: %s", relative_path, exc)
                if isinstance(exc, OSError):
                    unread.append(exc)
                continue
            comparison = comparemod.compare_notebooks(
                original, executed, notebook_id=notebook_id, run_id=run.run_id)
            atomic.write_text(logdir / f"{notebook_id}.comparison.json", comparison.document)
            compared.append(comparison.metrics)
        if self._interrupted(result):
            return result
        with self.store.transaction():
            for metrics in compared:
                self.store.insert_metrics(metrics)
        for metrics in compared:
            self.events.emit("compare", "notebook_compared",
                             notebook_id=metrics.notebook_id, run_id=metrics.run_id,
                             repository_id=run.repository_id,
                             structural_mismatch=metrics.structural_mismatch,
                             score=metrics.score)
        if unread:
            result.degraded_reason = (f"{len(unread)} notebook(s) not compared, "
                                      f"the first: {unread[0]}")
        return result

    # ---- full pipeline --------------------------------------------------------

    def runs_awaiting(self, stage: str) -> list[RunRecord]:
        """The latest runs, in start order, whose next stage is ``stage``."""
        return [run for run in self.store.latest_runs().values()
                if NEXT_STAGE.get(run.provisioning_status) == stage]

    def run_repository(self, raw_input: str) -> RepositoryResult:
        """Infer, then each stage the stored run needs next. The clean room's
        listing is the runtime check: an unreachable runtime leaves the run
        Pending, for the next execute."""
        result = self.infer_repository(raw_input)
        if result.run_id is None or not result.completed:
            return result
        for stage, step in (("execute", self.execute_run), ("compare", self.compare_run)):
            run = self.store.get_run(result.run_id)
            if run and NEXT_STAGE.get(run.provisioning_status) == stage:
                if not (staged := step(run)).completed:
                    return staged
        return result

    def map_repositories(self, items: list, fn) -> list[RepositoryResult]:
        """Apply one per-repository stage across the corpus on a budget of
        ``jobs`` slots; unexpected exceptions degrade that repository only.
        The repository pool of ``2 * jobs`` threads and the notebook pool of
        ``jobs`` live exactly as long as this call; a pool starts a thread only for work
        submitted to it, so a stage without notebooks starts no notebook
        thread. Every notebook run has finished when this returns. After a
        KeyboardInterrupt, no repository still running records an infer or
        execute outcome, and none not yet started starts."""
        self.interrupted.clear()
        jobs = self.config.jobs
        # The repository pool closes first: its units wait for their notebooks.
        with (ThreadPoolExecutor(jobs, thread_name_prefix="nbrepro-notebook") as notebooks,
              ThreadPoolExecutor(2 * jobs, thread_name_prefix="nbrepro-repository") as pool):
            self.budget = WorkBudget(jobs, notebooks)
            try:
                return list(pool.map(lambda item: self._safe(fn, item), items))
            except BaseException:
                # Leaving the block waits for the repository threads; the
                # runtime calls the interrupt killed must not commit.
                self.interrupted.set()
                raise

    def _safe(self, fn, item) -> RepositoryResult:
        try:
            return fn(item)
        except Exception as exc:  # noqa: BLE001 - corpus runs must not abort
            result = self._result_for(item)
            logger.exception("repository task %s failed unexpectedly", result.url)
            self.events.emit("pipeline", "unexpected_error", url=result.url,
                             repository_id=result.repository_id,
                             run_id=result.run_id, error=str(exc))
            result.degraded_reason = f"unexpected error: {exc}"
            return result

    def _result_for(self, item: str | RunRecord,
                    repo: Repository | None = None) -> RepositoryResult:
        """The result of a repository task on a raw input or on a run, named
        by the URL the store keys its repository by."""
        if isinstance(item, str):
            return RepositoryResult(url=corpus.normalize_url(corpus.canonical_input(item)))
        repo = repo or self.store.get_repository(item.repository_id)
        return RepositoryResult(url=repo.url if repo else "",
                                repository_id=item.repository_id,
                                run_id=item.run_id)


def _dockerfile_for(tree: Path) -> Path:
    """The recipe sits next to the build context, outside the cloned tree."""
    return tree.parent / "Dockerfile"

