"""Embedded relational tracking store and the records it holds.

The records of repositories, notebooks, runs and executions, with the
execution statuses, error categories and outcome classes, are defined here;
the stage modules import them, and this module imports no stage. One SQLite file
holds the normalized schema linking repositories, notebooks, runs,
executions, and reproducibility metrics through stable identifiers, so
results stay joinable across invocations. Reads and
writes share the one connection and are serialized behind one re-entrant
lock. Every write runs inside ``Store.transaction()``, which takes SQLite's
write lock as it opens, so the writes of one block are recorded whole or not
at all and no other connection writes between what the block reads and what
it writes. The store reads only what the
commands read: repository, notebook and run rows come back as frozen
dataclasses, compare's due work as plain rows, and the latest-run read as
named tuples. Execution and metrics rows are never decoded one by one;
they are read only through joins. The latest-run read, ``latest_outcomes``,
walks the repositories, joins each once to its latest run and then each of
its notebooks to that run's rows, and gives one row per distinct
(requirements flag, outcome) with how many notebooks it holds, their ids as
JSON text and how many of them have pattern cells. The rows come in no
specified order; classify and report both fold them whole, and only
classify decodes the ids. It reads facts stored once, in the transaction
of the row they belong to: a failed build's phase on its run, and an execution's (type, category)
error pairs on its row, so notebooks whose error messages differ still
share a group. The per-run tables, executions and metrics, are keyed by
(run, notebook), so a run's rows sit together in their primary-key
indexes; this read, compare's work and a run's deletes search those keys
run first. A metrics row, scored or left unscored by a structural
mismatch, is written by the one ``insert_metrics``. The latest run is the
one with the greatest start time, stamped to the microsecond, then run id.

Classify's class counts and resolution rate sit in the one-row
``classification`` table, committed with the latest-run read they were
folded from, and that read's groups, without their notebook ids, beside it
in ``classified_outcomes``. A trigger on each table that read walks deletes
the row on any write, through any connection, and a trigger on the row
deletes the groups with it, so both stand exactly while those rows are
unchanged. Report takes its classes from the row alone, and folds the
stored groups while they stand instead of reading the latest runs again.

The schema carries its version in ``PRAGMA user_version``. A new store and
an older one alike are brought to ``_SCHEMA`` in one transaction by one
table-by-table comparison: a missing table is created, one whose stored
statement differs is rebuilt with its rows, and the triggers are made anew.
A store in which a table was rebuilt is then vacuumed once to give back
the pages the rebuilt tables left free; a newer one is refused.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

from nbrepro.compare import ReproducibilityMetrics

logger = logging.getLogger(__name__)


class ProvisioningStatus(Enum):
    ENVIRONMENT_BUILT = "EnvironmentBuilt"
    BUILD_FAILED = "BuildFailed"
    KERNEL_NOT_FOUND = "KernelNotFound"
    NO_PYTHON_NOTEBOOKS = "NoPythonNotebooks"
    INVALID_URL = "InvalidUrl"
    # Transient marker between the inference and build stages; never a
    # terminal outcome.
    PENDING = "Pending"


@dataclass(frozen=True)
class Repository:
    repository_id: str
    url: str
    local_path: str | None = None
    accessible: bool = False
    has_requirements_file: bool = False
    notebook_count: int = 0
    manifest_paths: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunRecord:
    run_id: str
    repository_id: str
    invocation_id: str
    started_at: str
    finished_at: str | None = None
    provisioning_status: ProvisioningStatus = ProvisioningStatus.PENDING
    status_reason: str | None = None
    image_reference: str | None = None
    revision: str | None = None
    build_duration_s: float | None = None


@dataclass(frozen=True)
class NotebookDescriptor:
    notebook_id: str
    repository_id: str
    relative_path: str
    kernel_name: str | None = None
    nbformat_version: tuple[int, int] | None = None
    code_cell_count: int | None = None
    markdown_cell_count: int | None = None
    nondeterministic_pattern_cells: int | None = None
    parse_failed: bool = False
    parse_error: str | None = None


class ExecutionStatus(Enum):
    SUCCESS = "Success"
    ERRORED_BUT_COMPLETED = "ErroredButCompleted"
    KERNEL_NOT_FOUND = "KernelNotFound"
    NOTEBOOK_NOT_FOUND = "NotebookNotFound"
    TIMEOUT = "Timeout"
    SKIPPED = "Skipped"


class ErrorCategory(Enum):
    DEPENDENCY = "Dependency"
    DATA = "Data"
    CODE = "Code"
    LOGIC = "Logic"


class OutcomeClass(Enum):
    A_ENVIRONMENT_RESOLVED = "A_EnvironmentResolved"
    B_PERSISTENT_ERROR = "B_PersistentError"
    C_REPRODUCIBILITY_DRIFT = "C_ReproducibilityDrift"
    D_REGRESSION = "D_Regression"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class ExecutionError:
    """One distinct (exception type, cell) failure observed at runtime.

    ``cell_index`` is the 0-based position among the notebook's code cells;
    ``count`` accumulates repeats of the same exception type in that cell.
    """

    error_type: str
    category: ErrorCategory
    message: str
    cell_index: int
    count: int = 1


@dataclass(frozen=True)
class ExecutionRecord:
    notebook_id: str
    run_id: str
    status: ExecutionStatus
    duration_s: float | None
    code_cell_count: int
    markdown_code_ratio: float | None
    errors: tuple[ExecutionError, ...] = ()
    executed_notebook_path: str | None = None


def utc_now_iso() -> str:
    """The current UTC time to the microsecond, fixed width, so two runs
    started in one second still order by start time. A whole-second stamp
    of an older store sorts before any fraction of its second."""
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def new_invocation_id() -> str:
    return uuid.uuid4().hex[:12]


class StoreError(Exception):
    pass


SCHEMA_VERSION = 4


def _one_of(column: str, enum: type[Enum]) -> str:
    values = ", ".join(f"'{member.value}'" for member in enum)
    return f"CHECK ({column} IN ({values}))"


# Classify's class counts and resolution rate, in one row, one column per
# class in the order of ``OutcomeClass``.
_CLASS_COLUMNS = "".join(f"\n    {cls.value} INTEGER NOT NULL CHECK ({cls.value} >= 0),"
                         for cls in OutcomeClass)

# The tables classify reads. Any write to them deletes classify's row, so the
# row stands only while the rows it was folded from are unchanged, whoever
# writes them.
_CLASSIFIED_TABLES = ("repositories", "notebooks", "repository_runs",
                      "notebook_executions", "reproducibility_metrics")

# The current schema, each statement as SQLite keeps it in ``sqlite_master``
# once its leading whitespace is gone, so a store's tables compare with it as
# text. The per-run tables are keyed run first, so a run's rows sit together
# in their primary-key indexes. The latest-run groups that classify folded,
# ``classified_outcomes``, are one row per ``LatestOutcome`` without its
# notebook ids, which only classify reads; they are deleted with the
# classification row by a trigger rather than a cascade, so that a
# connection with the foreign keys off deletes them too.
_SCHEMA = ["""
CREATE TABLE repositories (
    repository_id TEXT PRIMARY KEY,
    url TEXT NOT NULL,
    local_path TEXT,
    accessible INTEGER NOT NULL DEFAULT 0,
    has_requirements_file INTEGER NOT NULL DEFAULT 0,
    notebook_count INTEGER NOT NULL DEFAULT 0 CHECK (notebook_count >= 0),
    manifest_paths TEXT NOT NULL DEFAULT '[]'
)""", """
CREATE TABLE notebooks (
    notebook_id TEXT PRIMARY KEY,
    repository_id TEXT NOT NULL REFERENCES repositories(repository_id),
    relative_path TEXT NOT NULL,
    kernel_name TEXT,
    nbformat_major INTEGER,
    nbformat_minor INTEGER,
    code_cell_count INTEGER,
    markdown_cell_count INTEGER,
    nondeterministic_pattern_cells INTEGER,
    parse_failed INTEGER NOT NULL DEFAULT 0,
    parse_error TEXT,
    UNIQUE (repository_id, relative_path)
)""", f"""
CREATE TABLE repository_runs (
    run_id TEXT PRIMARY KEY,
    repository_id TEXT NOT NULL REFERENCES repositories(repository_id),
    invocation_id TEXT NOT NULL,
    started_at TEXT NOT NULL,
    finished_at TEXT CHECK (finished_at IS NULL OR finished_at >= started_at),
    provisioning_status TEXT NOT NULL
        {_one_of("provisioning_status", ProvisioningStatus)},
    status_reason TEXT,
    image_reference TEXT,
    revision TEXT,
    build_phase TEXT
        CHECK (build_phase IS NULL OR provisioning_status = 'BuildFailed'),
    build_duration_s REAL
        CHECK (build_duration_s IS NULL OR build_duration_s >= 0),
    UNIQUE (repository_id, invocation_id)
)""", f"""
CREATE TABLE notebook_executions (
    notebook_id TEXT NOT NULL REFERENCES notebooks(notebook_id),
    run_id TEXT NOT NULL REFERENCES repository_runs(run_id),
    status TEXT NOT NULL {_one_of("status", ExecutionStatus)},
    duration_s REAL CHECK (duration_s IS NULL OR duration_s >= 0),
    code_cell_count INTEGER NOT NULL DEFAULT 0,
    markdown_code_ratio REAL,
    errors TEXT NOT NULL DEFAULT '[]',
    error_pairs TEXT NOT NULL DEFAULT '[]',
    executed_notebook_path TEXT,
    PRIMARY KEY (run_id, notebook_id),
    CHECK (status != 'Success'
           OR (errors = '[]' AND executed_notebook_path IS NOT NULL)),
    CHECK (status = 'Skipped' OR duration_s IS NOT NULL),
    CHECK ((errors = '[]') = (error_pairs = '[]'))
)""", """
CREATE TABLE reproducibility_metrics (
    notebook_id TEXT NOT NULL,
    run_id TEXT NOT NULL,
    identical_count INTEGER NOT NULL DEFAULT 0,
    different_count INTEGER NOT NULL DEFAULT 0,
    nondeterministic_count INTEGER NOT NULL DEFAULT 0,
    identical_indices TEXT NOT NULL DEFAULT '[]',
    different_indices TEXT NOT NULL DEFAULT '[]',
    nondeterministic_indices TEXT NOT NULL DEFAULT '[]',
    total_code_cells INTEGER NOT NULL DEFAULT 0,
    score REAL CHECK (score IS NULL OR (score >= 0.0 AND score <= 1.0)),
    structural_mismatch INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, notebook_id),
    FOREIGN KEY (run_id, notebook_id)
        REFERENCES notebook_executions(run_id, notebook_id),
    CHECK (structural_mismatch = 1
           OR identical_count + different_count + nondeterministic_count
              = total_code_cells)
)""", f"""
CREATE TABLE classification (
    only_row INTEGER PRIMARY KEY CHECK (only_row = 1),{_CLASS_COLUMNS}
    resolution_rate REAL
        CHECK (resolution_rate IS NULL OR resolution_rate BETWEEN 0 AND 100)
)""", *(
    f"CREATE TRIGGER {table}_{event.lower()}_declassifies AFTER {event} ON {table}"
    " BEGIN DELETE FROM classification; END"
    for table in _CLASSIFIED_TABLES for event in ("INSERT", "UPDATE", "DELETE")), f"""
CREATE TABLE classified_outcomes (
    has_requirements_file INTEGER NOT NULL,
    provisioning_status TEXT {_one_of("provisioning_status", ProvisioningStatus)},
    build_phase TEXT,
    execution_status TEXT {_one_of("execution_status", ExecutionStatus)},
    error_pairs TEXT NOT NULL,
    different_count INTEGER,
    nondeterministic_count INTEGER,
    score REAL,
    structural_mismatch INTEGER,
    pattern_notebooks INTEGER NOT NULL,
    notebook_count INTEGER NOT NULL CHECK (notebook_count > 0),
    CHECK (pattern_notebooks BETWEEN 0 AND notebook_count)
)""", "CREATE TRIGGER classification_delete_deletes_outcomes AFTER DELETE ON classification"
    " BEGIN DELETE FROM classified_outcomes; END"]

# The columns that a store's older tables lack and that are computed, when
# their table is brought to ``_SCHEMA``, from the old columns through the
# functions the writes use. Every other new column takes its default.
_BACKFILL = {
    ("repository_runs", "build_phase"): "build_phase(provisioning_status, status_reason)",
    ("notebook_executions", "error_pairs"): "error_pairs(errors)",
}

# The latest run of each repository: the greatest (started_at, run_id).
# Start times carry microseconds, so the run id breaks only a true tie.
_LATEST_RUNS = """
    SELECT * FROM (
        SELECT *, ROW_NUMBER() OVER (PARTITION BY repository_id
                                     ORDER BY started_at DESC, run_id DESC) AS recency
        FROM repository_runs)
    WHERE recency = 1
"""

class LatestOutcome(NamedTuple):
    """The one latest-run read: the notebooks that share one outcome and one
    requirements flag in their repositories' latest runs. The run columns
    are None when a repository has no run, the execution columns when its
    run did not execute the notebooks, and the metrics columns when they
    were not compared."""

    has_requirements_file: int
    provisioning_status: str | None
    build_phase: str | None
    execution_status: str | None
    error_pairs: str  # JSON list of [error_type, category], in stored order
    different_count: int | None
    nondeterministic_count: int | None
    score: float | None
    structural_mismatch: int | None
    pattern_notebooks: int  # how many of the notebooks have pattern cells
    notebook_count: int
    notebook_ids: str | None  # JSON list of the notebooks' ids; None once stored


class Classification(NamedTuple):
    """Classify's row: the notebooks per class, in class order, the
    resolution rate, and the latest-run groups they were folded from. A row
    migrated from schema version 3 has no groups."""

    counts: dict[str, int]
    resolution_rate: float | None
    outcomes: list[LatestOutcome]


# The columns of a stored group, as named in ``classified_outcomes``.
_STORED_OUTCOME = LatestOutcome._fields[:-1]
_INSERT_OUTCOME = (f"INSERT INTO classified_outcomes ({', '.join(_STORED_OUTCOME)})"
                   f" VALUES ({', '.join('?' * len(_STORED_OUTCOME))})")


# Each repository joined once to its latest run, then each of its notebooks,
# searched by the (repository, path) key, to that run's execution and
# metrics row for it, searched by their primary keys. CROSS JOIN keeps the
# notebooks inside the repository loop, so the latest run is looked up once
# per repository, not once per notebook. Grouped by the columns before
# ``pattern_notebooks``, the many-valued ones first, so the sorter's
# comparisons stop at an early column; the groups come back in no specified
# order. The columns are named as the fields of ``LatestOutcome``. An
# unexecuted notebook's error list reads as empty.
_LATEST_OUTCOMES = f"""
    SELECT r.has_requirements_file AS has_requirements_file,
           l.provisioning_status AS provisioning_status,
           l.build_phase AS build_phase,
           e.status AS execution_status,
           coalesce(e.error_pairs, '[]') AS error_pairs,
           m.different_count AS different_count,
           m.nondeterministic_count AS nondeterministic_count,
           m.score AS score,
           m.structural_mismatch AS structural_mismatch,
           sum(coalesce(n.nondeterministic_pattern_cells, 0) > 0) AS pattern_notebooks,
           count(*) AS notebook_count,
           json_group_array(n.notebook_id) AS notebook_ids
    FROM repositories AS r
    LEFT JOIN ({_LATEST_RUNS}) AS l ON l.repository_id = r.repository_id
    CROSS JOIN notebooks AS n ON n.repository_id = r.repository_id
    LEFT JOIN notebook_executions AS e
        ON e.run_id = l.run_id AND e.notebook_id = n.notebook_id
    LEFT JOIN reproducibility_metrics AS m
        ON m.run_id = l.run_id AND m.notebook_id = n.notebook_id
    GROUP BY 8, 5, 6, 7, 1, 2, 3, 4, 9
"""


class Store:
    """Thread-safe facade over the SQLite file."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        self._depth = 0  # open transaction() levels, guarded by _lock
        try:
            self._open_schema()
        except BaseException:
            self._conn.close()
            raise

    def _open_schema(self) -> None:
        """Bring a new store or an older one to ``_SCHEMA`` in one
        transaction. The version is read again under the write lock, so of
        two processes opening one old store, one migrates it and the other
        finds it migrated. A table rebuild needs the foreign keys off, and
        renaming a table away must not rewrite the references to it."""
        conn = self._conn
        found = self._check_version()
        rebuilt = False
        if found < SCHEMA_VERSION:
            conn.execute("PRAGMA foreign_keys = OFF")
            conn.execute("PRAGMA legacy_alter_table = ON")
            try:
                conn.execute("BEGIN IMMEDIATE")
                with conn:  # commits, or rolls back on any failure
                    version = self._check_version()
                    if version < SCHEMA_VERSION:
                        rebuilt = self._migrate(version)
                        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            except sqlite3.OperationalError as exc:  # locked, or not writable
                raise StoreError(
                    f"cannot bring store {self.path} from schema version "
                    f"{found} to {SCHEMA_VERSION}: {exc}") from exc
            finally:
                conn.execute("PRAGMA legacy_alter_table = OFF")
        conn.execute("PRAGMA foreign_keys = ON")
        if rebuilt:
            self._vacuum()

    def _vacuum(self) -> None:
        """Give back the pages that a migration's table rebuilds left free.
        The store is correct without it, so a store that another connection
        keeps busy past the busy timeout keeps its free pages."""
        try:
            self._conn.execute("VACUUM")
        except sqlite3.OperationalError as exc:
            logger.warning("store %s keeps the free pages of its migration: %s",
                           self.path, exc)

    def _migrate(self, version: int) -> bool:
        """Bring the store from ``version`` to ``_SCHEMA``, and say whether
        a table was rebuilt."""
        try:
            rebuilt = _bring_to_schema(self._conn)
        except sqlite3.IntegrityError as exc:
            raise StoreError(f"cannot migrate store {self.path} from schema "
                             f"version {version}: {exc}") from exc
        broken = self._conn.execute("PRAGMA foreign_key_check").fetchall()
        if broken:
            raise StoreError(
                f"cannot migrate store {self.path} from schema version "
                f"{version}: {len(broken)} dangling references, the first "
                f"in table {broken[0][0]}")
        return rebuilt

    def _check_version(self) -> int:
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise StoreError(
                f"store {self.path} has schema version {version}; this nbrepro "
                f"reads schema version {SCHEMA_VERSION} and older")
        return version

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read(self, sql: str, params: tuple = ()) -> list[sqlite3.Row]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    @contextmanager
    def transaction(self):
        """Hold the store for a block of writes, or of reads that must see
        one state: the outermost block takes SQLite's write lock as it
        opens, so no other connection writes between what the block reads
        and what it writes. The writes commit together when that block
        exits and roll back if it raises. Other threads wait for the block,
        so keep slow work outside it."""
        with self._lock:
            self._depth += 1
            try:
                if self._depth > 1:
                    yield
                else:
                    self._conn.execute("BEGIN IMMEDIATE")
                    with self._conn:  # commits, or rolls back on any failure
                        yield
            finally:
                self._depth -= 1

    def _write(self, sql: str, params: tuple = ()) -> None:
        with self.transaction():
            try:
                self._conn.execute(sql, params)
            except sqlite3.IntegrityError as exc:
                raise StoreError(str(exc)) from exc

    # ---- repositories -----------------------------------------------------

    def upsert_repository(self, repo: Repository) -> None:
        self._write(
            """
            INSERT INTO repositories (repository_id, url, local_path, accessible,
                                      has_requirements_file, notebook_count,
                                      manifest_paths)
            VALUES (?, ?, ?, ?, ?, ?, ?)
            ON CONFLICT(repository_id) DO UPDATE SET
                url = excluded.url,
                local_path = excluded.local_path,
                accessible = excluded.accessible,
                has_requirements_file = excluded.has_requirements_file,
                notebook_count = excluded.notebook_count,
                manifest_paths = excluded.manifest_paths
            """,
            (repo.repository_id, repo.url, repo.local_path, int(repo.accessible),
             int(repo.has_requirements_file), repo.notebook_count,
             json.dumps(list(repo.manifest_paths))),
        )

    def get_repository(self, repository_id: str) -> Repository | None:
        rows = self._read("SELECT * FROM repositories WHERE repository_id = ?",
                          (repository_id,))
        return _repository_from_row(rows[0]) if rows else None

    def list_repositories(self) -> list[Repository]:
        rows = self._read("SELECT * FROM repositories ORDER BY repository_id")
        return [_repository_from_row(row) for row in rows]

    # ---- notebooks ----------------------------------------------------------

    def upsert_notebook(self, descriptor: NotebookDescriptor) -> None:
        major, minor = descriptor.nbformat_version or (None, None)
        self._write(
            """
            INSERT INTO notebooks (notebook_id, repository_id, relative_path,
                                   kernel_name, nbformat_major, nbformat_minor,
                                   code_cell_count, markdown_cell_count,
                                   nondeterministic_pattern_cells,
                                   parse_failed, parse_error)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            ON CONFLICT(notebook_id) DO UPDATE SET
                kernel_name = excluded.kernel_name,
                nbformat_major = excluded.nbformat_major,
                nbformat_minor = excluded.nbformat_minor,
                code_cell_count = excluded.code_cell_count,
                markdown_cell_count = excluded.markdown_cell_count,
                nondeterministic_pattern_cells = excluded.nondeterministic_pattern_cells,
                parse_failed = excluded.parse_failed,
                parse_error = excluded.parse_error
            """,
            (descriptor.notebook_id, descriptor.repository_id,
             descriptor.relative_path, descriptor.kernel_name, major, minor,
             descriptor.code_cell_count, descriptor.markdown_cell_count,
             descriptor.nondeterministic_pattern_cells,
             int(descriptor.parse_failed), descriptor.parse_error),
        )

    def list_notebooks(self, repository_id: str) -> list[NotebookDescriptor]:
        rows = self._read(
            "SELECT * FROM notebooks WHERE repository_id = ? ORDER BY relative_path",
            (repository_id,))
        return [_notebook_from_row(row) for row in rows]

    # ---- runs ---------------------------------------------------------------

    def insert_run(self, run: RunRecord) -> None:
        self._write(
            """
            INSERT INTO repository_runs (run_id, repository_id, invocation_id,
                                         started_at, finished_at,
                                         provisioning_status, status_reason,
                                         image_reference, revision,
                                         build_phase, build_duration_s)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (run.run_id, run.repository_id, run.invocation_id, run.started_at,
             run.finished_at, run.provisioning_status.value, run.status_reason,
             run.image_reference, run.revision,
             _build_phase(run.provisioning_status.value, run.status_reason),
             run.build_duration_s),
        )

    def update_run(self, run: RunRecord) -> None:
        self._write(
            """
            UPDATE repository_runs
            SET finished_at = ?, provisioning_status = ?, status_reason = ?,
                image_reference = ?, revision = ?, build_phase = ?,
                build_duration_s = ?
            WHERE run_id = ?
            """,
            (run.finished_at, run.provisioning_status.value, run.status_reason,
             run.image_reference, run.revision,
             _build_phase(run.provisioning_status.value, run.status_reason),
             run.build_duration_s, run.run_id),
        )

    def finish_run(self, run: RunRecord, status: ProvisioningStatus,
                   reason: str | None = None,
                   image_reference: str | None = None,
                   build_duration_s: float | None = None) -> RunRecord:
        finished = replace(
            run,
            finished_at=max(utc_now_iso(), run.started_at),
            provisioning_status=status,
            status_reason=reason,
            image_reference=image_reference or run.image_reference,
            build_duration_s=build_duration_s,
        )
        self.update_run(finished)
        return finished

    def get_run(self, run_id: str) -> RunRecord | None:
        rows = self._read("SELECT * FROM repository_runs WHERE run_id = ?",
                          (run_id,))
        return _run_from_row(rows[0]) if rows else None

    def latest_runs(self) -> dict[str, RunRecord]:
        """Most recent run per repository (by start time, then run_id),
        ordered by that run's start time and run_id."""
        rows = self._read(f"SELECT * FROM ({_LATEST_RUNS}) ORDER BY started_at, run_id")
        return {row["repository_id"]: _run_from_row(row) for row in rows}

    def latest_outcomes(self) -> list[LatestOutcome]:
        """The notebooks grouped by their outcome and requirements flag in
        their repositories' latest runs; each group counts and lists its
        notebooks."""
        with self._lock:
            cursor = self._conn.cursor()
            cursor.row_factory = None
            return [LatestOutcome._make(row) for row in cursor.execute(_LATEST_OUTCOMES)]

    # ---- executions ---------------------------------------------------------

    def insert_execution(self, record: ExecutionRecord) -> None:
        """The row holds the errors in full, as JSON, and their types and
        (type, category) pairs, which classify and report read."""
        self._write(
            """
            INSERT INTO notebook_executions (notebook_id, run_id, status,
                                             duration_s, code_cell_count,
                                             markdown_code_ratio, errors,
                                             error_pairs,
                                             executed_notebook_path)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (record.notebook_id, record.run_id, record.status.value,
             record.duration_s, record.code_cell_count,
             record.markdown_code_ratio, _errors_to_json(record.errors),
             _error_pairs([e.error_type, e.category.value] for e in record.errors),
             record.executed_notebook_path),
        )

    def delete_run_results(self, run: RunRecord) -> None:
        """Drop a run's metrics rows, then the execution rows they reference.

        Both tables are keyed run first, so each delete searches its primary
        key for the run's rows instead of scanning the table.
        """
        with self.transaction():
            for table in ("reproducibility_metrics", "notebook_executions"):
                self._write(f"DELETE FROM {table} WHERE run_id = ?", (run.run_id,))

    def comparisons_due(self, run: RunRecord) -> list[sqlite3.Row]:
        """``(notebook_id, relative_path, executed_notebook_path)``, ordered
        by ``notebook_id``, of each parsed notebook of the run's repository
        that the run executed to an artifact and has not compared yet."""
        return self._read(
            """
            SELECT n.notebook_id, n.relative_path, e.executed_notebook_path
            FROM notebooks AS n
            JOIN notebook_executions AS e
                ON e.notebook_id = n.notebook_id AND e.run_id = ?
            LEFT JOIN reproducibility_metrics AS m
                ON m.notebook_id = n.notebook_id AND m.run_id = e.run_id
            WHERE n.repository_id = ? AND n.parse_failed = 0
              AND e.executed_notebook_path IS NOT NULL AND m.notebook_id IS NULL
            ORDER BY n.notebook_id
            """, (run.run_id, run.repository_id))

    # ---- classification ----------------------------------------------------

    def record_classification(self, counts: dict[str, int],
                              resolution_rate: float | None,
                              outcomes: Iterable[LatestOutcome]) -> None:
        """Store classify's notebooks per class, resolution rate, and the
        latest-run groups they were folded from, in place of the last ones.
        Call it in the transaction of that read."""
        with self.transaction():
            # Deleting the row deletes its groups; a REPLACE would not.
            self._write("DELETE FROM classification")
            self._write(
                f"INSERT INTO classification VALUES "
                f"(1, {', '.join('?' * len(OutcomeClass))}, ?)",
                (*(counts.get(cls.value, 0) for cls in OutcomeClass), resolution_rate))
            for group in outcomes:
                self._write(_INSERT_OUTCOME, group[:-1])

    def classification(self) -> Classification | None:
        """The last classify's row with its groups, or None when a write
        has changed the rows classify read since, or classify never ran.
        One statement reads both, so they are of one state of the store."""
        rows = self._read(
            f"SELECT c.*, {', '.join(f'o.{column}' for column in _STORED_OUTCOME)}"
            " FROM classification AS c LEFT JOIN classified_outcomes AS o")
        if not rows:
            return None
        first = rows[0]
        return Classification(
            {cls.value: first[cls.value] for cls in OutcomeClass}, first["resolution_rate"],
            [LatestOutcome(*(row[column] for column in _STORED_OUTCOME), None)
             for row in rows if row["notebook_count"] is not None])

    # ---- metrics ------------------------------------------------------------

    def insert_metrics(self, metrics: ReproducibilityMetrics) -> None:
        self._write(
            """
            INSERT INTO reproducibility_metrics (notebook_id, run_id,
                identical_count, different_count, nondeterministic_count,
                identical_indices, different_indices, nondeterministic_indices,
                total_code_cells, score, structural_mismatch)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (metrics.notebook_id, metrics.run_id, metrics.identical_count,
             metrics.different_count, metrics.nondeterministic_count,
             json.dumps(list(metrics.identical_indices)),
             json.dumps(list(metrics.different_indices)),
             json.dumps(list(metrics.nondeterministic_indices)),
             metrics.total_code_cells, metrics.score, metrics.structural_mismatch),
        )


def _repository_from_row(row: sqlite3.Row) -> Repository:
    return Repository(
        repository_id=row["repository_id"],
        url=row["url"],
        local_path=row["local_path"],
        accessible=bool(row["accessible"]),
        has_requirements_file=bool(row["has_requirements_file"]),
        notebook_count=row["notebook_count"],
        manifest_paths=tuple(json.loads(row["manifest_paths"])),
    )


def _notebook_from_row(row: sqlite3.Row) -> NotebookDescriptor:
    version = None
    if row["nbformat_major"] is not None:
        version = (row["nbformat_major"], row["nbformat_minor"] or 0)
    return NotebookDescriptor(
        notebook_id=row["notebook_id"],
        repository_id=row["repository_id"],
        relative_path=row["relative_path"],
        kernel_name=row["kernel_name"],
        nbformat_version=version,
        code_cell_count=row["code_cell_count"],
        markdown_cell_count=row["markdown_cell_count"],
        nondeterministic_pattern_cells=row["nondeterministic_pattern_cells"],
        parse_failed=bool(row["parse_failed"]),
        parse_error=row["parse_error"],
    )


def _run_from_row(row: sqlite3.Row) -> RunRecord:
    return RunRecord(
        run_id=row["run_id"],
        repository_id=row["repository_id"],
        invocation_id=row["invocation_id"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        provisioning_status=ProvisioningStatus(row["provisioning_status"]),
        status_reason=row["status_reason"],
        image_reference=row["image_reference"],
        revision=row["revision"],
        build_duration_s=row["build_duration_s"],
    )


def _build_phase(status: str, reason: str | None) -> str | None:
    """The phase a failed build stopped in: its reason up to the first
    colon. Other runs have none."""
    if status == ProvisioningStatus.BUILD_FAILED.value and reason:
        return reason.split(":", 1)[0].strip()
    return None


def _errors_to_json(errors: tuple[ExecutionError, ...]) -> str:
    return json.dumps([
        {
            "error_type": e.error_type,
            "category": e.category.value,
            "message": e.message,
            "cell_index": e.cell_index,
            "count": e.count,
        }
        for e in errors
    ])


def _error_pairs(pairs: Iterable[list[str]]) -> str:
    """The stored (type, category) pairs of an error list, in its order."""
    return json.dumps(list(pairs))


def _bring_to_schema(conn: sqlite3.Connection) -> bool:
    """Bring the tables of the store to ``_SCHEMA``, and say whether it
    rebuilt any, which leaves free pages. A missing table is created and one whose stored statement
    equals its own is left alone. Any other is renamed away, created anew
    and given the old rows, in rowid order, of the columns both tables
    have, a ``_BACKFILL`` column computed and any other new one at its
    default; then the old table is dropped. Every trigger is dropped before
    the copies and every one of ``_SCHEMA`` created after them, so no copy
    fires one and no rebuilt table loses one. The caller has turned the
    foreign keys off and ``legacy_alter_table`` on, so the references of
    other tables keep naming a rebuilt table."""
    found = dict(conn.execute("SELECT name, sql FROM sqlite_master WHERE type = 'table'"))
    for (trigger,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'trigger'").fetchall():
        conn.execute(f"DROP TRIGGER {trigger}")
    def error_pairs(errors: str) -> str:
        return _error_pairs([e["error_type"], e["category"]] for e in json.loads(errors))

    conn.create_function("build_phase", 2, _build_phase, deterministic=True)
    conn.create_function("error_pairs", 1, error_pairs, deterministic=True)
    triggers, rebuilt = [], False
    for statement in _SCHEMA:
        kind, table = statement.split(maxsplit=3)[1:3]
        if kind == "TRIGGER":
            triggers.append(statement)
        elif table not in found:
            conn.execute(statement)
        elif found[table] != statement.lstrip():
            conn.execute(f"ALTER TABLE {table} RENAME TO {table}_old")
            conn.execute(statement)
            old = {row[1] for row in conn.execute(f"PRAGMA table_info({table}_old)")}
            columns = [row[1] for row in conn.execute(f"PRAGMA table_info({table})")
                       if row[1] in old or (table, row[1]) in _BACKFILL]
            values = [column if column in old else _BACKFILL[table, column]
                      for column in columns]
            conn.execute(f"INSERT INTO {table} ({', '.join(columns)})"
                         f" SELECT {', '.join(values)} FROM {table}_old ORDER BY rowid")
            conn.execute(f"DROP TABLE {table}_old")
            rebuilt = True
    for statement in triggers:
        conn.execute(statement)
    return rebuilt
