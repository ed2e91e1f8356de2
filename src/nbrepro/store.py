"""Embedded relational tracking store.

One SQLite file holds the normalized schema linking repositories,
notebooks, runs, executions, and reproducibility metrics through stable
identifiers, so results stay joinable across invocations. Reads and
writes share the one connection and are serialized behind one re-entrant
lock. Every write runs inside ``Store.transaction()``, so the writes of one
block are recorded whole or not at all. Rows are immutable dataclasses once
read, apart from compare's due work and the two latest-run reads, which
are named tuples. Those join every notebook to its repository's latest
run: ``latest_outcomes`` gives classify one row per notebook, and
``latest_outcome_groups`` gives report one counted row per distinct
combination of the columns it folds. Both reduce each stored error list in
SQL to the error types, or the (type, category) pairs, that classify and
report read, so notebooks whose error messages differ still share a
signature or a group. These reads, compare's work and a run's deletes
search the per-run tables by their primary keys.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from nbrepro.compare import ReproducibilityMetrics
from nbrepro.executor import (
    ErrorCategory,
    ExecutionError,
    ExecutionRecord,
    ExecutionStatus,
)
from nbrepro.notebook import markdown_code_ratio_of


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

    @property
    def markdown_code_ratio(self) -> float | None:
        return markdown_code_ratio_of(self.code_cell_count, self.markdown_cell_count)


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat()


def new_invocation_id() -> str:
    return uuid.uuid4().hex[:12]


class StoreError(Exception):
    pass


_SCHEMA = """
CREATE TABLE IF NOT EXISTS repositories (
    repository_id TEXT PRIMARY KEY,
    url TEXT NOT NULL,
    local_path TEXT,
    accessible INTEGER NOT NULL DEFAULT 0,
    has_requirements_file INTEGER NOT NULL DEFAULT 0,
    notebook_count INTEGER NOT NULL DEFAULT 0 CHECK (notebook_count >= 0),
    manifest_paths TEXT NOT NULL DEFAULT '[]'
);

CREATE TABLE IF NOT EXISTS notebooks (
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
);

CREATE TABLE IF NOT EXISTS repository_runs (
    run_id TEXT PRIMARY KEY,
    repository_id TEXT NOT NULL REFERENCES repositories(repository_id),
    invocation_id TEXT NOT NULL,
    started_at TEXT NOT NULL,
    finished_at TEXT CHECK (finished_at IS NULL OR finished_at >= started_at),
    provisioning_status TEXT NOT NULL,
    status_reason TEXT,
    image_reference TEXT,
    revision TEXT,
    UNIQUE (repository_id, invocation_id)
);

CREATE TABLE IF NOT EXISTS notebook_executions (
    notebook_id TEXT NOT NULL REFERENCES notebooks(notebook_id),
    run_id TEXT NOT NULL REFERENCES repository_runs(run_id),
    status TEXT NOT NULL,
    duration_s REAL CHECK (duration_s IS NULL OR duration_s >= 0),
    code_cell_count INTEGER NOT NULL DEFAULT 0,
    markdown_code_ratio REAL,
    errors TEXT NOT NULL DEFAULT '[]',
    executed_notebook_path TEXT,
    PRIMARY KEY (notebook_id, run_id),
    CHECK (status != 'Success'
           OR (errors = '[]' AND executed_notebook_path IS NOT NULL)),
    CHECK (status = 'Skipped' OR duration_s IS NOT NULL)
);

CREATE TABLE IF NOT EXISTS reproducibility_metrics (
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
    PRIMARY KEY (notebook_id, run_id),
    FOREIGN KEY (notebook_id, run_id)
        REFERENCES notebook_executions(notebook_id, run_id),
    CHECK (structural_mismatch = 1
           OR identical_count + different_count + nondeterministic_count
              = total_code_cells)
);
"""

# The latest run of each repository: the greatest (started_at, run_id).
_LATEST_RUNS = """
    SELECT * FROM (
        SELECT *, ROW_NUMBER() OVER (PARTITION BY repository_id
                                     ORDER BY started_at DESC, run_id DESC) AS recency
        FROM repository_runs)
    WHERE recency = 1
"""

# Every notebook joined to its repository's latest run and to that run's
# execution and metrics row for it. The classify and report reads select
# from these joins, which search the per-run tables by their primary keys.
_LATEST_NOTEBOOK_JOINS = f"""
    FROM notebooks AS n
    JOIN repositories AS r ON r.repository_id = n.repository_id
    LEFT JOIN ({_LATEST_RUNS}) AS l ON l.repository_id = n.repository_id
    LEFT JOIN notebook_executions AS e
        ON e.notebook_id = n.notebook_id AND e.run_id = l.run_id
    LEFT JOIN reproducibility_metrics AS m
        ON m.notebook_id = n.notebook_id AND m.run_id = l.run_id
"""


class LatestOutcome(NamedTuple):
    """Classify's read: one notebook in its repository's latest run. The run
    columns are None when the repository has no run, the execution columns
    when that run did not execute the notebook, and the metrics columns
    when it was not compared."""

    notebook_id: str
    has_requirements_file: int
    provisioning_status: str | None
    status_reason: str | None
    execution_status: str | None
    error_types: str  # JSON list of the error records' types, in stored order
    different_count: int | None
    nondeterministic_count: int | None
    score: float | None
    structural_mismatch: int | None

    @property
    def outcome(self) -> tuple:
        """Every column but the notebook's id and requirements flag: all
        that its signature is built from."""
        return self[2:]


class OutcomeGroup(NamedTuple):
    """Report's read: how many notebooks share one combination of the
    columns the corpus summary folds, with None as in ``LatestOutcome``."""

    has_requirements_file: int
    has_pattern_cells: int
    execution_status: str | None
    error_pairs: str  # JSON list of [error_type, category], in stored order
    structural_mismatch: int | None
    score: float | None
    notebooks: int


# The columns of both reads are named as the fields of their row types. The
# error lists are reduced in SQL to what classify and report read of them,
# so notebooks whose messages differ still share a signature or a group.
# An empty list, the common case, skips the JSON table.
_ERROR_TYPES = """CASE e.errors WHEN '[]' THEN '[]' ELSE
        (SELECT json_group_array(value ->> 'error_type') FROM json_each(e.errors))
    END"""
_ERROR_PAIRS = """CASE e.errors WHEN '[]' THEN '[]' ELSE
        (SELECT json_group_array(json_array(value ->> 'error_type',
                                            value ->> 'category'))
         FROM json_each(e.errors))
    END"""

_LATEST_OUTCOMES = f"""
    SELECT n.notebook_id AS notebook_id,
           r.has_requirements_file AS has_requirements_file,
           l.provisioning_status AS provisioning_status,
           l.status_reason AS status_reason,
           e.status AS execution_status,
           {_ERROR_TYPES} AS error_types,
           m.different_count AS different_count,
           m.nondeterministic_count AS nondeterministic_count,
           m.score AS score,
           m.structural_mismatch AS structural_mismatch
    {_LATEST_NOTEBOOK_JOINS}
"""

_LATEST_OUTCOME_GROUPS = f"""
    SELECT r.has_requirements_file AS has_requirements_file,
           coalesce(n.nondeterministic_pattern_cells, 0) > 0 AS has_pattern_cells,
           e.status AS execution_status,
           {_ERROR_PAIRS} AS error_pairs,
           m.structural_mismatch AS structural_mismatch,
           m.score AS score,
           count(*) AS notebooks
    {_LATEST_NOTEBOOK_JOINS}
    GROUP BY 1, 2, 3, 4, 5, 6
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
        with self._lock:
            self._conn.execute("PRAGMA foreign_keys = ON")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

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
        """Hold the store for a block of writes: they commit together when
        the outermost block exits and roll back if it raises. Other threads
        wait for the block, so keep slow work outside it."""
        with self._lock:
            self._depth += 1
            try:
                if self._depth > 1:
                    yield
                else:
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

    def list_notebooks(self, repository_id: str | None = None) -> list[NotebookDescriptor]:
        if repository_id is None:
            rows = self._read(
                "SELECT * FROM notebooks ORDER BY repository_id, relative_path")
        else:
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
                                         image_reference, revision)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (run.run_id, run.repository_id, run.invocation_id, run.started_at,
             run.finished_at, run.provisioning_status.value, run.status_reason,
             run.image_reference, run.revision),
        )

    def update_run(self, run: RunRecord) -> None:
        self._write(
            """
            UPDATE repository_runs
            SET finished_at = ?, provisioning_status = ?, status_reason = ?,
                image_reference = ?, revision = ?
            WHERE run_id = ?
            """,
            (run.finished_at, run.provisioning_status.value, run.status_reason,
             run.image_reference, run.revision, run.run_id),
        )

    def finish_run(self, run: RunRecord, status: ProvisioningStatus,
                   reason: str | None = None,
                   image_reference: str | None = None) -> RunRecord:
        finished = replace(
            run,
            finished_at=max(utc_now_iso(), run.started_at),
            provisioning_status=status,
            status_reason=reason,
            image_reference=image_reference or run.image_reference,
        )
        self.update_run(finished)
        return finished

    def get_run(self, run_id: str) -> RunRecord | None:
        rows = self._read("SELECT * FROM repository_runs WHERE run_id = ?",
                          (run_id,))
        return _run_from_row(rows[0]) if rows else None

    def list_runs(self, repository_id: str | None = None) -> list[RunRecord]:
        if repository_id is None:
            rows = self._read(
                "SELECT * FROM repository_runs ORDER BY started_at, run_id")
        else:
            rows = self._read(
                "SELECT * FROM repository_runs WHERE repository_id = ?"
                " ORDER BY started_at, run_id", (repository_id,))
        return [_run_from_row(row) for row in rows]

    def latest_runs(self) -> dict[str, RunRecord]:
        """Most recent run per repository (by start time, then run_id),
        ordered by that run's start time and run_id."""
        rows = self._read(f"SELECT * FROM ({_LATEST_RUNS}) ORDER BY started_at, run_id")
        return {row["repository_id"]: _run_from_row(row) for row in rows}

    def latest_outcomes(self) -> list[LatestOutcome]:
        """One row per notebook, from its repository's latest run."""
        return self._named(_LATEST_OUTCOMES, LatestOutcome)

    def latest_outcome_groups(self) -> list[OutcomeGroup]:
        """The notebooks grouped by the columns the corpus summary folds,
        in their repositories' latest runs."""
        return self._named(_LATEST_OUTCOME_GROUPS, OutcomeGroup)

    def _named(self, sql: str, row_type) -> list:
        with self._lock:
            cursor = self._conn.cursor()
            cursor.row_factory = None
            return list(map(row_type._make, cursor.execute(sql)))

    # ---- executions ---------------------------------------------------------

    def insert_execution(self, record: ExecutionRecord) -> None:
        self._write(
            """
            INSERT INTO notebook_executions (notebook_id, run_id, status,
                                             duration_s, code_cell_count,
                                             markdown_code_ratio, errors,
                                             executed_notebook_path)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (record.notebook_id, record.run_id, record.status.value,
             record.duration_s, record.code_cell_count,
             record.markdown_code_ratio, _errors_to_json(record.errors),
             record.executed_notebook_path),
        )

    def delete_run_results(self, run: RunRecord) -> None:
        """Drop a run's metrics rows, then the execution rows they reference.

        A run's rows are about its repository's notebooks; naming them lets
        both deletes search the primary keys instead of scanning the tables.
        """
        own = ("run_id = ? AND notebook_id IN"
               " (SELECT notebook_id FROM notebooks WHERE repository_id = ?)")
        with self.transaction():
            for table in ("reproducibility_metrics", "notebook_executions"):
                self._write(f"DELETE FROM {table} WHERE {own}",
                            (run.run_id, run.repository_id))

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

    def list_executions(self, run_id: str | None = None) -> list[ExecutionRecord]:
        if run_id is None:
            rows = self._read(
                "SELECT * FROM notebook_executions ORDER BY run_id, notebook_id")
        else:
            rows = self._read(
                "SELECT * FROM notebook_executions WHERE run_id = ?"
                " ORDER BY notebook_id", (run_id,))
        return [_execution_from_row(row) for row in rows]

    # ---- metrics ------------------------------------------------------------

    def insert_metrics(self, metrics: ReproducibilityMetrics) -> None:
        self._write(
            """
            INSERT INTO reproducibility_metrics (notebook_id, run_id,
                identical_count, different_count, nondeterministic_count,
                identical_indices, different_indices, nondeterministic_indices,
                total_code_cells, score, structural_mismatch)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)
            """,
            (metrics.notebook_id, metrics.run_id, metrics.identical_count,
             metrics.different_count, metrics.nondeterministic_count,
             json.dumps(list(metrics.identical_indices)),
             json.dumps(list(metrics.different_indices)),
             json.dumps(list(metrics.nondeterministic_indices)),
             metrics.total_code_cells, metrics.score),
        )

    def insert_unscored_metrics(self, notebook_id: str, run_id: str,
                                total_code_cells: int) -> None:
        """Row for a notebook that could not be scored (structural mismatch)."""
        self._write(
            """
            INSERT INTO reproducibility_metrics (notebook_id, run_id,
                total_code_cells, score, structural_mismatch)
            VALUES (?, ?, ?, NULL, 1)
            """,
            (notebook_id, run_id, total_code_cells),
        )

    def list_metrics(self, run_id: str | None = None
                     ) -> list[tuple[ReproducibilityMetrics, bool]]:
        """Metrics rows paired with their structural-mismatch flag."""
        if run_id is None:
            rows = self._read(
                "SELECT * FROM reproducibility_metrics ORDER BY run_id, notebook_id")
        else:
            rows = self._read(
                "SELECT * FROM reproducibility_metrics WHERE run_id = ?"
                " ORDER BY notebook_id", (run_id,))
        return [_metrics_from_row(row) for row in rows]

    def get_metrics(self, notebook_id: str, run_id: str
                    ) -> tuple[ReproducibilityMetrics, bool] | None:
        rows = self._read(
            "SELECT * FROM reproducibility_metrics"
            " WHERE notebook_id = ? AND run_id = ?",
            (notebook_id, run_id))
        return _metrics_from_row(rows[0]) if rows else None


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
    )


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


def _errors_from_json(text: str | None) -> tuple[ExecutionError, ...]:
    if text is None or text == "[]":
        return ()
    return tuple(
        ExecutionError(
            error_type=e["error_type"],
            category=ErrorCategory(e["category"]),
            message=e["message"],
            cell_index=e["cell_index"],
            count=e["count"],
        )
        for e in json.loads(text)
    )


def _execution_from_row(row: sqlite3.Row) -> ExecutionRecord:
    return ExecutionRecord(
        notebook_id=row["notebook_id"],
        run_id=row["run_id"],
        status=ExecutionStatus(row["status"]),
        duration_s=row["duration_s"],
        code_cell_count=row["code_cell_count"],
        markdown_code_ratio=row["markdown_code_ratio"],
        errors=_errors_from_json(row["errors"]),
        executed_notebook_path=row["executed_notebook_path"],
    )


def _metrics_from_row(row: sqlite3.Row) -> tuple[ReproducibilityMetrics, bool]:
    mismatch = bool(row["structural_mismatch"])
    if mismatch:
        # The partition invariant cannot hold for an unscored row; it reads
        # back as an empty partition with an undefined score.
        empty = ReproducibilityMetrics(
            notebook_id=row["notebook_id"], run_id=row["run_id"],
            identical_count=0, different_count=0, nondeterministic_count=0,
            identical_indices=(), different_indices=(),
            nondeterministic_indices=(), total_code_cells=0, score=None,
        )
        return empty, True
    metrics = ReproducibilityMetrics(
        notebook_id=row["notebook_id"],
        run_id=row["run_id"],
        identical_count=row["identical_count"],
        different_count=row["different_count"],
        nondeterministic_count=row["nondeterministic_count"],
        identical_indices=tuple(json.loads(row["identical_indices"])),
        different_indices=tuple(json.loads(row["different_indices"])),
        nondeterministic_indices=tuple(json.loads(row["nondeterministic_indices"])),
        total_code_cells=row["total_code_cells"],
        score=row["score"],
    )
    return metrics, False
