"""Relational store schema, identifiers, and integrity constraints."""

from __future__ import annotations

import hashlib
import random
import re
import sqlite3
import sys
import threading

import pytest

import nbrepro.store
from nbrepro.cli import _classification
from nbrepro.compare import metrics_from_partition, unscored_metrics
from nbrepro.executor import ErrorCategory, ExecutionError, ExecutionRecord, ExecutionStatus
from nbrepro.outcomes import BaselineRecord
from nbrepro.report import aggregate_corpus
from nbrepro.store import (
    _LATEST_OUTCOMES,
    SCHEMA_VERSION,
    LatestOutcome,
    NotebookDescriptor,
    ProvisioningStatus,
    Repository,
    RunRecord,
    Store,
    StoreError,
    utc_now_iso,
)

from conftest import FIXTURES, store_rows
from test_classify import _STATUS_PAIRS, _random_report_store


@pytest.fixture()
def store():
    with Store(":memory:") as s:
        yield s


def _repo(repo_id="repo1", **kwargs):
    defaults = dict(url="https://example.org/user/proj", accessible=True)
    defaults.update(kwargs)
    return Repository(repository_id=repo_id, **defaults)


def _run(store, run_id="run1", repo_id="repo1", invocation="inv1"):
    run = RunRecord(run_id=run_id, repository_id=repo_id,
                    invocation_id=invocation, started_at=utc_now_iso())
    store.insert_run(run)
    return run


def _notebook(store, nb_id="nb1", repo_id="repo1", rel="a.ipynb"):
    descriptor = NotebookDescriptor(
        notebook_id=nb_id, repository_id=repo_id, relative_path=rel,
        kernel_name="python3", nbformat_version=(4, 5),
        code_cell_count=3, markdown_cell_count=1,
        nondeterministic_pattern_cells=0)
    store.upsert_notebook(descriptor)
    return descriptor


def _execution(store, nb_id="nb1", run_id="run1", status=ExecutionStatus.SUCCESS,
               errors=(), path="/tmp/x.ipynb"):
    record = ExecutionRecord(
        notebook_id=nb_id, run_id=run_id, status=status, duration_s=1.5,
        code_cell_count=3, markdown_code_ratio=1 / 3, errors=tuple(errors),
        executed_notebook_path=path if status is ExecutionStatus.SUCCESS else None)
    store.insert_execution(record)
    return record


def test_repository_round_trip(store):
    repo = _repo(manifest_paths=("requirements.txt", "sub/setup.py"),
                 has_requirements_file=True, local_path="/tmp/tree")
    store.upsert_repository(repo)
    assert store.get_repository("repo1") == repo


def test_repository_upsert_is_stable(store):
    store.upsert_repository(_repo())
    store.upsert_repository(_repo(notebook_count=4))
    assert len(store.list_repositories()) == 1
    assert store.get_repository("repo1").notebook_count == 4


def test_duplicate_run_id_rejected(store):
    store.upsert_repository(_repo())
    _run(store)
    with pytest.raises(StoreError):
        _run(store, invocation="inv2")


def test_failed_statement_rolls_back_its_transaction(store):
    store.upsert_repository(_repo())
    with pytest.raises(StoreError):
        with store.transaction():
            _run(store)
            _run(store, invocation="inv2")  # duplicate run_id
    assert store_rows(store, "repository_runs") == []
    assert store.get_repository("repo1") is not None


def test_outer_transaction_rolls_back_finished_nested_block(store):
    store.upsert_repository(_repo())
    with pytest.raises(RuntimeError):
        with store.transaction():
            with store.transaction():
                _run(store)
            assert store.get_run("run1") is not None
            raise RuntimeError("interrupted after the nested block")
    assert store_rows(store, "repository_runs") == []
    _run(store)
    assert [run["run_id"] for run in store_rows(store, "repository_runs")] == ["run1"]


def test_one_run_per_repository_and_invocation(store):
    store.upsert_repository(_repo())
    _run(store, run_id="run1")
    with pytest.raises(StoreError):
        _run(store, run_id="run2", invocation="inv1")


def test_finished_before_started_rejected(store):
    store.upsert_repository(_repo())
    with pytest.raises(StoreError):
        store.insert_run(RunRecord(
            run_id="r", repository_id="repo1", invocation_id="i",
            started_at="2026-08-08T12:00:00+00:00",
            finished_at="2026-08-08T11:00:00+00:00"))


def test_finish_run_sets_terminal_state(store):
    store.upsert_repository(_repo())
    run = _run(store)
    finished = store.finish_run(run, ProvisioningStatus.ENVIRONMENT_BUILT,
                                image_reference="repro/repo1:run1")
    loaded = store.get_run("run1")
    assert loaded == finished
    assert loaded.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT
    assert loaded.finished_at >= loaded.started_at


def test_notebook_unique_per_repo_and_path(store):
    store.upsert_repository(_repo())
    _notebook(store)
    _notebook(store)  # same id: upsert
    assert len(store.list_notebooks("repo1")) == 1
    with pytest.raises(StoreError):
        store.upsert_notebook(NotebookDescriptor(
            notebook_id="other", repository_id="repo1", relative_path="a.ipynb"))


def test_execution_requires_existing_notebook_and_run(store):
    store.upsert_repository(_repo())
    _run(store)
    with pytest.raises(StoreError):
        _execution(store, nb_id="ghost")


def test_metrics_require_existing_execution(store):
    store.upsert_repository(_repo())
    _run(store)
    _notebook(store)
    with pytest.raises(StoreError):
        store.insert_metrics(metrics_from_partition(
            [0, 1], [2], [], notebook_id="nb1", run_id="run1"))
    _execution(store)
    store.insert_metrics(metrics_from_partition(
        [0, 1], [2], [], notebook_id="nb1", run_id="run1"))
    (loaded,) = store_rows(store, "reproducibility_metrics", notebook_id="nb1")
    assert loaded["structural_mismatch"] == 0
    assert loaded["score"] == 2 / 3
    assert loaded["identical_indices"] == "[0, 1]"


def test_success_status_requires_artifact_and_empty_errors(store):
    store.upsert_repository(_repo())
    _run(store)
    _notebook(store)
    with pytest.raises(StoreError):
        _execution(store, status=ExecutionStatus.SUCCESS, path=None)


def test_unscored_metrics_row(store):
    store.upsert_repository(_repo())
    _run(store)
    _notebook(store)
    _execution(store)
    store.insert_metrics(unscored_metrics(7, notebook_id="nb1", run_id="run1"))
    (loaded,) = store_rows(store, "reproducibility_metrics", notebook_id="nb1")
    assert loaded["structural_mismatch"] == 1
    assert loaded["score"] is None
    assert loaded["total_code_cells"] == 7


def test_latest_runs_picks_most_recent(store):
    store.upsert_repository(_repo())
    store.insert_run(RunRecord(run_id="old", repository_id="repo1",
                               invocation_id="i1",
                               started_at="2026-08-01T00:00:00+00:00"))
    store.insert_run(RunRecord(run_id="new", repository_id="repo1",
                               invocation_id="i2",
                               started_at="2026-08-02T00:00:00+00:00"))
    assert store.latest_runs()["repo1"].run_id == "new"


def test_runs_started_in_one_second_order_by_start_time(store, monkeypatch):
    """The later of two runs started within one second is the latest, even
    when its random id sorts first; a whole-second stamp of an older store
    sorts before every fraction of its second."""
    from datetime import datetime, timezone

    stamps = iter(datetime(2026, 8, 1, 12, 0, 0, micros, tzinfo=timezone.utc)
                  for micros in (100_000, 900_000))

    class Clock(datetime):
        @classmethod
        def now(cls, tz=None):
            return next(stamps)

    monkeypatch.setattr(nbrepro.store, "datetime", Clock)
    store.upsert_repository(_repo())
    store.insert_run(RunRecord(run_id="z" * 32, repository_id="repo1",
                               invocation_id="i0",
                               started_at="2026-08-01T12:00:00+00:00"))
    _run(store, run_id="f" * 32, invocation="i1")
    _run(store, run_id="0" * 32, invocation="i2")
    assert store.latest_runs()["repo1"].run_id == "0" * 32


def test_execution_round_trip_with_errors(store):
    from nbrepro.executor import ErrorCategory, ExecutionError
    store.upsert_repository(_repo())
    _run(store)
    _notebook(store)
    record = ExecutionRecord(
        notebook_id="nb1", run_id="run1",
        status=ExecutionStatus.ERRORED_BUT_COMPLETED, duration_s=2.0,
        code_cell_count=3, markdown_code_ratio=None,
        errors=(ExecutionError("KeyError", ErrorCategory.LOGIC, "'x'", 2, 2),),
        executed_notebook_path="/tmp/out.ipynb")
    store.insert_execution(record)
    (loaded,) = store_rows(store, "notebook_executions", run_id="run1")
    assert loaded == {
        "notebook_id": "nb1", "run_id": "run1", "status": "ErroredButCompleted",
        "duration_s": 2.0, "code_cell_count": 3, "markdown_code_ratio": None,
        "errors": '[{"error_type": "KeyError", "category": "Logic", '
                  '"message": "\'x\'", "cell_index": 2, "count": 2}]',
        "error_pairs": '[["KeyError", "Logic"]]',
        "executed_notebook_path": "/tmp/out.ipynb"}


def test_concurrent_writes_serialized(tmp_path):
    with Store(tmp_path / "store.sqlite3") as store:
        for i in range(8):
            store.upsert_repository(_repo(f"repo{i}"))
        errors = []

        def write_runs(repo_index):
            try:
                for j in range(5):
                    store.insert_run(RunRecord(
                        run_id=f"run-{repo_index}-{j}",
                        repository_id=f"repo{repo_index}",
                        invocation_id=f"inv-{j}",
                        started_at=utc_now_iso()))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=write_runs, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store_rows(store, "repository_runs")) == 40


def test_concurrent_reads_and_writes_serialized(tmp_path):
    threads_n, per_thread = 4, 25
    with Store(tmp_path / "store.sqlite3") as store:
        store.upsert_repository(_repo())
        runs = [_run(store, run_id=f"run{t}", invocation=f"inv{t}")
                for t in range(threads_n)]
        for t in range(threads_n):
            for i in range(per_thread):
                _notebook(store, nb_id=f"nb-{t}-{i}", rel=f"{t}/{i}.ipynb")
        errors = []

        def interleave(t):
            try:
                for i in range(per_thread):
                    _execution(store, nb_id=f"nb-{t}-{i}", run_id=f"run{t}")
                    assert len(store.comparisons_due(runs[t])) == i + 1
                    store.latest_outcomes()
                    assert store.get_run(f"run{(t + 1) % threads_n}") is not None
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=interleave, args=(t,))
                   for t in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(store_rows(store, "notebook_executions")) == threads_n * per_thread
        for t in range(threads_n):
            assert len(store.comparisons_due(runs[t])) == per_thread


def test_persistence_across_reopen(tmp_path):
    path = tmp_path / "store.sqlite3"
    with Store(path) as store:
        store.upsert_repository(_repo())
        _run(store)
    with Store(path) as reopened:
        assert reopened.get_repository("repo1") is not None
        assert reopened.get_run("run1") is not None


def test_latest_read_names_its_columns_as_its_row_fields(store):
    columns = [column[0] for column in store._conn.execute(_LATEST_OUTCOMES).description]
    assert columns == list(LatestOutcome._fields)


def test_latest_read_searches_the_per_run_tables_by_primary_key(store):
    statements = []
    store._conn.set_trace_callback(statements.append)
    store.latest_outcomes()
    store._conn.set_trace_callback(None)
    (sql,) = [statement for statement in statements if "SELECT" in statement]
    plan = [row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + sql)]
    for table in ("notebook_executions", "reproducibility_metrics"):
        alias = re.search(rf"\b{table} AS (\w+)", sql).group(1)
        searches = [step for step in plan if re.fullmatch(
            rf"SEARCH {alias} USING INDEX sqlite_autoindex_{table}_1"
            r" \(notebook_id=\? AND run_id=\?\).*", step)]
        assert len(searches) == 1, plan
        assert not [step for step in plan
                    if re.match(rf"SCAN ({alias}|{table})\b", step)], plan
    # The error facts are stored: no row is reduced in a subquery.
    assert not [step for step in plan if "json_each" in step or "CORRELATED" in step], plan


# ---- schema version, migration and enum checks ----------------------------------

# The sqlite_master DDL of a new store, per schema version. A change to the
# schema needs a new version, a migration to it, and a new entry here.
_DDL_DIGESTS = {
    1: "e02b8c9165182bfd61cbd0cc448e7c6113c5723c402dd9cef4f4931701beee85",
}

_V0_SCHEMA = (FIXTURES / "store_schema_v0.sql").read_text("utf-8")


def _ddl(conn) -> list[tuple]:
    return [tuple(row) for row in conn.execute(
        "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY name")]


def _version(path) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


def test_new_store_ddl_is_pinned_per_schema_version(store):
    ddl = _ddl(store._conn)
    digest = hashlib.sha256(repr(ddl).encode("utf-8")).hexdigest()
    assert digest == _DDL_DIGESTS[SCHEMA_VERSION], "\n".join(
        str(sql) for *_, sql in ddl)
    assert store._conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION


def _write_v0_copy(store: Store, path) -> None:
    """Write the rows of a store to a new version-0 store, column for
    column, as a version-0 writer wrote them."""
    conn = sqlite3.connect(path)
    conn.executescript(_V0_SCHEMA)
    for (table,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'").fetchall():
        columns = [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]
        rows = store._conn.execute(f"SELECT {', '.join(columns)} FROM {table}")
        conn.executemany(f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
                         map(tuple, rows))
    conn.commit()
    conn.close()


def _all_rows(store: Store) -> dict[str, list[tuple]]:
    tables = [name for _, name, _, _ in _ddl(store._conn)
              if not name.startswith("sqlite_")]
    return {table: [tuple(row) for row in store._conn.execute(
        f"SELECT * FROM {table} ORDER BY 1, 2")] for table in tables}


def _populate(store: Store, rng: random.Random) -> list[BaselineRecord]:
    """A random store of every run and execution status, and a baseline row
    per notebook."""
    _random_report_store(store, rng)
    store.upsert_repository(_repo("unicode"))
    _notebook(store, nb_id="nb-u", repo_id="unicode", rel="ü.ipynb")
    _run(store, run_id="run-u", repo_id="unicode")
    store.insert_execution(ExecutionRecord(
        notebook_id="nb-u", run_id="run-u",
        status=ExecutionStatus.ERRORED_BUT_COMPLETED, duration_s=1.0,
        code_cell_count=1, markdown_code_ratio=None,
        errors=(ExecutionError("FehlerÜ", ErrorCategory.CODE, "ü \"q\"", 0),
                ExecutionError("KeyError", ErrorCategory.LOGIC, "'k'", 0)),
        executed_notebook_path=None))
    store.finish_run(store.get_run("run-u"), ProvisioningStatus.BUILD_FAILED,
                     reason="container runtime unavailable: no daemon")
    return [BaselineRecord(nb.notebook_id, *rng.choice(_STATUS_PAIRS))
            for repo in store.list_repositories()
            for nb in store.list_notebooks(repo.repository_id)]


def test_version_0_store_migrates_to_equal_rows(tmp_path):
    rng = random.Random(5)
    for n in range(20):
        old = tmp_path / f"old{n}.sqlite3"
        with Store() as store:
            baselines = _populate(store, rng)
            expected = _all_rows(store)
            groups = store.latest_outcomes()
            outcomes = sorted(map(repr, groups))
            payload = _classification(baselines, store)
            summary = aggregate_corpus(store)
            _write_v0_copy(store, old)
        assert _version(old) == 0
        with Store(old) as migrated:
            assert _all_rows(migrated) == expected
            assert sorted(map(repr, migrated.latest_outcomes())) == outcomes
            assert _classification(baselines, migrated) == payload
            assert aggregate_corpus(migrated) == summary
        assert _version(old) == SCHEMA_VERSION
        # Classify and report fold the same groups.
        assert (payload["containerized_success_rate_by_requirements"]
                == summary.success_rate_by_requirements)
        assert (sum(group.pattern_notebooks for group in groups)
                == summary.nondeterministic_notebooks)


def test_migrated_store_ddl_equals_a_new_ones(tmp_path):
    path = tmp_path / "old.sqlite3"
    conn = sqlite3.connect(path)
    conn.executescript(_V0_SCHEMA)
    conn.close()
    with Store(path) as migrated, Store() as new:
        assert sorted(_ddl(migrated._conn)) == sorted(_ddl(new._conn))
        # The references of the tables left in place still name the rebuilt ones.
        assert not migrated._conn.execute("PRAGMA foreign_key_check").fetchall()
        assert "REFERENCES notebook_executions(" in dict(
            (name, sql) for _, name, _, sql in _ddl(migrated._conn)
        )["reproducibility_metrics"]


def test_newer_store_is_refused_and_left_as_is(tmp_path):
    path = tmp_path / "store.sqlite3"
    with Store(path) as store:
        store.upsert_repository(_repo())
    conn = sqlite3.connect(path)
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.close()
    before = path.read_bytes()
    with pytest.raises(StoreError) as refused:
        Store(path)
    message = str(refused.value)
    assert f"schema version {SCHEMA_VERSION + 1}" in message
    assert f"reads schema version {SCHEMA_VERSION}" in message
    assert path.read_bytes() == before


def test_failed_migration_leaves_the_version_0_store(tmp_path):
    path = tmp_path / "old.sqlite3"
    conn = sqlite3.connect(path)
    conn.executescript(_V0_SCHEMA)
    conn.execute("INSERT INTO repositories (repository_id, url) VALUES ('r', 'u')")
    conn.execute("INSERT INTO repository_runs (run_id, repository_id, invocation_id,"
                 " started_at, provisioning_status) VALUES ('x', 'r', 'i', 't', 'Lost')")
    conn.commit()
    conn.close()
    before = path.read_bytes()
    with pytest.raises(StoreError, match="cannot migrate .* from schema version 0"):
        Store(path)
    assert path.read_bytes() == before


def test_two_stores_opening_one_version_0_store_migrate_it_once(tmp_path, monkeypatch):
    path = tmp_path / "old.sqlite3"
    with Store() as store:
        _populate(store, random.Random(3))
        expected = _all_rows(store)
        _write_v0_copy(store, path)
    migrations = []
    inside = threading.Event()
    (migrate,) = nbrepro.store._MIGRATIONS

    def slow_migration(conn):
        migrations.append(threading.current_thread().name)
        inside.set()
        threading.Event().wait(0.3)  # the second opener reads version 0 meanwhile
        migrate(conn)

    monkeypatch.setattr(nbrepro.store, "_MIGRATIONS", [slow_migration])
    opened, errors = [], []

    def open_store():
        try:
            with Store(path) as store:
                opened.append(_all_rows(store))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    first = threading.Thread(target=open_store)
    first.start()
    assert inside.wait(timeout=30)
    second = threading.Thread(target=open_store)
    second.start()
    for thread in (first, second):
        thread.join(timeout=60)
    assert not errors
    assert len(migrations) == 1
    assert opened == [expected, expected]


@pytest.mark.parametrize("table, column, enum", [
    ("repository_runs", "provisioning_status", ProvisioningStatus),
    ("notebook_executions", "status", ExecutionStatus),
])
def test_enum_columns_refuse_values_outside_their_enum(store, table, column, enum):
    store.upsert_repository(_repo())
    _run(store)
    _notebook(store)
    _execution(store)
    with store.transaction():
        for member in enum:
            store._conn.execute(f"UPDATE {table} SET {column} = ?", (member.value,))
    for value in ("Sucess", "success", "", None):
        with pytest.raises(sqlite3.IntegrityError):
            store._conn.execute(f"UPDATE {table} SET {column} = ?", (value,))


@pytest.mark.parametrize("status, reason, phase", [
    (ProvisioningStatus.BUILD_FAILED, "DependencyInstall: ERROR: no match", "DependencyInstall"),
    (ProvisioningStatus.BUILD_FAILED, "Timeout: ", "Timeout"),
    (ProvisioningStatus.BUILD_FAILED,
     "container runtime unavailable: docker: not found", "container runtime unavailable"),
    (ProvisioningStatus.BUILD_FAILED, " Other : x: y", "Other"),
    (ProvisioningStatus.BUILD_FAILED, "no colon", "no colon"),
    (ProvisioningStatus.BUILD_FAILED, "", None),
    (ProvisioningStatus.BUILD_FAILED, None, None),
    (ProvisioningStatus.ENVIRONMENT_BUILT, "built: ok", None),
    (ProvisioningStatus.INVALID_URL, "malformed", None),
])
def test_finish_run_stores_the_build_phase_of_its_reason(store, status, reason, phase):
    store.upsert_repository(_repo())
    run = _run(store)
    finished = store.finish_run(run, status, reason=reason, build_duration_s=1.25)
    assert store.get_run("run1") == finished
    assert finished.build_duration_s == 1.25
    (stored,) = store._conn.execute(
        "SELECT build_phase FROM repository_runs WHERE run_id = 'run1'").fetchone()
    assert stored == phase
    if status is ProvisioningStatus.BUILD_FAILED and reason:
        assert stored == reason.split(":", 1)[0].strip()


def test_execution_stores_its_error_pairs(store):
    store.upsert_repository(_repo())
    _run(store)
    _notebook(store)
    _notebook(store, nb_id="nb2", rel="b.ipynb")
    _execution(store, status=ExecutionStatus.ERRORED_BUT_COMPLETED, errors=[
        ExecutionError("KeyError", ErrorCategory.LOGIC, "'x'", 2, 2),
        ExecutionError("ModuleNotFoundError", ErrorCategory.DEPENDENCY, "no numpy", 0),
        ExecutionError("KeyError", ErrorCategory.LOGIC, "'y'", 3)])
    _execution(store, nb_id="nb2")
    rows = store._conn.execute("SELECT notebook_id, error_pairs"
                               " FROM notebook_executions ORDER BY 1").fetchall()
    assert [tuple(row) for row in rows] == [
        ("nb1", '[["KeyError", "Logic"], ["ModuleNotFoundError", "Dependency"],'
                ' ["KeyError", "Logic"]]'),
        ("nb2", "[]"),
    ]
