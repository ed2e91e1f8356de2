"""Relational store schema, identifiers, and integrity constraints."""

from __future__ import annotations

import hashlib
import json
import logging
import random
import re
import sqlite3
import sys
import threading
from collections import Counter
from contextlib import closing

import pytest

import nbrepro.report
import nbrepro.store
from nbrepro.cli import _classification, cmd_classify, cmd_report
from nbrepro.compare import metrics_from_partition, unscored_metrics
from nbrepro.config import PipelineConfig
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
from test_classify import (
    _BASELINE_HEADER,
    _STATUS_PAIRS,
    _latest_rows,
    _random_report_store,
)


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
    # Classify stores each group but its notebook ids.
    stored = store._conn.execute("PRAGMA table_info(classified_outcomes)").fetchall()
    assert [column[1] for column in stored] == columns[:-1]


def _plans_of(store: Store, call, verb: str) -> list[tuple[str, list[str]]]:
    """The SQL text and query-plan steps, in plan order, of each statement
    holding ``verb`` that ``call()`` runs on the store's connection."""
    statements = []
    store._conn.set_trace_callback(statements.append)
    try:
        call()
    finally:
        store._conn.set_trace_callback(None)
    return [(sql, [row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + sql)])
            for sql in statements if verb in sql]


def test_latest_read_searches_the_per_run_tables_by_primary_key(store):
    ((sql, plan),) = _plans_of(store, store.latest_outcomes, "SELECT")
    for table in ("notebook_executions", "reproducibility_metrics"):
        alias = re.search(rf"\b{table} AS (\w+)", sql).group(1)
        searches = [step for step in plan if re.fullmatch(
            rf"SEARCH {alias} USING INDEX sqlite_autoindex_{table}_1"
            r" \(run_id=\? AND notebook_id=\?\).*", step)]
        assert len(searches) == 1, plan
        assert not [step for step in plan
                    if re.match(rf"SCAN ({alias}|{table})\b", step)], plan
    # The error facts are stored: no row is reduced in a subquery.
    assert not [step for step in plan if "json_each" in step or "CORRELATED" in step], plan


def test_latest_read_walks_repositories_then_their_notebooks(store):
    """The latest run is searched once per repository, outside the notebook
    loop, and each repository's notebooks by its key."""
    ((sql, plan),) = _plans_of(store, store.latest_outcomes, "SELECT")
    repositories, notebooks = (re.search(rf"\b{table} AS (\w+)", sql).group(1)
                               for table in ("repositories", "notebooks"))
    outer = plan.index(f"SCAN {repositories}")
    (latest,) = [index for index, step in enumerate(plan)
                 if re.match(r"SEARCH \(subquery-\d+\) .*LEFT-JOIN", step)]
    inner = plan.index(f"SEARCH {notebooks} USING INDEX"
                       f" sqlite_autoindex_notebooks_2 (repository_id=?)")
    assert outer < latest < inner, plan
    assert not [step for step in plan if re.match(rf"SCAN ({notebooks}|notebooks)\b", step)], plan


def test_run_deletes_search_the_per_run_tables_by_run(store):
    store.upsert_repository(_repo())
    run = _run(store)
    deletes = _plans_of(store, lambda: store.delete_run_results(run), "DELETE")
    assert len(deletes) == 2
    for (sql, plan), table in zip(deletes, ("reproducibility_metrics", "notebook_executions")):
        assert "SELECT" not in sql and "notebooks" not in sql, sql
        assert plan[0] == (f"SEARCH {table} USING COVERING INDEX"
                           f" sqlite_autoindex_{table}_1 (run_id=?)"), plan
        assert not [step for step in plan if step.startswith("SCAN")], plan


# ---- schema version, migration and enum checks ----------------------------------

# The sqlite_master DDL of a new store, per schema version. A change to the
# schema needs a new version, a fixture of the version before, and a new
# entry here.
_DDL_DIGESTS = {
    1: "e02b8c9165182bfd61cbd0cc448e7c6113c5723c402dd9cef4f4931701beee85",
    2: "21c44615ef15709b4f279c650a4566eef86f055878ae813548e847902a89c5cf",
    3: "9b038f3a83b33a1064af42764a8a4412593ef124474fd351a4ab70ae96051e1a",
    4: "2bf3f19f9344186870fa0ebfd7436845a578beafe07f91d7331566b6cf8df4b6",
}

# The tables that bringing an empty store of each older version to the
# current schema rebuilds; the others are left in place or created.
_REBUILT_FROM = {
    0: {"repository_runs", "notebook_executions", "reproducibility_metrics"},
    1: {"notebook_executions", "reproducibility_metrics"},
    2: set(),
    3: set(),
}

_V0_SCHEMA = (FIXTURES / "store_schema_v0.sql").read_text("utf-8")
_V1_SCHEMA = (FIXTURES / "store_schema_v1.sql").read_text("utf-8")
_V2_SCHEMA = (FIXTURES / "store_schema_v2.sql").read_text("utf-8")
_V3_SCHEMA = (FIXTURES / "store_schema_v3.sql").read_text("utf-8")


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


def _write_old_copy(store: Store, path, schema: str) -> None:
    """Write the rows of a store to a new store of an older ``schema``,
    column for column and in rowid order, as that version's writer wrote
    them."""
    conn = sqlite3.connect(path)
    conn.executescript(schema)
    for (table,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'").fetchall():
        columns = [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]
        rows = store._conn.execute(f"SELECT {', '.join(columns)} FROM {table} ORDER BY rowid")
        conn.executemany(f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
                         map(tuple, rows))
    conn.commit()
    conn.close()


def _tables(store: Store) -> list[str]:
    return [name for kind, name, _, _ in _ddl(store._conn)
            if kind == "table" and not name.startswith("sqlite_")]


def _all_rows(store: Store) -> dict[str, list[tuple]]:
    tables = _tables(store)
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
            payload = _classification(baselines, groups)
            summary = aggregate_corpus(store)
            _write_old_copy(store, old, _V0_SCHEMA)
        assert _version(old) == 0
        with Store(old) as migrated:
            assert _all_rows(migrated) == expected
            assert sorted(map(repr, migrated.latest_outcomes())) == outcomes
            assert _classification(baselines, migrated.latest_outcomes()) == payload
            assert aggregate_corpus(migrated) == summary
        assert _version(old) == SCHEMA_VERSION
        # Classify and report fold the same groups.
        assert (payload["containerized_success_rate_by_requirements"]
                == summary.success_rate_by_requirements)
        assert (sum(group.pattern_notebooks for group in groups)
                == summary.nondeterministic_notebooks)


def _rootpages(conn) -> dict[str, int]:
    return dict(conn.execute("SELECT name, rootpage FROM sqlite_master WHERE type = 'table'"))


@pytest.mark.parametrize("version", range(SCHEMA_VERSION))
def test_migrated_store_ddl_equals_a_new_ones(tmp_path, monkeypatch, version):
    """Each older version has a fixture, pinned by its DDL digest, and comes
    to a new store's DDL by rebuilding exactly the tables whose statements
    changed since."""
    fixture = FIXTURES / f"store_schema_v{version}.sql"
    assert fixture.exists()
    path = tmp_path / "old.sqlite3"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(fixture.read_text("utf-8"))
        if version >= 1:
            assert hashlib.sha256(repr(_ddl(conn)).encode("utf-8")).hexdigest() \
                == _DDL_DIGESTS[version]
        before = _rootpages(conn)
    monkeypatch.setattr(Store, "_vacuum", lambda self: None)
    with Store(path) as migrated, Store() as new:
        assert sorted(_ddl(migrated._conn)) == sorted(_ddl(new._conn))
        after = _rootpages(migrated._conn)
        assert {table for table, page in before.items()
                if after[table] != page} == _REBUILT_FROM[version]
        # The references of the tables left in place still name the rebuilt ones.
        assert not migrated._conn.execute("PRAGMA foreign_key_check").fetchall()
        assert "REFERENCES notebook_executions(" in dict(
            (name, sql) for _, name, _, sql in _ddl(migrated._conn)
        )["reproducibility_metrics"]


def _record_migrations(monkeypatch) -> list[int]:
    """The versions that file-backed store openings migrate from, in order."""
    migrated_from = []
    migrate = Store._migrate

    def recorded(self, version):
        if self.path != ":memory:":
            migrated_from.append(version)
        return migrate(self, version)

    monkeypatch.setattr(Store, "_migrate", recorded)
    return migrated_from


def test_version_1_store_migrates_once_to_equal_rows(tmp_path, monkeypatch):
    path = tmp_path / "v1.sqlite3"
    with Store() as store:
        _populate(store, random.Random(7))
        tables = _tables(store)
        expected = {table: store_rows(store, table) for table in tables}
        outcomes = sorted(map(repr, store.latest_outcomes()))
        _write_old_copy(store, path, _V1_SCHEMA)
    conn = sqlite3.connect(path)
    ddl = _ddl(conn)
    conn.close()
    assert hashlib.sha256(repr(ddl).encode("utf-8")).hexdigest() == _DDL_DIGESTS[1]
    assert _version(path) == 1
    migrated_from = _record_migrations(monkeypatch)
    for _ in range(2):
        with Store(path) as migrated, Store() as new:
            assert {table: store_rows(migrated, table) for table in tables} == expected
            assert sorted(map(repr, migrated.latest_outcomes())) == outcomes
            assert not migrated._conn.execute("PRAGMA foreign_key_check").fetchall()
            assert sorted(_ddl(migrated._conn)) == sorted(_ddl(new._conn))
            # The migration vacuumed the pages of the tables it rebuilt.
            assert migrated._conn.execute("PRAGMA freelist_count").fetchone()[0] == 0
    assert migrated_from == [1]
    assert _version(path) == SCHEMA_VERSION


def test_version_2_store_migrates_once_to_equal_rows(tmp_path, monkeypatch):
    path = tmp_path / "v2.sqlite3"
    with Store() as store:
        baselines = _populate(store, random.Random(11))
        tables = _tables(store)
        expected = {table: store_rows(store, table) for table in tables}
        _write_old_copy(store, path, _V2_SCHEMA)
    assert _version(path) == 2
    migrated_from = _record_migrations(monkeypatch)
    for _ in range(2):
        with Store(path) as migrated, Store() as new:
            assert {table: store_rows(migrated, table) for table in tables} == expected
            assert sorted(_ddl(migrated._conn)) == sorted(_ddl(new._conn))
    assert migrated_from == [2]
    assert _version(path) == SCHEMA_VERSION

    # The migrated store reports no classes until classify runs again.
    baseline = tmp_path / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER + "".join(
        f"{b.notebook_id},{b.prev_dependency_install},{b.prev_execution_status},-,-\n"
        for b in baselines))
    config = PipelineConfig(baseline_path=baseline, report_dir=tmp_path / "reports")
    with Store(path) as migrated:
        before = aggregate_corpus(migrated)
        assert cmd_classify(config, migrated) == 0
        after = aggregate_corpus(migrated)
    assert (before.classified_notebooks, before.resolution_rate) == (0, None)
    assert after.classified_notebooks == after.total_notebooks == len(baselines)


def _stored_groups(conn) -> int:
    return conn.execute("SELECT count(*) FROM classified_outcomes").fetchone()[0]


def test_version_3_store_migrates_once_to_equal_rows(tmp_path, monkeypatch):
    """A version-3 row that stands keeps its classes and gains no groups, so
    the migrated store's report folds the latest-run read and gives the
    bytes of the report that folded the groups."""
    monkeypatch.setattr(nbrepro.report, "utc_now_iso", lambda: "2026-01-01T00:00:00+00:00")
    path = tmp_path / "v3.sqlite3"
    baseline = tmp_path / "baseline.csv"
    config = PipelineConfig(baseline_path=baseline, report_dir=tmp_path / "classified")
    with Store() as store:
        baselines = _populate(store, random.Random(13))
        baseline.write_text(_BASELINE_HEADER + "".join(
            f"{b.notebook_id},{b.prev_dependency_install},{b.prev_execution_status},-,-\n"
            for b in baselines))
        assert cmd_classify(config, store) == 0
        assert cmd_report(config, store) == 0
        counts, rate, groups = store.classification()
        assert groups and counts
        tables = [table for table in _tables(store) if table != "classified_outcomes"]
        expected = {table: store_rows(store, table) for table in tables}
        _write_old_copy(store, path, _V3_SCHEMA)
    assert _version(path) == 3
    migrated_from = _record_migrations(monkeypatch)
    for _ in range(2):
        with Store(path) as migrated, Store() as new:
            assert {table: store_rows(migrated, table) for table in tables} == expected
            assert migrated.classification() == (counts, rate, [])
            assert sorted(_ddl(migrated._conn)) == sorted(_ddl(new._conn))
    assert migrated_from == [3]
    assert _version(path) == SCHEMA_VERSION

    reads = []
    read = Store.latest_outcomes
    monkeypatch.setattr(Store, "latest_outcomes",
                        lambda self: reads.append(1) or read(self))
    migrated_config = PipelineConfig(report_dir=tmp_path / "migrated")
    with Store(path) as migrated:
        assert cmd_report(migrated_config, migrated) == 0
    assert len(reads) == 1
    for name in ("report.json", "summary.csv", "summary.md"):
        assert ((config.report_dir / name).read_bytes()
                == (migrated_config.report_dir / name).read_bytes()), name


def test_a_rebuilt_table_keeps_its_triggers_and_the_classes(tmp_path, monkeypatch):
    """A later version that adds a column to a table the classes were folded
    from rebuilds it: the copy deletes neither the classes nor their groups,
    and a write to the rebuilt table afterwards deletes both."""
    path = tmp_path / "store.sqlite3"
    with Store(path) as store:
        _populate(store, random.Random(17))
        store.record_classification({"A_EnvironmentResolved": 2}, 50.0,
                                    store.latest_outcomes())
        classified = store.classification()
        expected = {table: store_rows(store, table) for table in _tables(store)}
    assert classified.outcomes
    expected["notebooks"] = [{**row, "note": None} for row in expected["notebooks"]]
    monkeypatch.setattr(nbrepro.store, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
    monkeypatch.setattr(nbrepro.store, "_SCHEMA", [
        statement.replace("    parse_error TEXT,\n", "    parse_error TEXT,\n    note TEXT,\n")
        for statement in nbrepro.store._SCHEMA])
    with Store(path) as migrated, Store() as new:
        assert {table: store_rows(migrated, table) for table in expected} == expected
        assert sorted(_ddl(migrated._conn)) == sorted(_ddl(new._conn))
        assert migrated._conn.execute(
            "SELECT count(*) FROM sqlite_master WHERE type = 'trigger'").fetchone()[0] == 16
        assert migrated.classification() == classified
        _notebook(migrated, nb_id="nb-new", repo_id="unicode", rel="new.ipynb")
        assert migrated.classification() is None
        assert _stored_groups(migrated._conn) == 0
    assert _version(path) == SCHEMA_VERSION + 1


@pytest.mark.parametrize("table", nbrepro.store._CLASSIFIED_TABLES)
def test_any_write_to_a_classified_table_deletes_the_classes(tmp_path, table):
    """The triggers hold the rule, so a write through another connection
    deletes the classes and their groups too; one that touches no row
    leaves them. The other connection has its foreign keys off."""
    path = tmp_path / "store.sqlite3"
    with Store(path) as store:
        _populate(store, random.Random(2))
    with Store(path) as store, closing(sqlite3.connect(path)) as other:
        rowid, *values = other.execute(
            f"SELECT rowid, * FROM {table} ORDER BY rowid LIMIT 1").fetchone()
        for statement, params, deletes in (
                (f"UPDATE {table} SET rowid = rowid WHERE rowid = ?", (rowid,), True),
                (f"DELETE FROM {table} WHERE rowid = ?", (rowid,), True),
                (f"DELETE FROM {table} WHERE rowid = ?", (rowid,), False),
                (f"INSERT INTO {table} VALUES ({', '.join('?' * len(values))})",
                 values, True)):
            groups = store.latest_outcomes()
            store.record_classification({"A_EnvironmentResolved": 2}, 50.0, groups)
            assert _stored_groups(other) == len(groups) > 0
            with other:
                other.execute(statement, params)
            assert (store.classification() is None) == deletes, statement
            assert _stored_groups(other) == (0 if deletes else len(groups)), statement
    with Store(path) as store:
        groups = store.latest_outcomes()
        store.record_classification({"B_PersistentError": 1}, None, groups[:1])
        store.record_classification({"A_EnvironmentResolved": 2}, 50.0, groups)
        counts, rate, stored = store.classification()
        assert (counts, rate) == ({
            "A_EnvironmentResolved": 2, "B_PersistentError": 0,
            "C_ReproducibilityDrift": 0, "D_Regression": 0, "Unclassified": 0}, 50.0)
        # The second classify's groups replaced the first one's.
        assert sorted(map(repr, stored)) == sorted(
            repr(group._replace(notebook_ids=None)) for group in groups)


def test_classify_holds_the_write_lock_from_its_read_to_its_row(tmp_path, monkeypatch):
    path = tmp_path / "store.sqlite3"
    with Store(path) as store:
        baselines = _populate(store, random.Random(4))
    baseline = tmp_path / "baseline.csv"
    baseline.write_text(_BASELINE_HEADER + "".join(
        f"{b.notebook_id},{b.prev_dependency_install},{b.prev_execution_status},-,-\n"
        for b in baselines))
    read = Store.latest_outcomes
    refused = []

    def read_then_write_elsewhere(self):
        groups = read(self)
        with closing(sqlite3.connect(path, timeout=0)) as other:
            try:
                with other:
                    other.execute("DELETE FROM reproducibility_metrics")
            except sqlite3.OperationalError as exc:
                refused.append(str(exc))
        return groups

    monkeypatch.setattr(Store, "latest_outcomes", read_then_write_elsewhere)
    config = PipelineConfig(baseline_path=baseline, report_dir=tmp_path / "reports")
    with Store(path) as store:
        assert cmd_classify(config, store) == 0
        monkeypatch.setattr(Store, "latest_outcomes", read)
        assert store_rows(store, "reproducibility_metrics")
        assert aggregate_corpus(store).classified_notebooks == len(baselines)
    assert refused == ["database is locked"]


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
        _write_old_copy(store, path, _V0_SCHEMA)
    migrations = []
    inside = threading.Event()
    migrate = Store._migrate

    def slow_migration(self, version):
        if self.path != ":memory:":
            migrations.append(threading.current_thread().name)
            inside.set()
            threading.Event().wait(0.3)  # the second opener reads version 0 meanwhile
        return migrate(self, version)

    monkeypatch.setattr(Store, "_migrate", slow_migration)
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


# ---- the latest-run read against a per-notebook fold -----------------------------

def _add_edge_repositories(store: Store, rng: random.Random) -> None:
    """A repository with no run, and one whose two runs started in the same
    second: the later, with the smaller id, ended KernelNotFound with one
    notebook unexecuted, one unscored by a structural mismatch and one
    scored; the earlier ran every notebook to other outcomes."""
    store.upsert_repository(_repo("no-run", has_requirements_file=True))
    _notebook(store, nb_id="no-run-nb", repo_id="no-run")
    store.upsert_repository(_repo("one-second"))
    notebook_ids = [f"one-second-nb{n}" for n in range(3)]
    for notebook_id in notebook_ids:
        store.upsert_notebook(NotebookDescriptor(
            notebook_id=notebook_id, repository_id="one-second",
            relative_path=f"{notebook_id}.ipynb",
            nondeterministic_pattern_cells=rng.choice((None, 0, 2))))
    for run_id, stamp, executed in (("z-early", "00.100000", notebook_ids),
                                    ("a-late", "00.900000", notebook_ids[:2])):
        store.insert_run(RunRecord(
            run_id=run_id, repository_id="one-second", invocation_id=run_id,
            started_at=f"2026-01-03T00:00:{stamp}+00:00",
            provisioning_status=(ProvisioningStatus.KERNEL_NOT_FOUND if run_id == "a-late"
                                 else ProvisioningStatus.ENVIRONMENT_BUILT)))
        for notebook_id in executed:
            _execution(store, nb_id=notebook_id, run_id=run_id)
        mismatch, scored = executed[0], executed[1]
        store.insert_metrics(unscored_metrics(4, notebook_id=mismatch, run_id=run_id))
        store.insert_metrics(metrics_from_partition(
            [0], [1, 2] if run_id == "a-late" else [], [],
            notebook_id=scored, run_id=run_id))


def _reference_outcomes(store: Store) -> Counter:
    """The latest-run groups folded in Python, one notebook at a time, from
    the plain rows joined to the latest run of their repository."""
    latest, executions, metrics = _latest_rows(store)
    flags = {repo["repository_id"]: repo["has_requirements_file"]
             for repo in store_rows(store, "repositories")}
    groups: dict[tuple, list] = {}
    for nb in store_rows(store, "notebooks"):
        run = latest.get(nb["repository_id"], {})
        key = (nb["notebook_id"], run.get("run_id"))
        execution, scored = executions.get(key, {}), metrics.get(key, {})
        outcome = (flags[nb["repository_id"]], run.get("provisioning_status"),
                   run.get("build_phase"), execution.get("status"),
                   execution.get("error_pairs", "[]"), scored.get("different_count"),
                   scored.get("nondeterministic_count"), scored.get("score"),
                   scored.get("structural_mismatch"))
        group = groups.setdefault(outcome, [0, 0, set()])
        group[0] += (nb["nondeterministic_pattern_cells"] or 0) > 0
        group[1] += 1
        group[2].add(nb["notebook_id"])
    return Counter(outcome + (pattern, count, frozenset(ids))
                   for outcome, (pattern, count, ids) in groups.items())


def test_latest_read_equals_a_per_notebook_fold():
    rng = random.Random(17)
    covered = Counter()
    for _ in range(30):
        with Store() as store:
            _populate(store, rng)
            _add_edge_repositories(store, rng)
            read = Counter(tuple(group[:-1]) + (frozenset(json.loads(group.notebook_ids)),)
                           for group in store.latest_outcomes())
            reference = _reference_outcomes(store)
        assert read == reference
        for group in map(LatestOutcome._make, reference):
            covered["no run"] += group.provisioning_status is None
            covered["build phase"] += group.build_phase is not None
            covered["kernel not found"] += group.provisioning_status == "KernelNotFound"
            covered["unexecuted"] += (group.provisioning_status is not None
                                      and group.execution_status is None)
            covered["mismatch"] += group.structural_mismatch == 1
            covered["pattern cells"] += group.pattern_notebooks > 0
    assert len(covered) == 6 and all(covered.values()), covered


def test_reports_do_not_depend_on_the_order_of_the_groups(tmp_path, monkeypatch):
    monkeypatch.setattr(nbrepro.report, "utc_now_iso", lambda: "2026-01-01T00:00:00+00:00")
    read = Store.latest_outcomes
    for n in range(3):
        rng = random.Random(n)
        path = tmp_path / f"store{n}.sqlite3"
        with Store(path) as store:
            baselines = _populate(store, rng)
            _add_edge_repositories(store, rng)
            assert len(store.latest_outcomes()) > 1
        baseline = tmp_path / f"baseline{n}.csv"
        baseline.write_text(_BASELINE_HEADER + "".join(
            f"{b.notebook_id},{b.prev_dependency_install},{b.prev_execution_status},-,-\n"
            for b in baselines))
        outputs = []
        for order in (list, lambda groups: groups[::-1]):
            monkeypatch.setattr(Store, "latest_outcomes",
                                lambda self, order=order: order(read(self)))
            reports = tmp_path / f"reports{n}-{len(outputs)}"
            config = PipelineConfig(baseline_path=baseline, report_dir=reports)
            with Store(path) as store:
                assert cmd_classify(config, store) == 0
                assert cmd_report(config, store) == 0
            outputs.append({name: (reports / name).read_bytes() for name in (
                "classification.json", "report.json", "summary.csv", "summary.md")})
        assert outputs[0] == outputs[1]


# ---- vacuum after a migration ----------------------------------------------------

def test_a_migrated_store_that_stays_busy_keeps_its_free_pages(tmp_path, monkeypatch,
                                                               caplog):
    """Another connection reading between the migration's commit and the
    vacuum leaves the free pages in place; the store opens migrated."""
    path = tmp_path / "v1.sqlite3"
    with Store() as store:
        _populate(store, random.Random(1))
        expected = _all_rows(store)
        _write_old_copy(store, path, _V1_SCHEMA)
    # Small pages, so that the rebuilt tables free more pages than the
    # tables of the later versions take.
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("PRAGMA page_size = 512")
        conn.execute("VACUUM")
    vacuum = Store._vacuum

    def vacuum_while_read(self):
        reader.execute("BEGIN")
        reader.execute("SELECT count(*) FROM notebooks").fetchone()
        self._conn.execute("PRAGMA busy_timeout = 0")
        vacuum(self)

    monkeypatch.setattr(Store, "_vacuum", vacuum_while_read)
    with closing(sqlite3.connect(path)) as reader, \
            caplog.at_level(logging.WARNING, logger="nbrepro.store"):
        with Store(path) as migrated:
            reader.rollback()
            assert _all_rows(migrated) == expected
            assert migrated._conn.execute("PRAGMA freelist_count").fetchone()[0] > 0
    assert "keeps the free pages of its migration" in caplog.text
    assert _version(path) == SCHEMA_VERSION


@pytest.mark.parametrize("version", range(SCHEMA_VERSION))
def test_a_migration_vacuums_only_after_a_rebuild(tmp_path, monkeypatch, version):
    """A migration that only creates tables frees no page, so it does not
    vacuum; one that rebuilds a table vacuums once."""
    path = tmp_path / "old.sqlite3"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript((FIXTURES / f"store_schema_v{version}.sql").read_text("utf-8"))
    vacuum, vacuumed = Store._vacuum, []

    def counted(self):
        vacuumed.append(self.path)
        vacuum(self)

    monkeypatch.setattr(Store, "_vacuum", counted)
    with Store(path) as migrated:
        assert migrated._conn.execute("PRAGMA freelist_count").fetchone()[0] == 0
    with Store(path), Store():
        pass
    assert vacuumed == [str(path)] * bool(_REBUILT_FROM[version])
    assert _version(path) == SCHEMA_VERSION
