"""Self-tests of the benchmark's own parts.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus_gen  # noqa: E402
import oracle  # noqa: E402
from nbrepro import cli  # noqa: E402
from nbrepro.containerize import DockerCli  # noqa: E402

STUB = BENCH / "stub_runtime.sh"
SMALL = corpus_gen.CorpusShape(notebooks_per_repo=(2, 1), code_cells=12, png_share=0.1,
                               random_share=0.2, edge_repositories=True)

requires_tools = pytest.mark.skipif(
    shutil.which("git") is None or shutil.which("sh") is None,
    reason="git and sh are needed")


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and ".git" not in p.parts}


def _without_paths(expected: dict) -> list:
    # Inputs are file URLs of the generation directory, and the ids hash them.
    return [{**{k: v for k, v in repo.items() if k not in ("input", "repository_id")},
             "notebooks": {rel: {k: v for k, v in nb.items() if k != "notebook_id"}
                           for rel, nb in repo["notebooks"].items()}}
            for repo in expected["repositories"]]


@requires_tools
def test_generator_is_deterministic_for_a_seed(tmp_path):
    first = corpus_gen.generate_pipeline_corpus(tmp_path / "a", 7, SMALL)
    second = corpus_gen.generate_pipeline_corpus(tmp_path / "b", 7, SMALL)
    assert _tree(tmp_path / "a" / "repos") == _tree(tmp_path / "b" / "repos")
    assert _without_paths(first) == _without_paths(second)
    assert [r["revision"] for r in first["repositories"]] == \
        [r["revision"] for r in second["repositories"]]
    executed_a = sorted(_tree(tmp_path / "a" / "executed").values())
    executed_b = sorted(_tree(tmp_path / "b" / "executed").values())
    assert executed_a == executed_b
    other = corpus_gen.generate_pipeline_corpus(tmp_path / "c", 8, SMALL)
    assert _without_paths(other) != _without_paths(first)


def test_report_store_is_deterministic_for_a_seed(tmp_path):
    runs = []
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        expected = corpus_gen.generate_report_store(root, 3, 20, 5, 10, 4)
        conn = sqlite3.connect(root / "store.sqlite3")
        tables = {table: conn.execute(f"SELECT * FROM {table} ORDER BY 1, 2").fetchall()
                  for table in ("repositories", "notebooks", "repository_runs",
                                "notebook_executions", "reproducibility_metrics")}
        conn.close()
        runs.append((expected, tables, (root / "baseline.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert len(runs[0][1]["notebooks"]) == 100


@requires_tools
def test_stub_answers_every_verb_through_the_cli_wrapper(tmp_path, monkeypatch):
    state, executed, context = tmp_path / "state", tmp_path / "executed", tmp_path / "ctx"
    (state / "images").mkdir(parents=True)
    (state / "containers").mkdir()
    artifact = executed / "r1" / "nb" / "a.ipynb"
    artifact.parent.mkdir(parents=True)
    artifact.write_bytes(b'{"cells": []}')
    (executed / "r1" / "nb" / "k.ipynb").write_bytes(b"{}")
    (executed / "r1" / "nb" / "k.ipynb.nokernel").write_text("lost\n")
    context.mkdir()
    (context / "requirements.synthesized.txt").write_text("numpy\n")
    dockerfile = tmp_path / "Dockerfile"
    dockerfile.write_text("FROM scratch\n")
    monkeypatch.setenv("BENCH_STUB_STATE", str(state))
    monkeypatch.setenv("BENCH_STUB_EXECUTED", str(executed))
    docker = DockerCli(str(STUB))
    label = ["--label", "nbrepro.repository_id=r1"]

    assert docker.available()
    assert docker.build("repro/r1:run1", dockerfile, context).returncode == 0
    assert docker.list_images("repro/r1") == ["repro/r1:run1"]
    run = docker.run_container("repro/r1:run1", [
        "jupyter", "nbconvert", "--output", "a.executed.ipynb", "a.ipynb"],
        ["--name", "c1", "--workdir", "/workspace/nb", *label])
    assert run.returncode == 0
    assert docker.list_containers("nbrepro.repository_id=r1") == ["c1"]
    out = tmp_path / "out.ipynb"
    assert docker.copy_from_container("c1", "/workspace/nb/a.executed.ipynb", out)
    assert out.read_bytes() == artifact.read_bytes()
    assert not docker.copy_from_container("c1", "/workspace/nb/other.ipynb",
                                          tmp_path / "other.ipynb")
    docker.remove_container("c1")
    assert docker.list_containers("nbrepro.repository_id=r1") == []
    docker.remove_image("repro/r1:run1")
    assert docker.list_images("repro/r1") == []

    docker.build("repro/r1:run2", dockerfile, context)
    command = ["jupyter", "nbconvert", "--output", "k.executed.ipynb"]
    missing = docker.run_container("repro/r1:run2", [*command, "k.ipynb"],
                                   ["--name", "c2", "--workdir", "/workspace/nb", *label])
    assert missing.returncode == 1 and "NoSuchKernel" in missing.stderr
    docker.remove_container("c2")
    forced = docker.run_container(
        "repro/r1:run2",
        [*command, "--ExecutePreprocessor.kernel_name=python3", "k.ipynb"],
        ["--name", "c2", "--workdir", "/workspace/nb", *label])
    assert forced.returncode == 0
    broken = docker.run_container("repro/r1:run2", [*command, "gone.ipynb"],
                                  ["--name", "c3", "--workdir", "/workspace/nb", *label])
    assert broken.returncode == 1 and "NotJSONError" in broken.stderr

    (context / "requirements.synthesized.txt").write_text(
        corpus_gen.UNRESOLVABLE_REQUIREMENT + "\n")
    failed = docker.build("repro/r1:run3", dockerfile, context)
    assert failed.returncode == 1
    assert "No matching distribution found" in failed.stderr


@requires_tools
def test_oracle_accepts_a_run_and_flags_a_flipped_verdict(tmp_path, monkeypatch):
    expected = corpus_gen.generate_pipeline_corpus(tmp_path / "corpus", 5, SMALL)
    state = tmp_path / "state"
    (state / "images").mkdir(parents=True)
    (state / "containers").mkdir()
    monkeypatch.setenv("BENCH_STUB_STATE", str(state))
    monkeypatch.setenv("BENCH_STUB_EXECUTED", str(tmp_path / "corpus" / "executed"))
    store, reports = tmp_path / "store.sqlite3", tmp_path / "reports"
    argv = ["run", "--store", str(store), "--logdir", str(tmp_path / "logs"),
            "--artifacts", str(tmp_path / "artifacts"), "--report-dir", str(reports),
            "--docker", str(STUB)]
    for repo in expected["repositories"]:
        argv += ["--input", repo["input"]]
    assert cli.main(argv) == 0

    found = oracle.Mismatches()
    oracle.check_pipeline_store(store, expected, found)
    oracle.check_report(reports, oracle.pipeline_report_totals(expected), found)
    assert found.count == 0, found.examples

    corrupted = tmp_path / "corrupted.sqlite3"
    shutil.copy(store, corrupted)
    conn = sqlite3.connect(corrupted)
    row = conn.execute("SELECT notebook_id, identical_indices, different_indices"
                       " FROM reproducibility_metrics WHERE identical_count > 0"
                       " ORDER BY notebook_id LIMIT 1").fetchone()
    identical, different = json.loads(row[1]), json.loads(row[2])
    different = sorted(different + [identical.pop()])
    conn.execute("UPDATE reproducibility_metrics SET identical_indices = ?,"
                 " different_indices = ?, identical_count = identical_count - 1,"
                 " different_count = different_count + 1,"
                 " score = CAST(identical_count - 1 AS REAL) / total_code_cells"
                 " WHERE notebook_id = ?",
                 (json.dumps(identical), json.dumps(different), row[0]))
    conn.commit()
    conn.close()
    flipped = oracle.Mismatches()
    oracle.check_pipeline_store(corrupted, expected, flipped)
    assert flipped.count > 0


def test_report_bytes_ignore_only_the_timestamp(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for directory, stamp in ((first, "2021-01-01"), (second, "2022-02-02")):
        directory.mkdir()
        document = {"generated_at": stamp, "summary": {"mean_score": 0.3}}
        (directory / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True))
        (directory / "summary.csv").write_text("section,metric,value\n")
    found = oracle.Mismatches()
    oracle.check_same_bytes(oracle.report_bytes(first), oracle.report_bytes(second), found)
    assert (found.count, found.float_drift) == (0, 0)

    document = {"generated_at": "x", "summary": {"mean_score": 0.1 + 0.2}}
    (second / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True))
    oracle.check_same_bytes(oracle.report_bytes(first), oracle.report_bytes(second), found)
    assert (found.count, found.float_drift) == (0, 1)

    document = {"generated_at": "x", "summary": {"mean_score": 0.75}}
    (second / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True))
    oracle.check_same_bytes(oracle.report_bytes(first), oracle.report_bytes(second), found)
    assert found.count == 1


def test_summary_csv_may_differ_only_in_the_last_printed_digit():
    first = {"summary.csv": b"section,metric,value\nscores,mean_score,0.6512\n"}
    found = oracle.Mismatches()
    oracle.check_same_bytes(first, {"summary.csv": first["summary.csv"].replace(
        b"0.6512", b"0.6513")}, found)
    assert (found.count, found.float_drift) == (0, 1)
    oracle.check_same_bytes(first, {"summary.csv": first["summary.csv"].replace(
        b"0.6512", b"0.6522")}, found)
    assert found.count == 1
