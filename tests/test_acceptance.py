"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance; the
conftest hook prints a pass/fail line per criterion. The end-to-end corpus
criterion needs a container runtime and skips itself cleanly when none is
reachable.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from nbrepro import cli
from nbrepro.compare import (
    compute_metrics,
    detect_nondeterminism,
    metrics_from_partition,
)
from nbrepro.containerize import generate_build_recipe
from nbrepro.depinfer import (
    DependencySpec,
    PackageRequirement,
    RequirementOrigin,
    extract_imports,
    filter_standard_library,
    load_stdlib_modules,
    synthesize_dependency_spec,
)
from nbrepro.executor import ErrorCategory, ExecutionStatus
from nbrepro.notebook import CellKind, parse_notebook
from nbrepro.config import PipelineConfig
from nbrepro.outcomes import BaselineRecord, resolution_rate
from nbrepro.store import ProvisioningStatus, Repository, RunRecord, Store, utc_now_iso

from conftest import (
    FIXTURES,
    code_cell,
    make_git_repo,
    markdown_cell,
    notebook_bytes,
    requires_docker,
    requires_git,
    store_rows,
    stream_output,
)
from test_classify import _STATUS_PAIRS
from test_outcomes import TABLE_ROWS, OutcomeClass, _baseline, assign_outcome_class
from test_report import assert_sum_invariants, populate_random_store
from nbrepro.report import aggregate_corpus


def _fixture_notebooks():
    paths = sorted((FIXTURES / "import_corpus").glob("*.ipynb"))
    paths += sorted((FIXTURES / "notebooks").glob("*.ipynb"))
    return paths


def test_criterion_1_score_formula_exactness():
    """1,000 random partitions: score == identical/total exactly, partition
    sums hold, in under a second."""
    rng = random.Random(443)
    started = time.perf_counter()
    for _ in range(1000):
        total = rng.randint(1, 200)
        indices = list(range(total))
        rng.shuffle(indices)
        cut_a = rng.randint(0, total)
        cut_b = rng.randint(cut_a, total)
        metrics = metrics_from_partition(indices[:cut_a], indices[cut_a:cut_b],
                                         indices[cut_b:])
        expected = metrics.identical_count / metrics.total_code_cells
        assert metrics.score == expected
        assert metrics.score == float(Fraction(metrics.identical_count,
                                               metrics.total_code_cells))
        assert (metrics.identical_count + metrics.different_count
                + metrics.nondeterministic_count) == metrics.total_code_cells
        union = (set(metrics.identical_indices) | set(metrics.different_indices)
                 | set(metrics.nondeterministic_indices))
        assert union == set(range(total))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"partition check took {elapsed:.3f}s"


def test_criterion_2_self_comparison_identity():
    """compute_metrics(nb, nb) is exactly (different_count=0, score=1.0) for
    every bundled fixture notebook."""
    paths = _fixture_notebooks()
    assert paths
    for path in paths:
        nb = parse_notebook(path.read_bytes())
        metrics = compute_metrics(nb, nb)
        assert metrics.different_count == 0, path.name
        assert metrics.score == 1.0, path.name


def test_criterion_3_import_inference_oracle_equivalence(tmp_path):
    """extract_imports . filter_standard_library matches the 30 hand labels
    exactly; no stdlib name ever reaches a synthesized manifest."""
    corpus = FIXTURES / "import_corpus"
    labels = json.loads((corpus / "labels.json").read_text("utf-8"))
    assert len(labels) == 30
    stdlib = load_stdlib_modules()

    mismatches = []
    all_manifest_lines: list[str] = []
    for name, expected in sorted(labels.items()):
        nb = parse_notebook((corpus / name).read_bytes())
        found: set[str] = set()
        for cell in nb.cells:
            if cell.kind is CellKind.CODE:
                found |= extract_imports(cell.source)
        got = sorted(filter_standard_library(found, stdlib))
        if got != expected:
            mismatches.append((name, expected, got))
        repo = Repository(repository_id=f"accept{name[3:5]}", url="file:///f",
                          local_path=str(tmp_path), accessible=True)
        spec = synthesize_dependency_spec(repo, found, tree=tmp_path)
        all_manifest_lines += spec.synthesized_manifest.splitlines()
    assert not mismatches, f"label mismatches: {mismatches}"
    assert not set(all_manifest_lines) & stdlib


def test_criterion_4_nondeterminism_detector_precision_recall():
    """On the 20-cell labeled set, precision = recall = 1.0 and the matched
    pattern names agree with the labels."""
    cells = json.loads((FIXTURES / "nondeterminism_cells.json").read_text("utf-8"))
    assert len(cells) == 20
    true_positive = false_positive = false_negative = 0
    for case in cells:
        flagged, patterns = detect_nondeterminism(case["source"])
        assert patterns == case["patterns"], case["id"]
        if flagged and case["nondeterministic"]:
            true_positive += 1
        elif flagged and not case["nondeterministic"]:
            false_positive += 1
        elif not flagged and case["nondeterministic"]:
            false_negative += 1
    precision = true_positive / (true_positive + false_positive)
    recall = true_positive / (true_positive + false_negative)
    assert precision == 1.0
    assert recall == 1.0


def test_criterion_5_recipe_determinism(tmp_path):
    """100 repeated generations per fixture spec are byte-identical."""
    def spec_of(*requirements, verbatim=()):
        reqs = tuple(PackageRequirement(n, RequirementOrigin.DECLARED_REQUIREMENTS,
                                        version_constraint=c)
                     for n, c in requirements)
        reqs += tuple(PackageRequirement(v, RequirementOrigin.DECLARED_REQUIREMENTS,
                                         verbatim=v) for v in verbatim)
        manifest = "".join(r.manifest_line() + "\n" for r in reqs)
        return DependencySpec("acceptancerepo", reqs, manifest)

    fixture_specs = [
        spec_of(),
        spec_of(("numpy", "==1.21.0"), ("pandas", None)),
        spec_of(("scikit-learn", ">=1.0"),
                verbatim=["git+https://github.com/user/proj.git#egg=proj"]),
    ]
    for spec in fixture_specs:
        rendered = {
            (recipe.dockerfile_text, recipe.manifest_text)
            for recipe in (generate_build_recipe(spec, context_dir=tmp_path)
                           for _ in range(100))
        }
        assert len(rendered) == 1


def test_criterion_7_outcome_classification_and_resolution_rate():
    """Published example rows map to their printed classes; the published
    resolution rate reproduces to within 0.05 percentage points."""
    for i, (baseline, current, expected) in enumerate(TABLE_ROWS):
        assert assign_outcome_class(baseline, current) is expected, f"row {i}"

    assignments = [
        (_baseline("Fail", "Install Dependency Error", nb=f"nb{i}"),
         OutcomeClass.A_ENVIRONMENT_RESOLVED if i < 64
         else OutcomeClass.B_PERSISTENT_ERROR)
        for i in range(96)
    ]
    rate = resolution_rate(Counter(assignments))
    assert abs(rate - 66.7) <= 0.05


def test_criterion_8_report_sum_invariants_on_randomized_stores():
    """Every emitted histogram satisfies its sum invariant on >= 500
    randomized stores."""
    rng = random.Random(116)
    for _ in range(500):
        with Store(":memory:") as store:
            populate_random_store(store, rng)
            assert_sum_invariants(aggregate_corpus(store))


def _random_write(store: Store, rng: random.Random) -> None:
    """One write through the Store API that changes a row of a table that
    classify reads, even if only to the value it held."""
    repositories = store.list_repositories()
    runs = list(store.latest_runs().values())
    notebooks = [nb for repo in repositories
                 for nb in store.list_notebooks(repo.repository_id)]
    executed = [run for run in runs
                if store_rows(store, "notebook_executions", run_id=run.run_id)]
    writes = [lambda: store.upsert_repository(Repository(
        repository_id=f"new{rng.getrandbits(32)}", url="https://example.org/new"))]
    if repositories:
        writes.append(lambda: store.upsert_repository(rng.choice(repositories)))
        writes.append(lambda: store.insert_run(RunRecord(
            run_id=f"rerun{rng.getrandbits(32)}", invocation_id="rerun",
            repository_id=rng.choice(repositories).repository_id,
            started_at=utc_now_iso())))
    if runs:
        writes.append(lambda: store.finish_run(
            rng.choice(runs), ProvisioningStatus.BUILD_FAILED, reason="Timeout: build"))
    if notebooks:
        writes.append(lambda: store.upsert_notebook(rng.choice(notebooks)))
    if executed:
        writes.append(lambda: store.delete_run_results(rng.choice(executed)))
    rng.choice(writes)()


def test_criterion_8_classes_are_the_stores_own_on_randomized_stores(tmp_path):
    """classified_notebooks never exceeds total_notebooks, and the report
    has classify's classes exactly when no write followed classify."""
    rng = random.Random(117)
    config = PipelineConfig(report_dir=tmp_path)
    seen = Counter()
    for _ in range(300):
        with Store(":memory:") as store:
            populate_random_store(store, rng)
            baselines = [BaselineRecord(row["notebook_id"], *rng.choice(_STATUS_PAIRS))
                         for row in store_rows(store, "notebooks") if rng.random() < 0.8]
            baselines += [BaselineRecord(f"unmatched{i}", "Fail", "Fail")
                          for i in range(rng.randint(0, 2))]
            cli._write_classification(config, baselines, store)
            payload = json.loads((tmp_path / "classification.json").read_text("utf-8"))
            wrote = rng.random() < 0.5
            if wrote:
                _random_write(store, rng)
            summary = aggregate_corpus(store)
        assert summary.classified_notebooks <= summary.total_notebooks
        counts = {} if wrote else payload["counts"]
        assert summary.outcome_classes == {cls.value: counts.get(cls.value, 0)
                                           for cls in OutcomeClass}
        assert summary.resolution_rate == (None if wrote else payload["resolution_rate"])
        seen[wrote, bool(payload["counts"])] += 1
    assert seen[False, True] and seen[True, True], seen


# ---- criterion 6: end-to-end fixture corpus (container runtime required) -----

def _nb_file(*cells, kernel="python3"):
    return notebook_bytes(list(cells), kernel_name=kernel).decode("utf-8")


def _build_fixture_corpus(root: Path) -> dict[str, str]:
    """Six synthetic repositories covering the end-to-end outcome matrix."""
    urls = {}
    urls["f1_complete_manifest"] = make_git_repo(root / "f1", {
        "requirements.txt": "six==1.16.0\n",
        "main.ipynb": _nb_file(
            markdown_cell("Deterministic with a complete manifest"),
            code_cell("import six\nprint(six.__version__)",
                      [stream_output("1.16.0\n")], 1),
            code_cell("print('stable output')",
                      [stream_output("stable output\n")], 2)),
    })
    urls["f2_missing_module"] = make_git_repo(root / "f2", {
        "run.ipynb": _nb_file(
            code_cell("print('cell 0')", [stream_output("cell 0\n")], 1),
            code_cell("print('cell 1')", [stream_output("cell 1\n")], 2),
            code_cell("print('cell 2')", [stream_output("cell 2\n")], 3),
            code_cell("import importlib\n"
                      "importlib.import_module('nbrepro_missing_zzqj')", [], 4)),
    })
    urls["f3_hardcoded_path"] = make_git_repo(root / "f3", {
        "data.ipynb": _nb_file(
            code_cell("open('/nonexistent_data_zzqj/input.csv')", [], 1)),
    })
    urls["f4_unseeded_randomness"] = make_git_repo(root / "f4", {
        "sample.ipynb": _nb_file(
            code_cell("print('anchor')", [stream_output("anchor\n")], 1),
            code_cell("import random\nprint(random.random())",
                      [stream_output("0.13436424411240122\n")], 2)),
    })
    urls["f5_no_manifest_thirdparty"] = make_git_repo(root / "f5", {
        "uses_six.ipynb": _nb_file(
            code_cell("import six\nprint(six.__name__)",
                      [stream_output("six\n")], 1)),
    })
    urls["f6_fabricated_package"] = make_git_repo(root / "f6", {
        "requirements.txt": "nbrepro-nonexistent-package-zzqj==99.0\n",
        "wont_run.ipynb": _nb_file(code_cell("print('never')", [], 1)),
    })
    return urls


@requires_docker
@requires_git
def test_criterion_6_end_to_end_fixture_corpus(tmp_path):
    """Full pipeline over the six synthetic repositories, under 15 minutes."""
    started = time.perf_counter()
    urls = _build_fixture_corpus(tmp_path / "origins")
    store_path = tmp_path / "store.sqlite3"
    code = cli.main([
        "run",
        *[arg for url in urls.values() for arg in ("--input", url)],
        "--store", str(store_path),
        "--logdir", str(tmp_path / "logs"),
        "--artifacts", str(tmp_path / "artifacts"),
        "--report-dir", str(tmp_path / "reports"),
        "--jobs", "2",
    ])
    assert code == 0

    with Store(store_path) as store:
        runs = store.latest_runs()
        by_dir = {url.rsplit("/", 1)[-1]: name for name, url in urls.items()}
        outcomes = {}
        for dirname, name in by_dir.items():
            repo = next(r for r in store.list_repositories()
                        if r.url.endswith("/" + dirname))
            run = runs[repo.repository_id]
            executions = store_rows(store, "notebook_executions", run_id=run.run_id)
            metrics = store_rows(store, "reproducibility_metrics", run_id=run.run_id)
            outcomes[name] = (repo, run, executions, metrics)

        # F1: complete manifest, deterministic outputs -> built, score 1.0
        _, run, executions, metrics = outcomes["f1_complete_manifest"]
        assert run.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT
        (execution,) = executions
        assert execution["status"] == ExecutionStatus.SUCCESS.value
        (m,) = metrics
        assert not m["structural_mismatch"] and m["score"] == 1.0

        # F2: dynamically imported missing module at code cell 3
        _, run, executions, _ = outcomes["f2_missing_module"]
        assert run.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT
        (execution,) = executions
        assert execution["status"] == ExecutionStatus.ERRORED_BUT_COMPLETED.value
        (err,) = json.loads(execution["errors"])
        assert err["error_type"] == "ModuleNotFoundError"
        assert err["category"] == ErrorCategory.DEPENDENCY.value
        assert err["cell_index"] == 3

        # F3: hardcoded absolute path -> FileNotFoundError / Data
        _, run, executions, _ = outcomes["f3_hardcoded_path"]
        (execution,) = executions
        assert execution["status"] == ExecutionStatus.ERRORED_BUT_COMPLETED.value
        (err,) = json.loads(execution["errors"])
        assert err["error_type"] == "FileNotFoundError"
        assert err["category"] == ErrorCategory.DATA.value

        # F4: unseeded randomness -> >= 1 NonDeterministic cell, score < 1
        _, run, executions, metrics = outcomes["f4_unseeded_randomness"]
        (execution,) = executions
        assert execution["status"] == ExecutionStatus.SUCCESS.value
        (m,) = metrics
        assert not m["structural_mismatch"]
        assert m["nondeterministic_count"] >= 1
        assert m["score"] < 1.0

        # F5: no manifest, third-party import -> synthesized manifest installs
        repo, run, executions, metrics = outcomes["f5_no_manifest_thirdparty"]
        assert not repo.has_requirements_file
        assert run.provisioning_status is ProvisioningStatus.ENVIRONMENT_BUILT
        (execution,) = executions
        assert execution["status"] == ExecutionStatus.SUCCESS.value
        (m,) = metrics
        assert not m["structural_mismatch"] and m["score"] == 1.0

        # F6: fabricated package -> dependency-install build failure
        _, run, executions, _ = outcomes["f6_fabricated_package"]
        assert run.provisioning_status is ProvisioningStatus.BUILD_FAILED
        assert (run.status_reason or "").startswith("DependencyInstall")
        assert executions == []

    elapsed = time.perf_counter() - started
    assert elapsed < 900, f"end-to-end corpus took {elapsed:.0f}s"
