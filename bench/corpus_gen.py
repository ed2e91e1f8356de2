"""Seeded inputs for the benchmark, with the outcome each one must produce.

Two kinds of input:

* a corpus of local git repositories for the pipeline workloads, together
  with the "executed" notebooks the stub runtime hands back and the expected
  store rows of every repository and notebook;
* a populated store plus a baseline CSV for the report workload, together
  with the expected outcome class of every notebook.

The same seed gives byte-identical repositories (fixed commit identity and
dates, so the revision hashes repeat) and the same expectation. Executed
artifacts live outside the repository trees, so a clone copies only what a
real repository would hold.
"""

from __future__ import annotations

import base64
import csv
import json
import os
import random
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path

from nbrepro import corpus as nbcorpus
from nbrepro.compare import ReproducibilityMetrics
from nbrepro.executor import ErrorCategory, ExecutionError, ExecutionRecord, ExecutionStatus
from nbrepro.store import (
    NotebookDescriptor,
    ProvisioningStatus,
    Repository,
    RunRecord,
    Store,
)

# A requirement no index can satisfy; the stub runtime fails any build whose
# synthesized manifest names it.
UNRESOLVABLE_REQUIREMENT = "nbrepro-bench-unresolvable==0.0"
# Kernel that no image provides; the stub runtime answers NoSuchKernel for a
# notebook that carries a ``.nokernel`` marker until a kernel is forced.
MISSING_KERNEL = "python3-bench-missing"
BROKEN_NOTEBOOK_STDERR = "nbformat.reader.NotJSONError: Notebook does not appear to be JSON"

_GIT_ENV = {
    "GIT_AUTHOR_NAME": "Bench Corpus",
    "GIT_AUTHOR_EMAIL": "bench@example.org",
    "GIT_AUTHOR_DATE": "2021-06-01T12:00:00+0000",
    "GIT_COMMITTER_NAME": "Bench Corpus",
    "GIT_COMMITTER_EMAIL": "bench@example.org",
    "GIT_COMMITTER_DATE": "2021-06-01T12:00:00+0000",
    "GIT_CONFIG_NOSYSTEM": "1",
    "GIT_CONFIG_GLOBAL": os.devnull,
}

# Planted runtime errors: name, expected category, exception value. The
# second line of a value must not reach the stored message.
_ERRORS = (
    ("ValueError", "Logic", "invalid literal for int() with base 10: 'n/a'"),
    ("KeyError", "Logic", "'label'"),
    ("FileNotFoundError", "Data",
     "[Errno 2] No such file or directory: 'data/input.csv'\nsee the README"),
    ("ModuleNotFoundError", "Dependency", "No module named 'tensorflow'"),
    ("TypeError", "Code", "unsupported operand type(s) for +: 'int' and 'str'"),
)
_EXTRA_IMPORTS = ("sklearn", "scipy", "seaborn", "cv2", "yaml", "requests",
                  "torch", "PIL", "bs4", "tqdm")


@dataclass(frozen=True)
class CorpusShape:
    """Notebook counts per regular repository, code cells per notebook, and
    the share of cells carrying an image or calling ``np.random``."""

    notebooks_per_repo: tuple[int, ...]
    code_cells: int
    png_share: float
    random_share: float
    edge_repositories: bool


# ---- notebook documents -------------------------------------------------------

def _lines(text: str) -> list[str]:
    parts = text.split("\n")
    return [p + "\n" for p in parts[:-1]] + ([parts[-1]] if parts[-1] else [])


def _stream(text: str) -> dict:
    return {"name": "stdout", "output_type": "stream", "text": _lines(text)}


def _result(text: str, count: int) -> dict:
    return {"data": {"text/plain": _lines(text)}, "execution_count": count,
            "metadata": {}, "output_type": "execute_result"}


def _png(payload: bytes) -> dict:
    return {"data": {"image/png": base64.b64encode(payload).decode("ascii"),
                     "text/plain": ["<Figure size 640x480 with 1 Axes>"]},
            "metadata": {}, "output_type": "display_data"}


def _error(name: str, value: str) -> dict:
    return {"ename": name, "evalue": value, "output_type": "error",
            "traceback": ["Traceback (most recent call last):",
                          f"  File \"/home/author/work/cell.py\", line 3",
                          f"{name}: {value}"]}


def _code(source: str, outputs: list, count: int) -> dict:
    return {"cell_type": "code", "execution_count": count, "metadata": {},
            "outputs": outputs, "source": _lines(source)}


def _markdown(text: str) -> dict:
    return {"cell_type": "markdown", "metadata": {}, "source": _lines(text)}


def _document(cells: list, kernel: str) -> dict:
    return {"cells": cells,
            "metadata": {"kernelspec": {"display_name": "Python 3",
                                        "language": "python", "name": kernel},
                         "language_info": {"name": "python"}},
            "nbformat": 4, "nbformat_minor": 5}


def _dump(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, ensure_ascii=False) + "\n").encode("utf-8")


def _score_category(identical: int, total: int) -> str:
    if total == 0:
        return "Unscored"
    if identical == total:
        return "Perfect"
    for bound, name in ((1, "Poor"), (2, "Low"), (3, "Moderate"), (4, "Good")):
        if identical * 5 < bound * total:
            return name
    return "High"


def _notebook(rng: random.Random, shape: CorpusShape, ordinal: int,
              kernel: str = "python3") -> tuple[bytes, bytes, dict]:
    """Original bytes, executed bytes, and the expectation of one notebook."""
    drift_share = rng.choice((0.0, 0.05, 0.2, 0.45, 0.8))
    random_share = rng.choice((0.0, 1.0, 2.0)) * shape.random_share
    error_cells = set(rng.sample(range(1, shape.code_cells),
                                 rng.choice((0, 0, 1, 2, 3))))
    extras = rng.sample(_EXTRA_IMPORTS, 2)
    original, executed, verdicts, errors = [], [], [], []
    pattern_cells = 0
    markdown = 0

    imports = ("import os\nimport json\nimport numpy as np\nimport pandas as pd\n"
               "import matplotlib.pyplot as plt\nfrom helpers import load_rows\n"
               + "".join(f"import {name}\n" for name in extras))
    if ordinal % 3 == 0:
        imports += "!pip install tqdm==4.66.1\n"
    cell = _code(imports.rstrip("\n"), [], 1)
    original.append(cell)
    executed.append(cell)
    verdicts.append("Identical")

    for index in range(1, shape.code_cells):
        if index % 5 == 0:
            text = f"## Step {index // 5}\nNotes for step {index // 5}, seed {rng.randrange(1000)}."
            original.append(_markdown(text))
            executed.append(_markdown(text))
            markdown += 1
        count = index + 1
        value = rng.randrange(10_000)
        roll = rng.random()
        if index in error_cells:
            name, category, evalue = rng.choice(_ERRORS)
            source = f"row_{index} = rows[{value % 97}]\nint(row_{index}['count'])"
            after = [_error(name, evalue)]
            if rng.random() < 0.5:
                before, verdict = after, "Identical"
            else:
                before, verdict = [_stream(f"{value}\n")], "Different"
            errors.append([name, category, evalue.split("\n", 1)[0], index, 1])
        elif roll < shape.png_share:
            source = f"plt.plot(series_{index})\nplt.show()"
            image = rng.randbytes(15_000)
            before = [_png(image)]
            if rng.random() < drift_share:
                after, verdict = [_png(rng.randbytes(15_000))], "Different"
            else:
                after, verdict = before, "Identical"
        elif roll < shape.png_share + random_share:
            pattern_cells += 1
            if rng.random() < 0.3:
                source = f"np.random.seed({value})\nprint(np.random.randint(0, 100, 5))"
                before = after = [_stream(f"[{value % 100} 3 57 12 {value % 7}]\n")]
                verdict = "Identical"
            else:
                source = f"sample_{index} = np.random.rand(4)\nprint(sample_{index}.round(3))"
                before = [_stream(f"[0.{value:04d} 0.512 0.033 0.871]\n")]
                after = [_stream(f"[0.{(value + 1) % 10_000:04d} 0.214 0.950 0.408]\n")]
                verdict = "NonDeterministic"
        elif roll < shape.png_share + random_share + 0.03:
            # The pattern sits in a comment and a string, so a drifting
            # output stays Different rather than NonDeterministic.
            source = (f"# random.shuffle would reorder rows_{index} here\n"
                      f"print(\"np.random is not used\", len(rows_{index}))")
            before = [_stream(f"np.random is not used {value}\n")]
            after = [_stream(f"np.random is not used {value + 1}\n")]
            verdict = "Different"
        else:
            source = f"total_{index} = sum(values[:{value % 50}])\ntotal_{index}"
            if rng.random() < 0.5:
                before = [_result(f"{value}", count)]
            else:
                before = [_stream(f"total: {value}\nrows: {value % 13}\n")]
            if rng.random() < drift_share:
                after = [_result(f"{value + 7}", count)]
                verdict = "Different"
            elif rng.random() < 0.1 and before[0]["output_type"] == "stream":
                # Colour codes and trailing blanks normalize away.
                after = [_stream(f"\x1b[32mtotal\x1b[0m: {value}   \nrows: {value % 13}\n")]
                verdict = "Identical"
            else:
                after, verdict = before, "Identical"
        original.append(_code(source, before, count))
        executed.append(_code(source, after, count))
        verdicts.append(verdict)

    identical = verdicts.count("Identical")
    expected = {
        "kernel_name": kernel,
        "code_cells": shape.code_cells,
        "markdown_cells": markdown,
        "pattern_cells": pattern_cells,
        "parse_failed": False,
        "execution": {
            "status": "ErroredButCompleted" if errors else "Success",
            "code_cell_count": shape.code_cells,
            "markdown_code_ratio": markdown / shape.code_cells,
            "errors": errors,
            "has_artifact": True,
        },
        "verdicts": verdicts,
        "score_category": _score_category(identical, shape.code_cells),
    }
    return (_dump(_document(original, kernel)), _dump(_document(executed, kernel)),
            expected)


# ---- repositories -------------------------------------------------------------------

def _commit(path: Path) -> str:
    env = {**os.environ, **_GIT_ENV}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(path), *args], check=True,
                              capture_output=True, text=True, env=env).stdout

    git("init", "--quiet", "--initial-branch=main")
    git("add", "-A")
    git("commit", "--quiet", "--no-gpg-sign", "-m", "notebooks")
    return git("rev-parse", "HEAD").strip()


class _CorpusWriter:
    def __init__(self, root: Path) -> None:
        self.repos = root / "repos"
        self.executed = root / "executed"
        self.repositories: list[dict] = []

    def add(self, name: str, files: dict[str, bytes], *,
            notebooks: dict[str, dict] | None = None,
            executed: dict[str, bytes] | None = None,
            markers: dict[str, str] | None = None,
            provisioning: str = "EnvironmentBuilt",
            reason_prefix: str | None = None) -> None:
        path = self.repos / name
        for rel, content in files.items():
            target = path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
        revision = _commit(path)
        url = path.resolve().as_uri()
        repository_id = nbcorpus.repository_id_for(url)
        for rel, content in (executed or {}).items():
            target = self.executed / repository_id / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
        for rel, kernel in (markers or {}).items():
            (self.executed / repository_id / f"{rel}.nokernel").write_text(
                kernel + "\n", encoding="utf-8")
        manifests = sorted(rel for rel in files
                           if Path(rel).name in ("requirements.txt", "setup.py"))
        notebooks = notebooks or {}
        self.repositories.append({
            "name": name,
            "input": url,
            "repository_id": repository_id,
            "accessible": True,
            "provisioning": provisioning,
            "reason_prefix": reason_prefix,
            "has_requirements_file": "requirements.txt" in
                {Path(rel).name for rel in manifests},
            "manifest_paths": manifests,
            "revision": revision,
            "notebooks": {
                rel: {**nb, "notebook_id": nbcorpus.notebook_id_for(repository_id, rel)}
                for rel, nb in sorted(notebooks.items())
            },
        })

    def add_invalid(self, name: str) -> None:
        url = (self.repos / name).resolve().as_uri()
        self.repositories.append({
            "name": name, "input": url,
            "repository_id": nbcorpus.repository_id_for(url),
            "accessible": False, "provisioning": "InvalidUrl",
            "reason_prefix": "removed_or_private", "has_requirements_file": False,
            "manifest_paths": [], "revision": None, "notebooks": {},
        })


def _regular_repository(writer: _CorpusWriter, rng: random.Random, name: str,
                        count: int, shape: CorpusShape, *,
                        broken_build: bool = False) -> None:
    files: dict[str, bytes] = {
        "README.md": f"# {name}\n".encode(),
        "helpers.py": b"def load_rows(path):\n    return []\n",
    }
    requirements = ["numpy>=1.20", "pandas"]
    if broken_build:
        requirements.append(UNRESOLVABLE_REQUIREMENT)
    if broken_build or rng.random() < 0.6:
        files["requirements.txt"] = ("\n".join(requirements) + "\n").encode()
    notebooks, executed = {}, {}
    for ordinal in range(count):
        rel = f"notebooks/analysis_{ordinal:02d}.ipynb"
        original, after, expected = _notebook(rng, shape, ordinal)
        files[rel] = original
        executed[rel] = after
        notebooks[rel] = expected
    if broken_build:
        for expected in notebooks.values():
            expected.update(execution=None, verdicts=None, score_category=None)
        writer.add(name, files, notebooks=notebooks, provisioning="BuildFailed",
                   reason_prefix="DependencyInstall")
    else:
        writer.add(name, files, notebooks=notebooks, executed=executed)


def _edge_repositories(writer: _CorpusWriter, rng: random.Random,
                       shape: CorpusShape) -> None:
    _regular_repository(writer, rng, "edge-build-fails", 2, shape, broken_build=True)
    writer.add_invalid("edge-missing-repo")
    writer.add("edge-no-notebooks", {"README.md": b"# scripts only\n",
                                     "analysis.py": b"print('no notebooks')\n"},
               provisioning="NoPythonNotebooks")

    files = {"README.md": b"# mixed\n", "helpers.py": b"def load_rows(p):\n    return []\n"}
    notebooks, executed = {}, {}
    rel = "notebooks/regular.ipynb"
    files[rel], executed[rel], notebooks[rel] = _notebook(rng, shape, 0)
    rel = "notebooks/kernel_fallback.ipynb"
    files[rel], executed[rel], notebooks[rel] = _notebook(rng, shape, 1, MISSING_KERNEL)
    rel = "notebooks/truncated.ipynb"
    files[rel] = files["notebooks/regular.ipynb"][:4096]
    notebooks[rel] = {
        "kernel_name": None, "code_cells": None, "markdown_cells": None,
        "pattern_cells": None, "parse_failed": True,
        "execution": {"status": "ErroredButCompleted", "code_cell_count": 0,
                      "markdown_code_ratio": None,
                      "errors": [["NotJSONError", "Logic", BROKEN_NOTEBOOK_STDERR, 0, 1]],
                      "has_artifact": False},
        "verdicts": None, "score_category": None,
    }
    writer.add("edge-mixed", files, notebooks=notebooks, executed=executed,
               markers={"notebooks/kernel_fallback.ipynb": MISSING_KERNEL})


def generate_pipeline_corpus(root: Path, seed: int, shape: CorpusShape) -> dict:
    """Write the repositories, executed artifacts and ``expected.json``
    under ``root`` and return the expectation."""
    rng = random.Random(seed)
    writer = _CorpusWriter(root)
    for ordinal, count in enumerate(shape.notebooks_per_repo):
        _regular_repository(writer, rng, f"repo-{ordinal:02d}", count, shape)
    if shape.edge_repositories:
        _edge_repositories(writer, rng, shape)
    expected = {"seed": seed, "repositories": writer.repositories}
    (root / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True),
                                        encoding="utf-8")
    return expected


# ---- the report workload ------------------------------------------------------------

# Per-notebook archetypes of (baseline, current) pairs in built repositories,
# with the class the paper's rules give them.
_BUILT_ARCHETYPES = (
    # name, weight, baseline install, baseline status, current error, drift, class
    ("resolved", 2, "Fail", "Install Dependency Error", None, False, "A_EnvironmentResolved"),
    ("persistent", 2, "Success", "ValueError", "ValueError", False, "B_PersistentError"),
    ("persistent_spaced", 1, "Success", "File Not Found Error", "FileNotFoundError",
     False, "B_PersistentError"),
    ("drift", 3, "Success", "Sucess", None, True, "C_ReproducibilityDrift"),
    ("stable", 4, "Success", "Success", None, False, "Unclassified"),
    ("regressed", 1, "Success", "Success", "KeyError", False, "D_Regression"),
)
_FAILED_ARCHETYPES = (
    ("install_persists", 1, "Fail", "Install Dependency Error", "B_PersistentError"),
    ("build_regressed", 1, "Success", "Success", "D_Regression"),
)
_CATEGORY = {name: ErrorCategory(category) for name, category, _ in _ERRORS}


def generate_report_store(root: Path, seed: int, repositories: int,
                          notebooks_per_repo: int, code_cells: int,
                          unmatched_rows: int) -> dict:
    """Populate ``root/store.sqlite3`` through the Store API (in memory,
    then copied to the file) and write ``root/baseline.csv``; return the
    expectation."""
    rng = random.Random(seed)
    store = Store(":memory:")
    baseline_rows: list[list] = []
    expected_classes: dict[str, str] = {}
    install_failed: list[str] = []
    expected_notebooks: list[dict] = []
    repo_rows = []
    built_weights = [a[1] for a in _BUILT_ARCHETYPES]
    failed_weights = [a[1] for a in _FAILED_ARCHETYPES]
    for r in range(repositories):
        url = f"https://example.org/bench/project-{seed}-{r:04d}"
        repository_id = nbcorpus.repository_id_for(url)
        has_req = rng.random() < 0.6
        failed = rng.random() < 0.08
        store.upsert_repository(Repository(
            repository_id=repository_id, url=url,
            local_path=f"/corpus/{repository_id}/tree", accessible=True,
            has_requirements_file=has_req, notebook_count=notebooks_per_repo,
            manifest_paths=("requirements.txt",) if has_req else ()))
        run_id = f"{seed % 1000:03d}{r:09d}"
        run = RunRecord(run_id=run_id, repository_id=repository_id,
                        invocation_id="bench", started_at="2021-06-01T12:00:00+00:00",
                        revision=f"{r:040x}")
        store.insert_run(run)
        # update_run rather than finish_run, which stamps the current time.
        if failed:
            store.update_run(replace(
                run, finished_at="2021-06-01T13:00:00+00:00",
                provisioning_status=ProvisioningStatus.BUILD_FAILED,
                status_reason="DependencyInstall: ERROR: No matching distribution"))
        else:
            store.update_run(replace(
                run, finished_at="2021-06-01T13:00:00+00:00",
                provisioning_status=ProvisioningStatus.ENVIRONMENT_BUILT,
                image_reference=f"repro/{repository_id}:{run_id}"))
        repo_rows.append({"has_requirements_file": has_req,
                          "provisioning": "BuildFailed" if failed else "EnvironmentBuilt"})
        for n in range(notebooks_per_repo):
            rel = f"notebooks/nb_{n:03d}.ipynb"
            notebook_id = nbcorpus.notebook_id_for(repository_id, rel)
            pattern_cells = rng.choice((0, 0, 0, 1, 2))
            store.upsert_notebook(NotebookDescriptor(
                notebook_id=notebook_id, repository_id=repository_id,
                relative_path=rel, kernel_name="python3", nbformat_version=(4, 5),
                code_cell_count=code_cells, markdown_cell_count=code_cells // 4,
                nondeterministic_pattern_cells=pattern_cells))
            entry = {"pattern_cells": pattern_cells, "execution": None,
                     "score_category": None}
            if failed:
                (_, _, install, status, cls), = rng.choices(_FAILED_ARCHETYPES,
                                                            failed_weights)
                baseline_rows.append([notebook_id, install, status, "", ""])
                expected_classes[notebook_id] = cls
                if install == "Fail":
                    install_failed.append(notebook_id)
                expected_notebooks.append(entry)
                continue
            (_, _, install, status, error, drift, cls), = rng.choices(
                _BUILT_ARCHETYPES, built_weights)
            errors = ()
            if error is not None:
                errors = (ExecutionError(
                    error_type=error, category=_CATEGORY[error],
                    message=f"{error} in cell {n % code_cells}",
                    cell_index=n % code_cells),)
            store.insert_execution(ExecutionRecord(
                notebook_id=notebook_id, run_id=run_id,
                status=(ExecutionStatus.ERRORED_BUT_COMPLETED if errors
                        else ExecutionStatus.SUCCESS),
                duration_s=round(rng.uniform(0.5, 30.0), 3),
                code_cell_count=code_cells, markdown_code_ratio=0.25, errors=errors,
                executed_notebook_path=f"/corpus/artifacts/{run_id}/{rel}"))
            changed = rng.randint(1, code_cells // 2) if drift else 0
            nondeterministic = min(changed, pattern_cells)
            different = changed - nondeterministic
            identical = code_cells - changed
            store.insert_metrics(ReproducibilityMetrics(
                notebook_id=notebook_id, run_id=run_id,
                identical_count=identical, different_count=different,
                nondeterministic_count=nondeterministic,
                identical_indices=tuple(range(identical)),
                different_indices=tuple(range(identical, identical + different)),
                nondeterministic_indices=tuple(range(identical + different, code_cells)),
                total_code_cells=code_cells, score=identical / code_cells))
            baseline_rows.append([notebook_id, install, status,
                                  str(rng.randint(0, 5)), f"{rng.uniform(1, 60):.2f}"])
            expected_classes[notebook_id] = cls
            if install == "Fail":
                install_failed.append(notebook_id)
            entry["execution"] = {
                "status": "ErroredButCompleted" if errors else "Success",
                "errors": [[e.error_type, e.category.value] for e in errors]}
            entry["score_category"] = _score_category(identical, code_cells)
            expected_notebooks.append(entry)
    unmatched = sorted(f"{rng.getrandbits(64):016x}" for _ in range(unmatched_rows))
    baseline_rows += [[notebook_id, "Success", "Success", "0", "1.00"]
                      for notebook_id in unmatched]
    rng.shuffle(baseline_rows)

    store_path = root / "store.sqlite3"
    store_path.unlink(missing_ok=True)
    # The Store API has no export; SQLite's online backup copies the
    # in-memory database page by page.
    with Store(store_path) as target:
        store._conn.backup(target._conn)
    store.close()
    with open(root / "baseline.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["notebook_id", "prev_dependency_install",
                         "prev_execution_status", "prev_diff_cells", "prev_duration_s"])
        writer.writerows(baseline_rows)
    return {"seed": seed, "repositories": repo_rows, "notebooks": expected_notebooks,
            "classes": expected_classes, "install_failed": install_failed,
            "unmatched": unmatched}
