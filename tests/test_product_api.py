"""Every public name in the package is used by the package itself, so no
product code lives on for the tests alone; only the tool runner starts a
process, only the pipeline opens thread pools, and the read-only commands
load neither."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import nbrepro
from nbrepro.store import NotebookDescriptor, Repository, Store

PACKAGE = Path(nbrepro.__file__).parent

# Kept for the tests: acceptance criterion 2 checks the score formula
# through it.
ALLOWED = {"compare.compute_metrics"}


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of each public top-level function and
    class, and of each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def test_every_public_name_is_used_by_the_package():
    trees = {path.stem: ast.parse(path.read_text("utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    references = [(node, name) for tree in trees.values() for node in ast.walk(tree)
                  if (name := _referenced_name(node)) is not None]
    unused = []
    for module, tree in trees.items():
        for qualified, definition in _public_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            name = qualified.rsplit(".", 1)[-1]
            if not any(found == name and id(node) not in own
                       for node, found in references):
                unused.append(f"{module}.{qualified}")
    assert sorted(set(unused) - ALLOWED) == []


def _importers(package: str) -> set[str]:
    """The package's files that import ``package`` or one of its modules."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == package for module in modules):
                importers.add(path.name)
    return importers


def test_only_the_tool_runner_starts_processes():
    """Every git and runtime call goes through ``tool.run_tool``: one
    timeout path, and a bound on every call."""
    timeout_sites = {path.name for path in sorted(PACKAGE.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text("utf-8")))
                     if _referenced_name(node) == "TimeoutExpired"}
    assert _importers("subprocess") == {"tool.py"}
    assert timeout_sites <= {"tool.py"}


def test_only_the_pipeline_schedules_work():
    """One scheduler: every thread pool of the package is the pipeline's."""
    assert _importers("concurrent") == {"pipeline.py"}


# What classify and report must not load: the stages, git and the runtime.
_STAGE_MODULES = ["nbrepro.pipeline", "nbrepro.corpus", "nbrepro.depinfer",
                  "nbrepro.containerize", "nbrepro.executor", "nbrepro.tool",
                  "subprocess", "concurrent.futures"]

_READ_ONLY_COMMANDS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from nbrepro import cli
common = ["--store", sys.argv[2], "--report-dir", sys.argv[3]]
codes = [cli.main(["classify", "--baseline", sys.argv[4], *common]),
         cli.main(["report", *common])]
print(json.dumps([codes, sorted(set(json.loads(sys.argv[5])) & set(sys.modules))]))
"""


def test_read_only_commands_load_no_stage_code(tmp_path):
    """``classify`` and ``report`` read the store and write reports; a fresh
    interpreter running both loads no pipeline, git or runtime module."""
    store_path = tmp_path / "store.sqlite3"
    with Store(store_path) as store:
        store.upsert_repository(Repository("r1", "https://example.org/r1"))
        store.upsert_notebook(NotebookDescriptor("nb1", "r1", "nb1.ipynb"))
    baseline = tmp_path / "baseline.csv"
    baseline.write_text("notebook_id,prev_dependency_install,prev_execution_status,"
                        "prev_diff_cells,prev_duration_s\nnb1,Fail,Failed,0,1\n")
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _READ_ONLY_COMMANDS, str(PACKAGE.parent),
         str(store_path), str(tmp_path / "reports"), str(baseline),
         json.dumps(_STAGE_MODULES)],
        capture_output=True, text=True, timeout=60, check=True)
    codes, loaded = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == []
    assert (tmp_path / "reports" / "report.json").is_file()
