"""Every public name in the package is used by the package itself, so no
product code lives on for the tests alone; only the tool runner starts a
process, and only the pipeline opens thread pools."""

from __future__ import annotations

import ast
from pathlib import Path

import nbrepro

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
