"""Dependency synthesis from declared manifests and notebook imports.

Declared requirements (requirements.txt, setup.py install lists, and pip
install lines) are merged with imports statically extracted from code cells
(the per-cell extractors run at discovery; synthesis never sees a notebook);
standard-library and repository-internal names are filtered out, import
names are mapped to distribution names, and the result is materialized as a
deterministic requirements manifest.
"""

from __future__ import annotations

import ast
import json
import logging
import re
import shlex
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from nbrepro.store import Repository

logger = logging.getLogger(__name__)

_DATA_PACKAGE = "nbrepro.data"
STDLIB_DATA_FILE = "stdlib_modules.txt"
ALIAS_DATA_FILE = "import_aliases.json"

# Longest operators first so ">=" is not split as ">".
_COMPARISON_OPS = ("===", "==", "~=", "!=", ">=", "<=", ">", "<")
_OPAQUE_PREFIXES = ("git+", "hg+", "svn+", "bzr+")
_REQUIREMENT_RE = re.compile(r"^([A-Za-z0-9][A-Za-z0-9._-]*)\s*(\[[^\]]*\])?\s*(.*)$")
_COMMENT_RE = re.compile(r"(^|\s)#.*$")
_IMPORT_LINE_RE = re.compile(r"^\s*import\s+(.+)$")
_FROM_LINE_RE = re.compile(r"^\s*from\s+([.\w]+)\s+import\b")
_MAGIC_INSTALL_RE = re.compile(r"^\s*[%!]\s*pip3?\s+install\s+(.+)$")
# ``pip install`` options whose value is the next token (not ``--opt=value``).
_PIP_OPTIONS_WITH_VALUE = frozenset({
    "-r", "--requirement", "-c", "--constraint", "-e", "--editable", "-i",
    "--index-url", "--extra-index-url", "-f", "--find-links", "-t", "--target",
    "--prefix", "--root", "--src", "--trusted-host", "--upgrade-strategy",
    "--no-binary", "--only-binary", "--platform", "--python-version"})


class RequirementOrigin(Enum):
    DECLARED_REQUIREMENTS = "DeclaredRequirements"
    DECLARED_SETUP = "DeclaredSetup"
    INFERRED_IMPORT = "InferredImport"


def normalize_distribution_name(name: str) -> str:
    """Canonical form used for deduplication and sorting."""
    return re.sub(r"[-_.]+", "-", name).lower()


@dataclass(frozen=True)
class PackageRequirement:
    """One entry of a dependency specification.

    ``verbatim`` is set for lines the parser keeps opaque (editable, VCS or
    URL requirements); their text passes through to the synthesized
    manifest unchanged.
    """

    distribution_name: str
    origin: RequirementOrigin
    version_constraint: str | None = None
    verbatim: str | None = None

    def manifest_line(self) -> str:
        if self.verbatim is not None:
            return self.verbatim
        return f"{self.distribution_name}{self.version_constraint or ''}"


@dataclass(frozen=True)
class DependencySpec:
    repository_id: str
    requirements: tuple[PackageRequirement, ...]
    synthesized_manifest: str


def parse_requirements_manifest(text: str) -> list[PackageRequirement]:
    """Parse requirements-file lines into requirements.

    Comment and blank lines are dropped; option lines (-r, --index-url, ...)
    are skipped with a warning; editable, VCS, and URL lines are preserved
    verbatim as opaque requirements; everything else splits into name and
    constraint at the first comparison operator. Unparseable lines warn and
    are skipped, never fatal.
    """
    requirements: list[PackageRequirement] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub("", raw_line).strip()
        if not line:
            continue
        if line.startswith(("-e ", "-e\t", "--editable")):
            requirements.append(_opaque_requirement(
                line, RequirementOrigin.DECLARED_REQUIREMENTS))
            continue
        if line.startswith("-"):
            logger.warning("requirements line %d is an option, skipped: %s",
                           lineno, line)
            continue
        if "://" in line or line.startswith(_OPAQUE_PREFIXES):
            requirements.append(_opaque_requirement(
                line, RequirementOrigin.DECLARED_REQUIREMENTS))
            continue
        parsed = parse_requirement_line(line, RequirementOrigin.DECLARED_REQUIREMENTS)
        if parsed is None:
            logger.warning("unparseable requirements line %d, skipped: %s",
                           lineno, line)
            continue
        requirements.append(parsed)
    return requirements


def parse_requirement_line(line: str, origin: RequirementOrigin
                           ) -> PackageRequirement | None:
    match = _REQUIREMENT_RE.match(line)
    if match is None:
        return None
    name, extras, rest = match.groups()
    rest = rest.strip()
    if rest and not rest.startswith(_COMPARISON_OPS) and not rest.startswith(";"):
        return None
    constraint = f"{extras or ''}{rest}" or None
    return PackageRequirement(
        distribution_name=normalize_distribution_name(name),
        origin=origin,
        version_constraint=constraint,
    )


def _opaque_requirement(line: str, origin: RequirementOrigin) -> PackageRequirement:
    # Egg fragment gives a dedup key when present; otherwise the line itself.
    egg = re.search(r"[#&]egg=([A-Za-z0-9._-]+)", line)
    key = egg.group(1) if egg else line
    return PackageRequirement(
        distribution_name=normalize_distribution_name(key),
        origin=origin,
        verbatim=line,
    )


def parse_setup_manifest(text: str) -> list[PackageRequirement]:
    """Statically extract the install-requires list from a setup script.

    Only literal lists survive (one level of name indirection to a literal
    module-level assignment is resolved); anything computed at runtime
    yields an empty result with a "dynamic setup manifest" warning. The
    script is never executed.
    """
    try:
        tree = ast.parse(text)
    except SyntaxError:
        logger.warning("setup manifest does not parse, skipped")
        return []

    assignments: dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assignments[target.id] = node.value

    candidates: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    candidates.append(keyword.value)
    if not candidates and "install_requires" in assignments:
        candidates.append(assignments["install_requires"])
    if not candidates:
        return []

    entries: list[str] = []
    for value in candidates:
        if isinstance(value, ast.Name):
            value = assignments.get(value.id, value)
        if not isinstance(value, (ast.List, ast.Tuple)):
            logger.warning("dynamic setup manifest")
            return []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                entries.append(element.value)
            else:
                logger.warning("dynamic setup manifest")
                return []

    requirements = []
    for entry in entries:
        parsed = parse_requirement_line(entry.strip(), RequirementOrigin.DECLARED_SETUP)
        if parsed is None:
            logger.warning("unparseable setup requirement skipped: %s", entry)
            continue
        requirements.append(parsed)
    return requirements


def _blank_cell_magics(source: str) -> str:
    """Blank shell and magic lines so the rest of the cell parses as Python."""
    lines = source.split("\n")
    for i, line in enumerate(lines):
        if line.lstrip().startswith(("%", "!")):
            lines[i] = ""
    return "\n".join(lines)


def extract_imports(source: str) -> set[str]:
    """Top-level module names imported by a code cell.

    Parses the cell as Python when possible (comments and strings are then
    ignored for free) and falls back to an anchored line scan for broken
    cells. Relative imports are repository-internal and excluded. Only the
    first dotted component of each name is returned. A cell without the
    ``import`` keyword, which both import statements and both line patterns
    need, is not parsed: most cells import nothing.
    """
    if "import" not in source:
        return set()
    return _parse_imports(source)


def _parse_imports(source: str) -> set[str]:
    cleaned = _blank_cell_magics(source)
    try:
        tree = ast.parse(cleaned)
    except SyntaxError:
        return _extract_imports_by_line(cleaned)

    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def _extract_imports_by_line(source: str) -> set[str]:
    from nbrepro.compare import strip_comments_and_strings

    names: set[str] = set()
    for line in strip_comments_and_strings(source).split("\n"):
        from_match = _FROM_LINE_RE.match(line)
        if from_match:
            module = from_match.group(1)
            if not module.startswith("."):
                names.add(module.split(".")[0])
            continue
        import_match = _IMPORT_LINE_RE.match(line)
        if import_match:
            for clause in import_match.group(1).split(","):
                name = clause.strip().split(" ")[0].split(".")[0]
                if name.isidentifier():
                    names.add(name)
    return names


def load_stdlib_modules() -> frozenset[str]:
    """Bundled standard-library name list for the container interpreter."""
    text = resources.files(_DATA_PACKAGE).joinpath(STDLIB_DATA_FILE).read_text("utf-8")
    return frozenset(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


def filter_standard_library(names: Iterable[str],
                            stdlib: frozenset[str] | None = None) -> set[str]:
    if stdlib is None:
        stdlib = load_stdlib_modules()
    return {name for name in names if name not in stdlib}


def load_alias_table(extra_path: Path | None = None) -> dict[str, str]:
    """Import-name to distribution-name table, optionally extended (and
    overridden) by a user-supplied JSON file."""
    text = resources.files(_DATA_PACKAGE).joinpath(ALIAS_DATA_FILE).read_text("utf-8")
    table: dict[str, str] = json.loads(text)
    if extra_path is not None:
        table.update(json.loads(Path(extra_path).read_text("utf-8")))
    return table


def map_import_to_distribution(module_name: str,
                               aliases: dict[str, str] | None = None) -> str:
    """Distribution installing a given import name; identity when unknown."""
    if aliases is None:
        aliases = load_alias_table()
    return aliases.get(module_name, module_name)


def extract_magic_installs(source: str) -> list[PackageRequirement]:
    """Requirements named by ``!pip install`` / ``%pip install`` cell lines.

    The arguments are split as the shell splits them: quotes are removed
    and a trailing ``#`` comment is dropped. A line with an unclosed quote,
    which the shell would refuse, names nothing.
    """
    requirements: list[PackageRequirement] = []
    for line in source.split("\n"):
        match = _MAGIC_INSTALL_RE.match(line)
        if not match:
            continue
        try:
            tokens = shlex.split(match.group(1), comments=True)
        except ValueError:
            continue
        for option, token in zip([None, *tokens], tokens):
            if token.startswith("-") or option in _PIP_OPTIONS_WITH_VALUE:
                continue
            parsed = parse_requirement_line(
                token, RequirementOrigin.DECLARED_REQUIREMENTS)
            if parsed is not None:
                requirements.append(parsed)
    return requirements


def find_internal_module_names(tree: Path,
                               notebook_dirs: Iterable[Path] = ()) -> set[str]:
    """Module names resolvable inside the repository itself.

    Covers top-level directories and modules plus modules next to each
    notebook (execution runs with the notebook's directory as cwd), so
    local code is never mistaken for an installable dependency.
    """
    names: set[str] = set()
    directories = [tree, *notebook_dirs]
    for directory in directories:
        if not directory.is_dir():
            continue
        for entry in directory.iterdir():
            if entry.name.startswith("."):
                continue
            if entry.is_dir():
                names.add(entry.name)
            elif entry.suffix == ".py":
                names.add(entry.stem)
    return names


def synthesize_dependency_spec(
    repo: "Repository",
    imported: Iterable[str],
    magic: Sequence[PackageRequirement] = (),
    *,
    notebook_paths: Sequence[str] = (),
    tree: Path | None = None,
    aliases: dict[str, str] | None = None,
    stdlib: frozenset[str] | None = None,
) -> DependencySpec:
    """Merge declared and inferred requirements for one repository.

    Declared sources win name collisions against inferred imports (they
    carry the author's version constraints); among declared sources the
    requirements manifest beats the setup script beats ``magic`` install
    lines, and of several manifests of one kind the shallowest, then the
    first in path order, is used. The synthesized manifest is sorted by
    distribution name and LF-terminated, so identical trees synthesize
    identical bytes.

    ``imported``, ``magic`` and ``notebook_paths`` are as discovery returns
    them; modules living next to a notebook count as repository-internal.
    """
    if tree is None:
        tree = Path(repo.local_path) if repo.local_path else None
    if aliases is None:
        aliases = load_alias_table()
    if stdlib is None:
        stdlib = load_stdlib_modules()

    declared: list[PackageRequirement] = []
    internal: set[str] = set()
    if tree is not None:
        declared = _declared_from_tree(tree, repo.manifest_paths)
        notebook_dirs = sorted({(tree / rel).parent for rel in notebook_paths})
        internal = find_internal_module_names(tree, notebook_dirs)

    third_party = filter_standard_library(imported, stdlib) - internal
    inferred = [
        PackageRequirement(
            distribution_name=normalize_distribution_name(
                map_import_to_distribution(name, aliases)),
            origin=RequirementOrigin.INFERRED_IMPORT,
        )
        for name in sorted(third_party)
    ]

    merged: dict[str, PackageRequirement] = {}
    for requirement in [*declared, *magic, *inferred]:
        merged.setdefault(requirement.distribution_name, requirement)

    ordered = tuple(sorted(merged.values(), key=lambda r: r.distribution_name))
    manifest = "".join(f"{r.manifest_line()}\n" for r in ordered)
    return DependencySpec(
        repository_id=repo.repository_id,
        requirements=ordered,
        synthesized_manifest=manifest,
    )


def _declared_from_tree(tree: Path,
                        manifest_paths: Sequence[str]) -> list[PackageRequirement]:
    paths = sorted(manifest_paths, key=lambda p: (len(Path(p).parts), p))
    requirements_files = [p for p in paths if Path(p).name == "requirements.txt"]
    setup_files = [p for p in paths if Path(p).name == "setup.py"]

    declared: list[PackageRequirement] = []
    if requirements_files:
        if len(requirements_files) > 1:
            logger.info("multiple requirements manifests, using %s (also saw %s)",
                        requirements_files[0], ", ".join(requirements_files[1:]))
        declared.extend(parse_requirements_manifest(
            (tree / requirements_files[0]).read_text("utf-8", errors="replace")))
    if setup_files:
        if len(setup_files) > 1:
            logger.info("multiple setup scripts, using %s", setup_files[0])
        declared.extend(parse_setup_manifest(
            (tree / setup_files[0]).read_text("utf-8", errors="replace")))
    return declared
