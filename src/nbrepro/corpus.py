"""Repository discovery, validation, and acquisition.

Repositories are probed read-only over the standard git transport, cloned
shallowly, and scanned for notebooks and dependency manifests. Discovery is
the one reader of the committed notebooks at infer: it keeps each one's
facts, not the parsed notebook. Identifiers are derived from content (URL
hash, path hash) so the same repository maps to the same rows across
invocations. Nothing here writes to the store: the pipeline records what
these functions return.
"""

from __future__ import annotations

import hashlib
import logging
import shutil
import uuid
from enum import Enum
from pathlib import Path
from urllib.parse import urlparse, urlunparse

from nbrepro import compare, depinfer, notebook as nbmodel
from nbrepro.config import DEFAULT_VALIDATION_TIMEOUT
from nbrepro.notebook import NOTEBOOK_SUFFIX
from nbrepro.store import NotebookDescriptor, Repository
from nbrepro.tool import QUICK_CALL_TIMEOUT, run_tool

logger = logging.getLogger(__name__)

# A slower clone is a failed acquisition; the repository stays Pending.
CLONE_TIMEOUT = 600.0
_ALLOWED_SCHEMES = frozenset({"http", "https", "file"})

# Never let git fall back to interactive credential prompts; the probe must
# answer for unauthenticated access only.
_GIT_ENV_OVERRIDES = {
    "GIT_TERMINAL_PROMPT": "0",
    "GIT_ASKPASS": "/bin/true",
    "GIT_CONFIG_NOSYSTEM": "1",
}


class ValidationResult(Enum):
    ACCESSIBLE = "accessible"
    REMOVED_OR_PRIVATE = "removed_or_private"
    MALFORMED = "malformed"


class TransientNetworkError(Exception):
    """Probe or clone cut short by the network, a timeout or a signal, worth
    retrying; distinct from a repository that answered and said no."""


class AcquisitionError(Exception):
    """Clone failed after a successful validation."""


def normalize_url(url: str) -> str:
    """Canonical URL form feeding the repository identifier. An input that
    does not parse as a URL, such as ``http://[::1``, is kept as spelled:
    it is still recorded, as an invalid URL."""
    try:
        parsed = urlparse(url.strip())
    except ValueError:
        return url.strip()
    path = parsed.path.rstrip("/")
    if path.endswith(".git"):
        path = path[:-4]
    return urlunparse((parsed.scheme.lower(), parsed.netloc.lower(), path,
                       "", "", ""))


def local_path_to_url(path: str | Path) -> str:
    return Path(path).resolve().as_uri()


def canonical_input(raw_input: str) -> str:
    """The URL an input names: an existing local path becomes its file URL,
    anything else is taken as a URL."""
    candidate = Path(raw_input)
    if "://" not in raw_input and candidate.exists():
        return local_path_to_url(candidate)
    return raw_input.strip()


def repository_id_for(url: str) -> str:
    digest = hashlib.sha256(normalize_url(url).encode("utf-8")).hexdigest()
    return digest[:16]


def notebook_id_for(repository_id: str, relative_path: str) -> str:
    digest = hashlib.sha256(f"{repository_id}:{relative_path}".encode("utf-8"))
    return digest.hexdigest()[:16]


def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


def validate_repository(url: str,
                        timeout: float = DEFAULT_VALIDATION_TIMEOUT) -> ValidationResult:
    """Read-only existence probe for a remote repository.

    Syntactically broken inputs are malformed; a remote that answers the
    unauthenticated refs listing is accessible; one that refuses is removed
    or private. A probe that timed out or died by a signal (a Ctrl-C reaches
    the whole process group) raises TransientNetworkError instead of being
    misreported as removed.
    """
    try:
        parsed = urlparse(url.strip())
    except ValueError:
        return ValidationResult.MALFORMED
    if parsed.scheme not in _ALLOWED_SCHEMES:
        return ValidationResult.MALFORMED
    if parsed.scheme == "file":
        if not parsed.path:
            return ValidationResult.MALFORMED
    elif not parsed.netloc or " " in url.strip():
        return ValidationResult.MALFORMED

    result = run_tool(["git", "ls-remote", "--heads", "--", url.strip()],
                      timeout, env=_GIT_ENV_OVERRIDES)
    if result.timed_out:
        raise TransientNetworkError(f"existence probe timed out for {url}")
    if result.returncode < 0:
        raise TransientNetworkError(
            f"existence probe killed by signal {-result.returncode} for {url}")
    if result.returncode == 0:
        return ValidationResult.ACCESSIBLE
    logger.debug("probe of %s failed: %s", url, result.stderr.strip())
    return ValidationResult.REMOVED_OR_PRIVATE


def _tree_files(tree: Path, pattern: str) -> list[Path]:
    """The files under ``tree`` (any depth, outside ``.git``) whose names
    match ``pattern``. A symlink that resolves outside the tree is skipped
    with a warning, so no host file is read as part of the repository."""
    root = tree.resolve()
    found: list[Path] = []
    for path in tree.rglob(pattern):
        if ".git" in path.relative_to(tree).parts:
            continue
        if not path.resolve().is_relative_to(root):
            logger.warning("skipping %s: it resolves outside the repository",
                           path.relative_to(tree).as_posix())
            continue
        found.append(path)
    return found


def find_manifest_paths(tree: Path) -> list[str]:
    """Candidate dependency manifests (any depth), repo-relative, sorted."""
    return sorted(found.relative_to(tree).as_posix()
                  for name in ("requirements.txt", "setup.py")
                  for found in _tree_files(tree, name))


def current_revision(tree: Path) -> str | None:
    result = run_tool(["git", "-C", str(tree), "rev-parse", "HEAD"],
                      QUICK_CALL_TIMEOUT, env=_GIT_ENV_OVERRIDES)
    return result.stdout.strip() if result.returncode == 0 else None


def acquire_repository(url: str, workdir: Path) -> Repository:
    """Shallow-clone the repository's default branch and describe it.

    The working tree lands under ``workdir/<repository_id>/tree``; an
    existing tree from a prior invocation is replaced so every run starts
    from a fresh checkout. A clone not done in CLONE_TIMEOUT seconds raises
    AcquisitionError.
    """
    repository_id = repository_id_for(url)
    tree = Path(workdir) / repository_id / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    tree.parent.mkdir(parents=True, exist_ok=True)

    result = run_tool(["git", "clone", "--depth", "1", "--quiet", "--", url.strip(),
                       str(tree)], CLONE_TIMEOUT, env=_GIT_ENV_OVERRIDES)
    if result.timed_out:
        raise AcquisitionError(f"clone of {url} timed out")
    if result.returncode != 0:
        raise AcquisitionError(
            f"clone of {url} failed: {result.stderr.strip()[:500]}")

    manifest_paths = find_manifest_paths(tree)
    return Repository(
        repository_id=repository_id,
        url=normalize_url(url),
        local_path=str(tree),
        accessible=True,
        has_requirements_file=any(
            Path(p).name == "requirements.txt" for p in manifest_paths),
        manifest_paths=tuple(manifest_paths),
    )


def discover_notebooks(repo: Repository
                       ) -> tuple[list[NotebookDescriptor], set[str],
                                  list[depinfer.PackageRequirement]]:
    """One descriptor per notebook file, in deterministic path-sorted order,
    plus the module names the code cells import and the requirements their
    pip-install lines name, in path-then-cell order.

    Unparseable notebooks are described with the parse-failure flag rather
    than skipped. Each code cell is read once, for those facts and for the
    descriptor's pattern-cell count; a parsed notebook is dropped before
    the next one is read.
    """
    tree = Path(repo.local_path or "")
    descriptors: list[NotebookDescriptor] = []
    imported: set[str] = set()
    magic: list[depinfer.PackageRequirement] = []
    for path in sorted(_tree_files(tree, f"*{NOTEBOOK_SUFFIX}")):
        relative_path = path.relative_to(tree).as_posix()
        notebook_id = notebook_id_for(repo.repository_id, relative_path)
        try:
            nb = nbmodel.parse_notebook(path.read_bytes())
        except (nbmodel.ParseError, OSError) as exc:
            logger.warning("notebook %s does not parse: %s", relative_path, exc)
            descriptors.append(NotebookDescriptor(
                notebook_id=notebook_id,
                repository_id=repo.repository_id,
                relative_path=relative_path,
                parse_failed=True,
                parse_error=str(exc)[:500],
            ))
            continue
        pattern_cells = 0
        for cell in nbmodel.code_cells(nb):
            imported |= depinfer.extract_imports(cell.source)
            magic.extend(depinfer.extract_magic_installs(cell.source))
            pattern_cells += compare.detect_nondeterminism(cell.source)[0]
        code, markdown = nbmodel.cell_counts(nb)
        descriptors.append(NotebookDescriptor(
            notebook_id=notebook_id,
            repository_id=repo.repository_id,
            relative_path=relative_path,
            kernel_name=nb.kernel_name,
            nbformat_version=nb.nbformat_version,
            code_cell_count=code,
            markdown_cell_count=markdown,
            nondeterministic_pattern_cells=pattern_cells,
        ))
    return descriptors, imported, magic
