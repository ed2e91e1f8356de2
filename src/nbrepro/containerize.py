"""Deterministic container build recipes and clean-room image builds.

The recipe text is a pure function of the dependency specification and the
pipeline version: same inputs, same bytes, on any host. Before a build,
every container and image previously tagged for the repository is removed
so no cached layer can mask a dependency conflict. The container runtime is
driven exclusively through its command-line interface, by ``tool.run_tool``:
the build, ``run`` and ``cp`` have their stage's bound, the rest 30 s.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from nbrepro import __version__, atomic
from nbrepro.depinfer import DependencySpec
from nbrepro.tool import QUICK_CALL_TIMEOUT, ToolRun, run_tool

logger = logging.getLogger(__name__)

DEFAULT_BASE_IMAGE = "python:3.10-slim"
DEFAULT_BUILD_TIMEOUT = 1200.0
DEFAULT_EXECUTION_TIMEOUT = 600.0
IMAGE_REPOSITORY_PREFIX = "repro"
SYNTHESIZED_MANIFEST_NAME = "requirements.synthesized.txt"
MANIFEST_IMAGE_PATH = "/opt/nbrepro/requirements.synthesized.txt"
# Names the repository of a container or image; cleanup filters on it.
REPOSITORY_LABEL = "nbrepro.repository_id"

# Minimal fixed utility layer: enough native toolchain for common source
# distributions to compile, nothing repository-specific.
_SYSTEM_PACKAGES = ("build-essential", "gcc", "g++", "git", "libffi-dev",
                    "libssl-dev", "pkg-config")
_EXECUTION_TOOLCHAIN = ("jupyter-core", "nbconvert", "nbclient", "ipykernel")

_PIP_FAILURE_RE = re.compile(
    r"No matching distribution found|Could not find a version that satisfies|"
    r"error: subprocess-exited-with-error|pip install --no-cache-dir -r",
    re.IGNORECASE)
_BASE_IMAGE_FAILURE_RE = re.compile(
    r"pull access denied|manifest unknown|manifest for .+ not found|"
    r"failed to resolve source metadata|repository does not exist|"
    r"error response from daemon: .*not found", re.IGNORECASE)


class BuildPhase(Enum):
    BASE_IMAGE = "BaseImage"
    DEPENDENCY_INSTALL = "DependencyInstall"
    TIMEOUT = "Timeout"
    OTHER = "Other"


@dataclass(frozen=True)
class BuildFailure:
    phase: BuildPhase
    last_line: str


@dataclass(frozen=True)
class BuildRecipe:
    dockerfile_text: str
    context_dir: Path
    manifest_text: str
    manifest_name: str = SYNTHESIZED_MANIFEST_NAME


class ContainerRuntimeUnavailable(Exception):
    pass


class DockerCli:
    """Thin wrapper around the container runtime CLI; every call is bounded."""

    def __init__(self, executable: str = "docker") -> None:
        self.executable = executable
        self._unreachable: str | None = None  # the verdict of a failed listing

    def _run(self, args: list[str], timeout: float) -> ToolRun:
        return run_tool([self.executable, *args], timeout)

    def available(self) -> bool:
        try:
            return self._run(["version", "--format", "{{.Server.Version}}"],
                             timeout=QUICK_CALL_TIMEOUT).returncode == 0
        except OSError:
            return False

    def build(self, tag: str, dockerfile: Path, context: Path,
              timeout: float = DEFAULT_BUILD_TIMEOUT) -> ToolRun:
        return self._run(
            ["build", "--no-cache", "-t", tag, "-f", str(dockerfile), str(context)],
            timeout=timeout)

    def list_images(self, repository: str) -> list[str]:
        result = self._run(["images", "--format", "{{.Repository}}:{{.Tag}}",
                            repository], timeout=QUICK_CALL_TIMEOUT)
        if result.returncode != 0:
            return []
        return [line for line in result.stdout.splitlines() if line.strip()]

    def list_containers(self, label: str) -> list[str]:
        """The containers carrying ``label``. This is a clean room's first
        runtime call, so it is also its reachability check: it raises
        ContainerRuntimeUnavailable when ``ps`` cannot start or does not
        finish in 30 s. A nonzero exit alone does not prove the runtime
        unreachable, so then the version probe decides; on a reachable
        runtime the listing is empty. Once the runtime was found
        unreachable, every later listing raises the same at once."""
        if self._unreachable is not None:
            raise ContainerRuntimeUnavailable(self._unreachable)
        try:
            result = self._run(["ps", "-aq", "--filter", f"label={label}"],
                               timeout=QUICK_CALL_TIMEOUT)
        except OSError:
            result = None
        if result is not None and result.returncode == 0:
            return [line for line in result.stdout.splitlines() if line.strip()]
        if result is None or result.timed_out or not self.available():
            self._unreachable = f"container runtime {self.executable!r} is not reachable"
            raise ContainerRuntimeUnavailable(self._unreachable)
        return []

    def remove_container(self, name_or_id: str) -> None:
        self._run(["rm", "-f", name_or_id], timeout=QUICK_CALL_TIMEOUT)

    def remove_image(self, reference: str) -> None:
        self._run(["rmi", "-f", reference], timeout=QUICK_CALL_TIMEOUT)

    def run_container(self, image: str, command: list[str], run_args: list[str],
                      timeout: float = DEFAULT_EXECUTION_TIMEOUT) -> ToolRun:
        return self._run(["run", *run_args, image, *command], timeout=timeout)

    def copy_from_container(self, container: str, source: str, destination: Path,
                            timeout: float = DEFAULT_EXECUTION_TIMEOUT) -> bool:
        result = self._run(["cp", f"{container}:{source}", str(destination)],
                           timeout=timeout)
        return result.returncode == 0 and destination.exists()


def image_repository_for(repository_id: str) -> str:
    return f"{IMAGE_REPOSITORY_PREFIX}/{repository_id}"


def image_tag_for(repository_id: str, run_id: str) -> str:
    return f"{image_repository_for(repository_id)}:{run_id}"


def generate_build_recipe(spec: DependencySpec, *,
                          context_dir: Path | str = ".",
                          base_image: str = DEFAULT_BASE_IMAGE) -> BuildRecipe:
    """Container recipe for one repository's synthesized environment.

    The recipe pins the base image, installs the synthesized manifest and
    the notebook execution toolchain, copies the repository tree in, and
    sets a non-interactive working directory. Generation is infallible;
    problems surface at build time.
    """
    lines = [
        f"FROM {base_image}",
        "",
        f'LABEL nbrepro.version="{__version__}"',
        f'LABEL {REPOSITORY_LABEL}="{spec.repository_id}"',
        "",
        "ENV DEBIAN_FRONTEND=noninteractive \\",
        "    PIP_DISABLE_PIP_VERSION_CHECK=1 \\",
        "    PYTHONUNBUFFERED=1",
        "",
        "RUN apt-get update \\",
        f"    && apt-get install -y --no-install-recommends {' '.join(_SYSTEM_PACKAGES)} \\",
        "    && rm -rf /var/lib/apt/lists/*",
        "",
        f"RUN pip install --no-cache-dir {' '.join(_EXECUTION_TOOLCHAIN)}",
        "",
        f"COPY {SYNTHESIZED_MANIFEST_NAME} {MANIFEST_IMAGE_PATH}",
    ]
    if spec.requirements:
        lines.append(f"RUN pip install --no-cache-dir -r {MANIFEST_IMAGE_PATH}")
    lines += [
        "",
        "COPY . /workspace",
        "WORKDIR /workspace",
        "",
        'CMD ["python", "--version"]',
    ]
    return BuildRecipe(
        dockerfile_text="\n".join(lines) + "\n",
        context_dir=Path(context_dir),
        manifest_text=spec.synthesized_manifest,
    )


def write_recipe(recipe: BuildRecipe, dockerfile_path: Path) -> Path:
    """Materialize the manifest into the build context and the Dockerfile
    next to it (the Dockerfile itself stays outside the tree)."""
    manifest_path = recipe.context_dir / recipe.manifest_name
    atomic.write_text(manifest_path, recipe.manifest_text)
    atomic.write_text(dockerfile_path, recipe.dockerfile_text)
    return dockerfile_path


def cleanup_previous(repository_id: str, docker: DockerCli) -> None:
    """Remove every container and image tagged for this repository.

    Idempotent: a second call finds nothing and is a no-op. An unreachable
    runtime raises from the container listing, which callers record as a
    failed build.
    """
    for container in docker.list_containers(f"{REPOSITORY_LABEL}={repository_id}"):
        logger.info("removing stale container %s", container)
        docker.remove_container(container)
    for image in docker.list_images(image_repository_for(repository_id)):
        logger.info("removing stale image %s", image)
        docker.remove_image(image)


def build_image(tag: str, dockerfile_path: Path, context_dir: Path,
                docker: DockerCli, *,
                timeout: float = DEFAULT_BUILD_TIMEOUT,
                log_path: Path) -> str | BuildFailure:
    """Build a written recipe as is; returns the tag, or a classified
    BuildFailure.

    The build log, persisted for every attempt, success or failure, holds
    the argv that ran, its exit status and its output, a timed-out build's
    output up to the kill included.
    """
    result = docker.build(tag, dockerfile_path, context_dir, timeout=timeout)
    atomic.write_text(log_path, result.log_text())

    output = f"{result.stdout}\n{result.stderr}"
    if result.timed_out:
        return BuildFailure(BuildPhase.TIMEOUT,
                            _last_line(output) or f"build exceeded {timeout}s")
    if result.returncode == 0:
        return tag
    return BuildFailure(_classify_build_failure(output), _last_line(output))


def _classify_build_failure(log_text: str) -> BuildPhase:
    if _BASE_IMAGE_FAILURE_RE.search(log_text):
        return BuildPhase.BASE_IMAGE
    if _PIP_FAILURE_RE.search(log_text):
        return BuildPhase.DEPENDENCY_INSTALL
    return BuildPhase.OTHER


def _last_line(output: str) -> str:
    """The build output's last non-blank line, or an empty string."""
    return next((line for line in reversed(output.splitlines()) if line.strip()), "")
