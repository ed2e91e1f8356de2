"""Recipe generation determinism, clean-room cleanup, and build-failure
classification (fake runtime)."""

from __future__ import annotations

import pytest

from nbrepro import containerize
from nbrepro.containerize import (
    BuildFailure,
    BuildPhase,
    ContainerRuntimeUnavailable,
    DockerCli,
    build_image,
    cleanup_previous,
    generate_build_recipe,
    image_tag_for,
    write_recipe,
)
from nbrepro.depinfer import (
    PackageRequirement,
    RequirementOrigin,
    synthesize_dependency_spec,
)
from nbrepro.store import Repository
from nbrepro.tool import ToolRun

from conftest import FakeCompleted, FakeDocker, logging_runtime


def _spec(*names, repo_id="fixturerepo0001", verbatim_lines=()):
    requirements = tuple(
        PackageRequirement(name, RequirementOrigin.DECLARED_REQUIREMENTS)
        for name in names
    ) + tuple(
        PackageRequirement(line, RequirementOrigin.DECLARED_REQUIREMENTS,
                           verbatim=line)
        for line in verbatim_lines
    )
    from nbrepro.depinfer import DependencySpec
    manifest = "".join(r.manifest_line() + "\n" for r in requirements)
    return DependencySpec(repository_id=repo_id, requirements=requirements,
                          synthesized_manifest=manifest)


def test_recipe_pins_base_and_references_manifest(tmp_path):
    recipe = generate_build_recipe(_spec("numpy", "pandas"), context_dir=tmp_path)
    text = recipe.dockerfile_text
    assert text.startswith("FROM python:3.10-slim\n")
    assert "COPY requirements.synthesized.txt" in text
    assert "pip install --no-cache-dir -r /opt/nbrepro/requirements.synthesized.txt" in text
    assert "nbconvert" in text and "ipykernel" in text
    assert "COPY . /workspace" in text
    assert "WORKDIR /workspace" in text


def test_recipe_byte_identical_across_invocations(tmp_path):
    spec = _spec("numpy", "pandas")
    texts = {generate_build_recipe(spec, context_dir=tmp_path).dockerfile_text
             for _ in range(100)}
    assert len(texts) == 1


def test_empty_spec_recipe_has_toolchain_only(tmp_path):
    recipe = generate_build_recipe(_spec(), context_dir=tmp_path)
    assert "pip install --no-cache-dir -r" not in recipe.dockerfile_text
    assert "nbconvert" in recipe.dockerfile_text


def test_opaque_vcs_line_passes_through(tmp_path):
    line = "git+https://github.com/user/proj.git#egg=proj"
    recipe = generate_build_recipe(_spec(verbatim_lines=[line]), context_dir=tmp_path)
    assert line in recipe.manifest_text
    written = write_recipe(recipe, tmp_path / "Dockerfile")
    assert (tmp_path / "requirements.synthesized.txt").read_text() == recipe.manifest_text
    assert written.read_text() == recipe.dockerfile_text


def test_image_tag_unique_per_repo_and_run():
    assert image_tag_for("r1", "runA") != image_tag_for("r1", "runB")
    assert image_tag_for("r1", "runA") != image_tag_for("r2", "runA")


def test_base_image_override(tmp_path):
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path,
                                   base_image="python:3.11-slim")
    assert recipe.dockerfile_text.startswith("FROM python:3.11-slim\n")


def test_recipe_text_is_pure_function_of_spec(tmp_path):
    # Same spec from a fresh synthesis path must give identical bytes.
    repo = Repository(repository_id="fixturerepo0001", url="file:///x",
                      local_path=str(tmp_path), accessible=True)
    spec_a = synthesize_dependency_spec(repo, {"requests"})
    spec_b = synthesize_dependency_spec(repo, {"requests"})
    text_a = generate_build_recipe(spec_a, context_dir=tmp_path).dockerfile_text
    text_b = generate_build_recipe(spec_b, context_dir=tmp_path).dockerfile_text
    assert text_a == text_b


# ---- cleanup ------------------------------------------------------------------

def test_cleanup_removes_tagged_state():
    docker = FakeDocker()
    docker.images.add("repro/abc123:run1")
    docker.images.add("repro/other:run1")
    docker.containers["nbrepro-run1-nb1"] = "abc123"
    docker.containers["unrelated"] = "zzz"
    cleanup_previous("abc123", docker)
    assert "repro/abc123:run1" not in docker.images
    assert "repro/other:run1" in docker.images
    assert "nbrepro-run1-nb1" not in docker.containers
    assert "unrelated" in docker.containers


def test_cleanup_idempotent():
    docker = FakeDocker()
    docker.images.add("repro/abc123:run1")
    cleanup_previous("abc123", docker)
    state = (set(docker.images), dict(docker.containers))
    cleanup_previous("abc123", docker)
    assert (set(docker.images), dict(docker.containers)) == state


def test_cleanup_unreachable_runtime_raises():
    docker = FakeDocker(available=False)
    with pytest.raises(ContainerRuntimeUnavailable):
        cleanup_previous("abc123", docker)


# ---- build --------------------------------------------------------------------

def test_build_success_returns_tag_and_logs(tmp_path):
    docker = FakeDocker()
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path / "ctx")
    (tmp_path / "ctx").mkdir()
    log_path = tmp_path / "logs" / "build.log"
    dockerfile = write_recipe(recipe, tmp_path / "Dockerfile")
    tag = image_tag_for("fixturerepo0001", "run1")
    result = build_image(tag, dockerfile, recipe.context_dir, docker,
                         log_path=log_path)
    assert result == tag
    assert ("build", tag) in docker.calls
    assert log_path.exists()


class _FailingDocker(FakeDocker):
    def __init__(self, stderr, returncode=1, timed_out=False):
        super().__init__()
        self._stderr = stderr
        self._returncode = returncode
        self._timed_out = timed_out

    def build(self, tag, dockerfile, context, timeout=None):
        if self._timed_out:
            return ToolRun(["docker", "build", "--no-cache"], -1, "", "",
                           timed_out=True)
        return FakeCompleted(self._returncode, stderr=self._stderr)


@pytest.mark.parametrize("stderr,phase", [
    ("ERROR: No matching distribution found for nonexistent-pkg-zzqj",
     BuildPhase.DEPENDENCY_INSTALL),
    ("ERROR: Could not find a version that satisfies the requirement xyz",
     BuildPhase.DEPENDENCY_INSTALL),
    ("manifest for python:9.99-slim not found: manifest unknown",
     BuildPhase.BASE_IMAGE),
    ("something exploded in COPY", BuildPhase.OTHER),
])
def test_build_failure_phases(tmp_path, stderr, phase):
    docker = _FailingDocker(stderr)
    (tmp_path / "ctx").mkdir()
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path / "ctx")
    result = build_image(image_tag_for("fixturerepo0001", "run1"),
                         tmp_path / "Dockerfile", recipe.context_dir, docker,
                         log_path=tmp_path / "build.log")
    assert isinstance(result, BuildFailure)
    assert result.phase is phase
    assert result.last_line == stderr
    assert (tmp_path / "build.log").exists()


def test_build_timeout_phase(tmp_path):
    docker = _FailingDocker("", timed_out=True)
    (tmp_path / "ctx").mkdir()
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path / "ctx")
    result = build_image(image_tag_for("fixturerepo0001", "run1"),
                         tmp_path / "Dockerfile", recipe.context_dir, docker,
                         timeout=5.0, log_path=tmp_path / "build.log")
    assert isinstance(result, BuildFailure)
    assert result.phase is BuildPhase.TIMEOUT
    assert result.last_line == "build exceeded 5.0s"
    assert (tmp_path / "build.log").read_text() == (
        "$ docker build --no-cache\nexit=-1 timed_out=True\n"
        "--- stdout ---\n\n--- stderr ---\n\n")


def test_build_log_starts_with_the_argv_that_ran(tmp_path):
    executable, _ = logging_runtime(tmp_path)
    (tmp_path / "ctx").mkdir()
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path / "ctx")
    dockerfile = write_recipe(recipe, tmp_path / "Dockerfile")
    tag = image_tag_for("fixturerepo0001", "run1")
    log_path = tmp_path / "build.log"
    assert build_image(tag, dockerfile, recipe.context_dir, DockerCli(str(executable)),
                       log_path=log_path) == tag
    first_line = log_path.read_text().splitlines()[0]
    assert first_line == f"$ {executable} build --no-cache -t {tag} -f {dockerfile} {tmp_path / 'ctx'}"


def test_real_cli_wrapper_reports_unavailable_for_bogus_executable():
    docker = DockerCli(executable="definitely-not-a-container-runtime")
    assert not docker.available()
    with pytest.raises(ContainerRuntimeUnavailable, match=(
            "container runtime 'definitely-not-a-container-runtime' "
            "is not reachable")):
        cleanup_previous("abc123", docker)


@pytest.mark.parametrize("reachable", [True, False])
def test_failed_listing_is_checked_by_the_version_probe(tmp_path, reachable):
    executable, calls = logging_runtime(
        tmp_path, {"ps": 1, "version": 0 if reachable else 1})
    docker = DockerCli(str(executable))
    if reachable:
        assert docker.list_containers("nbrepro.repository_id=abc123") == []
    else:
        with pytest.raises(ContainerRuntimeUnavailable, match="is not reachable"):
            docker.list_containers("nbrepro.repository_id=abc123")
    assert calls.read_text().split() == ["ps", "version"]


def test_listing_that_hits_its_bound_means_unreachable(tmp_path, monkeypatch):
    # A hung daemon may still answer the version probe; it is not asked.
    runtime = tmp_path / "runtime"
    runtime.write_text(f'#!/bin/sh\necho "$1" >> "{tmp_path / "calls"}"\n'
                       'if [ "$1" = ps ]; then exec sleep 5; fi\n')
    runtime.chmod(0o755)
    monkeypatch.setattr(containerize, "QUICK_CALL_TIMEOUT", 0.3)
    with pytest.raises(ContainerRuntimeUnavailable, match="is not reachable"):
        DockerCli(str(runtime)).list_containers("nbrepro.repository_id=abc123")
    assert (tmp_path / "calls").read_text().split() == ["ps"]


def _verb_call(docker: DockerCli, verb: str, tmp_path):
    """The client call that issues ``verb``."""
    if verb == "build":
        return docker.build("repro/abc123:run1", tmp_path / "Dockerfile", tmp_path)
    if verb == "run":
        return docker.run_container("repro/abc123:run1", ["true"], [])
    return docker.copy_from_container("c1", "/workspace/a.ipynb", tmp_path / "a.ipynb")


@pytest.mark.parametrize("verb", ["build", "run", "cp"])
@pytest.mark.parametrize("reachable", [True, False])
def test_a_failed_runtime_call_is_checked_by_the_version_probe(tmp_path, verb,
                                                               reachable):
    executable, calls = logging_runtime(
        tmp_path, {verb: 1, "version": 0 if reachable else 1})
    docker = DockerCli(str(executable))
    if reachable:
        # an answer: the failure is the call's own verdict
        answer = _verb_call(docker, verb, tmp_path)
        assert (answer is False) if verb == "cp" else (answer.returncode == 1)
    else:
        with pytest.raises(ContainerRuntimeUnavailable, match="is not reachable"):
            _verb_call(docker, verb, tmp_path)
        # the verdict holds: later calls raise at once, without a runtime call
        for later in ("build", "run", "cp"):
            with pytest.raises(ContainerRuntimeUnavailable):
                _verb_call(docker, later, tmp_path)
        with pytest.raises(ContainerRuntimeUnavailable):
            docker.list_containers("nbrepro.repository_id=abc123")
    assert calls.read_text().split() == [verb, "version"]


def test_a_runtime_call_that_succeeds_is_not_probed(tmp_path):
    executable, calls = logging_runtime(tmp_path)
    docker = DockerCli(str(executable))
    for verb in ("build", "run", "cp"):
        _verb_call(docker, verb, tmp_path)
    assert calls.read_text().split() == ["build", "run", "cp"]
