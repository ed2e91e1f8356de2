"""Recipe generation determinism, clean-room cleanup, and build-failure
classification, through the shipped client over the stub runtime."""

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
from nbrepro.executor import _nbconvert_command
from nbrepro.store import Repository
from nbrepro.tool import ToolRun

from conftest import DAEMON_DOWN


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

def _leave_behind(docker, tmp_path, repository_id, container):
    """An image built for ``repository_id`` and a container of it that was
    never removed."""
    tag = image_tag_for(repository_id, "run1")
    docker.build(tag, tmp_path / "Dockerfile", tmp_path)
    docker.run_container(tag, ["true"], [
        "--name", container, "--label", f"{containerize.REPOSITORY_LABEL}={repository_id}"])


def test_cleanup_removes_tagged_state(runtime, tmp_path):
    docker = DockerCli()
    _leave_behind(docker, tmp_path, "abc123", "nbrepro-run1-nb1")
    _leave_behind(docker, tmp_path, "other", "unrelated")
    cleanup_previous("abc123", docker)
    assert runtime.images() == ["repro/other:run1"]
    assert runtime.containers() == ["unrelated"]


def test_cleanup_idempotent(runtime, tmp_path):
    docker = DockerCli()
    _leave_behind(docker, tmp_path, "abc123", "nbrepro-run1-nb1")
    cleanup_previous("abc123", docker)
    state = (runtime.images(), runtime.containers())
    cleanup_previous("abc123", docker)
    assert (runtime.images(), runtime.containers()) == state == ([], [])


def test_cleanup_unreachable_runtime_raises(runtime):
    runtime.answer("*", DAEMON_DOWN)
    with pytest.raises(ContainerRuntimeUnavailable):
        cleanup_previous("abc123", DockerCli())


# ---- build --------------------------------------------------------------------

def test_build_success_returns_tag_and_logs(runtime, tmp_path):
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path / "ctx")
    (tmp_path / "ctx").mkdir()
    log_path = tmp_path / "logs" / "build.log"
    dockerfile = write_recipe(recipe, tmp_path / "Dockerfile")
    tag = image_tag_for("fixturerepo0001", "run1")
    result = build_image(tag, dockerfile, recipe.context_dir, DockerCli(),
                         log_path=log_path)
    assert result == tag
    assert runtime.calls == [["build", "--no-cache", "-t", tag, "-f", str(dockerfile),
                              str(recipe.context_dir)]]
    assert runtime.images() == [tag]
    assert log_path.exists()


@pytest.mark.parametrize("stderr,phase", [
    ("ERROR: No matching distribution found for nonexistent-pkg-zzqj",
     BuildPhase.DEPENDENCY_INSTALL),
    ("ERROR: Could not find a version that satisfies the requirement xyz",
     BuildPhase.DEPENDENCY_INSTALL),
    ("manifest for python:9.99-slim not found: manifest unknown",
     BuildPhase.BASE_IMAGE),
    ("something exploded in COPY", BuildPhase.OTHER),
])
def test_build_failure_phases(runtime, tmp_path, stderr, phase):
    runtime.answer("build", ToolRun([], 1, "", stderr))
    (tmp_path / "ctx").mkdir()
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path / "ctx")
    result = build_image(image_tag_for("fixturerepo0001", "run1"),
                         tmp_path / "Dockerfile", recipe.context_dir, DockerCli(),
                         log_path=tmp_path / "build.log")
    assert isinstance(result, BuildFailure)
    assert result.phase is phase
    assert result.last_line == stderr
    assert (tmp_path / "build.log").exists()


def test_build_timeout_phase(runtime, tmp_path):
    runtime.answer("build", ToolRun([], -1, "", "", timed_out=True))
    (tmp_path / "ctx").mkdir()
    recipe = generate_build_recipe(_spec("numpy"), context_dir=tmp_path / "ctx")
    tag = image_tag_for("fixturerepo0001", "run1")
    result = build_image(tag, tmp_path / "Dockerfile", recipe.context_dir, DockerCli(),
                         timeout=5.0, log_path=tmp_path / "build.log")
    assert isinstance(result, BuildFailure)
    assert result.phase is BuildPhase.TIMEOUT
    assert result.last_line == "build exceeded 5.0s"
    assert (tmp_path / "build.log").read_text() == (
        f"$ docker build --no-cache -t {tag} -f {tmp_path / 'Dockerfile'} "
        f"{tmp_path / 'ctx'}\nexit=-1 timed_out=True\n"
        "--- stdout ---\n\n--- stderr ---\n\n")


def test_build_log_starts_with_the_argv_that_ran(tmp_path):
    executable = tmp_path / "runtime"
    executable.write_text("#!/bin/sh\n")
    executable.chmod(0o755)
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


def _down_unless(runtime, reachable: bool) -> None:
    """The version probe answers when the runtime is ``reachable``."""
    if not reachable:
        runtime.answer("version", DAEMON_DOWN)


@pytest.mark.parametrize("reachable", [True, False])
def test_failed_listing_is_checked_by_the_version_probe(runtime, reachable):
    runtime.answer("ps", ToolRun([], 1, "", ""))
    _down_unless(runtime, reachable)
    docker = DockerCli()
    if reachable:
        assert docker.list_containers("nbrepro.repository_id=abc123") == []
    else:
        with pytest.raises(ContainerRuntimeUnavailable, match="is not reachable"):
            docker.list_containers("nbrepro.repository_id=abc123")
    assert runtime.verbs == ["ps", "version"]


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


# The calls the pipeline makes for one notebook of repository abc123.
_TAG = image_tag_for("abc123", "run1")
_CONTAINER = "nbrepro-run1-nb1"
_RUN_ARGS = ["--name", _CONTAINER, "--workdir", "/workspace",
             "--label", f"{containerize.REPOSITORY_LABEL}=abc123"]
_COMMAND = _nbconvert_command("a.ipynb", "a.executed.ipynb", None)


def _verb_call(docker: DockerCli, verb: str, tmp_path):
    """The client call that issues ``verb``."""
    if verb == "build":
        return docker.build(_TAG, tmp_path / "Dockerfile", tmp_path)
    if verb == "run":
        return docker.run_container(_TAG, _COMMAND, _RUN_ARGS)
    return docker.copy_from_container(_CONTAINER, "/workspace/a.executed.ipynb",
                                      tmp_path / "a.ipynb")


@pytest.mark.parametrize("verb", ["build", "run", "cp"])
@pytest.mark.parametrize("reachable", [True, False])
def test_a_failed_runtime_call_is_checked_by_the_version_probe(runtime, tmp_path, verb,
                                                               reachable):
    runtime.answer(verb, ToolRun([], 1, "", ""))
    _down_unless(runtime, reachable)
    docker = DockerCli()
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
    assert runtime.verbs == [verb, "version"]


def test_a_runtime_call_that_succeeds_is_not_probed(runtime, tmp_path):
    runtime.plant("abc123", {"a.ipynb": b"{}"})
    docker = DockerCli()
    for verb in ("build", "run", "cp"):
        _verb_call(docker, verb, tmp_path)
    assert runtime.verbs == ["build", "run", "cp"]


@pytest.mark.parametrize("verb", ["ps", "images", "build", "run", "cp", "rm", "rmi"])
def test_an_executable_that_cannot_start_is_an_outage_at_every_verb(runtime, tmp_path,
                                                                    verb):
    calls = {"ps": lambda docker: docker.list_containers("nbrepro.repository_id=abc123"),
             "images": lambda docker: docker.list_images("repro/abc123"),
             "rm": lambda docker: docker.remove_container(_CONTAINER),
             "rmi": lambda docker: docker.remove_image(_TAG)}
    runtime.answer("*", OSError(2, "No such file or directory", "docker"))
    docker = DockerCli()
    with pytest.raises(ContainerRuntimeUnavailable,
                       match="container runtime 'docker' is not reachable"):
        calls.get(verb, lambda docker: _verb_call(docker, verb, tmp_path))(docker)
    # the verdict holds, and the probe still answers False
    with pytest.raises(ContainerRuntimeUnavailable):
        _verb_call(docker, "build", tmp_path)
    assert not docker.available()
    assert runtime.verbs == [verb, "version"]


def test_the_stub_answers_every_client_call_the_pipeline_makes(runtime, tmp_path):
    """Each public DockerCli method, with the arguments the pipeline passes,
    exits 0 against the stub runtime: a client change that the stub does not
    understand fails here."""
    runtime.plant("abc123", {"a.ipynb": b"{}"})
    docker = DockerCli()
    label = f"{containerize.REPOSITORY_LABEL}=abc123"
    assert docker.available()
    assert docker.build(_TAG, tmp_path / "Dockerfile", tmp_path).returncode == 0
    assert docker.list_images(containerize.image_repository_for("abc123")) == [_TAG]
    limits = ["--cpus", "1.5", "--memory", "2g"]
    assert docker.run_container(_TAG, _COMMAND, [*_RUN_ARGS, *limits]).returncode == 0
    assert docker.list_containers(label) == [_CONTAINER]
    assert docker.copy_from_container(_CONTAINER, "/workspace/a.executed.ipynb",
                                      tmp_path / "a.ipynb")
    docker.remove_container(_CONTAINER)
    docker.remove_image(_TAG)
    assert (runtime.images(), runtime.containers()) == ([], [])
    # every call exited 0, so none was probed
    assert runtime.verbs == ["version", "build", "images", "run", "ps", "cp", "rm", "rmi"]
