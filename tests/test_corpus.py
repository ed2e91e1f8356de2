"""Repository validation, acquisition, and notebook discovery against
local git fixtures."""

from __future__ import annotations

import json
import subprocess

import pytest

from nbrepro.corpus import (
    AcquisitionError,
    TransientNetworkError,
    ValidationResult,
    acquire_repository,
    discover_notebooks,
    find_manifest_paths,
    normalize_url,
    notebook_id_for,
    repository_id_for,
    validate_repository,
)
from conftest import (
    code_cell,
    make_git_repo,
    markdown_cell,
    notebook_bytes,
    requires_git,
)

pytestmark = requires_git


def _notebook_file(*cells, kernel="python3"):
    return notebook_bytes(list(cells), kernel_name=kernel).decode("utf-8")


# ---- identifiers ------------------------------------------------------------

def test_url_normalization_stabilizes_id():
    variants = [
        "https://GitHub.com/User/Proj",
        "https://github.com/User/Proj/",
        "https://github.com/User/Proj.git",
    ]
    ids = {repository_id_for(url) for url in variants}
    assert len(ids) == 1
    assert normalize_url(variants[0]) == "https://github.com/User/Proj"


def test_distinct_urls_distinct_ids():
    assert repository_id_for("https://example.org/a") != repository_id_for(
        "https://example.org/b")


def test_notebook_id_depends_on_repo_and_path():
    assert notebook_id_for("r1", "a.ipynb") != notebook_id_for("r1", "b.ipynb")
    assert notebook_id_for("r1", "a.ipynb") != notebook_id_for("r2", "a.ipynb")
    assert notebook_id_for("r1", "a.ipynb") == notebook_id_for("r1", "a.ipynb")


# ---- validate_repository -------------------------------------------------------

def test_malformed_inputs():
    assert validate_repository("not a url") is ValidationResult.MALFORMED
    assert validate_repository("ftp://example.org/x") is ValidationResult.MALFORMED
    assert validate_repository("https:///nohost") is ValidationResult.MALFORMED


def test_existing_local_repo_accessible(tmp_path):
    url = make_git_repo(tmp_path / "proj", {"README.md": "hi"})
    assert validate_repository(url) is ValidationResult.ACCESSIBLE


def test_missing_repo_removed_or_private(tmp_path):
    url = (tmp_path / "nothing-here").resolve().as_uri()
    assert validate_repository(url) is ValidationResult.REMOVED_OR_PRIVATE


# ---- acquire_repository ----------------------------------------------------------

def test_acquire_sets_requirements_probe(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "requirements.txt": "numpy\n",
        "nb.ipynb": _notebook_file(code_cell("print(1)")),
    })
    repo = acquire_repository(url, tmp_path / "work")
    assert repo.has_requirements_file
    assert repo.accessible
    assert "requirements.txt" in repo.manifest_paths
    # the row infer persists (tests/test_pipeline.py checks that it does)
    assert repo.repository_id == repository_id_for(url)
    assert repo.url == normalize_url(url)
    assert repo.local_path == str(tmp_path / "work" / repo.repository_id / "tree")
    assert repo.notebook_count == 0


def test_acquire_without_requirements(tmp_path):
    url = make_git_repo(tmp_path / "proj", {"main.py": "print(1)\n"})
    repo = acquire_repository(url, tmp_path / "work")
    assert not repo.has_requirements_file


def test_nested_manifests_all_recorded(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "env/requirements.txt": "a\n",
        "requirements.txt": "b\n",
        "setup.py": "from setuptools import setup\nsetup()\n",
    })
    repo = acquire_repository(url, tmp_path / "work")
    assert repo.manifest_paths == ("env/requirements.txt", "requirements.txt",
                                   "setup.py")


def test_same_url_same_repository_id(tmp_path):
    url = make_git_repo(tmp_path / "proj", {"x.py": ""})
    first = acquire_repository(url, tmp_path / "work")
    second = acquire_repository(url, tmp_path / "work")
    assert first.repository_id == second.repository_id
    # one repository row per URL is checked at infer level
    assert first == second


def test_probe_killed_by_a_signal_is_transient(monkeypatch):
    # A Ctrl-C reaches git too; its exit by SIGINT is not an answer.
    monkeypatch.setattr(subprocess, "run", lambda argv, **kwargs:
                        subprocess.CompletedProcess(argv, -2, "", ""))
    with pytest.raises(TransientNetworkError, match="killed by signal 2"):
        validate_repository("https://example.org/owner/repo.git")


def test_acquire_failure_raises_transient(tmp_path):
    with pytest.raises(AcquisitionError):
        acquire_repository((tmp_path / "missing").resolve().as_uri(),
                           tmp_path / "work")


# ---- discover_notebooks -----------------------------------------------------------

def test_discovery_order_and_persistence(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "a.ipynb": _notebook_file(code_cell("1")),
        "sub/b.ipynb": _notebook_file(code_cell("2")),
    })
    repo = acquire_repository(url, tmp_path / "work")
    descriptors, _, _ = discover_notebooks(repo)
    assert [d.relative_path for d in descriptors] == ["a.ipynb", "sub/b.ipynb"]
    # infer persists these descriptors and their count (tests/test_pipeline.py)
    assert [d.notebook_id for d in descriptors] == [
        notebook_id_for(repo.repository_id, d.relative_path) for d in descriptors]
    assert {d.repository_id for d in descriptors} == {repo.repository_id}


def test_tree_without_notebooks(tmp_path):
    url = make_git_repo(tmp_path / "proj", {"only.py": "pass\n"})
    repo = acquire_repository(url, tmp_path / "work")
    # the persisted notebook_count of 0 is checked at infer level
    assert discover_notebooks(repo) == ([], set(), [])


def test_non_default_kernel_carried_verbatim(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "r_analysis.ipynb": _notebook_file(code_cell("plot(1)"), kernel="ir42"),
    })
    repo = acquire_repository(url, tmp_path / "work")
    (descriptor,), _, _ = discover_notebooks(repo)
    assert descriptor.kernel_name == "ir42"
    assert descriptor.nbformat_version == (4, 5)


def test_unreadable_notebook_recorded_not_skipped(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "broken.ipynb": "{not json",
        "fine.ipynb": _notebook_file(code_cell("import yaml")),
    })
    repo = acquire_repository(url, tmp_path / "work")
    descriptors, imported, _ = discover_notebooks(repo)
    assert [d.relative_path for d in descriptors] == ["broken.ipynb", "fine.ipynb"]
    assert imported == {"yaml"}
    broken = descriptors[0]
    assert broken.parse_failed
    assert broken.parse_error
    assert not descriptors[1].parse_failed


def test_rediscovery_is_deterministic(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "z.ipynb": _notebook_file(code_cell("print('z')"), markdown_cell("m")),
        "a/n.ipynb": _notebook_file(code_cell("import random\nrandom.random()")),
    })
    repo = acquire_repository(url, tmp_path / "work")
    first = discover_notebooks(repo)
    second = discover_notebooks(repo)
    # stable notebook rows across infer invocations: tests/test_pipeline.py
    assert first == second


def test_pattern_scan_recorded_on_descriptor(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "nd.ipynb": _notebook_file(code_cell("import time\nt = time.time()"),
                                   code_cell("print('stable')")),
    })
    repo = acquire_repository(url, tmp_path / "work")
    (descriptor,), _, _ = discover_notebooks(repo)
    assert descriptor.nondeterministic_pattern_cells == 1
    assert descriptor.code_cell_count == 2


def test_pattern_cells_counted_at_discovery(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "nd.ipynb": _notebook_file(code_cell("import random\nrandom.random()"),
                                   code_cell("print('hi')"),
                                   markdown_cell("random.random() in prose"),
                                   code_cell("t = time.time()")),
    })
    repo = acquire_repository(url, tmp_path / "work")
    (descriptor,), _, _ = discover_notebooks(repo)
    assert descriptor.nondeterministic_pattern_cells == 2


def test_discovery_collects_imports_and_installs_in_path_then_cell_order(tmp_path):
    url = make_git_repo(tmp_path / "proj", {
        "b.ipynb": _notebook_file(code_cell("!pip install rich\nimport yaml")),
        "a.ipynb": _notebook_file(code_cell("%pip install attrs==23.1"),
                                  markdown_cell("import prose\n!pip install no"),
                                  code_cell("import numpy as np\n!pip install tqdm")),
    })
    repo = acquire_repository(url, tmp_path / "work")
    _, imported, magic = discover_notebooks(repo)
    assert imported == {"numpy", "yaml"}
    assert [(r.distribution_name, r.version_constraint) for r in magic] == [
        ("attrs", "==23.1"), ("tqdm", None), ("rich", None)]


def test_find_manifest_paths_ignores_git_dir(tmp_path):
    (tmp_path / ".git" / "sub").mkdir(parents=True)
    (tmp_path / ".git" / "sub" / "requirements.txt").write_text("x\n")
    (tmp_path / "requirements.txt").write_text("y\n")
    assert find_manifest_paths(tmp_path) == ["requirements.txt"]


def test_symlinks_out_of_the_clone_are_never_read(tmp_path, caplog):
    host = tmp_path / "host"
    host.mkdir()
    (host / "hostfile.txt").write_text("host-only-secret-pkg\n")
    (host / "host.ipynb").write_text(
        _notebook_file(code_cell("import host_only_module")))
    url = make_git_repo(tmp_path / "proj", {
        "nb.ipynb": _notebook_file(code_cell("import numpy")),
        "env/setup.py": "from setuptools import setup\nsetup()\n",
    }, links={
        "requirements.txt": str(host / "hostfile.txt"),
        "leak.ipynb": str(host / "host.ipynb"),
        # Links that stay inside the tree are still followed.
        "alias.ipynb": "nb.ipynb",
        "setup.py": "env/setup.py",
    })
    with caplog.at_level("WARNING", logger="nbrepro.corpus"):
        repo = acquire_repository(url, tmp_path / "work")
        descriptors, imported, _ = discover_notebooks(repo)

    assert repo.manifest_paths == ("env/setup.py", "setup.py")
    assert not repo.has_requirements_file
    assert [d.relative_path for d in descriptors] == ["alias.ipynb", "nb.ipynb"]
    assert imported == {"numpy"}
    assert "skipping requirements.txt" in caplog.text
    assert "skipping leak.ipynb" in caplog.text
