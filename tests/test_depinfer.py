"""Manifest parsing, static import extraction, and dependency synthesis."""

from __future__ import annotations

import importlib.metadata
import json
import logging
import random
import sysconfig
from pathlib import Path

import pytest

from nbrepro.depinfer import (
    DependencySpec,
    PackageRequirement,
    _parse_imports,
    RequirementOrigin,
    extract_imports,
    extract_magic_installs,
    filter_standard_library,
    find_internal_module_names,
    load_alias_table,
    load_stdlib_modules,
    map_import_to_distribution,
    normalize_distribution_name,
    parse_requirements_manifest,
    parse_setup_manifest,
    synthesize_dependency_spec,
)
from nbrepro.notebook import parse_notebook
from nbrepro.store import Repository

from conftest import FIXTURES
from test_compare import _TOP_LEVEL_DEFINITION_RE, _fixture_cell_sources


# ---- requirements manifest -----------------------------------------------------

def test_basic_lines_with_comment():
    reqs = parse_requirements_manifest("numpy==1.21.0\n# comment\npandas>=1.0")
    assert [(r.distribution_name, r.version_constraint) for r in reqs] == [
        ("numpy", "==1.21.0"), ("pandas", ">=1.0")]
    assert all(r.origin is RequirementOrigin.DECLARED_REQUIREMENTS for r in reqs)


def test_empty_manifest():
    assert parse_requirements_manifest("") == []


def test_option_lines_skipped_with_warning(caplog):
    # Per the requirements-file grammar, lines starting with "-" (other than
    # editable installs) are pip options, not requirements.
    with caplog.at_level(logging.WARNING, logger="nbrepro.depinfer"):
        reqs = parse_requirements_manifest(
            "-r other.txt\n--index-url https://example.org/simple\nflask")
    assert [r.distribution_name for r in reqs] == ["flask"]
    assert sum("option" in rec.message for rec in caplog.records) == 2


def test_vcs_and_editable_lines_opaque():
    text = ("git+https://github.com/user/proj.git#egg=proj\n"
            "-e ./local/pkg\n"
            "https://example.org/wheel/pkg-1.0-py3-none-any.whl")
    reqs = parse_requirements_manifest(text)
    assert [r.verbatim for r in reqs] == text.splitlines()
    assert reqs[0].distribution_name == "proj"


def test_inline_comments_and_case_normalization():
    reqs = parse_requirements_manifest("Django>=3.2  # web framework\nPyYAML")
    assert [(r.distribution_name, r.version_constraint) for r in reqs] == [
        ("django", ">=3.2"), ("pyyaml", None)]


def test_extras_and_markers_preserved_in_constraint():
    (req,) = parse_requirements_manifest("requests[security]>=2.0 ; python_version > '3'")
    assert req.distribution_name == "requests"
    assert req.manifest_line().startswith("requests[security]>=2.0")


def test_unparseable_line_warns_not_fatal(caplog):
    with caplog.at_level(logging.WARNING, logger="nbrepro.depinfer"):
        reqs = parse_requirements_manifest("???bogus???\nnumpy")
    assert [r.distribution_name for r in reqs] == ["numpy"]
    assert any("unparseable" in rec.message for rec in caplog.records)


# ---- setup manifest --------------------------------------------------------------

def test_setup_literal_install_requires():
    text = 'from setuptools import setup\nsetup(name="x", install_requires=["scipy", "requests>=2"])\n'
    reqs = parse_setup_manifest(text)
    assert [(r.distribution_name, r.version_constraint) for r in reqs] == [
        ("scipy", None), ("requests", ">=2")]
    assert all(r.origin is RequirementOrigin.DECLARED_SETUP for r in reqs)


def test_setup_without_install_requires():
    assert parse_setup_manifest("from setuptools import setup\nsetup(name='x')\n") == []


def test_setup_name_indirection_resolved():
    text = ("REQS = ['numpy', 'pandas==1.5']\n"
            "from setuptools import setup\n"
            "setup(install_requires=REQS)\n")
    assert [r.distribution_name for r in parse_setup_manifest(text)] == [
        "numpy", "pandas"]


def test_setup_dynamic_list_warns_empty(caplog):
    text = ("base = ['numpy']\n"
            "from setuptools import setup\n"
            "setup(install_requires=base + ['extra'])\n")
    with caplog.at_level(logging.WARNING, logger="nbrepro.depinfer"):
        assert parse_setup_manifest(text) == []
    assert any("dynamic setup manifest" in rec.message for rec in caplog.records)


def test_setup_python2_syntax_warns_empty(caplog):
    with caplog.at_level(logging.WARNING, logger="nbrepro.depinfer"):
        assert parse_setup_manifest("print 'hello'\n") == []


# ---- import extraction --------------------------------------------------------------

def test_import_forms():
    source = ("import numpy as np\n"
              "from sklearn.model_selection import train_test_split\n"
              "import a.b.c\n"
              "import x, y as z\n")
    assert extract_imports(source) == {"numpy", "sklearn", "a", "x", "y"}


def test_imports_in_comments_and_strings_ignored():
    assert extract_imports("# import fake\ns = 'import nope'") == set()


def test_relative_imports_excluded():
    assert extract_imports("from . import helpers\nfrom .mod import f") == set()


def test_magic_and_shell_lines_tolerated():
    assert extract_imports("%matplotlib inline\n!ls\nimport yaml") == {"yaml"}


def test_broken_cell_falls_back_to_line_scan():
    assert extract_imports("import pandas\ndef broken(:\n    pass") == {"pandas"}


def test_import_corpus_matches_hand_labels():
    corpus = FIXTURES / "import_corpus"
    labels = json.loads((corpus / "labels.json").read_text("utf-8"))
    assert len(labels) == 30
    stdlib = load_stdlib_modules()
    for name, expected in labels.items():
        nb = parse_notebook((corpus / name).read_bytes())
        found: set[str] = set()
        for cell in nb.cells:
            if cell.kind.value == "code":
                found |= extract_imports(cell.source)
        assert sorted(filter_standard_library(found, stdlib)) == expected, name


def test_extract_imports_order_insensitive_and_idempotent():
    sources = ["import numpy", "from sklearn import svm", "import os, requests",
               "# nothing", "import numpy.linalg"]
    rng = random.Random(7)
    baseline = set().union(*(extract_imports(s) for s in sources))
    for _ in range(20):
        shuffled = sources[:]
        rng.shuffle(shuffled)
        union = set().union(*(extract_imports(s) for s in shuffled))
        assert union == baseline
    assert extract_imports("import numpy") == extract_imports("import numpy")


def _stdlib_sample_sources():
    """Every fourth top-level module of the running interpreter's stdlib,
    cut before each top-level definition and into five-line chunks, most
    of which do not parse."""
    for module in sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))[::4]:
        text = module.read_text("utf-8", errors="replace")
        yield from _TOP_LEVEL_DEFINITION_RE.split(text)
        lines = text.split("\n")
        yield from ("\n".join(lines[i:i + 5]) for i in range(0, len(lines), 5))


def test_cells_without_the_import_keyword_are_not_parsed():
    # extract_imports skips the parse and the line scan where the keyword
    # is absent; both must find nothing there.
    skipped = parsed = 0
    for source in [*_fixture_cell_sources(), *_stdlib_sample_sources()]:
        if "import" in source:
            parsed += 1
            continue
        assert _parse_imports(source) == set(), source[:200]
        assert extract_imports(source) == set()
        skipped += 1
    assert skipped > 1000 and parsed > 100


# ---- stdlib filtering ------------------------------------------------------------------

def test_stdlib_filter_examples():
    assert filter_standard_library({"os", "sys", "json", "numpy"}) == {"numpy"}
    assert filter_standard_library(set()) == set()
    assert filter_standard_library({"collections", "itertools"}) == set()


def test_stdlib_list_plausible():
    stdlib = load_stdlib_modules()
    assert {"os", "sys", "json", "asyncio", "tokenize", "__future__"} <= stdlib
    assert "numpy" not in stdlib


# ---- import -> distribution mapping ------------------------------------------------------

def test_alias_examples():
    assert map_import_to_distribution("sklearn") == "scikit-learn"
    assert map_import_to_distribution("cv2") == "opencv-python"
    assert map_import_to_distribution("numpy") == "numpy"


def test_alias_table_agrees_with_installed_distributions():
    # Independent oracle: for import names actually present in this
    # environment, the installed distribution must match the alias table
    # (up to name normalization and known -headless/-binary variants).
    table = load_alias_table()
    installed = importlib.metadata.packages_distributions()
    checked = 0
    for import_name, mapped in table.items():
        dists = installed.get(import_name)
        if not dists:
            continue
        normalized = {normalize_distribution_name(d) for d in dists}
        want = normalize_distribution_name(mapped)
        variants = {want, f"{want}-headless", f"{want}-binary",
                    want.removesuffix("-headless").removesuffix("-binary")}
        assert normalized & variants, (import_name, mapped, dists)
        checked += 1
    assert checked >= 1


def test_alias_table_user_extension(tmp_path):
    extra = tmp_path / "aliases.json"
    extra.write_text(json.dumps({"mymod": "my-dist", "sklearn": "overridden"}))
    table = load_alias_table(extra)
    assert table["mymod"] == "my-dist"
    assert table["sklearn"] == "overridden"


# ---- magic installs ------------------------------------------------------------------------

def test_magic_install_lines():
    source = ("!pip install packaging==21.0\n"
              "%pip install tqdm --quiet\n"
              "! pip3 install rich\n"
              "print('not: pip install nothing')")
    reqs = extract_magic_installs(source)
    assert [(r.distribution_name, r.version_constraint) for r in reqs] == [
        ("packaging", "==21.0"), ("tqdm", None), ("rich", None)]


def test_magic_install_option_values_are_not_requirements():
    source = ("!pip install -r requirements.txt\n"
              "%pip install -c constraints.txt --index-url https://example.org/simple tqdm\n"
              "!pip install --target=/opt/lib -t vendor --requirement=reqs.txt rich\n"
              "!pip install -U --find-links wheels -e . packaging==21.0")
    reqs = extract_magic_installs(source)
    assert [(r.distribution_name, r.version_constraint) for r in reqs] == [
        ("tqdm", None), ("rich", None), ("packaging", "==21.0")]


@pytest.mark.parametrize("line, expected", [
    ("!pip install numpy  # for arrays", [("numpy", None)]),
    ('!pip install "numpy>=1.2" pandas', [("numpy", ">=1.2"), ("pandas", None)]),
    ("%pip install 'scikit-learn==1.0'", [("scikit-learn", "==1.0")]),
])
def test_magic_install_lines_are_split_as_the_shell_splits_them(line, expected):
    reqs = extract_magic_installs(line)
    assert [(r.distribution_name, r.version_constraint) for r in reqs] == expected


# ---- synthesis --------------------------------------------------------------------------------

def _repo(tmp_path, manifest_paths=()):
    return Repository(repository_id="fixturerepo0001", url="file:///fixture",
                      local_path=str(tmp_path), accessible=True,
                      manifest_paths=tuple(manifest_paths))


def _imports(*cell_sources):
    """The imported names discovery collects from these code cells."""
    return set().union(*(extract_imports(source) for source in cell_sources))


def test_declared_wins_name_collision(tmp_path):
    (tmp_path / "requirements.txt").write_text("numpy==1.21\n")
    spec = synthesize_dependency_spec(
        _repo(tmp_path, ["requirements.txt"]),
        _imports("import numpy\nimport pandas"))
    by_name = {r.distribution_name: r for r in spec.requirements}
    assert by_name["numpy"].version_constraint == "==1.21"
    assert by_name["numpy"].origin is RequirementOrigin.DECLARED_REQUIREMENTS
    assert by_name["pandas"].origin is RequirementOrigin.INFERRED_IMPORT
    assert spec.synthesized_manifest == "numpy==1.21\npandas\n"


def test_no_manifest_inferred_only(tmp_path):
    spec = synthesize_dependency_spec(_repo(tmp_path), _imports("import requests"))
    assert [r.distribution_name for r in spec.requirements] == ["requests"]
    assert spec.requirements[0].origin is RequirementOrigin.INFERRED_IMPORT


def test_no_thirdparty_imports_empty_spec(tmp_path):
    spec = synthesize_dependency_spec(_repo(tmp_path), _imports("import os\nimport json"))
    assert spec.requirements == ()
    assert spec.synthesized_manifest == ""


def test_repo_internal_modules_excluded(tmp_path):
    (tmp_path / "helpers.py").write_text("x = 1\n")
    (tmp_path / "mypkg").mkdir()
    (tmp_path / "nbdir").mkdir()
    (tmp_path / "nbdir" / "sibling.py").write_text("y = 2\n")
    spec = synthesize_dependency_spec(
        _repo(tmp_path),
        _imports("import helpers\nimport mypkg\nimport sibling\nimport requests"),
        notebook_paths=["nbdir/analysis.ipynb"])
    assert [r.distribution_name for r in spec.requirements] == ["requests"]


def test_magic_installs_toggle(tmp_path):
    source = "!pip install rich\nprint(1)"
    on = synthesize_dependency_spec(_repo(tmp_path), _imports(source),
                                    extract_magic_installs(source))
    off = synthesize_dependency_spec(_repo(tmp_path), _imports(source))
    assert [r.distribution_name for r in on.requirements] == ["rich"]
    assert off.requirements == ()


def test_lexicographically_first_manifest_authoritative(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "requirements.txt").write_text("alpha==1\n")
    (tmp_path / "b" / "requirements.txt").write_text("beta==2\n")
    spec = synthesize_dependency_spec(
        _repo(tmp_path, ["a/requirements.txt", "b/requirements.txt"]), [])
    assert [r.distribution_name for r in spec.requirements] == ["alpha"]


def test_root_manifest_beats_a_nested_one(tmp_path, caplog):
    (tmp_path / "docs").mkdir()
    (tmp_path / "requirements.txt").write_text("numpy==1.21\n")
    (tmp_path / "docs" / "requirements.txt").write_text("sphinx\n")
    (tmp_path / "setup.py").write_text('setup(install_requires=["scipy"])\n')
    (tmp_path / "docs" / "setup.py").write_text('setup(install_requires=["furo"])\n')
    caplog.set_level(logging.INFO, logger="nbrepro.depinfer")
    spec = synthesize_dependency_spec(_repo(tmp_path, [
        "docs/requirements.txt", "docs/setup.py", "requirements.txt", "setup.py"]), [])
    assert spec.synthesized_manifest == "numpy==1.21\nscipy\n"
    assert any("using requirements.txt (also saw docs/requirements.txt)"
               in r.getMessage() for r in caplog.records)


def test_synthesis_deterministic_and_sorted(tmp_path):
    (tmp_path / "requirements.txt").write_text("zeta\nalpha==2\n")
    repo = _repo(tmp_path, ["requirements.txt"])
    imported = _imports("import yaml\nimport bs4")
    first = synthesize_dependency_spec(repo, imported)
    second = synthesize_dependency_spec(repo, imported)
    assert first.synthesized_manifest == second.synthesized_manifest
    names = [r.distribution_name for r in first.requirements]
    assert names == sorted(names)
    assert first.synthesized_manifest.endswith("\n")


def test_alias_applied_to_inferred(tmp_path):
    spec = synthesize_dependency_spec(_repo(tmp_path), _imports("import sklearn\nimport cv2"))
    assert [r.distribution_name for r in spec.requirements] == [
        "opencv-python", "scikit-learn"]


def test_no_stdlib_in_synthesized_manifest_randomized(tmp_path):
    stdlib = sorted(load_stdlib_modules() - {"antigravity", "this"})
    rng = random.Random(11)
    for _ in range(25):
        chosen = rng.sample(stdlib, 5)
        third_party = rng.choice(["flask", "attrs", "pydantic"])
        source = "\n".join(f"import {name}" for name in [*chosen, third_party])
        spec = synthesize_dependency_spec(_repo(tmp_path), _imports(source))
        manifest_names = {line.strip() for line in
                          spec.synthesized_manifest.splitlines()}
        assert not manifest_names & set(chosen)


def test_requirement_dataclasses_frozen():
    req = PackageRequirement("numpy", RequirementOrigin.INFERRED_IMPORT)
    with pytest.raises(AttributeError):
        req.distribution_name = "other"
    assert isinstance(DependencySpec("r", (req,), "numpy\n"), DependencySpec)


def test_internal_names_scan(tmp_path):
    (tmp_path / "module.py").write_text("")
    (tmp_path / "pkg").mkdir()
    (tmp_path / ".hidden").mkdir()
    names = find_internal_module_names(tmp_path)
    assert names == {"module", "pkg"}
