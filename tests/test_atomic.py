"""Atomic replacement of product outputs and tool logs."""

from __future__ import annotations

import os

import pytest

from nbrepro import atomic
from nbrepro.containerize import DockerCli, build_image
from nbrepro.executor import execute_notebook
from nbrepro.store import NotebookDescriptor
from nbrepro.tool import ToolRun


def test_write_replaces_the_file_with_write_text_permissions(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old\n", encoding="utf-8")
    plain = tmp_path / "plain.json"
    plain.write_text("x", encoding="utf-8")
    atomic.write_text(target, "new ✓\n")
    assert target.read_bytes() == "new ✓\n".encode("utf-8")
    assert target.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "report.json"]


def _fail_on_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError("disk went away")
    monkeypatch.setattr(atomic.os, "replace", refuse)


@pytest.mark.parametrize("text, arrange", [
    # Fails while encoding: a lone surrogate has no UTF-8 form.
    ("{" + "x" * 100_000 + "\ud800", lambda monkeypatch: None),
    # Fails after the temp file is complete, at the rename.
    ("{}\n", _fail_on_replace),
], ids=["encode", "replace"])
def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch,
                                                     text, arrange):
    target = tmp_path / "classification.json"
    target.write_bytes(b'{"counts": {}}\n')
    arrange(monkeypatch)
    with pytest.raises((UnicodeEncodeError, OSError)):
        atomic.write_text(target, text)
    assert target.read_bytes() == b'{"counts": {}}\n'
    assert os.listdir(tmp_path) == ["classification.json"]


def _build_log(runtime, tmp_path, log, output):
    runtime.answer("build", ToolRun([], 0, output, ""), times=1)
    build_image("repro/repo1:run1", tmp_path / "Dockerfile", tmp_path, DockerCli(),
                log_path=log)


def _execution_log(runtime, tmp_path, log, output):
    runtime.answer("run", ToolRun([], 0, output, ""), times=1)
    execute_notebook(DockerCli(), "repro/repo1:run1", NotebookDescriptor(
        notebook_id="nb1", repository_id="repo1", relative_path="a.ipynb"),
        run_id="run1", artifacts_dir=tmp_path / "artifacts", log_path=log)


@pytest.mark.parametrize("write_log", [_build_log, _execution_log],
                         ids=["build", "execution"])
def test_tool_logs_are_replaced_atomically(tmp_path, monkeypatch, runtime, write_log):
    log = tmp_path / "logs" / "tool.log"
    write_log(runtime, tmp_path, log, "first attempt")
    before = log.read_bytes()
    assert b"first attempt" in before
    _fail_on_replace(monkeypatch)
    with pytest.raises(OSError, match="disk went away"):
        write_log(runtime, tmp_path, log, "second attempt")
    assert log.read_bytes() == before
    assert os.listdir(log.parent) == ["tool.log"]
