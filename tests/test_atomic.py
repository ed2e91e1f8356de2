"""Atomic replacement of product outputs."""

from __future__ import annotations

import os

import pytest

from nbrepro import atomic


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
