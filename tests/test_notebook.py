"""Notebook parsing and structural metadata."""

from __future__ import annotations

import json

import pytest

from nbrepro.notebook import (
    CellKind,
    OutputKind,
    ParseError,
    cell_counts,
    code_cells,
    markdown_code_ratio_of,
    parse_notebook,
)

from conftest import (
    code_cell,
    error_output,
    execute_result,
    markdown_cell,
    notebook_bytes,
    raw_cell,
    stream_output,
)


def test_minimal_code_cell():
    nb = parse_notebook(notebook_bytes([code_cell("print(1)")]))
    assert len(nb.cells) == 1
    cell = nb.cells[0]
    assert cell.kind is CellKind.CODE
    assert cell.source == "print(1)"
    assert cell.outputs == ()


def test_cell_kinds_preserve_document_order():
    nb = parse_notebook(notebook_bytes([
        markdown_cell("a"), markdown_cell("b"),
        code_cell("1"), code_cell("2"), code_cell("3"),
    ]))
    kinds = [c.kind for c in nb.cells]
    assert kinds == [CellKind.MARKDOWN, CellKind.MARKDOWN,
                     CellKind.CODE, CellKind.CODE, CellKind.CODE]
    assert [c.source for c in nb.cells] == ["a", "b", "1", "2", "3"]


def test_truncated_file_raises_parse_error_with_offset():
    payload = notebook_bytes([code_cell("x = 1")])[:40]
    with pytest.raises(ParseError) as excinfo:
        parse_notebook(payload)
    assert excinfo.value.byte_offset is not None


def test_missing_cells_field_path():
    with pytest.raises(ParseError) as excinfo:
        parse_notebook(json.dumps({"nbformat": 4, "nbformat_minor": 5}).encode())
    assert excinfo.value.field_path == "cells"


def test_unsupported_nbformat_rejected():
    with pytest.raises(ParseError, match="unsupported nbformat"):
        parse_notebook(notebook_bytes([code_cell("x")], nbformat=3))


def test_missing_cell_type_names_field():
    doc = {"cells": [{"source": ["x"]}], "metadata": {},
           "nbformat": 4, "nbformat_minor": 5}
    with pytest.raises(ParseError) as excinfo:
        parse_notebook(json.dumps(doc).encode())
    assert excinfo.value.field_path == "cells[0].cell_type"


def test_error_output_requires_ename():
    doc = notebook_bytes([code_cell("raise", [
        {"output_type": "error", "ename": "", "evalue": "x", "traceback": []}])])
    with pytest.raises(ParseError, match="ename"):
        parse_notebook(doc)


def test_kernel_name_carried_verbatim():
    nb = parse_notebook(notebook_bytes([code_cell("x")], kernel_name="ir"))
    assert nb.kernel_name == "ir"
    nb = parse_notebook(notebook_bytes([code_cell("x")], kernel_name=None))
    assert nb.kernel_name is None


def test_source_joined_from_list():
    nb = parse_notebook(notebook_bytes([code_cell("a = 1\nb = 2")]))
    assert nb.cells[0].source == "a = 1\nb = 2"


def test_outputs_modeled():
    nb = parse_notebook(notebook_bytes([code_cell("go()", [
        stream_output("out\n"),
        stream_output("err\n", name="stderr"),
        execute_result("42", count=3),
        error_output("ValueError", "bad value", ["tb line 1", "tb line 2"]),
    ], execution_count=3)]))
    outputs = nb.cells[0].outputs
    assert [o.kind for o in outputs] == [
        OutputKind.STREAM, OutputKind.STREAM,
        OutputKind.EXECUTE_RESULT, OutputKind.ERROR]
    assert outputs[0].payload == {"stream/stdout": "out\n"}
    assert outputs[1].payload == {"stream/stderr": "err\n"}
    assert outputs[2].payload == {"text/plain": "42"}
    assert outputs[3].error_name == "ValueError"
    assert outputs[3].error_value == "bad value"


def test_unknown_output_type_rejected():
    doc = notebook_bytes([code_cell("x", [{"output_type": "mystery"}])])
    with pytest.raises(ParseError, match="output_type"):
        parse_notebook(doc)


def test_cell_partition_sums_to_total():
    nb = parse_notebook(notebook_bytes([
        markdown_cell("m"), code_cell("c"), raw_cell("r"), code_cell("c2"),
    ]))
    markdown = sum(1 for c in nb.cells if c.kind is CellKind.MARKDOWN)
    raw = sum(1 for c in nb.cells if c.kind is CellKind.RAW)
    assert len(code_cells(nb)) + markdown + raw == len(nb.cells)


def test_markdown_and_raw_cells_have_empty_outputs():
    nb = parse_notebook(notebook_bytes([markdown_cell("m"), raw_cell("r")]))
    assert all(c.outputs == () for c in nb.cells)


@pytest.mark.parametrize("markdown,code,expected", [
    (2, 4, 0.5),
    (0, 5, 0.0),
])
def test_markdown_code_ratio(markdown, code, expected):
    cells = [markdown_cell(f"m{i}") for i in range(markdown)]
    cells += [code_cell(f"x{i} = {i}") for i in range(code)]
    nb = parse_notebook(notebook_bytes(cells))
    assert markdown_code_ratio_of(*cell_counts(nb)) == expected


def test_markdown_code_ratio_undefined_without_code():
    nb = parse_notebook(notebook_bytes([markdown_cell("m")] * 3))
    assert markdown_code_ratio_of(*cell_counts(nb)) is None


def test_code_cells_indices():
    nb = parse_notebook(notebook_bytes([
        markdown_cell("m"), code_cell("a"), markdown_cell("m"), code_cell("b"),
    ]))
    assert [c.source for c in code_cells(nb)] == ["a", "b"]
    only_markdown = parse_notebook(notebook_bytes([markdown_cell("m")]))
    assert code_cells(only_markdown) == []
    single = parse_notebook(notebook_bytes([code_cell("x")]))
    assert [c.source for c in code_cells(single)] == ["x"]
