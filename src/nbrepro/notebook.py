"""Structural model of notebook files.

Parses the v4 JSON document format into typed cells and outputs, keeping
only what the pipeline reads: each cell's kind, source and outputs, and
the notebook's kernel name and format version. Output payloads and error
names and values are kept as written; tracebacks, execution counts and
metadata are not modeled, and nothing is serialized back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

NOTEBOOK_SUFFIX = ".ipynb"
SUPPORTED_NBFORMAT_MAJOR = 4


class ParseError(Exception):
    """Notebook file content that cannot be modeled.

    Carries the byte offset (for JSON-level failures) or the path of the
    offending field (for structural failures), whichever applies.
    """

    def __init__(self, message: str, *, byte_offset: int | None = None,
                 field_path: str | None = None) -> None:
        super().__init__(message)
        self.byte_offset = byte_offset
        self.field_path = field_path

    def __str__(self) -> str:
        detail = super().__str__()
        if self.field_path is not None:
            return f"{detail} (at {self.field_path})"
        if self.byte_offset is not None:
            return f"{detail} (at byte {self.byte_offset})"
        return detail


class CellKind(Enum):
    CODE = "code"
    MARKDOWN = "markdown"
    RAW = "raw"


class OutputKind(Enum):
    STREAM = "stream"
    EXECUTE_RESULT = "execute_result"
    DISPLAY_DATA = "display_data"
    ERROR = "error"


@dataclass(frozen=True)
class CellOutput:
    """One output of a code cell.

    ``payload`` maps a media type to its content. Stream outputs use the
    pseudo media type ``stream/<name>`` so stdout and stderr stay distinct.
    Error outputs keep their payload empty and carry the exception fields.
    """

    kind: OutputKind
    payload: dict[str, Any] = field(default_factory=dict)
    error_name: str = ""
    error_value: str = ""


@dataclass(frozen=True)
class Cell:
    kind: CellKind
    source: str
    outputs: tuple[CellOutput, ...] = ()


@dataclass(frozen=True)
class ParsedNotebook:
    cells: tuple[Cell, ...]
    kernel_name: str | None
    nbformat_version: tuple[int, int]


def _join_source(value: Any, path: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        parts = []
        for i, item in enumerate(value):
            if not isinstance(item, str):
                raise ParseError("source fragment is not a string",
                                 field_path=f"{path}[{i}]")
            parts.append(item)
        return "".join(parts)
    raise ParseError("source is neither string nor list", field_path=path)


def _parse_output(data: Any, path: str) -> CellOutput:
    if not isinstance(data, dict):
        raise ParseError("output is not an object", field_path=path)
    raw_type = data.get("output_type")
    try:
        kind = OutputKind(raw_type)
    except ValueError:
        raise ParseError(f"unknown output_type {raw_type!r}",
                         field_path=f"{path}.output_type") from None

    if kind is OutputKind.STREAM:
        name = data.get("name", "stdout")
        text = _join_source(data.get("text", ""), f"{path}.text")
        return CellOutput(kind=kind, payload={f"stream/{name}": text})

    if kind is OutputKind.ERROR:
        ename = data.get("ename")
        if not isinstance(ename, str) or not ename:
            raise ParseError("error output without a non-empty ename",
                             field_path=f"{path}.ename")
        evalue = data.get("evalue", "")
        return CellOutput(kind=kind, error_name=ename, error_value=str(evalue))

    # execute_result / display_data
    payload: dict[str, Any] = {}
    data_map = data.get("data", {})
    if not isinstance(data_map, dict):
        raise ParseError("output data is not an object",
                         field_path=f"{path}.data")
    for mime, content in data_map.items():
        if isinstance(content, list) and all(isinstance(x, str) for x in content):
            payload[mime] = "".join(content)
        else:
            payload[mime] = content
    return CellOutput(kind=kind, payload=payload)


def _parse_cell(data: Any, index: int) -> Cell:
    path = f"cells[{index}]"
    if not isinstance(data, dict):
        raise ParseError("cell is not an object", field_path=path)
    raw_kind = data.get("cell_type")
    try:
        kind = CellKind(raw_kind)
    except ValueError:
        raise ParseError(f"unknown cell_type {raw_kind!r}",
                         field_path=f"{path}.cell_type") from None
    if "source" not in data:
        raise ParseError("cell without source", field_path=f"{path}.source")
    source = _join_source(data["source"], f"{path}.source")

    outputs: tuple[CellOutput, ...] = ()
    if kind is CellKind.CODE:
        raw_outputs = data.get("outputs", [])
        if not isinstance(raw_outputs, list):
            raise ParseError("outputs is not a list",
                             field_path=f"{path}.outputs")
        outputs = tuple(
            _parse_output(out, f"{path}.outputs[{i}]")
            for i, out in enumerate(raw_outputs)
        )
    return Cell(kind=kind, source=source, outputs=outputs)


def parse_notebook(data: bytes) -> ParsedNotebook:
    """Parse raw notebook file content into the structural model.

    Raises ParseError for content that is not UTF-8 or not JSON (with the
    byte offset), for documents missing required notebook fields (with the
    field path), and for any nbformat major version other than 4.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("notebook is not valid UTF-8", byte_offset=exc.start) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", byte_offset=exc.pos) from exc

    if not isinstance(doc, dict):
        raise ParseError("notebook document is not an object", field_path="$")
    major = doc.get("nbformat")
    if not isinstance(major, int):
        raise ParseError("missing nbformat version", field_path="nbformat")
    if major != SUPPORTED_NBFORMAT_MAJOR:
        raise ParseError(f"unsupported nbformat {major}", field_path="nbformat")
    minor = doc.get("nbformat_minor", 0)
    if not isinstance(minor, int):
        minor = 0
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list):
        raise ParseError("missing cells list", field_path="cells")

    cells = tuple(_parse_cell(cell, i) for i, cell in enumerate(raw_cells))

    kernel_name: str | None = None
    metadata = doc.get("metadata")
    if isinstance(metadata, dict):
        kernelspec = metadata.get("kernelspec")
        if isinstance(kernelspec, dict):
            name = kernelspec.get("name")
            if isinstance(name, str) and name:
                kernel_name = name

    return ParsedNotebook(cells=cells, kernel_name=kernel_name,
                          nbformat_version=(major, minor))


def code_cells(nb: ParsedNotebook) -> list[Cell]:
    """Code cells in document order; the list length is the total used by
    the reproducibility score denominator."""
    return [cell for cell in nb.cells if cell.kind is CellKind.CODE]


def cell_counts(nb: ParsedNotebook) -> tuple[int, int]:
    """``(code, markdown)`` cell counts."""
    kinds = [cell.kind for cell in nb.cells]
    return kinds.count(CellKind.CODE), kinds.count(CellKind.MARKDOWN)


def markdown_code_ratio_of(code: int | None, markdown: int | None) -> float | None:
    """markdown/code cell count ratio, or None when there are no code cells."""
    return (markdown or 0) / code if code else None
