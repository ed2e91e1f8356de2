"""Cell-level output comparison between committed and re-executed notebooks.

Every code cell gets one of three verdicts: Identical (normalized output
sequences match element-wise), NonDeterministic (outputs differ AND the
cell's source matches a known variability pattern), or Different (the
residual). The reproducibility score is identical cells over total code
cells. Equal outputs always win: a cell full of random calls that happens
to reproduce byte-identically is Identical, which keeps self-comparison at
score 1.0.

Variability patterns are matched after one left-to-right regex pass blanks
comments and strings, so verdicts do not depend on the Python version.

Each compared notebook is one value: its metrics row, its verdicts and its
``comparison.json`` text. A structural mismatch is such a value too.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

from nbrepro.notebook import Cell, CellOutput, OutputKind, ParsedNotebook, code_cells

# CSI sequences (colors, cursor moves) and OSC sequences (titles, links).
_ANSI_ESCAPE_RE = re.compile(
    r"\x1b\[[0-9;?]*[ -/]*[@-~]|\x1b\][^\x07\x1b]*(?:\x07|\x1b\\)"
)

# Static sources of run-to-run output variability. Matched against cell
# source with comments and string literals removed. The bare random/uuid
# patterns refuse a preceding dot so np.random.rand() reports np.random
# only, not random.* as well.
NONDETERMINISM_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("np.random", re.compile(r"\b(?:np|numpy)\.random\b")),
    ("random.*", re.compile(r"(?<![\w.])random\.\w+")),
    ("uuid.*", re.compile(r"(?<![\w.])uuid\.\w+")),
    ("time.time", re.compile(r"(?<![\w.])time\.time\b")),
    ("datetime.now", re.compile(r"\bdatetime\.now\b")),
    ("os.environ", re.compile(r"(?<![\w.])os\.environ\b")),
)

# Media types compared on the raw payload, byte for byte.
_BINARY_MIME_PREFIXES = ("image/", "audio/", "video/")
_BINARY_MIME_EXACT = frozenset({"application/pdf"})
_TEXT_BINARY_EXCEPTIONS = frozenset({"image/svg+xml"})


class Verdict(Enum):
    IDENTICAL = "Identical"
    DIFFERENT = "Different"
    NON_DETERMINISTIC = "NonDeterministic"


class ScoreCategory(Enum):
    POOR = "Poor"
    LOW = "Low"
    MODERATE = "Moderate"
    GOOD = "Good"
    HIGH = "High"
    PERFECT = "Perfect"
    UNSCORED = "Unscored"


@dataclass(frozen=True)
class CellComparison:
    """Verdict for one code cell. ``cell_index`` is the position within the
    code-cell sequence, matching the error-record convention.

    ``matched_patterns`` is non-empty exactly when the verdict is
    NonDeterministic.
    """

    cell_index: int
    verdict: Verdict
    matched_patterns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.NON_DETERMINISTIC) != bool(self.matched_patterns):
            raise ValueError(
                "matched_patterns must be non-empty iff verdict is NonDeterministic"
            )


@dataclass(frozen=True)
class ReproducibilityMetrics:
    notebook_id: str
    run_id: str
    identical_count: int
    different_count: int
    nondeterministic_count: int
    identical_indices: tuple[int, ...]
    different_indices: tuple[int, ...]
    nondeterministic_indices: tuple[int, ...]
    total_code_cells: int
    score: float | None
    structural_mismatch: bool = False  # then no verdicts and no score

    def __post_init__(self) -> None:
        counts = (self.identical_count, self.different_count,
                  self.nondeterministic_count)
        if counts != (len(self.identical_indices), len(self.different_indices),
                      len(self.nondeterministic_indices)):
            raise ValueError("counts must match index-list lengths")
        if not self.structural_mismatch and sum(counts) != self.total_code_cells:
            raise ValueError("verdict counts must partition the code cells")


@dataclass(frozen=True)
class NotebookComparison:
    """A compared notebook's row, verdicts and ``comparison.json`` text."""

    metrics: ReproducibilityMetrics
    cells: tuple[CellComparison, ...]
    document: str


def _normalize_text(text: str) -> str:
    text = _ANSI_ESCAPE_RE.sub("", text)
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return "\n".join(line.rstrip() for line in text.split("\n"))


def _is_binary_mime(mime: str) -> bool:
    if mime in _TEXT_BINARY_EXCEPTIONS:
        return False
    return mime in _BINARY_MIME_EXACT or mime.startswith(_BINARY_MIME_PREFIXES)


def normalize_output(out: CellOutput) -> str:
    """Canonical comparison text for one output.

    Text-like payloads lose trailing whitespace, terminal escape sequences,
    and line-ending differences; binary payloads (base64 images etc.) are
    kept exact; error outputs reduce to name + value. The notebook model
    keeps no tracebacks, which embed machine-specific paths, and no
    execution counts, so neither participates.
    """
    if out.kind is OutputKind.ERROR:
        return f"error\n{out.error_name}\n{_normalize_text(out.error_value)}"
    parts = [out.kind.value]
    for mime in sorted(out.payload):
        content = out.payload[mime]
        if not isinstance(content, str):
            rendered = json.dumps(content, sort_keys=True, ensure_ascii=False)
        elif _is_binary_mime(mime):
            rendered = content
        else:
            rendered = _normalize_text(content)
        parts.append(f"{mime}\n{rendered}")
    return "\x00".join(parts)


# Comments and strings in one alternation, scanned left to right: whichever
# opens first owns what follows. An unterminated quote matches nothing.
_LITERAL_RE = re.compile(
    r"#[^\n]*|'''.*?'''|\"\"\".*?\"\"\"|'(?:[^'\\\n]|\\.)*'|\"(?:[^\"\\\n]|\\.)*\"",
    re.DOTALL,
)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def strip_comments_and_strings(source: str) -> str:
    """Blank out comments and string literals, keeping every newline so line
    structure holds. String prefixes (``f``, ``rb``) stay; f-string fields
    are part of the literal on every Python version."""
    return _LITERAL_RE.sub(lambda m: _NOT_NEWLINE_RE.sub(" ", m.group()), source)


def detect_nondeterminism(source: str) -> tuple[bool, list[str]]:
    """Whether the cell source calls into known variability sources.

    Returns the matched pattern names; occurrences inside comments or
    string literals do not count.
    """
    stripped = strip_comments_and_strings(source)
    matched = [name for name, pattern in NONDETERMINISM_PATTERNS
               if pattern.search(stripped)]
    return bool(matched), matched


def compare_cell(original: Cell, executed: Cell, cell_index: int) -> CellComparison:
    """Verdict for one aligned code-cell pair; ``cell_index`` is the pair's
    position among the code cells."""
    original_norm = [normalize_output(out) for out in original.outputs]
    executed_norm = [normalize_output(out) for out in executed.outputs]
    if original_norm == executed_norm:
        return CellComparison(cell_index=cell_index, verdict=Verdict.IDENTICAL)
    flagged, patterns = detect_nondeterminism(original.source)
    if flagged:
        return CellComparison(cell_index=cell_index,
                              verdict=Verdict.NON_DETERMINISTIC,
                              matched_patterns=tuple(patterns))
    return CellComparison(cell_index=cell_index, verdict=Verdict.DIFFERENT)


def metrics_from_partition(identical: Iterable[int], different: Iterable[int],
                           nondeterministic: Iterable[int], *,
                           notebook_id: str = "", run_id: str = "") -> ReproducibilityMetrics:
    """Build the metrics row from a verdict partition of code-cell indices."""
    ident = tuple(sorted(identical))
    diff = tuple(sorted(different))
    nondet = tuple(sorted(nondeterministic))
    total = len(ident) + len(diff) + len(nondet)
    score = len(ident) / total if total > 0 else None
    return ReproducibilityMetrics(
        notebook_id=notebook_id,
        run_id=run_id,
        identical_count=len(ident),
        different_count=len(diff),
        nondeterministic_count=len(nondet),
        identical_indices=ident,
        different_indices=diff,
        nondeterministic_indices=nondet,
        total_code_cells=total,
        score=score,
    )


def unscored_metrics(total_code_cells: int, *, notebook_id: str = "",
                     run_id: str = "") -> ReproducibilityMetrics:
    """The row of a notebook whose artifacts disagree on code-cell count:
    no verdicts, ``total_code_cells`` from the original, no score."""
    return replace(metrics_from_partition((), (), (), notebook_id=notebook_id, run_id=run_id),
                   total_code_cells=total_code_cells, structural_mismatch=True)


def compare_notebooks(original: ParsedNotebook, executed: ParsedNotebook, *,
                      notebook_id: str = "", run_id: str = "") -> NotebookComparison:
    """Compare every code-cell pair by position into one value. Artifacts
    that disagree on code-cell count are a structural mismatch: no
    alignment is guessed, no cell gets a verdict, and the row is unscored."""
    original_cells, executed_cells = code_cells(original), code_cells(executed)
    if len(original_cells) != len(executed_cells):
        cells = ()
        metrics = unscored_metrics(len(original_cells), notebook_id=notebook_id, run_id=run_id)
        document = {"structural_mismatch": True, "original_code_cells": len(original_cells),
                    "executed_code_cells": len(executed_cells)}
    else:
        cells = tuple(compare_cell(orig, ex, ordinal) for ordinal, (orig, ex)
                      in enumerate(zip(original_cells, executed_cells)))
        by_verdict = {v: [c.cell_index for c in cells if c.verdict is v] for v in Verdict}
        metrics = metrics_from_partition(
            by_verdict[Verdict.IDENTICAL], by_verdict[Verdict.DIFFERENT],
            by_verdict[Verdict.NON_DETERMINISTIC], notebook_id=notebook_id, run_id=run_id)
        document = {"structural_mismatch": False, "score": metrics.score,
                    "total_code_cells": metrics.total_code_cells,
                    "cells": [{"cell_index": c.cell_index, "verdict": c.verdict.value,
                               "matched_patterns": list(c.matched_patterns)} for c in cells]}
    return NotebookComparison(metrics, cells,
                              json.dumps(document, indent=2, sort_keys=True) + "\n")


def compute_metrics(original: ParsedNotebook, executed: ParsedNotebook, *,
                    notebook_id: str = "", run_id: str = "") -> ReproducibilityMetrics:
    """Partition every code cell by verdict and score the notebook."""
    return compare_notebooks(original, executed, notebook_id=notebook_id, run_id=run_id).metrics


def categorize_score(score: float | None) -> ScoreCategory:
    """Bin a score into the reporting categories.

    Bins are half-open at the lower edge ([0.0, 0.2) is Poor, 0.2 itself is
    Low, ...) with Perfect reserved for exactly 1.0; an undefined score maps
    to Unscored.
    """
    if score is None:
        return ScoreCategory.UNSCORED
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score out of range: {score}")
    if score == 1.0:
        return ScoreCategory.PERFECT
    if score < 0.2:
        return ScoreCategory.POOR
    if score < 0.4:
        return ScoreCategory.LOW
    if score < 0.6:
        return ScoreCategory.MODERATE
    if score < 0.8:
        return ScoreCategory.GOOD
    return ScoreCategory.HIGH
