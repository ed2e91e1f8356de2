"""Output normalization, non-determinism detection, verdicts, and scoring."""

from __future__ import annotations

import io
import json
import random
import re
import sysconfig
import time
import tokenize
from pathlib import Path

import pytest

from nbrepro.compare import (
    CellComparison,
    ScoreCategory,
    Verdict,
    categorize_score,
    compare_cell,
    compare_notebooks,
    compute_metrics,
    NONDETERMINISM_PATTERNS,
    detect_nondeterminism,
    metrics_from_partition,
    unscored_metrics,
    normalize_output,
    strip_comments_and_strings,
)
from nbrepro.depinfer import extract_imports
from nbrepro.notebook import CellOutput, OutputKind, code_cells, parse_notebook

from conftest import (
    FIXTURES,
    code_cell,
    error_output,
    execute_result,
    markdown_cell,
    notebook_bytes,
    stream_output,
)


def _stream(text, name="stdout"):
    return CellOutput(kind=OutputKind.STREAM, payload={f"stream/{name}": text})


# ---- normalize_output ---------------------------------------------------------

def test_normalization_trailing_whitespace_and_line_endings():
    assert normalize_output(_stream("hello \r\n")) == normalize_output(_stream("hello\n"))
    assert normalize_output(_stream("a \r\nb\t\n")) == normalize_output(_stream("a\nb\n"))


def test_normalization_strips_ansi_escapes():
    colored = _stream("\x1b[31mred\x1b[0m\n")
    plain = _stream("red\n")
    assert normalize_output(colored) == normalize_output(plain)


def test_identical_binary_payloads_equal_and_exact():
    png = CellOutput(kind=OutputKind.DISPLAY_DATA, payload={"image/png": "AAAB=="})
    same = CellOutput(kind=OutputKind.DISPLAY_DATA, payload={"image/png": "AAAB=="})
    padded = CellOutput(kind=OutputKind.DISPLAY_DATA, payload={"image/png": "AAAB==\n"})
    assert normalize_output(png) == normalize_output(same)
    assert normalize_output(png) != normalize_output(padded)


def test_error_outputs_ignore_tracebacks():
    def error_cell_output(traceback):
        nb = parse_notebook(notebook_bytes([code_cell("x[1]", [
            error_output("KeyError", "'x'", traceback)])]))
        return nb.cells[0].outputs[0]

    first = error_cell_output(["/home/a/nb.py"])
    second = error_cell_output(["/mnt/other/nb.py", "more"])
    assert normalize_output(first) == normalize_output(second)
    different_name = CellOutput(kind=OutputKind.ERROR, error_name="IndexError",
                                error_value="'x'")
    assert normalize_output(first) != normalize_output(different_name)


def test_stream_names_distinguished():
    assert normalize_output(_stream("x\n")) != normalize_output(_stream("x\n", "stderr"))


def test_non_string_payload_canonicalized():
    a = CellOutput(kind=OutputKind.DISPLAY_DATA,
                   payload={"application/json": {"b": 2, "a": 1}})
    b = CellOutput(kind=OutputKind.DISPLAY_DATA,
                   payload={"application/json": {"a": 1, "b": 2}})
    assert normalize_output(a) == normalize_output(b)


# ---- detect_nondeterminism ------------------------------------------------------

def _load_nd_cells():
    return json.loads((FIXTURES / "nondeterminism_cells.json").read_text("utf-8"))


@pytest.mark.parametrize("case", _load_nd_cells(), ids=lambda c: c["id"])
def test_nondeterminism_labeled_cells(case):
    flagged, patterns = detect_nondeterminism(case["source"])
    assert flagged == case["nondeterministic"]
    assert patterns == case["patterns"]


def test_nondeterminism_fixture_covers_every_pattern():
    covered = set()
    for case in _load_nd_cells():
        covered.update(case["patterns"])
    assert covered == {"random.*", "uuid.*", "np.random", "time.time",
                       "datetime.now", "os.environ"}


# ---- strip_comments_and_strings -------------------------------------------------

def _reference_strip(source):
    """The tokenizer stripper, with its regex fallback for sources that do
    not tokenize, that the one-pass scan replaced. The one-pass scan must
    give the same pattern names. Python 3.12+ tokenizes f-string fields
    (PEP 701); the reference joins an f-string back into one span, as
    earlier tokenizers report it, so it reads alike on every interpreter."""
    spans = []
    fstring_start = getattr(tokenize, "FSTRING_START", None)
    fstring_end = getattr(tokenize, "FSTRING_END", None)
    depth = 0
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == fstring_start:
                if depth == 0:
                    opened = tok.start
                depth += 1
            elif tok.type == fstring_end:
                depth -= 1
                if depth == 0:
                    spans.append((*opened, *tok.end))
            elif depth == 0 and tok.type in (tokenize.STRING, tokenize.COMMENT):
                spans.append((*tok.start, *tok.end))
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        return _reference_strip_fallback(source)
    lines = source.split("\n")
    for srow, scol, erow, ecol in spans:
        for row in range(srow - 1, min(erow, len(lines))):
            line = lines[row]
            start = scol if row == srow - 1 else 0
            end = ecol if row == erow - 1 else len(line)
            lines[row] = line[:start] + " " * (end - start) + line[end:]
    return "\n".join(lines)


_REFERENCE_STRING_RE = re.compile(
    r"'''.*?'''|\"\"\".*?\"\"\"|'(?:[^'\\\n]|\\.)*'|\"(?:[^\"\\\n]|\\.)*\"",
    re.DOTALL,
)


def _reference_strip_fallback(source):
    without_strings = _REFERENCE_STRING_RE.sub(" ", source)
    return "\n".join(line.split("#", 1)[0] for line in without_strings.split("\n"))


def _pattern_names(stripped):
    return [name for name, pattern in NONDETERMINISM_PATTERNS
            if pattern.search(stripped)]


def _fixture_cell_sources():
    sources = [case["source"] for case in _load_nd_cells()]
    for path in sorted(FIXTURES.glob("**/*.ipynb")):
        notebook = parse_notebook(path.read_bytes())
        sources.extend(cell.source for cell in code_cells(notebook))
    return sources


def test_stripper_matches_reference_on_fixture_cells():
    sources = _fixture_cell_sources()
    assert len(sources) > 50
    for source in sources:
        assert (detect_nondeterminism(source)[1]
                == _pattern_names(_reference_strip(source))), source


_TOP_LEVEL_DEFINITION_RE = re.compile(r"\n(?=(?:@|def |async def |class ))")


def test_stripper_matches_reference_on_stdlib_sample():
    # Every fourth top-level module of the running interpreter's stdlib,
    # cut before each top-level definition, until the time budget is spent.
    modules = sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))[::4]
    deadline = time.monotonic() + 1.5
    units = flagged = 0
    for module in modules:
        if time.monotonic() > deadline:
            break
        text = module.read_text("utf-8", errors="replace")
        for unit in _TOP_LEVEL_DEFINITION_RE.split(text):
            names = detect_nondeterminism(unit)[1]
            assert names == _pattern_names(_reference_strip(unit)), \
                f"{module.name}: {unit[:200]!r}"
            units += 1
            flagged += bool(names)
    assert units > 100 and flagged > 0


@pytest.mark.parametrize("source, expected", [
    ("s = '#'; x = random.random()", ["random.*"]),
    ("s = \"it's # random.random()\"", []),
    ("s = 'don\\'t' + random.random()", ["random.*"]),
    ("s = \"a \\\" random.seed(1)\"", []),
    ("p = r'\\d+' # random.seed()\nos.environ['A']", ["os.environ"]),
    ("b = rb'uuid.uuid4()' + br\"time.time\"", []),
    ("s = 'unterminated random.random()", ["random.*"]),
    ("x = f\"{random.random()}\"", []),
    ("x = f'{time.time()}' + f\"{os.environ}\"", []),
], ids=["hash_in_string", "quote_and_hash_in_string", "escaped_single_quote",
        "escaped_double_quote", "raw_string", "byte_strings", "unterminated",
        "fstring_field", "fstring_fields"])
def test_stripper_edge_cases(source, expected):
    assert detect_nondeterminism(source)[1] == expected


def test_stripper_keeps_line_structure():
    source = "a = '#'  # note\nb = '''x\ny''' + \"\\\"\"\nimport os"
    stripped = strip_comments_and_strings(source)
    assert [len(line) for line in stripped.split("\n")] == \
        [len(line) for line in source.split("\n")]
    assert stripped.split() == ["a", "=", "b", "=", "+", "import", "os"]


def test_import_after_multiline_string_found_on_its_own_line():
    # The cell does not parse, so the import comes from the line scan.
    assert extract_imports("s = '''a\nb'''\nimport yaml\ndef broken(:") == {"yaml"}


def test_triple_quote_inside_comment_of_broken_cell_hides_no_code():
    source = ("# docstrings use ''' quotes\nx = random.random()\n"
              "s = '''doc'''\ny = (")
    assert detect_nondeterminism(source) == (True, ["random.*"])
    assert extract_imports(source.replace("x = random.random()",
                                          "import numpy")) == {"numpy"}


# ---- compare_cell ----------------------------------------------------------------

def _cells(source, original_outputs, executed_outputs):
    original = parse_notebook(notebook_bytes([code_cell(source, original_outputs)]))
    executed = parse_notebook(notebook_bytes([code_cell(source, executed_outputs)]))
    return original.cells[0], executed.cells[0]


def test_equal_outputs_identical():
    orig, executed = _cells("print(1)", [stream_output("1\n")], [stream_output("1\n")])
    assert compare_cell(orig, executed, 0).verdict is Verdict.IDENTICAL


def test_unequal_outputs_with_pattern_nondeterministic():
    orig, executed = _cells("from datetime import datetime\nprint(datetime.now())",
                            [stream_output("2020-01-01\n")],
                            [stream_output("2026-08-08\n")])
    comparison = compare_cell(orig, executed, 0)
    assert comparison.verdict is Verdict.NON_DETERMINISTIC
    assert "datetime.now" in comparison.matched_patterns


def test_unequal_outputs_without_pattern_different():
    orig, executed = _cells("print(version)", [stream_output("1.0\n")],
                            [stream_output("2.0\n")])
    comparison = compare_cell(orig, executed, 0)
    assert comparison.verdict is Verdict.DIFFERENT
    assert comparison.matched_patterns == ()


def test_equal_outputs_win_over_patterns():
    orig, executed = _cells("np.random.seed(0); np.random.rand()",
                            [execute_result("0.5488135039273248")],
                            [execute_result("0.5488135039273248")])
    assert compare_cell(orig, executed, 0).verdict is Verdict.IDENTICAL


def test_comparison_invariant_enforced():
    with pytest.raises(ValueError):
        CellComparison(cell_index=0, verdict=Verdict.DIFFERENT,
                       matched_patterns=("random.*",))
    with pytest.raises(ValueError):
        CellComparison(cell_index=0, verdict=Verdict.NON_DETERMINISTIC)


def test_output_count_mismatch_not_identical():
    orig, executed = _cells("f()", [stream_output("a\n")], [])
    assert compare_cell(orig, executed, 0).verdict is Verdict.DIFFERENT


# ---- compute_metrics ---------------------------------------------------------------

def test_score_formula_on_fixed_partition():
    metrics = metrics_from_partition(range(15), range(15, 18), range(18, 20))
    assert metrics.total_code_cells == 20
    assert metrics.score == 15 / 20
    assert metrics.identical_count == 15


def test_hand_labeled_four_cell_notebook():
    # 2 identical, 1 different, 1 pattern-flagged-and-different -> score 0.5
    original = parse_notebook(notebook_bytes([
        code_cell("a = 1", [stream_output("one\n")]),
        markdown_cell("interlude"),
        code_cell("b = 2", [execute_result("2")]),
        code_cell("print(host)", [stream_output("alpha\n")]),
        code_cell("import random\nprint(random.random())",
                  [stream_output("0.11\n")]),
    ]))
    executed = parse_notebook(notebook_bytes([
        code_cell("a = 1", [stream_output("one\n")]),
        markdown_cell("interlude"),
        code_cell("b = 2", [execute_result("2")]),
        code_cell("print(host)", [stream_output("beta\n")]),
        code_cell("import random\nprint(random.random())",
                  [stream_output("0.97\n")]),
    ]))
    result = compare_notebooks(original, executed, notebook_id="nb", run_id="run")
    metrics, comparisons = result.metrics, result.cells
    assert (metrics.identical_count, metrics.different_count,
            metrics.nondeterministic_count) == (2, 1, 1)
    assert metrics.score == 0.5
    assert metrics.identical_indices == (0, 1)
    assert metrics.different_indices == (2,)
    assert metrics.nondeterministic_indices == (3,)
    verdicts = [c.verdict for c in comparisons]
    assert verdicts == [Verdict.IDENTICAL, Verdict.IDENTICAL,
                        Verdict.DIFFERENT, Verdict.NON_DETERMINISTIC]


def test_self_comparison_identity_on_fixture_notebooks():
    for path in sorted((FIXTURES / "notebooks").glob("*.ipynb")):
        nb = parse_notebook(path.read_bytes())
        metrics = compute_metrics(nb, nb)
        assert metrics.different_count == 0, path.name
        assert metrics.score == 1.0, path.name


def test_structural_mismatch_is_an_unscored_value():
    original = parse_notebook(notebook_bytes([code_cell("a"), code_cell("b")]))
    executed = parse_notebook(notebook_bytes([code_cell("a")]))
    result = compare_notebooks(original, executed, notebook_id="nb", run_id="run")
    assert result.metrics == unscored_metrics(2, notebook_id="nb", run_id="run")
    assert (result.metrics.structural_mismatch, result.metrics.score,
            result.metrics.total_code_cells) == (True, None, 2)
    assert (result.metrics.identical_count, result.metrics.different_count,
            result.metrics.nondeterministic_count) == (0, 0, 0)
    assert result.cells == ()
    assert json.loads(result.document) == {
        "structural_mismatch": True, "original_code_cells": 2,
        "executed_code_cells": 1}
    assert compute_metrics(original, executed) == unscored_metrics(2)


def test_zero_code_cells_score_undefined():
    nb = parse_notebook(notebook_bytes([markdown_cell("only prose")]))
    metrics = compute_metrics(nb, nb)
    assert metrics.total_code_cells == 0
    assert metrics.score is None


def test_partition_properties_randomized():
    rng = random.Random(20260808)
    for _ in range(200):
        total = rng.randint(1, 60)
        indices = list(range(total))
        rng.shuffle(indices)
        cut_a = rng.randint(0, total)
        cut_b = rng.randint(cut_a, total)
        metrics = metrics_from_partition(indices[:cut_a], indices[cut_a:cut_b],
                                         indices[cut_b:])
        assert (metrics.identical_count + metrics.different_count
                + metrics.nondeterministic_count) == total
        assert metrics.score == metrics.identical_count / total
        combined = (set(metrics.identical_indices) | set(metrics.different_indices)
                    | set(metrics.nondeterministic_indices))
        assert combined == set(range(total))
        assert len(combined) == (len(metrics.identical_indices)
                                 + len(metrics.different_indices)
                                 + len(metrics.nondeterministic_indices))


def test_score_monotonicity_moving_different_to_identical():
    rng = random.Random(99)
    for _ in range(100):
        total = rng.randint(2, 40)
        identical = rng.randint(0, total - 1)
        different = total - identical
        before = metrics_from_partition(range(identical),
                                        range(identical, total), [])
        after = metrics_from_partition(range(identical + 1),
                                       range(identical + 1, total), [])
        assert after.score >= before.score


# ---- categorize_score ----------------------------------------------------------------

@pytest.mark.parametrize("score,expected", [
    (0.0, ScoreCategory.POOR),
    (0.15, ScoreCategory.POOR),
    (0.2, ScoreCategory.LOW),
    (0.39, ScoreCategory.LOW),
    (0.4, ScoreCategory.MODERATE),
    (0.6, ScoreCategory.GOOD),
    (0.8, ScoreCategory.HIGH),
    (0.999, ScoreCategory.HIGH),
    (1.0, ScoreCategory.PERFECT),
    (None, ScoreCategory.UNSCORED),
])
def test_score_bins(score, expected):
    assert categorize_score(score) is expected


def test_score_out_of_range_rejected():
    with pytest.raises(ValueError):
        categorize_score(1.5)
