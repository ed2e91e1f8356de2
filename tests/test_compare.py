"""Output normalization, non-determinism detection, verdicts, and scoring."""

from __future__ import annotations

import json
import random

import pytest

from nbrepro.compare import (
    CellComparison,
    ScoreCategory,
    StructuralMismatchError,
    Verdict,
    categorize_score,
    compare_cell,
    compare_notebooks,
    compute_metrics,
    detect_nondeterminism,
    metrics_from_partition,
    normalize_output,
)
from nbrepro.notebook import CellOutput, OutputKind, parse_notebook

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
    first = CellOutput(kind=OutputKind.ERROR, error_name="KeyError",
                       error_value="'x'", traceback=("/home/a/nb.py",))
    second = CellOutput(kind=OutputKind.ERROR, error_name="KeyError",
                        error_value="'x'", traceback=("/mnt/other/nb.py", "more"))
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


# ---- compare_cell ----------------------------------------------------------------

def _cells(source, original_outputs, executed_outputs):
    original = parse_notebook(notebook_bytes([code_cell(source, original_outputs)]))
    executed = parse_notebook(notebook_bytes([code_cell(source, executed_outputs)]))
    return original.cells[0], executed.cells[0]


def test_equal_outputs_identical():
    orig, executed = _cells("print(1)", [stream_output("1\n")], [stream_output("1\n")])
    assert compare_cell(orig, executed).verdict is Verdict.IDENTICAL


def test_unequal_outputs_with_pattern_nondeterministic():
    orig, executed = _cells("from datetime import datetime\nprint(datetime.now())",
                            [stream_output("2020-01-01\n")],
                            [stream_output("2026-08-08\n")])
    comparison = compare_cell(orig, executed)
    assert comparison.verdict is Verdict.NON_DETERMINISTIC
    assert "datetime.now" in comparison.matched_patterns


def test_unequal_outputs_without_pattern_different():
    orig, executed = _cells("print(version)", [stream_output("1.0\n")],
                            [stream_output("2.0\n")])
    comparison = compare_cell(orig, executed)
    assert comparison.verdict is Verdict.DIFFERENT
    assert comparison.matched_patterns == ()


def test_equal_outputs_win_over_patterns():
    orig, executed = _cells("np.random.seed(0); np.random.rand()",
                            [execute_result("0.5488135039273248")],
                            [execute_result("0.5488135039273248")])
    assert compare_cell(orig, executed).verdict is Verdict.IDENTICAL


def test_comparison_invariant_enforced():
    with pytest.raises(ValueError):
        CellComparison(cell_index=0, verdict=Verdict.DIFFERENT,
                       matched_patterns=("random.*",))
    with pytest.raises(ValueError):
        CellComparison(cell_index=0, verdict=Verdict.NON_DETERMINISTIC)


def test_output_count_mismatch_not_identical():
    orig, executed = _cells("f()", [stream_output("a\n")], [])
    assert compare_cell(orig, executed).verdict is Verdict.DIFFERENT


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
    metrics, comparisons = compare_notebooks(original, executed,
                                             notebook_id="nb", run_id="run")
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


def test_structural_mismatch_aborts():
    original = parse_notebook(notebook_bytes([code_cell("a"), code_cell("b")]))
    executed = parse_notebook(notebook_bytes([code_cell("a")]))
    with pytest.raises(StructuralMismatchError) as excinfo:
        compute_metrics(original, executed)
    assert excinfo.value.original_count == 2
    assert excinfo.value.executed_count == 1


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
