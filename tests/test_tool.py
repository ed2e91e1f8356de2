"""The bounded runner of outside tools. A run cut off at its bound is
tested through the executor, and a tool that cannot start through the
runtime wrapper."""

from __future__ import annotations

import os

from nbrepro.tool import ToolRun, run_tool


def test_finished_run_is_returned_with_its_output():
    run = run_tool(["sh", "-c", "echo out; echo err >&2; exit 3"], 5)
    assert run == ToolRun(["sh", "-c", "echo out; echo err >&2; exit 3"], 3,
                          "out\n", "err\n")


def test_env_is_set_over_the_inherited_environment():
    run = run_tool(["sh", "-c", 'echo "$NBREPRO_TOOL_TEST $PATH"'], 5,
                   env={"NBREPRO_TOOL_TEST": "set"})
    assert run.stdout == f"set {os.environ['PATH']}\n"


def test_output_that_is_not_utf8_is_decoded_with_replacement_characters():
    argv = ["sh", "-c", "printf 'ok\\377\\n' >&2; exit 1"]
    assert run_tool(argv, 5) == ToolRun(argv, 1, "", "ok\ufffd\n")
