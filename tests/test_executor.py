"""Error extraction, failure classification, the execution record derived
without a runtime, and containerized execution through the shipped client
over the stub runtime."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from pathlib import Path

import pytest

from nbrepro.containerize import ContainerRuntimeUnavailable, DockerCli
from nbrepro.executor import (
    ErrorCategory,
    ExecutionStatus,
    classify_error,
    execute_notebook,
    execution_record,
    extract_errors,
)
from nbrepro.notebook import parse_notebook
from nbrepro.store import NotebookDescriptor
from nbrepro.tool import ToolRun

from conftest import (
    code_cell,
    error_output,
    markdown_cell,
    notebook_bytes,
    stream_output,
)


# ---- classify_error -------------------------------------------------------------

@pytest.mark.parametrize("error_type,expected", [
    ("ModuleNotFoundError", ErrorCategory.DEPENDENCY),
    ("ImportError", ErrorCategory.DEPENDENCY),
    ("Install Dependency Error", ErrorCategory.DEPENDENCY),
    ("FileNotFoundError", ErrorCategory.DATA),
    ("File Not Found Error", ErrorCategory.DATA),
    ("PermissionError", ErrorCategory.DATA),
    ("SyntaxError", ErrorCategory.CODE),
    ("TypeError", ErrorCategory.CODE),
    ("AttributeError", ErrorCategory.CODE),
    ("NameError", ErrorCategory.LOGIC),
    ("ValueError", ErrorCategory.LOGIC),
    ("KeyError", ErrorCategory.LOGIC),
    ("SomeExoticError", ErrorCategory.LOGIC),
])
def test_classification_table(error_type, expected):
    assert classify_error(error_type) is expected


# ---- extract_errors ----------------------------------------------------------------

def test_no_error_outputs():
    nb = parse_notebook(notebook_bytes([code_cell("x", [stream_output("ok\n")])]))
    assert extract_errors(nb) == []


def test_single_syntax_error_classified_code():
    nb = parse_notebook(notebook_bytes([
        code_cell("ok()"),
        code_cell("def broken(:", [error_output("SyntaxError", "invalid syntax")]),
    ]))
    (err,) = extract_errors(nb)
    assert err.error_type == "SyntaxError"
    assert err.category is ErrorCategory.CODE
    assert err.cell_index == 1
    assert err.count == 1


def test_cell_index_counts_code_cells_only():
    nb = parse_notebook(notebook_bytes([
        markdown_cell("prose"),
        code_cell("fine()"),
        markdown_cell("more prose"),
        code_cell("open('/nope')",
                  [error_output("FileNotFoundError", "[Errno 2] /nope")]),
    ]))
    (err,) = extract_errors(nb)
    assert err.cell_index == 1
    assert err.category is ErrorCategory.DATA


def test_two_cells_same_error_two_entries():
    nb = parse_notebook(notebook_bytes([
        code_cell("a", [error_output("NameError", "name 'a' is not defined")]),
        code_cell("b", [error_output("NameError", "name 'b' is not defined")]),
    ]))
    errors = extract_errors(nb)
    assert [e.cell_index for e in errors] == [0, 1]
    assert all(e.error_type == "NameError" for e in errors)


def test_duplicate_error_type_in_cell_sums_count():
    nb = parse_notebook(notebook_bytes([
        code_cell("loop", [error_output("ValueError", "first\nsecond line"),
                           error_output("ValueError", "again")]),
    ]))
    (err,) = extract_errors(nb)
    assert err.count == 2
    assert err.message == "first"


def test_extract_errors_round_trip_stable():
    document = notebook_bytes([
        code_cell("x", [error_output("KeyError", "'k'", ["tb"])]),
    ])
    rewritten = json.dumps(json.loads(document), indent=1).encode("utf-8")
    assert (extract_errors(parse_notebook(rewritten))
            == extract_errors(parse_notebook(document)))


# ---- execute_notebook (stub runtime) ------------------------------------------------

IMAGE = "repro/repo0001:run1"
KERNEL_MISSING = "jupyter_client.kernelspec.NoSuchKernel: No such kernel named conda-env"


def _descriptor(relative_path="analysis.ipynb"):
    return NotebookDescriptor(
        notebook_id="nb0001", repository_id="repo0001",
        relative_path=relative_path, kernel_name="python3",
        nbformat_version=(4, 5), code_cell_count=2, markdown_cell_count=1)


@pytest.fixture()
def docker(runtime, tmp_path):
    """The shipped client over the stub runtime, with ``IMAGE`` built and
    no call recorded yet."""
    client = DockerCli()
    client.build(IMAGE, tmp_path / "Dockerfile", tmp_path)
    runtime.calls.clear()
    return client


def _exited(returncode, stderr="", stdout=""):
    return ToolRun([], returncode, stdout, stderr)


def test_successful_execution(tmp_path, runtime, docker):
    runtime.plant("repo0001", {"analysis.ipynb": notebook_bytes([
        markdown_cell("title"),
        code_cell("print(1)", [stream_output("1\n")], 1),
        code_cell("print(2)", [stream_output("2\n")], 2),
    ])})
    record = execute_notebook(docker, IMAGE, _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path / "artifacts",
                              log_path=tmp_path / "logs" / "nb0001.execution.log")
    assert record.status is ExecutionStatus.SUCCESS
    assert record.errors == ()
    assert record.duration_s is not None and record.duration_s >= 0
    assert record.code_cell_count == 2
    assert record.markdown_code_ratio == 0.5
    executed = tmp_path / "artifacts" / "run1" / "analysis.ipynb"
    assert record.executed_notebook_path == str(executed)
    assert executed.exists()
    assert (tmp_path / "logs" / "nb0001.execution.log").exists()
    # container removed afterwards
    assert runtime.containers() == []


def test_errored_cell_still_produces_record(tmp_path, runtime, docker):
    runtime.plant("repo0001", {"analysis.ipynb": notebook_bytes([
        markdown_cell("title"),
        code_cell("ok()", [stream_output("fine\n")], 1),
        code_cell("import missing_pkg",
                  [error_output("ModuleNotFoundError",
                                "No module named 'missing_pkg'")], 2),
    ])})
    record = execute_notebook(docker, IMAGE, _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path,
                              log_path=tmp_path / "execution.log")
    assert record.status is ExecutionStatus.ERRORED_BUT_COMPLETED
    (err,) = record.errors
    assert err.error_type == "ModuleNotFoundError"
    assert err.category is ErrorCategory.DEPENDENCY
    assert err.cell_index == 1


def test_kernel_not_found_retries_then_reports(tmp_path, runtime, docker):
    runtime.answer("run", _exited(1, KERNEL_MISSING), times=1)
    runtime.answer("run", _exited(1, "jupyter_client.kernelspec.NoSuchKernel: "
                                     "No such kernel named python3"), times=1)
    record = execute_notebook(docker, IMAGE, _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path,
                              log_path=tmp_path / "execution.log")
    assert record.status is ExecutionStatus.KERNEL_NOT_FOUND
    run_calls = [args for args in runtime.calls if args[0] == "run"]
    assert len(run_calls) == 2
    assert any("--ExecutePreprocessor.kernel_name=python3" in args
               for args in run_calls)


def test_kernel_fallback_recovers(tmp_path, runtime, docker):
    runtime.answer("run", _exited(1, "No such kernel named mycustomkernel"), times=1)
    runtime.plant("repo0001", {"analysis.ipynb": notebook_bytes([
        code_cell("print(1)", [stream_output("1\n")], 1)])})
    record = execute_notebook(docker, IMAGE, _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path,
                              log_path=tmp_path / "execution.log")
    assert record.status is ExecutionStatus.SUCCESS


def test_log_holds_every_attempt(tmp_path, runtime, docker):
    runtime.answer("run", _exited(1, KERNEL_MISSING, stdout="first stdout"), times=1)
    runtime.answer("run", lambda args, timeout: dataclasses.replace(
        runtime.stub(args, timeout), stdout="second stdout"))
    runtime.plant("repo0001", {"analysis.ipynb": notebook_bytes([
        code_cell("print(1)", [stream_output("1\n")], 1)])})
    log_path = tmp_path / "logs" / "nb0001.execution.log"
    record = execute_notebook(docker, IMAGE, _descriptor(), run_id="run1",
                              artifacts_dir=tmp_path, log_path=log_path)
    assert record.status is ExecutionStatus.SUCCESS

    log = log_path.read_text("utf-8")
    commands = [line for line in log.splitlines() if line.startswith("$ ")]
    assert len(commands) == 2
    assert "kernel_name" not in commands[0]
    assert commands[1].endswith(
        "--ExecutePreprocessor.kernel_name=python3 analysis.ipynb")
    assert "exit=1 timed_out=False" in log
    assert "exit=0 timed_out=False" in log
    assert KERNEL_MISSING in log
    assert "first stdout" in log and "second stdout" in log
    assert log.index(KERNEL_MISSING) < log.index(commands[1])


def test_notebook_missing_in_image(tmp_path, runtime, docker):
    runtime.answer("run", _exited(255, "[NbConvertApp] WARNING | pattern matched no files"))
    record = execute_notebook(docker, IMAGE, _descriptor("gone.ipynb"),
                              run_id="run1", artifacts_dir=tmp_path,
                              log_path=tmp_path / "execution.log")
    assert record.status is ExecutionStatus.NOTEBOOK_NOT_FOUND


def test_timeout_reported(tmp_path, runtime, docker):
    # the run hits the wall-clock bound
    runtime.answer("run", ToolRun([], -1, "", "", timed_out=True))
    record = execute_notebook(docker, IMAGE, _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path, timeout=1.0,
                              log_path=tmp_path / "execution.log")
    assert record.status is ExecutionStatus.TIMEOUT
    assert record.duration_s is not None


def test_unparseable_artifact_recorded_not_raised(tmp_path, runtime, docker):
    runtime.plant("repo0001", {"analysis.ipynb": b"{corrupt"})
    record = execute_notebook(docker, IMAGE, _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path,
                              log_path=tmp_path / "execution.log")
    assert record.status is ExecutionStatus.ERRORED_BUT_COMPLETED
    (err,) = record.errors
    assert err.error_type == "ArtifactParseError"
    assert runtime.containers() == []


def test_artifact_copied_out_before_removal(tmp_path, runtime, docker):
    runtime.plant("repo0001", {"sub/deep.ipynb": notebook_bytes([
        code_cell("print(9)", [stream_output("9\n")], 1)])})
    record = execute_notebook(docker, IMAGE, _descriptor("sub/deep.ipynb"),
                              run_id="runZ", artifacts_dir=tmp_path,
                              log_path=tmp_path / "execution.log")
    assert record.status is ExecutionStatus.SUCCESS
    assert (tmp_path / "runZ" / "sub" / "deep.ipynb").exists()
    assert runtime.verbs.index("cp") < runtime.verbs.index("rm")


def test_executed_artifact_feeds_workdir(tmp_path, runtime, docker):
    runtime.plant("repo0001", {"sub/deep.ipynb": notebook_bytes([
        code_cell("print(9)", [stream_output("9\n")], 1)])})
    execute_notebook(docker, IMAGE, _descriptor("sub/deep.ipynb"),
                     run_id="runZ", artifacts_dir=tmp_path,
                     log_path=tmp_path / "execution.log")
    # executed in the notebook's own directory inside the image
    run = next(args for args in runtime.calls if args[0] == "run")
    assert run[run.index("--workdir") + 1] == "/workspace/sub"
    assert run[run.index(IMAGE) + 1:run.index(IMAGE) + 3] == ["jupyter", "nbconvert"]


# ---- execution_record (no runtime) -------------------------------------------------

def _attempt(exit_code=0, stderr="", timed_out=False):
    return ToolRun(["docker", "run"], exit_code, "", stderr, timed_out)


_THREE_CODE_CELLS = notebook_bytes([
    markdown_cell("title"),
    code_cell("a = 1"), code_cell("b = 2"), code_cell("print(a + b)"),
])
_CELL_ERROR = notebook_bytes([
    code_cell("ok()"),
    code_cell("import missing_pkg",
              [error_output("ModuleNotFoundError", "No module named 'missing_pkg'")]),
])
_FROM_DESCRIPTOR = (2, 0.5)


@pytest.mark.parametrize("attempt,artifact,status,error_types,counts", [
    pytest.param(_attempt(), _THREE_CODE_CELLS, ExecutionStatus.SUCCESS, (),
                 (3, 1 / 3), id="success"),
    pytest.param(_attempt(), _CELL_ERROR, ExecutionStatus.ERRORED_BUT_COMPLETED,
                 ("ModuleNotFoundError",), (2, 0.0), id="cell-errors"),
    pytest.param(_attempt(1, "Traceback:\nValueError: bad kernel state"), None,
                 ExecutionStatus.ERRORED_BUT_COMPLETED, ("ValueError",),
                 _FROM_DESCRIPTOR, id="stderr-exception"),
    pytest.param(_attempt(), b"{corrupt", ExecutionStatus.ERRORED_BUT_COMPLETED,
                 ("ArtifactParseError",), _FROM_DESCRIPTOR, id="artifact-parse-error"),
    pytest.param(_attempt(1, "jupyter_client.kernelspec.NoSuchKernel"), None,
                 ExecutionStatus.KERNEL_NOT_FOUND, (), _FROM_DESCRIPTOR,
                 id="kernel-not-found"),
    pytest.param(_attempt(255, "pattern matched no files"), None,
                 ExecutionStatus.NOTEBOOK_NOT_FOUND, (), _FROM_DESCRIPTOR,
                 id="notebook-not-found-stderr"),
    pytest.param(_attempt(), None, ExecutionStatus.NOTEBOOK_NOT_FOUND, (),
                 _FROM_DESCRIPTOR, id="notebook-not-found-no-artifact"),
    pytest.param(_attempt(-1, timed_out=True), None, ExecutionStatus.TIMEOUT, (),
                 _FROM_DESCRIPTOR, id="timeout"),
])
def test_execution_record_without_a_runtime(attempt, artifact, status, error_types,
                                            counts):
    path = None if artifact is None else Path("artifacts/run1/analysis.ipynb")
    record = execution_record(_descriptor(), "run1", attempt, 1.23456, path, artifact)
    assert record.status is status
    assert tuple(error.error_type for error in record.errors) == error_types
    assert (record.code_cell_count, record.markdown_code_ratio) == counts
    assert record.executed_notebook_path == (None if path is None else str(path))
    assert (record.notebook_id, record.run_id, record.duration_s) == (
        "nb0001", "run1", 1.235)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.status = ExecutionStatus.SUCCESS


# ---- runtime calls and logs ------------------------------------------------------

_FALLBACK = {"run": [_exited(1, "No such kernel named custom")]}


@pytest.mark.parametrize("answers,verbs", [
    pytest.param({}, "run cp rm", id="success"),
    pytest.param(_FALLBACK, "run version rm run cp rm", id="fallback"),
    pytest.param({"run": [ToolRun([], -1, "", "", timed_out=True)]}, "run version rm",
                 id="timeout"),
    pytest.param({"run": [_exited(1, "ValueError: bad")]}, "run version rm",
                 id="nonzero-exit"),
    pytest.param({"cp": [_exited(1, "Error: No such container:path")]},
                 "run cp version rm", id="failed-copy"),
])
def test_runtime_calls_on_each_path(tmp_path, runtime, docker, answers, verbs):
    for verb, replies in answers.items():
        for reply in replies:
            runtime.answer(verb, reply, times=1)
    runtime.plant("repo0001", {"analysis.ipynb": _THREE_CODE_CELLS})
    execute_notebook(docker, IMAGE, _descriptor(), run_id="run1",
                     artifacts_dir=tmp_path, log_path=tmp_path / "execution.log")
    assert runtime.verbs == verbs.split()


def test_only_the_container_runs_hold_the_slot(tmp_path, runtime, docker):
    runtime.answer("run", _FALLBACK["run"][0], times=1)
    runtime.plant("repo0001", {"analysis.ipynb": _THREE_CODE_CELLS})

    @contextlib.contextmanager
    def slot():
        runtime.calls.append(["take_slot"])
        yield
        runtime.calls.append(["leave_slot"])

    execute_notebook(docker, IMAGE, _descriptor(), run_id="run1",
                     artifacts_dir=tmp_path, log_path=tmp_path / "execution.log",
                     slot=slot())
    # the retry and the removal before it run in the slot; the copy-out and
    # the last removal follow it
    assert runtime.verbs == [
        "take_slot", "run", "version", "rm", "run", "leave_slot", "cp", "rm"]


@pytest.mark.parametrize("failing", ["log", "copy"])
def test_a_returned_run_is_removed_when_its_log_or_copy_raises(tmp_path, runtime,
                                                              docker, failing):
    runtime.plant("repo0001", {"analysis.ipynb": _THREE_CODE_CELLS})
    if failing == "copy":
        # a copy-out that cannot start is an outage
        runtime.answer("cp", OSError("copy-out interrupted"))
    # a log directory that is a file makes the log write raise
    (tmp_path / "logs").write_text("")
    log_dir = tmp_path / ("logs" if failing == "log" else "fine")
    with pytest.raises(OSError if failing == "log" else ContainerRuntimeUnavailable):
        execute_notebook(docker, IMAGE, _descriptor(), run_id="run1",
                         artifacts_dir=tmp_path / "artifacts",
                         log_path=log_dir / "execution.log")
    assert runtime.calls[-1] == ["rm", "-f", "nbrepro-run1-nb0001"]
    assert runtime.containers() == []


@pytest.mark.parametrize("on_run,status", [
    ("exit 0", ExecutionStatus.NOTEBOOK_NOT_FOUND),
    ("exec sleep 5", ExecutionStatus.TIMEOUT),
], ids=["exited", "timed-out"])
def test_execution_log_shows_the_run_argv(tmp_path, on_run, status):
    runtime = tmp_path / "runtime"
    runtime.write_text(f'#!/bin/sh\nif [ "$1" = run ]; then {on_run}; fi\n')
    runtime.chmod(0o755)
    log_path = tmp_path / "execution.log"
    record = execute_notebook(DockerCli(str(runtime)), "img", _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path / "artifacts",
                              log_path=log_path, timeout=0.5)
    assert record.status is status
    (command,) = [line for line in log_path.read_text("utf-8").splitlines()
                  if line.startswith("$ ")]
    assert command.startswith(f"$ {runtime} run --name nbrepro-run1-nb0001 ")
    assert " img jupyter nbconvert " in command


def test_timed_out_run_keeps_what_it_printed(tmp_path):
    # exec: the kill at the bound reaches the sleeper, so nothing outlives it
    runtime = tmp_path / "runtime"
    runtime.write_text('#!/bin/sh\nif [ "$1" = run ]; then '
                       'echo partial-output; exec sleep 5; fi\n')
    runtime.chmod(0o755)
    log_path = tmp_path / "execution.log"
    started = time.monotonic()
    record = execute_notebook(DockerCli(str(runtime)), "img", _descriptor(),
                              run_id="run1", artifacts_dir=tmp_path / "artifacts",
                              log_path=log_path, timeout=0.5)
    assert time.monotonic() - started < 2.0
    assert record.status is ExecutionStatus.TIMEOUT
    log = log_path.read_text("utf-8")
    assert "exit=-1 timed_out=True" in log
    stdout = log.split("--- stdout ---\n", 1)[1].split("--- stderr ---", 1)[0]
    assert "partial-output" in stdout
