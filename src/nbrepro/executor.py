"""Notebook execution inside the repository's container image, in two halves.

``execute_notebook`` makes the runtime calls: it runs the in-image converter
in execute mode with error tolerance, so failing cells still yield an
artifact, writes the log, copies the artifact out and removes the container.
Only the run, with its kernel-fallback retry, happens inside the caller's
slot; the log, the copy-out and the removal come after the slot is left.
The run and the copy share the notebook's bound; a timed-out run is logged
with what it printed. ``execution_record`` derives the status, the per-cell
error records and the cell counts from the last attempt and the artifact's
bytes, with no runtime call and no file I/O.
"""

from __future__ import annotations

import logging
import re
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from pathlib import Path, PurePosixPath

from nbrepro import atomic, notebook as nbmodel
from nbrepro.config import DEFAULT_EXECUTION_TIMEOUT
from nbrepro.containerize import REPOSITORY_LABEL, DockerCli
from nbrepro.notebook import OutputKind, ParsedNotebook
from nbrepro.store import (
    ErrorCategory, ExecutionError, ExecutionRecord, ExecutionStatus, NotebookDescriptor)
from nbrepro.tool import ToolRun

logger = logging.getLogger(__name__)

FALLBACK_KERNEL = "python3"
CONTAINER_WORKSPACE = "/workspace"

_KERNEL_NOT_FOUND_RE = re.compile(
    r"NoSuchKernel|No such kernel named|jupyter_client\.kernelspec", re.IGNORECASE)
_NOTEBOOK_NOT_FOUND_RE = re.compile(
    r"pattern matched no files|No such file or directory.*\.ipynb|"
    r"\.ipynb.*No such file or directory", re.IGNORECASE)
_STDERR_EXCEPTION_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*(?:Error|Exception))\b[:.]?",
                                  re.MULTILINE)


# Failure-mode table keyed on the exception name with spacing removed, so
# legacy spellings like "File Not Found Error" resolve too.
_CATEGORY_TABLE: dict[str, ErrorCategory] = {
    "ModuleNotFoundError": ErrorCategory.DEPENDENCY,
    "ImportError": ErrorCategory.DEPENDENCY,
    "InstallDependencyError": ErrorCategory.DEPENDENCY,
    "FileNotFoundError": ErrorCategory.DATA,
    "PermissionError": ErrorCategory.DATA,
    "SyntaxError": ErrorCategory.CODE,
    "TypeError": ErrorCategory.CODE,
    "AttributeError": ErrorCategory.CODE,
    "NameError": ErrorCategory.LOGIC,
    "ValueError": ErrorCategory.LOGIC,
    "KeyError": ErrorCategory.LOGIC,
}

KNOWN_ERROR_TYPES = frozenset(_CATEGORY_TABLE)


def classify_error(error_type: str) -> ErrorCategory:
    """Map a runtime exception name onto the failure taxonomy.

    Unknown names land in Logic; callers that care can consult
    KNOWN_ERROR_TYPES to flag them.
    """
    key = error_type.replace(" ", "")
    category = _CATEGORY_TABLE.get(key)
    if category is None:
        logger.debug("unrecognized error type %r categorized as Logic", error_type)
        return ErrorCategory.LOGIC
    return category


def extract_errors(executed: ParsedNotebook) -> list[ExecutionError]:
    """Structured error records from an executed notebook's error outputs.

    One record per (exception type, code-cell position); repeats within a
    cell sum into the count. The message keeps only the first line of the
    exception value.
    """
    aggregated: dict[tuple[str, int], ExecutionError] = {}
    for ordinal, cell in enumerate(nbmodel.code_cells(executed)):
        for output in cell.outputs:
            if output.kind is not OutputKind.ERROR:
                continue
            key = (output.error_name, ordinal)
            existing = aggregated.get(key)
            if existing is not None:
                aggregated[key] = replace(existing, count=existing.count + 1)
                continue
            if output.error_name not in KNOWN_ERROR_TYPES:
                logger.warning("unrecognized error type %r in cell %d",
                               output.error_name, ordinal)
            message = output.error_value.split("\n", 1)[0]
            aggregated[key] = ExecutionError(
                error_type=output.error_name,
                category=classify_error(output.error_name),
                message=message,
                cell_index=ordinal,
            )
    return sorted(aggregated.values(), key=lambda e: (e.cell_index, e.error_type))


def _nbconvert_command(notebook_name: str, output_name: str,
                       kernel_name: str | None) -> list[str]:
    command = [
        "jupyter", "nbconvert", "--to", "notebook", "--execute",
        "--allow-errors", "--ExecutePreprocessor.timeout=-1",
        "--output", output_name,
    ]
    if kernel_name is not None:
        command.append(f"--ExecutePreprocessor.kernel_name={kernel_name}")
    command.append(notebook_name)
    return command


def execute_notebook(
    docker: DockerCli,
    image: str,
    descriptor: NotebookDescriptor,
    *,
    run_id: str,
    artifacts_dir: Path,
    log_path: Path,
    timeout: float = DEFAULT_EXECUTION_TIMEOUT,
    cpu_limit: str | None = None,
    memory_limit: str | None = None,
    slot: AbstractContextManager = nullcontext(),
) -> ExecutionRecord:
    """Execute one notebook in the image and capture its outcome.

    The working directory is the notebook's own directory inside the image
    (the common relative-path assumption). A kernelspec missing in-image is
    retried once on the default kernel; failing again is KernelNotFound.
    After a clean exit the executed artifact is copied out to
    ``artifacts_dir/<run_id>/<relative_path>`` under the same ``timeout``;
    the log holds every attempt's runtime argv, exit status and output.
    The attempts, and the removal between them, run inside ``slot``; the
    log, the copy-out and the removal of the last container follow it, and
    that removal happens even when the log or the copy raises. An
    unreachable runtime raises ContainerRuntimeUnavailable from the run or
    the copy, so an outage never becomes the notebook's status. The
    recorded duration is the attempts' own.
    """
    rel = PurePosixPath(descriptor.relative_path)
    in_container_dir = str(PurePosixPath(CONTAINER_WORKSPACE) / rel.parent)
    executed_name = f"{rel.stem}.executed.ipynb"
    container_name = f"nbrepro-{run_id}-{descriptor.notebook_id}"

    run_args = ["--name", container_name, "--workdir", in_container_dir,
                "--label", f"{REPOSITORY_LABEL}={descriptor.repository_id}"]
    if cpu_limit:
        run_args += ["--cpus", cpu_limit]
    if memory_limit:
        run_args += ["--memory", memory_limit]

    attempts: list[ToolRun] = []
    with slot:
        started = time.monotonic()
        for kernel_name in (None, FALLBACK_KERNEL):
            if attempts:
                logger.info("kernel %r not in image for %s, retrying on %s",
                            descriptor.kernel_name, descriptor.relative_path,
                            FALLBACK_KERNEL)
                docker.remove_container(container_name)
            command = _nbconvert_command(rel.name, executed_name, kernel_name)
            attempt = docker.run_container(image, command, run_args, timeout=timeout)
            attempts.append(attempt)
            status = _failure_status(attempt)
            if status is not ExecutionStatus.KERNEL_NOT_FOUND:
                break
        duration = time.monotonic() - started

    copied: Path | None = None
    try:
        atomic.write_text(log_path, "".join(a.log_text() for a in attempts))
        if status is ExecutionStatus.SUCCESS:
            artifact = artifacts_dir / run_id / descriptor.relative_path
            artifact.parent.mkdir(parents=True, exist_ok=True)
            if docker.copy_from_container(
                    container_name, f"{in_container_dir}/{executed_name}", artifact,
                    timeout=timeout):
                copied = artifact
    finally:
        docker.remove_container(container_name)
    return execution_record(descriptor, run_id, attempt, duration, copied,
                            None if copied is None else copied.read_bytes())


def execution_record(descriptor: NotebookDescriptor, run_id: str,
                     attempt: ToolRun, duration: float,
                     artifact_path: Path | None,
                     artifact_bytes: bytes | None) -> ExecutionRecord:
    """One notebook's record from its last attempt and its copied-out
    artifact (None when there is none). After a clean exit the artifact
    decides: none is NotebookNotFound, bytes that do not parse are an
    ArtifactParseError, cell errors make it ErroredButCompleted. Cell counts
    come from the parsed artifact, else from the descriptor."""
    status = _failure_status(attempt)
    errors: tuple[ExecutionError, ...] = ()
    counts = (descriptor.code_cell_count, descriptor.markdown_cell_count)
    if status is ExecutionStatus.ERRORED_BUT_COMPLETED:
        errors = (_error_from_stderr(attempt.stderr),)
    elif status is ExecutionStatus.SUCCESS and artifact_bytes is None:
        status = ExecutionStatus.NOTEBOOK_NOT_FOUND
    elif status is ExecutionStatus.SUCCESS:
        try:
            executed = nbmodel.parse_notebook(artifact_bytes)
        except nbmodel.ParseError as exc:
            # Converter exited cleanly but its artifact does not model;
            # record the anomaly instead of failing the repository.
            logger.warning("executed artifact for %s does not parse: %s",
                           descriptor.relative_path, exc)
            errors = (ExecutionError(
                error_type="ArtifactParseError",
                category=classify_error("ArtifactParseError"),
                message=str(exc)[:500], cell_index=0),)
        else:
            errors = tuple(extract_errors(executed))
            counts = nbmodel.cell_counts(executed)
        if errors:
            status = ExecutionStatus.ERRORED_BUT_COMPLETED
    code, markdown = counts
    return ExecutionRecord(
        notebook_id=descriptor.notebook_id, run_id=run_id, status=status,
        duration_s=round(duration, 3), code_cell_count=code or 0,
        markdown_code_ratio=nbmodel.markdown_code_ratio_of(code, markdown),
        errors=errors,
        executed_notebook_path=None if artifact_path is None else str(artifact_path))


def _failure_status(attempt: ToolRun) -> ExecutionStatus:
    # KernelNotFound is also the cue to retry on the default kernel.
    if attempt.timed_out:
        return ExecutionStatus.TIMEOUT
    if attempt.returncode == 0:
        return ExecutionStatus.SUCCESS
    if _KERNEL_NOT_FOUND_RE.search(attempt.stderr):
        return ExecutionStatus.KERNEL_NOT_FOUND
    if _NOTEBOOK_NOT_FOUND_RE.search(attempt.stderr):
        return ExecutionStatus.NOTEBOOK_NOT_FOUND
    return ExecutionStatus.ERRORED_BUT_COMPLETED


def _error_from_stderr(stderr: str) -> ExecutionError:
    # Converter died without writing an artifact (e.g. the kernel crashed);
    # attribute the failure to cell 0 with whatever exception name surfaced.
    match = _STDERR_EXCEPTION_RE.search(stderr)
    error_type = match.group(1).split(".")[-1] if match else "ExecutionError"
    last_line = stderr.strip().split("\n")[-1] if stderr.strip() else ""
    return ExecutionError(
        error_type=error_type,
        category=classify_error(error_type),
        message=last_line[:500],
        cell_index=0,
    )
