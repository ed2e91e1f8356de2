"""The one runner of outside tools: every git and container-runtime call.

Each call has a finite bound. A call that hits it is returned, not raised,
with what the tool printed before the kill, so callers read a timeout as
they read an exit status, and every tool log has one layout.
"""

from __future__ import annotations

import os
import shlex
import subprocess
from dataclasses import dataclass

# The bound of the runtime's version, ps, images, rm and rmi, and of rev-parse.
QUICK_CALL_TIMEOUT = 30.0


@dataclass(frozen=True)
class ToolRun:
    """The argv that ran and what it returned; a timed-out run exits -1."""

    args: list[str]
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool = False

    def log_text(self) -> str:
        return (f"$ {shlex.join(self.args)}\n"
                f"exit={self.returncode} timed_out={self.timed_out}\n"
                f"--- stdout ---\n{self.stdout}\n--- stderr ---\n{self.stderr}\n")


def run_tool(argv: list[str], timeout: float,
             env: dict[str, str] | None = None) -> ToolRun:
    """Run ``argv`` with ``env`` set over the inherited environment, killed
    after ``timeout`` seconds; raises OSError when it cannot start."""
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout,
                              env=None if env is None else {**os.environ, **env})
    except subprocess.TimeoutExpired as exc:
        # What was read before the kill is bytes, even in text mode.
        partial = [p.decode("utf-8", "replace") if isinstance(p, bytes) else p or ""
                   for p in (exc.stdout, exc.stderr)]
        return ToolRun(list(argv), -1, *partial, timed_out=True)
    return ToolRun(list(argv), done.returncode, done.stdout, done.stderr)
