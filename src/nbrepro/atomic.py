"""Atomic file replacement for product outputs.

A reader sees the old file or the new one, never a torn one, even when the
writer dies partway. The text goes to a temp file in the target's directory
and ``os.replace`` renames it over the target; within one filesystem the
rename is atomic. Durability across power loss (fsync) is not attempted.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_text(path: Path, text: str) -> None:
    """``path.write_text(text, encoding="utf-8")``, atomically, in a
    directory made first if it is missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # A unique name, so concurrent writers never share a temp file; "x"
    # mode creates it with the umask's permissions, as write_text would.
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
