"""Shared plumbing: atomic file writes."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-semisobolev-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
