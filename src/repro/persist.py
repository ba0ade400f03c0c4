"""Crash-safe file persistence shared by every on-disk artifact.

A long-running query service saves its warm state — the shared detection
cache, the statistics catalog — while queries are still being served, and a
killed process must never leave a truncated JSON behind: the next boot would
fail to parse exactly the file that was supposed to make it warm.

:func:`atomic_write_text` is the single home of the write-temp-then-rename
idiom: the payload is written to a temporary file in the *same directory*
(so the final :func:`os.replace` is an atomic rename on every platform),
flushed and fsynced, and only then swapped into place.  A crash at any point
leaves either the old file or the new file, never a mix, and the temporary
file is cleaned up on failure.

This module is the only code that writes artifacts to disk: numpy arrays
are serialized in memory and handed to the same writer
(:func:`atomic_write_npz`, :func:`atomic_write_npy`).
"""

from __future__ import annotations

import io
import os
import tempfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives next to the target so the final rename cannot
    cross filesystems.  On any failure the temporary file is removed and the
    previous contents of ``path`` (if any) are left untouched.
    """
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    The binary twin of :func:`atomic_write_text`, used by artifacts with a
    compact binary format (e.g. the npz detection-cache dump).
    """
    _atomic_write(path, payload)


def atomic_write_npz(path: str | Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path`` atomically as one compressed ``.npz`` archive."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    _atomic_write(path, buffer.getvalue())


def atomic_write_npy(path: str | Path, array: np.ndarray) -> None:
    """Write one array to ``path`` atomically as a plain ``.npy`` file."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array))
    _atomic_write(path, buffer.getvalue())


def _atomic_write(path: str | Path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
