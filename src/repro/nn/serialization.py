"""Checkpoint serialization for :mod:`repro.nn` models.

Historical-knowledge reuse in FreewayML stores model parameters keyed by
data distribution (the paper's ``(d_i, k_i)`` pairs) and Table IV measures
the resulting space overhead.  This module serializes ``state_dict``
mappings to compact bytes (``numpy.savez``) so the knowledge store can both
persist checkpoints and report their exact size.  Every checkpoint file in
the package is written through :func:`atomic_write_bytes`, so a crash
mid-write never truncates the previous good file.
"""

from __future__ import annotations

import contextlib
import io
import os
import secrets
from collections import OrderedDict
from pathlib import Path

import numpy as np

__all__ = [
    "state_dict_to_bytes",
    "state_dict_from_bytes",
    "state_dict_nbytes",
    "save_state_dict",
    "load_state_dict",
    "atomic_write_bytes",
]


def state_dict_to_bytes(state: dict) -> bytes:
    """Serialize a ``state_dict`` (name → array) to compressed bytes."""
    buffer = io.BytesIO()
    arrays = {name: np.asarray(value) for name, value in state.items()}
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def state_dict_from_bytes(blob: bytes) -> "OrderedDict[str, np.ndarray]":
    """Inverse of :func:`state_dict_to_bytes`."""
    buffer = io.BytesIO(blob)
    with np.load(buffer) as archive:
        return OrderedDict((name, archive[name].copy()) for name in archive.files)


def state_dict_nbytes(state: dict) -> int:
    """Raw parameter payload size in bytes (sum of array buffers).

    This is the number Table IV reports: the in-memory footprint of one
    preserved knowledge entry, excluding container framing.
    """
    return sum(np.asarray(value).nbytes for value in state.values())


def atomic_write_bytes(path: str | Path, blob: bytes) -> int:
    """Replace ``path`` with ``blob`` durably; return bytes written.

    The bytes go to a temporary file in ``path``'s directory, which is
    flushed, fsynced and renamed over ``path`` with ``os.replace`` (atomic
    on POSIX and Windows).  A crash or an error mid-write leaves the
    previous file whole, and on an error the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(temporary, "xb") as stream:
            stream.write(blob)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
    return len(blob)


def save_state_dict(state: dict, path: str | Path) -> int:
    """Write a checkpoint to ``path`` atomically; return bytes written."""
    return atomic_write_bytes(path, state_dict_to_bytes(state))


def load_state_dict(path: str | Path) -> "OrderedDict[str, np.ndarray]":
    """Read a checkpoint written by :func:`save_state_dict`."""
    return state_dict_from_bytes(Path(path).read_bytes())
