"""Checkpoints: one encoding of a model's training state, one file codec.

FreewayML's knowledge reuse stores parameters keyed by distribution (the
paper's ``(d_i, k_i)`` pairs), and serving evicts and rehydrates whole
models; both need a stored model to come back exactly.
:func:`training_state` / :func:`load_training_state` encode everything a
training step mutates as one flat ``{name: ndarray}`` mapping, and
:func:`write_checkpoint` / :func:`read_checkpoint` are the only code that
writes or reads a checkpoint file — atomically, through
:func:`atomic_write_bytes`, so a crash mid-write never truncates the
previous good file.  :func:`state_dict_nbytes` is Table IV's size.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import secrets
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .modules import Dropout

__all__ = [
    "training_state",
    "load_training_state",
    "parameters_of",
    "generator_state",
    "load_generator_state",
    "state_dict_nbytes",
    "atomic_write_bytes",
    "write_checkpoint",
    "read_checkpoint",
]

#: Key prefixes of a training state's non-parameter entries; parameter
#: names never start with ``__``.
_OPT = "__opt__."
_META = "__meta__."
_RNG = "__rng__."
_UPDATES = _META + "updates"

_META_KEY = "__freewayml_meta__"


def _json_array(value) -> np.ndarray:
    """``value`` as JSON text in a uint8 array, storable beside arrays."""
    text = json.dumps(value, default=lambda item: item.tolist())
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _from_json_array(array: np.ndarray):
    return json.loads(bytes(np.asarray(array)).decode("utf-8"))


def generator_state(rng: np.random.Generator) -> np.ndarray:
    """A generator's bit-generator state as a uint8 array."""
    return _json_array(rng.bit_generator.state)


def load_generator_state(rng: np.random.Generator, array) -> None:
    """Inverse of :func:`generator_state`: rewind ``rng`` in place."""
    rng.bit_generator.state = _from_json_array(array)


def _generators(model) -> list:
    module = getattr(model, "module", None)
    if module is None:
        return []
    return [layer.rng for layer in module.modules()
            if isinstance(layer, Dropout)]


def parameters_of(state: dict) -> dict:
    """The parameter entries of a training state, or of any checkpoint
    whose other entries start with ``__``."""
    return {name: value for name, value in state.items()
            if not name.startswith("__")}


def training_state(model) -> "OrderedDict[str, np.ndarray]":
    """Everything a training step of ``model`` mutates, as flat copies.

    ``model`` is a :class:`~repro.models.base.StreamingModel`.  The
    mapping holds its ``state_dict()`` (the parameters) and, for a model
    that has them, its optimizer's :meth:`~repro.nn.Optimizer.state_dict`
    (arrays as ``__opt__.<name>.<index>``, counters as
    ``__meta__.<name>``), each Dropout generator's state
    (``__rng__.<position>``) and ``__meta__.updates``.
    """
    state = OrderedDict(model.state_dict())
    optimizer = getattr(model, "optimizer", None)
    if optimizer is not None:
        for name, value in optimizer.state_dict().items():
            state[(_OPT if "." in name else _META) + name] = value
    for position, rng in enumerate(_generators(model)):
        state[f"{_RNG}{position}"] = generator_state(rng)
    if hasattr(model, "updates"):
        state[_UPDATES] = np.array(model.updates)
    return state


def _checked_generator_state(rng: np.random.Generator, key: str,
                             array) -> dict:
    """The bit-generator state a ``__rng__`` entry holds, once it has
    loaded into a fresh bit generator of ``rng``'s own type."""
    kind = type(rng.bit_generator)
    try:
        probe = kind(0)
        probe.state = _from_json_array(array)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"training state entry {key!r} is not a "
                         f"{kind.__name__} state: {error!r}") from None
    return probe.state


def _checked_updates(array) -> int:
    value = np.asarray(array)
    if value.ndim != 0 or value.dtype.kind not in "iu":
        raise ValueError(f"training state entry {_UPDATES!r} must be a 0-d "
                         f"integer; got {value.dtype} of shape "
                         f"{value.shape}")
    return int(value)


def load_training_state(model, state: dict) -> None:
    """Load a :func:`training_state` mapping into ``model`` in place.

    Every entry is checked before anything is written, so a bad entry
    raises and leaves the model untouched: the parameters
    (:meth:`~repro.nn.Module.validate_state_dict`), each Dropout
    generator's state (it must load into a bit generator of its layer's
    type) and ``updates`` (a 0-d integer), then the optimizer's entries,
    which it checks itself.  Bad generator and ``updates`` entries raise
    :class:`ValueError` naming the key.  Without optimizer entries (a
    parameters-only checkpoint) the optimizer starts fresh; generators
    and ``updates`` without an entry are left as they are.
    """
    parameters = parameters_of(state)
    optimizer = getattr(model, "optimizer", None)
    if optimizer is not None:
        model.module.validate_state_dict(parameters)
    generators = []
    for position, rng in enumerate(_generators(model)):
        key = f"{_RNG}{position}"
        if key in state:
            generators.append(
                (rng, _checked_generator_state(rng, key, state[key])))
    updates = (_checked_updates(state[_UPDATES]) if _UPDATES in state
               else None)
    if optimizer is not None:
        entries = {}
        for key, value in state.items():
            if key.startswith(_OPT):
                entries[key[len(_OPT):]] = value
            elif key.startswith(_META) and key != _UPDATES:
                entries[key[len(_META):]] = value
        optimizer.load_state_dict(entries)
    model.load_state_dict(parameters)
    for rng, generator in generators:
        rng.bit_generator.state = generator
    if updates is not None:
        model.updates = updates


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


def write_checkpoint(path: str | Path, arrays: dict, meta) -> int:
    """Write one ``.npz`` checkpoint atomically; returns bytes written.

    The archive holds ``arrays`` plus ``meta`` (anything JSON can encode)
    under a reserved key.  The write goes through
    :func:`atomic_write_bytes`, so a crash mid-write leaves the previous
    checkpoint at ``path`` whole.
    """
    arrays = dict(arrays)
    arrays[_META_KEY] = _json_array(meta)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


def read_checkpoint(path: str | Path) -> tuple[dict, object]:
    """``(arrays, meta)`` from a checkpoint :func:`write_checkpoint` wrote.

    Raises :class:`ValueError` for an archive without the metadata entry:
    it was not written here.
    """
    with np.load(Path(path)) as archive:  # object arrays are refused
        arrays = {key: archive[key] for key in archive.files}
    if _META_KEY not in arrays:
        raise ValueError(f"{path} is not a checkpoint: it has no "
                         f"{_META_KEY!r} entry")
    return arrays, _from_json_array(arrays.pop(_META_KEY))
