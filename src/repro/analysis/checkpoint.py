"""Static checkpoint-compatibility checking.

FreewayML restores ``(distribution, parameters)`` checkpoints into live
models mid-stream (historical knowledge reuse) and whole learners from
``.npz`` archives (:mod:`repro.core.persistence`).  A serialized
``state_dict`` that drifted from the target architecture — truncated,
transposed, or re-dtyped — must be a clean, typed error *before* any
parameter is written, not a numpy broadcast failure thousands of batches
later.

:func:`check_state_dict` compares a serialized state against a reference
(a live :class:`~repro.nn.modules.Module`, a ``state_dict`` mapping, or a
pre-computed spec mapping) and returns a :class:`CompatReport` listing
every problem: missing / unexpected parameter names, shape mismatches,
and dtype-kind mismatches (a float parameter restored from an integer or
complex blob is rejected; width changes within a kind, e.g. float32 →
float64, are allowed).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn.modules import Module
from ..nn.serialization import parameters_of, read_checkpoint
from .shapes import TensorSpec

__all__ = [
    "CompatProblem",
    "CompatReport",
    "CheckpointIncompatibleError",
    "state_spec",
    "check_state_dict",
    "verify_checkpoint_file",
]


class CheckpointIncompatibleError(ValueError):
    """A serialized state does not fit the target architecture."""

    def __init__(self, problems, context: str = ""):
        self.problems = list(problems)
        self.context = context
        lines = "; ".join(problem.describe() for problem in self.problems[:5])
        more = (f" (+{len(self.problems) - 5} more)"
                if len(self.problems) > 5 else "")
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}incompatible checkpoint — {lines}{more}"
        )


@dataclass(frozen=True)
class CompatProblem:
    """One incompatibility between a state dict and its target."""

    kind: str                      # "missing" | "unexpected" | "shape" | "dtype"
    name: str                      # dotted parameter name
    expected: str = ""
    actual: str = ""

    def describe(self) -> str:
        if self.kind == "missing":
            return f"parameter {self.name!r} missing from checkpoint"
        if self.kind == "unexpected":
            return f"checkpoint carries unexpected parameter {self.name!r}"
        return (f"{self.kind} mismatch for parameter {self.name!r}: "
                f"expected {self.expected}, got {self.actual}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "expected": self.expected, "actual": self.actual}


@dataclass
class CompatReport:
    """Outcome of one compatibility check."""

    problems: list
    checked: int                   # parameters compared

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_incompatible(self, context: str = "") -> None:
        if self.problems:
            raise CheckpointIncompatibleError(self.problems, context=context)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checked": self.checked,
                "problems": [problem.to_dict() for problem in self.problems]}


def state_spec(reference) -> "OrderedDict[str, TensorSpec]":
    """Normalize a reference into ``name -> TensorSpec``.

    ``reference`` may be a :class:`Module` (uses its parameters), a mapping
    of names to arrays (a ``state_dict``), or a mapping of names to
    :class:`TensorSpec` (already a spec).
    """
    if isinstance(reference, Module):
        return OrderedDict(
            (name, TensorSpec(parameter.data.shape,
                              str(parameter.data.dtype)))
            for name, parameter in reference.named_parameters()
        )
    spec: "OrderedDict[str, TensorSpec]" = OrderedDict()
    for name, value in reference.items():
        if isinstance(value, TensorSpec):
            spec[name] = value
        else:
            array = np.asarray(value)
            spec[name] = TensorSpec(array.shape, str(array.dtype))
    return spec


def _dtype_compatible(expected: np.dtype, actual: np.dtype) -> bool:
    # Same kind (float↔float, int↔int) and losslessly-intended: width
    # changes inside a kind are fine, cross-kind re-dtyping is not.
    return (expected.kind == actual.kind
            and np.can_cast(actual, expected, casting="same_kind"))


def check_state_dict(reference, state) -> CompatReport:
    """Compare serialized ``state`` against ``reference``; never mutates.

    Returns a :class:`CompatReport`; call ``raise_if_incompatible`` to turn
    problems into a typed :class:`CheckpointIncompatibleError`.
    """
    spec = state_spec(reference)
    problems: list[CompatProblem] = []
    for name in spec:
        if name not in state:
            problems.append(CompatProblem("missing", name,
                                          expected=str(spec[name])))
    for name in state:
        if name not in spec:
            problems.append(CompatProblem("unexpected", name))
    checked = 0
    for name, expected in spec.items():
        if name not in state:
            continue
        checked += 1
        array = np.asarray(state[name])
        if tuple(array.shape) != tuple(expected.shape):
            problems.append(CompatProblem(
                "shape", name, expected=str(tuple(expected.shape)),
                actual=str(tuple(array.shape)),
            ))
            continue
        if not _dtype_compatible(np.dtype(expected.dtype), array.dtype):
            problems.append(CompatProblem(
                "dtype", name, expected=expected.dtype,
                actual=str(array.dtype),
            ))
    return CompatReport(problems=problems, checked=checked)


def verify_checkpoint_file(path: str | Path, reference) -> CompatReport:
    """Check the parameters in a file
    :func:`~repro.nn.serialization.write_checkpoint` wrote (a tenant's
    training state, a knowledge spill, a ``state_dict``); entries named
    ``__*`` are not parameters."""
    arrays, _meta = read_checkpoint(path)
    return check_state_dict(reference, parameters_of(arrays))
