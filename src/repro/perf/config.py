"""The one hot-path switch: captured-plan execution.

``plan_capture`` selects a real execution mode with a fallback: models
replay compiled step plans (:mod:`repro.nn.plan`) instead of rebuilding
their autograd graph every batch, and fall back to define-by-run for
anything a plan cannot replay.  A plan is only cached after a trial
replay matches the define-by-run step bit for bit, so the switch changes
speed, never results.  Turning it off is the way to rule the plan engine
out when a model misbehaves in the field, and the define-by-run pass it
leaves is what equivalence checks compare plans against
(``with optimizations_disabled(): ...``).  Only the plan engine reads
it: while it is off, every entry point of :mod:`repro.nn.plan` declines
its call, and the calling model or stack runs define-by-run.

Every other fast path in the hot-path pass — the fused Linear,
cross-entropy and softmax nodes, cached nearest-neighbour norms — is
always on, and so are the SGD and Adam step kernels, which have no other
path; tests compare each with its general op or reference implementation
in-process.

The flag is a plain attribute on a module-level singleton
(:data:`config`) — one attribute load per check on the hot path, no
function call.  It is process-global, not thread-local: the thread
execution backend runs replicas under one configuration, and toggling
mid-run from another thread is not a supported pattern (tests toggle
around runs, not during).
"""

from __future__ import annotations

import contextlib

__all__ = ["PerfConfig", "config", "configure", "optimizations_disabled"]


class PerfConfig:
    """The hot-path switches (on by default).

    Attributes
    ----------
    plan_capture:
        Trace a model's fit/inference step once into a compiled plan of
        flat ``out=``-style numpy kernels writing into a preallocated
        buffer arena, then replay the plan for every later batch with
        the same signature (:mod:`repro.nn.plan`).  A plan is cached
        only after a trial replay reproduces the reference run's
        post-state bit for bit, and every model with the same structure
        replays it; anything unverifiable falls back to the
        define-by-run path.
    """

    __slots__ = ("plan_capture",)

    def __init__(self, enabled: bool = True):
        self.set_all(enabled)

    def set_all(self, enabled: bool) -> None:
        for name in self.__slots__:
            setattr(self, name, bool(enabled))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


config = PerfConfig()


@contextlib.contextmanager
def configure(**flags: bool):
    """Temporarily override flags: ``with configure(plan_capture=False): ...``."""
    unknown = set(flags) - set(PerfConfig.__slots__)
    if unknown:
        raise TypeError(f"unknown perf flags: {sorted(unknown)}")
    previous = config.as_dict()
    try:
        for name, value in flags.items():
            setattr(config, name, bool(value))
        yield config
    finally:
        for name, value in previous.items():
            setattr(config, name, value)


@contextlib.contextmanager
def optimizations_disabled():
    """Run without plan capture: every step takes the define-by-run path."""
    previous = config.as_dict()
    try:
        config.set_all(False)
        yield config
    finally:
        for name, value in previous.items():
            setattr(config, name, value)
