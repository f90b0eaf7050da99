"""Hot-path performance layer: feature flags and the stage profiler.

``repro.perf`` is deliberately a *leaf* package: it imports nothing from
:mod:`repro.nn`, :mod:`repro.core`, or :mod:`repro.shift` so those modules
can consult it without cycles.  It bundles three things:

- :data:`config` — global feature flags for every optimization introduced
  by the hot-path pass (autograd tape, fused linear, grad ownership,
  in-place optimizers, cached nearest-neighbour norms).  Each flag gates
  one optimization whose output is bitwise-identical to the legacy path;
  ``optimizations_disabled()`` restores the reference implementation
  wholesale so equivalence tests can diff the two.
- :func:`can_own` — the aliasing oracle that lets ``grad_ownership`` adopt
  a private gradient buffer instead of copying it.
- :class:`HotPathProfiler` — per-stage wall-clock aggregation for
  :meth:`Learner.process`, feeding the ``freeway_hot_path_seconds{stage}``
  histogram when an :class:`~repro.obs.Observability` facade is attached
  (see ``run --profile``).

See ``docs/PERF.md`` for the design notes and the benchmark workflow.
"""

from .config import (PerfConfig, config, configure, optimizations_disabled,
                     optimizations_enabled)
from .ownership import can_own
from .profile import HOT_PATH_HISTOGRAM, PLAN_CACHE_COUNTER, HotPathProfiler

__all__ = [
    "PerfConfig",
    "config",
    "configure",
    "optimizations_disabled",
    "optimizations_enabled",
    "can_own",
    "HotPathProfiler",
    "HOT_PATH_HISTOGRAM",
    "PLAN_CACHE_COUNTER",
]
