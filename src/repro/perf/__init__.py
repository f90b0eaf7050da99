"""Hot-path performance layer: the plan-capture switch.

``repro.perf`` is deliberately a *leaf* package: it imports nothing from
:mod:`repro.nn`, :mod:`repro.core`, or :mod:`repro.shift` so those modules
can consult it without cycles.  It holds :data:`config`, the one hot-path
switch, ``plan_capture``, which lets models replay captured step plans
(:mod:`repro.nn.plan`); ``optimizations_disabled()`` turns it off,
leaving the define-by-run path that plans are verified against.

See ``docs/PERF.md`` for the design notes and the benchmark workflow.
"""

from .config import PerfConfig, config, configure, optimizations_disabled

__all__ = [
    "PerfConfig",
    "config",
    "configure",
    "optimizations_disabled",
]
