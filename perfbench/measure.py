"""Summaries behind the benchmark's end-to-end metrics, and the host-speed
probe that scales its timings.

On a shared host the speed of this process's CPU flickers: for a fraction
of a second at a time its physical core is busy with someone else's work
and everything runs up to 1.5× slower, and the share of slow time drifts
over minutes.  Timings are therefore scaled to a reference speed: a fixed
probe of interpreter and small-array numpy work (the mix the workloads
spend their time on) runs next to the measured work, and a time measured
while the probe ran ``k`` times slower than :data:`PROBE_REFERENCE_S` is
divided by ``k``.
"""

from __future__ import annotations

import asyncio
import resource
from contextlib import contextmanager
from time import perf_counter

import numpy as np

__all__ = ["MIN_BEYOND", "PROBE_REFERENCE_S", "samples_beyond",
           "percentile", "failed_ratio", "peak_rss_mb", "probe", "slowdown",
           "probed_event_loops"]

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer make the tail a matter of one or two outliers.
MIN_BEYOND = 10

#: Seconds :func:`probe` takes when its core is not shared (measured on a
#: 2-vCPU Xeon VM; faster hosts simply read as less than 1× slow).
PROBE_REFERENCE_S = 2.5e-4

#: Seconds between probes inside a probed event loop.
PROBE_INTERVAL_S = 0.05

_PROBE_X = np.linspace(-1.0, 1.0, 128 * 16).reshape(128, 16)
_PROBE_W = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)


def samples_beyond(count: int, percent: int) -> int:
    """Samples above the ``percent``-th percentile of ``count`` samples."""
    return count * (100 - percent) // 100


def percentile(samples, percent: int) -> float | None:
    """The ``percent``-th percentile of ``samples``, or None when fewer
    than :data:`MIN_BEYOND` samples lie beyond it."""
    if samples_beyond(len(samples), percent) < MIN_BEYOND:
        return None
    return float(np.percentile(samples, percent))


def failed_ratio(attempted: int, failed: int) -> float:
    """Share of attempted operations that were refused or raised."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_step(step: int) -> float:
    return (float(np.maximum(_PROBE_X @ _PROBE_W, 0.0).sum())
            + sum({key: key * step for key in range(40)}.values()))


def probe() -> float:
    """Seconds to run a fixed quarter millisecond of interpreter and
    small-array numpy work.  One untimed step first brings its code and
    data back into cache, so what the measured work left there matters
    less than how fast the core runs."""
    _probe_step(0)
    start = perf_counter()
    for step in range(20):
        _probe_step(step)
    return perf_counter() - start


def slowdown(probe_seconds) -> float:
    """How many times slower than the reference the probes ran, on
    average; the slowest 5% (at least one of two) are dropped as
    interrupted."""
    kept = sorted(probe_seconds)[:max(1, len(probe_seconds) * 19 // 20)]
    return sum(kept) / len(kept) / PROBE_REFERENCE_S


class _ProbingLoop(asyncio.SelectorEventLoop):
    """An event loop that runs :func:`probe` every
    :data:`PROBE_INTERVAL_S` and appends its time to ``samples``."""

    def __init__(self, samples: list):
        super().__init__()
        self._samples = samples
        self.call_soon(self._probe)

    def _probe(self) -> None:
        self._samples.append(probe())
        self.call_later(PROBE_INTERVAL_S, self._probe)


class _ProbingPolicy(asyncio.DefaultEventLoopPolicy):
    def __init__(self, samples: list):
        super().__init__()
        self._samples = samples

    def new_event_loop(self) -> asyncio.AbstractEventLoop:
        return _ProbingLoop(self._samples)


@contextmanager
def probed_event_loops(samples: list):
    """Every event loop created inside (``asyncio.run`` makes one per
    call) probes host speed into ``samples`` while it runs."""
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(_ProbingPolicy(samples))
    try:
        yield samples
    finally:
        asyncio.set_event_loop_policy(previous)
