"""Throughput measurement (paper Section VI-E).

Figure 10 reports items/second versus batch size; :func:`measure_throughput`
times a learner's combined inference and training, with warm-up
iterations excluded, the way the paper's performance experiments are
framed.  Per-phase latency (Table III) comes from the learner's spans
(:mod:`repro.obs`).
"""

from __future__ import annotations

import time

__all__ = ["measure_throughput"]


def measure_throughput(process_fn, batches, warmup: int = 2) -> float:
    """Items per second of ``process_fn`` (inference + training combined)."""
    batches = list(batches)
    if len(batches) <= warmup:
        raise ValueError(
            f"need more than {warmup} batches to measure throughput; "
            f"got {len(batches)}"
        )
    for batch in batches[:warmup]:
        process_fn(batch)
    items = sum(len(batch) for batch in batches[warmup:])
    start = time.perf_counter()
    for batch in batches[warmup:]:
        process_fn(batch)
    elapsed = time.perf_counter() - start
    return items / max(elapsed, 1e-12)
