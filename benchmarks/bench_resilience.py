"""Resilience bench — accuracy and latency under injected faults.

FreewayML targets "dynamic data streams", which in production means
streams that misbehave: dead workers, stalled batches, NaN bursts,
corrupted checkpoints.  This script measures what each canonical fault
costs the pipeline once the resilience layer absorbs it — the accuracy
delta versus a fault-free run and the wall-clock overhead of recovery::

    PYTHONPATH=src python benchmarks/bench_resilience.py
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke  # CI

Scenarios (each deterministic — explicit schedules or fixed seeds):

- ``baseline``       — fault-free run of the same workload;
- ``dirty-data``     — NaN/inf cells on a fraction of batches, absorbed
  by the learner's input sanitization (``degrade=True``);
- ``corrupt-ckpt``   — every preserved knowledge entry mangled; restores
  are rejected by the compat gate and the learner downgrades;
- ``worker-crash``   — a distributed worker killed mid-stream and
  recovered from the last sync checkpoint (needs the fork backend);
- ``slow-batch``     — a hung worker detected via ``hang_timeout`` and
  restarted (needs the fork backend).

The distributed scenarios additionally verify that the recovered run
matches the serial reference exactly — its accuracy sequence and every
worker's parameters, byte for byte — so the bench doubles as an
end-to-end recovery check; a mismatch exits 1.
"""

import argparse
import time

import numpy as np

from conftest import SEED, print_banner
from repro.core import Learner
from repro.data import ElectricitySimulator
from repro.distributed import DistributedLearner, ProcessBackend
from repro.eval import format_table, model_factory_for
from repro.resilience import (
    CorruptCheckpoint,
    DirtyData,
    SlowBatch,
    WorkerCrash,
)

NUM_BATCHES = 40
BATCH_SIZE = 256
NUM_WORKERS = 3

_GENERATOR = ElectricitySimulator(seed=SEED)


def _factory():
    return model_factory_for("lr", _GENERATOR.num_features,
                             _GENERATOR.num_classes, lr=0.3)


def _mlp_factory():
    return model_factory_for("mlp", _GENERATOR.num_features,
                             _GENERATOR.num_classes, lr=0.3)


def _batches(num_batches, batch_size):
    return (ElectricitySimulator(seed=SEED)
            .stream(num_batches, batch_size).materialize())


def _timed_serial(batches, *, transform=None, attach=None, degrade=True):
    """Run a single learner over ``batches``; returns (accuracies, wall)."""
    learner = Learner(_factory(), window_batches=8, seed=SEED,
                      degrade=degrade)
    if attach is not None:
        attach(learner)
    accuracies = []
    start = time.perf_counter()
    for batch in batches:
        if transform is not None:
            batch = transform(batch)
        accuracies.append(learner.process(batch).accuracy)
    return accuracies, time.perf_counter() - start


def _timed_distributed(batches, backend):
    """Run a distributed learner over ``batches``; returns (accuracies,
    wall, parameters): every worker's parameter bytes per granularity
    level at the end."""
    learner = DistributedLearner(_mlp_factory(), num_workers=NUM_WORKERS,
                                 backend=backend, seed=SEED,
                                 window_batches=8)
    accuracies = []
    start = time.perf_counter()
    try:
        for batch in batches:
            accuracies.append(learner.process(batch).accuracy)
        wall = time.perf_counter() - start
        parameters = [
            [{name: value.tobytes() for name, value in state.items()}
             for state in learner.backend.gather_states(level)]
            for level in range(len(learner.workers[0].ensemble.levels))]
    finally:
        learner.close()
    return accuracies, wall, parameters


def _mean(accuracies):
    return float(np.mean([a for a in accuracies if a is not None]))


def run_serial_scenarios(num_batches, batch_size):
    """The single-learner scenarios; returns rows of
    (name, accuracies, wall, note)."""
    batches = _batches(num_batches, batch_size)
    rows = []

    accuracies, wall = _timed_serial(batches)
    rows.append(("baseline", accuracies, wall, ""))

    dirty = DirtyData(rate=0.25, cells=24, seed=SEED)
    accuracies, wall = _timed_serial(batches, transform=dirty)
    rows.append(("dirty-data", accuracies, wall,
                 f"{len(dirty.fired)} dirty batches sanitized"))

    corrupt = CorruptCheckpoint(rate=1.0, seed=SEED)
    accuracies, wall = _timed_serial(
        batches, attach=lambda learner: corrupt.attach(learner.knowledge)
    )
    rows.append(("corrupt-ckpt", accuracies, wall,
                 f"{len(corrupt.fired)} checkpoints mangled"))
    return rows


def run_distributed_scenarios(num_batches, batch_size):
    """The process-backend scenarios; returns (rows, all_matched)."""
    batches = _batches(num_batches, batch_size)
    serial, serial_wall, serial_parameters = _timed_distributed(batches,
                                                                "serial")
    rows = [("dist-baseline", serial, serial_wall, "serial reference")]
    matched = True

    crash_backend = ProcessBackend(max_restarts=3)
    WorkerCrash(at={num_batches // 2}, worker=1).attach(crash_backend)
    accuracies, wall, parameters = _timed_distributed(batches, crash_backend)
    crash_match = accuracies == serial and parameters == serial_parameters
    matched &= crash_match
    rows.append(("worker-crash", accuracies, wall,
                 f"restarts={crash_backend.restarts}, "
                 f"serial-identical={crash_match}"))

    hang_backend = ProcessBackend(max_restarts=3, hang_timeout=1.0)
    SlowBatch(at={num_batches // 2}, worker=0, delay=30.0).attach(
        hang_backend)
    accuracies, wall, parameters = _timed_distributed(batches, hang_backend)
    hang_match = accuracies == serial and parameters == serial_parameters
    matched &= hang_match
    rows.append(("slow-batch", accuracies, wall,
                 f"restarts={hang_backend.restarts}, "
                 f"serial-identical={hang_match}"))
    return rows, matched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="accuracy/latency under injected faults"
    )
    parser.add_argument("--batches", type=int, default=NUM_BATCHES)
    parser.add_argument("--batch-size", type=int, default=BATCH_SIZE,
                        dest="batch_size")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI workload, skip the hang scenario's "
                             "long timeout margin")
    parser.add_argument("--no-fork", action="store_true", dest="no_fork",
                        help="skip the process-backend scenarios")
    args = parser.parse_args(argv)
    if args.smoke:
        args.batches = min(args.batches, 10)
        args.batch_size = min(args.batch_size, 128)

    print_banner(
        f"Resilience under injected faults — {args.batches} batches "
        f"x {args.batch_size}"
    )
    rows = run_serial_scenarios(args.batches, args.batch_size)
    fork_ok = ProcessBackend.available() and not args.no_fork
    matched = True
    if fork_ok:
        dist_rows, matched = run_distributed_scenarios(
            args.batches, args.batch_size
        )
        rows.extend(dist_rows)
    else:
        print("(process backend unavailable — distributed scenarios "
              "skipped)\n")

    baseline = _mean(rows[0][1])
    table = [
        [name, f"{_mean(accuracies) * 100:.2f}%",
         f"{(_mean(accuracies) - baseline) * 100:+.2f}",
         f"{wall:.2f}s", note]
        for name, accuracies, wall, note in rows
    ]
    print(format_table(
        ["scenario", "G_acc", "delta pts", "wall", "notes"], table
    ))

    if fork_ok and not matched:
        print("\nERROR: a recovered distributed run diverged from the "
              "serial reference (accuracies or worker parameters)")
        return 1
    print("\nall injected faults absorbed; no uncaught exceptions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
