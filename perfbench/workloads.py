"""The benchmark's workloads.

A workload runs in *passes*.  A pass builds fresh program state, feeds it
an untimed warm-up prefix (the pass's set-up), then times the rest of its
inputs.  Every pass of a run receives the same generated inputs, so a
pass is a repeatable unit of work: a stream pass predicts the same labels
batch for batch every time, and its traced counts repeat exactly.

- ``stream-mlp``: ``Learner.process`` on an MLP at batch 1024 over eight
  cycles of the drift schedule (576 batches).  The paper's pipeline at its
  default size; plan capture and replay, ASW completions every 8th batch,
  CEC and knowledge reuse on shifts.
- ``stream-cnn``: the same on the tabular CNN at batch 512 over two cycles
  (144 batches).  The only define-by-run conv/pool path; never
  plan-eligible.
- ``serve-learner``: ``serve_requests`` with 64 requests outstanding, 1000
  Zipf tenants over 64 resident ``Learner`` sessions: registry churn,
  checkpoint save/restore and per-call overhead on 16-row micro-batches.
- ``serve-stacked``: the same loop over 256 Zipf tenants that all stay
  resident, each a ``ModelEstimator(StreamingMLP)`` with stacked execution
  on; half the requests are unlabeled.  The only stacked workload.

Every timing is scaled to the reference speed of ``measure.probe``: a
stream batch by the faster of the probes run just before and after it, a
serving pass by probes its event loop runs every 50 ms.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

from repro.core import Learner
from repro.data.stream import Batch
from repro.models import StreamingCNN, StreamingLR, StreamingMLP
from repro.perf import optimizations_disabled
from repro.serving import (
    MemoryCheckpointStore,
    ModelEstimator,
    ServeConfig,
    SessionRegistry,
    predict_and_update,
    serve_requests,
)

import inputs
import measure
from layers import LayerTracer

__all__ = ["NAMES", "PassResult", "StreamWorkload", "ServingWorkload",
           "make_workload", "outcome_counts"]

NAMES = ("stream-mlp", "stream-cnn", "serve-learner", "serve-stacked")

#: Requests in flight at once: the closed loop's client count.  At 64 the
#: hottest tenant cannot reach ``max_pending_per_tenant`` and nothing is
#: shed.
OUTSTANDING = 64

#: Tenants replayed serially by a serving correctness check from each end
#: of the traffic: the hot head and the cold tail.
REPLAY_SAMPLE = 3


@dataclass
class PassResult:
    """What one pass measured.

    Times are scaled to the probe's reference speed (see ``measure``);
    ``slowdown`` is how much slower than that the host ran while timing.
    ``latencies_s`` has one entry per timed batch or accepted request, in
    input order; a stream batch that raised has ``nan``.  ``digests``
    holds one SHA-256 digest of predicted labels per stream batch.
    """

    setup_s: float
    timed_s: float
    slowdown: float
    rows: int
    latencies_s: list
    attempted: int
    failed: int
    correct_labels: int
    labeled_rows: int
    digests: list | None = None
    layers: dict | None = None

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.timed_s


def outcome_counts(results) -> tuple[int, int]:
    """``(attempted, failed)`` over served requests; shed counts as failed."""
    failed = sum(1 for result in results if not result.accepted)
    return len(results), failed


class _LabelSink:
    """Keeps the labels of the learner's latest predictions.

    Installed on the learner's ``predict`` so the benchmark sees what
    ``Learner.process`` predicted; digesting happens outside timed calls.
    """

    def __init__(self, learner: Learner):
        self.labels = []
        predict = learner.predict

        def keep(x):
            prediction = predict(x)
            self.labels.append(prediction.labels)
            return prediction

        learner.predict = keep

    def drain(self, ys, digests: list) -> int:
        """Digest the kept labels and return how many match ``ys``."""
        correct = 0
        for labels, y in zip(self.labels, ys):
            digests.append(hashlib.sha256(
                np.ascontiguousarray(labels, dtype=np.int64).data).digest())
            correct += int((labels == y).sum())
        self.labels.clear()
        return correct


class StreamWorkload:
    """``Learner.process`` over the drift stream, a fresh learner per pass.

    ``reference_batches`` is how much of the stream the correctness check
    replays with every optimization off.
    """

    latency_of = "batches"

    def __init__(self, seed: int, model_factory, *, batch_size: int,
                 cycles: int, warmup_batches: int, min_passes: int,
                 reference_batches: int):
        self.seed = seed
        self.model_factory = model_factory
        self.batch_size = batch_size
        self.cycles = cycles
        self.warmup_batches = warmup_batches
        self.min_passes = min_passes
        self.reference_batches = reference_batches

    def run_pass(self, traced: bool = False,
                 limit: int | None = None) -> PassResult:
        """One pass over the stream, or over its first ``limit`` batches."""
        stream = itertools.islice(
            inputs.stream_batches(self.seed, self.batch_size, self.cycles),
            limit)
        warmup = [Batch(x, y, index=index) for index, (x, y)
                  in zip(range(self.warmup_batches), stream)]
        digests, probes = [], []
        gc.collect()
        probes.append(measure.probe())
        start = perf_counter()
        learner = Learner(self.model_factory, seed=0)
        sink = _LabelSink(learner)
        setup_s = (perf_counter() - start) / measure.slowdown(probes)
        for batch in warmup:
            setup_s += self._timed(learner.process, batch, probes)
        correct = sink.drain([batch.y for batch in warmup], digests)
        labeled = len(warmup) * self.batch_size
        latencies, failed, timed_rows = [], 0, 0
        first_timed_probe = len(probes) - 1
        tracer = LayerTracer() if traced else None
        with tracer or nullcontext():
            if tracer is not None:
                tracer.instrument_learner(learner)
            for index, (x, y) in enumerate(stream, start=len(warmup)):
                batch = Batch(x, y, index=index)
                try:
                    latencies.append(
                        self._timed(learner.process, batch, probes))
                except Exception:  # counted as failed; the label check then fails the run
                    traceback.print_exc(file=sys.stderr)
                    probes.append(measure.probe())
                    latencies.append(float("nan"))
                    failed += 1
                    sink.labels.clear()
                    continue
                timed_rows += len(y)
                correct += sink.drain([y], digests)
                labeled += len(y)
        return PassResult(
            setup_s=setup_s, timed_s=float(np.nansum(latencies)),
            slowdown=measure.slowdown(probes[first_timed_probe:]),
            rows=timed_rows, latencies_s=latencies,
            attempted=len(latencies), failed=failed, correct_labels=correct,
            labeled_rows=labeled, digests=digests,
            layers=tracer.metrics(learner=learner) if traced else None)

    @staticmethod
    def _timed(process, batch, probes: list) -> float:
        """Seconds ``process(batch)`` took, scaled by the faster of the
        probes just before and just after it (``probes[-1]`` is the one
        before); the slower one may have been interrupted."""
        start = perf_counter()
        process(batch)
        elapsed = perf_counter() - start
        probes.append(measure.probe())
        return elapsed / measure.slowdown(probes[-2:])

    def summarize(self, passes: list[PassResult]) -> tuple[float, list]:
        """``(rows_per_s, latencies)`` with each batch timed at its median
        over the passes.

        Every pass processes identical batches with identical results
        (the label check enforces it), so a batch's times across passes
        are repeated measurements of one cost.
        """
        per_batch = np.nanmedian(np.array([p.latencies_s for p in passes]),
                                 axis=0)
        per_batch = per_batch[np.isfinite(per_batch)]
        return (len(per_batch) * self.batch_size / per_batch.sum(),
                list(per_batch))

    def check(self, passes: list[PassResult]) -> list[str]:
        """Every pass, and a replay of the stream's first
        ``reference_batches`` batches on the reference path (every
        optimization off), must predict the same labels."""
        problems = []
        expected = passes[0].digests
        for number, result in enumerate(passes[1:], start=2):
            if result.digests != expected:
                problems.append(f"pass {number} predicted different labels "
                                f"than pass 1")
        with optimizations_disabled():
            reference = self.run_pass(limit=self.reference_batches)
        if reference.digests != expected[:len(reference.digests)]:
            problems.append("labels differ from the reference path "
                            "(optimizations disabled)")
        return problems


class ServingWorkload:
    """``serve_requests`` as a closed loop, a fresh registry per pass."""

    latency_of = "requests"
    min_passes = 3

    def __init__(self, seed: int, estimator_factory, *, num_tenants: int,
                 num_requests: int, warmup_requests: int, capacity: int,
                 stacked: bool, unlabeled_share: float):
        requests = inputs.serving_requests(
            seed, num_requests=warmup_requests + num_requests,
            num_tenants=num_tenants, unlabeled_share=unlabeled_share)
        self.warmup = requests[:warmup_requests]
        self.requests = requests[warmup_requests:]
        self.tenants = sorted({tenant for tenant, _x, _y in self.requests})
        self.estimator_factory = estimator_factory
        self.capacity = capacity
        self.config = ServeConfig(
            max_active_tenants=capacity, microbatch_size=16,
            microbatch_timeout_s=0.005, max_pending_per_tenant=64,
            stacked_execution=stacked)
        self._last = None

    def _registry(self) -> SessionRegistry:
        return SessionRegistry(lambda _tenant: self.estimator_factory(),
                               capacity=self.capacity,
                               store=MemoryCheckpointStore())

    def run_pass(self, traced: bool = False) -> PassResult:
        gc.collect()
        probes = []
        tracer = LayerTracer() if traced else None
        with measure.probed_event_loops(probes):
            start = perf_counter()
            serve_requests(self.config, self._registry(), self.warmup,
                           window=OUTSTANDING)
            registry = self._registry()
            setup_s = ((perf_counter() - start - sum(probes))
                       / measure.slowdown(probes))
            probes.clear()
            with tracer or nullcontext():
                if tracer is not None:
                    tracer.instrument_registry(registry)
                start = perf_counter()
                results, service = serve_requests(self.config, registry,
                                                  self.requests,
                                                  window=OUTSTANDING)
                elapsed = perf_counter() - start - sum(probes)
        slow = measure.slowdown(probes)
        self._last = (results, service)
        attempted, failed = outcome_counts(results)
        latencies, rows, correct, labeled = [], 0, 0, 0
        for (_tenant, _x, y), result in zip(self.requests, results):
            if not result.accepted:
                continue
            latencies.append(result.latency_s / slow)
            rows += len(result.labels)
            if y is not None:
                correct += int((result.labels == y).sum())
                labeled += len(y)
        return PassResult(
            setup_s=setup_s, timed_s=elapsed / slow, slowdown=slow,
            rows=rows, latencies_s=latencies, attempted=attempted,
            failed=failed, correct_labels=correct, labeled_rows=labeled,
            layers=(tracer.metrics(service=service, tenants=self.tenants)
                    if traced else None))

    @staticmethod
    def summarize(passes: list[PassResult]) -> tuple[float, list]:
        """``(rows_per_s, latencies)``: the median pass rate, and every
        accepted request's latency.

        Coalescing is driven by a timer, so requests are not grouped the
        same way in every pass and are not compared one by one.
        """
        return (statistics.median(p.rows_per_s for p in passes),
                [latency for p in passes for latency in p.latencies_s])

    def replay_sample(self, served: dict) -> list[str]:
        """Hot head and cold tail tenants to replay serially."""
        ranked = sorted(served, key=lambda tenant: (-len(served[tenant]),
                                                    tenant))
        cold = [tenant for tenant in reversed(ranked)
                if len(served[tenant]) >= 2]
        return ranked[:REPLAY_SAMPLE] + cold[:REPLAY_SAMPLE]

    def check(self, passes: list[PassResult]) -> list[str]:
        """Sampled tenants' served labels in the last pass must equal a
        serial replay of their accepted requests, with the served
        micro-batch grouping, through a fresh estimator on the reference
        path (every optimization off)."""
        results, service = self._last
        served = defaultdict(list)
        for (tenant, x, y), result in zip(self.requests, results):
            if result.accepted:
                served[tenant].append((x, y, result.labels))
        problems = []
        for tenant in self.replay_sample(served):
            entries = served[tenant]
            grouping = service.grouping(tenant)
            if sum(grouping) != len(entries):
                problems.append(f"{tenant}: grouping covers {sum(grouping)} "
                                f"requests, {len(entries)} were served")
                continue
            replica = self.estimator_factory()
            replayed, cursor = [], 0
            with optimizations_disabled():
                for size in grouping:
                    chunk = entries[cursor:cursor + size]
                    cursor += size
                    x = np.vstack([entry[0] for entry in chunk])
                    y = (np.concatenate([entry[1] for entry in chunk])
                         if chunk[0][1] is not None else None)
                    replayed.append(predict_and_update(replica, x, y))
            served_labels = np.concatenate([entry[2] for entry in entries])
            if not np.array_equal(served_labels, np.concatenate(replayed)):
                problems.append(f"{tenant}: served labels differ from a "
                                f"serial replay")
        return problems


def _stacked_tenant() -> ModelEstimator:
    return ModelEstimator(StreamingMLP(8, 2, lr=0.3, seed=0))


def make_workload(name: str, seed: int):
    """The named workload with its inputs generated from ``seed``."""
    if name == "stream-mlp":
        # The first two cycles hold 18 long fits on new row counts, enough
        # to fill the plan LRU and evict from it; every pass replays all
        # eight cycles.
        return StreamWorkload(
            seed, partial(StreamingMLP, 16, 4, lr=0.3, seed=0),
            batch_size=1024, cycles=8, warmup_batches=16, min_passes=5,
            reference_batches=144)
    if name == "stream-cnn":
        # Two cycles give the 100 timed batches a p90 needs.  The conv path
        # is never captured, so the first 36 batches (four long fits and
        # the first sudden shift) exercise every op the reference needs.
        return StreamWorkload(
            seed, partial(StreamingCNN, (16,), 4, lr=0.1, seed=0),
            batch_size=512, cycles=2, warmup_batches=8, min_passes=2,
            reference_batches=36)
    if name == "serve-learner":
        tenant = partial(Learner, partial(StreamingLR, 8, 2, lr=0.3, seed=0),
                         num_models=1, window_batches=4, seed=0)
        return ServingWorkload(
            seed, tenant, num_tenants=1000, num_requests=8000,
            warmup_requests=1000, capacity=64, stacked=False,
            unlabeled_share=0.0)
    if name == "serve-stacked":
        return ServingWorkload(
            seed, _stacked_tenant, num_tenants=256, num_requests=16000,
            warmup_requests=2000, capacity=256, stacked=True,
            unlabeled_share=0.5)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
