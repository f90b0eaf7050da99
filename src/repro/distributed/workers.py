"""Data-parallel FreewayML over pluggable execution backends.

``DistributedLearner`` shards every mini-batch across ``num_workers``
replica learners, lets each replica run the full FreewayML pipeline on its
shard, and periodically synchronizes the replicas by averaging their
granularity-model parameters (synchronous data-parallel training, the
standard scheme for distributed SGD).

*How* the replicas execute is delegated to an
:class:`~repro.distributed.backends.ExecutionBackend`: the default
``"serial"`` backend reproduces the original in-process loop bit for bit,
``"thread"`` runs shards concurrently on per-replica threads (numpy's
dot-product kernels release the GIL), and ``"process"`` forks a worker
pool with shared-memory shard and parameter transport.  ``run`` pipelines
batches up to the backend's in-flight capacity between synchronization
barriers.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from ..api import BaseReport
from ..core.learner import Learner
from ..data.stream import Batch
from ..obs import NULL_OBS, Observability
from .backends import (
    ExecutionBackend,
    flatten_state,
    make_backend,
    state_spec,
    unflatten_state,
)
from .partition import (
    contiguous_partition,
    hash_partition,
    round_robin_partition,
)

__all__ = ["DistributedLearner", "DistributedReport", "average_state_dicts"]

_PARTITIONERS = ("round-robin", "contiguous", "hash")


def average_state_dicts(states: list[dict]) -> dict:
    """Elementwise mean of parameter dictionaries with identical keys.

    Vectorized: every state is flattened to one vector, the vectors are
    stacked, and a single ``mean(axis=0)`` reduces them — one BLAS-friendly
    pass instead of a Python loop of per-key reductions.
    """
    if not states:
        raise ValueError("nothing to average")
    keys = set(states[0])
    for state in states[1:]:
        if set(state) != keys:
            raise ValueError("state_dicts have mismatched keys")
    spec = state_spec(states[0])
    stacked = np.stack([flatten_state(state, spec) for state in states])
    return unflatten_state(stacked.mean(axis=0), spec)


@dataclass(kw_only=True)
class DistributedReport(BaseReport):
    """Per-batch record of a distributed step.

    Extends :class:`~repro.api.BaseReport` with the shard-level view:
    which backend ran the step, whether a parameter-averaging round
    followed it, and each replica's item count / compute seconds.
    """

    kind = "distributed"

    backend: str = "serial"
    synced: bool = False
    worker_items: list = field(default_factory=list)
    worker_seconds: list = field(default_factory=list)
    predict_seconds: float = 0.0
    update_seconds: float = 0.0

    def __post_init__(self):
        self.worker_items = [int(v) for v in self.worker_items]
        self.worker_seconds = [float(v) for v in self.worker_seconds]

    @property
    def ideal_speedup(self) -> float:
        """Serial time / critical path — the parallelism upper bound."""
        slowest = max(self.worker_seconds)
        return sum(self.worker_seconds) / max(slowest, 1e-12)


class DistributedLearner:
    """Data-parallel FreewayML over an execution backend.

    Parameters
    ----------
    model_factory:
        Forwarded to every replica :class:`Learner`.
    num_workers:
        Replica count.
    sync_every:
        Batches between parameter-averaging rounds (1 = synchronous SGD;
        larger values trade consistency for less communication).
    partitioner:
        ``"round-robin"`` (default), ``"contiguous"``, or ``"hash"``.
    backend:
        ``"serial"`` (default, bit-identical to the legacy loop),
        ``"thread"``, ``"process"``, or a pre-configured
        :class:`~repro.distributed.backends.ExecutionBackend` instance.
    obs:
        Optional :class:`~repro.obs.Observability` for coordinator-level
        spans and backend metrics.  Replicas share it directly only
        under the serial backend (sinks are not thread-safe and forked
        children cannot share a JSONL stream); under the thread and
        process backends each replica gets a private in-memory facade
        whose metric deltas and buffered events are shipped back and
        merged into this facade — stamped with a ``worker`` label — at
        every drain/sync boundary and on :meth:`close` (see
        :mod:`repro.obs.live`).
    learner_kwargs:
        Extra keyword arguments for each replica's :class:`Learner`.
    """

    def __init__(self, model_factory, *, num_workers: int = 4,
                 sync_every: int = 1, partitioner: str = "round-robin",
                 backend: str | ExecutionBackend = "serial",
                 seed: int = 0, obs=None, **learner_kwargs):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1; got {num_workers}")
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1; got {sync_every}")
        if partitioner not in _PARTITIONERS:
            raise ValueError(
                f"partitioner must be one of {_PARTITIONERS}; "
                f"got {partitioner!r}"
            )
        self.num_workers = num_workers
        self.sync_every = sync_every
        self.partitioner = partitioner
        self.seed = seed
        self.obs = obs if obs is not None else NULL_OBS
        self.backend = make_backend(backend)
        if self.backend.replicas_share_obs:
            replica_obs = [self.obs] * num_workers
        elif self.obs.enabled:
            # Private facade per replica: safe under threads, travels
            # into forked children, and is drained back into self.obs at
            # sync boundaries by backend.collect_telemetry().
            replica_obs = [Observability.in_memory()
                           for _ in range(num_workers)]
        else:
            replica_obs = [NULL_OBS] * num_workers
        self.workers = [
            Learner(model_factory, seed=seed + worker, obs=replica_obs[worker],
                    **learner_kwargs)
            for worker in range(num_workers)
        ]
        self.backend.bind(self.workers, obs=self.obs)
        self.syncs = 0
        self._batches_seen = 0
        self._strategy_counts: Counter = Counter()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent; serial is a no-op)."""
        self.backend.close()

    def __enter__(self) -> "DistributedLearner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- sharding -------------------------------------------------------------

    def _shards(self, batch: Batch) -> list[np.ndarray]:
        if self.partitioner == "round-robin":
            return round_robin_partition(len(batch), self.num_workers)
        if self.partitioner == "contiguous":
            return contiguous_partition(len(batch), self.num_workers)
        return hash_partition(batch.x, self.num_workers, seed=self.seed)

    def _shard_batches(self, batch: Batch) -> list[Batch]:
        return [batch.subset(shard) for shard in self._shards(batch)]

    # -- the distributed step -------------------------------------------------

    def process(self, batch: Batch) -> DistributedReport:
        """Shard the batch, run each replica, and maybe synchronize."""
        with self.obs.tracer.span("distributed.process", batch=batch.index,
                                  backend=self.backend.name):
            start = time.perf_counter()
            steps = self.backend.run_shards(self._shard_batches(batch))
            self._batches_seen += 1
            synced = False
            if self._batches_seen % self.sync_every == 0:
                self.synchronize()
                synced = True
            report = self._make_report(
                batch, steps, synced=synced,
                latency_s=time.perf_counter() - start,
            )
        self._record_step(report, steps)
        return report

    def _make_report(self, batch: Batch, steps, *, synced: bool,
                     latency_s: float) -> DistributedReport:
        correct = 0.0
        total = 0
        worker_items: list[int] = []
        worker_seconds: list[float] = []
        predict_seconds = 0.0
        update_seconds = 0.0
        strategies: Counter = Counter()
        for step in steps:
            payload = step.report
            items = int(payload["num_items"])
            worker_items.append(items)
            worker_seconds.append(step.seconds)
            predict_seconds += float(payload.get("predict_seconds", 0.0))
            update_seconds += float(payload.get("update_seconds", 0.0))
            strategies[payload.get("strategy", "unknown")] += 1
            if payload.get("accuracy") is not None:
                correct += payload["accuracy"] * items
                total += items
        strategy = strategies.most_common(1)[0][0] if strategies else "unknown"
        self._strategy_counts.update(strategies)
        return DistributedReport(
            batch_index=batch.index,
            num_items=len(batch),
            strategy=strategy,
            accuracy=(correct / total) if total else None,
            latency_s=latency_s,
            backend=self.backend.name,
            synced=synced,
            worker_items=worker_items,
            worker_seconds=worker_seconds,
            predict_seconds=predict_seconds,
            update_seconds=update_seconds,
        )

    def _record_step(self, report: DistributedReport, steps) -> None:
        if not self.obs.enabled:
            return
        # Pull replica-side telemetry up to the coordinator.  No-op for
        # shared facades (serial) and silently skipped while the backend
        # still has batches in flight (pipelined run()).
        self.backend.collect_telemetry()
        self.obs.registry.counter(
            "freeway_backend_batches_total",
            "batches executed, by backend",
        ).labels(backend=self.backend.name).inc()
        stage_hist = self.obs.registry.histogram(
            "freeway_worker_stage_seconds",
            "per-worker stage latency, by backend",
        )
        for worker_index, step in enumerate(steps):
            labels = {"backend": self.backend.name,
                      "worker": str(worker_index)}
            stage_hist.labels(stage="shard", **labels).observe(step.seconds)
            for stage in ("predict_seconds", "update_seconds"):
                value = step.report.get(stage)
                if value:
                    stage_hist.labels(
                        stage=stage.removesuffix("_seconds"), **labels
                    ).observe(float(value))

    # -- pipelined streaming --------------------------------------------------

    def run(self, stream, max_batches: int | None = None
            ) -> list[DistributedReport]:
        """Process a batch iterable, keeping the backend's pipeline full.

        Between synchronization barriers up to ``backend.capacity`` batches
        are in flight at once (the backend's backpressure bound); a
        parameter-averaging round drains everything first, because
        averaging must not overlap replica training.
        """
        reports: list[DistributedReport] = []
        queued: deque = deque()  # (batch, wall-clock submit time)
        for count, batch in enumerate(stream):
            if max_batches is not None and count >= max_batches:
                break
            if self.backend.inflight >= self.backend.capacity:
                self._drain_one(queued, reports, synced=False)
            submitted = time.perf_counter()
            self.backend.submit(self._shard_batches(batch))
            queued.append((batch, submitted))
            self._batches_seen += 1
            if self._batches_seen % self.sync_every == 0:
                while len(queued) > 1:
                    self._drain_one(queued, reports, synced=False)
                self._drain_one(queued, reports, synced=True)
                self.synchronize()
        while queued:
            self._drain_one(queued, reports, synced=False)
        return reports

    def _drain_one(self, queued: deque, reports: list, *,
                   synced: bool) -> None:
        batch, submitted = queued.popleft()
        steps = self.backend.drain()
        report = self._make_report(
            batch, steps, synced=synced,
            latency_s=time.perf_counter() - submitted,
        )
        self._record_step(report, steps)
        reports.append(report)

    # -- parameter synchronization --------------------------------------------

    def synchronize(self) -> None:
        """Average each granularity level's parameters across replicas."""
        # Collect telemetry BEFORE the sync round: the process backend
        # checkpoints replicas at the end of the round, so everything a
        # replica counted up to its checkpoint has been shipped.  A
        # restarted worker resumes from the checkpoint with the telemetry
        # baselines it was forked with and ships only what it counts
        # afterwards: nothing is re-shipped or lost.
        self.backend.collect_telemetry()
        with self.obs.tracer.span("distributed.sync",
                                  backend=self.backend.name):
            for level_index in range(len(self.workers[0].ensemble.levels)):
                states = self.backend.gather_states(level_index)
                self.backend.load_states(
                    level_index, average_state_dicts(states)
                )
        self.syncs += 1
        if self.obs.enabled:
            self.obs.registry.counter(
                "freeway_distributed_syncs_total",
                "parameter-averaging rounds",
            ).inc()

    # -- StreamingEstimator surface -------------------------------------------

    def predict(self, x: np.ndarray):
        """Serve from replica 0 (replicas agree after a sync round).

        Returns the replica's full
        :class:`~repro.core.learner.PredictionResult`; take ``.labels``
        for the bare class array.
        """
        return self.backend.call(0, "predict", np.asarray(x))

    def update(self, x: np.ndarray, y: np.ndarray) -> float | None:
        """Shard a labeled batch and train every replica on its shard.

        Returns the item-weighted mean of the replicas' training losses
        (``None`` if no replica reported one).
        """
        shard_batches = self._shard_batches(
            Batch(np.asarray(x), np.asarray(y), index=self._batches_seen)
        )
        weighted = 0.0
        items = 0
        for worker_index, shard in enumerate(shard_batches):
            loss = self.backend.call(worker_index, "update", shard.x, shard.y)
            if loss is not None:
                weighted += loss * len(shard)
                items += len(shard)
        return (weighted / items) if items else None

    def summary(self) -> dict:
        """Coordinator state as a plain dict (StreamingEstimator protocol).

        Safe to call from another thread while the run loop owns the
        backend (a ``TelemetryServer`` health scrape does exactly that):
        when replicas run their own telemetry facades the knowledge
        count is read from the aggregated ``freeway_knowledge_entries``
        gauge instead of a worker RPC, so no pipe traffic races the
        coordinator.  The gauge lags live state by at most one
        collection boundary (``sync_every`` batches).
        """
        if self.obs.enabled and not self.backend.replicas_share_obs:
            family = self.obs.registry.snapshot().get(
                "freeway_knowledge_entries")
            entries = int(sum(series["value"]
                              for series in family["series"])
                          ) if family else 0
        else:
            # Shared facade (serial) or no telemetry plane: the backend
            # runs inline on this thread, so the exact RPC is safe.
            entries = self.knowledge_entries()
        return {
            "estimator": "distributed",
            "backend": self.backend.name,
            "num_workers": self.num_workers,
            "sync_every": self.sync_every,
            "partitioner": self.partitioner,
            "batches_processed": self._batches_seen,
            "syncs": self.syncs,
            "strategies": dict(self._strategy_counts),
            "knowledge_entries": entries,
        }

    def knowledge_entries(self) -> int:
        """Total knowledge entries across replicas (worker RPC).

        Coordinator-thread only: the process backend's reply pipes are
        FIFO, so calling this concurrently with a running stream would
        interleave replies.  Thread-safe state belongs in
        :meth:`summary`.
        """
        return sum(
            self.backend.call(worker_index, "knowledge_len")
            for worker_index in range(self.num_workers)
        )
