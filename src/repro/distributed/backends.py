"""Pluggable execution backends for :class:`DistributedLearner`.

The distributed runtime separates *what* runs (replica learners over batch
shards, periodic parameter averaging) from *how* it runs.  Three backends
implement the same contract:

``SerialBackend``
    Replicas run one after another in the calling thread — bit-identical
    to the original in-process loop, and the default.

``ThreadBackend``
    One single-thread executor per replica, so shards of a batch run
    concurrently while each replica's own batches stay strictly ordered.
    The :mod:`repro.nn` hot path is numpy dot products, which release the
    GIL, so threads deliver real parallelism on multi-core hosts without
    any serialization cost.

``ProcessBackend``
    A forked worker pool.  Each child owns one replica; shard features and
    labels travel through pre-allocated shared-memory float64/int64 ring
    slots (one per in-flight batch — the slot count bounds in-flight work,
    which is the pool's backpressure), and parameter averaging runs over a
    shared ``(workers + 1, flat)`` float64 block per granularity level, so
    averaging moves no state through the pipes.  Shards that outgrow
    their slot fall back to pipe transport transparently.  After each
    synchronization round every worker sends its learner checkpoint
    (:func:`~repro.core.persistence.learner_state`), which a restarted
    worker resumes from.

All backends speak report *payloads* (``BaseReport.to_dict`` dicts), which
is what lets a forked child ship its shard report across a pipe and the
coordinator consume serial and process results identically.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import threading
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.persistence import learner_state, restore_learner_state
from ..data.stream import Batch
from ..obs import NULL_OBS, WorkerRestarted, absorb_telemetry, drain_telemetry

__all__ = [
    "WorkerStep",
    "state_spec",
    "flatten_state",
    "unflatten_state",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "make_backend",
]

#: Methods the coordinator may invoke on a single replica via
#: :meth:`ExecutionBackend.call` (the process backend's RPC whitelist).
_WORKER_METHODS = ("predict", "update", "knowledge_len", "summary")


def _invoke(learner, method: str, args: tuple):
    """Run one whitelisted replica method (shared by all backends)."""
    if method == "predict":
        return learner.predict(*args)
    if method == "update":
        return learner.update(*args)
    if method == "knowledge_len":
        return len(learner.knowledge)
    if method == "summary":
        return learner.summary()
    raise ValueError(f"unknown worker method {method!r}; "
                     f"expected one of {_WORKER_METHODS}")


@dataclass
class WorkerStep:
    """One replica's result for one shard: report payload + wall seconds."""

    report: dict
    seconds: float


class ExecutionBackend(abc.ABC):
    """Contract every execution backend implements.

    Lifecycle: the coordinator constructs the backend, calls :meth:`bind`
    with the replica learners, then drives batches through either
    :meth:`run_shards` (synchronous) or :meth:`submit`/:meth:`drain`
    (pipelined, at most :attr:`capacity` batches in flight), interleaved
    with :meth:`gather_states`/:meth:`load_states` synchronization rounds
    and single-replica :meth:`call` RPCs.  :meth:`close` releases pool
    resources; serial has none.
    """

    name = "abstract"
    #: Max in-flight batches for submit/drain pipelining (backpressure).
    capacity = 1
    #: Whether replicas may safely share the coordinator's Observability
    #: facade (only the serial backend: sinks/registries are not
    #: thread-safe, and forked children cannot share a JSONL fd).  When
    #: False, replicas get private in-memory facades whose telemetry is
    #: shipped back through :meth:`collect_telemetry` at drain/sync
    #: boundaries and on :meth:`close`.
    replicas_share_obs = True

    def __init__(self):
        self.learners = []
        self.obs = NULL_OBS
        self._pending: deque = deque()

    def bind(self, learners, obs=None) -> None:
        """Attach the replica learners (and the coordinator's obs)."""
        self.learners = list(learners)
        self.obs = obs if obs is not None else NULL_OBS

    @property
    def num_workers(self) -> int:
        return len(self.learners)

    @property
    def inflight(self) -> int:
        """Submitted batches not yet drained."""
        return len(self._pending)

    # -- batch execution ------------------------------------------------------

    @abc.abstractmethod
    def run_shards(self, shard_batches: list[Batch]) -> list[WorkerStep]:
        """Run one batch's shards (one per replica) and wait for results."""

    def submit(self, shard_batches: list[Batch]) -> None:
        """Queue one batch's shards; default backends execute eagerly."""
        if self.inflight >= self.capacity:
            raise RuntimeError(
                f"{self.name} backend already has {self.inflight} batches "
                f"in flight (capacity {self.capacity}); drain first"
            )
        self._pending.append(self.run_shards(shard_batches))

    def drain(self) -> list[WorkerStep]:
        """Wait for and return the oldest submitted batch's steps."""
        if not self._pending:
            raise RuntimeError("nothing in flight to drain")
        return self._pending.popleft()

    # -- parameter synchronization -------------------------------------------

    def gather_states(self, level_index: int) -> list[dict]:
        """Every replica's ``state_dict`` for one granularity level."""
        self._require_drained("gather_states")
        return [worker.ensemble.levels[level_index].model.state_dict()
                for worker in self.learners]

    def load_states(self, level_index: int, state: dict) -> None:
        """Load one averaged ``state_dict`` into every replica's level."""
        self._require_drained("load_states")
        for worker in self.learners:
            worker.ensemble.levels[level_index].model.load_state_dict(state)

    # -- single-replica RPC ---------------------------------------------------

    def call(self, worker_index: int, method: str, *args):
        """Invoke one whitelisted method on one replica."""
        self._require_drained("call")
        return _invoke(self.learners[worker_index], method, args)

    # -- telemetry aggregation ------------------------------------------------

    def collect_telemetry(self) -> None:
        """Merge replica-facade telemetry into the coordinator's facade.

        Replicas that run with a private :class:`Observability` (every
        backend where :attr:`replicas_share_obs` is False) accumulate
        metrics and events the coordinator cannot see; this drains each
        replica's pending delta and folds it into the root registry with
        a ``worker`` label.  Must only run at fully-drained boundaries —
        with batches in flight the call silently skips (the process
        backend's reply pipe is strictly FIFO, so a mid-flight telemetry
        round trip would corrupt the shard reply stream).
        """
        if not self.obs.enabled or self._pending:
            return
        for worker_index, learner in enumerate(self.learners):
            replica_obs = getattr(learner, "obs", None)
            if (replica_obs is None or replica_obs is self.obs
                    or not replica_obs.enabled):
                continue
            delta, records = drain_telemetry(replica_obs)
            absorb_telemetry(self.obs, delta, records, worker=worker_index)

    def close(self) -> None:
        """Release pool resources (idempotent); flushes replica telemetry."""
        self.collect_telemetry()

    def _require_drained(self, operation: str) -> None:
        if self._pending:
            raise RuntimeError(
                f"{operation} requires all in-flight batches drained; "
                f"{self.inflight} still pending"
            )


class SerialBackend(ExecutionBackend):
    """Replicas run sequentially in the caller's thread (the default).

    This is, byte for byte, the original ``DistributedLearner`` loop: same
    replica order, same state mutations, same averaging inputs — a run
    under ``SerialBackend`` reproduces the legacy results exactly.
    """

    name = "serial"

    def run_shards(self, shard_batches: list[Batch]) -> list[WorkerStep]:
        steps = []
        for learner, shard in zip(self.learners, shard_batches):
            start = time.perf_counter()
            report = learner.process(shard)
            seconds = time.perf_counter() - start
            steps.append(WorkerStep(report.to_dict(), seconds))
        return steps


class ThreadBackend(ExecutionBackend):
    """One single-thread executor per replica.

    Shards of the same batch run concurrently across replicas; each
    replica's own work stays strictly ordered on its dedicated thread, so
    results are deterministic and identical to the serial backend (replica
    state is fully independent between synchronization rounds).  numpy's
    BLAS-bound kernels release the GIL, so the dot-product-heavy
    :mod:`repro.nn` hot path parallelizes across cores.

    Parameters
    ----------
    max_inflight:
        Batches that may be queued before :meth:`drain` blocks (pipelined
        submission between synchronization barriers).
    """

    name = "thread"
    replicas_share_obs = False

    def __init__(self, max_inflight: int = 2):
        super().__init__()
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1; got {max_inflight}")
        self.capacity = max_inflight
        self._pools: list[ThreadPoolExecutor] = []

    def bind(self, learners, obs=None) -> None:
        super().bind(learners, obs)
        self._pools = [
            ThreadPoolExecutor(max_workers=1,
                               thread_name_prefix=f"freeway-worker-{i}")
            for i in range(len(self.learners))
        ]

    @staticmethod
    def _step(learner, shard: Batch) -> WorkerStep:
        start = time.perf_counter()
        report = learner.process(shard)
        return WorkerStep(report.to_dict(), time.perf_counter() - start)

    def run_shards(self, shard_batches: list[Batch]) -> list[WorkerStep]:
        futures = [
            pool.submit(self._step, learner, shard)
            for pool, learner, shard in zip(self._pools, self.learners,
                                            shard_batches)
        ]
        return [future.result() for future in futures]

    def submit(self, shard_batches: list[Batch]) -> None:
        if self.inflight >= self.capacity:
            raise RuntimeError(
                f"thread backend already has {self.inflight} batches in "
                f"flight (capacity {self.capacity}); drain first"
            )
        self._pending.append([
            pool.submit(self._step, learner, shard)
            for pool, learner, shard in zip(self._pools, self.learners,
                                            shard_batches)
        ])

    def drain(self) -> list[WorkerStep]:
        if not self._pending:
            raise RuntimeError("nothing in flight to drain")
        return [future.result() for future in self._pending.popleft()]

    def _require_drained(self, operation: str) -> None:
        # Per-worker pools are strictly ordered, but state access must not
        # overlap a running shard, so the same barrier applies.
        super()._require_drained(operation)

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []
        self.collect_telemetry()  # replica threads are quiesced now


# -- process backend ----------------------------------------------------------


def state_spec(state: dict) -> list[tuple]:
    """``(key, shape, dtype)`` per parameter, in canonical key order.

    The spec is what :func:`flatten_state`/:func:`unflatten_state` agree
    on; coordinator and forked workers compute it independently from the
    same architecture and land on the same layout.
    """
    return [
        (key, np.asarray(state[key]).shape, np.asarray(state[key]).dtype.str)
        for key in sorted(state)
    ]


def flatten_state(state: dict, spec: list[tuple]) -> np.ndarray:
    """Concatenate a ``state_dict``'s parameters into one float64 vector."""
    return np.concatenate([
        np.asarray(state[key], dtype=np.float64).ravel()
        for key, _shape, _dtype in spec
    ]) if spec else np.zeros(0)


def unflatten_state(flat: np.ndarray, spec: list[tuple]) -> dict:
    """Rebuild a ``state_dict`` from :func:`flatten_state`'s vector."""
    state = {}
    offset = 0
    for key, shape, dtype in spec:
        size = int(np.prod(shape)) if shape else 1
        value = flat[offset:offset + size].reshape(shape).astype(dtype)
        state[key] = value
        offset += size
    return state


def _worker_main(conn, worker_index: int, learner, slots, sync_blocks,
                 specs, row_width: int, slot_rows: int):
    """Forked child loop: serve coordinator commands until ``close``.

    ``slots`` is this worker's list of ``(x_buffer, y_buffer)`` ring slots,
    ``sync_blocks`` the per-level shared parameter blocks (rows 0..W-1 are
    per-worker states, row W is the averaged broadcast row).
    """
    x_views = [np.frombuffer(x_buf, dtype=np.float64) for x_buf, _ in slots]
    y_views = [np.frombuffer(y_buf, dtype=np.int64) for _, y_buf in slots]
    sync_views = [
        np.frombuffer(block, dtype=np.float64).reshape(rows, flat)
        for block, rows, flat in sync_blocks
    ]
    while True:
        try:
            # An idle worker parks on the command pipe indefinitely by
            # design; liveness is the parent's job (hang timeout + reap in
            # ProcessBackend), and "close"/EOF both end the loop.
            message = conn.recv()  # repro: noqa[REP010]
        except (EOFError, KeyboardInterrupt):
            break
        command = message[0]
        if command == "close":
            break
        if command == "crash":
            # Fault injection: die exactly as a segfaulting/OOM-killed
            # worker would — no cleanup, no reply, pipe left dangling.
            os._exit(1)
        if command == "sleep":
            # Fault injection: stall without replying (a hung worker).
            time.sleep(message[1])
            continue
        try:
            if command == "process":
                _, slot, rows, tail_shape, labeled, index, pattern = message
                x = (x_views[slot][:rows * row_width]
                     .reshape((rows,) + tuple(tail_shape)).copy())
                y = y_views[slot][:rows].copy() if labeled else None
                batch = Batch(x, y, index=index, pattern=pattern)
                start = time.perf_counter()
                report = learner.process(batch)
                conn.send(("ok", report.to_dict(),
                           time.perf_counter() - start))
            elif command == "process_pipe":
                _, batch = message
                start = time.perf_counter()
                report = learner.process(batch)
                conn.send(("ok", report.to_dict(),
                           time.perf_counter() - start))
            elif command == "push_state":
                _, level = message
                state = learner.ensemble.levels[level].model.state_dict()
                sync_views[level][worker_index] = flatten_state(
                    state, specs[level]
                )
                conn.send(("ok", None))
            elif command == "pull_state":
                _, level = message
                broadcast_row = sync_views[level][-1]
                learner.ensemble.levels[level].model.load_state_dict(
                    unflatten_state(broadcast_row, specs[level])
                )
                conn.send(("ok", None))
            elif command == "snapshot":
                # The replica's learner checkpoint, for crash recovery.
                conn.send(("ok", learner_state(learner)))
            elif command == "call":
                _, method, args = message
                conn.send(("ok", _invoke(learner, method, args)))
            elif command == "telemetry":
                # Ship the replica facade's pending metric delta and
                # buffered event records back to the coordinator.
                delta, records = drain_telemetry(learner.obs)
                conn.send(("ok", delta, records))
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except Exception:  # repro: noqa[REP004] — shipped to the coordinator
            conn.send(("error", traceback.format_exc()))
    conn.close()


class ProcessBackend(ExecutionBackend):
    """Forked worker pool with shared-memory shard and state transport.

    Children are forked lazily on the first data-bearing operation (so the
    shard geometry is known when the ring buffers are sized); before the
    fork, the coordinator's replica copies are canonical and all
    operations run in-process.  After the fork each child owns the live
    replica — the coordinator's ``workers`` list is a stale snapshot.

    The pool is *supervised*: a worker that dies (or, with
    ``hang_timeout`` set, stops responding) is detected while its reply is
    awaited, terminated if still alive, and restarted with exponential
    backoff up to ``max_restarts`` times per worker.  The replacement is
    re-seeded from the last synchronized state (captured at every
    parameter-averaging round), the dead worker's in-flight shards are
    resubmitted in order, and a :class:`~repro.obs.WorkerRestarted` event
    plus a ``freeway_worker_restarts_total`` counter record the recovery.
    With ``sync_every=1`` recovery is exact — the replacement holds
    precisely the state the dead worker had after its last completed
    batch, so the run's accuracy sequence and every worker's parameters
    match a fault-free run.

    Parameters
    ----------
    max_inflight:
        Ring slots per worker; at most this many batches are in flight
        before :meth:`submit` demands a drain (backpressure bound).
    slot_slack:
        Slot capacity as a multiple of the first batch's largest shard.
        Shards that outgrow their slot fall back to pipe transport.
    max_restarts:
        Supervised restarts allowed per worker before the failure
        propagates to the coordinator.
    restart_backoff:
        Base seconds slept before a restart; doubles per restart of the
        same worker (exponential backoff).
    hang_timeout:
        Seconds a reply may take before the worker is declared hung and
        restarted.  ``None`` (default) disables hang detection — only
        process death is supervised — because a legitimate shard has no
        universal latency bound.
    faults:
        Fault injectors consulted before each shard dispatch (see
        :mod:`repro.resilience.faults`); injectors may also append
        themselves via their ``attach`` methods.

    Requires a platform with the ``fork`` start method (Linux/macOS):
    forking is what lets model factories and learners of any kind —
    closures and lambdas included — cross into the children.
    """

    name = "process"
    replicas_share_obs = False

    def __init__(self, max_inflight: int = 2, slot_slack: float = 2.0,
                 max_restarts: int = 2, restart_backoff: float = 0.05,
                 hang_timeout: float | None = None, faults=None):
        super().__init__()
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1; got {max_inflight}")
        if slot_slack < 1.0:
            raise ValueError(f"slot_slack must be >= 1.0; got {slot_slack}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0; got {max_restarts}")
        if restart_backoff < 0:
            raise ValueError(
                f"restart_backoff must be >= 0; got {restart_backoff}"
            )
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be positive; got {hang_timeout}"
            )
        self.capacity = max_inflight
        self.slot_slack = slot_slack
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.hang_timeout = hang_timeout
        self.faults: list = list(faults) if faults is not None else []
        self._started = False
        self._closed = False
        self._context = None
        self._processes: list = []
        self._conns: list = []
        self._x_views: list[list[np.ndarray]] = []
        self._y_views: list[list[np.ndarray]] = []
        self._sync_views: list[np.ndarray] = []
        self._sync_blocks: list[tuple] = []
        self._worker_slots: list[list[tuple]] = []
        self._specs: list[list[tuple]] = []
        self._row_width = 0
        self._slot_rows = 0
        self._sequence = 0
        #: Restarts performed per worker (survives across restarts).
        self.restarts: list[int] = []
        #: Shards awaiting a reply: slot → the submitted shard batches.
        self._inflight_shards: dict[int, list[Batch]] = {}
        #: Flat averaged state per level at the last sync: the restart
        #: seed for a worker that dies before its first snapshot.
        self._last_sync_flat: list[np.ndarray] | None = None
        #: Each worker's learner checkpoint (``learner_state``'s
        #: ``(arrays, meta)``) from the last sync boundary.
        self._worker_states: list = []

    # -- pool lifecycle -------------------------------------------------------

    @staticmethod
    def available() -> bool:
        """Whether this platform supports the fork start method."""
        return "fork" in multiprocessing.get_all_start_methods()

    def _ensure_started(self, shard_batches: list[Batch]) -> None:
        if self._started:
            return
        if self._closed:
            raise RuntimeError("process backend already closed")
        if not self.available():
            raise RuntimeError(
                "the process backend requires the 'fork' start method, "
                "which this platform does not provide; use the thread "
                "backend instead"
            )
        self._warn_if_threads_alive()
        context = multiprocessing.get_context("fork")
        first = shard_batches[0].x
        self._row_width = int(np.prod(first.shape[1:]))
        largest = max(len(shard) for shard in shard_batches)
        self._slot_rows = max(int(largest * self.slot_slack), 1)

        reference = self.learners[0].ensemble.levels
        self._specs = [
            state_spec(level.model.state_dict()) for level in reference
        ]
        sync_blocks = []
        for spec in self._specs:
            flat = int(sum(np.prod(shape) if shape else 1
                           for _key, shape, _dtype in spec))
            rows = self.num_workers + 1  # + the averaged broadcast row
            block = context.RawArray("d", rows * flat)
            sync_blocks.append((block, rows, flat))
        self._sync_views = [
            np.frombuffer(block, dtype=np.float64).reshape(rows, flat)
            for block, rows, flat in sync_blocks
        ]

        self._context = context
        self._sync_blocks = sync_blocks
        for worker_index in range(len(self.learners)):
            slots = []
            for _slot in range(self.capacity):
                x_buf = context.RawArray(
                    "d", self._slot_rows * self._row_width
                )
                y_buf = context.RawArray("q", self._slot_rows)
                slots.append((x_buf, y_buf))
            self._worker_slots.append(slots)
            self._x_views.append([
                np.frombuffer(x_buf, dtype=np.float64) for x_buf, _ in slots
            ])
            self._y_views.append([
                np.frombuffer(y_buf, dtype=np.int64) for _, y_buf in slots
            ])
            self._processes.append(None)
            self._conns.append(None)
            self.restarts.append(0)
            self._worker_states.append(None)
            self._spawn_worker(worker_index)
        self._started = True

    @staticmethod
    def _warn_if_threads_alive() -> None:
        """Warn when forking would duplicate a threaded parent.

        Forking a multi-threaded process is the classic hazard REP009
        flags: every child inherits a snapshot of the parent's memory in
        which the other threads simply vanish — any lock one of them held
        (logging, telemetry registry, HTTP server internals) stays locked
        forever in the child.  The common way to get here is starting
        ``--serve-telemetry`` (a server thread) before the first batch
        reaches a process backend; start the server after the pool, or
        accept that children must never touch the inherited thread state.
        """
        extra = [thread.name for thread in threading.enumerate()
                 if thread is not threading.current_thread()]
        if extra:
            warnings.warn(
                "forking worker processes while other threads are alive "
                f"({', '.join(sorted(extra))}); locks or buffers those "
                "threads hold are copied into the children mid-state — "
                "start thread-based services (e.g. the telemetry server) "
                "after the process pool, or ensure workers never touch "
                "their state",
                RuntimeWarning,
                stacklevel=3,
            )

    def _spawn_worker(self, worker_index: int) -> None:
        """Fork one child for ``worker_index`` over the existing buffers."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, worker_index, self.learners[worker_index],
                  self._worker_slots[worker_index], self._sync_blocks,
                  self._specs, self._row_width, self._slot_rows),
            daemon=True,
            name=f"freeway-worker-{worker_index}",
        )
        process.start()
        child_conn.close()
        self._processes[worker_index] = process
        self._conns[worker_index] = parent_conn

    # -- supervision ----------------------------------------------------------

    def _reap(self, worker_index: int) -> None:
        """Terminate and discard a dead/hung worker's process + pipe."""
        process = self._processes[worker_index]
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=1.0)
        conn = self._conns[worker_index]
        if conn is not None:
            conn.close()

    def _restart_worker(self, worker_index: int, reason: str) -> None:
        """Replace a dead/hung worker: backoff, respawn, re-seed, resubmit.

        The replacement forks from the coordinator's replica copy, which
        is first restored from the worker's learner checkpoint of the
        last sync boundary, or else re-seeded with the last synchronized
        parameters when one exists.  It then receives every in-flight
        shard this worker still owes a reply for — in submission order,
        so the reply stream the drain loop expects is preserved.
        """
        self.restarts[worker_index] += 1
        restarts = self.restarts[worker_index]
        if restarts > self.max_restarts:
            raise RuntimeError(
                f"worker {worker_index} failed ({reason}) and exceeded "
                f"max_restarts={self.max_restarts}"
            )
        self._reap(worker_index)
        if self.restart_backoff:
            time.sleep(self.restart_backoff * (2 ** (restarts - 1)))
        reseeded = False
        snapshot = self._worker_states[worker_index]
        if snapshot is not None:
            # The learner checkpoint from the last sync boundary: the
            # replacement holds exactly the dead worker's state then —
            # training states, windows, experience, detector statistics
            # — so with sync_every=1 recovery is bit-exact.
            restore_learner_state(self.learners[worker_index], *snapshot)
            reseeded = True
        self._spawn_worker(worker_index)
        conn = self._conns[worker_index]
        if not reseeded and self._last_sync_flat is not None:
            for level_index, flat in enumerate(self._last_sync_flat):
                if flat is None:  # this level never synchronized
                    continue
                self._sync_views[level_index][-1] = flat
                conn.send(("pull_state", level_index))
                reply = conn.recv()
                if reply[0] == "error":
                    raise RuntimeError(
                        f"worker {worker_index} failed while re-seeding "
                        f"after restart:\n{reply[1]}"
                    )
            reseeded = True
        resubmitted = 0
        for slot in self._pending:
            self._send_shard(worker_index, slot,
                             self._inflight_shards[slot][worker_index])
            resubmitted += 1
        if self.obs.enabled:
            self.obs.emit(WorkerRestarted(
                worker=worker_index, restarts=restarts, reason=reason,
                resubmitted=resubmitted, reseeded=reseeded,
            ))
            self.obs.registry.counter(
                "freeway_worker_restarts_total",
                "supervised worker restarts, by failure reason",
            ).labels(reason=reason).inc()

    def _receive(self, worker_index: int, resend=None):
        """One supervised reply: restarts the worker on death or hang.

        ``resend`` is the command to replay after a restart for
        request/reply operations (state sync, RPC); shard replies need no
        replay because :meth:`_restart_worker` resubmits every pending
        shard already.
        """
        while True:
            conn = self._conns[worker_index]
            reason = None
            try:
                if self.hang_timeout is not None:
                    if not conn.poll(self.hang_timeout):
                        reason = ("hung"
                                  if self._processes[worker_index].is_alive()
                                  else "crashed")
                if reason is None:
                    reply = conn.recv()
            except (EOFError, ConnectionResetError, BrokenPipeError):
                reason = "crashed"
            if reason is None:
                if reply[0] == "error":
                    raise RuntimeError(
                        f"worker {worker_index} failed:\n{reply[1]}"
                    )
                return reply[1:]
            self._restart_worker(worker_index, reason)
            if resend is not None:
                self._conns[worker_index].send(resend)

    # -- batch execution ------------------------------------------------------

    def _send_shard(self, worker_index: int, slot: int, shard: Batch) -> None:
        conn = self._conns[worker_index]
        rows = len(shard)
        width = int(np.prod(shard.x.shape[1:]))
        if rows > self._slot_rows or width != self._row_width:
            # Oversized or reshaped shard: pipe transport (correct, slower).
            conn.send(("process_pipe", shard))
            return
        flat = np.ascontiguousarray(shard.x, dtype=np.float64).ravel()
        self._x_views[worker_index][slot][:rows * width] = flat
        labeled = shard.labeled
        if labeled:
            self._y_views[worker_index][slot][:rows] = shard.y
        conn.send(("process", slot, rows, tuple(shard.x.shape[1:]),
                   labeled, shard.index, shard.pattern))

    def run_shards(self, shard_batches: list[Batch]) -> list[WorkerStep]:
        self.submit(shard_batches)
        return self.drain()

    def submit(self, shard_batches: list[Batch]) -> None:
        self._ensure_started(shard_batches)
        if self.inflight >= self.capacity:
            raise RuntimeError(
                f"process backend already has {self.inflight} batches in "
                f"flight (capacity {self.capacity}); drain first"
            )
        slot = self._sequence % self.capacity
        sequence = self._sequence
        self._sequence += 1
        # Record the shards *before* dispatching: if a send hits a dead
        # pipe the restart path replays them from this record.
        self._inflight_shards[slot] = list(shard_batches)
        self._pending.append(slot)
        for worker_index, shard in enumerate(shard_batches):
            self._dispatch(worker_index, slot, shard, sequence)

    def _dispatch(self, worker_index: int, slot: int, shard: Batch,
                  sequence: int) -> None:
        """Send one shard, consulting fault injectors first."""
        conn = self._conns[worker_index]
        crash = any(fault.crash_before(worker_index, sequence)
                    for fault in self.faults
                    if hasattr(fault, "crash_before"))
        if crash:
            try:
                conn.send(("crash",))
            except (BrokenPipeError, OSError):
                pass  # already dead: same outcome
            # The shard is deliberately NOT sent: it is lost in flight,
            # and supervision must recover it during drain.
            return
        delay = sum(fault.delay_before(worker_index, sequence)
                    for fault in self.faults
                    if hasattr(fault, "delay_before"))
        try:
            if delay > 0:
                conn.send(("sleep", delay))
            self._send_shard(worker_index, slot, shard)
        except (BrokenPipeError, OSError):
            # Writing to a dead worker: restart now; the restart replays
            # every pending shard (including this one) from the record.
            self._restart_worker(worker_index, "crashed")

    def drain(self) -> list[WorkerStep]:
        if not self._pending:
            raise RuntimeError("nothing in flight to drain")
        steps = []
        for worker_index in range(self.num_workers):
            payload, seconds = self._receive(worker_index)
            steps.append(WorkerStep(payload, seconds))
        slot = self._pending.popleft()
        self._inflight_shards.pop(slot, None)
        return steps

    # -- parameter synchronization -------------------------------------------

    def _broadcast(self, message: tuple) -> None:
        """Send one command to every worker, restarting dead ones."""
        for worker_index in range(self.num_workers):
            try:
                self._conns[worker_index].send(message)
            except (BrokenPipeError, OSError):
                self._restart_worker(worker_index, "crashed")
                self._conns[worker_index].send(message)

    def gather_states(self, level_index: int) -> list[dict]:
        if not self._started:
            return super().gather_states(level_index)
        self._require_drained("gather_states")
        message = ("push_state", level_index)
        self._broadcast(message)
        for worker_index in range(self.num_workers):
            self._receive(worker_index, resend=message)
        spec = self._specs[level_index]
        block = self._sync_views[level_index]
        return [unflatten_state(block[worker_index], spec)
                for worker_index in range(self.num_workers)]

    def load_states(self, level_index: int, state: dict) -> None:
        if not self._started:
            super().load_states(level_index, state)
            return
        self._require_drained("load_states")
        spec = self._specs[level_index]
        flat = flatten_state(state, spec)
        self._sync_views[level_index][-1] = flat
        # Remember the broadcast state: it is the restart seed that makes
        # a replacement worker pick up exactly where the pool last agreed.
        if self._last_sync_flat is None:
            self._last_sync_flat = [None] * len(self._specs)
        self._last_sync_flat[level_index] = flat.copy()
        message = ("pull_state", level_index)
        self._broadcast(message)
        for worker_index in range(self.num_workers):
            self._receive(worker_index, resend=message)
        if level_index == len(self._specs) - 1 and self.max_restarts > 0:
            # The sync round just completed (levels are loaded in order):
            # checkpoint every replica so a restart can resume from
            # exactly this boundary.
            self._snapshot_workers()

    def _snapshot_workers(self) -> None:
        """Collect every worker's learner checkpoint."""
        message = ("snapshot",)
        self._broadcast(message)
        for worker_index in range(self.num_workers):
            (self._worker_states[worker_index],) = self._receive(
                worker_index, resend=message)

    # -- telemetry aggregation ------------------------------------------------

    def collect_telemetry(self) -> None:
        """Drain every forked worker's telemetry over the reply pipe.

        Skips silently while shards are in flight (the pipe is FIFO; a
        telemetry reply would interleave with pending shard replies) and
        after close.  A worker that died is restarted by the usual
        supervision path and the request replayed, so a crash between
        boundaries cannot wedge collection.
        """
        if not self._started:
            super().collect_telemetry()
            return
        if not self.obs.enabled or self._pending or self._closed:
            return
        message = ("telemetry",)
        self._broadcast(message)
        for worker_index in range(self.num_workers):
            delta, records = self._receive(worker_index, resend=message)
            absorb_telemetry(self.obs, delta, records, worker=worker_index)

    # -- single-replica RPC ---------------------------------------------------

    def call(self, worker_index: int, method: str, *args):
        if not self._started:
            return super().call(worker_index, method, *args)
        self._require_drained("call")
        message = ("call", method, args)
        try:
            self._conns[worker_index].send(message)
        except (BrokenPipeError, OSError):
            self._restart_worker(worker_index, "crashed")
            self._conns[worker_index].send(message)
        (result,) = self._receive(worker_index, resend=message)
        return result

    def close(self) -> None:
        if self._closed:
            return
        if self._started and not self._pending:
            # Final telemetry flush: whatever the workers accumulated
            # since the last boundary must not die with them.
            try:
                self.collect_telemetry()
            except Exception:  # repro: noqa[REP004] — a worker beyond
                pass  # max_restarts must not block shutdown
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                continue
        deadline = time.monotonic() + 5.0
        for process in self._processes:
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._processes = []
        self._conns = []
        self._started = False

    def __del__(self):  # best-effort cleanup; daemons die with the parent
        try:
            self.close()
        except Exception:  # repro: noqa[REP004] — interpreter teardown
            pass


BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def make_backend(backend, **options) -> ExecutionBackend:
    """Resolve a backend name (or pass through an instance)."""
    if isinstance(backend, ExecutionBackend):
        if options:
            raise ValueError(
                "backend options only apply when the backend is named; "
                "configure the instance directly"
            )
        return backend
    try:
        backend_cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(BACKENDS)} or an ExecutionBackend instance"
        ) from None
    return backend_cls(**options)
