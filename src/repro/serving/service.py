"""The asyncio serving front end: admission control and micro-batching.

:class:`StreamingService` multiplexes per-tenant request streams onto one
process.  Requests for a tenant coalesce into micro-batches (count-based
flush, with a timeout bounding the age of a partial batch); bounded
per-tenant and global pending queues shed load by policy
(:data:`~repro.serving.config.SHED_POLICIES`); a
per-tenant circuit breaker stops admitting a tenant whose requests keep
failing; and an optional watermark couples queue pressure to the PR-4
degrade chain (resident estimators flip into graceful degradation when the
global queue saturates).

Everything runs on one event loop — submissions and the single dispatcher
task interleave cooperatively, so no locks guard service state and
per-tenant processing is serial by construction.  That serial order is
what makes serving *reproducible*: :meth:`StreamingService.grouping`
records how many requests each processed micro-batch coalesced, so a
tenant's accepted requests replayed serially through a fresh estimator
with the same groupings produce byte-identical predictions (the
``bench_serving`` equivalence assertion).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..obs import NULL_OBS, RequestShed
from ..resilience.degrade import CircuitBreaker
from .config import ServeConfig
from .registry import SessionRegistry
from .stacked import execute_stacked, plan_stacked_groups, stacking_key

__all__ = ["ServeResult", "StreamingService", "predict_and_update",
           "serve_requests"]


def predict_and_update(estimator, x, y=None) -> np.ndarray:
    """One prequential serving step; returns the predicted labels.

    Mirrors :meth:`~repro.core.learner.Learner.process` exactly — predict,
    then (for labeled requests) update with the prediction's embedding so
    the PCA projection is not recomputed — without building a report.  The
    serial replay in ``bench_serving`` uses this same helper, which is
    what makes served and serial prediction sequences comparable.
    """
    prediction = estimator.predict(x)
    labels = np.asarray(getattr(prediction, "labels", prediction))
    if y is not None:
        assessment = getattr(prediction, "assessment", None)
        if assessment is not None:
            estimator.update(x, y, embedding=assessment.embedding)
        else:
            estimator.update(x, y)
    return labels


@dataclass
class ServeResult:
    """Outcome of one submitted request."""

    tenant: str
    #: ``"ok"`` (served), ``"shed"`` (admission control refused it), or
    #: ``"failed"`` (admitted but processing raised / input was invalid).
    status: str
    reason: str = ""
    #: Predicted labels for the request's rows (``status == "ok"`` only).
    labels: np.ndarray | None = None
    #: Per-tenant index of the micro-batch that served this request.
    batch_index: int = -1
    #: Requests coalesced into that micro-batch.
    group_size: int = 0
    #: Submit-to-resolve wall time.
    latency_s: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.status == "ok"


class _Request:
    __slots__ = ("x", "y", "rows", "future", "submitted_at")

    def __init__(self, x, y, future):
        self.x = x
        self.y = y
        self.rows = len(x)
        self.future = future
        self.submitted_at = time.perf_counter()


@dataclass
class _TenantState:
    """Per-tenant serving state, owned by the event loop."""

    pending: deque = field(default_factory=deque)
    pending_rows: int = 0
    #: True while the tenant sits in the dispatch work queue.
    signaled: bool = False
    #: Monotonic flush-timer generation; stale timer callbacks no-op.
    timer_generation: int = 0
    #: Micro-batches processed (the per-tenant batch index sequence).
    batches: int = 0
    #: Requests coalesced per processed micro-batch, in order.
    grouping: list = field(default_factory=list)
    #: Serializes same-tenant submitters (FIFO under the block policy).
    gate: asyncio.Lock = field(default_factory=asyncio.Lock)


class StreamingService:
    """Multi-tenant serving: admission → micro-batching → session registry.

    Construct with a :class:`~repro.serving.ServeConfig` and a
    :class:`~repro.serving.SessionRegistry` (whose capacity bounds
    resident estimators), then drive it from a running event loop::

        service = StreamingService(config, registry)
        await service.start()
        result = await service.submit("tenant-7", x, y)
        await service.stop()

    or use :func:`serve_requests` for a synchronous batch of requests.
    """

    def __init__(self, config: ServeConfig, registry: SessionRegistry,
                 obs=None):
        self.config = config
        self.registry = registry
        self.obs = obs if obs is not None else NULL_OBS
        self.breaker = CircuitBreaker(threshold=config.breaker_threshold,
                                      cooldown=config.breaker_cooldown)
        self._tenants: dict[str, _TenantState] = {}
        self._work: asyncio.Queue = asyncio.Queue()
        self._capacity_freed = asyncio.Event()
        self._pending_total = 0
        self._dispatcher: asyncio.Task | None = None
        self._degrading = False
        self.requests_ok = 0
        self.requests_shed = 0
        self.requests_failed = 0
        #: Micro-batches served through a stacked program / groups formed.
        self.batches_stacked = 0
        self.stacked_groups = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._dispatcher is not None:
            raise RuntimeError("service already started")
        if self.registry.on_activate is None:
            self.registry.on_activate = self._on_activate
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop())

    async def stop(self) -> None:
        """Drain every pending request, stop dispatching, close sessions."""
        if self._dispatcher is None:
            return
        while self._pending_total and not self._dispatcher.done():
            for tenant, state in self._tenants.items():
                if state.pending and not state.signaled:
                    self._signal(tenant)
            await asyncio.sleep(0)  # let the dispatcher drain
        await self._work.put(None)
        await self._dispatcher
        self._dispatcher = None
        self.registry.close()

    async def __aenter__(self) -> "StreamingService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- admission -----------------------------------------------------------

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    @staticmethod
    def _validate(x, y):
        """Normalize one request's payload; raises ValueError when bad.

        The only validation a request gets: coalesced micro-batches go
        to the estimator as they are.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
            raise ValueError(f"x must be a non-empty 2-D batch; got shape "
                             f"{x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("x contains non-finite values")
        if y is not None:
            try:
                y = np.asarray(y, dtype=np.int64).reshape(-1)
            except TypeError as exc:
                raise ValueError(f"y must be integer labels: {exc}") from exc
            if len(y) != len(x):
                raise ValueError(
                    f"y has {len(y)} labels for {len(x)} rows")
        return x, y

    def _shed(self, tenant: str, reason: str,
              request: _Request | None = None) -> ServeResult:
        self.requests_shed += 1
        result = ServeResult(tenant=tenant, status="shed", reason=reason)
        if request is not None:
            result.latency_s = time.perf_counter() - request.submitted_at
            if not request.future.done():
                request.future.set_result(result)
        if self.obs.enabled:
            self.obs.emit(RequestShed(tenant=tenant, reason=reason,
                                      pending=self._pending_total))
            self._count_request("shed", tenant)
        return result

    def _count_request(self, outcome: str, tenant: str) -> None:
        counter = self.obs.registry.counter(
            "freeway_serving_requests_total", "serving requests by outcome",
        )
        if self.config.tenant_metrics:
            counter.labels(outcome=outcome, tenant=tenant).inc()
        else:
            counter.labels(outcome=outcome).inc()

    async def submit(self, tenant: str, x, y=None) -> ServeResult:
        """Submit one request; resolves when served, shed, or failed.

        ``y`` labels make the request prequential (predict, then train on
        it); ``y=None`` is inference-only.  Requests of one tenant are
        served in submission order; labeled and unlabeled requests never
        share a micro-batch.
        """
        if self._dispatcher is None:
            raise RuntimeError("service is not started")
        try:
            x, y = self._validate(x, y)
        except ValueError as exc:
            self.requests_failed += 1
            if self.obs.enabled:
                self._count_request("failed", tenant)
            return ServeResult(tenant=tenant, status="failed",
                               reason=f"invalid-input: {exc}")
        state = self._state(tenant)
        async with state.gate:
            if self.breaker.is_open(tenant):
                return self._shed(tenant, "circuit-open")
            admitted = await self._admit(tenant, state)
            if not admitted:
                return self._shed(tenant, admitted.reason)
            future = asyncio.get_running_loop().create_future()
            request = _Request(x, y, future)
            state.pending.append(request)
            state.pending_rows += request.rows
            self._pending_total += 1
            self._apply_pressure()
            if state.pending_rows >= self.config.microbatch_size:
                self._signal(tenant)
            elif len(state.pending) == 1 and not state.signaled:
                # The queue just became non-empty: the batch's age counts
                # from this, its oldest request.
                self._arm_timer(tenant, state,
                                self.config.microbatch_timeout_s)
        return await future

    class _Admission:
        """Truthy when admitted; carries the shed reason otherwise."""

        __slots__ = ("ok", "reason")

        def __init__(self, ok: bool, reason: str = ""):
            self.ok = ok
            self.reason = reason

        def __bool__(self) -> bool:
            return self.ok

    async def _admit(self, tenant: str, state: _TenantState) -> "_Admission":
        config = self.config
        policy = config.shed_policy
        while True:
            tenant_full = len(state.pending) >= config.max_pending_per_tenant
            global_full = self._pending_total >= config.max_pending_total
            if not tenant_full and not global_full:
                return self._Admission(True)
            if policy == "reject":
                return self._Admission(
                    False, "tenant-queue-full" if tenant_full
                    else "global-queue-full")
            if policy == "oldest":
                if state.pending:
                    displaced = state.pending.popleft()
                    state.pending_rows -= displaced.rows
                    self._pending_total -= 1
                    self._shed(tenant, "displaced", displaced)
                    continue
                # Nothing of this tenant's to displace: the pressure is
                # global and belongs to other tenants' queues.
                return self._Admission(False, "global-queue-full")
            # policy == "block": wait for the dispatcher to free capacity.
            self._capacity_freed.clear()
            await self._capacity_freed.wait()

    def _signal(self, tenant: str) -> None:
        state = self._tenants[tenant]
        if not state.signaled:
            state.signaled = True
            state.timer_generation += 1  # cancel any armed flush timer
            self._work.put_nowait(tenant)

    def _arm_timer(self, tenant: str, state: _TenantState,
                   delay: float) -> None:
        state.timer_generation += 1
        generation = state.timer_generation
        asyncio.get_running_loop().call_later(
            delay, self._timer_fired, tenant, generation)

    def _timer_fired(self, tenant: str, generation: int) -> None:
        state = self._tenants.get(tenant)
        if (state is None or state.timer_generation != generation
                or state.signaled or not state.pending):
            return
        self._signal(tenant)

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            tenant = await self._work.get()
            if tenant is None:
                return
            ready = [tenant]
            stopping = False
            if self.config.stacked_execution:
                # Drain every already-signaled tenant so same-architecture
                # micro-batches that are ready together can co-schedule.
                while True:
                    try:
                        extra = self._work.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is None:
                        # stop() only enqueues the sentinel once nothing is
                        # pending; finish this round, then exit.
                        stopping = True
                        break
                    ready.append(extra)
            jobs = []
            for name in ready:
                state = self._tenants[name]
                state.signaled = False
                requests = self._take_microbatch(state)
                if requests:
                    jobs.append((name, state, requests))
            if jobs:
                self._process_round(jobs)
                self._capacity_freed.set()
                self._apply_pressure()
            for name in ready:
                state = self._tenants[name]
                if state.pending_rows >= self.config.microbatch_size:
                    self._signal(name)
                elif state.pending:
                    # A partial take: the remainder is due when its oldest
                    # request reaches the timeout.
                    deadline = (state.pending[0].submitted_at
                                + self.config.microbatch_timeout_s)
                    self._arm_timer(name, state,
                                    max(0.0, deadline - time.perf_counter()))
            if stopping:
                return
            # Yield so queued submitters interleave with dispatch.
            await asyncio.sleep(0)

    def _take_microbatch(self, state: _TenantState) -> list[_Request]:
        """Pop whole requests until the row target is met.

        Labeled and unlabeled requests never mix (a coalesced micro-batch
        is labeled or not as a unit), and at least one request is always
        taken, so an oversized single request still dispatches.
        """
        taken: list[_Request] = []
        rows = 0
        labeled: bool | None = None
        while state.pending and rows < self.config.microbatch_size:
            request = state.pending[0]
            request_labeled = request.y is not None
            if labeled is not None and request_labeled != labeled:
                break
            labeled = request_labeled
            state.pending.popleft()
            taken.append(request)
            rows += request.rows
        state.pending_rows -= rows
        self._pending_total -= len(taken)
        return taken

    def _process_with(self, tenant: str, state: _TenantState,
                      requests: list[_Request], estimator) -> None:
        """Serve one coalesced micro-batch on an already-pinned estimator.

        Estimator exceptions propagate; callers resolve them through
        :meth:`_resolve_failure`.
        """
        x = np.vstack([request.x for request in requests])
        y = (np.concatenate([request.y for request in requests])
             if requests[0].y is not None else None)
        labels = predict_and_update(estimator, x, y)
        self._resolve_success(tenant, state, requests, labels)

    def _resolve_failure(self, tenant: str, state: _TenantState,
                         requests: list[_Request], exc: Exception) -> None:
        self.breaker.record_failure(tenant)
        self.requests_failed += len(requests)
        reason = f"{type(exc).__name__}: {exc}"
        batch_index = state.batches
        for request in requests:
            if not request.future.done():
                request.future.set_result(ServeResult(
                    tenant=tenant, status="failed", reason=reason,
                    batch_index=batch_index,
                    group_size=len(requests),
                    latency_s=(time.perf_counter()
                               - request.submitted_at),
                ))
        if self.obs.enabled:
            for _ in requests:
                self._count_request("failed", tenant)

    def _resolve_success(self, tenant: str, state: _TenantState,
                         requests: list[_Request], labels) -> None:
        self.breaker.record_success(tenant)
        batch_index = state.batches
        state.batches += 1
        state.grouping.append(len(requests))
        self.requests_ok += len(requests)
        offset = 0
        now = time.perf_counter()
        for request in requests:
            request_labels = labels[offset:offset + request.rows]
            offset += request.rows
            if not request.future.done():
                request.future.set_result(ServeResult(
                    tenant=tenant, status="ok",
                    labels=request_labels, batch_index=batch_index,
                    group_size=len(requests),
                    latency_s=now - request.submitted_at,
                ))
        if self.obs.enabled:
            histogram = self.obs.registry.histogram(
                "freeway_serving_latency_seconds",
                "submit-to-resolve request latency",
            )
            for request in requests:
                self._count_request("ok", tenant)
                histogram.observe(now - request.submitted_at)

    # -- stacked co-scheduling -----------------------------------------------

    def _process_round(self, jobs: list) -> None:
        """Serve one dispatch round: each ready tenant's micro-batch.

        Micro-batches sharing a :func:`~repro.serving.stacked.stacking_key`
        execute through one stacked tensor program (bitwise-equivalent per
        tenant to the serial path); everything else — a one-tenant round,
        and any group whose stacked execution fails — runs serially, per
        tenant.
        """
        entries = []
        pinned = []
        for tenant, state, requests in jobs:
            self.breaker.tick()
            try:
                estimator = self.registry.acquire(tenant)
            except Exception as exc:  # repro: noqa[REP004] — an activation failure is this tenant's failure, not the round's
                self._resolve_failure(tenant, state, requests, exc)
                continue
            pinned.append(tenant)
            entries.append((tenant, state, requests, estimator))
        try:
            groups, singles = plan_stacked_groups(
                entries,
                key_of=lambda entry: stacking_key(
                    entry[3],
                    rows=sum(request.rows for request in entry[2]),
                    labeled=entry[2][0].y is not None))
            for group in groups:
                self._run_stacked_group(group)
            for tenant, state, requests, estimator in singles:
                self._run_serial_job(tenant, state, requests, estimator)
        finally:
            for tenant in pinned:
                self.registry.release(tenant)

    def _run_serial_job(self, tenant: str, state: _TenantState,
                        requests: list[_Request], estimator) -> None:
        try:
            self._process_with(tenant, state, requests, estimator)
        except Exception as exc:  # repro: noqa[REP004] — one tenant's failure must not kill the dispatch round
            self._resolve_failure(tenant, state, requests, exc)

    def _run_stacked_group(self, group: list) -> None:
        try:
            labels = execute_stacked(
                [entry[3] for entry in group],
                [np.vstack([request.x for request in entry[2]])
                 for entry in group],
                [np.concatenate([request.y for request in entry[2]])
                 if entry[2][0].y is not None else None
                 for entry in group])
        except Exception:  # repro: noqa[REP004] — a failed stacked program degrades to the serial per-tenant path (source models are only written after a full step, so serial re-execution is clean)
            for entry in group:
                self._run_serial_job(*entry)
            return
        self.stacked_groups += 1
        self.batches_stacked += len(group)
        for entry, tenant_labels in zip(group, labels):
            tenant, state, requests, _estimator = entry
            self._resolve_success(tenant, state, requests, tenant_labels)
        if self.obs.enabled:
            self.obs.registry.counter(
                "freeway_serving_stacked_batches_total",
                "micro-batches served through a stacked tensor program",
            ).inc(len(group))
            self.obs.registry.histogram(
                "freeway_serving_stacked_group_size",
                "tenants co-scheduled per stacked program",
                buckets=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            ).observe(len(group))

    # -- pressure → degrade coupling ----------------------------------------

    def _apply_pressure(self) -> None:
        high = self.config.degrade_high_watermark
        if high is None:
            return
        fraction = self._pending_total / self.config.max_pending_total
        if not self._degrading and fraction >= high:
            self._set_degrade(True)
        elif self._degrading and fraction <= self.config.degrade_low_watermark:
            self._set_degrade(False)

    def _set_degrade(self, degrade: bool) -> None:
        self._degrading = degrade
        for _tenant, estimator in self.registry.resident_estimators():
            set_degrade = getattr(estimator, "set_degrade", None)
            if set_degrade is not None:
                set_degrade(degrade)

    def _on_activate(self, tenant: str, estimator) -> None:
        """Registry callback: newly resident estimators inherit the
        service's current degrade posture."""
        if self._degrading:
            set_degrade = getattr(estimator, "set_degrade", None)
            if set_degrade is not None:
                set_degrade(True)

    # -- introspection -------------------------------------------------------

    def grouping(self, tenant: str) -> list[int]:
        """Requests coalesced per processed micro-batch, in batch order."""
        state = self._tenants.get(tenant)
        return list(state.grouping) if state is not None else []

    def summary(self) -> dict:
        """Service state as a plain dict.

        The ``breaker``/``degraded`` keys follow the learner summary's
        shape, so a :class:`~repro.obs.TelemetryServer` with this summary
        as its ``health_source`` surfaces open tenant circuits and the
        degrade posture on ``/health`` unchanged.
        """
        return {
            "estimator": "serving",
            "requests_ok": self.requests_ok,
            "requests_shed": self.requests_shed,
            "requests_failed": self.requests_failed,
            "batches_stacked": self.batches_stacked,
            "stacked_groups": self.stacked_groups,
            "pending": self._pending_total,
            "tenants_seen": len(self._tenants),
            "degraded": self._degrading,
            "breaker": self.breaker.snapshot(),
            "registry": self.registry.stats(),
        }


def serve_requests(config: ServeConfig, registry: SessionRegistry,
                   requests, *, obs=None, window: int = 256):
    """Serve a finite request sequence synchronously.

    ``requests`` is an iterable of ``(tenant, x)`` or ``(tenant, x, y)``
    tuples.  ``window`` submitter coroutines share one iterator over
    them, so at most ``window`` requests are in flight (micro-batching
    and queue bounds actually engage) and ``submit`` calls start in input
    order, which preserves each tenant's submission order.  Returns
    ``(results, service)`` with ``results`` in input order; the returned
    service is stopped and exposes ``summary()``/``grouping()``.  Raises
    ValueError when ``window`` is below 1.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1; got {window}")
    prepared = []
    for entry in requests:
        tenant, x = entry[0], entry[1]
        y = entry[2] if len(entry) > 2 else None
        prepared.append((tenant, x, y))
    results = [None] * len(prepared)
    service = StreamingService(config, registry, obs=obs)

    async def _run():
        pending = enumerate(prepared)

        async def _submitter():
            # Taking the next request and starting its submit happen in
            # one step of this coroutine, so submits start in input order.
            for index, (tenant, x, y) in pending:
                results[index] = await service.submit(tenant, x, y)

        async with service:
            await asyncio.gather(*[
                _submitter() for _ in range(min(window, len(prepared)))])

    asyncio.run(_run())
    return results, service
