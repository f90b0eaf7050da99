"""Tenant session registry: LRU activation over checkpointing stores.

The serving front end multiplexes thousands of tenants onto one process,
but only :attr:`capacity` of them hold a live estimator at a time.  The
:class:`SessionRegistry` keeps resident sessions in LRU order; acquiring a
cold tenant *rehydrates* it from its checkpoint (or builds it fresh), and
the displaced LRU victim checkpoints out through a :class:`CheckpointStore`
and is :meth:`closed <repro.api.StreamingEstimator.close>` — the estimator
lifecycle contract is what lets the registry retire any estimator
uniformly.

Rehydration is **single-flight**: per-tenant flight locks serialize
concurrent activations of the same tenant, so a thundering herd on a cold
tenant loads its checkpoint exactly once.  Eviction saves the victim under
the *victim's* flight lock, so a concurrent re-activation of the victim
waits for the checkpoint instead of reading a stale one.

Lock order (deadlock-free): a flight lock is always taken before the
registry lock, never the reverse, and the only nested flight-lock
acquisition is an activator (holding its own tenant's flight lock, with
that tenant pinned) evicting an *unpinned* victim — a pinned tenant is
never selected as a victim, so flight-lock wait edges cannot cycle.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..core.learner import Learner
from ..core.persistence import learner_state, restore_learner_state
from ..nn.serialization import read_checkpoint, write_checkpoint
from ..obs import NULL_OBS, TenantActivated, TenantEvicted

__all__ = [
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DirCheckpointStore",
    "NullCheckpointStore",
    "SessionRegistry",
]


class CheckpointStore:
    """Where cold tenants' state lives between activations.

    ``save`` checkpoints an estimator under a tenant key and returns the
    bytes written; ``load`` restores a previously saved checkpoint into a
    freshly built estimator and returns True (False when the tenant has
    none); ``__contains__`` answers whether a checkpoint exists.  The
    bundled stores checkpoint a :class:`~repro.core.learner.Learner` as
    :func:`~repro.core.persistence.learner_state` gives it, and any other
    estimator exposing ``state_dict()``/``load_state_dict()`` as that
    flat array mapping — for :class:`~repro.serving.ModelEstimator`, its
    model's full training state; they raise :class:`TypeError` for other
    estimator types — those need a custom store (or
    :class:`NullCheckpointStore` when losing cold state is acceptable).
    """

    def save(self, tenant: str, estimator) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def load(self, tenant: str, estimator) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def __contains__(self, tenant: str) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


def _check_checkpointable(estimator, store_name: str) -> None:
    if isinstance(estimator, Learner):
        return
    if getattr(estimator, "state_dict", None) is None:
        raise TypeError(
            f"{store_name} checkpoints Learner state or estimators with "
            f"state_dict()/load_state_dict(); got "
            f"{type(estimator).__name__} (use a custom CheckpointStore "
            f"or NullCheckpointStore for other estimators)"
        )


def _checkpoint_state(estimator, store_name: str) -> tuple[dict, object]:
    """``(arrays, json-able meta)`` for any checkpointable estimator.

    ``Learner`` state goes through :mod:`repro.core.persistence`; other
    estimators must expose ``state_dict()`` returning a flat name → array
    mapping (their meta slot stays ``None``).
    """
    _check_checkpointable(estimator, store_name)
    if isinstance(estimator, Learner):
        return learner_state(estimator)
    return {name: np.asarray(value)
            for name, value in estimator.state_dict().items()}, None


def _restore_state(estimator, arrays: dict, meta) -> None:
    if isinstance(estimator, Learner):
        restore_learner_state(estimator, arrays, meta)
    else:
        estimator.load_state_dict(arrays)


class NullCheckpointStore(CheckpointStore):
    """Keeps nothing: evicted tenants restart cold on re-activation."""

    def save(self, tenant: str, estimator) -> int:
        return 0

    def load(self, tenant: str, estimator) -> bool:
        return False

    def __contains__(self, tenant: str) -> bool:
        return False


class MemoryCheckpointStore(CheckpointStore):
    """In-process store holding deep-copied checkpoint state per tenant.

    Takes what :class:`CheckpointStore` describes.  Arrays are copied on
    save *and* load, and metadata round-trips through JSON, so a stored
    checkpoint can never alias a live estimator's buffers.  Thread-safe:
    the registry evicts from whatever thread hit capacity.
    """

    def __init__(self):
        self._checkpoints: dict[str, tuple[dict, str]] = {}
        self._lock = threading.Lock()

    def save(self, tenant: str, estimator) -> int:
        arrays, meta = _checkpoint_state(estimator, type(self).__name__)
        copied = {name: np.array(value, copy=True)
                  for name, value in arrays.items()}
        encoded = json.dumps(meta)
        with self._lock:
            self._checkpoints[tenant] = (copied, encoded)
        return (sum(value.nbytes for value in copied.values())
                + len(encoded))

    def load(self, tenant: str, estimator) -> bool:
        # Type-check before touching the map so an unsupported estimator
        # fails loudly even when the tenant has no checkpoint yet.
        _check_checkpointable(estimator, type(self).__name__)
        with self._lock:
            checkpoint = self._checkpoints.get(tenant)
        if checkpoint is None:
            return False
        arrays, encoded = checkpoint
        _restore_state(
            estimator,
            {name: np.array(value, copy=True)
             for name, value in arrays.items()},
            json.loads(encoded),
        )
        return True

    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._checkpoints

    def __len__(self) -> int:
        with self._lock:
            return len(self._checkpoints)


class DirCheckpointStore(CheckpointStore):
    """Durable store: one ``.npz`` checkpoint per tenant in a directory.

    Takes what :class:`MemoryCheckpointStore` takes.  Each file holds the
    estimator's arrays plus its JSON metadata, written and read by
    :func:`~repro.nn.serialization.write_checkpoint` /
    :func:`~repro.nn.serialization.read_checkpoint` — the codec
    :func:`~repro.core.persistence.save_learner` writes with, so a
    ``Learner`` checkpoint from either loads through the other.  Writes
    are atomic: a crash mid-save leaves the tenant's previous checkpoint
    whole.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, tenant: str) -> Path:
        # Tenant names are caller-chosen; keep the filename filesystem-safe
        # and collision-free ("a/b" and "a_b" must not share a file).
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", tenant)[:80]
        digest = hashlib.sha1(tenant.encode("utf-8")).hexdigest()[:10]
        return self.directory / f"{safe}-{digest}.npz"

    def save(self, tenant: str, estimator) -> int:
        arrays, meta = _checkpoint_state(estimator, type(self).__name__)
        return write_checkpoint(self._path(tenant), arrays, meta)

    def load(self, tenant: str, estimator) -> bool:
        _check_checkpointable(estimator, type(self).__name__)
        path = self._path(tenant)
        if not path.exists():
            return False
        _restore_state(estimator, *read_checkpoint(path))
        return True

    def __contains__(self, tenant: str) -> bool:
        return self._path(tenant).exists()


class _Session:
    """One resident tenant: its live estimator plus a pin count."""

    __slots__ = ("estimator", "pins")

    def __init__(self, estimator):
        self.estimator = estimator
        self.pins = 0


class SessionRegistry:
    """tenant → estimator map with LRU activation and pinning.

    Parameters
    ----------
    factory:
        ``factory(tenant) -> estimator`` building a *fresh* estimator for
        a tenant seen for the first time (or as the rehydration target).
        Every tenant's factory output must be checkpoint-compatible with
        its previous incarnations (same model architecture).
    capacity:
        Resident-session bound.  When every resident session is pinned the
        registry overshoots temporarily rather than evicting in-use state;
        the overshoot drains as pins release and later activations evict.
    store:
        The :class:`CheckpointStore` cold tenants swap through; defaults
        to a fresh :class:`MemoryCheckpointStore`.
    obs:
        Optional observability facade; activation/eviction emit
        :class:`~repro.obs.TenantActivated` / :class:`~repro.obs.
        TenantEvicted` events and aggregate counters.
    on_activate:
        Optional ``on_activate(tenant, estimator)`` callback invoked after
        a session becomes resident (the serving layer uses it to apply the
        current degrade posture to newly activated estimators).
    """

    def __init__(self, factory, *, capacity: int,
                 store: CheckpointStore | None = None, obs=None,
                 on_activate=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}")
        self.factory = factory
        self.capacity = capacity
        self.store = store if store is not None else MemoryCheckpointStore()
        self.obs = obs if obs is not None else NULL_OBS
        self.on_activate = on_activate
        self._lock = threading.Lock()
        self._sessions: OrderedDict[str, _Session] = OrderedDict()
        # Per-tenant flight locks (never pruned: one small lock per tenant
        # ever seen keeps single-flight correct without lifecycle races).
        self._flights: dict[str, threading.Lock] = {}
        self.activations = 0
        self.rehydrations = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def resident(self) -> list[str]:
        """Tenants currently holding a live estimator, LRU first."""
        with self._lock:
            return list(self._sessions)

    def resident_estimators(self) -> list[tuple[str, object]]:
        """Snapshot of ``(tenant, estimator)`` pairs for resident sessions.

        Estimators in the snapshot may be evicted concurrently; callers
        must tolerate acting on a just-closed estimator (both
        ``set_degrade`` and ``close`` are safe on a closed ``Learner``).
        """
        with self._lock:
            return [(tenant, session.estimator)
                    for tenant, session in self._sessions.items()]

    def stats(self) -> dict:
        with self._lock:
            return {
                "active": len(self._sessions),
                "capacity": self.capacity,
                "activations": self.activations,
                "rehydrations": self.rehydrations,
                "evictions": self.evictions,
            }

    def _flight_lock(self, tenant: str) -> threading.Lock:
        with self._lock:
            return self._flights.setdefault(tenant, threading.Lock())

    # -- acquire / release ---------------------------------------------------

    def acquire(self, tenant: str):
        """Pin and return the tenant's estimator, activating if cold.

        Must be balanced by :meth:`release`; prefer :meth:`session`.
        """
        flight_lock = self._flight_lock(tenant)
        with flight_lock:
            with self._lock:
                session = self._sessions.get(tenant)
                if session is not None:
                    session.pins += 1
                    self._sessions.move_to_end(tenant)
                    return session.estimator
            # Cold: build and (maybe) rehydrate outside the registry lock —
            # the flight lock already serializes this tenant's activation.
            estimator = self.factory(tenant)
            rehydrated = self.store.load(tenant, estimator)
            with self._lock:
                session = _Session(estimator)
                session.pins = 1
                self._sessions[tenant] = session
                self.activations += 1
                if rehydrated:
                    self.rehydrations += 1
                active = len(self._sessions)
        if self.obs.enabled:
            self.obs.emit(TenantActivated(tenant=tenant,
                                          rehydrated=rehydrated,
                                          active=active))
            self.obs.registry.counter(
                "freeway_serving_activations_total",
                "tenant sessions activated",
            ).labels(rehydrated=str(rehydrated).lower()).inc()
            self.obs.registry.gauge(
                "freeway_serving_active_tenants", "resident tenant sessions",
            ).set(active)
        if self.on_activate is not None:
            self.on_activate(tenant, estimator)
        self._shrink(exempt=tenant)
        return estimator

    def release(self, tenant: str) -> None:
        """Unpin one prior :meth:`acquire` of the tenant."""
        with self._lock:
            session = self._sessions.get(tenant)
            if session is None or session.pins < 1:
                raise RuntimeError(
                    f"release({tenant!r}) without a matching acquire"
                )
            session.pins -= 1

    class _SessionHandle:
        """Context manager pairing acquire with release."""

        __slots__ = ("_registry", "_tenant", "estimator")

        def __init__(self, registry, tenant):
            self._registry = registry
            self._tenant = tenant
            self.estimator = None

        def __enter__(self):
            self.estimator = self._registry.acquire(self._tenant)
            return self.estimator

        def __exit__(self, exc_type, exc, tb):
            self.estimator = None
            self._registry.release(self._tenant)

    def session(self, tenant: str) -> "SessionRegistry._SessionHandle":
        """``with registry.session(t) as estimator:`` — pinned while inside."""
        return self._SessionHandle(self, tenant)

    # -- eviction ------------------------------------------------------------

    def _shrink(self, exempt: str | None = None) -> None:
        """Evict LRU unpinned sessions until at or under capacity."""
        while True:
            with self._lock:
                if len(self._sessions) <= self.capacity:
                    return
                victim = next(
                    (tenant for tenant, session in self._sessions.items()
                     if session.pins == 0 and tenant != exempt), None)
            if victim is None:
                return  # everything pinned: overshoot until pins release
            self._evict(victim)

    def _evict(self, tenant: str) -> bool:
        """Checkpoint and close one unpinned resident session.

        Returns False when the tenant was not resident or was pinned by
        the time its flight lock was acquired (a racing re-activation
        wins; eviction silently stands down).
        """
        flight_lock = self._flight_lock(tenant)
        with flight_lock:
            with self._lock:
                session = self._sessions.get(tenant)
                if session is None or session.pins > 0:
                    return False
                del self._sessions[tenant]
                self.evictions += 1
                active = len(self._sessions)
            # Save under the flight lock (but outside the registry lock):
            # a concurrent acquire of this tenant waits on the flight lock
            # and then rehydrates from this — fresh — checkpoint.
            nbytes = self.store.save(tenant, session.estimator)
            session.estimator.close()
        if self.obs.enabled:
            self.obs.emit(TenantEvicted(tenant=tenant, nbytes=nbytes,
                                        active=active))
            self.obs.registry.counter(
                "freeway_serving_evictions_total",
                "tenant sessions checkpointed out by LRU pressure",
            ).inc()
            self.obs.registry.gauge(
                "freeway_serving_active_tenants", "resident tenant sessions",
            ).set(active)
        return True

    def evict(self, tenant: str) -> bool:
        """Explicitly retire one tenant's session (False if pinned/absent)."""
        return self._evict(tenant)

    def flush(self) -> int:
        """Checkpoint every resident session in place; returns count saved.

        Sessions stay resident (and pinned sessions are checkpointed too —
        the flight lock only guards against concurrent activation, and a
        pinned estimator is quiescent between requests in the serving
        model, where each tenant's requests are processed serially).
        """
        saved = 0
        for tenant in self.resident():
            flight_lock = self._flight_lock(tenant)
            with flight_lock:
                with self._lock:
                    session = self._sessions.get(tenant)
                    if session is None:
                        continue  # evicted since the snapshot
                    estimator = session.estimator
                self.store.save(tenant, estimator)
                saved += 1
        return saved

    def close(self) -> None:
        """Checkpoint and close every session (serving shutdown)."""
        while True:
            with self._lock:
                tenant = next(
                    (tenant for tenant, session in self._sessions.items()
                     if session.pins == 0), None)
                remaining = len(self._sessions)
            if tenant is None:
                if remaining:
                    raise RuntimeError(
                        f"close() with {remaining} pinned session(s) still "
                        f"held — release them first"
                    )
                return
            self._evict(tenant)
