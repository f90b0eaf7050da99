"""Typed pipeline events and the sinks that receive them.

Every consequential decision the learner makes emits one structured event:
why a batch was classified the way it was (:class:`ShiftAssessed`), which
mechanism answered and whether that was a fallback
(:class:`StrategySelected`), how the adaptive window decayed
(:class:`AswDecayApplied`), and the full life cycle of preserved knowledge
(:class:`KnowledgePreserved` / :class:`KnowledgeReused` /
:class:`KnowledgeEvicted`).  Events are plain dataclasses that serialize to
flat JSON dicts (``{"kind": "event", "type": ..., **fields}``) and
round-trip through :func:`event_from_dict`, so a JSONL trace is a complete,
replayable audit log of a run.

Sinks are anything with ``emit(record)``; :class:`JsonlSink` appends to a
file, :class:`MemorySink` keeps records in a list (tests, dashboards), and
:class:`CompositeSink` fans out to several.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path

__all__ = [
    "Event",
    "ShiftAssessed",
    "StrategySelected",
    "AswDecayApplied",
    "KnowledgePreserved",
    "KnowledgeReused",
    "KnowledgeEvicted",
    "CecInvoked",
    "CheckpointWritten",
    "CheckpointRejected",
    "WorkerRestarted",
    "DegradedMode",
    "CircuitOpened",
    "TenantActivated",
    "TenantEvicted",
    "RequestShed",
    "AlertRaised",
    "AlertResolved",
    "EVENT_TYPES",
    "event_from_dict",
    "EventSink",
    "JsonlSink",
    "MemorySink",
    "CompositeSink",
    "NullSink",
    "DEFAULT_MEMORY_SINK_CAPACITY",
    "read_records",
]


@dataclass
class Event:
    """Base class: serialization shared by every event type."""

    #: Wire name of the event; overridden per subclass.
    TYPE = "event"

    def to_dict(self) -> dict:
        return {"kind": "event", "type": self.TYPE, **asdict(self)}

    @classmethod
    def from_dict(cls, record: dict) -> "Event":
        names = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in record.items()
                      if key in names})


@dataclass
class ShiftAssessed(Event):
    """The classifier's verdict on one inference batch (Section III-C)."""

    TYPE = "shift_assessed"

    batch: int
    pattern: str
    distance: float | None = None      # d_t (Eq. 7)
    severity: float | None = None      # z-score M (Eq. 10)
    historical_distance: float | None = None  # d_h (Pattern C test)
    escalated: bool = False            # confidence channel overrode slight


@dataclass
class StrategySelected(Event):
    """Which mechanism answered the batch, and why (Section V, Fig. 8)."""

    TYPE = "strategy_selected"

    batch: int
    strategy: str
    pattern: str
    fallback: bool = False
    reason: str = ""


@dataclass
class AswDecayApplied(Event):
    """One decay pass of an adaptive streaming window (Alg. 1, Eq. 11)."""

    TYPE = "asw_decay_applied"

    window: str                        # owning granularity level
    arrival: int                       # window's arrival counter
    mean_rate: float                   # mean effective decay rate applied
    disorder: float                    # normalized inversion count
    inversions: int
    entries: int                       # entries surviving the pass
    evicted: int                       # entries dropped below min_weight


@dataclass
class KnowledgePreserved(Event):
    """A ``(d_i, k_i)`` pair entered the knowledge store (Section IV-D.1)."""

    TYPE = "knowledge_preserved"

    batch: int
    model_kind: str                    # "short" | "long"
    disorder: float
    nbytes: int
    store_size: int                    # entries after preservation


@dataclass
class KnowledgeReused(Event):
    """A stored distribution matched and answered a batch (Section IV-D.2)."""

    TYPE = "knowledge_reused"

    batch: int
    origin_batch: int                  # when the knowledge was preserved
    match_distance: float
    model_kind: str


@dataclass
class KnowledgeEvicted(Event):
    """Overflow eviction: the older half left memory (KdgBuffer bound)."""

    TYPE = "knowledge_evicted"

    count: int
    spilled: bool                      # written to the spill dir first?
    store_size: int                    # entries remaining in memory


@dataclass
class CecInvoked(Event):
    """One coherent-experience-clustering call (Section IV-C)."""

    TYPE = "cec_invoked"

    batch: int
    clusters: int
    labeled_points: int                # experience rows mixed in
    guided_clusters: int               # clusters containing experience
    vote_margin: float                 # mean top-label probability


@dataclass
class CheckpointWritten(Event):
    """A learner checkpoint reached durable storage."""

    TYPE = "checkpoint_written"

    path: str
    nbytes: int
    batch: int


@dataclass
class CheckpointRejected(Event):
    """The static compatibility checker blocked a checkpoint restore.

    Emitted before the typed :class:`~repro.analysis.CheckpointIncompatibleError`
    is raised, so a trace records *why* a restore never happened.
    """

    TYPE = "checkpoint_rejected"

    source: str                        # "knowledge" | "learner_checkpoint"
    reason: str                        # first problem, human readable
    problems: int                      # total incompatibilities found
    batch: int | None = None           # origin batch, when known
    model_kind: str = ""               # knowledge entries: "short" | "long"


@dataclass
class WorkerRestarted(Event):
    """A supervised backend replaced a dead or hung worker process."""

    TYPE = "worker_restarted"

    worker: int                        # worker index in the pool
    restarts: int                      # lifetime restarts of this slot
    reason: str                        # "crashed" | "hung" | traceback tail
    resubmitted: int = 0               # in-flight shards replayed
    reseeded: bool = False             # state restored from the last sync


@dataclass
class DegradedMode(Event):
    """A mechanism raised and the learner downgraded instead of crashing.

    The fallback chain is fixed (knowledge → CEC → multi-granularity →
    sanitized short model), so ``mechanism`` names what failed and
    ``fallback`` names what answered instead.
    """

    TYPE = "degraded_mode"

    batch: int
    mechanism: str                     # what raised: "knowledge_reuse" |
                                       # "cec" | "multi_granularity" |
                                       # "asw_train"
    fallback: str                      # what ran instead
    reason: str = ""                   # exception summary


@dataclass
class CircuitOpened(Event):
    """A mechanism's circuit breaker tripped after consecutive failures."""

    TYPE = "circuit_opened"

    mechanism: str
    failures: int                      # consecutive failures that tripped it
    cooldown: int                      # batches before a retry is allowed


@dataclass
class TenantActivated(Event):
    """A serving session entered memory (freshly built or rehydrated).

    Emitted by the :class:`~repro.serving.SessionRegistry` when a tenant's
    estimator becomes resident: ``rehydrated`` distinguishes a checkpoint
    restore from a cold build, and ``active`` records the resident-session
    count right after activation.
    """

    TYPE = "tenant_activated"

    tenant: str
    rehydrated: bool = False
    active: int = 0


@dataclass
class TenantEvicted(Event):
    """LRU eviction: a cold tenant's session checkpointed out of memory."""

    TYPE = "tenant_evicted"

    tenant: str
    nbytes: int = 0                    # checkpoint size written on the way out
    active: int = 0                    # resident sessions after eviction


@dataclass
class RequestShed(Event):
    """Admission control refused (or displaced) a serving request.

    ``reason`` names the policy decision: ``"tenant-queue-full"``,
    ``"global-queue-full"``, ``"displaced"`` (the ``oldest`` shed policy
    dropped it to admit newer work), or ``"circuit-open"`` (the tenant's
    serving circuit breaker is open).
    """

    TYPE = "request_shed"

    tenant: str
    reason: str
    pending: int = 0                   # global pending items at the decision


@dataclass
class AlertRaised(Event):
    """An SLO rule's sliding-window aggregate crossed its threshold.

    Emitted once per breach episode by the online
    :class:`~repro.obs.live.SloEngine`; the matching
    :class:`AlertResolved` closes the episode when the window recovers.
    """

    TYPE = "alert_raised"

    rule: str                          # SloRule.name
    signal: str                        # the sample stream the rule watches
    value: float                       # aggregate that breached
    threshold: float
    batch: int | None = None           # engine tick (batch) at the breach


@dataclass
class AlertResolved(Event):
    """A previously raised SLO alert's window dropped back under threshold."""

    TYPE = "alert_resolved"

    rule: str
    value: float                       # aggregate at resolution
    threshold: float
    batches_active: int = 0            # ticks the alert stayed raised
    batch: int | None = None


EVENT_TYPES: dict[str, type[Event]] = {
    cls.TYPE: cls
    for cls in (ShiftAssessed, StrategySelected, AswDecayApplied,
                KnowledgePreserved, KnowledgeReused, KnowledgeEvicted,
                CecInvoked, CheckpointWritten, CheckpointRejected,
                WorkerRestarted, DegradedMode, CircuitOpened,
                TenantActivated, TenantEvicted, RequestShed,
                AlertRaised, AlertResolved)
}


def event_from_dict(record: dict) -> Event | None:
    """Rebuild a typed event from its wire dict (``None`` if unknown)."""
    cls = EVENT_TYPES.get(record.get("type", ""))
    if cls is None:
        return None
    return cls.from_dict(record)


# -- sinks ---------------------------------------------------------------------


class EventSink:
    """Interface: receives event objects or raw span dicts."""

    def emit(self, record) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass

    @staticmethod
    def _as_dict(record) -> dict:
        return record.to_dict() if isinstance(record, Event) else record


class NullSink(EventSink):
    """Swallows everything (the disabled default)."""

    def emit(self, record) -> None:
        pass


#: Default :class:`MemorySink` ring size.  Generous — a typical batch
#: contributes a handful of records, so this covers tens of thousands of
#: batches — but bounded, so a long-lived serving run cannot grow the sink
#: without limit.  Pass ``capacity=None`` for the old unbounded behaviour.
DEFAULT_MEMORY_SINK_CAPACITY = 100_000


class MemorySink(EventSink):
    """Keeps the most recent records in a bounded ring.

    ``events`` filters to typed events; :attr:`dropped` counts records the
    ring evicted (oldest first) once ``capacity`` was exceeded;
    :meth:`drain` hands the buffered records over and empties the ring —
    the primitive worker-telemetry shipping is built on.

    Mutators and :meth:`snapshot` are lock-guarded: the run loop emits
    while a TelemetryServer thread reads the ring for ``/snapshot``.
    """

    def __init__(self, capacity: int | None = DEFAULT_MEMORY_SINK_CAPACITY):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None; got {capacity}")
        self.records: list = []
        self.capacity = capacity
        #: Records evicted from the ring since construction.
        self.dropped = 0
        self._lock = threading.Lock()

    def emit(self, record) -> None:
        with self._lock:
            self.records.append(record)
            if (self.capacity is not None
                    and len(self.records) > self.capacity):
                excess = len(self.records) - self.capacity
                del self.records[:excess]
                self.dropped += excess

    @property
    def events(self) -> list[Event]:
        return [record for record in self.records
                if isinstance(record, Event)]

    def events_of(self, event_type: type[Event]) -> list[Event]:
        return [event for event in self.events
                if isinstance(event, event_type)]

    def drain(self) -> list:
        """Return the buffered records and empty the ring (``dropped``
        keeps counting across drains)."""
        with self._lock:
            records = self.records
            self.records = []
        return records

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    def snapshot(self) -> tuple[list, int]:
        """A consistent ``(records, dropped)`` pair: the list is a copy
        taken under the lock, so a concurrent emit cannot shift it."""
        with self._lock:
            return list(self.records), self.dropped


class JsonlSink(EventSink):
    """Appends one JSON object per record to a file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self.written = 0

    def emit(self, record) -> None:
        json.dump(self._as_dict(record), self._handle, default=float)
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CompositeSink(EventSink):
    """Fans every record out to several sinks."""

    def __init__(self, *sinks: EventSink):
        self.sinks = list(sinks)

    def emit(self, record) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_records(path: str | Path) -> tuple[list[Event], list[dict]]:
    """Load a JSONL trace: ``(typed events, raw span dicts)``.

    Unknown event types are skipped (forward compatibility), so a newer
    trace still summarizes under an older reader.
    """
    events: list[Event] = []
    spans: list[dict] = []
    with open(Path(path), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "span":
                spans.append(record)
            elif record.get("kind") == "event":
                event = event_from_dict(record)
                if event is not None:
                    events.append(event)
    return events, spans
