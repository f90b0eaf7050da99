"""The :class:`Observability` facade: tracer + metrics + event sink.

One object threads through the whole pipeline.  Components hold a facade
that is *never* ``None`` — the module-level :data:`NULL_OBS` carries a
:class:`~repro.obs.trace.NullTracer` and a :class:`~repro.obs.events.NullSink`,
so instrumentation sites cost one ``obs.enabled`` attribute check (events,
metrics) or one shared no-op context manager (spans) when observability is
off.

Typical construction::

    obs = Observability.to_jsonl("trace.jsonl")   # spans + events → file
    learner = Learner(factory, obs=obs)
    ... run ...
    print(obs.registry.render_text())
    obs.close()
"""

from __future__ import annotations

from pathlib import Path

from .events import CompositeSink, EventSink, JsonlSink, MemorySink, NullSink
from .metrics import MetricsRegistry
from .trace import NULL_TRACER, Tracer

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """Bundle of tracer, metrics registry, and event sink.

    Parameters
    ----------
    tracer:
        A :class:`~repro.obs.trace.Tracer` (or the shared null tracer).
        ``None`` builds a real tracer wired to ``sink`` when ``enabled``,
        and means :data:`~repro.obs.trace.NULL_TRACER` otherwise.
    registry:
        Metrics registry; ``None`` builds a fresh one.
    sink:
        Event sink; ``None`` means a :class:`MemorySink`.
    enabled:
        Master switch checked by every instrumentation site.
    """

    __slots__ = ("tracer", "registry", "sink", "enabled")

    def __init__(self, tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None,
                 sink: EventSink | None = None, enabled: bool = True):
        self.enabled = enabled
        self.sink = sink if sink is not None else MemorySink()
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is None:
            tracer = Tracer(sink=self.sink) if enabled else NULL_TRACER
        self.tracer = tracer

    # -- constructors ---------------------------------------------------------

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared zero-cost facade (see :data:`NULL_OBS`)."""
        return NULL_OBS

    @classmethod
    def in_memory(cls) -> "Observability":
        """Everything retained in process — tests and dashboards."""
        return cls()

    @classmethod
    def to_jsonl(cls, path: str | Path,
                 extra_sink: EventSink | None = None) -> "Observability":
        """Spans and events streamed to a JSONL file (plus ``extra_sink``)."""
        jsonl = JsonlSink(path)
        sink: EventSink = (CompositeSink(jsonl, extra_sink)
                           if extra_sink is not None else jsonl)
        return cls(sink=sink)

    # -- emission -------------------------------------------------------------

    def emit(self, event) -> None:
        """Send one typed event to the sink (no-op when disabled)."""
        if self.enabled:
            self.sink.emit(event)

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _build_null() -> Observability:
    # NULL_OBS is assembled once at import time, before any worker or
    # server thread can exist, and is never mutated afterwards — so the
    # unlocked attribute writes below cannot race anything.
    obs = Observability.__new__(Observability)
    obs.enabled = False
    obs.tracer = NULL_TRACER
    obs.sink = NullSink()  # repro: noqa[REP008]
    obs.registry = MetricsRegistry()  # repro: noqa[REP008] - inert when disabled
    return obs


#: The default facade every component falls back to; permanently disabled.
NULL_OBS = _build_null()
