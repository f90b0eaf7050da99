"""The live telemetry plane: aggregation, exposition, and SLO alerts.

Three connected layers turn the post-hoc observability of
:mod:`repro.obs` into something a serving run can be watched through:

1. **Cross-process aggregation** — :func:`drain_telemetry` packages a
   replica facade's metric deltas (:meth:`MetricsRegistry.collect_delta`)
   and buffered event records (:meth:`MemorySink.drain`) into one
   plain-data payload; :func:`absorb_telemetry` merges it into the
   coordinator facade with a ``worker`` label.  The distributed backends
   call these at drain/sync boundaries and on worker exit, so metrics and
   events produced inside forked workers reach the root registry instead
   of dying with the child process.
2. **Exposition** — :class:`TelemetryServer`, a stdlib-only threaded
   ``http.server`` exposing ``/metrics`` (Prometheus text),
   ``/health`` (breaker + backend + alert state), and ``/snapshot``
   (JSON registry dump plus the recent-event ring).
3. **SLO/alert engine** — declarative :class:`SloRule` objects (signal +
   sliding window + aggregate + threshold) evaluated incrementally by
   :class:`SloEngine` as samples arrive, raising/resolving
   :class:`~repro.obs.events.AlertRaised` /
   :class:`~repro.obs.events.AlertResolved` events and optionally nudging
   the resilience degrade chain pre-emptively.

Everything here is standard library only; the server binds
``127.0.0.1`` by default and an ephemeral port when ``port=0``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .events import (
    AlertRaised,
    AlertResolved,
    CompositeSink,
    Event,
    EventSink,
    MemorySink,
    event_from_dict,
)
from .facade import Observability

__all__ = [
    "drain_telemetry",
    "absorb_telemetry",
    "find_ring",
    "SloRule",
    "SloEngine",
    "default_slo_rules",
    "TelemetryServer",
    "build_snapshot",
    "parse_prometheus_text",
]


# -- layer 1: cross-process aggregation ----------------------------------------


def drain_telemetry(obs: Observability) -> tuple[dict, list[dict]]:
    """Package a replica facade's pending telemetry for shipping.

    Returns ``(metric_delta, event_records)`` where the delta is the
    registry's :meth:`~repro.obs.metrics.MetricsRegistry.collect_delta`
    payload (baseline advances, so draining twice never double-counts)
    and the records are the sink ring's contents as plain dicts.  Both
    halves are plain data (JSON-able), so they travel over the
    ProcessBackend reply pipe unchanged.
    """
    if not obs.enabled:
        return {}, []
    delta = obs.registry.collect_delta()
    records: list[dict] = []
    if isinstance(obs.sink, MemorySink):
        records = [EventSink._as_dict(record) for record in obs.sink.drain()]
    return delta, records


def absorb_telemetry(obs: Observability, delta: dict, records: list[dict],
                     worker: int | None = None) -> None:
    """Merge one shipped telemetry payload into the coordinator facade.

    Metric series gain a ``worker`` label (when ``worker`` is given) so
    replica activity stays attributable after aggregation; typed events
    are rebuilt through :func:`~repro.obs.events.event_from_dict` and
    re-emitted on the coordinator sink, span dicts gain a ``worker``
    attribute and pass through as-is.
    """
    if not obs.enabled:
        return
    extra = {"worker": str(worker)} if worker is not None else None
    if delta:
        obs.registry.merge(delta, extra_labels=extra)
    for record in records:
        if record.get("kind") == "event":
            event = event_from_dict(record)
            if event is not None:
                obs.sink.emit(event)
                continue
        if worker is not None and record.get("kind") == "span":
            record = dict(record)
            attributes = dict(record.get("attributes") or {})
            attributes.setdefault("worker", worker)
            record["attributes"] = attributes
        obs.sink.emit(record)


# -- layer 3: the SLO/alert engine ---------------------------------------------
# (defined before the server because /health surfaces engine state)

_AGGREGATES = ("p50", "p95", "p99", "mean", "max", "rate", "count")
_COMPARISONS = (">", "<", ">=", "<=")
_QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level objective.

    Watches a named sample *signal* — every event type is a signal whose
    samples are ``1.0`` occurrences (``"degraded_mode"``,
    ``"worker_restarted"``, ...), and callers can feed numeric signals
    directly via :meth:`SloEngine.observe` (the evaluation harness feeds
    ``"process_latency"`` per batch).  The rule aggregates the samples
    that fell inside the last ``window`` engine ticks and alerts while
    ``aggregate(samples) <comparison> threshold`` holds.

    Aggregates: ``p50``/``p95``/``p99``/``mean``/``max`` over sample
    values, ``count`` (samples in window), ``rate`` (samples per tick).
    """

    name: str
    signal: str
    threshold: float
    window: int = 50
    aggregate: str = "p99"
    comparison: str = ">"
    #: Samples required in-window before the rule may *raise* (value
    #: aggregates only; ``rate``/``count`` are well defined on empty
    #: windows).
    min_samples: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("SloRule needs a non-empty name")
        if self.aggregate not in _AGGREGATES:
            raise ValueError(
                f"unknown aggregate {self.aggregate!r}; "
                f"expected one of {_AGGREGATES}"
            )
        if self.comparison not in _COMPARISONS:
            raise ValueError(
                f"unknown comparison {self.comparison!r}; "
                f"expected one of {_COMPARISONS}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1; got {self.window}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1; got {self.min_samples}"
            )

    def describe(self) -> dict:
        """JSON-able summary used by ``/health``."""
        return {"name": self.name, "signal": self.signal,
                "aggregate": self.aggregate, "comparison": self.comparison,
                "threshold": self.threshold, "window": self.window}


def default_slo_rules() -> list[SloRule]:
    """The stock rule set ``run --serve-telemetry`` starts with."""
    return [
        SloRule("process-latency-p99", signal="process_latency",
                aggregate="p99", threshold=1.0, window=50, min_samples=5),
        SloRule("degraded-rate", signal="degraded_mode",
                aggregate="rate", threshold=0.25, window=40),
        SloRule("worker-restart-rate", signal="worker_restarted",
                aggregate="rate", threshold=0.15, window=40),
        SloRule("shift-assess-backlog", signal="shift_assessed",
                aggregate="rate", comparison="<", threshold=0.05, window=200),
    ]


@dataclass
class _AlertState:
    rule: SloRule
    raised_at: int
    value: float

    def to_dict(self) -> dict:
        return {"rule": self.rule.name, "signal": self.rule.signal,
                "aggregate": self.rule.aggregate,
                "comparison": self.rule.comparison,
                "threshold": self.rule.threshold,
                "value": self.value, "raised_at": self.raised_at}


def _compare(value: float, comparison: str, threshold: float) -> bool:
    if comparison == ">":
        return value > threshold
    if comparison == "<":
        return value < threshold
    if comparison == ">=":
        return value >= threshold
    return value <= threshold


class SloEngine(EventSink):
    """Evaluates :class:`SloRule` windows incrementally as samples arrive.

    The engine doubles as an event sink: wire it into the run's sink
    chain (``CompositeSink(original, engine)``) and every pipeline event
    becomes a ``1.0`` sample on the signal named by its ``TYPE``.
    Numeric signals are fed via :meth:`observe`; the evaluation harness
    calls :meth:`observe_report` once per batch, which also advances the
    engine's clock (one *tick* per batch — windows are measured in
    batches, not wall time, so replays evaluate identically).

    Breaches emit :class:`AlertRaised` on the facade passed at
    construction (and bump ``freeway_alerts_total{rule=...}``); recovery
    emits :class:`AlertResolved`.  With ``pre_emptive_degrade=True`` and
    a bound target (:meth:`bind`), the first active alert switches the
    target learner into degraded mode and the last resolution restores
    its previous setting.
    """

    def __init__(self, rules: list[SloRule] | None = None,
                 obs: Observability | None = None, *,
                 pre_emptive_degrade: bool = False):
        self.rules = list(rules) if rules is not None else default_slo_rules()
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self._obs = obs
        self.pre_emptive_degrade = bool(pre_emptive_degrade)
        self._target = None
        self._target_was_degrading: bool | None = None
        self._tick = 0
        self._by_signal: dict[str, list[SloRule]] = {}
        for rule in self.rules:
            self._by_signal.setdefault(rule.signal, []).append(rule)
        #: Per-signal ``(tick, value)`` samples still inside some window.
        self._samples: dict[str, deque] = {
            signal: deque() for signal in self._by_signal
        }
        self._horizon: dict[str, int] = {
            signal: max(rule.window for rule in rules)
            for signal, rules in self._by_signal.items()
        }
        #: Active alerts by rule name.
        self.active: dict[str, _AlertState] = {}
        self.raised_total = 0
        self.resolved_total = 0
        #: Guards sample intake and alert state: the run loop ticks while
        #: a TelemetryServer thread reads ``status``/``summary``.
        #: Re-entrant because ``_evaluate`` → ``_publish`` → ``obs.emit``
        #: can come straight back through a composite sink into ``emit``.
        self._lock = threading.RLock()

    # -- wiring ----------------------------------------------------------------

    def bind(self, target) -> None:
        """Attach the learner/estimator under observation.

        Used for pre-emptive degrade (``target.set_degrade``) — harmless
        for targets without that method.
        """
        self._target = target

    @property
    def target(self):
        """The estimator bound via :meth:`bind` (``None`` before binding)."""
        return self._target

    # -- sample intake ---------------------------------------------------------

    def emit(self, record) -> None:
        """EventSink duty: every pipeline event is an occurrence sample."""
        if isinstance(record, (AlertRaised, AlertResolved)):
            return  # our own output, fed back through a composite sink
        if isinstance(record, Event):
            self.observe(record.TYPE, 1.0)
        elif isinstance(record, dict) and record.get("kind") == "event":
            self.observe(record.get("type", ""), 1.0)

    def observe(self, signal: str, value: float = 1.0) -> None:
        """Record one sample on ``signal`` and re-evaluate its rules."""
        rules = self._by_signal.get(signal)
        if not rules:
            return
        with self._lock:
            self._samples[signal].append((self._tick, float(value)))
            for rule in rules:
                self._evaluate(rule)

    def observe_report(self, report) -> None:
        """Feed one per-batch report: a latency sample plus one tick."""
        latency = float(getattr(report, "latency_s", 0.0) or 0.0)
        if not latency:
            latency = (float(getattr(report, "predict_seconds", 0.0) or 0.0)
                       + float(getattr(report, "update_seconds", 0.0) or 0.0))
        self.observe("process_latency", latency)
        self.tick()

    def tick(self) -> None:
        """Advance the engine clock one batch and age out old samples."""
        with self._lock:
            self._tick += 1
            for signal, samples in self._samples.items():
                horizon = self._tick - self._horizon[signal]
                while samples and samples[0][0] <= horizon:
                    samples.popleft()
            for rule in self.rules:
                self._evaluate(rule)

    # -- evaluation ------------------------------------------------------------

    def _window_values(self, rule: SloRule) -> list[float]:
        horizon = self._tick - rule.window
        return [value for tick, value in self._samples[rule.signal]
                if tick > horizon]

    def _aggregate(self, rule: SloRule, values: list[float]) -> float | None:
        if rule.aggregate == "count":
            return float(len(values))
        if rule.aggregate == "rate":
            # Samples per tick over the full window, even before `window`
            # ticks have elapsed: a partial-window denominator would let a
            # single early sample read as a full-rate breach and flap.
            return len(values) / rule.window
        if len(values) < rule.min_samples:
            return None
        if rule.aggregate == "mean":
            return sum(values) / len(values)
        if rule.aggregate == "max":
            return max(values)
        ordered = sorted(values)
        rank = _QUANTILES[rule.aggregate] * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def _evaluate(self, rule: SloRule) -> None:
        # Callers (observe/tick) already hold the lock; re-acquiring the
        # RLock is cheap and keeps this safe if ever called standalone.
        with self._lock:
            values = self._window_values(rule)
            value = self._aggregate(rule, values)
            breached = (value is not None
                        and _compare(value, rule.comparison, rule.threshold))
            if breached and rule.comparison in ("<", "<="):
                # Starvation rules ("too little activity") cannot be judged
                # on a partial window: a fresh engine is always under-rate.
                breached = self._tick >= rule.window
            name = rule.name
            if breached and name not in self.active:
                self.active[name] = _AlertState(rule, self._tick, value)
                self.raised_total += 1
                self._publish(AlertRaised(
                    rule=name, signal=rule.signal, value=float(value),
                    threshold=rule.threshold, batch=self._tick,
                ), count=True)
                self._nudge_degrade()
            elif not breached and name in self.active:
                state = self.active.pop(name)
                self.resolved_total += 1
                self._publish(AlertResolved(
                    rule=name,
                    value=float(value) if value is not None else state.value,
                    threshold=rule.threshold,
                    batches_active=self._tick - state.raised_at,
                    batch=self._tick,
                ), count=False)
                self._nudge_degrade()

    def _publish(self, event: Event, *, count: bool) -> None:
        obs = self._obs
        if obs is None or not obs.enabled:
            return
        obs.emit(event)  # re-entry through a composite sink is ignored above
        if count:
            obs.registry.counter(
                "freeway_alerts_total", "SLO alerts raised, by rule",
            ).labels(rule=event.rule).inc()

    def _nudge_degrade(self) -> None:
        if not self.pre_emptive_degrade or self._target is None:
            return
        target = self._target
        set_degrade = getattr(target, "set_degrade", None)
        if set_degrade is None:
            return
        if self.active:
            if self._target_was_degrading is None:
                self._target_was_degrading = bool(
                    getattr(target, "degrade", False)
                )
                set_degrade(True)
        elif self._target_was_degrading is not None:
            set_degrade(self._target_was_degrading)
            self._target_was_degrading = None

    # -- inspection ------------------------------------------------------------

    def status(self) -> list[dict]:
        """The active alerts, JSON-able, ordered by rule name."""
        with self._lock:
            return [self.active[name].to_dict()
                    for name in sorted(self.active)]

    def summary(self) -> dict:
        """Engine state for ``/health`` and ``/snapshot``."""
        with self._lock:
            return {
                "tick": self._tick,
                "rules": [rule.describe() for rule in self.rules],
                "active": self.status(),
                "raised_total": self.raised_total,
                "resolved_total": self.resolved_total,
                "pre_emptive_degrade": self.pre_emptive_degrade,
            }


# -- layer 2: HTTP exposition --------------------------------------------------


def find_ring(sink) -> MemorySink | None:
    """The first in-memory ring inside a (possibly composite) sink."""
    if isinstance(sink, MemorySink):
        return sink
    if isinstance(sink, CompositeSink):
        for inner in sink.sinks:
            ring = find_ring(inner)
            if ring is not None:
                return ring
    return None


def build_snapshot(obs: Observability, engine: SloEngine | None = None,
                   ring: MemorySink | None = None) -> dict:
    """The ``/snapshot`` payload: registry dump + recent-event ring.

    The same schema ``python -m repro report`` accepts, so live and
    post-hoc reporting share one renderer.
    """
    if ring is None:
        ring = find_ring(obs.sink)
    if ring is not None:
        # Locked copy: a concurrent emit cannot shift the list mid-read.
        ring_records, ring_dropped = ring.snapshot()
    else:
        ring_records, ring_dropped = [], 0
    return {
        "kind": "snapshot",
        "metrics": obs.registry.snapshot(),
        "records": [EventSink._as_dict(record) for record in ring_records],
        "dropped_records": ring_dropped,
        "alerts": engine.summary() if engine is not None else None,
    }


class TelemetryServer:
    """Stdlib-only HTTP exposition for a live run.

    Serves three endpoints from daemon threads
    (``http.server.ThreadingHTTPServer``):

    - ``/metrics`` — Prometheus text exposition of ``obs.registry``;
    - ``/health`` — JSON: overall status (``ok`` / ``degraded`` /
      ``alerting``), active alerts, open circuit breakers, and the
      learner's :meth:`summary` when a health source is bound;
    - ``/snapshot`` — :func:`build_snapshot` JSON.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after :meth:`start`).  Rendering happens on scrape threads while the
    run mutates the registry; renders retry a few times on the rare
    ``RuntimeError`` from a dict mutating mid-iteration.
    """

    def __init__(self, obs: Observability, engine: SloEngine | None = None,
                 health_source=None, *, host: str = "127.0.0.1",
                 port: int = 0, ring: MemorySink | None = None):
        self.obs = obs
        self.engine = engine
        #: Zero-arg callable returning the learner's ``summary()`` dict.
        self.health_source = health_source
        self.host = host
        self._requested_port = int(port)
        self.ring = ring
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- life cycle ------------------------------------------------------------

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        plane = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence per-request stderr noise
                pass

            def do_GET(self):
                try:
                    plane._handle(self)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # scraper went away mid-response

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="freeway-telemetry", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    @property
    def port(self) -> int | None:
        return self._httpd.server_address[1] if self._httpd else None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- request handling ------------------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = self._retry(self.obs.registry.render_text)
                self._respond(request, 200, body,
                              "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/health":
                payload = self._retry(self.health)
                self._respond_json(request, 200, payload)
            elif path == "/snapshot":
                payload = self._retry(
                    lambda: build_snapshot(self.obs, self.engine, self.ring)
                )
                self._respond_json(request, 200, payload)
            else:
                self._respond(request, 404,
                              f"unknown path {path!r}; "
                              f"try /metrics, /health, /snapshot",
                              "text/plain; charset=utf-8")
        except Exception as error:  # repro: noqa[REP004] - a scrape must
            # never take the run down; report the failure to the scraper.
            self._respond(request, 500, f"telemetry error: {error}",
                          "text/plain; charset=utf-8")

    @staticmethod
    def _retry(render, attempts: int = 8):
        """Re-run ``render`` when a concurrent mutation trips iteration.

        The registry, ring, and SLO engine all lock their readers now, so
        this is belt-and-braces for ``health_source`` callables and any
        other unlocked state a renderer touches.
        """
        for remaining in range(attempts - 1, -1, -1):
            try:
                return render()
            except RuntimeError:
                if not remaining:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def health(self) -> dict:
        """The ``/health`` payload (also handy for in-process checks)."""
        summary: dict = {}
        source = self.health_source
        if callable(source):
            summary = source() or {}
        alerts = self.engine.status() if self.engine is not None else []
        breaker = summary.get("breaker") or {}
        open_circuits = sorted(
            mechanism for mechanism, state in breaker.items()
            if isinstance(state, dict) and state.get("open")
        )
        if alerts:
            status = "alerting"
        elif open_circuits or summary.get("degraded"):
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "alerts": alerts,
            "open_circuits": open_circuits,
            "backend": summary.get("backend"),
            "summary": summary,
        }
        if self.engine is not None:
            payload["slo"] = self.engine.summary()
        return payload

    # -- response plumbing -----------------------------------------------------

    @staticmethod
    def _respond(request: BaseHTTPRequestHandler, code: int, body: str,
                 content_type: str) -> None:
        encoded = body.encode("utf-8")
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(encoded)))
        request.end_headers()
        request.wfile.write(encoded)

    @classmethod
    def _respond_json(cls, request: BaseHTTPRequestHandler, code: int,
                      payload: dict) -> None:
        cls._respond(request, code, json.dumps(payload, default=float),
                     "application/json; charset=utf-8")


# -- minimal exposition-format parser/validator --------------------------------


def _parse_sample_labels(text: str, lineno: int) -> dict:
    """Parse ``name="value",...`` honouring ``\\\\``/``\\"``/``\\n`` escapes."""
    labels: dict = {}
    position = 0
    length = len(text)
    while position < length:
        equals = text.find("=", position)
        if equals < 0:
            raise ValueError(f"line {lineno}: malformed labels {text!r}")
        name = text[position:equals].strip().lstrip(",").strip()
        if not name:
            raise ValueError(f"line {lineno}: empty label name in {text!r}")
        if equals + 1 >= length or text[equals + 1] != '"':
            raise ValueError(f"line {lineno}: unquoted label value "
                             f"for {name!r}")
        value_chars: list[str] = []
        position = equals + 2
        while True:
            if position >= length:
                raise ValueError(
                    f"line {lineno}: unterminated label value for {name!r}"
                )
            char = text[position]
            if char == "\\":
                escape = text[position + 1:position + 2]
                if escape == "n":
                    value_chars.append("\n")
                elif escape in ("\\", '"'):
                    value_chars.append(escape)
                else:
                    raise ValueError(
                        f"line {lineno}: bad escape \\{escape} in {name!r}"
                    )
                position += 2
                continue
            if char == '"':
                position += 1
                break
            value_chars.append(char)
            position += 1
        labels[name] = "".join(value_chars)
    return labels


_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def parse_prometheus_text(text: str) -> dict:
    """Parse (and validate) Prometheus text exposition into families.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value), ...]}}``.  Raises :class:`ValueError` on format violations:
    duplicate or sample-trailing ``# TYPE``/``# HELP`` lines, samples
    without a ``# TYPE``, unparsable label escapes or values, and
    histogram bucket series whose cumulative counts decrease.
    """
    families: dict[str, dict] = {}

    def family_for(sample_name: str, lineno: int) -> str:
        if sample_name in families:
            return sample_name
        for suffix in _HISTOGRAM_SUFFIXES:
            base = sample_name.removesuffix(suffix)
            if base != sample_name and families.get(base, {}).get(
                    "type") == "histogram":
                return base
        raise ValueError(
            f"line {lineno}: sample {sample_name!r} has no # TYPE line"
        )

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            keyword = line[2:6]
            rest = line[7:]
            name, _, payload = rest.partition(" ")
            if not name:
                raise ValueError(f"line {lineno}: malformed {keyword} line")
            family = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            slot = keyword.lower()
            if family[slot] is not None:
                raise ValueError(
                    f"line {lineno}: duplicate # {keyword} for {name!r}"
                )
            if family["samples"]:
                raise ValueError(
                    f"line {lineno}: # {keyword} for {name!r} after its "
                    f"samples"
                )
            family[slot] = payload
            continue
        if line.startswith("#"):
            continue  # arbitrary comments are legal
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ValueError(f"line {lineno}: unbalanced braces")
            sample_name = line[:brace]
            labels = _parse_sample_labels(line[brace + 1:close], lineno)
            value_text = line[close + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        if not sample_name or not value_text:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        try:
            value = float(value_text.split()[0])  # ignore optional timestamp
        except ValueError:
            raise ValueError(
                f"line {lineno}: unparsable value {value_text!r}"
            ) from None
        family = families[family_for(sample_name, lineno)]
        if family["type"] is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its # TYPE"
            )
        family["samples"].append((sample_name, labels, value))

    _validate_histograms(families)
    return families


def _validate_histograms(families: dict) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        cumulative: dict[tuple, float] = {}
        for sample_name, labels, value in family["samples"]:
            if sample_name != f"{name}_bucket":
                continue
            if "le" not in labels:
                raise ValueError(
                    f"histogram {name!r}: bucket sample missing 'le' label"
                )
            series = tuple(sorted(
                (key, val) for key, val in labels.items() if key != "le"
            ))
            previous = cumulative.get(series)
            if previous is not None and value < previous:
                raise ValueError(
                    f"histogram {name!r}{dict(series)}: cumulative bucket "
                    f"counts decreased ({value} < {previous})"
                )
            cumulative[series] = value
