"""Process-local metrics: counters, gauges, histograms, and a registry.

Dependency-free instruments in the Prometheus mold.  Every instrument is
created through a :class:`MetricsRegistry` (same name → same instrument),
can carry labels (``counter.labels(strategy="cec").inc()``), and the whole
registry exports both a plain-dict :meth:`~MetricsRegistry.snapshot` for
programmatic use and a Prometheus-style text exposition via
:meth:`~MetricsRegistry.render_text` for scraping or diffing.

Histograms use fixed bucket boundaries plus a running sum/count; quantiles
are estimated by linear interpolation inside the bucket containing the
target rank — the standard streaming estimate used by
``histogram_quantile`` — so no samples are retained.

Registries also speak a *wire format* for cross-process aggregation (the
live telemetry plane, see :mod:`repro.obs.live`): :meth:`MetricsRegistry.dump`
serializes every series to plain JSON-able dicts,
:meth:`MetricsRegistry.collect_delta` returns only what changed since the
previous collection (and advances the baseline), and
:meth:`MetricsRegistry.merge` folds a dump or delta into another registry —
counters add, gauges last-write-wins, histograms merge bucket-wise — with
optional extra labels (``{"worker": "2"}``) stamped on every merged series.

Thread safety: every instrument guards its mutators with an ``RLock``.
Instruments created through a registry all share the *registry's* lock
(children from :meth:`~_Instrument.labels` inherit their parent's), so a
scrape — :meth:`MetricsRegistry.snapshot`, :meth:`~MetricsRegistry.render_text`,
or the wire-format collectors — observes an atomic view even while the run
loop increments counters from another thread (the TelemetryServer case).
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram boundaries (seconds), spanning µs-scale kernel calls
#: to multi-second window completions.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _escape_label_value(value) -> str:
    """Prometheus text-format label-value escaping (``\\``, ``"``, newline)."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """Prometheus text-format HELP escaping (``\\`` and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"'
                     for name, value in key)
    return "{" + inner + "}"


class _Instrument:
    """Shared plumbing: a family of label-keyed children under one name."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(
                f"metric names must be alphanumeric/underscore; got {name!r}"
            )
        self.name = name
        self.help = help
        self._children: dict[tuple, "_Instrument"] = {}
        self._labels: tuple = ()
        #: Guards every mutator.  Standalone instruments own their lock;
        #: registry-created ones are re-pointed at the registry's single
        #: lock (and children inherit it below), so whole-registry reads
        #: are atomic against concurrent writes.
        self._lock = threading.RLock()

    def labels(self, **labels) -> "_Instrument":
        """The child instrument for one label combination (created lazily)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)._blank(self.name, self.help)
                child._labels = key
                child._lock = self._lock
                self._children[key] = child
        return child

    @classmethod
    def _blank(cls, name: str, help: str) -> "_Instrument":
        return cls(name, help)

    def _series(self) -> list["_Instrument"]:
        """Every concrete series: the bare instrument (if touched) plus
        each labeled child."""
        out = []
        if self._touched():
            out.append(self)
        out.extend(self._children.values())
        return out

    def _touched(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _touched(self) -> bool:
        return self._value != 0.0

    # -- wire format ----------------------------------------------------------

    def _wire(self, baseline: dict | None) -> dict | None:
        previous = baseline.get("value", 0.0) if baseline else 0.0
        delta = self._value - previous
        if baseline is not None and delta == 0.0:
            return None
        return {"value": delta if baseline is not None else self._value}

    def _wire_baseline(self) -> dict:
        return {"value": self._value}

    def _merge_wire(self, payload: dict) -> None:
        self.inc(float(payload["value"]))


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0
        self._set_ever = False

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._set_ever = True

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            self._set_ever = True

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _touched(self) -> bool:
        return self._set_ever

    # -- wire format ----------------------------------------------------------

    def _wire(self, baseline: dict | None) -> dict | None:
        if baseline is not None and baseline.get("value") == self._value:
            return None
        return {"value": self._value}

    def _wire_baseline(self) -> dict:
        return {"value": self._value}

    def _merge_wire(self, payload: dict) -> None:
        # Last write wins: the incoming value is the series' current truth.
        self.set(float(payload["value"]))


class Histogram(_Instrument):
    """Fixed-boundary bucketed distribution with streaming quantiles.

    Parameters
    ----------
    buckets:
        Ascending upper boundaries; an implicit ``+Inf`` bucket is always
        appended, so every observation lands somewhere.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must ascend; got {bounds}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    @classmethod
    def _blank(cls, name: str, help: str) -> "Histogram":
        return cls(name, help)

    def labels(self, **labels) -> "Histogram":
        with self._lock:
            child = super().labels(**labels)
            # Children inherit the parent's boundaries, not the default.
            if child.buckets != self.buckets and child._count == 0:
                child.buckets = self.buckets
                child._counts = [0] * (len(self.buckets) + 1)
        return child

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[position] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile by interpolation inside the target
        bucket (clamped to the observed min/max so tiny samples do not
        report a bucket boundary far beyond any real observation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1]; got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        lower = 0.0
        for position, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += self._counts[position]
            if cumulative >= rank and self._counts[position]:
                fraction = (rank - previous) / self._counts[position]
                estimate = lower + fraction * (bound - lower)
                return min(max(estimate, self._min), self._max)
            lower = bound
        return self._max  # rank fell in the +Inf bucket

    def _touched(self) -> bool:
        return self._count > 0

    # -- wire format ----------------------------------------------------------

    def _wire(self, baseline: dict | None) -> dict | None:
        if baseline is None:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }
        if self._count == baseline["count"]:
            return None
        return {
            "buckets": list(self.buckets),
            "counts": [now - then for now, then
                       in zip(self._counts, baseline["counts"])],
            "sum": self._sum - baseline["sum"],
            "count": self._count - baseline["count"],
            # min/max are monotone over a histogram's lifetime, so the
            # current extrema are always a safe (if slightly wide) bound
            # for the delta's samples.
            "min": self._min,
            "max": self._max,
        }

    def _wire_baseline(self) -> dict:
        return {"counts": list(self._counts), "sum": self._sum,
                "count": self._count}

    def _merge_wire(self, payload: dict) -> None:
        bounds = tuple(float(b) for b in payload["buckets"])
        with self._lock:
            if self._count == 0 and self.buckets != bounds:
                # Untouched target: adopt the incoming boundaries wholesale.
                self.buckets = bounds
                self._counts = [0] * (len(bounds) + 1)
            if self.buckets != bounds:
                raise ValueError(
                    f"cannot merge histogram {self.name!r}: bucket boundaries "
                    f"differ ({self.buckets} vs {bounds})"
                )
            for position, count in enumerate(payload["counts"]):
                self._counts[position] += int(count)
            self._sum += float(payload["sum"])
            self._count += int(payload["count"])
            if payload.get("min") is not None:
                self._min = min(self._min, float(payload["min"]))
            if payload.get("max") is not None:
                self._max = max(self._max, float(payload["max"]))

    def _value_dict(self) -> dict:
        bucket_counts = {}
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            bucket_counts[bound] = cumulative
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": bucket_counts,
        }


class MetricsRegistry:
    """Named instrument store: create-or-get, snapshot, and exposition."""

    def __init__(self):
        self._instruments: dict[str, _Instrument] = {}
        #: Per-series baselines for :meth:`collect_delta` (what was last
        #: shipped), keyed by ``(name, label_key)``.
        self._shipped: dict[tuple, dict] = {}
        #: One lock for the registry and every instrument it creates, so
        #: a scrape sees an atomic registry-wide view (re-entrant because
        #: a locked scrape calls locked instrument methods).
        self._lock = threading.RLock()

    def _get(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                instrument._lock = self._lock
                self._instruments[name] = instrument
                return instrument
        if instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"not {kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get(
            name, lambda: Histogram(name, help, buckets=buckets), "histogram"
        )

    def __iter__(self):
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """Plain-dict view: ``{name: {"type", "help", "series": [...]}}``.

        Each series entry carries its ``labels`` dict and either a scalar
        ``value`` (counter/gauge) or the histogram's summary dict.
        """
        out: dict = {}
        with self._lock:
            for name, instrument in sorted(self._instruments.items()):
                series = []
                for child in instrument._series():
                    labels = dict(child._labels)
                    if isinstance(child, Histogram):
                        series.append({"labels": labels,
                                       **child._value_dict()})
                    else:
                        series.append({"labels": labels,
                                       "value": child.value})
                out[name] = {"type": instrument.kind,
                             "help": instrument.help, "series": series}
        return out

    # -- wire format: dump / delta / merge ------------------------------------

    def _collect_wire(self, *, delta: bool) -> dict:
        out: dict = {}
        with self._lock:
            for name, instrument in sorted(self._instruments.items()):
                series = []
                for child in (instrument, *instrument._children.values()):
                    key = (name, child._labels)
                    baseline = self._shipped.get(key) if delta else None
                    if baseline is None and not child._touched():
                        continue
                    payload = child._wire(baseline)
                    if delta:
                        self._shipped[key] = child._wire_baseline()
                    if payload is None:
                        continue
                    series.append({"labels": dict(child._labels), **payload})
                if series:
                    out[name] = {"kind": instrument.kind,
                                 "help": instrument.help, "series": series}
        return out

    def dump(self) -> dict:
        """Every series in the JSON-able wire format :meth:`merge` accepts.

        Counters and gauges carry ``{"value": v}``; histograms carry their
        raw (non-cumulative) bucket ``counts`` plus ``sum``/``count`` and
        observed ``min``/``max``, so a merge is bit-exact bucket-wise.
        """
        return self._collect_wire(delta=False)

    def collect_delta(self) -> dict:
        """What changed since the previous collection, then advance the
        baseline.

        The first call returns everything (a full :meth:`dump`); later
        calls return counter/histogram *increments* and the current value
        of any gauge written since — so repeatedly merging consecutive
        deltas into another registry reproduces this registry's totals
        with no double counting.  Unchanged series are omitted.
        """
        return self._collect_wire(delta=True)

    def merge(self, wire: dict, extra_labels: dict | None = None) -> None:
        """Fold a :meth:`dump`/:meth:`collect_delta` payload into this
        registry.

        Counters add, gauges last-write-wins, histograms merge bucket-wise
        (boundaries must agree unless the target series is untouched).
        ``extra_labels`` are stamped on every merged series — the
        coordinator passes ``{"worker": "<index>"}`` so replica telemetry
        stays attributable after aggregation.
        """
        with self._lock:
            for name, family in wire.items():
                kind = family.get("kind", "untyped")
                help = family.get("help", "")
                series_list = family.get("series", ())
                if kind == "counter":
                    instrument = self.counter(name, help)
                elif kind == "gauge":
                    instrument = self.gauge(name, help)
                elif kind == "histogram":
                    buckets = DEFAULT_LATENCY_BUCKETS
                    for series in series_list:
                        if series.get("buckets"):
                            buckets = tuple(series["buckets"])
                            break
                    instrument = self.histogram(name, help, buckets=buckets)
                else:
                    raise ValueError(
                        f"cannot merge metric {name!r} of unknown kind "
                        f"{kind!r}"
                    )
                if help and not instrument.help:
                    instrument.help = help
                for series in series_list:
                    labels = dict(series["labels"])
                    if extra_labels:
                        labels.update(extra_labels)
                    child = (instrument.labels(**labels) if labels
                             else instrument)
                    child._merge_wire(series)

    def render_text(self) -> str:
        """Prometheus text exposition (the format scrapers and humans diff)."""
        lines: list[str] = []
        # One HELP/TYPE pair per metric family, exactly once, before any of
        # the family's samples (the exposition-format contract scrapers
        # check).
        with self._lock:
            self._render_into(lines)
        return "\n".join(lines) + ("\n" if lines else "")

    def _render_into(self, lines: list[str]) -> None:
        for name, instrument in sorted(self._instruments.items()):
            if instrument.help:
                lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for child in instrument._series():
                labelled = _render_labels(child._labels)
                if isinstance(child, Histogram):
                    cumulative = 0
                    for bound, count in zip(child.buckets, child._counts):
                        cumulative += count
                        bucket_labels = _render_labels(
                            child._labels + (("le", f"{bound:g}"),)
                        )
                        lines.append(
                            f"{name}_bucket{bucket_labels} {cumulative}"
                        )
                    inf_labels = _render_labels(
                        child._labels + (("le", "+Inf"),)
                    )
                    lines.append(f"{name}_bucket{inf_labels} {child.count}")
                    lines.append(f"{name}_sum{labelled} {child.sum:g}")
                    lines.append(f"{name}_count{labelled} {child.count}")
                else:
                    lines.append(f"{name}{labelled} {child.value:g}")
