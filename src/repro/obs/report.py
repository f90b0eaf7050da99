"""Post-hoc trace analysis: summarize a JSONL event/span log.

Backs ``python -m repro report trace.jsonl``.  Answers the questions the
paper's adaptive-routing design raises after a run: how often each
mechanism answered and at what latency, how often a claimed reoccurrence
actually produced a usable knowledge match, and how the window's decay
behaviour evolved along the stream.

Also accepts a saved ``/snapshot`` payload from the live telemetry plane
(one JSON object with ``"kind": "snapshot"``, see
:func:`repro.obs.live.build_snapshot`) — its recent-event ring feeds the
same summarizer, so live and post-hoc reporting share one renderer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .events import (
    AswDecayApplied,
    CecInvoked,
    KnowledgeEvicted,
    KnowledgePreserved,
    KnowledgeReused,
    ShiftAssessed,
    StrategySelected,
    event_from_dict,
    read_records,
)

__all__ = ["TraceSummary", "summarize_trace", "span_latency", "render_report"]


@dataclass
class TraceSummary:
    """Everything the ``report`` subcommand derives from one trace."""

    path: str
    num_events: int
    num_spans: int
    event_counts: dict[str, int]
    pattern_counts: dict[str, int]
    strategy_counts: dict[str, int]
    fallback_counts: dict[str, int]          # reason → count
    #: strategy → {"count", "total", "mean", "p50", "p95"} predict latency
    #: (seconds)
    strategy_latency: dict[str, dict[str, float]]
    #: span name → the same stats over all spans (:func:`span_latency`)
    span_latency: dict[str, dict[str, float]]
    reuse_attempts: int
    reuse_hits: int
    #: (arrival, mean_rate, disorder) per AswDecayApplied, stream order
    decay_timeline: list[tuple[int, float, float]] = field(default_factory=list)
    preserved: int = 0
    evicted: int = 0
    cec_calls: int = 0
    cec_mean_vote_margin: float | None = None

    @property
    def reuse_hit_rate(self) -> float | None:
        """Knowledge matches found per reuse attempt (``None`` = no attempts)."""
        if self.reuse_attempts == 0:
            return None
        return self.reuse_hits / self.reuse_attempts


def _percentiles(samples: list[float]) -> dict[str, float]:
    values = np.asarray(samples, dtype=float)
    return {
        "count": int(values.size),
        "total": float(values.sum()),
        "mean": float(values.mean()),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
    }


def _walk_spans(record: dict):
    yield record
    for child in record.get("children", ()):
        yield from _walk_spans(child)


def span_latency(spans) -> dict[str, dict[str, float]]:
    """Per span name ``{count, total, mean, p50, p95}`` (seconds) over
    span records (``Span.to_dict()`` form) and all their descendants."""
    by_name: dict[str, list[float]] = {}
    for root in spans:
        for record in _walk_spans(root):
            by_name.setdefault(record["name"], []).append(record["duration"])
    return {name: _percentiles(samples)
            for name, samples in sorted(by_name.items())}


def _load_records(path: str | Path):
    """Events + spans from either a JSONL trace or a ``/snapshot`` dump."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None  # multi-line JSONL whose first record is a dict
        if isinstance(payload, dict) and payload.get("kind") == "snapshot":
            events = []
            spans = []
            for record in payload.get("records", ()):
                if record.get("kind") == "span":
                    spans.append(record)
                elif record.get("kind") == "event":
                    event = event_from_dict(record)
                    if event is not None:
                        events.append(event)
            return events, spans
    return read_records(path)


def summarize_trace(path: str | Path) -> TraceSummary:
    """Parse and aggregate one JSONL trace (or ``/snapshot`` JSON) file."""
    events, spans = _load_records(path)

    event_counts: dict[str, int] = {}
    pattern_counts: dict[str, int] = {}
    strategy_counts: dict[str, int] = {}
    fallback_counts: dict[str, int] = {}
    decay_timeline: list[tuple[int, float, float]] = []
    reuse_hits = 0
    reuse_failures = 0
    preserved = 0
    evicted = 0
    vote_margins: list[float] = []

    for event in events:
        event_counts[event.TYPE] = event_counts.get(event.TYPE, 0) + 1
        if isinstance(event, ShiftAssessed):
            pattern_counts[event.pattern] = (
                pattern_counts.get(event.pattern, 0) + 1
            )
        elif isinstance(event, StrategySelected):
            strategy_counts[event.strategy] = (
                strategy_counts.get(event.strategy, 0) + 1
            )
            if event.fallback:
                fallback_counts[event.reason or "unspecified"] = (
                    fallback_counts.get(event.reason or "unspecified", 0) + 1
                )
                if event.reason == "no knowledge match":
                    reuse_failures += 1
        elif isinstance(event, KnowledgeReused):
            reuse_hits += 1
        elif isinstance(event, AswDecayApplied):
            decay_timeline.append(
                (event.arrival, event.mean_rate, event.disorder)
            )
        elif isinstance(event, KnowledgePreserved):
            preserved += 1
        elif isinstance(event, KnowledgeEvicted):
            evicted += event.count
        elif isinstance(event, CecInvoked):
            vote_margins.append(event.vote_margin)

    by_strategy: dict[str, list[float]] = {}
    for root in spans:
        for record in _walk_spans(root):
            if record["name"] == "learner.predict":
                strategy = record.get("attributes", {}).get("strategy")
                if strategy:
                    by_strategy.setdefault(strategy, []).append(
                        record["duration"]
                    )

    return TraceSummary(
        path=str(path),
        num_events=len(events),
        num_spans=len(spans),
        event_counts=dict(sorted(event_counts.items())),
        pattern_counts=dict(sorted(pattern_counts.items())),
        strategy_counts=dict(sorted(strategy_counts.items())),
        fallback_counts=dict(sorted(fallback_counts.items())),
        strategy_latency={name: _percentiles(samples)
                          for name, samples in sorted(by_strategy.items())},
        span_latency=span_latency(spans),
        reuse_attempts=reuse_hits + reuse_failures,
        reuse_hits=reuse_hits,
        decay_timeline=decay_timeline,
        preserved=preserved,
        evicted=evicted,
        cec_calls=len(vote_margins),
        cec_mean_vote_margin=(float(np.mean(vote_margins))
                              if vote_margins else None),
    )


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}ms"


def render_report(summary: TraceSummary) -> str:
    """Human-readable report for one :class:`TraceSummary`."""
    lines = [
        f"trace    : {summary.path}",
        f"records  : {summary.num_events} events, {summary.num_spans} span trees",
    ]

    if summary.pattern_counts:
        parts = ", ".join(f"{name}={count}" for name, count
                          in summary.pattern_counts.items())
        lines.append(f"patterns : {parts}")
    if summary.strategy_counts:
        parts = ", ".join(f"{name}={count}" for name, count
                          in summary.strategy_counts.items())
        lines.append(f"strategy : {parts}")
    if summary.fallback_counts:
        parts = ", ".join(f"{reason}={count}" for reason, count
                          in summary.fallback_counts.items())
        lines.append(f"fallbacks: {parts}")

    if summary.strategy_latency:
        lines.append("")
        lines.append("predict latency by strategy (p50 / p95 / mean):")
        for name, stats in summary.strategy_latency.items():
            lines.append(
                f"  {name:18s} {_ms(stats['p50'])} {_ms(stats['p95'])} "
                f"{_ms(stats['mean'])}  (n={stats['count']})"
            )
    if summary.span_latency:
        lines.append("")
        lines.append("stage latency (p50 / p95 / mean):")
        for name, stats in summary.span_latency.items():
            lines.append(
                f"  {name:24s} {_ms(stats['p50'])} {_ms(stats['p95'])} "
                f"{_ms(stats['mean'])}  (n={stats['count']})"
            )

    lines.append("")
    hit_rate = summary.reuse_hit_rate
    if hit_rate is None:
        lines.append("knowledge reuse: no attempts")
    else:
        lines.append(
            f"knowledge reuse: {summary.reuse_hits}/{summary.reuse_attempts} "
            f"attempts matched (hit-rate {hit_rate * 100:.0f}%)"
        )
    lines.append(
        f"knowledge store: {summary.preserved} preserved, "
        f"{summary.evicted} evicted"
    )
    if summary.cec_calls:
        lines.append(
            f"cec            : {summary.cec_calls} calls, mean vote margin "
            f"{summary.cec_mean_vote_margin:.2f}"
        )

    if summary.decay_timeline:
        rates = [rate for _, rate, _ in summary.decay_timeline]
        disorders = [disorder for _, _, disorder in summary.decay_timeline]
        lines.append(
            f"asw decay      : {len(rates)} passes, rate "
            f"mean={float(np.mean(rates)):.3f} "
            f"min={min(rates):.3f} max={max(rates):.3f}, disorder "
            f"mean={float(np.mean(disorders)):.3f}"
        )
    return "\n".join(lines)
