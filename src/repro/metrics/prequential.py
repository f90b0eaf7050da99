"""Prequential (test-then-train) evaluation.

The standard streaming-learning protocol the paper uses throughout: each
batch is first predicted with the current model, scored against its labels,
and only then used for training.  Works for both plain
:class:`~repro.models.base.StreamingModel` learners and FreewayML
:class:`~repro.core.learner.Learner` instances (which carry their own
test-then-train logic in :meth:`process`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..models.base import StreamingModel
from .accuracy import AccuracyTracker

if TYPE_CHECKING:  # circular at runtime; used in annotations only
    from ..core.learner import Learner
    from ..distributed.workers import DistributedLearner

__all__ = ["PrequentialResult", "evaluate_model", "evaluate_learner"]


@dataclass
class PrequentialResult:
    """Everything measured during one prequential run."""

    name: str
    accuracies: np.ndarray
    patterns: list  # ground-truth pattern per batch (None if unannotated)
    g_acc: float
    si: float
    predict_seconds: np.ndarray
    update_seconds: np.ndarray
    items_per_batch: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def total_items(self) -> int:
        return int(self.items_per_batch.sum())

    @property
    def throughput(self) -> float:
        """Items processed per second of (predict + update) compute."""
        total_time = self.predict_seconds.sum() + self.update_seconds.sum()
        return self.total_items / max(total_time, 1e-12)

    def accuracy_by_pattern(self, skip: int = 0) -> dict[str, float]:
        """Mean real-time accuracy grouped by ground-truth pattern."""
        grouped: dict[str, list[float]] = {}
        for position, (pattern, accuracy) in enumerate(
                zip(self.patterns, self.accuracies)):
            if position < skip or pattern is None:
                continue
            grouped.setdefault(pattern, []).append(accuracy)
        return {pattern: float(np.mean(values))
                for pattern, values in grouped.items()}


def evaluate_model(model: StreamingModel, stream, name: str | None = None,
                   skip: int = 0) -> PrequentialResult:
    """Test-then-train a plain streaming model over a stream."""
    tracker = AccuracyTracker()
    patterns: list = []
    predict_times: list[float] = []
    update_times: list[float] = []
    items: list[int] = []
    for batch in stream:
        start = time.perf_counter()
        predictions = model.predict(batch.x)
        predict_times.append(time.perf_counter() - start)
        tracker.observe(batch.y, predictions)
        start = time.perf_counter()
        model.partial_fit(batch.x, batch.y)
        update_times.append(time.perf_counter() - start)
        patterns.append(batch.pattern)
        items.append(len(batch))
    summary = tracker.summary(skip=skip)
    return PrequentialResult(
        name=name or model.name,
        accuracies=tracker.series,
        patterns=patterns,
        g_acc=summary.g_acc,
        si=summary.si,
        predict_seconds=np.asarray(predict_times),
        update_seconds=np.asarray(update_times),
        items_per_batch=np.asarray(items),
    )


def evaluate_learner(learner: Learner | DistributedLearner, stream,
                     name: str = "freewayml",
                     skip: int = 0, on_report=None) -> PrequentialResult:
    """Run a FreewayML learner prequentially, collecting its batch reports.

    Ground-truth pattern annotations on the batches are kept alongside the
    reports so pattern-segmented analyses (Table II, Figure 11) can align
    the learner's behaviour with what actually happened in the stream.

    ``on_report`` is called with every batch report as it is produced —
    including unlabeled batches the scoring skips — which is how the live
    telemetry plane feeds per-batch latency samples to its SLO engine.
    """
    reports = []
    patterns = []
    for batch in stream:
        report = learner.process(batch)
        if on_report is not None:
            on_report(report)
        if report.accuracy is None:
            continue
        reports.append(report)
        patterns.append(batch.pattern)
    if not reports:
        raise ValueError("stream produced no labeled batches to score")
    accuracies = np.asarray([report.accuracy for report in reports])
    trimmed = accuracies[skip:]
    return PrequentialResult(
        name=name,
        accuracies=accuracies,
        patterns=patterns,
        g_acc=float(trimmed.mean()),
        si=float(np.exp(-trimmed.std() / trimmed.mean())),
        predict_seconds=np.asarray([r.predict_seconds for r in reports]),
        update_seconds=np.asarray([r.update_seconds for r in reports]),
        items_per_batch=np.asarray([r.num_items for r in reports]),
        extras={"reports": reports},
    )
