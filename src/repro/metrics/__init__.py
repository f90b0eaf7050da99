"""``repro.metrics`` — accuracy, stability, prequential evaluation, performance."""

from .accuracy import (
    AccuracyTracker,
    batch_accuracy,
    class_recalls,
    global_accuracy,
    macro_f1,
    stability_index,
)
from .perf import measure_throughput
from .prequential import PrequentialResult, evaluate_learner, evaluate_model
from .windows import (
    FadingAccuracy,
    SlidingWindowAccuracy,
    fading_series,
    sliding_series,
)

__all__ = [
    "batch_accuracy",
    "global_accuracy",
    "stability_index",
    "class_recalls",
    "macro_f1",
    "AccuracyTracker",
    "PrequentialResult",
    "evaluate_model",
    "evaluate_learner",
    "measure_throughput",
    "SlidingWindowAccuracy",
    "FadingAccuracy",
    "sliding_series",
    "fading_series",
]
