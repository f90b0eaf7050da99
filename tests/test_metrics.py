"""Tests for metrics and prequential evaluation (repro.metrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Learner
from repro.data import HyperplaneGenerator
from repro.metrics import (
    AccuracyTracker,
    batch_accuracy,
    evaluate_learner,
    evaluate_model,
    global_accuracy,
    measure_throughput,
    stability_index,
)
from repro.models import StreamingLR


class TestBatchAccuracy:
    def test_perfect(self):
        assert batch_accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half(self):
        assert batch_accuracy([1, 0], [1, 1]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            batch_accuracy([], [])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            batch_accuracy([1, 2], [1])


class TestGlobalAccuracyAndSI:
    def test_g_acc_is_mean(self):
        assert global_accuracy([0.5, 0.7, 0.9]) == pytest.approx(0.7)

    def test_si_one_for_constant_series(self):
        assert stability_index([0.8, 0.8, 0.8]) == pytest.approx(1.0)

    def test_si_decreases_with_fluctuation(self):
        steady = stability_index([0.8, 0.81, 0.79, 0.8])
        jumpy = stability_index([0.99, 0.2, 0.99, 0.2])
        assert steady > jumpy

    def test_si_matches_eq16(self):
        series = np.array([0.9, 0.5, 0.7])
        expected = np.exp(-series.std() / series.mean())
        assert stability_index(series) == pytest.approx(expected)

    def test_si_zero_mean(self):
        assert stability_index([0.0, 0.0]) == 0.0

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_si_bounded(self, series):
        si = stability_index(series)
        assert 0.0 < si <= 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            global_accuracy([])
        with pytest.raises(ValueError):
            stability_index([])


class TestAccuracyTracker:
    def test_observe_and_summary(self):
        tracker = AccuracyTracker()
        tracker.observe([1, 1], [1, 0])
        tracker.observe([1, 1], [1, 1])
        summary = tracker.summary()
        assert summary.g_acc == pytest.approx(0.75)
        assert len(tracker) == 2

    def test_skip_warmup(self):
        tracker = AccuracyTracker()
        for value in [0.1, 0.9, 0.9]:
            tracker.observe_value(value)
        assert tracker.summary(skip=1).g_acc == pytest.approx(0.9)

    def test_observe_value_validation(self):
        with pytest.raises(ValueError):
            AccuracyTracker().observe_value(1.5)


class TestEvaluateModel:
    def test_prequential_result_fields(self):
        generator = HyperplaneGenerator(seed=0)
        model = StreamingLR(num_features=10, num_classes=2, lr=0.5, seed=0)
        result = evaluate_model(model, generator.stream(10, 64))
        assert len(result.accuracies) == 10
        assert 0.0 <= result.g_acc <= 1.0
        assert 0.0 < result.si <= 1.0
        assert result.total_items == 640
        assert result.throughput > 0
        assert len(result.patterns) == 10

    def test_test_then_train_order(self):
        """Accuracy on batch 0 must reflect the UNtrained model."""
        generator = HyperplaneGenerator(seed=0)
        model = StreamingLR(num_features=10, num_classes=2, lr=0.5, seed=0)
        result = evaluate_model(model, generator.stream(20, 128))
        # Untrained accuracy near chance; later much better.
        assert result.accuracies[0] < 0.75
        assert result.accuracies[-5:].mean() > result.accuracies[0]

    def test_accuracy_by_pattern(self):
        generator = HyperplaneGenerator(seed=0)
        model = StreamingLR(num_features=10, num_classes=2, seed=0)
        result = evaluate_model(model, generator.stream(10, 64))
        by_pattern = result.accuracy_by_pattern()
        assert "slight" in by_pattern


class TestEvaluateLearner:
    def test_learner_result(self):
        generator = HyperplaneGenerator(seed=0)
        learner = Learner(
            lambda: StreamingLR(num_features=10, num_classes=2,
                                lr=0.5, seed=0),
            window_batches=4,
        )
        result = evaluate_learner(learner, generator.stream(10, 64))
        assert len(result.accuracies) == 10
        assert result.extras["reports"]
        assert len(result.patterns) == 10


class TestPerfHelpers:
    def test_measure_throughput(self):
        batches = [np.zeros(100) for _ in range(10)]
        throughput = measure_throughput(lambda b: b.sum(), batches)
        assert throughput > 0

    def test_measure_throughput_too_few(self):
        with pytest.raises(ValueError):
            measure_throughput(lambda b: None, [np.zeros(2)], warmup=2)
