"""Tests for the adaptive streaming window (repro.core.asw, Alg. 1, Eq. 11)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptiveStreamingWindow, inversion_count


def _inversion_count_naive(sequence: np.ndarray) -> int:
    """Reference O(k²) pair count, one vectorized row per element."""
    sequence = np.asarray(sequence)
    count = 0
    for i in range(len(sequence) - 1):
        count += int((sequence[i] > sequence[i + 1:]).sum())
    return count


def brute_force_inversions(sequence):
    count = 0
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                count += 1
    return count


class TestInversionCount:
    def test_sorted_sequence_zero(self):
        assert inversion_count([0, 1, 2, 3]) == 0

    def test_reversed_sequence_max(self):
        assert inversion_count([3, 2, 1, 0]) == 6

    def test_single_element(self):
        assert inversion_count([5]) == 0

    def test_empty(self):
        assert inversion_count([]) == 0

    @given(st.lists(st.integers(0, 20), min_size=0, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, sequence):
        assert inversion_count(sequence) == brute_force_inversions(sequence)


def batch(center, n=16, d=4, rng=None, spread=0.1):
    rng = rng or np.random.default_rng(0)
    x = rng.normal(size=(n, d)) * spread + center
    y = np.zeros(n, dtype=np.int64)
    return x, y, x.mean(axis=0)


class TestWindowBasics:
    def test_add_and_count(self, rng):
        window = AdaptiveStreamingWindow(max_batches=8)
        for i in range(3):
            window.add(*batch(float(i), rng=rng))
        assert window.num_batches == 3

    def test_is_full_by_batches(self, rng):
        window = AdaptiveStreamingWindow(max_batches=2, max_items=10**9)
        window.add(*batch(0.0, rng=rng))
        assert not window.is_full
        window.add(*batch(0.0, rng=rng))
        assert window.is_full

    def test_is_full_by_items(self, rng):
        window = AdaptiveStreamingWindow(max_batches=100, max_items=30)
        window.add(*batch(0.0, n=16, rng=rng))
        assert not window.is_full
        window.add(*batch(0.0, n=16, rng=rng))
        assert window.is_full  # ~32 effective items

    def test_reset(self, rng):
        window = AdaptiveStreamingWindow()
        window.add(*batch(0.0, rng=rng))
        window.reset()
        assert window.num_batches == 0
        assert window.disorder == 0.0

    def test_label_mismatch_raises(self, rng):
        window = AdaptiveStreamingWindow()
        with pytest.raises(ValueError):
            window.add(np.zeros((4, 2)), np.zeros(3), np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveStreamingWindow(max_batches=0)
        with pytest.raises(ValueError):
            AdaptiveStreamingWindow(max_items=0)
        with pytest.raises(ValueError):
            AdaptiveStreamingWindow(base_decay=1.0)


class TestDecaySemantics:
    def test_weights_decay_monotonically(self, rng):
        window = AdaptiveStreamingWindow(max_batches=10, base_decay=0.2)
        window.add(*batch(0.0, rng=rng))
        first_weights = [window.entry_weights()[0]]
        for i in range(1, 5):
            window.add(*batch(0.1 * i, rng=rng))
            first_weights.append(window.entry_weights()[0])
        assert all(first_weights[i] > first_weights[i + 1]
                   for i in range(len(first_weights) - 1))

    def test_closer_batches_decay_less(self, rng):
        window = AdaptiveStreamingWindow(max_batches=10, base_decay=0.3)
        window.add(*batch(0.0, rng=rng))    # far from the new batch
        window.add(*batch(10.0, rng=rng))   # close to the new batch
        window.add(*batch(10.1, rng=rng))   # new batch arrives
        weights = window.entry_weights()
        assert weights[1] > weights[0]

    def test_directional_stream_has_low_disorder(self, rng):
        window = AdaptiveStreamingWindow(max_batches=20, base_decay=0.01)
        for i in range(10):
            window.add(*batch(float(i), rng=rng, spread=0.01))
        assert window.disorder < 0.2

    def test_localized_stream_has_high_disorder(self, rng):
        window = AdaptiveStreamingWindow(max_batches=30, base_decay=0.01)
        centers = rng.permutation(20) * 1.0
        for center in centers:
            window.add(*batch(center, rng=rng, spread=0.01))
        assert window.disorder > 0.3

    def test_high_disorder_decays_faster(self, rng):
        def run(centers):
            window = AdaptiveStreamingWindow(max_batches=50, base_decay=0.1)
            for center in centers:
                window.add(*batch(center, rng=np.random.default_rng(0),
                                  spread=0.01))
            return window.entry_weights().sum() / window.num_batches

        ordered = run([float(i) for i in range(12)])
        shuffled = run(list(np.random.default_rng(1).permutation(12) * 1.0))
        assert shuffled < ordered

    def test_fully_decayed_entries_evicted(self, rng):
        window = AdaptiveStreamingWindow(max_batches=100, base_decay=0.5,
                                         min_weight=0.3)
        for i in range(10):
            window.add(*batch(float(i * 3), rng=rng))
        assert window.num_batches < 10

    def test_decay_boost_accelerates(self, rng):
        slow = AdaptiveStreamingWindow(max_batches=20, base_decay=0.1)
        fast = AdaptiveStreamingWindow(max_batches=20, base_decay=0.1)
        fast.decay_boost = 2.0
        for i in range(6):
            slow.add(*batch(float(i), rng=np.random.default_rng(9)))
            fast.add(*batch(float(i), rng=np.random.default_rng(9)))
        assert fast.entry_weights().sum() < slow.entry_weights().sum()


class TestTrainingData:
    def test_full_weights_return_everything(self, rng):
        window = AdaptiveStreamingWindow(max_batches=10, base_decay=0.0)
        window.add(*batch(0.0, n=8, rng=rng))
        window.add(*batch(0.0, n=8, rng=rng))
        x, y = window.training_data()
        assert len(x) == 16

    def test_decayed_batches_contribute_fewer_rows(self, rng):
        window = AdaptiveStreamingWindow(max_batches=10, base_decay=0.4,
                                         min_weight=0.01)
        for i in range(5):
            window.add(*batch(float(i), n=20, rng=rng))
        x, _ = window.training_data()
        assert len(x) < 100  # strictly fewer than raw rows

    def test_empty_window_raises(self):
        with pytest.raises(RuntimeError):
            AdaptiveStreamingWindow().training_data()

    def test_mean_embedding_weighted(self, rng):
        window = AdaptiveStreamingWindow(max_batches=10, base_decay=0.0)
        window.add(np.zeros((4, 2)), np.zeros(4), np.array([0.0, 0.0]))
        window.add(np.zeros((4, 2)), np.zeros(4), np.array([2.0, 2.0]))
        np.testing.assert_allclose(window.mean_embedding(), [1.0, 1.0])

    def test_mean_embedding_empty_raises(self):
        with pytest.raises(RuntimeError):
            AdaptiveStreamingWindow().mean_embedding()

    def test_effective_items_tracks_decay(self, rng):
        window = AdaptiveStreamingWindow(max_batches=10, base_decay=0.3)
        window.add(*batch(0.0, n=10, rng=rng))
        assert window.effective_items == pytest.approx(10.0)
        window.add(*batch(5.0, n=10, rng=rng))
        assert window.effective_items < 20.0


class TestInversionCountImplementations:
    """The O(k log k) merge-sort count must agree with the kept O(k²) naive."""

    @given(st.lists(st.integers(-50, 50), min_size=0, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_merge_sort_matches_naive(self, sequence):
        arr = np.asarray(sequence, dtype=np.int64)
        assert inversion_count(arr) == _inversion_count_naive(arr)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=0,
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_float_sequences_agree_too(self, sequence):
        arr = np.asarray(sequence, dtype=float)
        assert inversion_count(arr) == _inversion_count_naive(arr)
