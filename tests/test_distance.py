"""Tests for shift distances and embedding history (repro.shift.distance)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.shift import EmbeddingHistory, nearest_distance, shift_distance


class TestShiftDistance:
    def test_euclidean(self):
        assert shift_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_zero_for_identical(self):
        assert shift_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            shift_distance([1.0], [1.0, 2.0])

    @given(hnp.arrays(np.float64, 4, elements=st.floats(-10, 10)),
           hnp.arrays(np.float64, 4, elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegativity(self, a, b):
        assert shift_distance(a, b) == pytest.approx(shift_distance(b, a))
        assert shift_distance(a, b) >= 0.0

    @given(hnp.arrays(np.float64, 3, elements=st.floats(-5, 5)),
           hnp.arrays(np.float64, 3, elements=st.floats(-5, 5)),
           hnp.arrays(np.float64, 3, elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert (shift_distance(a, c)
                <= shift_distance(a, b) + shift_distance(b, c) + 1e-9)


class TestNearestDistance:
    def test_finds_minimum(self):
        history = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 0.0]])
        distance, index = nearest_distance([1.1, 0.0], history)
        assert index == 2
        assert distance == pytest.approx(0.1)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            nearest_distance([0.0], np.empty((0, 1)))

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            nearest_distance([0.0], np.zeros(3))


class TestEmbeddingHistory:
    def test_append_and_len(self):
        history = EmbeddingHistory(capacity=4)
        for i in range(3):
            history.append([float(i), 0.0])
        assert len(history) == 3

    def test_capacity_evicts_oldest(self):
        history = EmbeddingHistory(capacity=3)
        for i in range(5):
            history.append([float(i)])
        array = history.as_array()
        np.testing.assert_allclose(array.ravel(), [2.0, 3.0, 4.0])

    def test_nearest_excludes_recent(self):
        history = EmbeddingHistory(capacity=10, exclude_recent=1)
        history.append([0.0, 0.0])
        history.append([100.0, 100.0])  # the "previous batch"
        result = history.nearest([100.0, 100.0])
        distance, index = result
        # Must match the older point, not the just-added one.
        assert index == 0
        assert distance == pytest.approx(np.hypot(100, 100))

    def test_nearest_none_with_insufficient_history(self):
        history = EmbeddingHistory(capacity=10, exclude_recent=1)
        assert history.nearest([0.0]) is None
        history.append([0.0])
        assert history.nearest([0.0]) is None  # only the excluded entry

    def test_exclude_recent_zero(self):
        history = EmbeddingHistory(capacity=4, exclude_recent=0)
        history.append([1.0])
        distance, index = history.nearest([1.0])
        assert distance == 0.0
        assert index == 0

    def test_as_array_empty(self):
        assert EmbeddingHistory().as_array().size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingHistory(capacity=0)
        with pytest.raises(ValueError):
            EmbeddingHistory(exclude_recent=-1)


class TestEmbeddingHistoryIncrementalBuffer:
    """The sliding-buffer bookkeeping must be invisible: ``nearest`` and
    ``as_array`` answer exactly as a naive restack-every-call history
    would, through appends, evictions, and the compaction memmove."""

    def _naive(self, rows, capacity, exclude_recent, query):
        live = rows[-capacity:]
        usable = live[:len(live) - exclude_recent]
        if not usable:
            return None
        stacked = np.stack(usable)
        deltas = np.linalg.norm(stacked - query, axis=1)
        index = int(deltas.argmin())
        return float(deltas[index]), index

    def test_nearest_unchanged_across_append_and_evict(self):
        from repro.shift.distance import EmbeddingHistory
        rng = np.random.default_rng(9)
        capacity = 5
        history = EmbeddingHistory(capacity=capacity, exclude_recent=1)
        rows = []
        # 4×capacity appends forces eviction and at least one compaction
        # of the 2×capacity backing buffer.
        for step in range(4 * capacity):
            row = rng.normal(size=3)
            history.append(row)
            rows.append(row)
            query = rng.normal(size=3)
            expected = self._naive(rows, capacity, 1, query)
            actual = history.nearest(query)
            if expected is None:
                assert actual is None
            else:
                distance, index = actual
                assert index == expected[1]
                np.testing.assert_allclose(distance, expected[0],
                                           rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(
                history.as_array(), np.stack(rows[-capacity:])
            )

    def test_cached_norms_match_reference_path(self):
        from repro.shift.distance import EmbeddingHistory, nearest_distance
        rng = np.random.default_rng(10)
        history = EmbeddingHistory(capacity=8, exclude_recent=1)
        for _ in range(12):
            history.append(rng.normal(size=4))
        query = rng.normal(size=4)
        fast = history.nearest(query)
        slow = nearest_distance(query, history.as_array()[:-1])
        assert fast[1] == slow[1]
        np.testing.assert_allclose(fast[0], slow[0], rtol=1e-12, atol=1e-12)

    def test_dimension_change_rebuilds_buffer(self):
        from repro.shift.distance import EmbeddingHistory
        history = EmbeddingHistory(capacity=4, exclude_recent=0)
        history.append(np.ones(3))
        history.append(np.zeros(5))  # PCA refit changed the space
        assert len(history) == 1
        assert history.as_array().shape == (1, 5)
