"""Tests for the simulated distributed runtime (repro.distributed)."""

import numpy as np
import pytest

from repro.distributed import (
    DistributedLearner,
    average_state_dicts,
    contiguous_partition,
    hash_partition,
    round_robin_partition,
)
from repro.data import ElectricitySimulator, NSLKDDSimulator
from repro.models import StreamingMLP


def factory():
    return StreamingMLP(num_features=8, num_classes=2, lr=0.3, seed=0)


class TestPartitioners:
    @pytest.mark.parametrize("partition", [round_robin_partition,
                                           contiguous_partition])
    def test_covers_all_rows_exactly_once(self, partition):
        shards = partition(103, 4)
        combined = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(combined, np.arange(103))

    def test_round_robin_balance(self):
        shards = round_robin_partition(100, 3)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_preserves_order(self):
        shards = contiguous_partition(10, 3)
        for shard in shards:
            assert (np.diff(shard) == 1).all()

    def test_hash_is_content_stable(self, rng):
        x = rng.normal(size=(50, 4))
        first = hash_partition(x, 4, seed=1)
        second = hash_partition(x, 4, seed=1)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_hash_covers_all_rows(self, rng):
        x = rng.normal(size=(64, 3))
        shards = hash_partition(x, 5, seed=0)
        combined = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(combined, np.arange(64))
        assert all(len(shard) > 0 for shard in shards)

    def test_validation(self):
        with pytest.raises(ValueError):
            round_robin_partition(2, 4)
        with pytest.raises(ValueError):
            contiguous_partition(10, 0)


class TestAverageStateDicts:
    def test_mean_of_parameters(self):
        a = {"w": np.array([1.0, 2.0])}
        b = {"w": np.array([3.0, 4.0])}
        np.testing.assert_allclose(average_state_dicts([a, b])["w"],
                                   [2.0, 3.0])

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_state_dicts([{"w": np.zeros(2)}, {"v": np.zeros(2)}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_state_dicts([])


class TestDistributedLearner:
    def test_replicas_agree_after_sync(self):
        distributed = DistributedLearner(factory, num_workers=3,
                                         sync_every=1, window_batches=4)
        for batch in ElectricitySimulator(seed=1).stream(6, 192):
            distributed.process(batch)
        states = [
            worker.ensemble.short_level.model.state_dict()
            for worker in distributed.workers
        ]
        for state in states[1:]:
            for key in states[0]:
                np.testing.assert_array_equal(state[key], states[0][key])

    def test_sync_every_controls_rounds(self):
        distributed = DistributedLearner(factory, num_workers=2,
                                         sync_every=3, window_batches=4)
        reports = [distributed.process(batch) for batch
                   in ElectricitySimulator(seed=1).stream(9, 128)]
        assert distributed.syncs == 3
        assert [r.synced for r in reports] == [False, False, True] * 3

    def test_accuracy_aggregates_shards(self):
        distributed = DistributedLearner(factory, num_workers=2,
                                         sync_every=1, window_batches=4)
        reports = [distributed.process(batch) for batch
                   in ElectricitySimulator(seed=1).stream(20, 128)]
        accuracies = [r.accuracy for r in reports]
        assert all(0.0 <= a <= 1.0 for a in accuracies)
        assert np.mean(accuracies[5:]) > 0.7

    def test_learning_quality_close_to_single_worker(self):
        """Sharding + averaging should cost only a few accuracy points."""
        batches = ElectricitySimulator(seed=2).stream(40, 256).materialize()
        from repro.core import Learner
        single = Learner(factory, window_batches=4, seed=0)
        single_acc = np.mean([single.process(b).accuracy for b in batches])

        batches = ElectricitySimulator(seed=2).stream(40, 256).materialize()
        distributed = DistributedLearner(factory, num_workers=4,
                                         sync_every=1, window_batches=4)
        distributed_acc = np.mean(
            [distributed.process(b).accuracy for b in batches]
        )
        assert distributed_acc > single_acc - 0.07

    def test_ideal_speedup_reported(self):
        distributed = DistributedLearner(factory, num_workers=4,
                                         sync_every=1, window_batches=4)
        batch = next(iter(ElectricitySimulator(seed=1).stream(1, 256)))
        report = distributed.process(batch)
        assert len(report.worker_items) == 4
        assert sum(report.worker_items) == 256
        assert report.ideal_speedup > 1.0

    def test_predict_serves_from_replica(self, rng):
        distributed = DistributedLearner(factory, num_workers=2,
                                         sync_every=1, window_batches=4)
        for batch in ElectricitySimulator(seed=1).stream(6, 128):
            distributed.process(batch)
        prediction = distributed.predict(rng.normal(size=(10, 8)))
        assert prediction.labels.shape == (10,)

    def test_hash_partitioner_runs(self):
        distributed = DistributedLearner(factory, num_workers=2,
                                         sync_every=2, window_batches=4,
                                         partitioner="hash")
        for batch in ElectricitySimulator(seed=1).stream(6, 128):
            distributed.process(batch)
        assert distributed.syncs == 3

    def test_knowledge_accumulates_per_replica(self):
        def nsl_factory():
            return StreamingMLP(num_features=20, num_classes=5, lr=0.3,
                                seed=0)

        distributed = DistributedLearner(nsl_factory, num_workers=2,
                                         sync_every=1, window_batches=4)
        for batch in NSLKDDSimulator(seed=1).stream(30, 128):
            distributed.process(batch)
        # Every replica checkpoints knowledge at its own window boundaries.
        assert distributed.knowledge_entries() >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedLearner(factory, num_workers=0)
        with pytest.raises(ValueError):
            DistributedLearner(factory, sync_every=0)
        with pytest.raises(ValueError):
            DistributedLearner(factory, partitioner="bogus")

    def test_thread_backend_matches_serial_bitwise(self):
        """Replicas on the thread backend (a plan cache and grad mode per
        thread) must produce exactly the serial backend's parameters."""

        def run(backend):
            distributed = DistributedLearner(factory, num_workers=2,
                                             sync_every=1, window_batches=4,
                                             backend=backend)
            for batch in ElectricitySimulator(seed=3).stream(8, 128):
                distributed.process(batch)
            return [
                {key: np.asarray(value).tobytes()
                 for key, value in
                 worker.ensemble.short_level.model.state_dict().items()}
                for worker in distributed.workers
            ]

        assert run("thread") == run("serial")
