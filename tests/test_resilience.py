"""Chaos suite for the resilience layer (repro.resilience).

Covers the three legs end to end: deterministic fault injectors, worker
supervision in the process backend, and graceful degradation in the
learner — including the headline guarantee that a worker crash mid-stream
recovers with an accuracy sequence identical to the fault-free run.
"""

import numpy as np
import pytest

from repro.analysis import CheckpointIncompatibleError
from repro.core import Learner
from repro.data import ElectricitySimulator
from repro.distributed import DistributedLearner, ProcessBackend
from repro.models import StreamingLR, StreamingMLP
from repro.obs import (
    CheckpointRejected,
    CircuitOpened,
    DegradedMode,
    Observability,
    WorkerRestarted,
)
from repro.resilience import (
    CircuitBreaker,
    CorruptCheckpoint,
    DirtyData,
    SlowBatch,
    WorkerCrash,
)

needs_fork = pytest.mark.skipif(
    not ProcessBackend.available(),
    reason="platform lacks the fork start method",
)


def lr_factory():
    return StreamingLR(num_features=8, num_classes=2, lr=0.3, seed=0)


def mlp_factory():
    return StreamingMLP(num_features=8, num_classes=2, lr=0.3, seed=0)


def stream(n, batch_size=96, seed=1):
    return ElectricitySimulator(seed=seed).stream(n, batch_size).materialize()


def distributed_run(backend, batches, num_workers=3, obs=None):
    """A run's accuracy sequence, and every worker's parameter bytes per
    granularity level at its end."""
    learner = DistributedLearner(mlp_factory, num_workers=num_workers,
                                 backend=backend, seed=0, window_batches=4,
                                 obs=obs)
    try:
        accuracies = [learner.process(batch).accuracy for batch in batches]
        parameters = [
            [{name: value.tobytes() for name, value in state.items()}
             for state in learner.backend.gather_states(level)]
            for level in range(len(learner.workers[0].ensemble.levels))]
        return accuracies, parameters
    finally:
        learner.close()


def distributed_accuracies(backend, batches, num_workers=3, obs=None):
    return distributed_run(backend, batches, num_workers, obs)[0]


# -- injector determinism ------------------------------------------------------


class TestInjectorDeterminism:
    def test_explicit_schedule_fires_exactly(self):
        injector = WorkerCrash(at={2, 5})
        fired = [injector.should_fire(i) for i in range(8)]
        assert fired == [False, False, True, False, False, True, False,
                         False]
        assert injector.fired == [2, 5]

    def test_rate_schedule_replays_under_same_seed(self):
        first = DirtyData(rate=0.3, seed=11)
        second = DirtyData(rate=0.3, seed=11)
        a = [first.should_fire() for _ in range(50)]
        b = [second.should_fire() for _ in range(50)]
        assert a == b
        assert first.fired == second.fired
        assert any(a) and not all(a)

    def test_reset_rewinds_the_schedule(self):
        injector = SlowBatch(rate=0.5, delay=0.0, seed=5)
        a = [injector.should_fire() for _ in range(20)]
        injector.reset()
        b = [injector.should_fire() for _ in range(20)]
        assert a == b

    def test_dirty_data_corrupts_a_copy(self):
        injector = DirtyData(at={0}, cells=4, seed=0)
        batches = stream(1, batch_size=32)
        dirty = injector(batches[0])
        assert not np.isfinite(dirty.x).all()
        assert np.isfinite(batches[0].x).all()  # source untouched
        assert injector.corrupted_cells == 4

    def test_dirty_data_same_seed_same_cells(self):
        batches = stream(1, batch_size=32)
        a = DirtyData(at={0}, cells=6, seed=9)(batches[0])
        b = DirtyData(at={0}, cells=6, seed=9)(batches[0])
        np.testing.assert_array_equal(np.isnan(a.x), np.isnan(b.x))
        np.testing.assert_array_equal(np.isinf(a.x), np.isinf(b.x))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DirtyData(rate=1.5)
        with pytest.raises(ValueError):
            SlowBatch(delay=-1.0)
        with pytest.raises(ValueError):
            DirtyData(cells=0)


# -- worker supervision --------------------------------------------------------


@needs_fork
class TestWorkerSupervision:
    def test_crash_recovers_with_identical_accuracy_sequence(self):
        """The headline guarantee: a worker killed mid-stream is restarted
        from the last sync checkpoint and the run's accuracy sequence is
        identical to the fault-free run (sync_every=1)."""
        batches = stream(6)
        clean = distributed_run("serial", batches)
        backend = ProcessBackend(max_restarts=3)
        WorkerCrash(at={3}, worker=1).attach(backend)
        faulty = distributed_run(backend, batches)
        assert faulty[0] == clean[0]
        # Exact, not just equally accurate: every worker's parameters.
        assert faulty[1] == clean[1]
        assert backend.restarts == [0, 1, 0]

    def test_restart_emits_event_and_counter(self):
        batches = stream(5)
        backend = ProcessBackend(max_restarts=2)
        WorkerCrash(at={2}, worker=0).attach(backend)
        obs = Observability.in_memory()
        distributed_accuracies(backend, batches, obs=obs)
        restarts = [e for e in obs.sink.events
                    if isinstance(e, WorkerRestarted)]
        assert len(restarts) == 1
        assert restarts[0].worker == 0
        assert restarts[0].reason == "crashed"
        assert restarts[0].reseeded
        assert restarts[0].resubmitted >= 1
        series = obs.registry.snapshot()["freeway_worker_restarts_total"][
            "series"]
        assert any(s["labels"] == {"reason": "crashed"} and s["value"] == 1
                   for s in series)

    def test_hung_worker_is_restarted(self):
        batches = stream(5)
        backend = ProcessBackend(max_restarts=2, hang_timeout=0.5)
        SlowBatch(at={2}, worker=0, delay=30.0).attach(backend)
        obs = Observability.in_memory()
        accuracies = distributed_accuracies(backend, batches, obs=obs)
        assert len(accuracies) == 5
        restarts = [e for e in obs.sink.events
                    if isinstance(e, WorkerRestarted)]
        assert restarts and restarts[0].reason == "hung"

    def test_max_restarts_exceeded_propagates(self):
        batches = stream(6)
        backend = ProcessBackend(max_restarts=1, restart_backoff=0.0)
        WorkerCrash(at={1, 2, 3}, worker=0).attach(backend)
        learner = DistributedLearner(mlp_factory, num_workers=2,
                                     backend=backend, seed=0,
                                     window_batches=4)
        try:
            with pytest.raises(RuntimeError, match="max_restarts"):
                for batch in batches:
                    learner.process(batch)
        finally:
            learner.close()

    def test_repeated_crashes_within_budget_recover(self):
        batches = stream(6)
        clean = distributed_run("serial", batches)
        backend = ProcessBackend(max_restarts=3, restart_backoff=0.0)
        WorkerCrash(at={2, 4}, worker=2).attach(backend)
        faulty = distributed_run(backend, batches)
        assert faulty[0] == clean[0]
        assert faulty[1] == clean[1]
        assert backend.restarts == [0, 0, 2]


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown=5)
        assert not breaker.record_failure("cec")
        assert not breaker.record_failure("cec")
        assert breaker.allow("cec")
        assert breaker.record_failure("cec")  # third failure opens
        assert not breaker.allow("cec")
        assert breaker.is_open("cec")

    def test_cooldown_allows_half_open_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown=3)
        breaker.record_failure("asw_train")
        assert not breaker.allow("asw_train")
        for _ in range(3):
            breaker.tick()
        assert breaker.allow("asw_train")  # half-open probe
        breaker.record_success("asw_train")
        assert breaker.allow("asw_train")
        assert breaker.snapshot()["asw_train"]["failures"] == 0

    def test_reopens_after_failed_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure("cec")
        breaker.tick()
        breaker.tick()
        assert breaker.allow("cec")
        opened_again = breaker.record_failure("cec")
        assert not breaker.allow("cec")
        assert not opened_again  # already open: no duplicate event

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5)
        breaker.record_failure("cec")
        breaker.record_success("cec")
        assert not breaker.record_failure("cec")
        assert breaker.allow("cec")

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)


# -- graceful degradation ------------------------------------------------------


class TestGracefulDegradation:
    def test_dirty_stream_degrades_without_exceptions(self):
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4, degrade=True,
                          obs=obs)
        dirty = DirtyData(at={2, 4}, cells=16, seed=3)
        batches = ElectricitySimulator(seed=0).stream(8, 64).map(dirty)
        reports = [learner.process(batch) for batch in batches]
        assert len(reports) == 8
        degraded = [e for e in obs.sink.events if isinstance(e, DegradedMode)]
        assert [e.batch for e in degraded] == [2, 4]
        assert all(e.mechanism == "input" for e in degraded)

    def test_degrade_sanitizes_where_plain_learner_is_poisoned(self):
        dirty = DirtyData(at={1}, cells=8, seed=0)
        batches = [dirty(batch) for batch in stream(3, batch_size=64,
                                                    seed=0)]
        plain = Learner(lr_factory, window_batches=4)
        degrading = Learner(lr_factory, window_batches=4, degrade=True)
        for batch in batches:
            plain.process(batch)
            degrading.process(batch)
        # Without degradation the NaN cells flow straight into training
        # and poison the short model's weights; sanitization keeps them
        # finite.
        poisoned = plain.ensemble.short_level.model.state_dict()
        clean = degrading.ensemble.short_level.model.state_dict()
        assert not all(np.isfinite(v).all() for v in poisoned.values())
        assert all(np.isfinite(v).all() for v in clean.values())

    def test_mechanism_failure_falls_back_and_opens_circuit(self):
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4, degrade=True,
                          breaker_threshold=2, breaker_cooldown=50,
                          obs=obs)
        batches = stream(8, batch_size=64, seed=0)
        learner.process(batches[0])  # train once so the ensemble is live

        def boom(x, embedding):
            raise RuntimeError("ensemble exploded")

        learner.ensemble.predict_proba = boom
        reports = [learner.process(batch) for batch in batches[1:]]
        assert all(report.accuracy is not None for report in reports)
        degraded = [e for e in obs.sink.events
                    if isinstance(e, DegradedMode)
                    and e.mechanism == "multi_granularity"]
        assert len(degraded) == 2  # then the circuit opens
        opened = [e for e in obs.sink.events if isinstance(e, CircuitOpened)]
        assert len(opened) == 1
        assert opened[0].mechanism == "multi_granularity"
        assert learner.summary()["breaker"]["multi_granularity"]["open"]

    def test_circuit_cooldown_reprobes_and_recovers(self):
        learner = Learner(lr_factory, window_batches=4, degrade=True,
                          breaker_threshold=1, breaker_cooldown=2)
        batches = stream(8, batch_size=64, seed=0)
        learner.process(batches[0])
        original = learner.ensemble.predict_proba
        calls = []

        def boom(x, embedding):
            calls.append(len(calls))
            raise RuntimeError("transient")

        learner.ensemble.predict_proba = boom
        learner.process(batches[1])  # fails -> opens
        learner.process(batches[2])  # circuit open: mechanism not tried
        assert len(calls) == 1
        learner.ensemble.predict_proba = original
        learner.process(batches[3])  # cooldown elapsed: probe succeeds
        assert not learner.summary()["breaker"]["multi_granularity"]["open"]

    def test_asw_train_failure_skips_update(self):
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4, degrade=True,
                          obs=obs)
        batches = stream(4, batch_size=64, seed=0)
        learner.process(batches[0])

        def boom(x, y, embedding):
            raise RuntimeError("training exploded")

        learner.ensemble.update = boom
        report = learner.process(batches[1])
        assert report.loss is None  # update skipped, nothing propagated
        degraded = [e for e in obs.sink.events
                    if isinstance(e, DegradedMode)
                    and e.mechanism == "asw_train"]
        assert degraded and degraded[0].fallback == "skip_update"

    def test_corrupt_checkpoint_restore_is_rejected(self):
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=2, degrade=True,
                          obs=obs)
        corrupt = CorruptCheckpoint(rate=1.0, seed=0)
        corrupt.attach(learner.knowledge)
        for batch in stream(12, batch_size=64, seed=1):
            learner.process(batch)
        assert corrupt.fired  # every preservation was mangled
        assert len(learner.knowledge) > 0
        entry = learner.knowledge.entries[0]
        scratch = lr_factory()
        with pytest.raises(CheckpointIncompatibleError):
            learner.knowledge.restore(entry, scratch)
        rejected = [e for e in obs.sink.events
                    if isinstance(e, CheckpointRejected)]
        assert rejected and rejected[0].source == "knowledge"

    def test_degrade_off_by_default_keeps_behavior(self):
        batches = stream(6, batch_size=64, seed=0)
        plain = Learner(lr_factory, window_batches=4)
        degrading = Learner(lr_factory, window_batches=4, degrade=True)
        a = [plain.process(batch).accuracy for batch in batches]
        b = [degrading.process(batch).accuracy for batch in batches]
        assert a == b  # clean stream: degradation changes nothing
