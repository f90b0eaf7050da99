"""Tests for the captured-plan execution engine (``repro.nn.plan``).

The engine's contract is absolute: a replayed plan must be **bitwise
indistinguishable** from the define-by-run reference — same losses, same
probabilities, same parameters, same optimizer state, same Dropout RNG
stream.  These tests hold that line across the invalidation matrix
(shape changes, checkpoint restores mid-momentum, train/eval flips,
mid-stream flag toggles), across model instances and threads sharing
plans, across row counts replayed on the leading rows of one arena, and
then fuzz it over random architectures.
"""

import copy
import pickle
import threading
import weakref

import numpy as np
import pytest
from conftest import reference_ops
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import Learner
from repro.data.drift import (GaussianMixtureConcept, Segment,
                              stream_from_schedule)
from repro.eval import model_factory_for
from repro.models.base import NeuralStreamingModel
from repro.models.cnn import StreamingCNN
from repro.models.logistic import StreamingLR
from repro.models.mlp import StreamingMLP
from repro.nn import plan as nn_plan
from repro.nn.serialization import training_state
from repro.nn.stacked import stacked_arena
from repro.perf import configure


@pytest.fixture(autouse=True)
def empty_plan_cache():
    """Start every test from an empty cache: capture counts are exact."""
    nn_plan.clear_plans()
    yield
    nn_plan.clear_plans()


def plan_events(before):
    """Plan-cache event counts since the ``plan_cache_stats()`` ``before``."""
    now = nn_plan.plan_cache_stats()
    return {event: now.get(event, 0) - before.get(event, 0)
            for event in ("capture", "replay", "unsupported", "invalidate")}


def reachable_tensors(root):
    """Every ``Tensor`` reachable from ``root`` through slots/containers."""
    found, seen, pending = [], set(), [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, np.ndarray):
            continue
        seen.add(id(obj))
        if isinstance(obj, nn.Tensor):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            pending.extend(obj)
        elif isinstance(obj, dict):
            pending.extend(obj.values())
        elif hasattr(type(obj), "__slots__"):
            pending.extend(getattr(obj, name, None)
                           for name in type(obj).__slots__)
    return found


def make_batches(num_batches, batch_size, num_features, num_classes, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(batch_size, num_features)),
             rng.integers(0, num_classes, batch_size))
            for _ in range(num_batches)]


def run_stream(model, batches, plans_on):
    """Predict + fit over ``batches``; returns (losses, probas)."""
    losses, probas = [], []
    with configure(plan_capture=plans_on):
        for x, y in batches:
            probas.append(model.predict_proba(x).copy())
            losses.append(model.partial_fit(x, y))
    return losses, probas


def assert_bitwise_equal(model_a, model_b, losses_a, losses_b,
                         probas_a, probas_b):
    assert [np.float64(l).tobytes() for l in losses_a] == \
        [np.float64(l).tobytes() for l in losses_b]
    assert [p.tobytes() for p in probas_a] == [p.tobytes() for p in probas_b]
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert list(state_a) == list(state_b)
    for key in state_a:
        assert state_a[key].tobytes() == state_b[key].tobytes(), key


class DropoutMLP(NeuralStreamingModel):
    """One-hidden-layer MLP with Dropout, for RNG-threading tests."""

    name = "dropout-mlp"

    def _build(self, rng):
        return nn.Sequential(
            nn.Linear(self.num_features, 16, rng=rng),
            nn.ReLU(),
            nn.Dropout(0.4, rng=np.random.default_rng(self.seed + 1)),
            nn.Linear(16, self.num_classes, rng=rng),
        )


class AdamLR(StreamingLR):
    name = "adam-lr"

    def _make_optimizer(self):
        return nn.Adam(self.module.parameters(), lr=0.01)


class TanhSigmoidMLP(NeuralStreamingModel):
    """Tanh and Sigmoid fused into their Linear layers, and a standalone
    Sigmoid."""

    name = "tanh-sigmoid-mlp"

    def _build(self, rng):
        return nn.Sequential(
            nn.Linear(self.num_features, 12, rng=rng),
            nn.Tanh(),
            nn.Sigmoid(),
            nn.Linear(12, 8, rng=rng),
            nn.Sigmoid(),
            nn.Linear(8, self.num_classes, rng=rng),
        )


def state_bytes(model):
    """Bytes of everything a training step mutates: parameters, optimizer
    state, Dropout generator states."""
    return {name: np.asarray(value).tobytes()
            for name, value in training_state(model).items()}


def new_maxima(rows):
    """How many of ``rows`` exceed every count before them."""
    count, top = 0, 0
    for n in rows:
        if n > top:
            count, top = count + 1, n
    return count


# -- bitwise equivalence ------------------------------------------------------


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("cls", [StreamingLR, StreamingMLP, DropoutMLP,
                                     AdamLR])
    def test_replayed_stream_matches_reference(self, cls):
        batches = make_batches(12, 16, 8, 3)
        with_plans = cls(num_features=8, num_classes=3, seed=4)
        reference = cls(num_features=8, num_classes=3, seed=4)
        before = nn_plan.plan_cache_stats()
        results_on = run_stream(with_plans, batches, plans_on=True)
        results_off = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(with_plans, reference, results_on[0],
                             results_off[0], results_on[1], results_off[1])
        # The plans actually replayed — this was not a silent fallback.
        events = plan_events(before)
        assert events["capture"] == 2  # one fit plan, one proba plan
        assert events["replay"] == 2 * len(batches) - 2
        assert events["unsupported"] == 0

    def test_dropout_rng_stream_advances_identically(self):
        batches = make_batches(8, 8, 6, 2)
        with_plans = DropoutMLP(num_features=6, num_classes=2, seed=9)
        reference = DropoutMLP(num_features=6, num_classes=2, seed=9)
        run_stream(with_plans, batches, plans_on=True)
        run_stream(reference, batches, plans_on=False)
        dropouts_a = [m for m in with_plans.module.modules()
                      if isinstance(m, nn.Dropout)]
        dropouts_b = [m for m in reference.module.modules()
                      if isinstance(m, nn.Dropout)]
        for a, b in zip(dropouts_a, dropouts_b):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_multi_sgd_steps_replay(self):
        batches = make_batches(6, 8, 5, 2)
        with_plans = StreamingMLP(num_features=5, num_classes=2, seed=1,
                                  sgd_steps=3, momentum=0.9)
        reference = StreamingMLP(num_features=5, num_classes=2, seed=1,
                                 sgd_steps=3, momentum=0.9)
        results_on = run_stream(with_plans, batches, plans_on=True)
        results_off = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(with_plans, reference, results_on[0],
                             results_off[0], results_on[1], results_off[1])


# -- the invalidation matrix --------------------------------------------------


class TestInvalidationMatrix:
    def test_only_a_batch_larger_than_the_arena_recaptures(self):
        model = StreamingMLP(num_features=6, num_classes=2, seed=0)
        reference = StreamingMLP(num_features=6, num_classes=2, seed=0)
        sizes = [16, 16, 8, 16, 8, 32]
        rng = np.random.default_rng(3)
        before = nn_plan.plan_cache_stats()
        for size in sizes:
            x = rng.normal(size=(size, 6))
            y = rng.integers(0, 2, size)
            with configure(plan_capture=True):
                loss_plan = model.partial_fit(x, y)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(x, y)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
        # One fit plan: captured at 16 rows, replayed at 16 and on views
        # of its first 8 rows, then grown to 32 rows, which replaces it.
        events = plan_events(before)
        assert events["capture"] == 2
        assert events["replay"] == len(sizes) - 2
        assert events["invalidate"] == 1

    def test_checkpoint_restore_mid_momentum_replays(self):
        batches = make_batches(10, 8, 5, 2, seed=7)
        model = StreamingMLP(num_features=5, num_classes=2, seed=2,
                             momentum=0.9)
        reference = StreamingMLP(num_features=5, num_classes=2, seed=2,
                                 momentum=0.9)
        run_stream(model, batches[:4], plans_on=True)
        run_stream(reference, batches[:4], plans_on=False)
        checkpoint = model.state_dict()
        run_stream(model, batches[4:7], plans_on=True)
        run_stream(reference, batches[4:7], plans_on=False)
        model.load_state_dict(checkpoint)
        reference.load_state_dict(checkpoint)
        # Kernels read the restored arrays and the live momentum at call
        # time, so the cached plans keep serving: no recapture.
        before = nn_plan.plan_cache_stats()
        results_on = run_stream(model, batches[7:], plans_on=True)
        results_off = run_stream(reference, batches[7:], plans_on=False)
        assert_bitwise_equal(model, reference, results_on[0], results_off[0],
                             results_on[1], results_off[1])
        events = plan_events(before)
        assert events["capture"] == 0
        assert events["replay"] == 2 * len(batches[7:])

    def test_train_eval_flip_uses_distinct_plans(self):
        batches = make_batches(6, 8, 6, 2, seed=5)
        model = DropoutMLP(num_features=6, num_classes=2, seed=3)
        reference = DropoutMLP(num_features=6, num_classes=2, seed=3)
        before = nn_plan.plan_cache_stats()
        for flip, (x, y) in enumerate(batches):
            training = flip % 2 == 0
            model.module.train(training)
            reference.module.train(training)
            with configure(plan_capture=True):
                loss_plan = model.partial_fit(x, y)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(x, y)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
        # A train-mode plan and an eval-mode plan, each replayed twice.
        events = plan_events(before)
        assert events["capture"] == 2
        assert events["replay"] == len(batches) - 2

    def test_flag_toggle_mid_stream(self):
        batches = make_batches(9, 8, 5, 2, seed=11)
        model = StreamingLR(num_features=5, num_classes=2, seed=6)
        reference = StreamingLR(num_features=5, num_classes=2, seed=6)
        schedule = [True, True, False, False, True, True, False, True, True]
        for plans_on, (x, y) in zip(schedule, batches):
            with configure(plan_capture=plans_on):
                loss_plan = model.partial_fit(x, y)
                proba_plan = model.predict_proba(x + 0.5)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(x, y)
                proba_ref = reference.predict_proba(x + 0.5)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
            assert proba_plan.tobytes() == proba_ref.tobytes()

    def test_plan_set_is_bounded_lru(self, monkeypatch):
        # Many distinct structures never hold more than the byte budget:
        # least recently used plans are evicted to make room.
        budget = 24_000
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES", budget)
        rng = np.random.default_rng(0)
        before = nn_plan.plan_cache_stats()
        for features in range(2, 42):
            model = StreamingLR(num_features=features, num_classes=2, seed=0)
            reference = StreamingLR(num_features=features, num_classes=2,
                                    seed=0)
            x = rng.normal(size=(24, features))
            y = rng.integers(0, 2, 24)
            with configure(plan_capture=True):
                loss_plan = model.partial_fit(x, y)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(x, y)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
            assert nn_plan._cache().nbytes <= budget
        events = plan_events(before)
        assert events["capture"] == 40
        assert events["invalidate"] > 0
        assert len(nn_plan._cache().entries) == \
            events["capture"] - events["invalidate"]

    def test_entry_just_used_survives_a_budget_it_exceeds(self, monkeypatch):
        # A 4-epoch long-window fit whose plan alone outgrows the budget
        # captures once and replays three times.
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES", 1)
        model = StreamingMLP(num_features=6, num_classes=3, seed=2)
        reference = StreamingMLP(num_features=6, num_classes=3, seed=2)
        with configure(plan_capture=True):
            StreamingLR(num_features=6, num_classes=3, seed=2).partial_fit(
                *make_batches(1, 8, 6, 3, seed=4)[0])
        window = make_batches(1, 96, 6, 3, seed=5)[0]
        before = nn_plan.plan_cache_stats()
        for _ in range(4):
            with configure(plan_capture=True):
                loss_plan = model.partial_fit(*window)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(*window)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
        events = plan_events(before)
        assert events["capture"] == 1
        assert events["replay"] == 3
        assert events["invalidate"] == 1  # the LR plan made room
        assert len(nn_plan._cache().entries) == 1


# -- one arena, many row counts -------------------------------------------------


ROW_MODELS = {
    "lr": lambda: StreamingLR(num_features=8, num_classes=3, seed=4),
    "mlp": lambda: StreamingMLP(num_features=8, num_classes=3, seed=4),
    "adam-lr": lambda: AdamLR(num_features=8, num_classes=3, seed=4),
    "momentum-mlp": lambda: StreamingMLP(num_features=8, num_classes=3,
                                         seed=4, momentum=0.9),
    "dropout-mlp": lambda: DropoutMLP(num_features=8, num_classes=3, seed=4),
    "tanh-sigmoid-mlp": lambda: TanhSigmoidMLP(num_features=8, num_classes=3,
                                               seed=4),
    "cnn": lambda: StreamingCNN((8,), 3, seed=4),
}

#: Small row counts, and counts in the thousands, past the BLAS blocking
#: sizes.
ROW_COUNTS = st.integers(1, 40) | st.integers(1000, 3000)


class TestRowCountViews:
    """A plan captured at C rows replays any batch of at most C rows on
    views of its arena's leading rows; a larger batch grows it."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(ROW_MODELS)), data=st.data())
    def test_views_match_the_reference_byte_for_byte(self, kind, data):
        capture = data.draw(ROW_COUNTS, label="capture")
        grown = capture + data.draw(st.integers(1, 1500), label="growth")
        before_growth = data.draw(
            st.lists(st.integers(1, capture), max_size=3), label="before")
        after_growth = data.draw(
            st.lists(st.integers(1, grown), min_size=1, max_size=3),
            label="after")
        sizes = [capture, *before_growth, grown, *after_growth]
        growth_at = 1 + len(before_growth)
        nn_plan.clear_plans()
        with_plans, reference = ROW_MODELS[kind](), ROW_MODELS[kind]()
        rng = np.random.default_rng(capture)
        for index, size in enumerate(sizes):
            x = rng.normal(size=(size, 8))
            y = rng.integers(0, 3, size)
            before = nn_plan.plan_cache_stats()
            with configure(plan_capture=True):
                proba = with_plans.predict_proba(x).copy()
                loss = with_plans.partial_fit(x, y)
            events = plan_events(before)
            with configure(plan_capture=False):
                proba_ref = reference.predict_proba(x)
                loss_ref = reference.partial_fit(x, y)
            assert np.float64(loss).tobytes() == \
                np.float64(loss_ref).tobytes(), size
            assert proba.tobytes() == proba_ref.tobytes(), size
            assert state_bytes(with_plans) == state_bytes(reference), size
            # A fit and a proba plan at the first call and at the growth,
            # each replacing its smaller plan there; replays otherwise.
            captures = 2 if index in (0, growth_at) else 0
            assert events == {"capture": captures, "replay": 2 - captures,
                              "unsupported": 0,
                              "invalidate": 2 if index == growth_at else 0}

    @pytest.mark.parametrize("input_shape,sizes", [
        ((8,), [1500, 1, 999, 2, 1499, 3100, 1, 3099, 2048, 3100]),
        ((2, 8, 8), [24, 1, 7, 23, 2, 40, 1, 39, 13, 40]),
    ], ids=["tabular", "image"])
    def test_cnn_views_match_the_reference_byte_for_byte(self, input_shape,
                                                         sizes):
        """Batch-fastest 4-D buffers, re-strided per row count (one row
        is where ``[:n]`` views of them change the weight gradient's
        bits), and the image CNN's second conv, whose input gradient runs
        ``col2im``, on views."""
        with_plans, reference = (StreamingCNN(input_shape, 3, seed=4,
                                              image_channels=4)
                                 for _ in range(2))
        width = int(np.prod(input_shape))
        rng = np.random.default_rng(5)
        before = nn_plan.plan_cache_stats()
        for size in sizes:
            x = rng.normal(size=(size, width))
            y = rng.integers(0, 3, size)
            with configure(plan_capture=True):
                proba = with_plans.predict_proba(x).copy()
                loss = with_plans.partial_fit(x, y)
            with configure(plan_capture=False):
                proba_ref = reference.predict_proba(x)
                loss_ref = reference.partial_fit(x, y)
            assert np.float64(loss).tobytes() == \
                np.float64(loss_ref).tobytes(), size
            assert proba.tobytes() == proba_ref.tobytes(), size
            assert state_bytes(with_plans) == state_bytes(reference), size
        # Fit and proba plans at the first size, each grown once.
        assert plan_events(before) == {"capture": 4,
                                       "replay": 2 * len(sizes) - 4,
                                       "unsupported": 0, "invalidate": 2}


class TestCnnStreams:
    """Whole CNN streams on plans against ``reference_ops()``: plans off,
    and the conv, pool and ReLU the shared kernels replaced patched in."""

    # The tabular CNN's 3,000-row fit plan (about 54 MiB) does not fit the
    # budget beside its 3,000-row proba plan (about 28 MiB): that one fit
    # is refused and runs define-by-run, and the fits after it replay the
    # 128-row plan it would have replaced.
    @pytest.mark.parametrize("input_shape,num_classes,batches,seed,refused", [
        ((16,), 4, [128] * 12 + [3000] + [128] * 7, 3, 1),
        ((3, 8, 8), 10, [16, 16, 24, 16], 4, 0),
    ], ids=["tabular", "image"])
    def test_stream_matches_the_reference_kernels(self, input_shape,
                                                  num_classes, batches,
                                                  seed, refused):
        def stream():
            rng = np.random.default_rng(seed)
            model = StreamingCNN(input_shape, num_classes, lr=0.1, seed=0)
            width = int(np.prod(input_shape))
            probas = []
            for rows in batches:
                x = rng.normal(size=(rows, width))
                y = rng.integers(0, num_classes, rows)
                probas.append(model.predict_proba(x).tobytes())
                model.partial_fit(x, y)
            return probas, state_bytes(model)

        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            fast = stream()
        events = plan_events(before)
        before = nn_plan.plan_cache_stats()
        with reference_ops():
            reference = stream()
        assert fast == reference
        # Every fast call but a refused one ran a plan; no reference call
        # did.
        assert events["unsupported"] == refused
        assert (events["capture"] + events["replay"]
                == 2 * len(batches) - refused)
        assert plan_events(before) == {"capture": 0, "replay": 0,
                                       "unsupported": 0, "invalidate": 0}


BATCH = 64


def window_stream(num_batches=16, seed=1):
    rng = np.random.default_rng(seed)
    concepts = {"c0": GaussianMixtureConcept(4, 16, rng, spread=3.0)}
    segments = [Segment("c0", num_batches, kind="directional",
                        magnitude=0.05)]
    return list(stream_from_schedule(concepts, segments, BATCH, rng,
                                     num_classes=4))


class TestLearnerWindows:
    def test_window_fits_replay_and_match_the_reference(self, monkeypatch):
        """A learner's window fits have a new row count at every window
        completion; only the new maxima capture."""
        stream = window_stream()
        rows = {"fit": [], "proba": []}
        fit_with_plan = nn_plan.fit_with_plan
        proba_with_plan = nn_plan.proba_with_plan

        def recorded_fit(model, x, y):
            rows["fit"].append(len(x))
            return fit_with_plan(model, x, y)

        def recorded_proba(model, x):
            rows["proba"].append(len(x))
            return proba_with_plan(model, x)

        def run():
            learner = Learner(model_factory_for("mlp", 16, 4, lr=0.3, seed=0),
                              window_batches=4, seed=0)
            accuracies = [learner.process(batch).accuracy
                          for batch in stream]
            params = [np.asarray(value).tobytes()
                      for level in learner.ensemble.levels
                      for value in level.model.state_dict().values()]
            return accuracies, params

        monkeypatch.setattr(nn_plan, "fit_with_plan", recorded_fit)
        monkeypatch.setattr(nn_plan, "proba_with_plan", recorded_proba)
        before = nn_plan.plan_cache_stats()
        accuracies, params = run()
        events = plan_events(before)
        monkeypatch.undo()
        with reference_ops():
            accuracies_ref, params_ref = run()
        assert accuracies == accuracies_ref
        assert params == params_ref

        windows = [n for n in rows["fit"] if n != BATCH]
        assert len(set(windows)) >= 4 and min(windows) > BATCH
        assert new_maxima(windows) < len(set(windows))  # some replay on views
        assert set(rows["proba"]) == {BATCH}
        # The first short-fit plan, then one per new maximum, and the proba
        # plan: the long level's predictions of a batch whose short-level
        # forward the fit plan holds for the short fit take it.
        assert events["capture"] == 2 + new_maxima(windows)
        assert events["invalidate"] == new_maxima(windows)
        assert events["unsupported"] == 0

    def test_warm_cnn_learner_builds_no_conv_graph(self, monkeypatch):
        """A second CNN learner over the same stream finds every plan at
        its largest size: no define-by-run ``conv2d`` call, no capture."""
        stream = window_stream()

        def run():
            learner = Learner(model_factory_for("cnn", 16, 4, lr=0.1,
                                                seed=0),
                              window_batches=4, seed=0)
            return [learner.process(batch).accuracy for batch in stream]

        warm = run()
        calls = []
        conv2d = nn.functional.conv2d
        monkeypatch.setattr(nn.functional, "conv2d",
                            lambda *args, **kwargs: calls.append(1)
                            or conv2d(*args, **kwargs))
        before = nn_plan.plan_cache_stats()
        assert run() == warm
        events = plan_events(before)
        assert calls == []
        assert events["capture"] == 0 and events["invalidate"] == 0
        assert events["replay"] > 0


def call_on(model, call, batch):
    """``model.partial_fit(x, y)`` or ``model.predict_proba(x)``."""
    x, y = batch
    return model.partial_fit(x, y) if call == "partial_fit" \
        else model.predict_proba(x)


def result_bytes(results):
    """Bytes of each loss or probability array in ``results``."""
    return [np.float64(result).tobytes() for result in results]


class TestPlanCacheAccounting:
    #: The single-model call each case runs, its twin (the other call,
    #: whose plan is cached beside this call's), this call's plan kind,
    #: and the reference run and compiler its captures use.  The
    #: subclass below runs every case through ``predict_proba``.
    call, twin, kind = "partial_fit", "predict_proba", "fit"
    reference_run, compiler = "_fit_steps", "_compile_fit"

    @staticmethod
    def twin_model(num_features=6):
        """The model the twin cases run.  Its Dropout keeps its
        predictions on the proba plan, beside its fit plan; a Dropout-free
        model's predictions replay its fit plan once it has one."""
        return DropoutMLP(num_features=num_features, num_classes=3, seed=0)

    def test_growth_replaces_the_plan_and_its_bytes(self):
        model = StreamingMLP(num_features=6, num_classes=3, seed=0)
        small = make_batches(1, 8, 6, 3)[0]
        large = make_batches(1, 40, 6, 3, seed=1)[0]
        cache = nn_plan._cache()
        with configure(plan_capture=True):
            model.predict_proba(small[0])
            model.partial_fit(*small)
            held = cache.nbytes
            before = nn_plan.plan_cache_stats()
            call_on(model, self.call, large)
        events = plan_events(before)
        assert (events["capture"], events["invalidate"]) == (1, 1)
        assert len(cache.entries) == 2
        assert cache.nbytes > held
        assert cache.nbytes == sum(nbytes for _, nbytes
                                   in cache.entries.values())
        assert cache.nbytes == sum(entry.nbytes for entry, _
                                   in cache.entries.values())

    def test_growth_frees_the_replaced_arena_before_its_reference_run(
            self, monkeypatch):
        """The replaced arena, the reference run's graph and the new arena
        are never alive at once."""
        model = StreamingMLP(num_features=6, num_classes=3, seed=0)
        with configure(plan_capture=True):
            call_on(model, self.call, make_batches(1, 8, 6, 3)[0])
            (plan, _), = nn_plan._cache().entries.values()
            arena = weakref.ref(plan.x_buf)
            del plan
            alive = []
            reference = getattr(model, self.reference_run)
            monkeypatch.setattr(
                model, self.reference_run,
                lambda *batch: alive.append(arena() is not None)
                or reference(*batch))
            call_on(model, self.call, make_batches(1, 40, 6, 3, seed=1)[0])
        assert alive == [False]

    def test_failed_growth_marks_every_row_count_unsupported(
            self, monkeypatch):
        model = StreamingMLP(num_features=6, num_classes=3, seed=0)
        reference = StreamingMLP(num_features=6, num_classes=3, seed=0)
        small = make_batches(1, 8, 6, 3)[0]
        large = make_batches(1, 40, 6, 3, seed=1)[0]

        def refuse(*args, **kwargs):
            raise nn_plan.PlanUnsupported("refused for the test")

        with configure(plan_capture=True):
            call_on(model, self.call, small)
            monkeypatch.setattr(nn_plan, self.compiler, refuse)
            before = nn_plan.plan_cache_stats()
            results = [call_on(model, self.call, large)]
            monkeypatch.undo()
            results.append(call_on(model, self.call, small))
        with configure(plan_capture=False):
            call_on(reference, self.call, small)
            results_ref = [call_on(reference, self.call, large),
                           call_on(reference, self.call, small)]
        # The replaced plan is dropped; the smaller batch after it runs
        # the reference path too, since the key has no row count.
        assert plan_events(before) == {"capture": 0, "replay": 0,
                                       "unsupported": 1, "invalidate": 1}
        assert result_bytes(results) == result_bytes(results_ref)
        assert state_bytes(model) == state_bytes(reference)
        cache = nn_plan._cache()
        assert cache.nbytes == sum(nbytes for _, nbytes
                                   in cache.entries.values())

    def test_a_plan_that_cannot_fit_beside_its_twin_is_refused(
            self, monkeypatch):
        """A fit plan and a proba plan of one model that are over the
        budget together would evict each other on every call; the second
        one is refused, so the first keeps replaying and nothing
        recaptures."""
        model, reference = self.twin_model(), self.twin_model()
        batches = make_batches(5, 64, 6, 3, seed=2)
        with configure(plan_capture=True):
            call_on(model, self.twin, batches[0])
        with configure(plan_capture=False):
            call_on(reference, self.twin, batches[0])
        twin_bytes = nn_plan._cache().nbytes
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES", twin_bytes + 1024)
        model._weights_version += 1
        before = nn_plan.plan_cache_stats()
        results = run_stream(model, batches, plans_on=True)
        results_ref = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(model, reference, results[0], results_ref[0],
                             results[1], results_ref[1])
        assert plan_events(before) == {"capture": 0,
                                       "replay": len(batches),
                                       "unsupported": 1, "invalidate": 0}

    def test_a_refused_growth_keeps_the_plan_it_would_replace(
            self, monkeypatch):
        """Batches the refused growth's size or larger take the reference
        path without another capture; smaller ones still replay."""
        model = StreamingMLP(num_features=6, num_classes=3, seed=0)
        reference = StreamingMLP(num_features=6, num_classes=3, seed=0)
        first = make_batches(1, 64, 6, 3)[0]
        with configure(plan_capture=True):
            model.predict_proba(first[0])
            model.partial_fit(*first)
        cache = nn_plan._cache()
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES", cache.nbytes + 1024)
        batches = [make_batches(1, rows, 6, 3, seed=seed)[0]
                   for seed, rows in enumerate([256, 64, 300, 256, 32])]
        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            results = [call_on(model, self.call, batch)
                       for batch in batches]
        with configure(plan_capture=False):
            reference.predict_proba(first[0])
            reference.partial_fit(*first)
            results_ref = [call_on(reference, self.call, batch)
                           for batch in batches]
        assert result_bytes(results) == result_bytes(results_ref)
        assert state_bytes(model) == state_bytes(reference)
        assert plan_events(before) == {"capture": 0, "replay": 2,
                                       "unsupported": 1, "invalidate": 0}
        assert [(entry.rows, entry.ceiling) for key, (entry, _)
                in cache.entries.items() if key[0] == self.kind] == \
            [(64, 256)]
        assert [entry.rows for entry, _ in cache.entries.values()] == [64, 64]

    def test_a_growth_keeps_the_refused_ceiling(self, monkeypatch):
        """A plan grown to fewer rows than a refused growth keeps the
        refused size as its ceiling: batches of that size or larger take
        the reference path without capturing and being refused again."""
        sizing = self.twin_model()
        with configure(plan_capture=True):
            call_on(sizing, self.call, make_batches(1, 128, 6, 3)[0])
        grown_bytes = nn_plan._cache().nbytes
        nn_plan.clear_plans()
        model, reference = self.twin_model(), self.twin_model()
        first = make_batches(1, 64, 6, 3)[0]
        with configure(plan_capture=True):
            call_on(model, self.twin, first)
            twin_bytes = nn_plan._cache().nbytes
            call_on(model, self.call, first)
        # A 128-row plan fits beside its 64-row twin; a 256-row one does
        # not.
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES",
                            twin_bytes + grown_bytes)
        batches = [make_batches(1, rows, 6, 3, seed=seed)[0] for seed, rows
                   in enumerate([256, 100, 256, 32, 120, 256])]
        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            results = [call_on(model, self.call, batch)
                       for batch in batches]
        with configure(plan_capture=False):
            call_on(reference, self.twin, first)
            call_on(reference, self.call, first)
            results_ref = [call_on(reference, self.call, batch)
                           for batch in batches]
        assert result_bytes(results) == result_bytes(results_ref)
        assert state_bytes(model) == state_bytes(reference)
        # Captures at 100 and 120 rows, a replay at 32; only the first
        # 256-row batch tries a capture the cache refuses.
        events = plan_events(before)
        assert (events["capture"], events["replay"],
                events["unsupported"]) == (2, 1, 1)
        plans = [entry for key, (entry, _)
                 in nn_plan._cache().entries.items()
                 if key[0] == self.kind]
        assert [(plan.rows, plan.ceiling) for plan in plans] == [(120, 256)]

    def test_a_plan_that_fits_beside_its_twin_evicts_other_plans(
            self, monkeypatch):
        """Whether a plan is kept depends on its bytes and its twin's, not
        on where the twin sits in the eviction order: here the twin is the
        least recently used entry when the plan is stored."""
        sizing = self.twin_model()
        with configure(plan_capture=True):
            call_on(sizing, self.call, make_batches(1, 64, 6, 3)[0])
        plan_bytes = nn_plan._cache().nbytes
        nn_plan.clear_plans()
        model, *others = (self.twin_model(features) for features in (6, 7, 8))
        reference = self.twin_model()
        with configure(plan_capture=True):
            call_on(model, self.twin, make_batches(1, 64, 6, 3)[0])
            for other in others:
                features = other.num_features
                other.partial_fit(*make_batches(1, 64, features, 3)[0])
                other.predict_proba(make_batches(1, 64, features, 3)[0][0])
        with configure(plan_capture=False):
            call_on(reference, self.twin, make_batches(1, 64, 6, 3)[0])
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES",
                            nn_plan._cache().nbytes + plan_bytes - 1)
        batches = make_batches(3, 64, 6, 3, seed=3)
        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            first = call_on(model, self.call, batches[0])
        losses, probas = run_stream(model, batches[1:], plans_on=True)
        with configure(plan_capture=False):
            first_ref = call_on(reference, self.call, batches[0])
        losses_ref, probas_ref = run_stream(reference, batches[1:],
                                            plans_on=False)
        assert result_bytes([first]) == result_bytes([first_ref])
        assert_bitwise_equal(model, reference, losses, losses_ref, probas,
                             probas_ref)
        # The plan evicts its twin, whose recapture evicts one of the
        # other models' plans; from then on both replay.
        assert plan_events(before) == {"capture": 2, "replay": 3,
                                       "unsupported": 0, "invalidate": 2}


class TestProbaPlanCacheAccounting(TestPlanCacheAccounting):
    """The cache-accounting cases through ``predict_proba``'s plans."""

    call, twin, kind = "predict_proba", "partial_fit", "proba"
    reference_run, compiler = "_forward_proba", "_compile_proba"


# -- plans shared across instances and threads ---------------------------------


class TestSharedPlans:
    @pytest.mark.parametrize("cls", [StreamingLR, StreamingMLP, DropoutMLP,
                                     AdamLR, StreamingCNN])
    def test_second_instance_replays_without_capture(self, cls):
        batches = make_batches(10, 16, 8, 3, seed=2)
        if cls is StreamingCNN:
            build = lambda seed: cls((8,), 3, seed=seed)  # noqa: E731
        else:
            build = lambda seed: cls(  # noqa: E731
                num_features=8, num_classes=3, seed=seed)
        first, second = build(4), build(11)
        first_ref, second_ref = build(4), build(11)
        results = {id(first): ([], []), id(second): ([], [])}
        # The first instance captures the fit and proba plans; from then
        # on the two instances interleave through the same plans.
        before = nn_plan.plan_cache_stats()
        for index, (x, y) in enumerate(batches):
            for model in ((first,) if index == 0 else (first, second)):
                losses, probas = results[id(model)]
                with configure(plan_capture=True):
                    probas.append(model.predict_proba(x).copy())
                    losses.append(model.partial_fit(x, y))
            if index == 0:
                assert plan_events(before)["capture"] == 2
                before = nn_plan.plan_cache_stats()
        events = plan_events(before)
        assert events["capture"] == 0
        assert events["unsupported"] == 0
        assert events["replay"] == 4 * (len(batches) - 1)
        for model, ref, stream in ((first, first_ref, batches),
                                   (second, second_ref, batches[1:])):
            losses, probas = results[id(model)]
            losses_ref, probas_ref = run_stream(ref, stream, plans_on=False)
            assert_bitwise_equal(model, ref, losses, losses_ref, probas,
                                 probas_ref)
        for model, ref in ((first, first_ref), (second, second_ref)):
            rngs = [m.rng for m in model.module.modules()
                    if isinstance(m, nn.Dropout)]
            ref_rngs = [m.rng for m in ref.module.modules()
                        if isinstance(m, nn.Dropout)]
            for rng, ref_rng in zip(rngs, ref_rngs):
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_two_threads_replay_one_signature_bitwise(self):
        batches = make_batches(40, 16, 8, 3, seed=6)
        seeds = (3, 17)
        references = {}
        for seed in seeds:
            reference = DropoutMLP(num_features=8, num_classes=3, seed=seed)
            references[seed] = (reference, run_stream(reference, batches,
                                                      plans_on=False))
        models = {seed: DropoutMLP(num_features=8, num_classes=3, seed=seed)
                  for seed in seeds}
        results, errors = {}, []
        barrier = threading.Barrier(len(seeds))

        def worker(seed):
            try:
                model = models[seed]
                losses, probas = [], []
                barrier.wait()
                for x, y in batches:
                    probas.append(model.predict_proba(x).copy())
                    losses.append(model.partial_fit(x, y))
                results[seed] = (losses, probas,
                                 nn_plan.plan_cache_stats())
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        before = nn_plan.plan_cache_stats()
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for seed in seeds:
            reference, (losses_ref, probas_ref) = references[seed]
            losses, probas, _ = results[seed]
            assert_bitwise_equal(models[seed], reference, losses, losses_ref,
                                 probas, probas_ref)
        # Each thread captured into its own cache, then replayed.
        events = plan_events(before)
        assert events["capture"] == 2 * len(seeds)
        assert events["replay"] == len(seeds) * (2 * len(batches) - 2)

    def test_cached_plans_hold_no_tensors(self):
        batches = make_batches(3, 8, 6, 2, seed=1)
        for cls in (StreamingLR, StreamingMLP, DropoutMLP):
            run_stream(cls(num_features=6, num_classes=2, seed=0), batches,
                       plans_on=True)
        models = [StreamingMLP(num_features=6, num_classes=3, seed=s)
                  for s in range(3)]
        arena = stacked_arena(models)
        arena.load(models, train=True)
        rng = np.random.default_rng(2)
        with configure(plan_capture=True):
            nn.stacked_fit(arena.stack, arena.optimizer,
                           rng.normal(size=(3, 8, 6)),
                           rng.integers(0, 3, (3, 8)))
        # The arena holds the stack's Parameters by design; it is no plan.
        plans = [plan for key, (plan, _) in nn_plan._cache().entries.items()
                 if key[0] != "arena"]
        assert len(plans) == 7
        # A plan keeps neither its capture run's graph nor any model.
        for plan in plans:
            assert reachable_tensors(plan) == []


# -- eligibility and fallback -------------------------------------------------


class TestFallback:
    def test_custom_prepare_opts_out(self):
        class WeirdPrepare(StreamingLR):
            def _prepare(self, x):
                return nn.Tensor(np.asarray(x, dtype=float) * 2.0)

        model = WeirdPrepare(num_features=4, num_classes=2, seed=0)
        x = np.ones((6, 4))
        y = np.zeros(6, dtype=np.int64)
        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            model.partial_fit(x, y)
            model.predict_proba(x)
        assert set(plan_events(before).values()) == {0}

    def test_exotic_optimizer_opts_out(self):
        class FobosLR(StreamingLR):
            def _make_optimizer(self):
                return nn.FOBOS(self.module.parameters(), lr=0.05)

        model = FobosLR(num_features=4, num_classes=2, seed=0)
        x = np.ones((6, 4))
        y = np.zeros(6, dtype=np.int64)
        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            model.partial_fit(x, y)
            model.predict_proba(x)
        assert set(plan_events(before).values()) == {0}

    @staticmethod
    def check_copy_keeps_training(copy_model):
        """A copy of a trained model binds the plans its original
        captured, and keeps training: its parameters move, bitwise as the
        original's do over the same continued fits, momentum included."""
        model = StreamingLR(num_features=4, num_classes=2, seed=0,
                            momentum=0.9)
        batches = make_batches(3, 8, 4, 2)
        run_stream(model, batches, plans_on=True)
        clone = copy_model(model)
        reference = copy_model(model)
        copied = clone.state_dict()
        before = nn_plan.plan_cache_stats()
        results_a = run_stream(clone, batches, plans_on=True)
        events = plan_events(before)
        assert events["capture"] == 0
        assert events["replay"] == 2 * len(batches)
        results_b = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(clone, reference, results_a[0], results_b[0],
                             results_a[1], results_b[1])
        for name, value in clone.state_dict().items():
            assert value.tobytes() != copied[name].tobytes(), name
        results_o = run_stream(model, batches, plans_on=True)
        assert_bitwise_equal(clone, model, results_a[0], results_o[0],
                             results_a[1], results_o[1])

    def test_unpickled_model_replays_shared_plan(self):
        self.check_copy_keeps_training(
            lambda model: pickle.loads(pickle.dumps(model)))

    def test_deep_copied_model_replays_shared_plan(self):
        self.check_copy_keeps_training(copy.deepcopy)


# -- stacked plans ------------------------------------------------------------


class TestStackedPlans:
    def _fleet(self, num_models, seed=0, lr=0.05):
        """A momentum MLP fleet loaded into its arena."""
        models = [StreamingMLP(num_features=6, num_classes=3, seed=seed + s,
                               lr=lr, momentum=0.9)
                  for s in range(num_models)]
        arena = stacked_arena(models)
        arena.load(models, train=True)
        return models, arena

    def test_stacked_fit_replay_is_bitwise(self):
        rng = np.random.default_rng(8)
        steps = [(rng.normal(size=(4, 8, 6)), rng.integers(0, 3, (4, 8)))
                 for _ in range(8)]

        def run(plans_on):
            models, arena = self._fleet(4)
            losses = []
            with configure(plan_capture=plans_on):
                for xs, ys in steps:
                    losses.append(nn.stacked_fit(arena.stack,
                                                 arena.optimizer, xs, ys))
            arena.store(models)
            return losses, [m.state_dict() for m in models]

        losses_on, states_on = run(True)
        losses_off, states_off = run(False)
        assert [l.tobytes() for l in losses_on] == \
            [l.tobytes() for l in losses_off]
        for state_a, state_b in zip(states_on, states_off):
            for key in state_a:
                assert state_a[key].tobytes() == state_b[key].tobytes()

    def test_stacked_plan_survives_rebinding_to_new_fleet(self):
        # Two fleets whose learning rates differ stack in two arenas but
        # share one cached plan; each replay must bind the calling
        # arena's parameters and optimizer.
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(3, 8, 6))
        ys = rng.integers(0, 3, (3, 8))
        with configure(plan_capture=True):
            models_a, arena_a = self._fleet(3, seed=0)
            nn.stacked_fit(arena_a.stack, arena_a.optimizer, xs, ys)
            losses_a = nn.stacked_fit(arena_a.stack, arena_a.optimizer,
                                      xs, ys)
            arena_a.store(models_a)
            before = nn_plan.plan_cache_stats()
            models_b, arena_b = self._fleet(3, seed=40, lr=0.1)
            losses_b = nn.stacked_fit(arena_b.stack, arena_b.optimizer,
                                      xs, ys)
            arena_b.store(models_b)
        assert arena_b is not arena_a
        assert plan_events(before)["capture"] == 0
        # Different weights -> different losses; same plan served both.
        assert losses_a.tobytes() != losses_b.tobytes()
        models_ref = [StreamingMLP(num_features=6, num_classes=3,
                                   seed=40 + s, lr=0.1, momentum=0.9)
                      for s in range(3)]
        with configure(plan_capture=False):
            losses_ref = [model.partial_fit(x, y)
                          for model, x, y in zip(models_ref, xs, ys)]
        assert losses_b.tolist() == losses_ref
        for model_b, model_ref in zip(models_b, models_ref):
            for state_b, state_ref in (
                    (model_b.state_dict(), model_ref.state_dict()),
                    (model_b.optimizer.state_dict(),
                     model_ref.optimizer.state_dict())):
                assert state_b.keys() == state_ref.keys()
                for key in state_b:
                    assert state_b[key].tobytes() == state_ref[key].tobytes()


# -- one forward per labeled batch ---------------------------------------------


def reuses_since(before):
    """``"reuse"`` events since the ``plan_cache_stats()`` ``before``."""
    return nn_plan.plan_cache_stats().get("reuse", 0) - before.get("reuse", 0)


def twin_run(build, script):
    """Run ``script(model)`` on a model from ``build`` with plans on, and
    on a plans-off twin.  Both runs must agree byte for byte — every
    result ``script`` returns, and the parameters, optimizer state and
    Dropout generators.  Returns the plans-on run's ``"reuse"`` events."""
    fast, slow = build(), build()
    before = nn_plan.plan_cache_stats()
    with configure(plan_capture=True):
        results = script(fast)
    reuses = reuses_since(before)
    with configure(plan_capture=False):
        results_ref = script(slow)
    assert [np.asarray(r).tobytes() for r in results] == \
        [np.asarray(r).tobytes() for r in results_ref]
    assert state_bytes(fast) == state_bytes(slow)
    return reuses


def with_bits(x, index, bits):
    """A copy of ``x`` whose cell ``index`` holds the float64 ``bits``."""
    x = x.copy()
    x[index] = np.array([bits], dtype=np.uint64).view(np.float64)[0]
    return x


NEGATIVE_ZERO = 0x8000000000000000
NAN = 0x7FF8000000000000
NAN_OTHER_PAYLOAD = 0x7FF8000000000001

#: The Dropout-free models of ``ROW_MODELS``, and an image CNN.
REUSE_MODELS = {
    **{kind: build for kind, build in ROW_MODELS.items()
       if kind != "dropout-mlp"},
    "image-cnn": lambda: StreamingCNN((2, 4, 4), 3, seed=4,
                                      image_channels=4),
}


# What a script runs between a prediction and the fit of the same batch;
# each returns its results for the twin comparison.


def between_none(model, batches):
    return []


def between_partial_fit(model, batches):
    return [model.partial_fit(*batches[3])]


def between_load_state_dict(model, batches):
    model.load_state_dict(model.state_dict())
    return []


def between_load_training_state(model, batches):
    nn.serialization.load_training_state(model, training_state(model))
    return []


def between_apply_gradient(model, batches):
    model.apply_gradient([np.full(p.data.shape, 0.01)
                          for p in model.module.parameters()])
    return []


def between_other_model(model, batches):
    """Another model, as many fits in, predicts the same batch."""
    other = StreamingMLP(num_features=8, num_classes=3, seed=9)
    return [other.partial_fit(*batches[2]),
            other.predict_proba(batches[1][0]).copy()]


class TestForwardReuse:
    """A Dropout-free model's prediction runs on its fit plan's forward and
    leaves it pending; the fit that follows on the same batch and weights
    skips it, a ``"reuse"`` event, and stays bitwise equal to plans off."""

    @staticmethod
    def predict_then_fit(batches, between=between_none, fitted=None,
                         predicted=None):
        """A script for :func:`twin_run`: fit ``batches[0]`` (the fit plan's
        capture), predict ``predicted`` (default ``batches[1]``'s rows),
        run ``between``, then fit ``fitted`` (default the predicted
        batch)."""
        x, y = batches[1]
        predicted = x if predicted is None else predicted
        fitted = (x, y) if fitted is None else fitted

        def script(model):
            results = [model.partial_fit(*batches[0]),
                       model.predict_proba(predicted).copy()]
            results += between(model, batches)
            results.append(model.partial_fit(*fitted))
            return results

        return script

    @pytest.mark.parametrize("kind", sorted(REUSE_MODELS))
    def test_predict_then_fit_reuses_one_forward(self, kind):
        build = REUSE_MODELS[kind]
        width = int(np.prod(build().module_input_shape))
        batches = make_batches(4, 16, width, 3, seed=5)
        assert twin_run(build, self.predict_then_fit(batches)) == 1

    @pytest.mark.parametrize("between", [
        between_partial_fit, between_load_state_dict,
        between_load_training_state, between_apply_gradient,
        between_other_model,
    ], ids=lambda between: between.__name__[len("between_"):])
    def test_no_reuse_after_a_write_or_another_forward(self, between):
        batches = make_batches(4, 16, 8, 3, seed=6)
        script = self.predict_then_fit(batches, between=between)
        assert twin_run(REUSE_MODELS["mlp"], script) == 0

    @pytest.mark.parametrize("bits,other", [
        (0, NEGATIVE_ZERO), (NAN, NAN_OTHER_PAYLOAD),
    ], ids=["signed-zero", "nan-payload"])
    def test_no_reuse_when_one_bit_differs(self, bits, other):
        """Equal values are not enough: the fitted batch must carry the
        predicted batch's bits."""
        batches = make_batches(4, 16, 8, 3, seed=7)
        x, y = batches[1]
        script = self.predict_then_fit(
            batches, predicted=with_bits(x, (5, 2), bits),
            fitted=(with_bits(x, (5, 2), other), y))
        assert twin_run(REUSE_MODELS["mlp"], script) == 0

    def test_no_reuse_when_the_fit_has_more_rows(self):
        batches = make_batches(4, 16, 8, 3, seed=8)
        x, y = batches[1]
        script = self.predict_then_fit(batches, predicted=x[:8])
        assert twin_run(REUSE_MODELS["mlp"], script) == 0

    def test_no_reuse_with_dropout(self):
        batches = make_batches(4, 16, 8, 3, seed=9)
        build = lambda: DropoutMLP(num_features=8, num_classes=3,  # noqa: E731
                                   seed=4)
        assert twin_run(build, self.predict_then_fit(batches)) == 0

    def test_no_reuse_in_eval_mode(self):
        """An eval-mode prediction takes the proba plan, and an eval-mode
        fit its own fit plan."""
        batches = make_batches(4, 16, 8, 3, seed=10)

        def script(model):
            model.module.eval()
            results = [model.partial_fit(*batches[0])]
            model.module.eval()  # a prediction leaves train mode
            results.append(model.predict_proba(batches[1][0]).copy())
            model.module.eval()
            results.append(model.partial_fit(*batches[1]))
            return results

        assert twin_run(REUSE_MODELS["mlp"], script) == 0

    def test_sgd_steps_two_reuses_step_zero_only(self, monkeypatch):
        batches = make_batches(4, 16, 8, 3, seed=11)
        build = lambda: StreamingMLP(num_features=8, num_classes=3,  # noqa: E731
                                     seed=4, sgd_steps=2, momentum=0.9)
        assert twin_run(build, self.predict_then_fit(batches)) == 1
        forwards = []
        linear_forward = nn.kernels.linear_forward
        monkeypatch.setattr(nn.kernels, "linear_forward",
                            lambda *args: forwards.append(1)
                            or linear_forward(*args))
        model = build()
        x, y = batches[1]
        with configure(plan_capture=True):
            model.partial_fit(*batches[0])
            model.predict_proba(x)
            forwards.clear()
            model.partial_fit(x, y)
        # Step 1's forward through the two Linear layers; step 0's is the
        # prediction's.
        assert len(forwards) == 2

    def test_the_trainer_keeps_its_forward_from_other_predictions(self):
        """Once a model has fit a batch it predicted, other models'
        predictions of the batch it predicts next take the proba plan, and
        its fit still skips its forward."""
        batches = make_batches(4, 16, 8, 3, seed=12)
        build = lambda: StreamingMLP(num_features=8, num_classes=3,  # noqa: E731
                                     seed=4)

        def script(model):
            other = StreamingMLP(num_features=8, num_classes=3, seed=9)
            results = [model.partial_fit(*batches[0]),
                       other.partial_fit(*batches[3])]
            for x, y in batches[1:3]:
                results += [model.predict_proba(x).copy(),
                            other.predict_proba(x).copy(),
                            model.partial_fit(x, y)]
            return results + list(training_state(other).values())

        # The first round's fit makes the model the trainer; the second
        # round reuses.
        before = nn_plan.plan_cache_stats()
        assert twin_run(build, script) == 1
        assert plan_events(before)["capture"] == 2  # the fit and proba plans

    def test_the_plan_keeps_no_model_alive(self):
        """The pending forward and the trainer hold their models weakly."""
        model = StreamingMLP(num_features=8, num_classes=3, seed=4)
        batches = make_batches(3, 16, 8, 3, seed=13)
        with configure(plan_capture=True):
            model.partial_fit(*batches[0])
            for x, y in batches[1:]:
                model.predict_proba(x)
                model.partial_fit(x, y)
            model.predict_proba(batches[0][0])
        plan, = [entry for key, (entry, _) in nn_plan._cache().entries.items()
                 if key[0] == "fit"]
        assert plan.pending[0]() is model and plan.trainer() is model
        alive = weakref.ref(model)
        del model
        assert alive() is None

    def test_a_refused_growths_ceiling_sends_predictions_to_the_proba_plan(
            self, monkeypatch):
        """Predictions at or above the ceiling a refused fit growth leaves
        replay the proba plan; smaller ones the fit plan, whose forward
        the next fit skips."""
        model = StreamingMLP(num_features=6, num_classes=3, seed=0)
        reference = StreamingMLP(num_features=6, num_classes=3, seed=0)
        opening = [("predict_proba", make_batches(1, 300, 6, 3)[0]),
                   ("partial_fit", make_batches(1, 64, 6, 3, seed=1)[0])]
        with configure(plan_capture=True):
            for call, batch in opening:
                call_on(model, call, batch)
        cache = nn_plan._cache()
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES", cache.nbytes + 1024)
        small = make_batches(1, 32, 6, 3, seed=5)[0]
        calls = [("partial_fit", make_batches(1, 256, 6, 3, seed=2)[0]),
                 ("predict_proba", make_batches(1, 256, 6, 3, seed=3)[0]),
                 ("predict_proba", make_batches(1, 300, 6, 3, seed=4)[0]),
                 ("predict_proba", small), ("partial_fit", small)]
        routes = []
        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            results = []
            for call, batch in calls:
                results.append(call_on(model, call, batch))
                fit_plan, = [entry for key, (entry, _)
                             in cache.entries.items() if key[0] == "fit"]
                routes.append(fit_plan.pending is not None)
        events = plan_events(before)
        with configure(plan_capture=False):
            for call, batch in opening:
                call_on(reference, call, batch)
            results_ref = [call_on(reference, call, batch)
                           for call, batch in calls]
        assert result_bytes(results) == result_bytes(results_ref)
        assert state_bytes(model) == state_bytes(reference)
        assert (fit_plan.rows, fit_plan.ceiling) == (64, 256)
        # Only the 32-row prediction left a forward in the fit plan.
        assert routes == [False, False, False, True, False]
        assert events == {"capture": 0, "replay": 4, "unsupported": 1,
                          "invalidate": 0}
        assert reuses_since(before) == 1

    @pytest.mark.parametrize("confidence", [True, False],
                             ids=["confidence-channel", "no-channel"])
    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_learner_stream_reuses_one_forward_per_short_fit(self, kind,
                                                             confidence):
        """Every short fit but the first, which follows no prediction,
        skips its forward, whichever levels the ensemble blends."""
        stream = window_stream()

        def run():
            learner = Learner(model_factory_for(kind, 16, 4, lr=0.3, seed=0),
                              window_batches=4, seed=0,
                              use_confidence_channel=confidence)
            accuracies = [learner.process(batch).accuracy
                          for batch in stream]
            params = [np.asarray(value).tobytes()
                      for level in learner.ensemble.levels
                      for value in level.model.state_dict().values()]
            return accuracies, params, learner.ensemble.short_level.updates

        before = nn_plan.plan_cache_stats()
        with configure(plan_capture=True):
            accuracies, params, short_fits = run()
        reuses = reuses_since(before)
        with configure(plan_capture=False):
            accuracies_ref, params_ref, _ = run()
        assert (accuracies, params) == (accuracies_ref, params_ref)
        assert short_fits == len(stream)
        assert reuses == short_fits - 1


# -- every parameter write bumps the weights version ----------------------------


def fresh_after(model, x, write):
    """Predict ``x``, run ``write``, and check that the next prediction of
    the same ``x`` object is a fresh forward's bytes, not the stale one."""
    stale = model.predict_proba(x).copy()
    write()
    got = model.predict_proba(x)
    assert got.tobytes() == model._forward_proba(x).tobytes()
    assert got.tobytes() != stale.tobytes()


def other_state(seed=7):
    """The training state of a differently seeded, trained model."""
    other = StreamingMLP(num_features=8, num_classes=3, seed=seed)
    other.partial_fit(*make_batches(1, 16, 8, 3, seed=seed)[0])
    return training_state(other)


@pytest.mark.parametrize("plans_on", [True, False], ids=["plans", "no-plans"])
class TestWeightsVersion:
    """``predict_proba``'s memo and a plan's pending forward trust
    ``_weights_version``: every path that writes a model's parameters must
    bump it."""

    @staticmethod
    def trained(seed=4):
        model = StreamingMLP(num_features=8, num_classes=3, seed=seed)
        model.partial_fit(*make_batches(1, 16, 8, 3, seed=seed)[0])
        return model

    @pytest.mark.parametrize("path", [
        "partial_fit", "apply_gradient", "load_state_dict",
        "load_training_state"])
    def test_model_writes(self, plans_on, path):
        x, y = make_batches(1, 16, 8, 3, seed=1)[0]
        with configure(plan_capture=plans_on):
            model = self.trained()
            write = {
                "partial_fit": lambda: model.partial_fit(x, y),
                "apply_gradient": lambda: model.apply_gradient(
                    [np.full(p.data.shape, 0.1)
                     for p in model.module.parameters()]),
                "load_state_dict": lambda: model.load_state_dict(
                    nn.serialization.parameters_of(other_state())),
                "load_training_state": lambda: (
                    nn.serialization.load_training_state(model,
                                                         other_state())),
            }[path]
            fresh_after(model, x, write)

    def test_restore_learner_state(self, plans_on):
        from repro.core.persistence import learner_state, restore_learner_state
        batches = window_stream(num_batches=6)
        x = batches[-1].x
        with configure(plan_capture=plans_on):
            learners = []
            for seed, span in ((0, batches[:5]), (3, batches[1:6])):
                learner = Learner(
                    model_factory_for("mlp", 16, 4, lr=0.3, seed=seed),
                    window_batches=4, seed=0)
                for batch in span:
                    learner.process(batch)
                learners.append(learner)
            target, source = learners
            arrays, meta = learner_state(source)
            models = [level.model for level in target.ensemble.levels]
            stale = [model.predict_proba(x).copy() for model in models]
            restore_learner_state(target, arrays, meta)
            for model, before in zip(models, stale):
                got = model.predict_proba(x)
                assert got.tobytes() == model._forward_proba(x).tobytes()
                assert got.tobytes() != before.tobytes()

    def test_knowledge_warm_start(self, plans_on):
        """``_verify_pending_reuse`` loads a verified match into every
        level."""
        from repro.core.knowledge import KnowledgeMatch
        batches = window_stream(num_batches=4)
        x = batches[-1].x
        with configure(plan_capture=plans_on):
            learner = Learner(model_factory_for("mlp", 16, 4, lr=0.3, seed=0),
                              window_batches=2, seed=0)
            for batch in batches[:3]:
                learner.process(batch)
            donor = model_factory_for("mlp", 16, 4, lr=0.3, seed=5)()
            # Labels only the donor gets right: the match verifies.
            y = (donor.predict(x) + 1) % 4
            y[:len(y) // 2] = donor.predict(x)[:len(y) // 2]
            entry = learner.knowledge.preserve(
                np.zeros(2), donor.state_dict(), "short", 0.1, batch_index=1)
            models = [level.model for level in learner.ensemble.levels]
            stale = [model.predict_proba(x).copy() for model in models]
            learner._pending_reuse = KnowledgeMatch(entry=entry, distance=0.05)
            learner._verify_pending_reuse(x, y)
            donor_state = [value.tobytes()
                           for value in donor.state_dict().values()]
            for model, before in zip(models, stale):
                assert [value.tobytes() for value
                        in model.state_dict().values()] == donor_state
                got = model.predict_proba(x)
                assert got.tobytes() == model._forward_proba(x).tobytes()
                assert got.tobytes() != before.tobytes()

    def test_execute_stacked_store(self, plans_on):
        from repro.serving import ModelEstimator, execute_stacked
        rng = np.random.default_rng(2)
        xs = [rng.normal(size=(16, 8)) for _ in range(3)]
        ys = [rng.integers(0, 3, 16) for _ in range(3)]
        with configure(plan_capture=plans_on):
            models = [self.trained(seed) for seed in range(3)]
            stale = [model.predict_proba(x).copy()
                     for model, x in zip(models, xs)]
            execute_stacked([ModelEstimator(model) for model in models],
                            xs, ys)
            for model, x, before in zip(models, xs, stale):
                got = model.predict_proba(x)
                assert got.tobytes() == model._forward_proba(x).tobytes()
                assert got.tobytes() != before.tobytes()


# -- telemetry ----------------------------------------------------------------


class TestPlanTelemetry:
    def test_stats_count_replays_without_hooks(self):
        before = nn_plan.plan_cache_stats().get("replay", 0)
        model = StreamingLR(num_features=4, num_classes=2, seed=0)
        batches = make_batches(4, 8, 4, 2)
        run_stream(model, batches, plans_on=True)
        assert nn_plan.plan_cache_stats().get("replay", 0) > before


# -- hypothesis fuzz ----------------------------------------------------------


class TestPlanFuzz:
    @settings(max_examples=20, deadline=None)
    @given(
        hidden=st.lists(st.sampled_from([3, 5, 8]), min_size=0, max_size=2),
        seed=st.integers(min_value=0, max_value=2**16),
        batch_size=st.integers(min_value=1, max_value=9),
        momentum=st.sampled_from([0.0, 0.9]),
    )
    def test_replayed_fit_is_bitwise_identical(self, hidden, seed,
                                               batch_size, momentum):
        num_features, num_classes = 6, 3
        batches = make_batches(5, batch_size, num_features, num_classes,
                               seed=seed)
        if hidden:
            build = lambda: StreamingMLP(  # noqa: E731
                num_features=num_features, num_classes=num_classes,
                hidden=tuple(hidden), seed=seed, momentum=momentum)
        else:
            build = lambda: StreamingLR(  # noqa: E731
                num_features=num_features, num_classes=num_classes,
                seed=seed, momentum=momentum)
        with_plans, reference = build(), build()
        results_on = run_stream(with_plans, batches, plans_on=True)
        results_off = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(with_plans, reference, results_on[0],
                             results_off[0], results_on[1], results_off[1])
