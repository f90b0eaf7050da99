"""Tests for persistent stacked arenas (``repro.nn.stacked.StackedArena``).

The serving dispatcher runs every stacked group through the calling
thread's arena for its stacking group and size: members' parameters and
optimizer state are copied into the arena's rows and back each round.
These tests drive ``execute_stacked`` through rounds whose membership and
size change every time and hold each member — parameters, exported
optimizer state, Dropout RNG state — byte-equal to a serial replay.
They also check that warm rounds are served by replayed plans, with no
Tensor graph built, and that an arena keeps none of its members alive.
"""

import copy
import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro import nn
from repro.models.base import NeuralStreamingModel
from repro.models.mlp import StreamingMLP
from repro.nn import plan as nn_plan
from repro.nn.stacked import ModelStack, StackedArena, StackedModelError
from repro.perf import configure, optimizations_disabled
from repro.serving import ModelEstimator, execute_stacked, predict_and_update

NUM_FEATURES = 6
NUM_CLASSES = 3
ROWS = 4


@pytest.fixture(autouse=True)
def empty_plan_cache():
    """Start every test without arenas: construction counts are exact."""
    nn_plan.clear_plans()
    yield
    nn_plan.clear_plans()


class AdamMLP(StreamingMLP):
    name = "adam-mlp"

    def _make_optimizer(self):
        return nn.Adam(self.module.parameters(), lr=0.01)


class DropoutMLP(NeuralStreamingModel):
    """MLP with a Dropout layer whose generator is seeded per model."""

    name = "dropout-mlp"

    def _build(self, rng):
        return nn.Sequential(
            nn.Linear(self.num_features, 8, rng=rng),
            nn.ReLU(),
            nn.Dropout(0.3, rng=np.random.default_rng(self.seed + 100)),
            nn.Linear(8, self.num_classes, rng=rng),
        )


FLEETS = {
    "momentum": lambda seed: StreamingMLP(
        NUM_FEATURES, NUM_CLASSES, hidden=(8,), lr=0.1, momentum=0.9,
        seed=seed),
    "adam": lambda seed: AdamMLP(NUM_FEATURES, NUM_CLASSES, hidden=(8,),
                                 seed=seed),
    "dropout": lambda seed: DropoutMLP(NUM_FEATURES, NUM_CLASSES, lr=0.1,
                                       momentum=0.9, seed=seed),
}


def snapshot(model):
    """Parameters, exported optimizer state and Dropout RNG states.

    Exports from a deep copy, so taking a snapshot never changes where
    the live optimizer keeps its state.
    """
    state = ModelEstimator(copy.deepcopy(model)).state_dict()
    arrays = {key: np.asarray(value).tobytes() for key, value in state.items()}
    rngs = [repr(layer.rng.bit_generator.state)
            for layer in model.module.modules()
            if isinstance(layer, nn.Dropout)]
    return arrays, rngs


def schedule(kind, num_models, rounds, seed):
    """Rounds of ``(members, labeled)``: membership changes every round,
    size ranges over 2–5.

    An Adam group trains only when its members sit at one step count
    (bias correction is shared); the momentum fleet's last two rounds
    hand the row a momentum-carrying member held to a fresh member.
    """
    rng = np.random.default_rng(seed)
    steps = Counter()
    fresh = num_models - 1 if kind == "momentum" else None
    pool = [index for index in range(num_models) if index != fresh]
    plan, previous = [], None
    while len(plan) < rounds:
        size = int(rng.integers(2, 6))
        labeled = bool(rng.random() < 0.7)
        candidates = pool
        if kind == "adam" and labeled:
            by_step: dict = {}
            for index in pool:
                by_step.setdefault(steps[index], []).append(index)
            candidates = max(by_step.values(), key=len)
            size = min(size, len(candidates))
            if size < 2:
                labeled, candidates = False, pool
                size = int(rng.integers(2, 6))
        members = [int(index) for index in
                   rng.choice(candidates, size=size, replace=False)]
        if set(members) == previous:
            continue
        if labeled:
            for index in members:
                steps[index] += 1
        plan.append((members, labeled))
        previous = set(members)
    if fresh is not None:
        held = [pool[0], pool[1], pool[2]]
        plan.append((held, True))
        plan.append(([fresh, pool[1], pool[3]], True))
    return plan


def run_rounds(kind, rounds=30, num_models=8, seed=0, plans=True):
    """Serve ``schedule`` stacked and serially; compare after every round."""
    make = FLEETS[kind]
    stacked = [make(seed) for seed in range(num_models)]
    serial = [make(seed) for seed in range(num_models)]
    rng = np.random.default_rng(seed + 1)
    plan = schedule(kind, num_models, rounds, seed)
    for members, labeled in plan:
        xs = [rng.normal(size=(ROWS, NUM_FEATURES)) for _ in members]
        ys = [rng.integers(0, NUM_CLASSES, ROWS) if labeled else None
              for _ in members]
        with configure(plan_capture=plans):
            labels = execute_stacked(
                [ModelEstimator(stacked[index]) for index in members], xs, ys)
        with optimizations_disabled():
            expected = [predict_and_update(ModelEstimator(serial[index]), x, y)
                        for index, x, y in zip(members, xs, ys)]
        for got, want in zip(labels, expected):
            assert got.tobytes() == np.asarray(want).tobytes()
        for index in range(num_models):
            assert snapshot(stacked[index]) == snapshot(serial[index]), (
                kind, members, index)
    return plan


def count_constructions(monkeypatch):
    counts = Counter()
    for cls in (ModelStack, StackedArena):
        original = cls.__init__

        def init(self, *args, _original=original, _name=cls.__name__,
                 **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


class TestArenaRounds:
    @pytest.mark.parametrize("plans", [True, False])
    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_rounds_match_serial_replay_bitwise(self, kind, plans):
        plan = run_rounds(kind, plans=plans)
        assert len(plan) >= 30
        sizes = {len(members) for members, _ in plan}
        assert sizes == {2, 3, 4, 5}
        assert any(labeled for _, labeled in plan)
        assert any(not labeled for _, labeled in plan)

    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_one_stack_and_optimizer_per_group_size(self, kind, monkeypatch):
        # An arena builds its stack and its optimizer once.
        counts = count_constructions(monkeypatch)
        plan = run_rounds(kind)
        sizes = {len(members) for members, _ in plan}
        assert counts == {"ModelStack": len(sizes),
                          "StackedArena": len(sizes)}

    def test_evicted_arenas_rebuild_bitwise(self, monkeypatch):
        counts = count_constructions(monkeypatch)
        monkeypatch.setattr(nn_plan, "_PLAN_CACHE_BYTES", 1)
        plan = run_rounds("momentum")
        # Every plan stored evicts the arena in use, so rounds rebuild.
        assert counts["ModelStack"] > len({len(m) for m, _ in plan})

    def test_reshaped_member_falls_back_untouched(self):
        make = FLEETS["momentum"]
        models = [make(seed) for seed in range(4)]
        mirrors = [make(seed) for seed in range(4)]
        rng = np.random.default_rng(5)

        def inputs(count):
            return ([rng.normal(size=(ROWS, NUM_FEATURES))
                     for _ in range(count)],
                    [rng.integers(0, NUM_CLASSES, ROWS)
                     for _ in range(count)])

        def serve(members):
            xs, ys = inputs(len(members))
            labels = execute_stacked(
                [ModelEstimator(models[index]) for index in members], xs, ys)
            with optimizations_disabled():
                for index, x, y, got in zip(members, xs, ys, labels):
                    want = predict_and_update(
                        ModelEstimator(mirrors[index]), x, y)
                    assert got.tobytes() == want.tobytes()

        serve([0, 1, 2])
        # The key cached with the last member's binding still says 8
        # hidden units; its first layer no longer has them.  Rows 0 and 1
        # are copied into the arena before the check trips.
        models[2].module.layers[0].weight.data = np.zeros((4, NUM_FEATURES))
        before = [snapshot(model) for model in models]
        with pytest.raises(StackedModelError, match="does not fit"):
            execute_stacked([ModelEstimator(models[index])
                             for index in (0, 1, 2)], *inputs(3))
        assert [snapshot(model) for model in models] == before
        # The same arena serves the next group bitwise.
        serve([3, 0, 1])
        for index in (0, 1, 3):
            assert snapshot(models[index]) == snapshot(mirrors[index])

    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_arena_keeps_no_member_alive(self, kind):
        models = [FLEETS[kind](seed) for seed in range(3)]
        rng = np.random.default_rng(6)
        for labeled in (True, False):
            xs = [rng.normal(size=(ROWS, NUM_FEATURES)) for _ in models]
            ys = [rng.integers(0, NUM_CLASSES, ROWS) if labeled else None
                  for _ in models]
            execute_stacked([ModelEstimator(model) for model in models],
                            xs, ys)
        refs = [weakref.ref(obj) for model in models
                for obj in (model, model.module,
                            *model.module.parameters())]
        del models
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []

    def test_mismatched_adam_step_counts_raise(self):
        models = [FLEETS["adam"](seed) for seed in range(2)]
        x = np.ones((ROWS, NUM_FEATURES))
        y = np.zeros(ROWS, dtype=np.int64)
        models[0].partial_fit(x, y)
        before = [snapshot(model) for model in models]
        with pytest.raises(StackedModelError, match="step counts"):
            execute_stacked([ModelEstimator(m) for m in models], [x, x],
                            [y, y])
        assert [snapshot(model) for model in models] == before


def count_forwards(monkeypatch):
    """Count ``ModelStack.forward`` calls: each is a Tensor graph built."""
    counts = Counter()
    original = ModelStack.forward

    def forward(self, x):
        counts["forward"] += 1
        return original(self, x)

    monkeypatch.setattr(ModelStack, "forward", forward)
    return counts


def plan_events(before):
    after = nn_plan.plan_cache_stats()
    return {event: after.get(event, 0) - before.get(event, 0)
            for event in ("capture", "replay", "unsupported")}


def serve_and_compare(stacked, serial, members, labeled, rng):
    """One stacked round; labels and every model must match serial."""
    xs = [rng.normal(size=(ROWS, NUM_FEATURES)) for _ in members]
    ys = [rng.integers(0, NUM_CLASSES, ROWS) if labeled else None
          for _ in members]
    labels = execute_stacked(
        [ModelEstimator(stacked[index]) for index in members], xs, ys)
    with optimizations_disabled():
        expected = [predict_and_update(ModelEstimator(serial[index]), x, y)
                    for index, x, y in zip(members, xs, ys)]
    for got, want in zip(labels, expected):
        assert got.tobytes() == np.asarray(want).tobytes()
    for index in range(len(stacked)):
        assert snapshot(stacked[index]) == snapshot(serial[index])


class TestStackedRoundPlans:
    """Warm stacked rounds replay plans and build no Tensor graph."""

    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_warm_rounds_replay_plans_without_a_forward(self, kind,
                                                        monkeypatch):
        forwards = count_forwards(monkeypatch)
        make = FLEETS[kind]
        stacked = [make(seed) for seed in range(8)]
        serial = [make(seed) for seed in range(8)]
        rng = np.random.default_rng(3)
        warm, checked = set(), Counter()
        for members, labeled in schedule(kind, 8, 30, seed=0):
            shape = (len(members), labeled)
            before, calls = nn_plan.plan_cache_stats(), forwards["forward"]
            serve_and_compare(stacked, serial, members, labeled, rng)
            if shape in warm:
                # One predict-and-train plan per labeled round; with
                # Dropout, an inference plan and the fit plan instead.
                replays = 2 if kind == "dropout" and labeled else 1
                assert forwards["forward"] == calls, shape
                assert plan_events(before) == {
                    "capture": 0, "replay": replays, "unsupported": 0}
                checked[labeled] += 1
            warm.add(shape)
        assert checked[True] > 0 and checked[False] > 0

    @pytest.mark.parametrize("labeled", [True, False])
    def test_perturbed_probabilities_at_capture_mark_the_key_unsupported(
            self, labeled, monkeypatch):
        original = nn_plan._SoftmaxKernel.forward

        def perturbed(self):
            original(self)
            np.subtract(1.0, self.out, out=self.out)  # argmax → argmin

        monkeypatch.setattr(nn_plan._SoftmaxKernel, "forward", perturbed)
        make = FLEETS["momentum"]
        stacked = [make(seed) for seed in range(3)]
        serial = [make(seed) for seed in range(3)]
        rng = np.random.default_rng(4)
        before = nn_plan.plan_cache_stats()
        serve_and_compare(stacked, serial, [0, 1, 2], labeled, rng)
        assert plan_events(before) == {"capture": 0, "replay": 0,
                                       "unsupported": 1}
        entries = [entry for entry, _ in nn_plan._cache().entries.values()]
        assert nn_plan._UNSUPPORTED in entries
        serve_and_compare(stacked, serial, [2, 0, 1], labeled, rng)

    def test_round_plans_count_as_plans_when_dropped(self):
        make = FLEETS["momentum"]
        stacked = [make(seed) for seed in range(3)]
        serial = [make(seed) for seed in range(3)]
        rng = np.random.default_rng(5)
        for labeled in (True, False):
            serve_and_compare(stacked, serial, [0, 1, 2], labeled, rng)
        before = nn_plan.plan_cache_stats().get("invalidate", 0)
        nn_plan.clear_plans()
        # The predict-and-train and inference plans; the arena is no plan.
        assert nn_plan.plan_cache_stats()["invalidate"] - before == 2
