"""Tests for the stacked multi-model execution engine (``repro.nn.stacked``).

Every group stacks in an arena (``stacked_arena``): ``load`` copies the
members into its rows, ``stacked_fit`` or the stack itself runs, and
``store`` copies a trained step back.  The load-bearing property is the
equivalence contract: every stacked operation — forward, loss, backward,
optimizer step, dropout mask draws — is bitwise-identical per model
slice to running that model alone.  The tests here assert it with
``np.array_equal`` (no tolerances), alongside the rejection paths
(heterogeneous architectures, mixed dtypes, unsupported layers,
mismatched optimizers) that push callers back onto the serial path.
"""

import numpy as np
import pytest

from repro import nn
from repro.models.base import NeuralStreamingModel
from repro.models.logistic import StreamingLR
from repro.models.mlp import StreamingMLP
from repro.nn import functional as F
from repro.nn import plan as nn_plan
from repro.nn.stacked import ModelStack, stacked_arena
from repro.perf.config import optimizations_disabled

NUM_FEATURES = 6
NUM_CLASSES = 3


@pytest.fixture(autouse=True)
def empty_plan_cache():
    """Start every test without arenas or plans."""
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
            nn.Dropout(0.5, rng=np.random.default_rng(self.seed + 1000)),
            nn.Linear(8, self.num_classes, rng=rng),
        )


def make_lr(seed, **kwargs):
    return StreamingLR(NUM_FEATURES, NUM_CLASSES, seed=seed, **kwargs)


def make_mlp(seed, **kwargs):
    return StreamingMLP(NUM_FEATURES, NUM_CLASSES, hidden=(8,), seed=seed,
                        **kwargs)


def make_batch(seed, rows=12):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(rows, NUM_FEATURES))
    y = rng.integers(0, NUM_CLASSES, size=rows)
    return x, y


def serial_step(model, x, y):
    """One per-model training step, mirroring ``partial_fit``'s loop."""
    optimizer = model.optimizer
    optimizer.zero_grad()
    loss = F.cross_entropy(model.module(nn.Tensor(x)), y)
    loss.backward()
    optimizer.step()
    return float(loss.data)


def serial_proba(model, x):
    module = model.module
    module.eval()
    with nn.no_grad():
        logits = module(nn.Tensor(np.asarray(x, dtype=float)))
    module.train()
    data = logits.data
    shifted = data - data.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.exp(shifted - log_norm)


def loaded_arena(models, train=True):
    """The models' arena with the models copied into its rows."""
    arena = stacked_arena(models)
    arena.load(models, train=train)
    return arena


def stacked_round(models, xs, ys):
    """One training round in the models' arena: load, fit, store."""
    arena = loaded_arena(models)
    losses = nn.stacked_fit(arena.stack, arena.optimizer, xs, ys)
    arena.store(models)
    return losses


def params_of(model):
    return [parameter.data.copy() for parameter in model.module.parameters()]


def assert_params_equal(model, expected):
    for parameter, saved in zip(model.module.parameters(), expected):
        np.testing.assert_array_equal(parameter.data, saved)


def assert_state_equal(optimizer, expected):
    """Same optimizer state, entry for entry and byte for byte."""
    mine, theirs = optimizer.state_dict(), expected.state_dict()
    assert mine.keys() == theirs.keys()
    for key, value in theirs.items():
        assert mine[key].tobytes() == value.tobytes(), key


class TestRoundTrip:
    def test_stack_unstack_is_bitwise_faithful(self):
        models = [make_mlp(seed) for seed in range(3)]
        before = [params_of(model) for model in models]
        arena = loaded_arena(models)
        assert arena.stack.num_models == 3
        for row, saved in enumerate(before):
            for stacked, values in zip(arena.stack.stacked_params, saved):
                assert stacked.data[row].tobytes() == values.tobytes()
        arena.store(models)
        for model, saved in zip(models, before):
            assert_params_equal(model, saved)

    @pytest.mark.parametrize("factory", [make_lr, make_mlp])
    def test_round_trip_after_k_training_steps(self, factory):
        num_models, steps = 4, 5
        serial = [factory(seed, lr=0.05, momentum=0.9)
                  for seed in range(num_models)]
        stacked = [factory(seed, lr=0.05, momentum=0.9)
                   for seed in range(num_models)]
        arena = loaded_arena(stacked)
        for step in range(steps):
            batches = [make_batch(step * num_models + index)
                       for index in range(num_models)]
            for model, (x, y) in zip(serial, batches):
                serial_step(model, x, y)
            nn.stacked_fit(arena.stack, arena.optimizer,
                           np.stack([x for x, _y in batches]),
                           np.stack([y for _x, y in batches]))
        arena.store(stacked)
        for stacked_model, serial_model in zip(stacked, serial):
            assert_params_equal(stacked_model, params_of(serial_model))
            assert_state_equal(stacked_model.optimizer,
                               serial_model.optimizer)

    def test_predictions_match_serial_bitwise(self):
        models = [make_mlp(seed) for seed in range(3)]
        xs = np.stack([make_batch(seed)[0] for seed in range(3)])
        stacked_proba = loaded_arena(models, train=False).stack.predict_proba(
            xs)
        for index, model in enumerate(models):
            np.testing.assert_array_equal(
                stacked_proba[index], serial_proba(model, xs[index]))

    def test_equivalence_holds_with_optimizations_disabled(self):
        serial = make_lr(7, lr=0.1)
        stacked = make_lr(7, lr=0.1)
        x, y = make_batch(7)
        with optimizations_disabled():
            serial_step(serial, x, y)
            stacked_round([stacked], x[None], y[None])
        assert_params_equal(stacked, params_of(serial))


class TestDegenerateAndRejection:
    def test_single_model_stack_matches_serial(self):
        serial = make_mlp(11)
        stacked = make_mlp(11)
        x, y = make_batch(11)
        loss = serial_step(serial, x, y)
        losses = stacked_round([stacked], x[None], y[None])
        assert losses.shape == (1,)
        assert losses[0] == loss
        assert_params_equal(stacked, params_of(serial))

    def test_empty_model_list_rejected(self):
        with pytest.raises(nn.StackedModelError, match="cannot stack"):
            stacked_arena([])

    @staticmethod
    def assert_load_refuses(models):
        arena = stacked_arena(models)
        before = [params_of(model) for model in models]
        for train in (False, True):
            with pytest.raises(nn.StackedModelError, match="stacking group"):
                arena.load(models, train=train)
        for model, saved in zip(models, before):
            assert_params_equal(model, saved)

    def test_mixed_dtypes_rejected_with_clear_error(self):
        low_precision = make_lr(1)
        for parameter in low_precision.module.parameters():
            parameter.data = parameter.data.astype(np.float32)
        self.assert_load_refuses([make_lr(0), low_precision])

    def test_heterogeneous_architectures_rejected(self):
        narrow = StreamingMLP(NUM_FEATURES, NUM_CLASSES, hidden=(4,), seed=1)
        self.assert_load_refuses([make_mlp(0), narrow])
        self.assert_load_refuses([make_lr(0), make_mlp(1)])

    def test_unsupported_layers_rejected(self):
        # Plans replay conv layers, so architecture_key keys them; the
        # stack is what refuses them.
        conv = nn.Sequential(
            nn.Conv2d(1, 2, 3, rng=np.random.default_rng(0)))
        with pytest.raises(nn.StackedModelError, match="Conv2d"):
            ModelStack(conv, 2)

    def test_mismatched_optimizer_hyperparameters_rejected(self):
        self.assert_load_refuses([make_lr(0, lr=0.1), make_lr(1, lr=0.2)])

    def test_mixed_optimizer_types_rejected(self):
        adam = make_lr(1, lr=0.1)
        adam.optimizer = nn.Adam(adam.module.parameters(), lr=0.1)
        self.assert_load_refuses([make_lr(0, lr=0.1), adam])

    def test_adam_step_count_mismatch_rejected(self):
        models = [AdamMLP(NUM_FEATURES, NUM_CLASSES, hidden=(8,), seed=seed)
                  for seed in range(2)]
        x, y = make_batch(0)
        serial_step(models[0], x, y)  # desyncs step counts
        arena = stacked_arena(models)
        arena.load(models, train=False)  # inference needs no shared count
        with pytest.raises(nn.StackedModelError, match="step counts"):
            arena.load(models, train=True)


class TestDropoutUnderStacking:
    def test_masks_consume_each_models_own_rng_stream(self):
        # Train serially and stacked from identical initial states: the
        # dropout masks must come from each model's own generator in the
        # serial draw order, so parameters stay bitwise-equal throughout —
        # and a *serial* step after the round still matches, proving the
        # streams advanced identically.
        num_models = 3
        serial = [DropoutMLP(NUM_FEATURES, NUM_CLASSES, seed=seed)
                  for seed in range(num_models)]
        stacked = [DropoutMLP(NUM_FEATURES, NUM_CLASSES, seed=seed)
                   for seed in range(num_models)]
        batches = [make_batch(seed) for seed in range(num_models)]
        for model, (x, y) in zip(serial, batches):
            serial_step(model, x, y)
        stacked_round(stacked, np.stack([x for x, _y in batches]),
                      np.stack([y for _x, y in batches]))
        for stacked_model, serial_model in zip(stacked, serial):
            assert_params_equal(stacked_model, params_of(serial_model))
        follow_up = make_batch(99)
        for model in serial + stacked:
            serial_step(model, *follow_up)
        for stacked_model, serial_model in zip(stacked, serial):
            assert_params_equal(stacked_model, params_of(serial_model))


class TestStackedOptimizerState:
    def test_momentum_imports_and_exports_mid_training(self):
        num_models = 3
        serial = [make_lr(seed, lr=0.05, momentum=0.9)
                  for seed in range(num_models)]
        stacked = [make_lr(seed, lr=0.05, momentum=0.9)
                   for seed in range(num_models)]
        warmup = [make_batch(seed) for seed in range(num_models)]
        for fleet in (serial, stacked):
            for model, (x, y) in zip(fleet, warmup):
                serial_step(model, x, y)  # accumulate velocity
        batches = [make_batch(50 + seed) for seed in range(num_models)]
        for model, (x, y) in zip(serial, batches):
            serial_step(model, x, y)
        stacked_round(stacked, np.stack([x for x, _y in batches]),
                      np.stack([y for _x, y in batches]))
        for stacked_model, serial_model in zip(stacked, serial):
            assert_params_equal(stacked_model, params_of(serial_model))
            assert_state_equal(stacked_model.optimizer,
                               serial_model.optimizer)

    def test_adam_moments_round_trip(self):
        num_models = 2
        serial = [AdamMLP(NUM_FEATURES, NUM_CLASSES, hidden=(8,), seed=seed)
                  for seed in range(num_models)]
        stacked = [AdamMLP(NUM_FEATURES, NUM_CLASSES, hidden=(8,), seed=seed)
                   for seed in range(num_models)]
        for step in range(3):
            batches = [make_batch(step * num_models + seed)
                       for seed in range(num_models)]
            for model, (x, y) in zip(serial, batches):
                serial_step(model, x, y)
            stacked_round(stacked, np.stack([x for x, _y in batches]),
                          np.stack([y for _x, y in batches]))
        for stacked_model, serial_model in zip(stacked, serial):
            assert_params_equal(stacked_model, params_of(serial_model))
            assert_state_equal(stacked_model.optimizer,
                               serial_model.optimizer)


class TestStackedCrossEntropy:
    def test_losses_match_serial_bitwise(self):
        models = [make_lr(seed) for seed in range(3)]
        batches = [make_batch(seed) for seed in range(3)]
        serial_losses = [
            float(F.cross_entropy(model.module(nn.Tensor(x)), y).data)
            for model, (x, y) in zip(models, batches)]
        stack = loaded_arena(models, train=False).stack
        logits = stack(nn.Tensor(np.stack([x for x, _y in batches])))
        losses = nn.stacked_cross_entropy(
            logits, np.stack([y for _x, y in batches]))
        np.testing.assert_array_equal(losses.data, serial_losses)

    def test_shape_and_label_validation(self):
        stack = loaded_arena([make_lr(0), make_lr(1)], train=False).stack
        x = np.stack([make_batch(0)[0], make_batch(1)[0]])
        logits = stack(nn.Tensor(x))
        with pytest.raises(nn.StackedModelError, match="models, batch"):
            nn.stacked_cross_entropy(nn.Tensor(np.zeros((4, 2))), [0, 1])
        with pytest.raises(ValueError, match="labels"):
            nn.stacked_cross_entropy(logits, np.zeros((2, 3), dtype=int))
        bad = np.full((2, 12), NUM_CLASSES, dtype=int)
        with pytest.raises(ValueError, match="lie in"):
            nn.stacked_cross_entropy(logits, bad)
