"""Every checkpoint path round-trips a model's full training state.

A model's training state is what one training step mutates: its
parameters, its optimizer's state (SGD velocity, Adam moments and step
count), its Dropout generators and its ``updates`` count
(``repro.nn.serialization.training_state``).  Every checkpoint — a
``save_learner`` file, a tenant in either serving checkpoint store, a
``ModelEstimator`` — carries all of it, so a restored model continues
byte for byte as the original does.  These tests run each path over the
momentum, Adam and Dropout fleets of ``tests/test_stacked_arenas.py``.
"""

import re

import numpy as np
import pytest
from test_stacked_arenas import FLEETS, NUM_CLASSES, NUM_FEATURES

from repro import nn
from repro.core import KnowledgeStore, Learner, load_learner, save_learner
from repro.core.persistence import learner_state, restore_learner_state
from repro.data.stream import Batch
from repro.nn.serialization import (
    generator_state,
    load_generator_state,
    load_training_state,
    read_checkpoint,
    training_state,
    write_checkpoint,
)
from repro.serving import (
    DirCheckpointStore,
    MemoryCheckpointStore,
    ModelEstimator,
    SessionRegistry,
    predict_and_update,
)

ROWS = 16
KINDS = sorted(FLEETS)


def requests(count, seed=0):
    """Labeled ``(x, y)`` requests from a drifting linear concept."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(NUM_FEATURES, NUM_CLASSES))
    out = []
    for index in range(count):
        if index == count // 2:
            weights = rng.normal(size=(NUM_FEATURES, NUM_CLASSES))
        x = rng.normal(size=(ROWS, NUM_FEATURES))
        out.append((x, (x @ weights).argmax(axis=1)))
    return out


def make_learner(kind):
    return Learner(lambda: FLEETS[kind](0), window_batches=2, seed=0)


def level_bytes(learner):
    """Every level's parameter bytes, by level and parameter name."""
    return [{name: value.tobytes()
             for name, value in level.model.state_dict().items()}
            for level in learner.ensemble.levels]


def state_bytes(state):
    return {name: np.asarray(value).tobytes() for name, value in state.items()}


class TestEncoding:
    @pytest.mark.parametrize("kind", KINDS)
    def test_loaded_model_continues_bitwise(self, kind):
        batches = requests(12, seed=1)
        original = FLEETS[kind](3)
        for x, y in batches[:6]:
            original.partial_fit(x, y)
        restored = FLEETS[kind](4)  # other initial weights and generator
        load_training_state(restored, training_state(original))
        assert state_bytes(training_state(restored)) == state_bytes(
            training_state(original))
        for x, y in batches[6:]:
            assert original.partial_fit(x, y) == restored.partial_fit(x, y)
            assert state_bytes(training_state(restored)) == state_bytes(
                training_state(original))

    def test_entries(self):
        model = FLEETS["dropout"](0)
        adam = FLEETS["adam"](0)
        for x, y in requests(2):
            model.partial_fit(x, y)
            adam.partial_fit(x, y)
        state = training_state(model)
        parameters = set(model.state_dict())
        assert set(state) - parameters == {
            "__opt__.velocity.0", "__opt__.velocity.1",
            "__opt__.velocity.2", "__opt__.velocity.3",
            "__rng__.0", "__meta__.updates"}
        assert state["__rng__.0"].dtype == np.uint8
        assert int(state["__meta__.updates"]) == 2
        extra = set(training_state(adam)) - set(adam.state_dict())
        assert "__meta__.step_count" in extra
        assert {key.split(".")[1] for key in extra
                if key.startswith("__opt__.")} == {"m", "v"}

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.MT19937, np.random.Philox,
        np.random.SFC64])
    def test_generator_state_round_trips(self, bit_generator):
        rng = np.random.Generator(bit_generator(3))
        rng.random(5)
        other = np.random.Generator(bit_generator(9))
        load_generator_state(other, generator_state(rng))
        assert other.random(3).tobytes() == rng.random(3).tobytes()

    def test_reading_leaves_the_state_where_it_is(self):
        model = FLEETS["momentum"](0)
        for x, y in requests(2):
            model.partial_fit(x, y)
        flat = model.optimizer._flat
        velocity = flat.extra["velocity"]
        training_state(model)
        assert model.optimizer._flat is flat
        assert flat.extra["velocity"] is velocity

    def test_state_after_a_shape_changing_restore_loads_back(self):
        """The state of a parameter whose shape changed restarts at the
        next step, so it is not part of the state, which stays loadable."""
        first, second = nn.Parameter(np.ones(4)), nn.Parameter(np.ones(2))
        optimizer = nn.SGD([first, second], lr=0.1, momentum=0.9)
        first.grad, second.grad = np.ones(4), np.ones(2)
        optimizer.step()
        first.data = np.zeros(6)  # the layer was rebuilt wider
        state = optimizer.state_dict()
        assert list(state) == ["velocity.1"]
        optimizer.load_state_dict(state)
        assert optimizer.state_dict()["velocity.1"].tobytes() == \
            state["velocity.1"].tobytes()

    def test_parameters_only_state_leaves_a_fresh_optimizer(self):
        trained, fresh = FLEETS["adam"](0), FLEETS["adam"](0)
        for x, y in requests(3):
            trained.partial_fit(x, y)
        load_training_state(trained, fresh.state_dict())
        assert state_bytes(trained.optimizer.state_dict()) == state_bytes(
            fresh.optimizer.state_dict())

    def test_state_an_optimizer_does_not_keep_raises(self):
        model, other = FLEETS["momentum"](0), FLEETS["momentum"](1)
        state = training_state(other)
        state["__opt__.m.0"] = np.zeros(1)
        before = state_bytes(training_state(model))
        with pytest.raises(ValueError, match="keeps no state"):
            load_training_state(model, state)
        assert state_bytes(training_state(model)) == before


def _malform(state, case, prefix=""):
    """Break ``state``'s momentum entries as ``case`` says; return the
    optimizer key the load must name."""
    velocity = state[prefix + "velocity.0"]
    if case == "truncated":
        state[prefix + "velocity.0"] = velocity[:-1]
        return "velocity.0"
    state[prefix + "velocity.9"] = velocity  # past the 4 parameters
    return "velocity.9"


class TestRejectedOptimizerState:
    """An optimizer checks every entry of a state before writing any, and
    a training state's parameters are checked before the optimizer's."""

    @pytest.mark.parametrize("case", ["truncated", "index"])
    def test_optimizer_raises_naming_the_key(self, case):
        model = FLEETS["momentum"](0)
        for x, y in requests(2):
            model.partial_fit(x, y)
        state = model.optimizer.state_dict()
        key = _malform(state, case)
        before = state_bytes(training_state(model))
        with pytest.raises(ValueError, match=repr(key)):
            model.optimizer.load_state_dict(state)
        assert state_bytes(training_state(model)) == before

    @pytest.mark.parametrize("case", ["truncated", "index"])
    def test_load_training_state_leaves_the_model_untouched(self, case):
        model, other = FLEETS["momentum"](0), FLEETS["momentum"](1)
        for x, y in requests(2):
            model.partial_fit(x, y)
            other.partial_fit(x, y)
        state = training_state(other)
        key = _malform(state, case, prefix="__opt__.")
        before = state_bytes(training_state(model))
        with pytest.raises(ValueError, match=repr(key)):
            load_training_state(model, state)
        assert state_bytes(training_state(model)) == before

    @pytest.mark.parametrize("case", ["short", "missing"])
    def test_a_bad_parameter_leaves_the_optimizer_untouched(self, case):
        model, other = FLEETS["momentum"](0), FLEETS["momentum"](1)
        for x, y in requests(2):
            model.partial_fit(x, y)
            other.partial_fit(x, y)
        state = training_state(other)
        if case == "short":
            state["layer0.weight"] = state["layer0.weight"][:-1]
        else:
            del state["layer0.weight"]
        before = state_bytes(training_state(model))
        with pytest.raises((ValueError, KeyError), match="layer0.weight"):
            load_training_state(model, state)
        assert state_bytes(training_state(model)) == before

    @pytest.mark.parametrize("case", ["keys missing", "another generator",
                                      "undecodable", "float updates",
                                      "updates array"])
    def test_a_bad_generator_or_updates_entry_leaves_the_model_untouched(
            self, case):
        model, other = FLEETS["dropout"](0), FLEETS["dropout"](1)
        for x, y in requests(2):
            model.partial_fit(x, y)
            other.partial_fit(x, y)
        state = training_state(other)
        key = "__rng__.0"
        if case == "keys missing":
            state[key] = np.frombuffer(b'{"bit_generator": "PCG64"}',
                                       dtype=np.uint8)
        elif case == "another generator":
            state[key] = generator_state(
                np.random.Generator(np.random.MT19937(0)))
        elif case == "undecodable":
            state[key] = np.frombuffer(b"\xff\xfe{", dtype=np.uint8)
        else:
            key = "__meta__.updates"
            state[key] = (np.array(2.5) if case == "float updates"
                          else np.array([2, 3]))
        before = state_bytes(training_state(model))
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            load_training_state(model, state)
        assert state_bytes(training_state(model)) == before

    @pytest.mark.parametrize("entries", [
        {"step_count": np.array(99), "bogus.0": np.zeros(1)},
        {"step_count": np.array(-1)},
        {"step_count": np.array([3, 4])},
    ])
    def test_adam_keeps_its_step_count(self, entries):
        model = FLEETS["adam"](0)
        for x, y in requests(3):
            model.partial_fit(x, y)
        before = state_bytes(model.optimizer.state_dict())
        with pytest.raises(ValueError):
            model.optimizer.load_state_dict(
                {**model.optimizer.state_dict(), **entries})
        assert state_bytes(model.optimizer.state_dict()) == before


class TestSaveLoadLearner:
    @pytest.mark.parametrize("kind", KINDS)
    def test_restored_learner_trains_identically(self, kind, tmp_path):
        batches = [Batch(x, y, index=index)
                   for index, (x, y) in enumerate(requests(30))]
        original = make_learner(kind)
        for batch in batches[:15]:
            original.process(batch)
        path = tmp_path / "learner.npz"
        save_learner(original, path)
        restored = load_learner(make_learner(kind), path)
        assert level_bytes(restored) == level_bytes(original)
        for batch in batches[15:]:
            expected = original.process(batch)
            got = restored.process(batch)
            assert got.accuracy == expected.accuracy, batch.index
            assert level_bytes(restored) == level_bytes(original), batch.index

    def test_checkpoint_without_training_entries_loads_fresh(self, tmp_path):
        """A learner file from before training states were stored holds
        each level's parameters only: it still loads, and the optimizers
        start fresh."""
        original = make_learner("adam")
        for index, (x, y) in enumerate(requests(6)):
            original.process(Batch(x, y, index=index))
        path = tmp_path / "old.npz"
        save_learner(original, path)
        arrays, meta = read_checkpoint(path)
        old = {name: value for name, value in arrays.items()
               if not (name.startswith("level")
                       and name.split("/", 1)[1].startswith(
                           ("__opt__.", "__meta__.", "__rng__.")))}
        assert len(old) < len(arrays)
        write_checkpoint(path, old, meta)
        restored = load_learner(make_learner("adam"), path)
        fresh = FLEETS["adam"](0).optimizer.state_dict()
        assert level_bytes(restored) == level_bytes(original)
        for level in restored.ensemble.levels:
            assert state_bytes(level.model.optimizer.state_dict()) == \
                state_bytes(fresh)
            assert level.model.updates == 0


def serve_evicted(make_estimator, store, batches):
    """Serve tenant ``a`` from a capacity-1 registry that evicts it before
    every request (tenant ``b`` takes its place in between); returns its
    labels per request and the registry."""
    registry = SessionRegistry(lambda _tenant: make_estimator(),
                               capacity=1, store=store)
    served = []
    for x, y in batches:
        with registry.session("a") as estimator:
            served.append(predict_and_update(estimator, x, y))
        with registry.session("b") as estimator:
            predict_and_update(estimator, x, y)
    return served, registry


STORES = {
    "memory": lambda _path: MemoryCheckpointStore(),
    "dir": lambda path: DirCheckpointStore(path / "tenants"),
}
TENANTS = {
    "learner": make_learner,
    "model": lambda kind: ModelEstimator(FLEETS[kind](0)),
}


class TestRegistryRehydration:
    @pytest.mark.parametrize("store", sorted(STORES))
    @pytest.mark.parametrize("tenant", sorted(TENANTS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_evicted_tenant_serves_like_a_resident_one(self, kind, tenant,
                                                       store, tmp_path):
        batches = requests(30, seed=2)
        make = TENANTS[tenant]
        served, registry = serve_evicted(lambda: make(kind),
                                         STORES[store](tmp_path), batches)
        assert registry.stats()["rehydrations"] == 2 * len(batches) - 2
        resident = make(kind)
        differ = [index for index, (x, y) in enumerate(batches)
                  if predict_and_update(resident, x, y).tobytes()
                  != served[index].tobytes()]
        assert differ == []


class TestParentEraFiles:
    @pytest.mark.parametrize("kind", ["momentum", "adam"])
    def test_model_estimator_file_without_generators_loads(self, kind,
                                                           tmp_path):
        """``ModelEstimator`` files kept their key names: one written
        before generator states were stored still restores the optimizer
        and the update count."""
        batches = requests(8)
        original = ModelEstimator(FLEETS[kind](0))
        for x, y in batches[:4]:
            original.update(x, y)
        state = original.state_dict()
        assert not any(key.startswith("__rng__.") for key in state)
        path = tmp_path / "tenant.npz"
        write_checkpoint(path, state, None)
        restored = ModelEstimator(FLEETS[kind](0))
        restored.load_state_dict(read_checkpoint(path)[0])
        assert restored.model.updates == 4
        for x, y in batches[4:]:
            original.update(x, y)
            restored.update(x, y)
        assert state_bytes(restored.state_dict()) == state_bytes(
            original.state_dict())

    def test_spill_file_in_the_old_layout_is_rejected(self, tmp_path):
        path = tmp_path / "knowledge-00000000-long-000000.npz"
        np.savez(path, **{"param/weight": np.zeros((2, 3)),
                          "meta/embedding": np.zeros(2),
                          "meta/model_kind": np.asarray("long"),
                          "meta/disorder": np.asarray(0.5),
                          "meta/batch_index": np.asarray(0),
                          "meta/created_at": np.asarray(1.0)})
        with pytest.raises(ValueError, match="not a knowledge spill file"):
            KnowledgeStore.load_spilled(path)

    def test_other_checkpoints_are_not_spill_files(self, tmp_path):
        path = tmp_path / "tenant.npz"
        write_checkpoint(path, nn.Linear(3, 2).state_dict(), None)
        with pytest.raises(ValueError, match="not a knowledge spill file"):
            KnowledgeStore.load_spilled(path)


@pytest.mark.parametrize("kind", KINDS)
def test_worker_checkpoint_restores_a_stale_replica(kind):
    """The process backend's recovery path: the coordinator's copy of a
    replica is brought to a live learner's state with its
    ``learner_state`` alone — once per restart, so a second restore lands
    on a learner restored before — and then trains identically."""
    batches = [Batch(x, y, index=index)
               for index, (x, y) in enumerate(requests(30, seed=3))]
    live, replica = make_learner(kind), make_learner(kind)
    for batch in batches[:8]:
        live.process(batch)
    restore_learner_state(replica, *learner_state(live))
    for batch in batches[8:16]:
        live.process(batch)
    restore_learner_state(replica, *learner_state(live))
    assert (replica.classifier.history.as_array().tobytes()
            == live.classifier.history.as_array().tobytes())
    for batch in batches[16:]:
        assert replica.process(batch).accuracy == live.process(batch).accuracy
        assert level_bytes(replica) == level_bytes(live)
