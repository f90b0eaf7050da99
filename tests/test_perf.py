"""Tests for the hot-path performance layer (``repro.perf``).

The contract of every optimization introduced by the perf pass is
*bitwise* equivalence: with a flag on or off, the same stream must
produce the same accuracy sequence and the same final parameters, down
to the last float bit.  These tests hold that line — first per
optimization (tape vs DFS, fused linear, fused loss, in-place
optimizers), then end to end through ``Learner.process``.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import Learner
from repro.data.drift import (GaussianMixtureConcept, Segment,
                              stream_from_schedule)
from repro.eval import model_factory_for
from repro.nn import functional as F
from repro.obs import Observability
from repro.perf import (HOT_PATH_HISTOGRAM, HotPathProfiler, PerfConfig,
                        can_own, config, configure, optimizations_disabled,
                        optimizations_enabled)


# -- feature flags ------------------------------------------------------------


class TestPerfConfig:
    def test_all_flags_on_by_default(self):
        assert all(config.as_dict().values())

    def test_configure_restores_on_exit(self):
        before = config.as_dict()
        with configure(graph_tape=False, fused_loss=False):
            assert not config.graph_tape
            assert not config.fused_loss
            assert config.fused_linear  # untouched flags stay on
        assert config.as_dict() == before

    def test_configure_rejects_unknown_flag(self):
        with pytest.raises(TypeError, match="unknown perf flags"):
            with configure(warp_drive=True):
                pass  # pragma: no cover

    def test_disabled_and_enabled_contexts(self):
        with optimizations_disabled():
            assert not any(config.as_dict().values())
            with optimizations_enabled():
                assert all(config.as_dict().values())
            assert not any(config.as_dict().values())
        assert all(config.as_dict().values())

    def test_fresh_instance_can_start_disabled(self):
        assert not any(PerfConfig(enabled=False).as_dict().values())


# -- gradient-buffer ownership ----------------------------------------------


class TestCanOwn:
    def test_private_buffer_is_adoptable(self):
        g = np.zeros(3)
        assert can_own(np.ones(3), g)

    def test_views_and_self_are_not(self):
        g = np.zeros((2, 3))
        assert not can_own(g, g)          # a + a delivers the same array twice
        assert not can_own(g[0], np.zeros(3))  # view: base still exposed


# -- per-optimization bitwise equivalence -------------------------------------


def _grads(model, x, y):
    """Forward + backward one batch; returns (loss_bits, grad arrays)."""
    for p in model.parameters():
        p.grad = None
    out = model(nn.Tensor(x))
    loss = F.cross_entropy(out, y)
    loss.backward()
    return (loss.data.tobytes(),
            [p.grad.copy() for p in model.parameters()])


def _small_problem(seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(32, 6))
    y = rng.integers(0, 4, size=32)
    return x, y


def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(6, 8, rng=rng), nn.ReLU(),
                         nn.Linear(8, 4, rng=rng))


class TestBitwiseEquivalence:
    def test_tape_matches_dfs_backward(self):
        x, y = _small_problem()
        model = _mlp()
        with configure(graph_tape=True):
            loss_tape, grads_tape = _grads(model, x, y)
        with configure(graph_tape=False):
            loss_dfs, grads_dfs = _grads(model, x, y)
        assert loss_tape == loss_dfs
        for a, b in zip(grads_tape, grads_dfs):
            assert a.tobytes() == b.tobytes()

    def test_fused_linear_matches_unfused(self):
        x, y = _small_problem(seed=5)
        model = _mlp()
        with configure(fused_linear=True):
            loss_f, grads_f = _grads(model, x, y)
        with configure(fused_linear=False):
            loss_u, grads_u = _grads(model, x, y)
        assert loss_f == loss_u
        for a, b in zip(grads_f, grads_u):
            assert a.tobytes() == b.tobytes()

    def test_fused_loss_matches_chain(self):
        rng = np.random.default_rng(11)
        logits_data = rng.normal(scale=4.0, size=(64, 5))
        labels = rng.integers(0, 5, size=64)
        results = []
        for fused in (True, False):
            with configure(fused_loss=fused):
                logits = nn.Tensor(logits_data.copy(), requires_grad=True)
                loss = F.cross_entropy(logits, labels)
                loss.backward()
                results.append((loss.data.tobytes(),
                                logits.grad.tobytes()))
        assert results[0] == results[1]

    def test_inference_softmax_matches_graph_path(self):
        rng = np.random.default_rng(13)
        logits = nn.Tensor(rng.normal(scale=6.0, size=(40, 7)))
        with configure(fused_loss=True):
            fast = F.softmax(logits).data
        with configure(fused_loss=False):
            slow = F.softmax(logits).data
        assert fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_inplace_optimizer_matches_reference(self, optimizer):
        x, y = _small_problem(seed=7)

        def train(flag):
            model = _mlp()
            if optimizer == "sgd":
                opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
            else:
                opt = nn.Adam(model.parameters(), lr=0.01)
            with configure(inplace_optim=flag):
                for _ in range(5):
                    opt.zero_grad()
                    loss = F.cross_entropy(model(nn.Tensor(x)), y)
                    loss.backward()
                    opt.step()
            return [p.data.tobytes() for p in model.parameters()]

        assert train(True) == train(False)


# -- end-to-end equivalence through the learner -------------------------------


def _probe_stream(num_batches=12, batch_size=64):
    rng = np.random.default_rng(7)
    concepts = {"c0": GaussianMixtureConcept(4, 16, rng, spread=3.0)}
    segments = [Segment("c0", num_batches, kind="directional",
                        magnitude=0.05)]
    return list(stream_from_schedule(concepts, segments, batch_size, rng,
                                     num_classes=4))


class TestLearnerEquivalence:
    @pytest.mark.parametrize("kind", ["lr", "mlp"])
    def test_accuracy_sequence_and_params_bitwise_identical(self, kind):
        stream = _probe_stream()

        def run(optimized):
            factory = model_factory_for(kind, 16, 4, lr=0.3, seed=0)
            learner = Learner(factory, seed=0)
            accs = []
            if optimized:
                for batch in stream:
                    accs.append(learner.process(batch).accuracy)
            else:
                with optimizations_disabled():
                    for batch in stream:
                        accs.append(learner.process(batch).accuracy)
            params = [np.asarray(value).tobytes()
                      for level in learner.ensemble.levels
                      for value in level.model.state_dict().values()]
            return accs, params

        accs_on, params_on = run(True)
        accs_off, params_off = run(False)
        assert accs_on == accs_off
        assert params_on == params_off


# -- profiler -----------------------------------------------------------------


class TestHotPathProfiler:
    def test_stage_spans_aggregate(self):
        profiler = HotPathProfiler()
        for _ in range(3):
            with profiler.stage("train"):
                pass
        with profiler.stage("assess"):
            pass
        summary = profiler.summary()
        assert summary["train"]["count"] == 3
        assert summary["assess"]["count"] == 1
        for stats in summary.values():
            assert stats["total_s"] >= 0.0
            assert stats["max_s"] >= stats["p50_s"] >= 0.0

    def test_render_lists_stages_by_total(self):
        profiler = HotPathProfiler()
        profiler.record("train", 0.5)
        profiler.record("assess", 0.1)
        table = profiler.render()
        lines = table.splitlines()
        assert "stage" in lines[0]
        assert lines[1].startswith("train")
        assert lines[2].startswith("assess")

    def test_render_empty(self):
        assert "no samples" in HotPathProfiler().render()

    def test_reset_drops_samples(self):
        profiler = HotPathProfiler()
        profiler.record("train", 0.1)
        profiler.reset()
        assert profiler.summary() == {}

    def test_feeds_histogram_when_obs_enabled(self):
        obs = Observability()
        profiler = HotPathProfiler(obs=obs)
        profiler.record("train", 0.002)
        snapshot = obs.registry.snapshot()
        assert HOT_PATH_HISTOGRAM in snapshot
        series = snapshot[HOT_PATH_HISTOGRAM]["series"]
        assert any(entry["labels"].get("stage") == "train"
                   for entry in series)

    def test_learner_wires_all_stages(self):
        profiler = HotPathProfiler()
        factory = model_factory_for("lr", 16, 4, lr=0.3, seed=0)
        learner = Learner(factory, seed=0, profiler=profiler)
        for batch in _probe_stream(num_batches=6):
            learner.process(batch)
        summary = profiler.summary()
        for stage in ("assess", "select", "infer", "train", "experience"):
            assert stage in summary, f"stage {stage!r} never recorded"
            assert summary[stage]["count"] == 6

    def test_learner_without_profiler_records_nothing(self):
        factory = model_factory_for("lr", 16, 4, lr=0.3, seed=0)
        learner = Learner(factory, seed=0)
        assert learner.profiler is None
        learner.process(_probe_stream(num_batches=1)[0])
