"""Tests for the hot-path performance layer (``repro.perf``).

The contract of every fast path in the hot-path pass is *bitwise*
equivalence with the general op it stands for.  No flag switches those
general ops back on, so these tests call them directly, in the same
process — first per op (fused linear, fused loss, inference softmax,
in-place optimizers), then end to end through ``Learner.process`` under
:func:`conftest.reference_ops`.
"""

import numpy as np
import pytest
from conftest import reference_ops
from reference_kernels import ref_adam_step, ref_sgd_step

import repro.perf
from repro import nn
from repro.core import Learner
from repro.data.drift import (GaussianMixtureConcept, Segment,
                              stream_from_schedule)
from repro.eval import model_factory_for
from repro.nn import functional as F
from repro.nn import kernels
from repro.perf import PerfConfig, config, configure, optimizations_disabled


# -- the plan-capture switch --------------------------------------------------


class TestPerfConfig:
    def test_all_flags_on_by_default(self):
        assert config.as_dict() == {"plan_capture": True}

    def test_configure_restores_on_exit(self):
        before = config.as_dict()
        with configure(plan_capture=False):
            assert not config.plan_capture
        assert config.as_dict() == before

    def test_configure_rejects_unknown_flag(self):
        with pytest.raises(TypeError, match="unknown perf flags"):
            with configure(warp_drive=True):
                pass  # pragma: no cover

    @pytest.mark.parametrize("name", [
        "graph_tape", "fused_linear", "fused_loss", "grad_ownership",
        "inplace_optim", "cached_nearest", "stacked_exec"])
    def test_deleted_flags_are_rejected(self, name):
        with pytest.raises(TypeError, match="unknown perf flags"):
            with configure(**{name: False}):
                pass  # pragma: no cover
        assert not hasattr(repro.perf, "optimizations_enabled")

    def test_disabled_and_enabled_contexts(self):
        with optimizations_disabled():
            assert not config.plan_capture
            with configure(plan_capture=True):
                assert config.plan_capture
            assert not config.plan_capture
        assert config.plan_capture

    def test_fresh_instance_can_start_disabled(self):
        assert not any(PerfConfig(enabled=False).as_dict().values())

    def test_serve_config_alone_selects_stacked_execution(self):
        from repro.models import StreamingLR
        from repro.serving import (MemoryCheckpointStore, ModelEstimator,
                                   ServeConfig, SessionRegistry,
                                   serve_requests)

        def factory(_tenant=""):
            return ModelEstimator(StreamingLR(num_features=4, num_classes=3,
                                              seed=3))

        x = np.full((16, 4), 0.5)
        for stacked in (False, True):
            registry = SessionRegistry(factory, capacity=8,
                                       store=MemoryCheckpointStore())
            config = ServeConfig(max_active_tenants=8, microbatch_size=16,
                                 stacked_execution=stacked)
            with optimizations_disabled():
                results, service = serve_requests(
                    config, registry, [("a", x), ("b", x)], window=2)
            assert all(result.accepted for result in results)
            assert service.batches_stacked == (2 if stacked else 0)


# -- each fast op against its general op ---------------------------------------


def _fused_forward(model, x):
    return model(x)


def _unfused_forward(model, x):
    """``Sequential``'s layers one by one, each Linear as ``F.linear``."""
    for layer in model.layers:
        if type(layer) is nn.Linear:
            x = F.linear(x, layer.weight, layer.bias)
        else:
            x = layer(x)
    return x


def _grads(model, x, y, forward=_fused_forward):
    """Forward + backward one batch; returns (loss_bits, grad arrays)."""
    for p in model.parameters():
        p.grad = None
    loss = F.cross_entropy(forward(model, nn.Tensor(x)), y)
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
    def test_fused_linear_matches_unfused(self):
        x, y = _small_problem(seed=5)
        model = _mlp()
        loss_f, grads_f = _grads(model, x, y)
        loss_u, grads_u = _grads(model, x, y, forward=_unfused_forward)
        assert loss_f == loss_u
        for a, b in zip(grads_f, grads_u):
            assert a.tobytes() == b.tobytes()

    def test_fused_loss_matches_chain(self):
        rng = np.random.default_rng(11)
        logits_data = rng.normal(scale=4.0, size=(64, 5))
        labels = rng.integers(0, 5, size=64)
        results = []
        for loss_fn in (F.cross_entropy, lambda logits, labels: F.nll_loss(
                F.log_softmax(logits, axis=-1), labels)):
            logits = nn.Tensor(logits_data.copy(), requires_grad=True)
            loss = loss_fn(logits, labels)
            loss.backward()
            results.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert results[0] == results[1]

    def test_inference_softmax_matches_graph_path(self):
        rng = np.random.default_rng(13)
        logits = nn.Tensor(rng.normal(scale=6.0, size=(40, 7)))
        fast = F.softmax(logits).data
        slow = F.log_softmax(logits).exp().data
        assert fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_inplace_optimizer_matches_reference(self, optimizer,
                                                 monkeypatch):
        x, y = _small_problem(seed=7)

        def train():
            model = _mlp()
            if optimizer == "sgd":
                opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
            else:
                opt = nn.Adam(model.parameters(), lr=0.01)
            for _ in range(5):
                opt.zero_grad()
                loss = F.cross_entropy(model(nn.Tensor(x)), y)
                loss.backward()
                opt.step()
            return [p.data.tobytes() for p in model.parameters()]

        fast = train()
        monkeypatch.setattr(kernels, "sgd_step", ref_sgd_step)
        monkeypatch.setattr(kernels, "adam_step", ref_adam_step)
        assert fast == train()


# -- end-to-end equivalence through the learner -------------------------------


def _probe_stream(num_batches=12, batch_size=64):
    rng = np.random.default_rng(7)
    concepts = {"c0": GaussianMixtureConcept(4, 16, rng, spread=3.0)}
    segments = [Segment("c0", num_batches, kind="directional",
                        magnitude=0.05)]
    return list(stream_from_schedule(concepts, segments, batch_size, rng,
                                     num_classes=4))


class TestLearnerEquivalence:
    @pytest.mark.parametrize("kind", ["lr", "mlp", "cnn"])
    def test_accuracy_sequence_and_params_bitwise_identical(self, kind):
        stream = _probe_stream()

        def run():
            factory = model_factory_for(kind, 16, 4, lr=0.3, seed=0)
            learner = Learner(factory, seed=0)
            accs = [learner.process(batch).accuracy for batch in stream]
            params = [np.asarray(value).tobytes()
                      for level in learner.ensemble.levels
                      for value in level.model.state_dict().values()]
            return accs, params

        accs_fast, params_fast = run()
        with reference_ops():
            accs_ref, params_ref = run()
        assert accs_fast == accs_ref
        assert params_fast == params_ref
