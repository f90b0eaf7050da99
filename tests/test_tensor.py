"""Tests for the reverse-mode autograd engine (repro.nn.tensor)."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models import StreamingCNN, StreamingMLP
from repro.nn import Tensor, no_grad, ones, tensor, zeros
from repro.nn.stacked import _stacked_fit_steps, stacked_arena
from repro.perf import configure

from conftest import numeric_gradient


def small_arrays(min_dims=1, max_dims=2):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=min_dims, max_dims=max_dims,
                               min_side=1, max_side=5),
        elements=st.floats(-5.0, 5.0, allow_nan=False),
    )


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_int_data_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_factory_helpers(self):
        assert zeros(2, 3).shape == (2, 3)
        assert ones((4,)).data.sum() == 4.0
        assert tensor([1.0]).shape == (1,)

    def test_detach_shares_data(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_copy_is_deep(self):
        t = Tensor([1.0, 2.0])
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_item_requires_scalar(self):
        assert Tensor([3.5]).item() == 3.5
        with pytest.raises(Exception):
            Tensor([1.0, 2.0]).item()

    def test_len_and_repr(self):
        t = Tensor([[1.0], [2.0]], requires_grad=True)
        assert len(t) == 2
        assert "requires_grad" in repr(t)


class TestArithmeticGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_sub_backward(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).sum().backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0

    def test_mul_backward(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad[0] == 5.0
        assert b.grad[0] == 2.0

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).sum().backward()
        assert a.grad[0] == pytest.approx(1.0 / 3.0)
        assert b.grad[0] == pytest.approx(-6.0 / 9.0)

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).sum().backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_neg_backward(self):
        a = Tensor([1.5], requires_grad=True)
        (-a).sum().backward()
        assert a.grad[0] == -1.0

    def test_radd_rsub_rmul_rdiv_with_scalars(self):
        a = Tensor([2.0], requires_grad=True)
        out = (1.0 + a) + (3.0 - a) + (2.0 * a) + (4.0 / a)
        out.sum().backward()
        # d/da [1+a + 3-a + 2a + 4/a] = 0 + 2 - 4/a^2 = 2 - 1 = 1
        assert a.grad[0] == pytest.approx(1.0)

    def test_scalar_exponent_only(self):
        a = Tensor([2.0], requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0 + a * 3.0).sum().backward()
        assert a.grad[0] == pytest.approx(5.0)

    def test_diamond_graph_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3.0
        c = b + b  # b used twice
        c.sum().backward()
        assert a.grad[0] == pytest.approx(6.0)


class TestBroadcasting:
    def test_broadcast_add_reduces_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.ones((3, 5)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((3, 1), 5.0))

    def test_scalar_broadcast(self):
        a = Tensor(5.0, requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad == pytest.approx(4.0)

    @given(small_arrays())
    @settings(max_examples=25, deadline=None)
    def test_mul_gradcheck_property(self, data):
        a = Tensor(data.copy(), requires_grad=True)
        b_data = data.copy() + 1.5
        (a * Tensor(b_data)).sum().backward()
        np.testing.assert_allclose(a.grad, b_data, rtol=1e-9)


class TestMatmul:
    def test_matrix_matrix(self, rng):
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        out = (a @ Tensor(b_data)).sum()
        out.backward()
        numeric = numeric_gradient(
            lambda: (a_data @ b_data).sum(), a_data
        )
        np.testing.assert_allclose(a.grad, numeric, atol=1e-6)

    def test_vector_vector_dot(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a @ b).backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_vector_matrix(self, rng):
        v = Tensor(rng.normal(size=3), requires_grad=True)
        m = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        (v @ m).sum().backward()
        assert v.grad.shape == (3,)
        assert m.grad.shape == (3, 2)

    def test_matrix_vector(self, rng):
        m = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=3), requires_grad=True)
        (m @ v).sum().backward()
        assert m.grad.shape == (2, 3)
        assert v.grad.shape == (3,)

    def test_rmatmul(self, rng):
        a = rng.normal(size=(2, 3))
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = a @ b
        assert isinstance(out, Tensor)
        out.sum().backward()
        assert b.grad.shape == (3, 2)


class TestReductionsAndShapes:
    def test_sum_axis_backward(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.sum(axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_backward(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_mean_axis_tuple(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1.0 / 12))

    def test_max_backward_routes_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_ties_split_gradient(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])

    def test_max_axis(self):
        a = Tensor([[1.0, 9.0], [7.0, 2.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_reshape_roundtrip_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.T
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_transpose_axes(self):
        a = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        out = a.transpose(1, 0, 2)
        assert out.shape == (3, 2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_getitem_gradient_scatter(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[1:3].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_flatten_batch(self):
        a = Tensor(np.zeros((4, 2, 3)), requires_grad=True)
        assert a.flatten_batch().shape == (4, 6)


class TestElementwise:
    @pytest.mark.parametrize("name", ["exp", "log", "sqrt", "tanh",
                                      "sigmoid", "relu", "abs"])
    def test_gradcheck(self, name, rng):
        data = np.abs(rng.normal(size=8)) + 0.5  # positive, safe for log/sqrt
        if name in ("tanh", "sigmoid", "relu", "abs"):
            data = rng.normal(size=8) + 0.01  # avoid kink exactly at 0
        t = Tensor(data.copy(), requires_grad=True)
        getattr(t, name)().sum().backward()
        numeric = numeric_gradient(
            lambda: getattr(Tensor(data), name)().sum().item(), data
        )
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    def test_relu_zeroes_negatives(self):
        t = Tensor([-1.0, 2.0])
        np.testing.assert_allclose(t.relu().data, [0.0, 2.0])

    def test_clip_gradient_masks_outside(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor([-1000.0, 1000.0])
        out = t.sigmoid().data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestBackwardSemantics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(t.grad, [2.0, 20.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_on_exception(self):
        from repro.nn.tensor import is_grad_enabled
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_second_backward_accumulates(self):
        t = Tensor([1.0], requires_grad=True)
        out = t * 3.0
        out.sum().backward()
        out2 = t * 4.0
        out2.sum().backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_deep_chain_gradient(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(50):
            out = out * 1.01
        out.sum().backward()
        assert t.grad[0] == pytest.approx(1.01 ** 50, rel=1e-9)

    def test_comparisons_return_numpy_bool(self):
        a = Tensor([1.0, 3.0])
        assert (a > 2.0).tolist() == [False, True]
        assert (a <= 1.0).tolist() == [True, False]
        assert (a == 3.0).tolist() == [False, True]


def _cyclic_garbage(step) -> int:
    """What the cyclic collector finds after one ``step``, with collection
    off while it runs: objects only a reference cycle kept alive."""
    step()  # warm: first calls may build caches that live on
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        step()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestGraphsDieByReferenceCounting:
    """A finished define-by-run graph holds no reference cycle, so it is
    freed when its last reference goes, not at a later collection."""

    @pytest.mark.parametrize("make_model", [
        lambda: StreamingMLP(num_features=16, num_classes=4, seed=0),
        lambda: StreamingCNN((16,), 4, seed=0),
    ], ids=["mlp", "tabular-cnn"])
    def test_plans_off_partial_fit(self, make_model):
        model = make_model()
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(64, 16)), rng.integers(0, 4, 64)
        with configure(plan_capture=False):
            assert _cyclic_garbage(lambda: model.partial_fit(x, y)) == 0

    def test_stacked_fit_round(self):
        models = [StreamingMLP(num_features=6, num_classes=3, seed=s)
                  for s in range(3)]
        arena = stacked_arena(models)
        arena.load(models, train=True)
        rng = np.random.default_rng(2)
        xs, ys = rng.normal(size=(3, 8, 6)), rng.integers(0, 3, (3, 8))
        assert _cyclic_garbage(lambda: _stacked_fit_steps(
            arena.stack, arena.optimizer, xs, ys, 1)) == 0

    def test_gradient_on(self):
        model = StreamingMLP(num_features=6, num_classes=3, seed=0)
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(32, 6)), rng.integers(0, 3, 32)
        assert _cyclic_garbage(lambda: model.gradient_on(x, y)) == 0
