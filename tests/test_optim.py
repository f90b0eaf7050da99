"""Tests for optimizers (repro.nn.optim)."""

import numpy as np
import pytest
from conftest import reference_ops

from repro import nn
from repro.nn.optim import FOBOS, RDA, Adam, SGD, _soft_threshold


def quadratic_param(start=5.0):
    """A single scalar parameter for optimizing f(w) = w^2 / 2."""
    return nn.Parameter(np.array([start]))


def quad_grad(param):
    param.grad = param.data.copy()  # d/dw (w^2/2) = w


class TestSGD:
    def test_vanilla_step(self):
        p = quadratic_param(4.0)
        opt = SGD([p], lr=0.5)
        quad_grad(p)
        opt.step()
        assert p.data[0] == pytest.approx(2.0)

    def test_converges_on_quadratic(self):
        p = quadratic_param(10.0)
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quad_grad(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        plain = quadratic_param(10.0)
        heavy = quadratic_param(10.0)
        opt_plain = SGD([plain], lr=0.01)
        opt_heavy = SGD([heavy], lr=0.01, momentum=0.9)
        for _ in range(20):
            quad_grad(plain); opt_plain.step()
            quad_grad(heavy); opt_heavy.step()
        assert abs(heavy.data[0]) < abs(plain.data[0])

    def test_weight_decay_shrinks(self):
        p = nn.Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.9)

    def test_skips_parameters_without_grad(self):
        p = quadratic_param(1.0)
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad set
        assert p.data[0] == 1.0

    def test_zero_grad(self):
        p = quadratic_param()
        quad_grad(p)
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_validation(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction the first Adam step is ~lr regardless of
        # gradient scale.
        p = nn.Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1000.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_converges_on_quadratic(self):
        p = quadratic_param(10.0)
        opt = Adam([p], lr=0.5)
        for _ in range(200):
            quad_grad(p)
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay(self):
        p = nn.Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=-1.0)


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        values = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = _soft_threshold(values, 1.0)
        np.testing.assert_allclose(out, [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_zero_threshold_is_identity(self):
        values = np.array([1.0, -3.0])
        np.testing.assert_allclose(_soft_threshold(values, 0.0), values)


class TestFOBOS:
    def test_produces_sparsity(self):
        p = nn.Parameter(np.array([0.001, 5.0]))
        opt = FOBOS([p], lr=0.1, l1=0.5)
        p.grad = np.array([0.0, 0.0])
        opt.step()
        assert p.data[0] == 0.0       # tiny weight soft-thresholded away
        assert p.data[1] != 0.0

    def test_step_size_decays(self):
        p = nn.Parameter(np.array([10.0]))
        opt = FOBOS([p], lr=1.0, l1=0.0)
        p.grad = np.array([1.0])
        opt.step()
        first_move = 10.0 - p.data[0]
        before = p.data[0]
        p.grad = np.array([1.0])
        opt.step()
        second_move = before - p.data[0]
        assert second_move < first_move

    def test_converges_on_quadratic(self):
        p = quadratic_param(5.0)
        opt = FOBOS([p], lr=0.5, l1=1e-6)
        for _ in range(300):
            quad_grad(p)
            opt.step()
        assert abs(p.data[0]) < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            FOBOS([quadratic_param()], lr=0.0)
        with pytest.raises(ValueError):
            FOBOS([quadratic_param()], lr=0.1, l1=-1.0)


class TestFlatStateRecovery:
    """The preflattened fast path must survive checkpoint restores.

    Regression: a ``.data`` replacement that no longer fit its stale flat
    view (a shape-changing restore) made ``_flat_state`` return ``None``
    on every later step, silently demoting the optimizer to the legacy
    loop for its remaining lifetime.
    """

    def test_fast_path_reengages_after_shape_changing_restore(self):
        p = nn.Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.ones(4)
        opt.step()
        assert opt._flat is not None  # fast path engaged
        # A checkpoint restore swaps in a differently-shaped buffer
        # (e.g. the model was rebuilt with another width).
        p.data = np.zeros(6)
        p.grad = np.ones(6)
        opt.step()
        assert p.data.shape == (6,)
        assert opt._flat is not None          # re-engaged, not disabled
        assert p.data is opt._flat.views[0]   # re-adopted into the buffer

    def test_post_restore_sgd_steps_match_legacy_loop(self):
        rng = np.random.default_rng(0)
        p = nn.Parameter(rng.normal(size=(3, 4)))
        opt = SGD([p], lr=0.05, momentum=0.9)
        for _ in range(3):
            p.grad = rng.normal(size=(3, 4))
            opt.step()
        restored = rng.normal(size=(2, 4))
        grads = [rng.normal(size=(2, 4)) for _ in range(4)]
        p.data = restored.copy()
        for grad in grads:
            p.grad = grad.copy()
            opt.step()
        reference = nn.Parameter(restored.copy())
        ref_opt = SGD([reference], lr=0.05, momentum=0.9)
        with reference_ops():
            for grad in grads:
                reference.grad = grad.copy()
                ref_opt.step()
        np.testing.assert_array_equal(p.data, reference.data)

    def test_adam_moments_reset_with_restored_shape(self):
        rng = np.random.default_rng(1)
        p = nn.Parameter(rng.normal(size=(4,)))
        opt = Adam([p], lr=0.01)
        for _ in range(2):
            p.grad = rng.normal(size=(4,))
            opt.step()
        restored = rng.normal(size=(6,))
        grads = [rng.normal(size=(6,)) for _ in range(3)]
        p.data = restored.copy()
        for grad in grads:
            p.grad = grad.copy()
            opt.step()
        assert opt._flat is not None
        # The moments match a fresh Adam at the same step count run over
        # the post-restore gradients (stale-shape moments were reset, and
        # bias correction follows the surviving _step_count).
        reference = nn.Parameter(restored.copy())
        ref_opt = Adam([reference], lr=0.01)
        ref_opt._step_count = 2
        with reference_ops():
            for grad in grads:
                reference.grad = grad.copy()
                ref_opt.step()
        np.testing.assert_array_equal(p.data, reference.data)

    def test_same_shape_restore_keeps_fast_path_and_values(self):
        p = nn.Parameter(np.full(5, 2.0))
        opt = SGD([p], lr=0.5)
        p.grad = np.ones(5)
        opt.step()
        view = opt._flat.views[0]
        p.data = np.full(5, 7.0)  # same-shape restore
        p.grad = np.ones(5)
        opt.step()
        assert p.data is view
        np.testing.assert_array_equal(p.data, np.full(5, 6.5))


class TestRDA:
    def test_weights_driven_by_average_gradient(self):
        p = nn.Parameter(np.array([0.0]))
        opt = RDA([p], l1=0.0, gamma=1.0)
        p.grad = np.array([1.0])
        opt.step()
        # w_1 = -sqrt(1)/1 * 1 = -1
        assert p.data[0] == pytest.approx(-1.0)

    def test_l1_zeroes_small_average_gradients(self):
        p = nn.Parameter(np.array([0.0]))
        opt = RDA([p], l1=2.0)
        p.grad = np.array([1.0])  # |avg| = 1 < 2 -> w stays 0
        opt.step()
        assert p.data[0] == 0.0

    def test_converges_on_quadratic(self):
        p = quadratic_param(5.0)
        opt = RDA([p], l1=0.0, gamma=2.0)
        for _ in range(300):
            quad_grad(p)
            opt.step()
        assert abs(p.data[0]) < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            RDA([quadratic_param()], l1=-0.1)
        with pytest.raises(ValueError):
            RDA([quadratic_param()], gamma=0.0)
