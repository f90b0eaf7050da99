"""Bitwise references for the CNN kernels in ``repro.nn``.

``max_pool2d`` reads its windows through one strided view per kernel
offset and selects with :func:`repro.nn.kernels.select` instead of
``np.where``, ``conv2d`` skips the input gradient of an input that takes
none, and ``Tensor.relu`` builds its output with ``fmax`` instead of a
masked select and keeps its mask C-ordered.  Each rewrite promises the
bits of the implementation it replaced, which lives on in
``reference_kernels.py``: the im2col/``argmax``/``np.add.at`` pool and
the ``np.where`` ReLU.  These tests are the guard against drift, because
no flag switches the old kernels back on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_kernels import ref_max_pool2d, ref_relu

from repro.models import StreamingCNN
from repro.nn import functional as F
from repro.nn import kernels as K
from repro.nn.tensor import Tensor
from repro.perf import config


def _bits(array):
    """Everything a later op's rounding can depend on: dtype, shape,
    memory layout and the bytes themselves."""
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.strides, array.tobytes()


# -- kernel fuzz --------------------------------------------------------------

def _float_from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# NaNs whose bits differ from np.nan's: a quiet one with another payload
# (the first NaN of a window wins) and a signalling one (arithmetic
# quiets it).
_OTHER_NAN = _float_from_bits(0x7FF8000000000002)
_SIGNALLING_NAN = _float_from_bits(0x7FF0000000000001)
# Ties, both zeros, three NaNs, both infinities, and magnitudes whose sums
# round differently in another order, drawn often enough that most
# windows hold at least one of them.
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, _OTHER_NAN,
                            _SIGNALLING_NAN, np.inf, -np.inf, 1e16, -1e16])
_VALUE = st.one_of(_SPECIAL, st.floats(-4.0, 4.0, width=64))


@st.composite
def pool_cases(draw):
    """Input, gradient, kernel and stride for one pool call.

    Strides below the kernel overlap windows, equal ones tile them, and
    larger ones leave gaps; heights and widths that the stride does not
    divide leave ragged edges.
    """
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
             draw(st.integers(max(1, kernel[0]), 6)),
             draw(st.integers(max(2, kernel[1]), 8)))
    out_shape = shape[:2] + tuple(
        (n - k) // s + 1 for n, k, s in zip(shape[2:], kernel, stride))
    x = draw(arrays(np.float64, shape, elements=_VALUE))
    g = draw(arrays(np.float64, out_shape, elements=_VALUE))
    # A conv layer's einsum hands the pool a batch-fastest layout.
    layout = draw(st.sampled_from(["C", "F", "batch-fastest"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "batch-fastest":
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    return x, g, kernel, stride


_LAYOUTS = st.sampled_from(["C", "F", "batch-fastest"])
_SHAPES_4D = st.tuples(st.integers(1, 4), st.integers(1, 3),
                       st.integers(1, 3), st.integers(1, 5))


def _in_layout(x, layout):
    """``x``'s values in C, Fortran or batch-fastest memory order (the
    order a conv layer's einsum returns)."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "batch-fastest":
        return np.ascontiguousarray(np.moveaxis(x, 0, -1)).transpose(
            3, 0, 1, 2)
    return np.ascontiguousarray(x)


def _pool_run(pool, x, g, kernel, stride):
    leaf = Tensor(x.copy(order="K"), requires_grad=True)
    out = pool(leaf, kernel, stride)
    with np.errstate(invalid="ignore"):  # inf + -inf, signalling NaNs
        out.backward(g)
    return _bits(out.data), _bits(leaf.grad)


class TestMaxPoolMatchesReference:
    @given(pool_cases())
    @settings(max_examples=300, deadline=None)
    def test_forward_and_input_gradient_are_bitwise(self, case):
        x, g, kernel, stride = case
        assert (_pool_run(F.max_pool2d, x, g, kernel, stride)
                == _pool_run(ref_max_pool2d, x, g, kernel, stride))

    def test_first_maximum_wins_ties_zeros_and_nans(self):
        nan_a, nan_b = 0x7FF8000000000001, 0x7FF8000000000002
        x = np.array([[[[-0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]]]])
        x.view(np.uint64)[..., [4, 5, 7]] = [nan_a, nan_b, nan_b]
        g = np.array([[[[1.0, 2.0, 3.0, 4.0]]]])
        assert (_pool_run(F.max_pool2d, x, g, (1, 2), (1, 2))
                == _pool_run(ref_max_pool2d, x, g, (1, 2), (1, 2)))
        leaf = Tensor(x, requires_grad=True)
        out = F.max_pool2d(leaf, (1, 2))
        out.backward(g)
        assert np.signbit(out.data[..., 0])  # -0.0 came first
        assert list(out.data[..., 2:].view(np.uint64).ravel()) == [nan_a,
                                                                   nan_b]
        np.testing.assert_array_equal(leaf.grad.ravel(),
                                      [1, 0, 2, 0, 3, 0, 0, 4])

    def test_gradient_sums_over_overlapping_windows_in_offset_order(self):
        # 9.0 wins all three windows; its gradient adds the window that
        # starts on it (offset 0) first: (0.0 + 1.0) + 1e16 + -1e16 == 0.0,
        # where the reverse order would give 1.0.
        x = np.array([[[[0.0, 0.0, 9.0, 0.0, 0.0]]]])
        g = np.array([[[[-1e16, 1e16, 1.0]]]])
        leaf = Tensor(x, requires_grad=True)
        F.max_pool2d(leaf, (1, 3), (1, 1)).backward(g)
        np.testing.assert_array_equal(leaf.grad, np.zeros_like(x))
        assert (_pool_run(F.max_pool2d, x, g, (1, 3), (1, 1))
                == _pool_run(ref_max_pool2d, x, g, (1, 3), (1, 1)))

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_overlapping_nan_gradients_keep_the_later_nan(self, rows):
        # Three NaN payloads meet at the shared maximum; the scatter-add
        # kept the one added last, the window starting two before it.
        x = np.zeros((rows, 1, 1, 5))
        x[..., 2] = 9.0
        g = np.empty((rows, 1, 1, 3))
        g.view(np.uint64)[...] = [0x7FF8000000000001, 0x7FF8000000000002,
                                  0x7FF8000000000003]
        run = _pool_run(F.max_pool2d, x, g, (1, 3), (1, 1))
        assert run == _pool_run(ref_max_pool2d, x, g, (1, 3), (1, 1))
        grad = np.frombuffer(run[1][3]).reshape(x.shape)[..., 2]
        assert set(grad.view(np.uint64).ravel()) == {0x7FF8000000000001}

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), 3)

    def test_big_endian_input_pools_by_value(self, rng):
        # The select moves raw bits, so its buffer must keep the input's
        # byte order; values and gradients match the native run.
        x = rng.normal(size=(3, 2, 4, 6))
        g = rng.normal(size=(3, 2, 2, 3))
        runs = []
        for data in (x, x.astype(">f8")):
            leaf = Tensor(data, requires_grad=True)
            out = F.max_pool2d(leaf, 2)
            out.backward(g)
            runs.append((out.data.tolist(), leaf.grad.tolist()))
        assert runs[0] == runs[1]


class TestReluMatchesReference:
    @given(st.lists(_VALUE, min_size=1, max_size=40), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_forward_and_gradient_are_bitwise(self, values, reversed_view):
        x = np.array(values)
        if reversed_view:
            x = x[::-1]
        g = np.arange(1.0, len(values) + 1.0)
        runs = []
        for relu in (Tensor.relu, ref_relu):
            leaf = Tensor(x.copy(order="K"), requires_grad=True)
            with np.errstate(invalid="ignore"):  # signalling NaNs
                out = relu(leaf)
                out.backward(g)
            runs.append((_bits(out.data), _bits(leaf.grad)))
        assert runs[0] == runs[1]

    def test_nans_and_negative_zero_become_positive_zero(self):
        # fmax alone may keep -0.0 and signalling NaNs (numpy's vector and
        # scalar loops disagree), so every position of a run is checked.
        x = np.full(19, -0.0)
        x[1:4] = [np.nan, -np.inf, 2.0]
        x[-1] = _SIGNALLING_NAN
        expected = np.zeros(19)
        expected[3] = 2.0
        with np.errstate(invalid="ignore"):
            assert Tensor(x).relu().data.tobytes() == expected.tobytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_4d_layouts_with_a_c_ordered_gradient_are_bitwise(self, data):
        # The conv path hands ReLU a batch-fastest input and, through the
        # pool's backward, a C-ordered gradient.
        x = _in_layout(data.draw(arrays(np.float64, _SHAPES_4D,
                                        elements=_VALUE)),
                       data.draw(_LAYOUTS))
        g = data.draw(arrays(np.float64, x.shape, elements=_VALUE))
        runs = []
        for relu in (Tensor.relu, ref_relu):
            leaf = Tensor(x.copy(order="K"), requires_grad=True)
            with np.errstate(invalid="ignore"):  # inf * 0, signalling NaNs
                out = relu(leaf)
                out.backward(g)
            runs.append((_bits(out.data), _bits(leaf.grad)))
        assert runs[0] == runs[1]


class TestSelectMatchesWhere:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bits_and_layout_match_np_where(self, data):
        layout = data.draw(_LAYOUTS)
        shape = data.draw(_SHAPES_4D)
        mask = _in_layout(data.draw(arrays(bool, shape)), layout)
        a = _in_layout(data.draw(arrays(np.float64, shape,
                                        elements=_SPECIAL)), layout)
        zero = data.draw(st.booleans())
        b = None if zero else _in_layout(
            data.draw(arrays(np.float64, shape, elements=_SPECIAL)), layout)
        expected = np.where(mask, a, 0.0 if zero else b)
        out = K.empty_result(a) if zero else K.empty_result(a, b)
        K.select(mask, a, b, out)
        assert _bits(out) == _bits(expected)
        # ``out`` may alias ``a``.
        K.select(mask, a, b, a)
        assert a.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, ">f8"])
    def test_rejects_an_operand_of_another_dtype(self, dtype):
        mask = np.array([True, False])
        with pytest.raises(TypeError, match="raw bits"):
            K.select(mask, np.ones(2, dtype=dtype), None, np.empty(2))
        with pytest.raises(TypeError, match="raw bits"):
            K.select(mask, np.ones(2), np.ones(2, dtype=dtype), np.empty(2))


# -- conv2d input gradient ----------------------------------------------------


class TestConvSkipsDiscardedInputGradient:
    @pytest.mark.parametrize("stride,padding", [(1, (0, 1)), (2, 1)])
    def test_parameter_grads_do_not_depend_on_input_grad(
            self, rng, monkeypatch, stride, padding):
        calls = []
        col2im = F._col2im
        monkeypatch.setattr(
            F, "_col2im", lambda *args: calls.append(1) or col2im(*args))
        x = rng.normal(size=(6, 2, 5, 7))
        weight_data = rng.normal(size=(4, 2, 3, 3))
        bias_data = rng.normal(size=4)
        grads = {}
        for input_grad in (True, False):
            calls.clear()
            weight = Tensor(weight_data.copy(), requires_grad=True)
            bias = Tensor(bias_data.copy(), requires_grad=True)
            out = F.conv2d(Tensor(x.copy(), requires_grad=input_grad),
                           weight, bias, stride=stride, padding=padding)
            (out * out).sum().backward()
            grads[input_grad] = (_bits(weight.grad), _bits(bias.grad))
            assert len(calls) == int(input_grad)
        assert grads[True] == grads[False]


# -- whole models -------------------------------------------------------------


def _patch_reference_kernels(monkeypatch):
    # Plans off: a replay of the plans the fast run cached would call no
    # reference kernel.
    monkeypatch.setattr(config, "plan_capture", False)
    monkeypatch.setattr(F, "max_pool2d", ref_max_pool2d)
    monkeypatch.setattr(Tensor, "relu", ref_relu)


def _stream_cnn(input_shape, num_classes, batch_sizes, seed):
    """Fit a fresh model batch by batch, recording every prediction and
    the final parameters as bytes."""
    rng = np.random.default_rng(seed)
    model = StreamingCNN(input_shape, num_classes, lr=0.1, seed=0)
    width = int(np.prod(input_shape))
    record = []
    for rows in batch_sizes:
        x = rng.normal(size=(rows, width))
        y = rng.integers(0, num_classes, rows)
        record.append(model.predict_proba(x).tobytes())
        model.partial_fit(x, y)
    record.append({key: np.asarray(value).tobytes()
                   for key, value in model.state_dict().items()})
    return record


class TestModelsMatchReferenceKernels:
    def test_tabular_cnn_with_a_long_fit(self, monkeypatch):
        batches = [128] * 12 + [3000] + [128] * 7
        fast = _stream_cnn((16,), 4, batches, seed=3)
        _patch_reference_kernels(monkeypatch)
        assert _stream_cnn((16,), 4, batches, seed=3) == fast

    def test_image_cnn(self, monkeypatch):
        batches = [16, 16, 24, 16]
        fast = _stream_cnn((3, 8, 8), 10, batches, seed=4)
        _patch_reference_kernels(monkeypatch)
        assert _stream_cnn((3, 8, 8), 10, batches, seed=4) == fast
