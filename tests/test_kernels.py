"""The shared kernels of ``repro.nn.kernels`` against their general op chains.

Each float-op sequence runs from one kernel in three places: the
define-by-run node, the same node on model-axis tensors, and a plan
replay.  Every fuzz below drives all three and holds each to the general
``Tensor`` chain the kernel stands for — forward bytes and the bytes of
every gradient — over ties, signed zeros, infinities, NaNs with several
payloads, magnitudes near 1e±300, and C-ordered, F-ordered and
batch-fastest inputs.  A plan replay is compared with the general chain
on the inputs its arena holds (C-ordered, or the layout the node gives
them), and a model-axis run slice by slice with the general chain on
that model's 2-D slice.  The convolution and the pool, which have no
model axis, are held to the fresh-array implementations they replaced
(``reference_kernels``).

NaN payloads and signs are not compared, only where NaNs are: when both
operands of an op are NaN, IEEE 754 leaves the result's payload to the
implementation, and numpy's vectorized, scalar-tail and in-place loops
keep different operands' (a one-element in-place add keeps the second's).
Signed zeros, infinities and finite values are compared bit for bit.
"""

import numpy as np
import pytest
from conftest import reference_ops
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_kernels import (
    ref_adam_step,
    ref_conv2d,
    ref_max_pool2d,
    ref_sgd_step,
)

from repro import nn
from repro.models import StreamingMLP
from repro.nn import functional as F
from repro.nn import kernels
from repro.nn import plan as nn_plan
from repro.nn.stacked import stacked_arena
from repro.nn.tensor import Tensor
from repro.perf import configure


def _float_from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_OTHER_NAN = _float_from_bits(0x7FF8000000000002)
_NEGATIVE_NAN = _float_from_bits(0xFFF8000000000000)
_SIGNALLING_NAN = _float_from_bits(0x7FF0000000000001)
_SPECIAL = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 2.5, np.nan, _OTHER_NAN, _NEGATIVE_NAN,
    _SIGNALLING_NAN, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300])
_VALUE = st.one_of(_SPECIAL, st.floats(-8.0, 8.0, width=64))
_LAYOUTS = st.sampled_from(["C", "F", "batch"])
# With a model axis in front, "batch" keeps each model's slice F-ordered;
# an F-ordered stack would leave the slices strided, and a 2-D run on a
# copy of one would meet another gemm code path.
_MODEL_AXIS_LAYOUTS = st.sampled_from(["C", "batch"])
_MODELS = 2


def _layouts(models):
    return _LAYOUTS if models is None else _MODEL_AXIS_LAYOUTS


def _bits(array):
    """Dtype, shape and bytes, with every NaN read as ``np.nan``."""
    array = np.asarray(array)
    array = np.where(np.isnan(array), np.nan, array)
    return array.dtype.str, array.shape, array.tobytes()


def _laid_out(array, layout, batch_axis):
    """``array``'s values in C, F, or batch-fastest (``batch_axis``
    innermost) memory order."""
    if layout == "C":
        return np.ascontiguousarray(array)
    if layout == "F":
        return np.asfortranarray(array)
    batch_axis %= array.ndim
    order = [axis for axis in range(array.ndim) if axis != batch_axis]
    order.append(batch_axis)
    out = np.empty([array.shape[axis] for axis in order]).transpose(
        np.argsort(order))
    out[...] = array
    return out


def _order(array):
    """Strides of the axes longer than one: the memory order itself."""
    return tuple(stride for stride, length in zip(array.strides, array.shape)
                 if length > 1)


def _leaf(array):
    """A leaf over ``array`` itself: a 2-D run on one model's slice must
    see the slice's strides, or matmul may pick another code path."""
    return Tensor(array, requires_grad=True)


def _param(array):
    """A stand-in for a bound parameter: plan kernels read ``.data``."""
    return Tensor(np.ascontiguousarray(array))


# -- Linear with its fused activation ------------------------------------------

_ACTIVATIONS = st.sampled_from([None, "relu", "tanh", "sigmoid"])


@st.composite
def linear_cases(draw, models=None):
    lead = () if models is None else (models,)
    rows, fan_in, fan_out = (draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                             draw(st.integers(1, 4)))
    x = draw(arrays(np.float64, lead + (rows, fan_in), elements=_VALUE))
    w = draw(arrays(np.float64, lead + (fan_out, fan_in), elements=_VALUE))
    b = (draw(arrays(np.float64, lead + (fan_out,), elements=_VALUE))
         if draw(st.booleans()) else None)
    g = draw(arrays(np.float64, lead + (rows, fan_out), elements=_VALUE))
    layouts = _layouts(models)
    return (_laid_out(x, draw(layouts), -2), w, b, draw(_ACTIVATIONS),
            _laid_out(g, draw(layouts), -2))


def _general_linear(x, w, b, activation, g):
    """``x @ W.T + b``, then the ``Tensor`` activation."""
    leaves = (_leaf(x), _leaf(w), None if b is None else _leaf(b))
    out = F.linear(*leaves)
    if activation is not None:
        out = getattr(out, activation)()
    out.backward(g)
    return [_bits(out.data)] + [_bits(leaf.grad) for leaf in leaves
                               if leaf is not None]


def _node_linear(x, w, b, activation, g):
    leaves = (_leaf(x), _leaf(w), None if b is None else _leaf(b))
    out = F.fused_linear(*leaves, activation=activation)
    out.backward(g)
    return out.data, [leaf.grad for leaf in leaves if leaf is not None]


def _plan_linear(x, w, b, activation, g):
    """The plan's Linear kernel on C-ordered arena buffers."""
    out_shape = x.shape[:-1] + w.shape[-2:-1]
    kernel = nn_plan._LinearKernel(
        np.ascontiguousarray(x), np.empty(out_shape), w, b, 0,
        -1 if b is None else 1, activation)
    params = [_param(w)] + ([] if b is None else [_param(b)])
    kernel.g_out = np.array(g, order="C")
    kernel.g_in = np.empty(x.shape)
    kernel.forward(params, [])
    kernel.backward(params)
    return kernel.out, [kernel.g_in, kernel.gw] + (
        [] if b is None else [kernel.gb])


def _sliced(run, m):
    out, grads = run
    return [_bits(out[m])] + [_bits(grad[m]) for grad in grads]


def _flat(run):
    out, grads = run
    return [_bits(out)] + [_bits(grad) for grad in grads]


class TestLinearKernel:
    @given(linear_cases())
    @settings(max_examples=120, deadline=None)
    def test_node_and_plan_match_the_general_chain(self, case):
        x, w, b, activation, g = case
        with np.errstate(all="ignore"):
            assert _flat(_node_linear(x, w, b, activation, g)) \
                == _general_linear(x, w, b, activation, g)
            x, g = np.ascontiguousarray(x), np.ascontiguousarray(g)
            assert _flat(_plan_linear(x, w, b, activation, g)) \
                == _general_linear(x, w, b, activation, g)

    @given(linear_cases(models=_MODELS))
    @settings(max_examples=80, deadline=None)
    def test_model_axis_slices_match_2d_runs(self, case):
        x, w, b, activation, g = case
        with np.errstate(all="ignore"):
            node = _node_linear(x, w, b, activation, g)
            x_c, g_c = np.ascontiguousarray(x), np.ascontiguousarray(g)
            planned = _plan_linear(x_c, w, b, activation, g_c)
            for m in range(_MODELS):
                bias = None if b is None else b[m]
                assert _sliced(node, m) == _general_linear(
                    x[m], w[m], bias, activation, g[m])
                assert _sliced(planned, m) == _general_linear(
                    x_c[m], w[m], bias, activation, g_c[m])


# -- standalone activations ---------------------------------------------------


def _reference_activation(name, x, g):
    """The activation's float ops written out in plain numpy."""
    if name == "relu":
        out = np.where(x > 0, x, 0.0)
        return out, g * (x > 0)
    if name == "tanh":
        out = np.tanh(x)
        return out, g * (1.0 - out * out)
    out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
    return out, g * out * (1.0 - out)


def _node_activation(name, x, g):
    leaf = _leaf(x)
    out = getattr(F, name)(leaf)
    out.backward(g)
    return out.data, leaf.grad


def _plan_activation(name, x, g):
    kernel = nn_plan._ActKernel(name, np.ascontiguousarray(x),
                                np.empty(x.shape))
    kernel.g_out = np.array(g, order="C")
    kernel.g_in = np.empty(x.shape)
    kernel.forward([], [])
    kernel.backward([])
    return kernel.out, kernel.g_in


@st.composite
def activation_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    x = draw(arrays(np.float64, shape, elements=_VALUE))
    g = draw(arrays(np.float64, shape, elements=_VALUE))
    return (draw(st.sampled_from(["relu", "tanh", "sigmoid"])),
            _laid_out(x, draw(_LAYOUTS), 0), _laid_out(g, draw(_LAYOUTS), 0))


class TestActivationKernels:
    @given(activation_cases())
    @settings(max_examples=150, deadline=None)
    def test_node_model_axis_and_plan_match_the_reference(self, case):
        name, x, g = case
        with np.errstate(all="ignore"):
            assert [_bits(a) for a in _node_activation(name, x, g)] \
                == [_bits(a) for a in _reference_activation(name, x, g)]
            x, g = np.ascontiguousarray(x), np.ascontiguousarray(g)
            assert [_bits(a) for a in _plan_activation(name, x, g)] \
                == [_bits(a) for a in _reference_activation(name, x, g)]
            # A model axis in front: each slice is its own 2-D run.
            xs, gs = np.stack([x, -x]), np.stack([g, g[::-1]])
            out, grad = _node_activation(name, xs, gs)
            for m in range(2):
                assert [_bits(out[m]), _bits(grad[m])] == [
                    _bits(a)
                    for a in _reference_activation(name, xs[m], gs[m])]

    @given(activation_cases())
    @settings(max_examples=100, deadline=None)
    def test_node_keeps_the_memory_layout_of_numpy_ops(self, case):
        """A gemm, einsum or reduction downstream rounds by layout, so a
        node's fresh buffers follow numpy's own: ``x + 0.0`` for the
        output, ``g * mask`` for the gradient."""
        name, x, g = case
        with np.errstate(all="ignore"):
            out, grad = _node_activation(name, x, g)
            assert _order(out) == _order(x + 0.0)
            assert _order(grad) == _order(g * (x > 0))

    def test_relu_maps_nan_and_negative_zero_to_positive_zero(self):
        x = np.array([np.nan, -0.0, -np.inf, 2.0, _SIGNALLING_NAN,
                      _NEGATIVE_NAN])
        expected = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0]).tobytes()
        with np.errstate(invalid="ignore"):
            node, _ = _node_activation("relu", x, np.ones(6))
            planned, _ = _plan_activation("relu", x, np.ones(6))
            fused = F.fused_linear(Tensor(x[:, None]), Tensor(np.ones((1, 1))),
                                   activation="relu").data[:, 0]
        assert node.tobytes() == planned.tobytes() == fused.tobytes() \
            == expected


# -- dropout ------------------------------------------------------------------


@st.composite
def dropout_cases(draw, models=None):
    lead = () if models is None else (models,)
    shape = lead + (draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    x = draw(arrays(np.float64, shape, elements=_VALUE))
    g = draw(arrays(np.float64, shape, elements=_VALUE))
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=_MODELS,
                          max_size=_MODELS))
    layouts = _layouts(models)
    return (_laid_out(x, draw(layouts), -2), _laid_out(g, draw(layouts), -2),
            p, seeds)


def _general_dropout(x, g, p, seed):
    """The mask drawn from the generator's state, then ``x * mask``."""
    rng = np.random.default_rng(seed)
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    leaf = _leaf(x)
    out = leaf * Tensor(mask)
    out.backward(g)
    return [_bits(out.data), _bits(leaf.grad),
            rng.bit_generator.state["state"]]


class TestDropoutKernel:
    @given(dropout_cases())
    @settings(max_examples=100, deadline=None)
    def test_node_and_plan_match_the_general_chain(self, case):
        x, g, p, seeds = case
        with np.errstate(all="ignore"):
            expected = _general_dropout(x, g, p, seeds[0])
            rng = np.random.default_rng(seeds[0])
            leaf = _leaf(x)
            out = F.dropout(leaf, p, True, rng)
            out.backward(g)
            assert [_bits(out.data), _bits(leaf.grad),
                    rng.bit_generator.state["state"]] == expected

            contiguous = np.ascontiguousarray(x)
            expected = _general_dropout(contiguous, np.ascontiguousarray(g),
                                        p, seeds[0])
            rng = np.random.default_rng(seeds[0])
            kernel = nn_plan._DropoutKernel(p, 0, contiguous,
                                            np.empty(x.shape))
            kernel.g_out = np.array(g, order="C")
            kernel.g_in = np.empty(x.shape)
            kernel.forward([], [rng])
            kernel.backward([])
            assert [_bits(kernel.out), _bits(kernel.g_in),
                    rng.bit_generator.state["state"]] == expected

    @given(dropout_cases(models=_MODELS))
    @settings(max_examples=60, deadline=None)
    def test_model_axis_draws_each_row_from_its_own_generator(self, case):
        x, g, p, seeds = case
        with np.errstate(all="ignore"):
            rngs = [np.random.default_rng(seed) for seed in seeds]
            leaf = _leaf(x)
            out = F.dropout(leaf, p, True, rngs)
            out.backward(g)
            planned_rngs = [np.random.default_rng(seed) for seed in seeds]
            kernel = nn_plan._DropoutKernel(p, 0, np.ascontiguousarray(x),
                                            np.empty(x.shape))
            kernel.g_out = np.array(g, order="C")
            kernel.g_in = np.empty(x.shape)
            kernel.forward([], [planned_rngs])
            kernel.backward([])
            for m, seed in enumerate(seeds):
                state = rngs[m].bit_generator.state["state"]
                assert [_bits(out.data[m]), _bits(leaf.grad[m]), state] \
                    == _general_dropout(x[m], g[m], p, seed)
                state = planned_rngs[m].bit_generator.state["state"]
                assert [_bits(kernel.out[m]), _bits(kernel.g_in[m]), state] \
                    == _general_dropout(np.ascontiguousarray(x[m]),
                                        np.ascontiguousarray(g[m]), p, seed)


# -- softmax cross-entropy ----------------------------------------------------


@st.composite
def loss_cases(draw, models=None):
    lead = () if models is None else (models,)
    rows, classes = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    logits = draw(arrays(np.float64, lead + (rows, classes),
                         elements=_VALUE))
    labels = draw(arrays(np.int64, lead + (rows,),
                         elements=st.integers(0, classes - 1)))
    seed = draw(st.one_of(st.just(1.0), _VALUE))
    return _laid_out(logits, draw(_layouts(models)), -2), labels, seed


def _general_loss(logits, labels, seed):
    """``nll_loss(log_softmax(x))`` and its backward from ``seed``."""
    leaf = _leaf(logits)
    loss = F.nll_loss(F.log_softmax(leaf, axis=-1), labels)
    loss.backward(np.float64(seed))
    return [_bits(loss.data), _bits(leaf.grad)]


def _plan_loss(logits, labels):
    """The plan's loss kernel: its backward is seeded with 1.0."""
    kernel = nn_plan._CrossEntropyKernel(np.ascontiguousarray(logits),
                                         np.empty(logits.shape))
    loss = kernel.forward(labels)
    kernel.backward()
    return loss, kernel.g_logits


class TestCrossEntropyKernel:
    @given(loss_cases())
    @settings(max_examples=150, deadline=None)
    def test_node_and_plan_match_the_general_chain(self, case):
        logits, labels, seed = case
        with np.errstate(all="ignore"):
            leaf = _leaf(logits)
            loss = F.cross_entropy(leaf, labels)
            loss.backward(np.float64(seed))
            assert [_bits(loss.data), _bits(leaf.grad)] \
                == _general_loss(logits, labels, seed)
            assert [_bits(a) for a in _plan_loss(logits, labels)] \
                == _general_loss(np.ascontiguousarray(logits), labels, 1.0)

    @given(loss_cases(models=_MODELS))
    @settings(max_examples=80, deadline=None)
    def test_model_axis_slices_match_2d_runs(self, case):
        logits, labels, seed = case
        seeds = np.array([seed, 1.0])
        with np.errstate(all="ignore"):
            leaf = _leaf(logits)
            losses = nn.stacked_cross_entropy(leaf, labels)
            losses.backward(seeds)
            planned_loss, planned_grad = _plan_loss(logits, labels)
            for m in range(_MODELS):
                assert [_bits(losses.data[m]), _bits(leaf.grad[m])] \
                    == _general_loss(logits[m], labels[m], seeds[m])
                assert [_bits(planned_loss[m]), _bits(planned_grad[m])] \
                    == _general_loss(np.ascontiguousarray(logits[m]),
                                     labels[m], 1.0)

    def test_labels_are_validated(self):
        logits = Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
            F.cross_entropy(logits, [0, 4, 1])
        with pytest.raises(ValueError, match="must have shape"):
            F.cross_entropy(logits, [0, 1])
        with pytest.raises(ValueError, match="must have shape"):
            nn.stacked_cross_entropy(Tensor(np.zeros((2, 3, 4))),
                                     np.zeros((2, 2), dtype=int))


# -- inference softmax --------------------------------------------------------


@st.composite
def softmax_cases(draw, models=None):
    lead = () if models is None else (models,)
    shape = lead + (draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    x = draw(arrays(np.float64, shape, elements=_VALUE))
    return _laid_out(x, draw(_layouts(models)), -2)


def _general_softmax(x):
    return _bits(F.log_softmax(Tensor(x)).exp().data)


def _plan_softmax(x):
    kernel = nn_plan._SoftmaxKernel(np.ascontiguousarray(x),
                                    np.empty(x.shape))
    kernel.forward()
    return kernel.out


class TestSoftmaxKernel:
    @given(softmax_cases())
    @settings(max_examples=120, deadline=None)
    def test_node_and_plan_match_the_general_chain(self, x):
        with np.errstate(all="ignore"):
            assert _bits(F.softmax(Tensor(x)).data) == _general_softmax(x)
            assert _bits(_plan_softmax(x)) \
                == _general_softmax(np.ascontiguousarray(x))

    @given(softmax_cases(models=_MODELS))
    @settings(max_examples=60, deadline=None)
    def test_model_axis_slices_match_2d_runs(self, x):
        with np.errstate(all="ignore"):
            out = F.softmax(Tensor(x)).data
            planned = _plan_softmax(x)
            for m in range(_MODELS):
                assert _bits(out[m]) == _general_softmax(x[m])
                assert _bits(planned[m]) == _general_softmax(
                    np.ascontiguousarray(x[m]))


# -- convolution and pooling ----------------------------------------------------


@st.composite
def conv_cases(draw):
    """Input, weight, bias, output gradient and geometry of one conv,
    with or without padding and an input gradient."""
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    padding = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    rows, channels, out_channels = (draw(st.integers(1, 5)),
                                    draw(st.integers(1, 3)),
                                    draw(st.integers(1, 4)))
    height = draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 5))
    width = draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 6))
    out_shape = (rows, out_channels) + tuple(
        (n + 2 * p - k) // s + 1
        for n, p, k, s in zip((height, width), padding, kernel, stride))
    x = draw(arrays(np.float64, (rows, channels, height, width),
                    elements=_VALUE))
    w = draw(arrays(np.float64, (out_channels, channels) + kernel,
                    elements=_VALUE))
    b = (draw(arrays(np.float64, (out_channels,), elements=_VALUE))
         if draw(st.booleans()) else None)
    g = draw(arrays(np.float64, out_shape, elements=_VALUE))
    return (_laid_out(x, draw(_LAYOUTS), 0), w, b,
            _laid_out(g, draw(_LAYOUTS), 0), stride, padding,
            draw(st.booleans()))


def _conv_run(conv, x, w, b, g, stride, padding, input_grad):
    """Output and gradients of one conv node, with the output's order."""
    x_leaf = Tensor(x, requires_grad=input_grad)
    leaves = [_leaf(w)] + ([] if b is None else [_leaf(b)])
    out = conv(x_leaf, *leaves, stride=stride, padding=padding)
    out.backward(g)
    grads = [leaf.grad for leaf in ([x_leaf] if input_grad else []) + leaves]
    return [_order(out.data), _bits(out.data)] + [_bits(grad)
                                                  for grad in grads]


def _plan_conv(x, w, b, g, stride, padding, input_grad):
    """The plan's conv kernel on arena buffers laid out as the node's."""
    out_ref = kernels.batch_fastest(
        (x.shape[0], w.shape[0]) + g.shape[2:])
    kernel = nn_plan._ConvKernel(np.ascontiguousarray(x), out_ref, w, b, 0,
                                 -1 if b is None else 1, stride, padding)
    params = [_param(w)] + ([] if b is None else [_param(b)])
    kernel.g_out = np.array(g, order="C")
    if input_grad:
        kernel.g_in = kernel.input_grad()
    kernel.forward(params, [])
    kernel.backward(params)
    grads = ([kernel.g_in] if input_grad else []) + [kernel.gw] + (
        [] if b is None else [kernel.gb])
    return [_order(kernel.out), _bits(kernel.out)] + [_bits(grad)
                                                      for grad in grads]


class TestConvKernel:
    @given(conv_cases())
    @settings(max_examples=300, deadline=None)
    def test_node_and_plan_match_the_fresh_array_conv(self, case):
        x, w, b, g, stride, padding, input_grad = case
        with np.errstate(all="ignore"):
            assert (_conv_run(F.conv2d, *case)
                    == _conv_run(ref_conv2d, *case))
            c_ordered = (np.ascontiguousarray(x), w, b,
                         np.ascontiguousarray(g), stride, padding,
                         input_grad)
            assert _plan_conv(*c_ordered) == _conv_run(ref_conv2d,
                                                       *c_ordered)


@st.composite
def pool_cases(draw):
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
             draw(st.integers(kernel[0], 6)), draw(st.integers(kernel[1], 7)))
    out_shape = shape[:2] + tuple(
        (n - k) // s + 1 for n, k, s in zip(shape[2:], kernel, stride))
    x = draw(arrays(np.float64, shape, elements=_VALUE))
    g = draw(arrays(np.float64, out_shape, elements=_VALUE))
    return _laid_out(x, draw(_LAYOUTS), 0), g, kernel, stride


class TestPoolKernel:
    @given(pool_cases())
    @settings(max_examples=200, deadline=None)
    def test_plan_matches_the_im2col_pool(self, case):
        """The plan's pool kernel, its input in any layout a conv or
        activation buffer has, against the im2col/``argmax`` pool.  Full
        bits: a pool only moves and adds them."""
        x, g, kernel, stride = case
        leaf = Tensor(x.copy(order="K"), requires_grad=True)
        out = ref_max_pool2d(leaf, kernel, stride)
        with np.errstate(invalid="ignore"):
            out.backward(g)
            plan = nn_plan._PoolKernel(x.copy(order="K"), out.data, kernel,
                                       stride)
            plan.g_out = g
            plan.g_in = plan.input_grad()
            plan.forward([], [])
            plan.backward([])
        assert plan.out.tobytes() == out.data.tobytes()
        assert plan.g_in.tobytes() == leaf.grad.tobytes()


class TestReshapedView:
    def test_views_the_same_memory_or_raises(self):
        """A batch-fastest conv output views as ``(rows, O, oh·ow)``; an
        array whose strides cannot take the shape raises rather than
        being copied, which the plan compiler turns into a fallback."""
        out = kernels.batch_fastest((5, 3, 2, 4))
        view = kernels.reshaped_view(out, (5, 3, 8))
        view[...] = np.arange(view.size).reshape(view.shape)
        assert np.shares_memory(view, out)
        assert out.reshape(5, 3, 8).tobytes() == view.tobytes()
        with pytest.raises(ValueError, match="has no"):
            kernels.reshaped_view(np.zeros((3, 4)).T, (12,))


# -- one ReLU everywhere ------------------------------------------------------


class TestOneRelu:
    def test_nan_weight_row_predicts_the_same_in_every_setting(self):
        """A NaN pre-activation is 0.0 after ReLU on every path, so a NaN
        hidden unit drops out instead of poisoning every probability."""
        x = np.random.default_rng(1).normal(size=(8, 8))

        def nan_row_model():
            model = StreamingMLP(8, 3, seed=0)
            model.module.layers[0].weight.data[0] = np.nan
            return model

        default = nan_row_model().predict_proba(x)
        with configure(plan_capture=False):
            no_plans = nan_row_model().predict_proba(x)
        with reference_ops():
            reference = nan_row_model().predict_proba(x)
        models = [nan_row_model(), StreamingMLP(8, 3, seed=1)]
        arena = stacked_arena(models)
        arena.load(models, train=False)
        stacked = arena.stack.predict_proba(np.stack([x, x]))[0]
        assert np.isfinite(default).all()
        for other in (no_plans, reference, stacked):
            assert other.tobytes() == default.tobytes()


# -- optimizer steps ----------------------------------------------------------
#
# The references are a per-parameter loop's update expressions on fresh
# arrays (``reference_kernels``); the step kernels must match their bits
# over whole buffers and over slices of them.


@st.composite
def step_cases(draw):
    """Parameter, gradient and two state buffers of one size, and the
    part a step runs over: the whole buffers or one slice of them."""
    size = draw(st.integers(1, 8))
    buffers = [draw(arrays(np.float64, (size,), elements=_VALUE))
               for _ in range(4)]
    start = draw(st.integers(0, size - 1))
    part = draw(st.sampled_from(
        [..., slice(start, draw(st.integers(start + 1, size)))]))
    return (buffers, part, draw(st.sampled_from([0.0, 0.9])),
            draw(st.sampled_from([0.0, 0.01])),
            draw(st.sampled_from([1, 2, 7, 1000])))


def _sgd(step, buffers, part, momentum, weight_decay):
    """Bits of the parameter and velocity after ``step`` ran on ``part``
    of copies of ``buffers``."""
    param, grad, velocity, scratch = (buffer.copy() for buffer in buffers)
    step(param[part], grad[part], velocity[part] if momentum else None,
         scratch[part], 0.1, momentum, weight_decay)
    return [_bits(param), _bits(velocity)]


def _adam(step, buffers, part, weight_decay, count):
    """Bits of the parameter and moments after ``step`` ran on ``part``
    of copies of ``buffers``."""
    param, grad, m, v = (buffer.copy() for buffer in buffers)
    scratch = np.empty((2,) + param.shape)
    step(param[part], grad[part], m[part], v[part], scratch[0][part],
         scratch[1][part], 0.01, 0.9, 0.999, 1e-8, weight_decay, count)
    return [_bits(param), _bits(m), _bits(v)]


class TestOptimizerStepKernels:
    @given(step_cases())
    @settings(max_examples=150, deadline=None)
    def test_sgd_step_matches_the_per_parameter_loop(self, case):
        buffers, part, momentum, weight_decay, _count = case
        with np.errstate(all="ignore"):
            assert _sgd(kernels.sgd_step, buffers, part, momentum,
                        weight_decay) \
                == _sgd(ref_sgd_step, buffers, part, momentum, weight_decay)

    @given(step_cases())
    @settings(max_examples=150, deadline=None)
    def test_adam_step_matches_the_per_parameter_loop(self, case):
        buffers, part, _momentum, weight_decay, count = case
        with np.errstate(all="ignore"):
            assert _adam(kernels.adam_step, buffers, part, weight_decay,
                         count) \
                == _adam(ref_adam_step, buffers, part, weight_decay, count)


_SHAPES = [(3, 4), (3,), (2, 3), (2,)]


def _optimizer(kind, params):
    if kind == "sgd":
        return nn.SGD(params, lr=0.1, momentum=0.9, weight_decay=0.01)
    return nn.Adam(params, lr=0.01, weight_decay=0.01)


def _loop(kind, start, steps):
    """The per-parameter loop: each parameter with a gradient steps its
    own arrays through the reference expressions; one without is
    skipped.  Returns the parameters and each one's two state arrays."""
    params = [value.copy() for value in start]
    states = [(np.zeros_like(value), np.zeros_like(value))
              for value in start]
    for count, grads in enumerate(steps, 1):
        for param, grad, (first, second) in zip(params, grads, states):
            if grad is None:
                continue
            if kind == "sgd":
                ref_sgd_step(param, grad.copy(), first, None, 0.1, 0.9, 0.01)
            else:
                ref_adam_step(param, grad.copy(), first, second, None, None,
                              0.01, 0.9, 0.999, 1e-8, 0.01, count)
    return params, states


def _train(optimizer, steps):
    for grads in steps:
        for param, grad in zip(optimizer.parameters, grads):
            param.grad = None if grad is None else grad.copy()
        optimizer.step()


class TestPartialGradientSteps:
    """Steps where only some parameters have a gradient run the kernel
    once per slice of those that do."""

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_steps_match_the_per_parameter_loop(self, kind):
        rng = np.random.default_rng(3)
        start = [rng.normal(size=shape) for shape in _SHAPES]
        steps = [[rng.normal(size=shape) for shape in _SHAPES]
                 for _ in range(4)]
        steps[1][1] = steps[2][2] = steps[2][0] = None
        optimizer = _optimizer(
            kind, [nn.Parameter(value.copy()) for value in start])
        _train(optimizer, steps)
        params, states = _loop(kind, start, steps)
        state = optimizer.state_dict()
        for index, (param, value) in enumerate(
                zip(optimizer.parameters, params)):
            assert param.data.tobytes() == value.tobytes()
            for name, reference in zip(optimizer._state_names(),
                                       states[index]):
                assert state[f"{name}.{index}"].tobytes() \
                    == reference.tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_parameter_without_gradient_keeps_values_and_state(self, kind):
        rng = np.random.default_rng(4)
        optimizer = _optimizer(kind, [nn.Parameter(rng.normal(size=shape))
                                      for shape in _SHAPES])
        _train(optimizer, [[rng.normal(size=shape) for shape in _SHAPES]])
        resting = optimizer.parameters[1]
        values = resting.data.tobytes()
        state = {key: value.tobytes()
                 for key, value in optimizer.state_dict().items()
                 if key.endswith(".1")}
        grads = [rng.normal(size=shape) for shape in _SHAPES]
        grads[1] = None
        _train(optimizer, [grads])
        assert resting.data.tobytes() == values
        assert state and state == {
            key: value.tobytes()
            for key, value in optimizer.state_dict().items()
            if key.endswith(".1")}
        if kind == "adam":
            assert optimizer._step_count == 2

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_float32_parameter_raises_naming_it(self, kind):
        params = [nn.Parameter(np.zeros(3)),
                  nn.Parameter(np.zeros((2, 2), dtype=np.float32))]
        optimizer = _optimizer(kind, params)
        for param in params:
            param.grad = np.ones_like(param.data)
        with pytest.raises(TypeError, match="parameter 1 .* float32"):
            optimizer.step()
        assert not params[0].data.any()
        if kind == "adam":
            assert optimizer._step_count == 0
