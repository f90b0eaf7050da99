"""Functional neural-network operations for :mod:`repro.nn`.

These functions operate on :class:`~repro.nn.tensor.Tensor` objects and are
fully differentiable.  They cover the needs of the streaming models used in
the FreewayML reproduction: linear layers, the usual activations, softmax /
cross-entropy losses, and 2-D convolution + max pooling for the CNN
experiments in the paper's appendix.

``fused_linear``, ``dropout``, ``cross_entropy``, the inference
``softmax``, ``conv2d`` and ``max_pool2d`` are single autograd nodes that
run the shared kernels of :mod:`repro.nn.kernels` on fresh buffers;
``linear``, ``log_softmax`` and ``nll_loss`` are the general op chains
those kernels stand for.
"""

from __future__ import annotations

import functools

import numpy as np

from . import kernels as K
from . import record as _record
from .tensor import Tensor

__all__ = [
    "linear",
    "fused_linear",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "dropout",
    "conv2d",
    "max_pool2d",
    "one_hot",
]


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with torch-style weight layout.

    ``weight`` has shape ``(out_features, in_features)`` and ``bias`` shape
    ``(out_features,)``.
    """
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    if rec is not None:
        rec.end(("linear", x, weight, bias, None, out))
    return out


def fused_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                 activation: str | None = None) -> Tensor:
    """Affine map (optionally + activation) as a *single* autograd node.

    The float operations of ``linear(x, weight, bias)`` followed by the
    ``Tensor`` activation (``"relu"``, ``"tanh"`` or ``"sigmoid"``), run
    by the kernels :func:`~repro.nn.kernels.linear_forward` and
    :func:`~repro.nn.kernels.activation_forward`.  What it saves is graph
    overhead: one node and one closure instead of three to five per layer
    — which dominates at streaming batch sizes (see ``docs/PERF.md``).
    With a leading model axis on ``x``, ``weight`` and ``bias`` (how
    :class:`~repro.nn.stacked.ModelStack` runs), each model slice is
    computed as its own 2-D call would be.

    Other input ranks fall back to the unfused chain.
    """
    x = _as_tensor(x)
    xd, wd = x.data, weight.data
    if xd.ndim != wd.ndim or wd.ndim not in (2, 3):
        out = linear(x, weight, bias)
        return out if activation is None else getattr(out, activation)()
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    out = np.empty(xd.shape[:-1] + wd.shape[-2:-1],
                   dtype=np.result_type(xd, wd))
    K.linear_forward(xd, wd, None if bias is None else bias.data, out)
    if activation is not None:
        K.activation_forward(activation, out, out)

    parents = (x, weight) if bias is None else (x, weight, bias)
    # A data input (every first layer's) takes no gradient, and
    # Tensor._deliver would discard one: skip its gemm.
    input_grad = x.requires_grad

    def backward(g: np.ndarray):
        if activation is not None:
            g_act = K.empty_result(g, out)
            mask = scratch = None
            if activation == "relu":
                mask = np.empty(out.shape, dtype=bool)
            else:
                scratch = np.empty_like(out)
            K.activation_backward(activation, g, out, mask, g_act, scratch)
            g = g_act
        dtype = np.result_type(g, wd)
        grad_x = np.empty(xd.shape, dtype=dtype) if input_grad else None
        grad_weight = np.empty(wd.shape, dtype=dtype)
        grad_bias = (None if bias is None
                     else np.empty(bias.data.shape, dtype=g.dtype))
        K.linear_backward(xd, wd, g, grad_x,
                          np.empty(np.swapaxes(wd, -1, -2).shape, dtype=dtype),
                          grad_weight, grad_bias)
        if bias is None:
            return grad_x, grad_weight
        return grad_x, grad_weight, grad_bias

    out_t = Tensor._make(out, parents, backward)
    if rec is not None:
        rec.end(("linear", x, weight, bias, activation, out_t))
    return out_t


def _recorded_activation(x: Tensor, name: str) -> Tensor:
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    out = getattr(x, name)()
    if rec is not None:
        rec.end(("act", name, x, out))
    return out


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _recorded_activation(_as_tensor(x), "relu")


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return _recorded_activation(_as_tensor(x), "sigmoid")


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return _recorded_activation(_as_tensor(x), "tanh")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``.

    Without a gradient to carry it builds no graph: the kernel
    :func:`~repro.nn.kernels.softmax_forward` runs the ``log_softmax(x)
    .exp()`` chain's ufuncs on raw arrays.
    """
    x = _as_tensor(x)
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    if x.requires_grad:
        out = log_softmax(x, axis=axis).exp()
    else:
        data = x.data
        norm_shape = list(data.shape)
        norm_shape[axis] = 1
        probabilities = np.empty_like(data)
        K.softmax_forward(data, axis, probabilities, np.empty_like(data),
                          np.empty(norm_shape, dtype=data.dtype))
        out = Tensor(probabilities)
    if rec is not None:
        rec.end(("softmax", axis, x, out))
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` as a ``(n, num_classes)`` one-hot matrix."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}); got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log likelihood of integer ``labels`` under ``log_probs``."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    mask = Tensor(one_hot(labels, log_probs.shape[-1]))
    picked = (log_probs * mask).sum(axis=-1)
    return -picked.mean()


def _cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy of ``(…, rows, classes)`` logits as one node.

    ``labels`` is an int64 array of shape ``(…, rows)``.  The loss is 0-d
    for 2-D logits, and one per model with a leading model axis (seed
    ``backward`` with ones to mirror each model's own scalar backward).
    The kernels :func:`~repro.nn.kernels.cross_entropy_forward` and
    ``cross_entropy_backward`` replay ``nll_loss(log_softmax(logits))``
    and its ten backward closures, float op for float op.
    """
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    x = logits.data
    shape = x.shape
    mask = np.empty(shape)
    shifted = np.empty_like(x)
    expb = np.empty_like(x)
    prod = K.empty_result(shifted, mask)
    norm = np.empty(shape[:-1] + (1,))
    lognorm = np.empty(shape[:-1] + (1,))
    loss = np.empty(shape[:-2], dtype=prod.dtype)
    K.cross_entropy_forward(x, labels, K.label_index(shape), mask, shifted,
                            expb, prod, norm, lognorm,
                            np.empty(shape[:-1], dtype=prod.dtype), loss)
    inv_count = 1.0 / shape[-2]

    def backward(g: np.ndarray):
        grad = np.empty(shape, dtype=prod.dtype)
        K.cross_entropy_backward((-g * inv_count)[..., None, None], mask,
                                 expb, norm, grad, prod, lognorm)
        return (grad,)

    out = Tensor._make(loss, (logits,), backward)
    if rec is not None:
        rec.end(("ce", logits, out))
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``labels``.

    2-D logits run as one autograd node over the shared kernels; other
    shapes take the general ``nll_loss(log_softmax(logits))`` chain.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim == 2:
        return _cross_entropy(
            logits, np.asarray(labels, dtype=np.int64).reshape(-1))
    return nll_loss(log_softmax(logits, axis=-1), labels)


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error."""
    target_t = _as_tensor(target).detach()
    diff = prediction - target_t
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor, target) -> Tensor:
    """Stable binary cross-entropy on raw logits (mean over elements)."""
    target_t = _as_tensor(target).detach()
    # log(1 + exp(-|x|)) + max(x, 0) - x * y, the standard stable form.
    x = logits
    max_part = x.relu()
    abs_x = x.abs()
    log_part = ((-abs_x).exp() + 1.0).log()
    return (max_part - x * target_t + log_part).mean()


def dropout(x: Tensor, p: float, training: bool, rng) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` in training.

    ``rng`` is the layer's ``np.random.Generator``; with a leading model
    axis it is a sequence of generators, one per model row.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1); got {p}")
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    data = x.data
    mask = np.empty(data.shape, dtype=data.dtype)
    draw = mask if mask.dtype == np.float64 else np.empty(data.shape)
    out = K.empty_result(data, mask)
    K.dropout_forward(data, p, rng, draw, mask, out)

    def backward(g: np.ndarray):
        grad = K.empty_result(g, mask)
        K.dropout_backward(g, mask, grad)
        return (grad,)

    out_t = Tensor._make(out, (x,), backward)
    if rec is not None:
        rec.end(("dropout", p, rng, x, out_t))
    return out_t


# ---------------------------------------------------------------------------
# Convolution via im2col, and max pooling.
# ---------------------------------------------------------------------------


def _pair(value) -> tuple[int, int]:
    """Normalize an int-or-pair argument to an ``(h, w)`` tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _im2col_indices(x_shape, kernel_h, kernel_w, stride, padding):
    """The ``(k, i, j)`` positions im2col reads, and the output size.

    Memoized: the arguments fully determine them, and callers only ever
    read the returned arrays.  The row count does not enter.
    """
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)
    return _im2col_indices_cached(tuple(x_shape[1:]), int(kernel_h),
                                  int(kernel_w), stride_h, stride_w, pad_h,
                                  pad_w)


@functools.lru_cache(maxsize=128)
def _im2col_indices_cached(image_shape, kernel_h, kernel_w, stride_h,
                           stride_w, pad_h, pad_w):
    channels, height, width = image_shape
    out_h = (height + 2 * pad_h - kernel_h) // stride_h + 1
    out_w = (width + 2 * pad_w - kernel_w) // stride_w + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv2d output would be empty for input {image_shape} with "
            f"kernel ({kernel_h},{kernel_w}), stride ({stride_h},{stride_w}), "
            f"padding ({pad_h},{pad_w})"
        )
    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j, out_h, out_w


def _col2im(cols, x_shape, kernel_h, kernel_w, stride, padding):
    """The input gradient from its im2col columns: a view of the
    interior of a fresh padded buffer (:func:`~repro.nn.kernels.col2im`)."""
    batch, channels, height, width = x_shape
    pad_h, pad_w = _pair(padding)
    k, i, j, _, _ = _im2col_indices(x_shape, kernel_h, kernel_w, stride,
                                    padding)
    padded = np.empty((batch, channels, height + 2 * pad_h,
                       width + 2 * pad_w), dtype=cols.dtype)
    K.col2im(cols, (k, i, j), padded)
    return padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation, as in PyTorch).

    ``x`` has shape ``(batch, in_channels, H, W)`` and ``weight`` has shape
    ``(out_channels, in_channels, kh, kw)``.  ``stride`` and ``padding`` may
    be ints or ``(h, w)`` pairs, so 1-D convolutions over tabular features
    can be expressed as ``(1, k)`` kernels.

    One autograd node over the kernels :func:`~repro.nn.kernels.im2col`,
    ``conv2d_forward``, ``conv2d_backward`` and ``col2im``, on fresh
    buffers in the layouts a plan's arena keeps.  An input that takes no
    gradient (every first layer's data) skips the input-gradient einsum
    and the scatter.
    """
    x = _as_tensor(x)
    kernel_out, kernel_in, kernel_h, kernel_w = weight.shape
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (batch, C, H, W) input; got shape {x.shape}")
    if x.shape[1] != kernel_in:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {kernel_in}"
        )
    stride, padding = _pair(stride), _pair(padding)
    _, _, _, out_h, out_w = _im2col_indices(x.shape, kernel_h, kernel_w,
                                            stride, padding)
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    xd, wd = x.data, weight.data
    padded, cols = K.im2col_buffers(xd.shape, (kernel_h, kernel_w), padding,
                                    (out_h, out_w), xd.dtype)
    K.im2col(xd, (kernel_h, kernel_w), stride, padding, padded, cols)
    dtype = np.result_type(xd, wd)
    out = K.batch_fastest((len(xd), kernel_out, out_h, out_w), dtype)
    K.conv2d_forward(wd, None if bias is None else bias.data, cols, out)

    x_shape = xd.shape
    input_grad = x.requires_grad
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        grad_dtype = np.result_type(g, cols)
        weight_cols = np.empty(cols.shape[1:2] + (kernel_out,),
                               dtype=grad_dtype).T
        grad_weight = np.empty(wd.shape, dtype=grad_dtype)
        grad_bias = (None if bias is None
                     else np.empty(bias.data.shape, dtype=g.dtype))
        grad_cols = (np.empty(cols.shape, dtype=np.result_type(wd, g))
                     if input_grad else None)
        K.conv2d_backward(wd, g, cols, weight_cols, grad_weight, grad_bias,
                          grad_cols)
        grad_x = None
        if input_grad:
            grad_x = _col2im(grad_cols, x_shape, kernel_h, kernel_w, stride,
                             padding)
        if bias is None:
            return grad_x, grad_weight
        return grad_x, grad_weight, grad_bias

    out_t = Tensor._make(out, parents, backward)
    if rec is not None:
        rec.end(("conv", x, weight, bias, stride, padding, out_t))
    return out_t


def _pool_geometry(shape, kernel_size, stride):
    """``((kh, kw), (sh, sw), (oh, ow))`` of a pool over ``shape``."""
    kernel = _pair(kernel_size)
    stride = _pair(kernel_size if stride is None else stride)
    out_shape = tuple((size - k) // s + 1 for size, k, s
                      in zip(shape[2:], kernel, stride))
    if min(out_shape) <= 0:
        raise ValueError(
            f"max_pool2d output would be empty for input {tuple(shape)} with "
            f"kernel ({kernel[0]},{kernel[1]}), stride ({stride[0]},{stride[1]})"
        )
    return kernel, stride, out_shape


def max_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """2-D max pooling over ``(batch, channels, H, W)`` input.

    ``kernel_size`` and ``stride`` may be ints or ``(h, w)`` pairs.  Each
    window yields its first maximum, as ``argmax`` picks it: a later
    kernel offset wins only with a strictly larger value, or with a NaN
    while the running maximum is not NaN.  Ties, signed zeros and NaN
    windows therefore keep the earliest element's bits, and the gradient
    goes to that element alone.

    One autograd node over :func:`~repro.nn.kernels.max_pool2d_forward`
    and ``max_pool2d_backward``.  The running maximum keeps the input's
    memory order (the windows are strided views of it), so its passes
    walk memory sequentially; the output is C-ordered, as an im2col
    gather returned it, because a matmul downstream can round
    differently over another layout.
    """
    x = _as_tensor(x)
    data = x.data
    kernel, stride, out_shape = _pool_geometry(data.shape, kernel_size,
                                               stride)
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    buffers = K.max_pool2d_buffers(data, kernel, stride, out_shape)
    winner = buffers[-1]
    out = np.empty(winner.shape, dtype=data.dtype)
    K.max_pool2d_forward(data, kernel, stride, *buffers, out)
    overlapping = stride[0] < kernel[0] or stride[1] < kernel[1]

    def backward(g: np.ndarray):
        grad = np.empty(data.shape, dtype=data.dtype)
        share = np.empty_like(g)
        K.max_pool2d_backward(g, winner, kernel, stride,
                              np.empty(g.shape, dtype=bool), share,
                              np.empty_like(g) if overlapping else None, grad)
        return (grad,)

    out_t = Tensor._make(out, (x,), backward)
    if rec is not None:
        rec.end(("pool", x, kernel, stride, out_t))
    return out_t
