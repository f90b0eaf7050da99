"""Functional neural-network operations for :mod:`repro.nn`.

These functions operate on :class:`~repro.nn.tensor.Tensor` objects and are
fully differentiable.  They cover the needs of the streaming models used in
the FreewayML reproduction: linear layers, the usual activations, softmax /
cross-entropy losses, and 2-D convolution + max pooling for the CNN
experiments in the paper's appendix.

``fused_linear``, ``dropout``, ``cross_entropy`` and the inference
``softmax`` are single autograd nodes that run the shared kernels of
:mod:`repro.nn.kernels` on fresh buffers; ``linear``, ``log_softmax`` and
``nll_loss`` are the general op chains those kernels stand for.
"""

from __future__ import annotations

import functools

import numpy as np

from . import kernels as K
from . import record as _record
from .tensor import Tensor, is_grad_enabled

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
    mask = None
    if activation is not None:
        if activation == "relu" and is_grad_enabled():
            mask = np.empty(out.shape, dtype=bool)
        K.activation_forward(activation, out, out, mask)

    parents = (x, weight) if bias is None else (x, weight, bias)
    # A data input (every first layer's) takes no gradient, and
    # Tensor._deliver would discard one: skip its gemm.
    input_grad = x.requires_grad

    def backward(g: np.ndarray):
        if activation is not None:
            g_act = K.empty_result(g, out)
            scratch = None if activation == "relu" else np.empty_like(out)
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
# Convolution via im2col.
# ---------------------------------------------------------------------------


def _pair(value) -> tuple[int, int]:
    """Normalize an int-or-pair argument to an ``(h, w)`` tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _im2col_indices(x_shape, kernel_h, kernel_w, stride, padding):
    """Gather indices for im2col — memoized, the args fully determine them.

    Streaming models call conv2d with the same shapes every batch; the
    repeat/tile index construction is pure overhead after the first call.
    Callers only ever *read* the returned arrays (fancy indexing), so
    sharing cached instances is safe.
    """
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)
    return _im2col_indices_cached(tuple(x_shape), int(kernel_h), int(kernel_w),
                                  stride_h, stride_w, pad_h, pad_w)


@functools.lru_cache(maxsize=128)
def _im2col_indices_cached(x_shape, kernel_h, kernel_w, stride_h, stride_w,
                           pad_h, pad_w):
    batch, channels, height, width = x_shape
    out_h = (height + 2 * pad_h - kernel_h) // stride_h + 1
    out_w = (width + 2 * pad_w - kernel_w) // stride_w + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv2d output would be empty for input {x_shape} with "
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


def _im2col(x: np.ndarray, kernel_h, kernel_w, stride, padding):
    k, i, j, out_h, out_w = _im2col_indices(
        x.shape, kernel_h, kernel_w, stride, padding
    )
    pad_h, pad_w = _pair(padding)
    if pad_h == 0 and pad_w == 0:
        # No padding: gather straight from the input, skipping np.pad's
        # full copy.  Fancy indexing yields the identical fresh array.
        cols = x[:, k, i, j]  # (batch, C*kh*kw, out_h*out_w)
        return cols, out_h, out_w
    padded = np.zeros((x.shape[0], x.shape[1],
                       x.shape[2] + 2 * pad_h, x.shape[3] + 2 * pad_w),
                      dtype=x.dtype)
    padded[:, :, pad_h:pad_h + x.shape[2], pad_w:pad_w + x.shape[3]] = x
    cols = padded[:, k, i, j]
    return cols, out_h, out_w


def _col2im(cols: np.ndarray, x_shape, kernel_h, kernel_w, stride, padding):
    batch, channels, height, width = x_shape
    pad_h, pad_w = _pair(padding)
    k, i, j, _, _ = _im2col_indices(x_shape, kernel_h, kernel_w, stride, padding)
    padded = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w),
        dtype=cols.dtype,
    )
    np.add.at(padded, (slice(None), k, i, j), cols)
    row_end = padded.shape[2] - pad_h
    col_end = padded.shape[3] - pad_w
    return padded[:, :, pad_h:row_end, pad_w:col_end]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation, as in PyTorch).

    ``x`` has shape ``(batch, in_channels, H, W)`` and ``weight`` has shape
    ``(out_channels, in_channels, kh, kw)``.  ``stride`` and ``padding`` may
    be ints or ``(h, w)`` pairs, so 1-D convolutions over tabular features
    can be expressed as ``(1, k)`` kernels.
    """
    x = _as_tensor(x)
    kernel_out, kernel_in, kernel_h, kernel_w = weight.shape
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (batch, C, H, W) input; got shape {x.shape}")
    if x.shape[1] != kernel_in:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {kernel_in}"
        )
    cols, out_h, out_w = _im2col(x.data, kernel_h, kernel_w, stride, padding)
    weight_mat = weight.data.reshape(kernel_out, -1)
    out = np.einsum("of,bfp->bop", weight_mat, cols)
    out = out.reshape(x.shape[0], kernel_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    x_shape = x.shape
    # A data input (every first conv layer's) takes no gradient, and
    # Tensor._deliver would discard one: skip the einsum and the scatter.
    input_grad = x.requires_grad
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        g_mat = g.reshape(g.shape[0], kernel_out, -1)  # (batch, out_c, positions)
        grad_weight = np.einsum("bop,bfp->of", g_mat, cols).reshape(weight.shape)
        grad_x = None
        if input_grad:
            grad_cols = np.einsum("of,bop->bfp", weight_mat, g_mat)
            grad_x = _col2im(grad_cols, x_shape, kernel_h, kernel_w, stride,
                             padding)
        if bias is None:
            return grad_x, grad_weight
        grad_bias = g.sum(axis=(0, 2, 3))
        return grad_x, grad_weight, grad_bias

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """2-D max pooling over ``(batch, channels, H, W)`` input.

    ``kernel_size`` and ``stride`` may be ints or ``(h, w)`` pairs.  Each
    window yields its first maximum, as ``argmax`` picks it: a later
    kernel offset wins only with a strictly larger value, or with a NaN
    while the running maximum is not NaN.  Ties, signed zeros and NaN
    windows therefore keep the earliest element's bits, and the gradient
    goes to that element alone.
    """
    x = _as_tensor(x)
    kernel_h, kernel_w = _pair(kernel_size)
    stride_h, stride_w = _pair(kernel_size if stride is None else stride)
    _, _, height, width = x.shape
    out_h = (height - kernel_h) // stride_h + 1
    out_w = (width - kernel_w) // stride_w + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"max_pool2d output would be empty for input {x.shape} with "
            f"kernel ({kernel_h},{kernel_w}), stride ({stride_h},{stride_w})"
        )
    # One strided view per kernel offset, in row-major offset order: view
    # ``k`` holds element ``k`` of every window.
    windows = [
        (slice(None), slice(None),
         slice(ki, ki + stride_h * (out_h - 1) + 1, stride_h),
         slice(kj, kj + stride_w * (out_w - 1) + 1, stride_w))
        for ki in range(kernel_h) for kj in range(kernel_w)
    ]
    data = x.data
    # The running maximum keeps the input's memory order (a view, then
    # select results), so its passes walk memory sequentially.  The
    # winning offsets are C-ordered, like the gradients they route.
    out = data[windows[0]]
    winner = np.zeros(out.shape, dtype=np.min_scalar_type(len(windows) - 1))
    for offset, window in enumerate(windows[1:], start=1):
        candidate = data[window]
        # ``<=`` is False when either side is NaN, so this takes strictly
        # larger values and NaNs, except over a maximum that is NaN.
        take = ~(candidate <= out) & (out == out)
        # In the input's dtype, byte order included: the select moves bits.
        selected = K.empty_result(candidate, out).view(data.dtype)
        K.select(take, candidate, out, selected)
        out = selected
        # Offsets only grow, so each take raises its window's winner.
        np.maximum(winner, take * winner.dtype.type(offset), out=winner)
    # Hand back a fresh C-ordered array, as an im2col gather returns it:
    # a matmul downstream can round differently over another layout.
    out = out.copy() if len(windows) == 1 else np.ascontiguousarray(out)

    overlapping = stride_h < kernel_h or stride_w < kernel_w

    def backward(g: np.ndarray):
        # Adding each offset's share into zeros, in offset order, is the
        # ``0.0 + g`` sum an np.add.at scatter of the window columns
        # computes.  Where windows overlap, two NaN shares can meet in one
        # element: the scatter keeps the later NaN, but a vectorized add
        # may keep either, so the later one is copied over.  Adding 0.0 to
        # g first quiets its NaNs as the sum would, and changes no sum.
        if overlapping:
            g = g + 0.0
        grad = np.zeros(data.shape, dtype=data.dtype)
        share = np.empty_like(g)
        for offset, window in enumerate(windows):
            K.select(winner == offset, g, None, share)
            view = grad[window]
            view += share
            if overlapping:
                np.copyto(view, share, where=np.isnan(share))
        return (grad,)

    return Tensor._make(out, (x,), backward)
