"""Functional neural-network operations for :mod:`repro.nn`.

These functions operate on :class:`~repro.nn.tensor.Tensor` objects and are
fully differentiable.  They cover the needs of the streaming models used in
the FreewayML reproduction: linear layers, the usual activations, softmax /
cross-entropy losses, and 2-D convolution + max pooling for the CNN
experiments in the paper's appendix.
"""

from __future__ import annotations

import functools

import numpy as np

from ..perf.config import config as _perf_config
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


_FUSED_ACTIVATIONS = ("relu", "tanh", "sigmoid")


def fused_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                 activation: str | None = None) -> Tensor:
    """Affine map (optionally + activation) as a *single* autograd node.

    Numerically this is bitwise-identical to ``linear(x, weight, bias)``
    followed by the activation: the forward replays the exact float
    expressions of the unfused op chain, and the backward replays the
    gemm calls the chain's matmul/transpose closures would have issued
    (``grad_W = (x.T @ g).T``, ``grad_x = g @ W``, bias unbroadcast by
    the delivery path).  What it saves is graph overhead: one node and
    one closure instead of three to five per layer — which dominates at
    streaming batch sizes (see ``docs/PERF.md``).

    Falls back to the unfused chain for non-2D inputs.
    """
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 2 or weight.data.ndim != 2:
        out = linear(x, weight, bias)
        if activation == "relu":
            return out.relu()
        if activation == "tanh":
            return out.tanh()
        if activation == "sigmoid":
            return out.sigmoid()
        return out
    if activation is not None and activation not in _FUSED_ACTIVATIONS:
        raise ValueError(f"unsupported fused activation: {activation!r}")
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    wd = weight.data
    out = xd @ wd.T
    if bias is not None:
        # The product buffer is private (fresh from the gemm), so the bias
        # add can land in place — same ufunc, same bits, one less alloc.
        np.add(out, bias.data, out=out)
    # act_state is what the activation's backward needs: the relu mask, or
    # the activation output itself for tanh/sigmoid.
    act_state = None
    if activation == "relu":
        act_state = out > 0
        out = np.maximum(out, 0.0)
    elif activation == "tanh":
        out = np.tanh(out)
        act_state = out
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-np.clip(out, -60.0, 60.0)))
        act_state = out

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        if activation == "relu":
            g = g * act_state
        elif activation == "tanh":
            g = g * (1.0 - act_state * act_state)
        elif activation == "sigmoid":
            g = g * act_state * (1.0 - act_state)
        grad_x = g @ wd
        grad_weight = (xd.T @ g).T
        if bias is None:
            return grad_x, grad_weight
        return grad_x, grad_weight, g

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
    """Softmax along ``axis``."""
    x = _as_tensor(x)
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    if _perf_config.fused_loss and not x.requires_grad:
        # Inference fast path: no gradient can flow, so skip graph
        # construction and run the identical ufunc sequence on raw
        # arrays (max → sub → exp → sum → log → sub → exp).
        data = x.data
        shifted = data - data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = Tensor(np.exp(shifted - log_norm))
    else:
        out = log_softmax(x, axis=axis).exp()
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


def _fused_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """``nll_loss(log_softmax(logits))`` as one autograd node.

    Bitwise-identical to the unfused chain: the forward replays its exact
    ufunc sequence, and the backward replays — in the same order — every
    float operation the chain's ten node closures would have run (the
    broadcast copies, the ``(-g).sum`` unbroadcast of the log-norm grad,
    and the two-consumer pair addition at the shifted logits).  What it
    saves is ten Tensor allocations and closure round-trips per loss
    evaluation.
    """
    x = logits.data
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    mask = one_hot(labels, x.shape[-1])
    shifted = x - x.max(axis=-1, keepdims=True)
    exp_shifted = np.exp(shifted)
    norm = exp_shifted.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(norm)
    picked = (log_probs * mask).sum(axis=-1)
    inv_count = 1.0 / picked.size
    loss = -(picked.sum() * inv_count)
    rows, cols = x.shape

    def backward(g: np.ndarray):
        # Broadcast *views* stand in for the chain's materialized copies:
        # the consumers below are elementwise, so the products come out
        # bit-for-bit the same without the intermediate allocations.
        g_picked = np.broadcast_to(-g * inv_count, (rows,))
        g_log_probs = np.broadcast_to(
            np.expand_dims(g_picked, -1), (rows, cols)
        )
        g_masked = g_log_probs * mask
        g_log_norm = (-g_masked).sum(axis=(1,), keepdims=True)
        g_exp = np.broadcast_to(g_log_norm / norm, (rows, cols))
        return (g_masked + g_exp * exp_shifted,)

    return Tensor._make(loss, (logits,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``labels``."""
    logits = _as_tensor(logits)
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    if _perf_config.fused_loss and logits.data.ndim == 2:
        out = _fused_cross_entropy(logits, labels)
    else:
        out = nll_loss(log_softmax(logits, axis=-1), labels)
    if rec is not None:
        # One descriptor for both paths: the fused node replays the
        # unfused chain's exact float ops, so one replay kernel serves
        # either (the capture-time verify holds it to that).
        rec.end(("ce", logits, out))
    return out


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


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` in training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1); got {p}")
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = x * Tensor(mask)
    if rec is not None:
        rec.end(("dropout", p, rng, x, out))
    return out


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
    # np.where results), so its passes walk memory sequentially.  The
    # winning offsets are C-ordered, like the gradients they route.
    out = data[windows[0]]
    winner = np.zeros(out.shape, dtype=np.min_scalar_type(len(windows) - 1))
    for offset, window in enumerate(windows[1:], start=1):
        candidate = data[window]
        # ``<=`` is False when either side is NaN, so this takes strictly
        # larger values and NaNs, except over a maximum that is NaN.
        take = ~(candidate <= out) & (out == out)
        out = np.where(take, candidate, out)
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
        for offset, window in enumerate(windows):
            share = np.where(winner == offset, g, 0.0)
            view = grad[window]
            view += share
            if overlapping:
                np.copyto(view, share, where=np.isnan(share))
        return (grad,)

    return Tensor._make(out, (x,), backward)
