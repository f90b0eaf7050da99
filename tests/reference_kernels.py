"""The kernels ``repro.nn`` replaced, kept as bitwise references.

``max_pool2d`` once folded channels into the batch, gathered im2col
columns, took their ``argmax`` and scattered the gradient back with
``np.add.at``; ``Tensor.relu`` once built its output with a masked
``np.where`` select and kept its mask in the input's memory layout;
``conv2d`` once gathered its columns with fancy indexing and ran its
einsums on fresh arrays.  The fast kernels promise these
implementations' bits, including the memory layout of every output and
gradient.  SGD and Adam once stepped each
parameter through whole-array expressions on fresh arrays;
``kernels.sgd_step`` and ``kernels.adam_step`` promise those
expressions' bits.  No flag switches the old implementations back on, so
they live here: ``test_cnn_kernels.py`` and ``test_kernels.py`` fuzz the
fast kernels against them, and ``conftest.reference_ops`` patches them
in for whole-model runs.
"""

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor

__all__ = ["ref_conv2d", "ref_max_pool2d", "ref_relu", "ref_sgd_step",
           "ref_adam_step"]


def _ref_im2col_indices(x_shape, kernel_h, kernel_w, stride_h, stride_w):
    _, channels, height, width = x_shape
    out_h = (height - kernel_h) // stride_h + 1
    out_w = (width - kernel_w) // stride_w + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("pool output would be empty")
    i0 = np.tile(np.repeat(np.arange(kernel_h), kernel_w), channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j, out_h, out_w


def _ref_col2im(cols, x_shape, kernel_h, kernel_w, stride_h, stride_w):
    k, i, j, _, _ = _ref_im2col_indices(x_shape, kernel_h, kernel_w,
                                        stride_h, stride_w)
    image = np.zeros(x_shape, dtype=cols.dtype)
    np.add.at(image, (slice(None), k, i, j), cols)
    return image


def ref_max_pool2d(x, kernel_size, stride=None):
    """The im2col pool: channels folded into the batch, ``argmax`` over
    each window's column, ``np.add.at`` scatter back."""
    kernel_h, kernel_w = F._pair(kernel_size)
    stride_h, stride_w = F._pair(kernel_size if stride is None else stride)
    batch, channels, height, width = x.shape
    folded = x.data.reshape(batch * channels, 1, height, width)
    k, i, j, out_h, out_w = _ref_im2col_indices(
        folded.shape, kernel_h, kernel_w, stride_h, stride_w)
    cols = folded[:, k, i, j]  # (batch*channels, kh*kw, positions)
    argmax = cols.argmax(axis=1)
    positions = np.arange(cols.shape[2])
    rows = np.arange(cols.shape[0])[:, None]
    out = cols[rows, argmax, positions].reshape(batch, channels, out_h, out_w)

    def backward(g):
        grad_cols = np.zeros_like(cols)
        grad_cols[rows, argmax, positions] = g.reshape(batch * channels, -1)
        grad = _ref_col2im(grad_cols, folded.shape, kernel_h, kernel_w,
                           stride_h, stride_w)
        return (grad.reshape(batch, channels, height, width),)

    return Tensor._make(out, (x,), backward)


def _ref_conv_indices(x_shape, kernel_h, kernel_w, stride, padding):
    stride_h, stride_w = F._pair(stride)
    pad_h, pad_w = F._pair(padding)
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


def _ref_im2col(x, kernel_h, kernel_w, stride, padding):
    k, i, j, out_h, out_w = _ref_conv_indices(
        x.shape, kernel_h, kernel_w, stride, padding
    )
    pad_h, pad_w = F._pair(padding)
    if pad_h == 0 and pad_w == 0:
        cols = x[:, k, i, j]  # (batch, C*kh*kw, out_h*out_w)
        return cols, out_h, out_w
    padded = np.zeros((x.shape[0], x.shape[1],
                       x.shape[2] + 2 * pad_h, x.shape[3] + 2 * pad_w),
                      dtype=x.dtype)
    padded[:, :, pad_h:pad_h + x.shape[2], pad_w:pad_w + x.shape[3]] = x
    cols = padded[:, k, i, j]
    return cols, out_h, out_w


def _ref_conv_col2im(cols, x_shape, kernel_h, kernel_w, stride, padding):
    batch, channels, height, width = x_shape
    pad_h, pad_w = F._pair(padding)
    k, i, j, _, _ = _ref_conv_indices(x_shape, kernel_h, kernel_w, stride,
                                      padding)
    padded = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w),
        dtype=cols.dtype,
    )
    np.add.at(padded, (slice(None), k, i, j), cols)
    row_end = padded.shape[2] - pad_h
    col_end = padded.shape[3] - pad_w
    return padded[:, :, pad_h:row_end, pad_w:col_end]


def ref_conv2d(x, weight, bias=None, stride=1, padding=0):
    """The fresh-array conv: fancy-index im2col gather, einsums on fresh
    arrays, ``np.add.at`` col2im."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    kernel_out, kernel_in, kernel_h, kernel_w = weight.shape
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (batch, C, H, W) input; got shape {x.shape}")
    if x.shape[1] != kernel_in:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {kernel_in}"
        )
    cols, out_h, out_w = _ref_im2col(x.data, kernel_h, kernel_w, stride,
                                     padding)
    weight_mat = weight.data.reshape(kernel_out, -1)
    out = np.einsum("of,bfp->bop", weight_mat, cols)
    out = out.reshape(x.shape[0], kernel_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    x_shape = x.shape
    input_grad = x.requires_grad
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g_mat = g.reshape(g.shape[0], kernel_out, -1)  # (batch, out_c, positions)
        grad_weight = np.einsum("bop,bfp->of", g_mat, cols).reshape(weight.shape)
        grad_x = None
        if input_grad:
            grad_cols = np.einsum("of,bop->bfp", weight_mat, g_mat)
            grad_x = _ref_conv_col2im(grad_cols, x_shape, kernel_h,
                                      kernel_w, stride, padding)
        if bias is None:
            return grad_x, grad_weight
        grad_bias = g.sum(axis=(0, 2, 3))
        return grad_x, grad_weight, grad_bias

    return Tensor._make(out, parents, backward)


def ref_relu(self):
    """The masked-select ReLU, its mask in the input's memory layout."""
    mask = self.data > 0
    data = np.where(mask, self.data, 0.0)
    return Tensor._make(data, (self,), lambda g: (g * mask,))


def ref_sgd_step(param, grad, velocity, scratch, lr, momentum,
                 weight_decay):
    """The per-parameter SGD loop: its expressions on fresh arrays, the
    results copied into ``kernels.sgd_step``'s buffers."""
    if weight_decay:
        grad = grad + weight_decay * param
    if momentum:
        grad = momentum * velocity + grad
        np.copyto(velocity, grad)
    np.copyto(param, param - lr * grad)


def ref_adam_step(param, grad, m, v, scratch_a, scratch_b, lr, beta1, beta2,
                  eps, weight_decay, step):
    """The per-parameter Adam loop: its expressions on fresh arrays, the
    results copied into ``kernels.adam_step``'s buffers."""
    bias1 = 1.0 - beta1 ** step
    bias2 = 1.0 - beta2 ** step
    if weight_decay:
        grad = grad + weight_decay * param
    new_m = beta1 * m + (1.0 - beta1) * grad
    new_v = beta2 * v + (1.0 - beta2) * grad * grad
    np.copyto(m, new_m)
    np.copyto(v, new_v)
    m_hat = new_m / bias1
    v_hat = new_v / bias2
    np.copyto(param, param - lr * m_hat / (np.sqrt(v_hat) + eps))
