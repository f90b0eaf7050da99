"""The kernels ``repro.nn`` replaced, kept as bitwise references.

``max_pool2d`` once folded channels into the batch, gathered im2col
columns, took their ``argmax`` and scattered the gradient back with
``np.add.at``; ``Tensor.relu`` once built its output with a masked
``np.where`` select and kept its mask in the input's memory layout.  The
fast kernels promise these implementations' bits, including the memory
layout of every output and gradient.  SGD and Adam once stepped each
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

__all__ = ["ref_max_pool2d", "ref_relu", "ref_sgd_step", "ref_adam_step"]


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
