"""Shared fixtures for the FreewayML reproduction test suite."""

import contextlib

import numpy as np
import pytest


@pytest.fixture
def rng():
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def blob_data(rng):
    """Two well-separated Gaussian blobs: (x, y), 200 points, 2 classes."""
    x0 = rng.normal(loc=-2.0, scale=0.5, size=(100, 4))
    x1 = rng.normal(loc=2.0, scale=0.5, size=(100, 4))
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(100, dtype=np.int64),
                        np.ones(100, dtype=np.int64)])
    order = rng.permutation(200)
    return x[order], y[order]


def numeric_gradient(fn, array, eps=1e-6):
    """Central-difference gradient of scalar fn with respect to array."""
    grad = np.zeros_like(array)
    for index in np.ndindex(array.shape):
        original = array[index]
        array[index] = original + eps
        upper = fn()
        array[index] = original - eps
        lower = fn()
        array[index] = original
        grad[index] = (upper - lower) / (2.0 * eps)
    return grad


@contextlib.contextmanager
def reference_ops():
    """Route every fast op to the general op it stands for, plans off.

    ``Sequential`` runs its layers one by one, ``Linear`` through
    ``F.linear``; cross-entropy is ``nll_loss(log_softmax(...))`` and
    softmax ``log_softmax(...).exp()``; ``EmbeddingHistory.nearest`` calls
    ``nearest_distance``; and the CNN and optimizer kernels become the
    implementations they replaced (``reference_kernels``): the fresh-array
    im2col conv, the im2col/``argmax`` max-pool, the ``np.where`` ReLU with
    its mask in the input's layout, and SGD's and Adam's per-parameter
    expressions on fresh arrays.  What stays is the fast path's only
    reference: a model run end to end under this context must match the
    default run bit for bit.
    """
    from reference_kernels import (
        ref_adam_step,
        ref_conv2d,
        ref_max_pool2d,
        ref_relu,
        ref_sgd_step,
    )

    from repro import nn
    from repro.nn import functional as F
    from repro.nn import kernels
    from repro.nn.tensor import Tensor
    from repro.perf import configure
    from repro.shift.distance import EmbeddingHistory, nearest_distance

    def sequential_loop(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def nearest(self, embedding):
        usable = len(self) - self.exclude_recent
        if usable <= 0:
            return None
        return nearest_distance(embedding, self._live(usable))

    with pytest.MonkeyPatch.context() as patch, configure(plan_capture=False):
        patch.setattr(nn.Sequential, "forward", sequential_loop)
        patch.setattr(nn.Linear, "forward",
                      lambda self, x: F.linear(x, self.weight, self.bias))
        patch.setattr(F, "cross_entropy", lambda logits, labels: F.nll_loss(
            F.log_softmax(logits, axis=-1), labels))
        patch.setattr(F, "softmax",
                      lambda x, axis=-1: F.log_softmax(x, axis=axis).exp())
        patch.setattr(kernels, "sgd_step", ref_sgd_step)
        patch.setattr(kernels, "adam_step", ref_adam_step)
        patch.setattr(EmbeddingHistory, "nearest", nearest)
        patch.setattr(F, "conv2d", ref_conv2d)
        patch.setattr(F, "max_pool2d", ref_max_pool2d)
        patch.setattr(Tensor, "relu", ref_relu)
        yield
