"""Substrate microbenchmarks — the numpy NN engine's hot paths.

Not a paper experiment: these are performance-regression guards for the
PyTorch stand-in everything else rides on.  pytest-benchmark runs each op
repeatedly and reports the distribution, so substrate slowdowns show up
as outliers in the harness run rather than as mysterious accuracy-bench
slowness.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def mlp():
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Linear(20, 64, rng=rng), nn.ReLU(), nn.Linear(64, 5, rng=rng)
    )


@pytest.fixture(scope="module")
def tabular_batch():
    return nn.Tensor(RNG.normal(size=(1024, 20))), RNG.integers(0, 5, 1024)


def test_mlp_forward(benchmark, mlp, tabular_batch):
    x, _ = tabular_batch

    def forward():
        with nn.no_grad():
            return mlp(x)

    benchmark(forward)


def test_mlp_forward_backward(benchmark, mlp, tabular_batch):
    x, y = tabular_batch

    def step():
        mlp.zero_grad()
        loss = F.cross_entropy(mlp(x), y)
        loss.backward()
        return loss

    benchmark(step)


def test_conv2d_forward(benchmark):
    rng = np.random.default_rng(0)
    conv = nn.Conv2d(1, 32, kernel_size=3, padding=1, rng=rng)
    x = nn.Tensor(rng.normal(size=(64, 1, 16, 16)))

    def forward():
        with nn.no_grad():
            return conv(x)

    benchmark(forward)


def test_conv2d_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    conv = nn.Conv2d(1, 16, kernel_size=3, padding=1, rng=rng)
    x = nn.Tensor(rng.normal(size=(64, 1, 16, 16)))

    def step():
        conv.zero_grad()
        out = conv(x).sum()
        out.backward()
        return out

    benchmark(step)


# The tabular CNN's ops as define-by-run nodes: a (1, 3) conv over the
# 16-feature signal, then ReLU and a (1, 2) pool over its rows x 32 x 1 x 16
# activation, in the memory layout the conv leaves.  A captured plan runs
# the same kernels of repro.nn.kernels over its arena; these cells time
# them with fresh buffers, as a capture's reference run and a plans-off
# stream do.  512 rows is stream-cnn's batch; about 2,900 its mean
# long-window fit, where that workload's p90 latency is paid.


@pytest.fixture(scope="module", params=[512, 2900],
                ids=lambda rows: f"rows{rows}")
def tabular_conv(request):
    rng = np.random.default_rng(0)
    conv = nn.Conv2d(1, 32, kernel_size=(1, 3), padding=(0, 1), rng=rng)
    return conv, nn.Tensor(rng.normal(size=(request.param, 1, 1, 16)))


@pytest.fixture(scope="module")
def tabular_activation(tabular_conv):
    conv, x = tabular_conv
    with nn.no_grad():
        return conv(x).data


def test_tabular_conv2d_forward_backward(benchmark, tabular_conv):
    conv, x = tabular_conv
    g = np.ones((len(x), 32, 1, 16))

    def step():
        conv.zero_grad()
        conv(x).backward(g)
        return conv.weight.grad

    benchmark(step)


def test_tabular_relu_forward_backward(benchmark, tabular_activation):
    g = np.ones(tabular_activation.shape)

    def step():
        x = nn.Tensor(tabular_activation, requires_grad=True)
        x.relu().backward(g)
        return x.grad

    benchmark(step)


def test_tabular_max_pool2d_forward_backward(benchmark, tabular_activation):
    pooled = nn.Tensor(tabular_activation).relu().data
    g = np.ones((len(pooled), 32, 1, 8))

    def step():
        x = nn.Tensor(pooled, requires_grad=True)
        F.max_pool2d(x, (1, 2)).backward(g)
        return x.grad

    benchmark(step)


def test_softmax_cross_entropy(benchmark):
    logits = nn.Tensor(RNG.normal(size=(1024, 5)), requires_grad=True)
    labels = RNG.integers(0, 5, 1024)

    def step():
        loss = F.cross_entropy(logits, labels)
        loss.backward()
        logits.zero_grad()
        return loss

    benchmark(step)


def test_pca_batch_embedding(benchmark):
    from repro.shift import WarmupPCA
    pca = WarmupPCA(num_components=2).fit(RNG.normal(size=(2048, 20)))
    batch = RNG.normal(size=(1024, 20))
    benchmark(pca.batch_embedding, batch)


def test_asw_add(benchmark):
    from repro.core import AdaptiveStreamingWindow
    window = AdaptiveStreamingWindow(max_batches=64)
    x = RNG.normal(size=(1024, 20))
    y = np.zeros(1024, dtype=np.int64)
    counter = {"n": 0}

    def add():
        counter["n"] += 1
        window.add(x, y, RNG.normal(size=2))
        if window.num_batches >= 32:
            window.reset()

    benchmark(add)


def test_kmeans_fit(benchmark):
    from repro.models import KMeans
    x = RNG.normal(size=(512, 20))

    def fit():
        return KMeans(5, seed=0).fit(x)

    benchmark(fit)