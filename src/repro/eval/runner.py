"""Experiment runner: frameworks × datasets × models → prequential results.

The benchmark scripts (one per paper table/figure) are thin wrappers around
this module: it knows how to build each model family at the right shape for
a dataset, wrap it in a baseline or in FreewayML, and run the prequential
protocol with matched seeds so every framework sees identical batches and
identical initial weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import make_learner
from ..baselines import make_baseline
from ..core.learner import Learner
from ..data import all_benchmark_datasets
from ..distributed.backends import ProcessBackend
from ..metrics.prequential import (
    PrequentialResult,
    evaluate_learner,
    evaluate_model,
)
from ..models import StreamingCNN, StreamingLR, StreamingMLP
from ..obs import Observability, SloEngine

__all__ = ["RunConfig", "model_factory_for", "run_framework", "run_matrix"]

FREEWAYML = "freewayml"
PLAIN = "plain"

#: Default learning rates per model family, chosen so the plain baseline is
#: a competent reference on the benchmark suite (same value for everyone).
DEFAULT_LR = {"lr": 0.5, "mlp": 0.3, "cnn": 0.1}


@dataclass
class RunConfig:
    """Shared knobs for one experiment run."""

    num_batches: int = 100
    batch_size: int = 1024
    model: str = "mlp"             # "lr" | "mlp" | "cnn"
    lr: float | None = None        # None = DEFAULT_LR[model]
    seed: int = 0
    skip: int = 0                  # warm-up batches excluded from G_acc/SI
    #: Replica count for the FreewayML framework; > 1 runs the
    #: data-parallel :class:`~repro.distributed.DistributedLearner`.
    num_workers: int = 1
    #: Execution backend for distributed runs: "serial" | "thread" |
    #: "process" (see :mod:`repro.distributed.backends`).
    backend: str = "serial"
    #: Batches between parameter-averaging rounds (distributed runs).
    sync_every: int = 1
    #: Supervised restarts allowed per worker (process backend only).
    max_restarts: int = 2
    #: Graceful degradation: mechanism failures downgrade along the
    #: fallback chain instead of propagating (see docs/RESILIENCE.md).
    degrade: bool = False
    learner_kwargs: dict = field(default_factory=dict)
    baseline_kwargs: dict = field(default_factory=dict)
    #: Observability facade attached to FreewayML learners, so benchmarks
    #: collect stage-level spans/events alongside the prequential result.
    obs: Observability | None = None
    #: Optional :class:`~repro.obs.SloEngine`.  Bound to the FreewayML
    #: learner (so pre-emptive degrade can reach it) and fed one
    #: ``observe_report`` per batch; wire it into ``obs``'s sink chain
    #: separately to also feed it events (``run --serve-telemetry`` does
    #: both).
    slo_engine: SloEngine | None = None
    #: Extra per-batch report callback (after ``slo_engine``'s).
    on_report: object | None = None

    def learning_rate(self) -> float:
        return self.lr if self.lr is not None else DEFAULT_LR[self.model]


def model_factory_for(model: str, num_features: int, num_classes: int,
                      lr: float, seed: int = 0, input_shape=None):
    """Factory for one model family at a dataset's shape."""
    if model == "lr":
        return lambda: StreamingLR(num_features=num_features,
                                   num_classes=num_classes, lr=lr, seed=seed)
    if model == "mlp":
        return lambda: StreamingMLP(num_features=num_features,
                                    num_classes=num_classes, lr=lr, seed=seed)
    if model == "cnn":
        shape = input_shape if input_shape is not None else (num_features,)
        return lambda: StreamingCNN(input_shape=shape,
                                    num_classes=num_classes, lr=lr, seed=seed)
    raise ValueError(f"unknown model family {model!r}")


def _report_hook(config: RunConfig):
    """Chain the SLO engine's per-batch intake with any user callback."""
    callbacks = []
    if config.slo_engine is not None:
        callbacks.append(config.slo_engine.observe_report)
    if config.on_report is not None:
        callbacks.append(config.on_report)
    if not callbacks:
        return None
    if len(callbacks) == 1:
        return callbacks[0]

    def hook(report):
        for callback in callbacks:
            callback(report)
    return hook


def _run_freewayml_distributed(factory, stream, config: RunConfig,
                               on_report, learner_kwargs):
    """Distributed FreewayML path: build the worker pool, then evaluate.

    Kept as its own function so the concurrency analyzer sees exactly one
    thread-pool/fork site pair here, with the invariant spelled out below.
    """
    backend = config.backend
    if backend == "process":
        # Instantiate here so the supervision budget reaches the
        # pool (make_backend takes no options for named defaults).
        backend = ProcessBackend(max_restarts=config.max_restarts)
    learner = make_learner(
        factory, num_workers=config.num_workers,
        backend=backend, sync_every=config.sync_every,
        seed=config.seed, obs=config.obs, **learner_kwargs,
    )
    if config.slo_engine is not None:
        config.slo_engine.bind(learner)
    try:
        # One run drives exactly one backend: the thread pool behind
        # make_learner exists only when backend="thread" and the fork in
        # evaluate_learner's process path only when backend="process", so
        # the thread-then-fork ordering flagged statically cannot occur
        # inside a single run.
        return evaluate_learner(learner, stream, name=FREEWAYML,  # repro: noqa[REP009]
                                skip=config.skip,
                                on_report=on_report)
    finally:
        learner.close()


def run_framework(framework: str, generator, config: RunConfig,
                  input_shape=None) -> PrequentialResult:
    """Run one framework over one dataset generator, prequentially.

    ``framework`` is ``"freewayml"``, ``"plain"`` (the unadorned streaming
    model), or any name in :data:`repro.baselines.BASELINES`.
    """
    factory = model_factory_for(
        config.model, generator.num_features, generator.num_classes,
        config.learning_rate(), seed=config.seed, input_shape=input_shape,
    )
    stream = generator.stream(config.num_batches, batch_size=config.batch_size)
    if framework == FREEWAYML:
        learner_kwargs = dict(config.learner_kwargs)
        if config.degrade:
            learner_kwargs.setdefault("degrade", True)
        on_report = _report_hook(config)
        if config.num_workers > 1 or config.backend != "serial":
            return _run_freewayml_distributed(factory, stream, config,
                                              on_report, learner_kwargs)
        learner = Learner(factory, seed=config.seed, obs=config.obs,
                          **learner_kwargs)
        if config.slo_engine is not None:
            config.slo_engine.bind(learner)
        return evaluate_learner(learner, stream, name=FREEWAYML,
                                skip=config.skip, on_report=on_report)
    if framework == PLAIN:
        return evaluate_model(factory(), stream, name=PLAIN, skip=config.skip)
    baseline = make_baseline(framework, factory, **config.baseline_kwargs)
    return evaluate_model(baseline, stream, name=framework, skip=config.skip)


def run_matrix(frameworks, datasets: dict | None, config: RunConfig,
               ) -> dict[str, dict[str, PrequentialResult]]:
    """Run every framework over every dataset.

    Returns ``results[dataset][framework]``.  ``datasets`` maps name →
    generator; ``None`` selects the paper's six-dataset benchmark suite.
    Generators are re-seeded per run via their own ``seed``, so every
    framework sees byte-identical streams.
    """
    if datasets is None:
        datasets = all_benchmark_datasets(seed=config.seed)
    results: dict[str, dict[str, PrequentialResult]] = {}
    for dataset_name, generator in datasets.items():
        results[dataset_name] = {}
        for framework in frameworks:
            results[dataset_name][framework] = run_framework(
                framework, generator, config,
            )
    return results
