"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core import Learner  # noqa: E402
from repro.models import StreamingCNN, StreamingLR, StreamingMLP  # noqa: E402
from repro.serving import ModelEstimator, ServeConfig, ServeResult  # noqa: E402


def small_stream(model_factory, batch_size=64):
    return workloads.StreamWorkload(
        5, model_factory, batch_size=batch_size, cycles=1, warmup_batches=4,
        min_passes=2, reference_batches=30)


def small_serving(**overrides):
    options = dict(num_tenants=12, num_requests=160, warmup_requests=20,
                   capacity=4, stacked=False, unlabeled_share=0.0)
    options.update(overrides)
    tenant = partial(Learner, partial(StreamingLR, 8, 2, lr=0.3, seed=0),
                     num_models=1, window_batches=4, seed=0)
    return workloads.ServingWorkload(3, tenant, **options)


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("percent, needed", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(percent, needed):
    assert measure.percentile(list(range(needed - 1)), percent) is None
    value = measure.percentile(list(range(needed)), percent)
    assert value == pytest.approx(np.percentile(range(needed), percent))
    assert measure.samples_beyond(needed, percent) == measure.MIN_BEYOND


# -- failed_ratio accounting ---------------------------------------------------


def test_shed_and_failed_requests_count_as_failed():
    results = [ServeResult("a", "ok"), ServeResult("a", "shed"),
               ServeResult("b", "failed"), ServeResult("b", "ok")]
    attempted, failed = workloads.outcome_counts(results)
    assert (attempted, failed) == (4, 2)
    assert measure.failed_ratio(attempted, failed) == 0.5
    with pytest.raises(ValueError):
        measure.failed_ratio(0, 0)


def test_serving_pass_counts_shed_requests():
    workload = small_serving()
    # One pending request per tenant: the closed loop's 64 outstanding
    # requests overflow the hot tenants' queues.
    workload.config = ServeConfig(
        max_active_tenants=4, microbatch_size=16, microbatch_timeout_s=0.005,
        max_pending_per_tenant=1)
    result = workload.run_pass()
    summary = workload._last[1].summary()
    assert result.attempted == len(workload.requests)
    assert result.failed == summary["requests_shed"] + summary["requests_failed"]
    assert result.failed > 0
    assert len(result.latencies_s) == result.attempted - result.failed


def test_stream_batch_that_raises_counts_as_failed(monkeypatch):
    workload = small_stream(partial(StreamingLR, 16, 4, lr=0.3, seed=0))
    process = Learner.process

    def flaky(self, batch):
        if batch.index == 10:
            raise RuntimeError("injected")
        return process(self, batch)

    monkeypatch.setattr(Learner, "process", flaky)
    result = workload.run_pass()
    assert result.failed == 1
    assert result.attempted == inputs.CYCLE_BATCHES - 4
    assert np.isnan(result.latencies_s[10 - 4])


# -- inputs -------------------------------------------------------------------


def test_stream_inputs_are_deterministic_per_seed():
    first = list(inputs.stream_batches(7, 32, 1))
    again = list(inputs.stream_batches(7, 32, 1))
    other = list(inputs.stream_batches(8, 32, 1))
    assert len(first) == inputs.CYCLE_BATCHES
    for (x, y), (x2, y2) in zip(first, again):
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)
    assert not np.array_equal(first[0][0], other[0][0])


def test_serving_inputs_are_deterministic_per_seed():
    first = inputs.serving_requests(7, num_requests=400, num_tenants=50,
                                    unlabeled_share=0.5)
    again = inputs.serving_requests(7, num_requests=400, num_tenants=50,
                                    unlabeled_share=0.5)
    assert [tenant for tenant, _x, _y in first] == [t for t, _x, _y in again]
    for (_t, x, y), (_t2, x2, y2) in zip(first, again):
        np.testing.assert_array_equal(x, x2)
        assert (y is None) == (y2 is None)
        if y is not None:
            np.testing.assert_array_equal(y, y2)
    unlabeled = sum(1 for _t, _x, y in first if y is None)
    assert 120 < unlabeled < 280
    assert first[0][1].shape == (4, 8)


# -- traced runs ---------------------------------------------------------------


def test_traced_pass_predicts_the_same_labels_as_untraced():
    workload = small_stream(partial(StreamingMLP, 16, 4, lr=0.3, seed=0))
    untraced = workload.run_pass()
    traced = workload.run_pass(traced=True)
    assert traced.digests == untraced.digests
    assert workload.check([untraced, traced]) == []
    counts = traced.layers
    assert counts["nn.plan.capture_count"] > 0
    assert counts["core.multigranularity.long_fit_calls"] > 0
    assert sum(counts[f"core.selector.{name}_batches"] for name in
               ("multi_granularity", "cec", "knowledge_reuse")) \
        == inputs.CYCLE_BATCHES - 4
    again = workload.run_pass(traced=True).layers
    assert ({name: value for name, value in again.items()
             if not name.endswith("_s")}
            == {name: value for name, value in counts.items()
                if not name.endswith("_s")})


def test_stream_check_catches_a_pass_that_differs():
    workload = small_stream(partial(StreamingLR, 16, 4, lr=0.3, seed=0))
    first, second = workload.run_pass(), workload.run_pass()
    assert workload.check([first, second]) == []
    second.digests[3] = bytes(32)
    assert workload.check([first, second]) == [
        "pass 2 predicted different labels than pass 1"]


def test_cnn_pass_never_touches_the_plan_engine():
    workload = small_stream(partial(StreamingCNN, (16,), 4, lr=0.1, seed=0),
                            batch_size=32)
    counts = workload.run_pass(traced=True).layers
    assert counts["nn.plan.capture_count"] == 0
    assert counts["nn.plan.replay_count"] == 0
    assert counts["models.partial_fit_calls"] > 0


def test_resident_stacked_tenants_never_rehydrate():
    workload = small_serving(
        stacked=True, capacity=12, unlabeled_share=0.5,
        num_requests=400, warmup_requests=40)
    workload.estimator_factory = lambda: ModelEstimator(
        StreamingMLP(8, 2, lr=0.3, seed=0))
    result = workload.run_pass(traced=True)
    counts = result.layers
    assert counts["serving.registry.rehydrations"] == 0
    assert counts["serving.stacked.groups"] > 0
    assert counts["serving.service.microbatches"] > 0
    assert workload.check([result]) == []


def test_serving_replay_check_catches_wrong_labels():
    workload = small_serving()
    result = workload.run_pass()
    assert workload.check([result]) == []
    results, _service = workload._last
    hot = max(workload.tenants,
              key=lambda t: sum(1 for r in results if r.tenant == t))
    victim = next(r for r in results if r.tenant == hot and r.accepted)
    victim.labels = 1 - victim.labels
    assert any(hot in problem for problem in workload.check([result]))


# -- the contract ---------------------------------------------------------------


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)


def test_without_sources_the_run_fails_before_measuring(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-mlp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout == ""
