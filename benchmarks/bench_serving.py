"""Serving bench — multi-tenant front end under Zipf load (extension).

The serving front end (``repro.serving``, docs/SERVING.md) multiplexes
thousands of per-tenant streams onto one process with an LRU session
registry far smaller than the tenant population, so hot tenants stay
resident while the tail churns through checkpoint/rehydrate.  This bench
drives it with heavy-tailed Zipf arrivals and reports throughput, p50/p99
request latency, activation/rehydration/eviction counts, and the shed
rate — then asserts the serving-equivalence contract: a sample of
tenants' served predictions must be byte-identical to a serial replay of
their accepted requests through a fresh estimator with the same
micro-batch groupings.  The ``--stacked`` tier leaves every other request
unlabeled, so its replay gate covers both kinds of stacked round: an
unlabeled one, which only predicts, and a labeled one, which predicts
and trains.

As a pytest benchmark (``pytest benchmarks/bench_serving.py``) it runs
the 1k-tenant tier once.  As a script it scales further::

    PYTHONPATH=src python benchmarks/bench_serving.py                # 1k
    PYTHONPATH=src python benchmarks/bench_serving.py --tenants 5000
    PYTHONPATH=src python benchmarks/bench_serving.py --tenants 10000
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke        # CI

``--smoke`` is the CI tier: 64 tenants over a 16-session registry, small
enough for single-CPU runners (the service is one event loop, so extra
cores only help the host, not the bench).
"""

import argparse
import os
import time

import numpy as np

from conftest import SEED, print_banner
from repro.core.learner import Learner
from repro.eval import model_factory_for
from repro.models import StreamingLR
from repro.serving import (
    ModelEstimator,
    ServeConfig,
    SessionRegistry,
    make_requests,
    predict_and_update,
    serve_requests,
    zipf_tenants,
)

NUM_FEATURES = 8
NUM_CLASSES = 2
ROWS_PER_REQUEST = 4

#: Per-tenant estimator shape: one granularity level keeps a 10k-tenant
#: population affordable while exercising the full FreewayML step.
LEARNER_KWARGS = {"num_models": 1, "window_batches": 4, "seed": SEED}


def _model_factory():
    return model_factory_for("lr", NUM_FEATURES, NUM_CLASSES, lr=0.3,
                             seed=SEED)


def _estimator_factory(stacked):
    """Per-tenant estimator builder for the chosen execution mode.

    ``--stacked`` serves bare :class:`ModelEstimator` tenants (the
    stackable shape); the default tier serves full FreewayML ``Learner``
    sessions, which always take the serial path.
    """
    if stacked:
        return lambda: ModelEstimator(StreamingLR(
            num_features=NUM_FEATURES, num_classes=NUM_CLASSES, lr=0.3,
            seed=SEED))
    model_factory = _model_factory()
    return lambda: Learner(model_factory, **LEARNER_KWARGS)


def _make_registry(capacity, stacked=False):
    factory = _estimator_factory(stacked)
    return SessionRegistry(lambda tenant: factory(), capacity=capacity)


def assert_serving_equivalence(requests, results, service, sample,
                               stacked=False):
    """Served labels for sampled tenants == serial replay, byte for byte."""
    by_tenant = {}
    for (tenant, x, y), result in zip(requests, results):
        if result.accepted:
            by_tenant.setdefault(tenant, []).append((x, y, result))
    replica_factory = _estimator_factory(stacked)
    checked = 0
    for tenant in sample:
        entries = by_tenant.get(tenant)
        if not entries:
            continue
        grouping = service.grouping(tenant)
        assert sum(grouping) == len(entries), (
            f"{tenant}: grouping covers {sum(grouping)} requests, "
            f"{len(entries)} were served")
        replica = replica_factory()
        served = np.concatenate([result.labels for _x, _y, result in entries])
        replayed = []
        cursor = 0
        for group in grouping:
            chunk = entries[cursor:cursor + group]
            cursor += group
            x = np.vstack([entry[0] for entry in chunk])
            # A micro-batch is labeled or unlabeled as a whole.
            y = (np.concatenate([entry[1] for entry in chunk])
                 if chunk[0][1] is not None else None)
            replayed.append(predict_and_update(replica, x, y))
        np.testing.assert_array_equal(
            served, np.concatenate(replayed),
            err_msg=f"{tenant}: served != serial replay")
        checked += 1
    assert checked > 0, "equivalence sample matched no served tenant"
    return checked


def run_serving(num_tenants, num_requests, capacity, *,
                shed_policy="reject", window=256, sample_size=8,
                stacked=False):
    """One serving tier; returns the reported metrics as a dict."""
    config = ServeConfig(
        max_active_tenants=capacity, microbatch_size=16,
        microbatch_timeout_s=0.005, shed_policy=shed_policy,
        max_pending_per_tenant=64,
        max_pending_total=max(4096, 2 * window),
        learner_kwargs=dict(LEARNER_KWARGS),
        stacked_execution=stacked)
    registry = _make_registry(capacity, stacked=stacked)
    arrivals = zipf_tenants(num_requests, num_tenants, exponent=1.05,
                            seed=SEED)
    requests = make_requests(arrivals, rows_per_request=ROWS_PER_REQUEST,
                             num_features=NUM_FEATURES,
                             num_classes=NUM_CLASSES, seed=SEED)
    if stacked:
        # Unlabeled requests make prediction-only stacked rounds.
        requests = [(tenant, x, y if index % 2 == 0 else None)
                    for index, (tenant, x, y) in enumerate(requests)]
    started = time.perf_counter()
    results, service = serve_requests(config, registry, requests,
                                      window=window)
    elapsed = time.perf_counter() - started

    summary = service.summary()
    stats = summary["registry"]
    served_rows = sum(len(result.labels) for result in results
                      if result.accepted)
    latencies = sorted(result.latency_s for result in results
                       if result.accepted)
    distinct = sorted({tenant for tenant, _x, _y in requests})
    # Hot head and cold tail both verified: the head stays resident, the
    # tail is the one that round-trips through checkpoints.
    stride = max(1, len(distinct) // sample_size)
    sample = distinct[::stride][:sample_size]
    checked = assert_serving_equivalence(requests, results, service, sample,
                                         stacked=stacked)
    return {
        "tenants": num_tenants,
        "stacked": stacked,
        "batches_stacked": summary.get("batches_stacked", 0),
        "stacked_groups": summary.get("stacked_groups", 0),
        "tenants_seen": len(distinct),
        "capacity": capacity,
        "requests": len(results),
        "ok": summary["requests_ok"],
        "shed": summary["requests_shed"],
        "failed": summary["requests_failed"],
        "shed_rate": summary["requests_shed"] / max(1, len(results)),
        "elapsed_s": elapsed,
        "throughput_rows_s": served_rows / max(elapsed, 1e-9),
        "latency_p50_ms": (latencies[len(latencies) // 2] * 1e3
                           if latencies else 0.0),
        "latency_p99_ms": (latencies[int(len(latencies) * 0.99)] * 1e3
                           if latencies else 0.0),
        "activations": stats["activations"],
        "rehydrations": stats["rehydrations"],
        "evictions": stats["evictions"],
        "equivalence_checked": checked,
    }


def _report(metrics) -> None:
    print(f"tenants    : {metrics['tenants']} "
          f"({metrics['tenants_seen']} seen, "
          f"capacity {metrics['capacity']})")
    print(f"requests   : {metrics['requests']} (ok {metrics['ok']}, "
          f"shed {metrics['shed']}, failed {metrics['failed']})")
    print(f"throughput : {metrics['throughput_rows_s'] / 1e3:.1f} K rows/s "
          f"over {metrics['elapsed_s']:.2f}s")
    print(f"latency    : p50 {metrics['latency_p50_ms']:.2f} ms, "
          f"p99 {metrics['latency_p99_ms']:.2f} ms")
    print(f"shed rate  : {metrics['shed_rate'] * 100:.2f}%")
    print(f"registry   : {metrics['activations']} activations "
          f"({metrics['rehydrations']} rehydrated), "
          f"{metrics['evictions']} evictions")
    if metrics["stacked"]:
        print(f"stacked    : {metrics['batches_stacked']} micro-batches "
              f"co-scheduled in {metrics['stacked_groups']} groups")
    print(f"equivalence: {metrics['equivalence_checked']} tenants "
          f"replayed serially — identical")


def test_serving_scalability(benchmark):
    """1k tenants over a 64-session registry: the bench's pytest tier."""
    metrics = benchmark.pedantic(
        lambda: run_serving(1000, 8000, 64), rounds=1, iterations=1)
    print_banner("Multi-tenant serving — 1k tenants, capacity 64")
    _report(metrics)
    assert metrics["failed"] == 0
    assert metrics["ok"] > 0
    # Capacity well below the tenant population must force real churn.
    assert metrics["evictions"] > metrics["capacity"]
    assert metrics["rehydrations"] > 0
    benchmark.extra_info["throughput_rows_s"] = round(
        metrics["throughput_rows_s"])
    benchmark.extra_info["latency_p99_ms"] = round(
        metrics["latency_p99_ms"], 2)
    benchmark.extra_info["shed_rate"] = round(metrics["shed_rate"], 4)
    benchmark.extra_info["evictions"] = metrics["evictions"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=1000,
                        help="tenant population (try 5000 / 10000)")
    parser.add_argument("--requests", type=int, default=None,
                        help="total requests (default: 8 per tenant)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="resident sessions (default: tenants // 16)")
    parser.add_argument("--shed-policy", default="reject",
                        choices=["reject", "oldest", "block"],
                        dest="shed_policy")
    parser.add_argument("--window", type=int, default=256,
                        help="concurrent in-flight submissions")
    parser.add_argument("--smoke", action="store_true",
                        help="CI tier: 64 tenants, capacity 16")
    parser.add_argument("--stacked", action="store_true",
                        help="serve stackable ModelEstimator tenants with "
                             "stacked co-scheduling on")
    args = parser.parse_args(argv)

    if args.smoke:
        tenants, requests, capacity = 64, 1200, 16
        tier = "smoke (CI)"
    else:
        tenants = args.tenants
        requests = (args.requests if args.requests is not None
                    else 8 * tenants)
        capacity = (args.capacity if args.capacity is not None
                    else max(16, tenants // 16))
        tier = f"{tenants} tenants"
        if (os.cpu_count() or 1) < 2:
            print("NOTE: single-CPU host — serving shares its core with "
                  "the harness; latency numbers will be pessimistic")
    print_banner(f"Multi-tenant serving — {tier}, capacity {capacity}")
    metrics = run_serving(tenants, requests, capacity,
                          shed_policy=args.shed_policy, window=args.window,
                          stacked=args.stacked)
    _report(metrics)
    assert metrics["failed"] == 0
    assert metrics["evictions"] > 0, "no churn: capacity too generous"
    if args.stacked:
        assert metrics["batches_stacked"] > 0, "stacked tier never stacked"
    print("\nOK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
