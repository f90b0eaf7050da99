"""Command-line interface: run FreewayML experiments without writing code.

Six subcommands::

    python -m repro run --dataset nsl-kdd --framework freewayml --batches 80
    python -m repro compare --dataset electricity --model mlp
    python -m repro serve --tenants 256 --capacity 32 --requests 4000
    python -m repro datasets
    python -m repro report trace.jsonl
    python -m repro analyze src/ --format json

``run`` evaluates one framework on one dataset prequentially and prints
G_acc / SI / throughput (``--json`` emits the result as one JSON object;
``--trace out.jsonl`` records the decision-event/span log; ``--metrics``
prints the Prometheus-style metrics snapshot; ``--serve-telemetry [PORT]``
exposes ``/metrics``, ``/health``, and ``/snapshot`` over HTTP during the
run with an online SLO/alert engine, see ``docs/OBSERVABILITY.md``;
``--profile`` prints the per-span hot-path time breakdown, see
``docs/PERF.md``); ``compare`` runs every framework of the chosen model
group plus FreewayML and renders a Table-I-style block; ``serve`` drives
the multi-tenant serving front end over a synthetic Zipf workload — every
flag maps one-to-one onto a :class:`~repro.serving.ServeConfig` field,
see ``docs/SERVING.md``; ``datasets``
lists what is available; ``report`` summarizes a recorded trace or a
saved ``/snapshot`` dump (per-strategy latency percentiles, knowledge
reuse hit-rate, decay timeline).  ``--csv`` runs on your own data instead
of a built-in generator.  ``analyze`` runs the static REP001–REP007 lint
pass (``--concurrency`` adds the execution-context pass REP008–REP011;
``--check-models`` adds symbolic shape verification of the model zoo) —
see ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import BASELINES, LR_GROUP, MLP_GROUP
from .data import IMAGE_REGISTRY, all_benchmark_datasets
from .data.io import stream_from_csv
from .eval import RunConfig, render_accuracy_table, run_framework, run_matrix
from .nn.plan import PLAN_CACHE_COUNTER, add_plan_hook, remove_plan_hook
from .obs import (
    CompositeSink,
    MemorySink,
    Observability,
    render_report,
    span_latency,
    summarize_trace,
)

__all__ = ["build_parser", "main"]

FRAMEWORK_CHOICES = ["freewayml", "plain", *sorted(BASELINES)]


class _CsvGenerator:
    """Adapter exposing a CSV file through the generator interface."""

    def __init__(self, path: str, label_column, batch_size: int):
        self.path = path
        self.label_column = label_column
        probe = stream_from_csv(path, batch_size=batch_size,
                                label_column=label_column)
        self.num_features = probe.num_features
        self.num_classes = probe.num_classes
        self.name = probe.name

    def stream(self, num_batches: int, batch_size: int = 1024):
        return stream_from_csv(
            self.path, batch_size=batch_size,
            label_column=self.label_column,
        ).take(num_batches)


def _resolve_label_column(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _generator(args):
    if args.csv:
        return _CsvGenerator(args.csv, _resolve_label_column(args.label),
                             args.batch_size)
    datasets = all_benchmark_datasets(seed=args.seed)
    if args.dataset not in datasets:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; run `python -m repro "
            f"datasets` to list them"
        )
    return datasets[args.dataset]


def _config(args, obs: Observability | None = None,
            slo_engine=None) -> RunConfig:
    return RunConfig(num_batches=args.batches, batch_size=args.batch_size,
                     model=args.model, lr=args.lr, seed=args.seed,
                     num_workers=getattr(args, "workers", 1),
                     backend=getattr(args, "backend", "serial"),
                     sync_every=getattr(args, "sync_every", 1),
                     max_restarts=getattr(args, "max_restarts", 2),
                     degrade=getattr(args, "degrade", False), obs=obs,
                     slo_engine=slo_engine)


def _build_obs(args, profile: bool = False) -> Observability | None:
    """Observability facade for a ``run`` invocation, if requested
    (``run --profile`` needs one for its spans)."""
    serving = getattr(args, "serve_telemetry", None) is not None
    if getattr(args, "trace", None):
        # One run per file: truncate any previous trace so `report` never
        # silently merges two runs (the sink itself appends).
        path = Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
        # The telemetry server needs an in-process ring for /snapshot's
        # recent events; tee into one alongside the JSONL file.
        extra = MemorySink() if serving else None
        return Observability.to_jsonl(args.trace, extra_sink=extra)
    if getattr(args, "metrics", False) or serving or profile:
        return Observability.in_memory()
    return None


def _build_telemetry(args, obs: Observability):
    """``--serve-telemetry``: SLO engine + HTTP server around the run."""
    if getattr(args, "serve_telemetry", None) is None:
        return None, None
    from .obs import SloEngine, TelemetryServer, default_slo_rules, find_ring

    ring = find_ring(obs.sink)
    engine = SloEngine(default_slo_rules(), obs,
                       pre_emptive_degrade=getattr(args, "slo_degrade",
                                                   False))
    # Tee pipeline events into the engine so event-driven SLO signals
    # (degraded-rate, worker-restart-rate, ...) see every occurrence.
    # The rebind happens strictly before TelemetryServer.start() below,
    # so no server thread can observe the sink chain mid-swap.
    obs.sink = CompositeSink(obs.sink, engine)  # repro: noqa[REP008]

    def health_source():
        summarize = getattr(engine.target, "summary", None)
        return summarize() if callable(summarize) else {}

    server = TelemetryServer(obs, engine, health_source=health_source,
                             port=args.serve_telemetry, ring=ring).start()
    print(f"telemetry : {server.url}  (/metrics /health /snapshot)",
          file=sys.stderr)
    return engine, server


def _add_common(parser):
    parser.add_argument("--dataset", default="electricity",
                        help="built-in dataset name (see `datasets`)")
    parser.add_argument("--csv", help="run on your own CSV instead")
    parser.add_argument("--label", default="-1",
                        help="CSV label column (name or index; default last)")
    parser.add_argument("--model", default="mlp", choices=["lr", "mlp", "cnn"])
    parser.add_argument("--batches", type=int, default=80)
    parser.add_argument("--batch-size", type=int, default=1024,
                        dest="batch_size")
    parser.add_argument("--lr", type=float, default=None,
                        help="learning rate (default: per-model preset)")
    parser.add_argument("--seed", type=int, default=0)


def _profiling(args) -> bool:
    """Whether ``run --profile`` applies: single-process freewayml only."""
    if not getattr(args, "profile", False):
        return False
    if args.framework != "freewayml":
        print(f"note: --profile times the freewayml learner's spans; "
              f"framework {args.framework!r} records nothing",
              file=sys.stderr)
        return False
    if getattr(args, "workers", 1) > 1 or (
            getattr(args, "backend", "serial") != "serial"):
        print("note: --profile is single-process only; distributed replicas "
              "would interleave their spans — skipping", file=sys.stderr)
        return False
    return True


def _plan_hook(registry, records: list[dict]):
    """``run --profile``'s plan hook: each capture or replay becomes a
    ``plan.<event>`` span record in ``records``, and every event bumps
    ``freeway_plan_cache{event}``.  Plan hooks are process-global; a
    profiled run is single-process, so it sees only that run's plans."""
    counter = registry.counter(PLAN_CACHE_COUNTER, "Plan-cache events by type")

    def hook(event: str, seconds: float) -> None:
        if event in ("capture", "replay"):
            records.append({"name": f"plan.{event}", "duration": seconds})
        counter.labels(event=event).inc()

    return hook


def _hot_path(roots, plan_records: list[dict]) -> dict:
    """``run --profile``'s rows: :func:`~repro.obs.span_latency` per span
    name, each with its ``share`` of the root spans' total."""
    records = [root.to_dict() for root in roots]
    rows = span_latency(records + plan_records)
    whole = sum(record["duration"] for record in records)
    for stats in rows.values():
        stats["share"] = stats["total"] / whole if whole else 0.0
    return rows


def _render_hot_path(rows: dict) -> str:
    """Aligned text table, spans sorted by total time descending."""
    if not rows:
        return "hot path: no spans recorded"
    width = max(len(name) for name in rows)
    columns = ("total", "mean", "p50", "p95")
    lines = [f"{'span'.ljust(width)}  {'count':>6}  "
             + "".join(f"{column:>11}  " for column in columns)
             + f"{'share':>6}"]
    for name, stats in sorted(rows.items(), key=lambda kv: -kv[1]["total"]):
        lines.append(
            f"{name.ljust(width)}  {stats['count']:>6d}  "
            + "".join(f"{stats[column] * 1e3:>9.3f}ms  "
                      for column in columns)
            + f"{stats['share']:>6.1%}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    generator = _generator(args)
    profile = _profiling(args)
    obs = _build_obs(args, profile)
    if obs is not None and args.framework != "freewayml":
        print(f"note: --trace/--metrics/--serve-telemetry instrument the "
              f"freewayml pipeline; framework {args.framework!r} records "
              f"nothing", file=sys.stderr)
    engine, server = _build_telemetry(args, obs)
    plan_records: list[dict] = []
    hook = _plan_hook(obs.registry, plan_records) if profile else None
    if hook is not None:
        add_plan_hook(hook)
    try:
        # --serve-telemetry starts a server thread before a process-backend
        # run forks its workers: a real fork-after-thread ordering.  It is
        # accepted here because workers never touch the inherited server
        # state, and ProcessBackend._ensure_started emits a RuntimeWarning
        # naming the leaked threads so the combination stays visible.
        result = run_framework(  # repro: noqa[REP009]
            args.framework, generator,
            _config(args, obs=obs, slo_engine=engine),
        )
    finally:
        if hook is not None:
            remove_plan_hook(hook)
        if server is not None:
            server.stop()
    hot_path = _hot_path(obs.tracer.finished, plan_records) if profile else None
    by_pattern = result.accuracy_by_pattern()
    if args.json:
        payload = {
            "framework": result.name,
            "dataset": generator.name,
            "batches": len(result.accuracies),
            "batch_size": args.batch_size,
            "g_acc": result.g_acc,
            "si": result.si,
            "throughput": result.throughput,
            "accuracy_by_pattern": by_pattern,
        }
        if obs is not None and args.metrics:
            payload["metrics"] = obs.registry.snapshot()
        if obs is not None and getattr(args, "trace", None):
            payload["trace"] = args.trace
        if hot_path is not None:
            payload["hot_path"] = hot_path
        if engine is not None:
            payload["slo"] = engine.summary()
        print(json.dumps(payload, indent=2, default=float))
    else:
        print(f"framework : {result.name}")
        print(f"dataset   : {generator.name}")
        print(f"batches   : {len(result.accuracies)} x {args.batch_size}")
        print(f"G_acc     : {result.g_acc * 100:.2f}%")
        print(f"SI        : {result.si:.3f}")
        print(f"throughput: {result.throughput / 1e3:.0f} K items/s")
        if by_pattern:
            per = "  ".join(f"{pattern}={accuracy * 100:.1f}%"
                            for pattern, accuracy in sorted(by_pattern.items()))
            print(f"by pattern: {per}")
        if obs is not None and args.metrics:
            print()
            print(obs.registry.render_text(), end="")
        if obs is not None and getattr(args, "trace", None):
            print(f"trace     : {args.trace}")
        if engine is not None:
            active = ", ".join(sorted(engine.active)) or "none"
            print(f"slo       : {engine.raised_total} raised / "
                  f"{engine.resolved_total} resolved (active: {active})")
        if hot_path is not None:
            print()
            print("hot path (per span, share of predict + update):")
            print(_render_hot_path(hot_path))
    if obs is not None:
        obs.close()
    return 0


def _cmd_report(args) -> int:
    try:
        summary = summarize_trace(args.trace)
    except FileNotFoundError:
        raise SystemExit(f"no trace at {args.trace!r}; record one with "
                         f"`python -m repro run --trace {args.trace}`")
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"{args.trace!r} is not a JSONL trace ({error}); expected the "
            f"format written by `python -m repro run --trace`"
        )
    if args.json:
        payload = {
            "path": summary.path,
            "num_events": summary.num_events,
            "num_spans": summary.num_spans,
            "event_counts": summary.event_counts,
            "pattern_counts": summary.pattern_counts,
            "strategy_counts": summary.strategy_counts,
            "fallback_counts": summary.fallback_counts,
            "strategy_latency": summary.strategy_latency,
            "span_latency": summary.span_latency,
            "reuse_attempts": summary.reuse_attempts,
            "reuse_hits": summary.reuse_hits,
            "reuse_hit_rate": summary.reuse_hit_rate,
            "preserved": summary.preserved,
            "evicted": summary.evicted,
            "cec_calls": summary.cec_calls,
            "decay_timeline": summary.decay_timeline,
        }
        print(json.dumps(payload, indent=2, default=float))
    else:
        print(render_report(summary))
    return 0


def _check_model_zoo(stream=sys.stdout) -> int:
    """Statically verify the model zoo's architectures (no data executed)."""
    from .analysis import GraphValidationError, validate_model
    from .models import StreamingCNN, StreamingLR, StreamingMLP

    zoo = [
        ("lr", StreamingLR(num_features=20, num_classes=5)),
        ("mlp", StreamingMLP(num_features=20, num_classes=5)),
        ("cnn-tabular", StreamingCNN(input_shape=(20,), num_classes=5)),
        ("cnn-image", StreamingCNN(input_shape=(1, 16, 16), num_classes=10)),
    ]
    failures = 0
    for name, model in zoo:
        try:
            traces = validate_model(model)
        except GraphValidationError as error:
            print(f"  {name:12s} FAIL  {error}", file=stream)
            failures += 1
        else:
            print(f"  {name:12s} ok    {len(traces)} layers, output "
                  f"{traces[-1].output}", file=stream)
    return failures


def _cmd_analyze(args) -> int:
    from .analysis import EXIT_FINDINGS, run_analyze

    code = run_analyze(args.paths, output_format=args.format,
                       show_suppressed=args.show_suppressed,
                       concurrency=args.concurrency)
    if args.check_models:
        # JSON mode keeps stdout a single parseable object; the zoo
        # report goes to stderr there.
        stream = sys.stderr if args.format == "json" else sys.stdout
        print("model zoo (symbolic shape check):", file=stream)
        failures = _check_model_zoo(stream=stream)
        if failures and code == 0:
            code = EXIT_FINDINGS
    return code


def _cmd_serve(args) -> int:
    import time

    from .core.learner import Learner
    from .eval import model_factory_for
    from .serving import (
        DirCheckpointStore,
        ServeConfig,
        SessionRegistry,
        make_requests,
        serve_requests,
        zipf_tenants,
    )

    config = ServeConfig(
        max_active_tenants=args.capacity,
        microbatch_size=args.microbatch_size,
        microbatch_timeout_s=args.microbatch_timeout,
        shed_policy=args.shed_policy,
        max_pending_per_tenant=args.max_pending_per_tenant,
        max_pending_total=args.max_pending_total,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        degrade_high_watermark=args.degrade_watermark,
        tenant_metrics=args.tenant_metrics,
        learner_kwargs={"num_models": 1, "seed": args.seed},
    )
    lr = args.lr if args.lr is not None else 0.05
    model_factory = model_factory_for(args.model, args.features,
                                      args.classes, lr, seed=args.seed)

    def factory(_tenant: str) -> Learner:
        return Learner(model_factory, **config.learner_kwargs)

    obs = Observability.in_memory() if args.metrics else None
    store = (DirCheckpointStore(args.checkpoint_dir)
             if args.checkpoint_dir else None)
    registry = SessionRegistry(factory, capacity=config.max_active_tenants,
                               store=store, obs=obs)
    arrivals = zipf_tenants(args.requests, args.tenants,
                            exponent=args.zipf, seed=args.seed)
    requests = make_requests(arrivals, rows_per_request=args.rows,
                             num_features=args.features,
                             num_classes=args.classes, seed=args.seed)
    started = time.perf_counter()
    results, service = serve_requests(config, registry, requests,
                                      obs=obs, window=args.window)
    elapsed = time.perf_counter() - started
    summary = service.summary()
    rows_served = sum(len(result.labels) for result in results
                      if result.accepted)
    latencies = sorted(result.latency_s for result in results
                       if result.accepted)
    p50 = latencies[len(latencies) // 2] if latencies else 0.0
    p99 = latencies[int(len(latencies) * 0.99)] if latencies else 0.0
    shed_rate = summary["requests_shed"] / max(1, len(results))
    if args.json:
        payload = {
            "tenants": args.tenants,
            "requests": len(results),
            "elapsed_s": elapsed,
            "throughput_rows_s": rows_served / max(elapsed, 1e-9),
            "latency_p50_s": p50,
            "latency_p99_s": p99,
            "shed_rate": shed_rate,
            **summary,
        }
        if obs is not None:
            payload["metrics"] = obs.registry.snapshot()
        print(json.dumps(payload, indent=2, default=float))
    else:
        registry_stats = summary["registry"]
        print(f"tenants   : {args.tenants} "
              f"(capacity {config.max_active_tenants})")
        print(f"requests  : {len(results)} "
              f"(ok {summary['requests_ok']}, "
              f"shed {summary['requests_shed']}, "
              f"failed {summary['requests_failed']})")
        print(f"throughput: {rows_served / max(elapsed, 1e-9) / 1e3:.1f} "
              f"K rows/s over {elapsed:.2f}s")
        print(f"latency   : p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms")
        print(f"shed rate : {shed_rate * 100:.2f}%")
        print(f"registry  : {registry_stats['activations']} activations "
              f"({registry_stats['rehydrations']} rehydrated), "
              f"{registry_stats['evictions']} evictions")
        if obs is not None:
            print()
            print(obs.registry.render_text(), end="")
    if obs is not None:
        obs.close()
    return 0


def _cmd_compare(args) -> int:
    generator = _generator(args)
    group = LR_GROUP if args.model == "lr" else MLP_GROUP
    frameworks = [*group, "freewayml"]
    results = run_matrix(frameworks, {generator.name: generator},
                         _config(args))
    print(render_accuracy_table(
        results, title=f"{generator.name} / Streaming{args.model.upper()}"
    ))
    return 0


def _cmd_datasets(_args) -> int:
    print("tabular benchmarks (paper Table I):")
    for name, generator in all_benchmark_datasets().items():
        print(f"  {name:12s} {generator.num_features:3d} features, "
              f"{generator.num_classes} classes")
    print("image streams (paper appendix):")
    for name, stream_cls in IMAGE_REGISTRY.items():
        instance = stream_cls()
        print(f"  {name:12s} 1x16x16 images, "
              f"{instance.num_classes} classes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FreewayML (ICDE 2025 reproduction) experiment runner",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="evaluate one framework on one dataset"
    )
    _add_common(run_parser)
    run_parser.add_argument("--framework", default="freewayml",
                            choices=FRAMEWORK_CHOICES)
    run_parser.add_argument("--backend", default="serial",
                            choices=["serial", "thread", "process"],
                            help="execution backend for distributed "
                                 "freewayml runs (with --workers > 1)")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="replica count; > 1 runs the "
                                 "data-parallel DistributedLearner")
    run_parser.add_argument("--sync-every", type=int, default=1,
                            dest="sync_every",
                            help="batches between parameter-averaging "
                                 "rounds (distributed runs)")
    run_parser.add_argument("--max-restarts", type=int, default=2,
                            dest="max_restarts",
                            help="supervised restarts allowed per worker "
                                 "before the failure propagates "
                                 "(process backend)")
    run_parser.add_argument("--degrade", action="store_true",
                            help="graceful degradation: mechanism failures "
                                 "downgrade along the fallback chain "
                                 "instead of propagating")
    run_parser.add_argument("--trace", metavar="PATH", default=None,
                            help="write the decision-event/span JSONL log "
                                 "here (freewayml only)")
    run_parser.add_argument("--metrics", action="store_true",
                            help="print the metrics snapshot after the run")
    run_parser.add_argument("--serve-telemetry", nargs="?", const=0,
                            default=None, type=int, metavar="PORT",
                            dest="serve_telemetry",
                            help="serve /metrics, /health, and /snapshot "
                                 "on 127.0.0.1 for the duration of the run "
                                 "(omit PORT for an ephemeral port; see "
                                 "docs/OBSERVABILITY.md)")
    run_parser.add_argument("--slo-degrade", action="store_true",
                            dest="slo_degrade",
                            help="let an active SLO alert pre-emptively "
                                 "switch the learner into degraded mode "
                                 "(with --serve-telemetry)")
    run_parser.add_argument("--profile", action="store_true",
                            help="print the learner's per-span hot-path "
                                 "breakdown after the run (freewayml, "
                                 "single process)")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the result as a single JSON object")
    run_parser.set_defaults(handler=_cmd_run)

    report_parser = commands.add_parser(
        "report", help="summarize a JSONL trace written by `run --trace` "
                       "or a saved /snapshot JSON dump"
    )
    report_parser.add_argument("trace", help="path to the JSONL trace "
                                             "(or /snapshot JSON dump)")
    report_parser.add_argument("--json", action="store_true",
                               help="emit the summary as JSON")
    report_parser.set_defaults(handler=_cmd_report)

    compare_parser = commands.add_parser(
        "compare", help="Table-I-style comparison on one dataset"
    )
    _add_common(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare)

    serve_parser = commands.add_parser(
        "serve",
        help="drive the multi-tenant serving front end over a synthetic "
             "Zipf workload (see docs/SERVING.md)",
    )
    serve_parser.add_argument("--tenants", type=int, default=256,
                              help="distinct tenants in the workload")
    serve_parser.add_argument("--requests", type=int, default=4000,
                              help="total requests across all tenants")
    serve_parser.add_argument("--capacity", type=int, default=32,
                              help="resident-session bound "
                                   "(ServeConfig.max_active_tenants)")
    serve_parser.add_argument("--microbatch-size", type=int, default=32,
                              dest="microbatch_size",
                              help="rows coalesced per micro-batch")
    serve_parser.add_argument("--microbatch-timeout", type=float,
                              default=0.05, dest="microbatch_timeout",
                              help="seconds a partial micro-batch may age")
    serve_parser.add_argument("--shed-policy", default="reject",
                              dest="shed_policy",
                              choices=["reject", "oldest", "block"],
                              help="admission policy when a queue bound "
                                   "is hit")
    serve_parser.add_argument("--max-pending-per-tenant", type=int,
                              default=64, dest="max_pending_per_tenant",
                              help="per-tenant pending-request bound")
    serve_parser.add_argument("--max-pending-total", type=int, default=4096,
                              dest="max_pending_total",
                              help="global pending-request bound")
    serve_parser.add_argument("--breaker-threshold", type=int, default=3,
                              dest="breaker_threshold",
                              help="consecutive failures opening a "
                                   "tenant's serving circuit")
    serve_parser.add_argument("--breaker-cooldown", type=int, default=50,
                              dest="breaker_cooldown",
                              help="micro-batches an open circuit blocks "
                                   "admission")
    serve_parser.add_argument("--degrade-watermark", type=float,
                              default=None, dest="degrade_watermark",
                              metavar="FRACTION",
                              help="global pending fraction above which "
                                   "resident estimators degrade "
                                   "(default: coupling disabled)")
    serve_parser.add_argument("--tenant-metrics", action="store_true",
                              dest="tenant_metrics",
                              help="label serving metrics per tenant "
                                   "(high cardinality)")
    serve_parser.add_argument("--checkpoint-dir", default=None,
                              dest="checkpoint_dir", metavar="PATH",
                              help="durable per-tenant .npz checkpoints "
                                   "here (default: in-memory store)")
    serve_parser.add_argument("--zipf", type=float, default=1.1,
                              help="Zipf exponent of tenant popularity")
    serve_parser.add_argument("--rows", type=int, default=8,
                              help="rows per request")
    serve_parser.add_argument("--window", type=int, default=256,
                              help="concurrent in-flight submissions")
    serve_parser.add_argument("--model", default="lr",
                              choices=["lr", "mlp", "cnn"])
    serve_parser.add_argument("--features", type=int, default=8,
                              help="features per row")
    serve_parser.add_argument("--classes", type=int, default=2,
                              help="label classes per tenant stream")
    serve_parser.add_argument("--lr", type=float, default=None,
                              help="learning rate (default 0.05)")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--metrics", action="store_true",
                              help="print the serving metrics snapshot")
    serve_parser.add_argument("--json", action="store_true",
                              help="emit the result as a single JSON "
                                   "object")
    serve_parser.set_defaults(handler=_cmd_serve)

    datasets_parser = commands.add_parser(
        "datasets", help="list built-in datasets"
    )
    datasets_parser.set_defaults(handler=_cmd_datasets)

    analyze_parser = commands.add_parser(
        "analyze",
        help="static REP001-REP007 lint pass; --concurrency adds "
             "REP008-REP011 (see docs/ANALYSIS.md)",
    )
    analyze_parser.add_argument("paths", nargs="*", default=["src"],
                                help="files or directories to analyze "
                                     "(default: src)")
    analyze_parser.add_argument("--format", choices=["text", "json"],
                                default="text",
                                help="report format (json is machine-readable)")
    analyze_parser.add_argument("--show-suppressed", action="store_true",
                                help="also list noqa-suppressed findings")
    analyze_parser.add_argument("--check-models", action="store_true",
                                help="additionally run symbolic shape "
                                     "verification over the model zoo")
    analyze_parser.add_argument("--concurrency", action="store_true",
                                help="additionally run the execution-context "
                                     "concurrency pass (REP008-REP011)")
    analyze_parser.set_defaults(handler=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
