"""Hot-path benchmark: end-to-end ``Learner.process`` latency/throughput.

Measures LR / MLP / CNN learners over the three canonical stream shapes
(A: slight directional drift, B: sudden concept switches, C: the mixed
schedule with reoccurrences), in two modes:

- ``optimized`` — the default flag state of :mod:`repro.perf`;
- ``reference`` — everything under ``optimizations_disabled()``.

On a checkout that predates ``repro.perf`` (the "before" tree of the
perf pass) the script still runs — both modes then measure the legacy
implementation — so the same file produces the before/after numbers in
``BENCH_hotpath.json``.

Every invocation first asserts the equivalence gate: the optimized and
reference modes must produce *identical* accuracy sequences on the MLP
slight-shift stream.  A benchmark that got faster by changing results is
reported as a failure, not a speedup.

``--stacked`` measures a different axis: N small same-architecture
streaming models served by the stacked multi-model engine
(:mod:`repro.nn.stacked`), loaded into their arena once, trained there
and stored back, versus the per-model serial loop, with its own
equivalence gate — every per-model prediction and every updated
parameter must be bitwise identical between the two paths — plus a
throughput floor (the stacked engine must be at least 2x the serial
loop at N >= 32).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full grid
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_hotpath.py --stacked  # model axis
    PYTHONPATH=src python benchmarks/bench_hotpath.py --json out.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time

import numpy as np

from repro.core import Learner
from repro.data.drift import (GaussianMixtureConcept, Segment,
                              pattern_mix_schedule, stream_from_schedule)
from repro.eval import model_factory_for

try:
    from repro.perf import optimizations_disabled
    HAVE_PERF = True
except ImportError:  # pre-perf-pass checkout: reference mode == optimized
    optimizations_disabled = contextlib.nullcontext
    HAVE_PERF = False

BATCH_SIZE = 128
NUM_FEATURES = 16
NUM_CLASSES = 4
MODELS = ("lr", "mlp", "cnn")
STREAMS = ("slight", "sudden", "reoccurring")


def make_stream(kind: str, num_batches: int, batch_size: int = BATCH_SIZE):
    """Deterministic stream of one pattern family (same seed every call)."""
    rng = np.random.default_rng(7)
    if kind == "slight":
        concepts = {"c0": GaussianMixtureConcept(NUM_CLASSES, NUM_FEATURES,
                                                 rng, spread=3.0)}
        segments = [Segment("c0", num_batches, kind="directional",
                            magnitude=0.05)]
    elif kind == "sudden":
        base = GaussianMixtureConcept(NUM_CLASSES, NUM_FEATURES, rng,
                                      spread=3.0)
        concepts = {"c0": base, "c1": base.remix(rng, offset=4.0)}
        half = max(num_batches // 2, 1)
        segments = [
            Segment("c0", half, kind="stationary"),
            Segment("c1", num_batches - half, kind="stationary",
                    entry="sudden"),
        ]
    elif kind == "reoccurring":
        concepts, segments = pattern_mix_schedule(
            rng, num_classes=NUM_CLASSES, num_features=NUM_FEATURES,
            segment_length=max(num_batches // 7, 4),
        )
    else:
        raise ValueError(f"unknown stream kind {kind!r}")
    return list(stream_from_schedule(concepts, segments, batch_size, rng,
                                     num_classes=NUM_CLASSES))


def run_stream(model: str, batches, collect_accuracy: bool = False):
    """One prequential pass; returns (per-batch seconds, accuracies)."""
    factory = model_factory_for(model, NUM_FEATURES, NUM_CLASSES,
                                lr=0.3, seed=0)
    learner = Learner(factory, seed=0)
    latencies, accuracies = [], []
    for batch in batches:
        start = time.perf_counter()
        report = learner.process(batch)
        latencies.append(time.perf_counter() - start)
        if collect_accuracy:
            accuracies.append(report.accuracy)
    return latencies, accuracies


def measure(model: str, stream_kind: str, num_batches: int, repeats: int,
            optimized: bool, batch_size: int = BATCH_SIZE) -> dict:
    """Median per-batch latency and throughput over ``repeats`` passes."""
    batches = make_stream(stream_kind, num_batches, batch_size)
    context = (contextlib.nullcontext() if optimized
               else optimizations_disabled())
    with context:
        run_stream(model, batches[:max(num_batches // 4, 2)])  # warm-up
        per_pass = []
        all_latencies = []
        for _ in range(repeats):
            latencies, _ = run_stream(model, batches)
            all_latencies.extend(latencies)
            per_pass.append(num_batches / sum(latencies))
    # Latency is the median over every timed batch; throughput is the
    # *best* pass (the timeit estimator: other processes can only slow a
    # pass down, so the fastest pass is the least-contaminated sample).
    return {
        "model": model,
        "stream": stream_kind,
        "batch_size": batch_size,
        "num_batches": num_batches,
        "repeats": repeats,
        "median_batch_latency_ms": statistics.median(all_latencies) * 1e3,
        "batches_per_s": max(per_pass),
        "items_per_s": max(per_pass) * batch_size,
    }


def equivalence_gate(num_batches: int = 16) -> bool:
    """Optimized and reference must answer the stream identically."""
    batches = make_stream("slight", num_batches)
    _, optimized = run_stream("mlp", batches, collect_accuracy=True)
    with optimizations_disabled():
        _, reference = run_stream("mlp", batches, collect_accuracy=True)
    return optimized == reference


STACKED_MODELS = ("lr", "mlp")
STACKED_SIZES = (8, 32)
STACKED_SPEEDUP_FLOOR = 2.0  # required at N >= 32


def _tenant(kind: str, seed: int):
    """A tenant-sized streaming model for the stacked axis: LR, or an MLP
    with one hidden layer of 16 units; momentum SGD."""
    from repro.models.logistic import StreamingLR
    from repro.models.mlp import StreamingMLP

    if kind == "lr":
        return StreamingLR(NUM_FEATURES, NUM_CLASSES, lr=0.1, momentum=0.9,
                           seed=seed)
    return StreamingMLP(NUM_FEATURES, NUM_CLASSES, hidden=(16,), lr=0.1,
                        momentum=0.9, seed=seed)


def _softmax(data: np.ndarray) -> np.ndarray:
    shifted = data - data.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.exp(shifted - log_norm)


def measure_stacked(kind: str, num_models: int, steps: int, repeats: int,
                    batch_size: int = 32) -> dict:
    """Stacked engine vs. per-model serial loop over one model fleet.

    Both paths run predict-then-train each step (the serving pattern).
    The equivalence gate compares *every* step's per-model predictions
    and the final parameters bitwise; the timing takes the best of
    ``repeats`` passes per path, each from a freshly built fleet.
    """
    from repro import nn
    from repro.nn import functional as F
    from repro.nn.stacked import stacked_arena

    rng = np.random.default_rng(11)
    xs = rng.normal(size=(steps, num_models, batch_size, NUM_FEATURES))
    ys = rng.integers(0, NUM_CLASSES, size=(steps, num_models, batch_size))

    def build():
        return [_tenant(kind, seed) for seed in range(num_models)]

    def serial_run(models):
        predictions = np.empty((steps, num_models, batch_size), dtype=int)
        start = time.perf_counter()
        for step in range(steps):
            for index, model in enumerate(models):
                module, optimizer = model.module, model.optimizer
                x, y = xs[step, index], ys[step, index]
                module.eval()
                with nn.no_grad():
                    logits = module(nn.Tensor(x))
                module.train()
                predictions[step, index] = _softmax(
                    logits.data).argmax(axis=-1)
                optimizer.zero_grad()
                loss = F.cross_entropy(module(nn.Tensor(x)), y)
                loss.backward()
                optimizer.step()
        return time.perf_counter() - start, predictions

    def stacked_run(models):
        predictions = np.empty((steps, num_models, batch_size), dtype=int)
        start = time.perf_counter()
        arena = stacked_arena(models)
        arena.load(models, train=True)
        for step in range(steps):
            predictions[step] = arena.stack.predict_proba(
                xs[step]).argmax(axis=-1)
            nn.stacked_fit(arena.stack, arena.optimizer, xs[step], ys[step])
        arena.store(models)
        return time.perf_counter() - start, predictions

    serial_models = build()
    stacked_models = build()
    serial_times, stacked_times = [], []
    elapsed, serial_preds = serial_run(serial_models)
    serial_times.append(elapsed)
    elapsed, stacked_preds = stacked_run(stacked_models)
    stacked_times.append(elapsed)
    equivalent = bool(np.array_equal(serial_preds, stacked_preds)) and all(
        np.array_equal(mine.data, theirs.data)
        for serial_model, stacked_model in zip(serial_models, stacked_models)
        for mine, theirs in zip(serial_model.module.parameters(),
                                stacked_model.module.parameters()))
    for _ in range(repeats - 1):
        serial_times.append(serial_run(build())[0])
        stacked_times.append(stacked_run(build())[0])
    rows = steps * num_models * batch_size
    speedup = min(serial_times) / min(stacked_times)
    return {
        "axis": "stacked",
        "model": kind,
        "num_models": num_models,
        "steps": steps,
        "batch_size": batch_size,
        "repeats": repeats,
        "serial_items_per_s": rows / min(serial_times),
        "stacked_items_per_s": rows / min(stacked_times),
        "speedup": speedup,
        "equivalent": equivalent,
        "meets_floor": (speedup >= STACKED_SPEEDUP_FLOOR
                        if num_models >= 32 else True),
    }


def run_stacked_axis(num_models_list=STACKED_SIZES, steps: int = 30,
                     repeats: int = 3,
                     models=STACKED_MODELS) -> list[dict]:
    results = []
    for kind in models:
        for num_models in num_models_list:
            entry = measure_stacked(kind, num_models, steps, repeats)
            results.append(entry)
            gate = "ok" if entry["equivalent"] else "NOT EQUIVALENT"
            print(f"{kind:>4} x{num_models:<3} stacked: "
                  f"{entry['speedup']:5.2f}x serial "
                  f"({entry['stacked_items_per_s']:9.0f} items/s)  "
                  f"[bitwise {gate}]", file=sys.stderr)
    return results


#: Every model runs the bitwise gate; only the MLP has a speed floor.
#: The tabular CNN's time is numpy work either way (docs/PERF.md), so
#: its cell guards bits, and ``regress.py`` gates no ``plans/cnn`` cell
#: until a baseline records one.
PLAN_MODELS = ("lr", "mlp", "cnn")
PLAN_SPEEDUP_FLOOR = 1.3  # required for MLP (fit axis) in full runs


def measure_plans(kind: str, num_batches: int, repeats: int,
                  batch_size: int = BATCH_SIZE) -> dict:
    """Captured-plan replay vs. the define-by-run path.

    Runs the serving pattern (predict, then train) directly on one
    streaming model over the slight-shift stream, with ``plan_capture``
    on versus off, the only perf flag, so the speedup is plans-only.
    The equivalence gate compares every loss, every prediction, and the
    final parameters bitwise.
    """
    from repro.nn import plan as nn_plan
    from repro.perf import configure

    batches = make_stream("slight", num_batches, batch_size)

    def one_pass(plans_on: bool):
        # Plans are shared across models, so every pass (on and off)
        # starts from an empty cache: each on-pass captures afresh.
        nn_plan.clear_plans()
        factory = model_factory_for(kind, NUM_FEATURES, NUM_CLASSES,
                                    lr=0.3, seed=0)
        model = factory()
        losses = []
        predictions = np.empty((len(batches), batch_size), dtype=int)
        with configure(plan_capture=plans_on):
            # Warm-up (untimed): triggers the one-time capture, so the
            # timed loop measures steady-state replay — the regime the
            # trace-once/replay-many engine exists for.  Both modes warm
            # up identically, so the bitwise comparison still holds.
            for batch in batches[:2]:
                model.predict_proba(batch.x)
                model.partial_fit(batch.x, batch.y)
            start = time.perf_counter()
            for index, batch in enumerate(batches):
                predictions[index] = model.predict_proba(
                    batch.x).argmax(axis=1)
                losses.append(model.partial_fit(batch.x, batch.y))
            elapsed = time.perf_counter() - start
        return elapsed, losses, predictions, model.state_dict()

    on_times, off_times = [], []
    elapsed, losses_on, preds_on, state_on = one_pass(True)
    on_times.append(elapsed)
    elapsed, losses_off, preds_off, state_off = one_pass(False)
    off_times.append(elapsed)
    equivalent = (losses_on == losses_off
                  and bool(np.array_equal(preds_on, preds_off))
                  and all(state_on[key].tobytes() == state_off[key].tobytes()
                          for key in state_on))
    for _ in range(repeats - 1):
        on_times.append(one_pass(True)[0])
        off_times.append(one_pass(False)[0])
    rows = len(batches) * batch_size
    return {
        "axis": "plans",
        "model": kind,
        "stream": "slight",
        "batch_size": batch_size,
        "num_batches": num_batches,
        "repeats": repeats,
        "baseline_items_per_s": rows / min(off_times),
        "plans_items_per_s": rows / min(on_times),
        "speedup": min(off_times) / min(on_times),
        "equivalent": equivalent,
    }


def measure_plans_stacked(num_models: int = 8, steps: int = 30,
                          repeats: int = 3, batch_size: int = 32) -> dict:
    """Plan replay stacked compound cell: plans on vs off, both stacked.

    Shows the two engines multiply — the stacked batched step gets rid of
    the per-model Python loop, and the captured plan then removes the
    remaining per-step graph construction on top of it.
    """
    from repro import nn
    from repro.nn import plan as nn_plan
    from repro.nn.stacked import stacked_arena
    from repro.perf import configure

    rng = np.random.default_rng(5)
    xs = rng.normal(size=(steps, num_models, batch_size, NUM_FEATURES))
    ys = rng.integers(0, NUM_CLASSES, size=(steps, num_models, batch_size))

    def one_pass(plans_on: bool):
        nn_plan.clear_plans()
        models = [_tenant("mlp", seed) for seed in range(num_models)]
        arena = stacked_arena(models)
        arena.load(models, train=True)
        stack, optimizer = arena.stack, arena.optimizer
        losses = np.empty((steps, num_models))
        with configure(plan_capture=plans_on):
            # Untimed warm-up: first call captures, later calls replay.
            for step in range(2):
                nn.stacked_fit(stack, optimizer, xs[step], ys[step])
            start = time.perf_counter()
            for step in range(steps):
                losses[step] = nn.stacked_fit(stack, optimizer,
                                              xs[step], ys[step])
            elapsed = time.perf_counter() - start
        arena.store(models)
        params = np.concatenate([parameter.data.ravel()
                                 for model in models
                                 for parameter in model.module.parameters()])
        return elapsed, losses, params

    on_times, off_times = [], []
    elapsed, losses_on, params_on = one_pass(True)
    on_times.append(elapsed)
    elapsed, losses_off, params_off = one_pass(False)
    off_times.append(elapsed)
    equivalent = (losses_on.tobytes() == losses_off.tobytes()
                  and params_on.tobytes() == params_off.tobytes())
    for _ in range(repeats - 1):
        on_times.append(one_pass(True)[0])
        off_times.append(one_pass(False)[0])
    rows = steps * num_models * batch_size
    return {
        "axis": "plans-stacked",
        "model": "mlp",
        "num_models": num_models,
        "steps": steps,
        "batch_size": batch_size,
        "repeats": repeats,
        "baseline_items_per_s": rows / min(off_times),
        "plans_items_per_s": rows / min(on_times),
        "speedup": min(off_times) / min(on_times),
        "equivalent": equivalent,
    }


def run_plans_axis(num_batches: int, repeats: int, smoke: bool,
                   models=PLAN_MODELS) -> tuple[list[dict], int]:
    """All plan cells; returns (results, exit_code)."""
    results = []
    for kind in models:
        results.append(measure_plans(kind, num_batches, repeats))
    # The stacked cell is cheap per step, so it runs the full step count
    # (short passes are too jittery for the 25% regression threshold).
    results.append(measure_plans_stacked(
        steps=max(num_batches, 6), repeats=repeats))
    failures = []
    for entry in results:
        gate = "ok" if entry["equivalent"] else "NOT EQUIVALENT"
        label = (f"{entry['model']} x{entry['num_models']}"
                 if entry["axis"] == "plans-stacked" else entry["model"])
        print(f"{label:>8} {entry['axis']:>13}: {entry['speedup']:5.2f}x "
              f"baseline ({entry['plans_items_per_s']:9.0f} items/s)  "
              f"[bitwise {gate}]", file=sys.stderr)
        if not entry["equivalent"]:
            failures.append(f"{label} not bitwise-equivalent")
        if (entry["axis"] == "plans" and entry["model"] == "mlp"
                and not smoke and entry["speedup"] < PLAN_SPEEDUP_FLOOR):
            # Smoke runs are too short for a stable ratio; the full run
            # (and regress.py --check) enforce the floor.
            failures.append(f"mlp plan speedup {entry['speedup']:.2f}x "
                            f"below the {PLAN_SPEEDUP_FLOOR}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return results, 1 if failures else 0


def run_grid(models, streams, num_batches: int, repeats: int,
             modes=("optimized", "reference")) -> list[dict]:
    results = []
    for model in models:
        for stream_kind in streams:
            for mode in modes:
                entry = measure(model, stream_kind, num_batches, repeats,
                                optimized=(mode == "optimized"))
                entry["mode"] = mode
                results.append(entry)
                print(f"{model:>4} {stream_kind:>11} {mode:>9}: "
                      f"{entry['median_batch_latency_ms']:7.2f} ms/batch  "
                      f"{entry['items_per_s']:9.0f} items/s",
                      file=sys.stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: MLP x slight only, few batches")
    parser.add_argument("--stacked", action="store_true",
                        help="measure the stacked multi-model engine vs "
                             "the per-model serial loop instead")
    parser.add_argument("--plans", action="store_true",
                        help="measure captured-plan replay (plan_capture) "
                             "vs the define-by-run path instead")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH ('-' = stdout)")
    parser.add_argument("--batches", type=int, default=None,
                        help="batches per pass (default 60, smoke 16)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="passes per cell (default 5, smoke 2)")
    args = parser.parse_args(argv)

    if args.plans:
        num_batches = args.batches or (16 if args.smoke else 60)
        repeats = args.repeats or (2 if args.smoke else 3)
        results, code = run_plans_axis(num_batches, repeats, args.smoke)
        payload = {"axis": "plans", "results": results}
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            print()
        elif args.json:
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
        return code

    if args.stacked:
        steps = args.batches or (12 if args.smoke else 30)
        repeats = args.repeats or (2 if args.smoke else 3)
        results = run_stacked_axis(steps=steps, repeats=repeats)
        broken = [entry for entry in results if not entry["equivalent"]]
        slow = [entry for entry in results if not entry["meets_floor"]]
        if broken:
            print("FAIL: stacked and serial execution disagree bitwise for "
                  + ", ".join(f"{e['model']} x{e['num_models']}"
                              for e in broken), file=sys.stderr)
            return 1
        if slow:
            print(f"FAIL: stacked speedup below "
                  f"{STACKED_SPEEDUP_FLOOR:.0f}x at N >= 32 for "
                  + ", ".join(f"{e['model']} x{e['num_models']} "
                              f"({e['speedup']:.2f}x)" for e in slow),
                  file=sys.stderr)
            return 1
        payload = {"axis": "stacked", "results": results}
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            print()
        elif args.json:
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
        return 0

    if args.smoke:
        models, streams = ("mlp",), ("slight",)
        num_batches = args.batches or 16
        repeats = args.repeats or 2
    else:
        models, streams = MODELS, STREAMS
        num_batches = args.batches or 60
        repeats = args.repeats or 5

    equivalent = equivalence_gate()
    if HAVE_PERF and not equivalent:
        print("FAIL: optimized and reference modes disagree on the MLP "
              "slight-shift accuracy sequence", file=sys.stderr)
        return 1
    print(f"equivalence gate: {'ok' if equivalent else 'n/a (no repro.perf)'}",
          file=sys.stderr)

    results = run_grid(models, streams, num_batches, repeats)
    payload = {
        "have_perf_package": HAVE_PERF,
        "equivalent": equivalent,
        "batch_size": BATCH_SIZE,
        "results": results,
    }
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
