"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-mlp --seed 1 --seconds 12 --trace 0

The run measures whole passes (see ``workloads.py``) until ``--seconds``
have gone by and the workload's minimum of passes is done, checks that
the outputs are correct, prints a table of metrics with units and sample
counts, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  Times are scaled to a reference
host speed (see ``measure.py``).  The program is imported from ``src/``
beside this directory; without it the run fails before measuring
anything.
"""

import time

PROCESS_START = time.perf_counter()

# The clock above starts before any import, to report import time.
import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads: a second thread burns a second
# core without raising throughput at these matrix sizes.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import measure  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: End-to-end metrics: ``(name, unit)``, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("prequential_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_passes(workload, seconds: float, trace: bool) -> list:
    """Whole passes until ``seconds`` elapse and the workload's minimum
    is done; with ``trace`` every second pass is traced."""
    passes = []
    started = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - started < seconds):
        passes.append(workload.run_pass(traced=trace and len(passes) % 2 == 1))
    return passes


def end_to_end(workload, passes, peak_rss_mb: float) -> dict:
    """The end-to-end metrics.  ``setup_s`` is the median pass set-up:
    building the program's state and running the warm-up prefix."""
    rows_per_s, latencies = workload.summarize(passes)
    p50, p90 = (measure.percentile(latencies, 50),
                measure.percentile(latencies, 90))
    if p90 is None:
        raise ValueError(f"{len(latencies)} latencies cannot support a p90")
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "rows_per_s": rows_per_s,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "prequential_accuracy": (sum(p.correct_labels for p in passes)
                                 / sum(p.labeled_rows for p in passes)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes, layers) -> dict:
    """Medians over the traced passes; counts stay integers.  The
    overhead compares the median rates of untraced and traced passes."""
    traced = [p for p in passes if p.layers is not None]
    untraced = [p for p in passes if p.layers is None]
    values = {}
    for name, unit in layers.PER_LAYER:
        if name == "bench.trace_overhead":
            values[name] = (statistics.median(p.rows_per_s for p in untraced)
                            / statistics.median(p.rows_per_s for p in traced)
                            - 1.0)
        elif unit in layers.WHOLE_UNITS:
            values[name] = int(statistics.median_low(
                p.layers[name] for p in traced))
        else:
            values[name] = statistics.median(p.layers[name] for p in traced)
    return values


def print_table(name, workload, passes, metrics, units, trace,
                import_s) -> None:
    """Metrics with units, then (untraced runs) the latency sample counts,
    the failures, the set-up parts and each pass's slowdown."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {name}: {len(passes)} passes")
    for metric, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {metric:<44} {shown} {units[metric]}")
    if not trace:
        _rows_per_s, latencies = workload.summarize(passes)
        for percent in (50, 90, 99):
            value = measure.percentile(latencies, percent)
            shown = (f"{value * 1e3:.4f} ms" if value is not None
                     else f"not reported (< {measure.MIN_BEYOND} beyond)")
            print(f"  latency p{percent}: {shown} (n={len(latencies)} "
                  f"{workload.latency_of}, "
                  f"{measure.samples_beyond(len(latencies), percent)} beyond)")
    print(f"  failed_ratio: {measure.failed_ratio(attempted, failed):.6g} "
          f"ratio ({failed} of {attempted} failed or shed)")
    setups = ", ".join(f"{p.setup_s:.4f}" for p in passes)
    print(f"  set-up per pass: {setups} s; importing the program, once and "
          f"not scaled: {import_s:.4f} s")
    slowdowns = ", ".join(f"{p.slowdown:.3f}" for p in passes)
    print(f"  host slowdown per pass (times were divided by it): {slowdowns}")


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    import_s = time.perf_counter() - PROCESS_START

    args = parse_args(argv, workloads.NAMES)
    workload = workloads.make_workload(args.workload, args.seed)
    passes = run_passes(workload, args.seconds, bool(args.trace))
    peak_rss_mb = measure.peak_rss_mb()
    problems = workload.check(passes)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(passes, layers)
        units = dict(layers.PER_LAYER)
    else:
        metrics = end_to_end(workload, passes, peak_rss_mb)
        units = dict(END_TO_END)
    print_table(args.workload, workload, passes, metrics, units,
                args.trace, import_s)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
