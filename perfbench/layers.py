"""Per-layer attribution for the traced run.

The tracer times calls into each layer's public functions from the
benchmark's side: it replaces the method on the live instance (or the
module attribute) with a timing wrapper, and reads the counters the
program already exposes (the plan-cache hook, ``SessionRegistry.stats``,
``StreamingService.summary``/``grouping``).  Nothing inside the program
changes.  Busy seconds are inclusive: a wrapper's time contains every
wrapped call beneath it (``core.learner.update_s`` contains
``core.multigranularity.long_fit_s``, which contains the plan captures
of those fits).
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import repro.serving.service as service_module
from repro.core import Learner
from repro.nn.plan import add_plan_hook, remove_plan_hook

__all__ = ["PER_LAYER", "WHOLE_UNITS", "LayerTracer"]

#: ``(name, unit)`` of every per-layer metric, in BENCHMARK.json order.
#: A ``_s`` name is busy seconds per pass; metrics in :data:`WHOLE_UNITS`
#: print as integers.
PER_LAYER = (
    ("core.learner.predict_s", "s"),
    ("core.learner.update_s", "s"),
    ("shift.assess_s", "s"),
    ("core.selector.multi_granularity_batches", "count"),
    ("core.selector.cec_batches", "count"),
    ("core.selector.knowledge_reuse_batches", "count"),
    ("core.selector.fallback_batches", "count"),
    ("core.multigranularity.predict_s", "s"),
    ("core.multigranularity.short_fit_s", "s"),
    ("core.multigranularity.short_fit_calls", "count"),
    ("core.multigranularity.long_fit_s", "s"),
    ("core.multigranularity.long_fit_calls", "count"),
    ("core.multigranularity.long_fit_rows", "rows"),
    ("core.asw.add_s", "s"),
    ("core.asw.training_data_s", "s"),
    ("core.cec.predict_s", "s"),
    ("core.cec.predict_calls", "count"),
    ("core.cec.experience_add_s", "s"),
    ("core.knowledge.match_s", "s"),
    ("core.knowledge.restore_s", "s"),
    ("core.knowledge.preserve_s", "s"),
    ("core.knowledge.entries", "count"),
    ("models.predict_proba_s", "s"),
    ("models.predict_proba_calls", "count"),
    ("models.partial_fit_s", "s"),
    ("models.partial_fit_calls", "count"),
    ("nn.plan.capture_count", "count"),
    ("nn.plan.capture_s", "s"),
    ("nn.plan.replay_count", "count"),
    ("nn.plan.replay_s", "s"),
    ("nn.plan.invalidate_count", "count"),
    ("nn.plan.unsupported_count", "count"),
    ("nn.plan.reuse_ratio", "ratio"),
    ("serving.service.microbatches", "count"),
    ("serving.service.requests_per_microbatch", "requests"),
    ("serving.service.shed", "count"),
    ("serving.service.failed", "count"),
    ("serving.registry.acquire_s", "s"),
    ("serving.registry.acquire_calls", "count"),
    ("serving.registry.factory_s", "s"),
    ("serving.registry.activations", "count"),
    ("serving.registry.rehydrations", "count"),
    ("serving.registry.evictions", "count"),
    ("serving.registry.hit_ratio", "ratio"),
    ("serving.registry.store_save_s", "s"),
    ("serving.registry.store_save_bytes", "bytes"),
    ("serving.registry.store_load_s", "s"),
    ("serving.stacked.execute_s", "s"),
    ("serving.stacked.groups", "count"),
    ("serving.stacked.group_size_mean", "tenants"),
    ("serving.stacked.share", "ratio"),
    ("serving.estimator.predict_s", "s"),
    ("serving.estimator.update_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

#: Units of metrics that count whole things.
WHOLE_UNITS = ("count", "rows", "bytes")


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


class LayerTracer:
    """Busy seconds and counts of one traced pass.

    Use as a context manager around the timed phase: entering registers
    the plan-cache hook and wraps ``repro.serving.service.
    execute_stacked``; exiting undoes both.  Instance wrappers installed
    by :meth:`instrument_learner` / :meth:`instrument_registry` live as
    long as the instrumented objects, which belong to one pass.
    """

    def __init__(self):
        self.busy = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._execute_stacked = None

    def __enter__(self) -> "LayerTracer":
        add_plan_hook(self._on_plan_event)
        self._execute_stacked = service_module.execute_stacked
        self.wrap(service_module, "execute_stacked", "serving.stacked.execute")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        service_module.execute_stacked = self._execute_stacked
        remove_plan_hook(self._on_plan_event)

    def _on_plan_event(self, event: str, seconds: float) -> None:
        self.counts[f"nn.plan.{event}_count"] += 1
        self.busy[f"nn.plan.{event}"] += seconds

    def wrap(self, owner, attr: str, key: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a wrapper timing each call."""
        inner = getattr(owner, attr)
        busy, calls = self.busy, self.calls

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                busy[key] += perf_counter() - start
                calls[key] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, timed)

    # -- instrumentation -----------------------------------------------------

    def _count_decision(self, _args, prediction) -> None:
        decision = prediction.decision
        self.counts[f"core.selector.{decision.strategy.value}_batches"] += 1
        if decision.fallback:
            self.counts["core.selector.fallback_batches"] += 1

    def _count_long_rows(self, args, _loss) -> None:
        self.counts["core.multigranularity.long_fit_rows"] += len(args[0])

    def _count_saved_bytes(self, _args, nbytes) -> None:
        self.counts["serving.registry.store_save_bytes"] += nbytes

    def instrument_model(self, model) -> None:
        self.wrap(model, "predict_proba", "models.predict_proba")
        self.wrap(model, "partial_fit", "models.partial_fit")

    def instrument_learner(self, learner: Learner) -> None:
        self.wrap(learner, "predict", "core.learner.predict",
                  on_result=self._count_decision)
        self.wrap(learner, "update", "core.learner.update")
        self.wrap(learner.classifier, "assess", "shift.assess")
        self.wrap(learner.ensemble, "predict_proba",
                  "core.multigranularity.predict")
        for level in learner.ensemble.levels:
            self.instrument_model(level.model)
            if level.is_short:
                self.wrap(level.model, "partial_fit",
                          "core.multigranularity.short_fit")
                continue
            self.wrap(level.model, "partial_fit",
                      "core.multigranularity.long_fit",
                      on_result=self._count_long_rows)
            self.wrap(level.window, "add", "core.asw.add")
            self.wrap(level.window, "training_data", "core.asw.training_data")
        self.wrap(learner.cec, "predict", "core.cec.predict")
        self.wrap(learner.experience, "add", "core.cec.experience_add")
        self.wrap(learner.knowledge, "match", "core.knowledge.match")
        self.wrap(learner.knowledge, "restore", "core.knowledge.restore")
        self.wrap(learner.knowledge, "preserve_at_window_end",
                  "core.knowledge.preserve")

    def instrument_registry(self, registry) -> None:
        """Time the registry, its store, and every estimator it builds."""
        self.wrap(registry, "acquire", "serving.registry.acquire")
        self.wrap(registry.store, "save", "serving.registry.store_save",
                  on_result=self._count_saved_bytes)
        self.wrap(registry.store, "load", "serving.registry.store_load")
        factory = registry.factory

        def build(tenant):
            start = perf_counter()
            estimator = factory(tenant)
            self.busy["serving.registry.factory"] += perf_counter() - start
            if isinstance(estimator, Learner):
                self.instrument_learner(estimator)
            else:
                self.instrument_model(estimator.model)
            self.wrap(estimator, "predict", "serving.estimator.predict")
            self.wrap(estimator, "update", "serving.estimator.update")
            return estimator

        registry.factory = build

    # -- results -------------------------------------------------------------

    def metrics(self, *, learner: Learner | None = None, service=None,
                tenants=()) -> dict:
        """Every :data:`PER_LAYER` metric of this pass except
        ``bench.trace_overhead``, which compares passes."""
        values = {}
        for name, _unit in PER_LAYER:
            if name.endswith("_s"):
                values[name] = self.busy[name[:-2]]
            elif name.endswith("_calls"):
                values[name] = self.calls[name[:-len("_calls")]]
            else:
                values[name] = self.counts[name]
        values["nn.plan.reuse_ratio"] = _ratio(
            values["nn.plan.replay_count"],
            values["nn.plan.capture_count"] + values["nn.plan.replay_count"])
        if learner is not None:
            values["core.knowledge.entries"] = len(learner.knowledge)
        if service is not None:
            summary = service.summary()
            stats = summary["registry"]
            microbatches = sum(len(service.grouping(tenant))
                               for tenant in tenants)
            acquires = values["serving.registry.acquire_calls"]
            values.update({
                "serving.service.microbatches": microbatches,
                "serving.service.requests_per_microbatch": _ratio(
                    summary["requests_ok"], microbatches),
                "serving.service.shed": summary["requests_shed"],
                "serving.service.failed": summary["requests_failed"],
                "serving.registry.activations": stats["activations"],
                "serving.registry.rehydrations": stats["rehydrations"],
                "serving.registry.evictions": stats["evictions"],
                "serving.registry.hit_ratio": _ratio(
                    acquires - stats["activations"], acquires),
                "serving.stacked.groups": summary["stacked_groups"],
                "serving.stacked.group_size_mean": _ratio(
                    summary["batches_stacked"], summary["stacked_groups"]),
                "serving.stacked.share": _ratio(summary["batches_stacked"],
                                                microbatches),
            })
        del values["bench.trace_overhead"]
        return values
