"""Tests for the observability stack (repro.obs): metrics, traces, events."""

import json

import numpy as np
import pytest

from repro.core import Learner, RateAwareAdjuster
from repro.data import (
    Batch,
    ElectricitySimulator,
    GaussianMixtureConcept,
    Segment,
    stream_from_schedule,
)
from repro.metrics import fading_series, sliding_series
from repro.models import StreamingLR
from repro.obs import (
    EVENT_TYPES,
    NULL_OBS,
    NULL_TRACER,
    AlertRaised,
    AlertResolved,
    AswDecayApplied,
    CecInvoked,
    CheckpointRejected,
    CheckpointWritten,
    CircuitOpened,
    CompositeSink,
    Counter,
    DegradedMode,
    Gauge,
    Histogram,
    JsonlSink,
    KnowledgeEvicted,
    KnowledgePreserved,
    KnowledgeReused,
    MemorySink,
    MetricsRegistry,
    Observability,
    RequestShed,
    ShiftAssessed,
    StrategySelected,
    TenantActivated,
    TenantEvicted,
    Tracer,
    WorkerRestarted,
    event_from_dict,
    read_records,
    summarize_trace,
)


def lr_factory():
    return StreamingLR(num_features=8, num_classes=3, lr=0.3, seed=0)


SAMPLE_EVENTS = [
    ShiftAssessed(batch=3, pattern="sudden", distance=1.2, severity=4.1,
                  historical_distance=None, escalated=True),
    StrategySelected(batch=3, strategy="cec", pattern="sudden",
                     fallback=False, reason=""),
    AswDecayApplied(window="short-0", arrival=12, mean_rate=0.08,
                    disorder=0.4, inversions=9, entries=4, evicted=1),
    KnowledgePreserved(batch=5, model_kind="long", disorder=0.2,
                       nbytes=4096, store_size=3),
    KnowledgeReused(batch=9, origin_batch=5, match_distance=0.3,
                    model_kind="long"),
    KnowledgeEvicted(count=4, spilled=True, store_size=4),
    CecInvoked(batch=3, clusters=3, labeled_points=120, guided_clusters=2,
               vote_margin=0.91),
    CheckpointWritten(path="/tmp/ckpt.npz", nbytes=1234, batch=7),
    CheckpointRejected(source="knowledge",
                       reason="shape mismatch for parameter 'weight'",
                       problems=2, batch=5, model_kind="long"),
    WorkerRestarted(worker=1, restarts=1, reason="crashed", resubmitted=2,
                    reseeded=True),
    DegradedMode(batch=6, mechanism="cec",
                 fallback="multi_granularity",
                 reason="cec raised ValueError"),
    CircuitOpened(mechanism="cec", failures=3, cooldown=10),
    AlertRaised(rule="degraded-rate", signal="degraded_mode", value=0.4,
                threshold=0.25, batch=12),
    AlertResolved(rule="degraded-rate", value=0.1, threshold=0.25,
                  batches_active=9, batch=21),
    TenantActivated(tenant="acme", rehydrated=True, active=7),
    TenantEvicted(tenant="acme", nbytes=2048, active=6),
    RequestShed(tenant="acme", reason="tenant-queue-full", pending=64),
]


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)

    def test_labels_are_independent_children(self):
        counter = Counter("hits")
        counter.labels(strategy="cec").inc()
        counter.labels(strategy="cec").inc()
        counter.labels(strategy="reuse").inc()
        assert counter.labels(strategy="cec").value == 2
        assert counter.labels(strategy="reuse").value == 1
        assert counter.value == 0

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name!")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("entries")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistogram:
    def test_bucket_assignment(self):
        hist = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.7, 3.0, 100.0):
            hist.observe(value)
        # Cumulative counts per boundary: <=1 → 1, <=2 → 3, <=4 → 4.
        buckets = hist._value_dict()["buckets"]
        assert buckets[1.0] == 1
        assert buckets[2.0] == 3
        assert buckets[4.0] == 4
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.7)

    def test_quantiles_bracket_the_data(self):
        hist = Histogram("lat", buckets=tuple(float(b) for b in range(1, 21)))
        values = np.linspace(0.5, 19.5, 200)
        for value in values:
            hist.observe(float(value))
        p50 = hist.quantile(0.5)
        p95 = hist.quantile(0.95)
        assert abs(p50 - np.percentile(values, 50)) < 1.0
        assert abs(p95 - np.percentile(values, 95)) < 1.0
        assert p50 < p95

    def test_quantile_clamped_to_observed_range(self):
        hist = Histogram("lat", buckets=(1.0, 100.0))
        hist.observe(1.5)
        # Interpolation inside (1, 100] must not report ~50; clamp to max.
        assert hist.quantile(0.99) == 1.5
        assert hist.quantile(0.0) == 1.5

    def test_empty_quantile_is_zero(self):
        assert Histogram("lat").quantile(0.5) == 0.0

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(2.0, 1.0))

    def test_labeled_children_inherit_buckets(self):
        hist = Histogram("lat", buckets=(1.0, 2.0))
        child = hist.labels(strategy="cec")
        assert child.buckets == (1.0, 2.0)


class TestMetricsRegistry:
    def test_create_or_get_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "help text").labels(strategy="cec").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["help"] == "help text"
        assert snap["c"]["series"] == [
            {"labels": {"strategy": "cec"}, "value": 3.0}
        ]
        assert snap["h"]["series"][0]["count"] == 1
        json.dumps(snap)  # snapshot must be JSON-serializable

    def test_render_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("freeway_batches_total").labels(strategy="cec").inc()
        registry.histogram("freeway_lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_text()
        assert '# TYPE freeway_batches_total counter' in text
        assert 'freeway_batches_total{strategy="cec"} 1' in text
        assert 'freeway_lat_bucket{le="0.1"} 1' in text
        assert 'freeway_lat_bucket{le="+Inf"} 1' in text
        assert 'freeway_lat_count 1' in text


class TestSpans:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        assert len(tracer.finished) == 1
        root = tracer.finished[0]
        assert [child.name for child in root.children] == ["inner", "inner2"]
        assert [span.name for span in root.walk()] == [
            "outer", "inner", "inner2",
        ]

    def test_timing_monotonicity(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        root = tracer.finished[0]
        inner = root.children[0]
        assert root.duration > 0.0
        assert inner.duration > 0.0
        assert root.start <= inner.start <= inner.end <= root.end
        assert inner.duration <= root.duration

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("s", batch=3) as span:
            span.set(strategy="cec")
        assert tracer.finished[0].attributes == {
            "batch": 3, "strategy": "cec",
        }

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        assert tracer.finished[0].attributes["error"] == "RuntimeError"

    def test_root_spans_forwarded_to_sink(self):
        sink = MemorySink()
        tracer = Tracer(sink=sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["kind"] == "span"
        assert record["name"] == "outer"
        assert record["children"][0]["name"] == "inner"

    def test_max_spans_bound(self):
        tracer = Tracer(max_spans=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in tracer.finished] == ["s7", "s8", "s9"]

    def test_open_span_duration_is_zero(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            assert span.duration == 0.0
        assert span.duration > 0.0


class TestNullTracer:
    def test_span_is_shared_noop(self):
        one = NULL_TRACER.span("a", batch=1)
        two = NULL_TRACER.span("b")
        assert one is two  # no allocation per call

    def test_noop_behaviour(self):
        with NULL_TRACER.span("a") as span:
            span.set(strategy="cec")
        assert span.duration == 0.0
        assert span.attributes == {}
        assert NULL_TRACER.finished == []
        assert NULL_TRACER.current is None
        assert not NULL_TRACER.enabled

    def test_null_obs_disabled(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.tracer is NULL_TRACER
        NULL_OBS.emit(ShiftAssessed(batch=0, pattern="slight"))  # swallowed
        assert Observability.disabled() is NULL_OBS


class TestEvents:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS,
                             ids=[type(e).__name__ for e in SAMPLE_EVENTS])
    def test_dict_round_trip(self, event):
        record = event.to_dict()
        assert record["kind"] == "event"
        assert record["type"] == event.TYPE
        assert event_from_dict(json.loads(json.dumps(record))) == event

    def test_registry_covers_every_sample(self):
        assert {e.TYPE for e in SAMPLE_EVENTS} == set(EVENT_TYPES)

    def test_unknown_type_returns_none(self):
        assert event_from_dict({"kind": "event", "type": "nope"}) is None

    def test_extra_fields_ignored(self):
        record = SAMPLE_EVENTS[0].to_dict()
        record["future_field"] = 42
        assert event_from_dict(record) == SAMPLE_EVENTS[0]


class TestSinks:
    def test_jsonl_round_trip_every_event_type(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            for event in SAMPLE_EVENTS:
                sink.emit(event)
            sink.emit({"kind": "span", "name": "s", "duration": 0.1,
                       "attributes": {}, "children": []})
            assert sink.written == len(SAMPLE_EVENTS) + 1
        events, spans = read_records(path)
        assert events == SAMPLE_EVENTS
        assert len(spans) == 1 and spans[0]["name"] == "s"

    def test_jsonl_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(SAMPLE_EVENTS[0])
        with JsonlSink(path) as sink:
            sink.emit(SAMPLE_EVENTS[1])
        events, _ = read_records(path)
        assert len(events) == 2

    def test_read_records_skips_unknown_and_blank(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(SAMPLE_EVENTS[0].to_dict()) + "\n"
            + "\n"
            + json.dumps({"kind": "event", "type": "from_the_future"}) + "\n"
        )
        events, spans = read_records(path)
        assert events == [SAMPLE_EVENTS[0]]
        assert spans == []

    def test_memory_sink_filters(self):
        sink = MemorySink()
        sink.emit(SAMPLE_EVENTS[0])
        sink.emit({"kind": "span"})
        assert sink.events == [SAMPLE_EVENTS[0]]
        assert sink.events_of(ShiftAssessed) == [SAMPLE_EVENTS[0]]
        assert sink.events_of(CecInvoked) == []

    def test_memory_sink_capacity(self):
        sink = MemorySink(capacity=2)
        for event in SAMPLE_EVENTS[:4]:
            sink.emit(event)
        assert sink.events == SAMPLE_EVENTS[2:4]

    def test_composite_fans_out(self):
        first, second = MemorySink(), MemorySink()
        CompositeSink(first, second).emit(SAMPLE_EVENTS[0])
        assert first.events == second.events == [SAMPLE_EVENTS[0]]


def drifting_stream(rng, batch_size=64):
    """Directional drift → sudden jump → two reoccurrences of old concepts."""
    concepts = {"a": GaussianMixtureConcept(3, 8, rng, scale=0.3),
                "b": GaussianMixtureConcept(3, 8, rng, scale=0.3)}
    segments = [
        Segment("a", 10, kind="directional", magnitude=0.5),
        Segment("b", 6, entry="sudden"),
        Segment("a", 6, entry="reoccurring"),
        Segment("b", 4, entry="reoccurring"),
    ]
    return stream_from_schedule(concepts, segments, batch_size, rng, 3)


class TestLearnerIntegration:
    @pytest.fixture
    def instrumented_run(self):
        rng = np.random.default_rng(7)
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4, seed=0, obs=obs)
        for batch in drifting_stream(rng):
            learner.process(batch)
        return obs

    def test_drifting_stream_emits_reuse_events(self, instrumented_run):
        reused = instrumented_run.sink.events_of(KnowledgeReused)
        assert reused, "reoccurring drift must trigger knowledge reuse"
        preserved = instrumented_run.sink.events_of(KnowledgePreserved)
        preserved_batches = {event.batch for event in preserved}
        for event in reused:
            assert event.model_kind in ("short", "long")
            assert 0 <= event.origin_batch < event.batch
            assert event.origin_batch in preserved_batches
            assert np.isfinite(event.match_distance)
            assert event.match_distance >= 0.0

    def test_every_batch_assessed_and_routed(self, instrumented_run):
        sink = instrumented_run.sink
        assessed = sink.events_of(ShiftAssessed)
        selected = sink.events_of(StrategySelected)
        assert len(assessed) == len(selected) == 26
        assert [event.batch for event in assessed] == list(range(26))
        patterns = {event.pattern for event in assessed}
        assert "sudden" in patterns or "reoccurring" in patterns
        for event in selected:
            assert event.strategy in (
                "multi_granularity", "cec", "knowledge_reuse",
            )

    def test_spans_cover_predict_and_update(self, instrumented_run):
        names = [span.name for span in instrumented_run.tracer.finished]
        assert names.count("learner.predict") == 26
        assert names.count("learner.update") == 26
        predict = next(span for span in instrumented_run.tracer.finished
                       if span.name == "learner.predict")
        assert "strategy" in predict.attributes
        assert "pattern" in predict.attributes

    def test_metrics_recorded(self, instrumented_run):
        snap = instrumented_run.registry.snapshot()
        batches = sum(series["value"]
                      for series in snap["freeway_batches_total"]["series"])
        assert batches == 26
        predict = snap["freeway_predict_seconds"]["series"]
        assert sum(series["count"] for series in predict) == 26

    def test_disabled_obs_records_nothing(self):
        rng = np.random.default_rng(7)
        learner = Learner(lr_factory, window_batches=4, seed=0)
        reports = [learner.process(batch) for batch in drifting_stream(rng)]
        assert learner.obs is NULL_OBS
        assert len(learner.obs.registry) == 0
        assert learner.obs.tracer.finished == []
        # The root spans still time every call, unattached.
        assert all(report.predict_seconds > 0 and report.update_seconds > 0
                   for report in reports)

    def test_disabled_facade_does_not_trace(self):
        obs = Observability(enabled=False)
        assert obs.tracer is NULL_TRACER
        learner = Learner(lr_factory, window_batches=4, seed=0, obs=obs)
        for batch in ElectricitySimulator(seed=0).stream(6, 64):
            learner.process(batch)
        assert obs.tracer.finished == []
        assert obs.sink.records == []

    def test_jsonl_trace_and_report_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rng = np.random.default_rng(7)
        with Observability.to_jsonl(path) as obs:
            learner = Learner(lr_factory, window_batches=4, seed=0, obs=obs)
            for batch in drifting_stream(rng):
                learner.process(batch)
        summary = summarize_trace(path)
        assert summary.num_events > 0
        assert summary.num_spans == 52  # 26 predict + 26 update roots
        assert sum(summary.strategy_counts.values()) == 26
        assert summary.reuse_hits >= 1
        assert 0.0 <= summary.reuse_hit_rate <= 1.0
        assert "learner.predict" in summary.span_latency


STAGES = {
    "learner.predict": ["learner.assess", "learner.select", "learner.infer"],
    "learner.update": ["learner.train", "learner.experience",
                       "learner.preserve"],
}


def series_of(obs, name):
    return obs.registry.snapshot()[name]["series"]


class TestLearnerClock:
    """The root spans are the learner's only clock: report fields,
    histograms and stage counts are views over them."""

    @pytest.fixture
    def clocked_run(self):
        rng = np.random.default_rng(7)
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4, seed=0, obs=obs)
        reports = [learner.process(batch) for batch in drifting_stream(rng)]
        return obs, reports

    def test_reports_are_the_root_span_durations(self, clocked_run):
        obs, reports = clocked_run
        roots = {name: [span for span in obs.tracer.finished
                        if span.name == name] for name in STAGES}
        assert ([report.predict_seconds for report in reports]
                == [span.duration for span in roots["learner.predict"]])
        assert ([report.update_seconds for report in reports]
                == [span.duration for span in roots["learner.update"]])
        for family, name in (("freeway_predict_seconds", "learner.predict"),
                             ("freeway_update_seconds", "learner.update")):
            recorded = sum(series["sum"] for series in series_of(obs, family))
            assert recorded == pytest.approx(
                sum(span.duration for span in roots[name]), rel=1e-12)

    def test_stage_spans_once_per_batch_under_their_root(self, clocked_run):
        obs, _ = clocked_run
        assert len(obs.tracer.finished) == 2 * 26
        for root in obs.tracer.finished:
            assert [child.name for child in root.children] == STAGES[root.name]

    def test_hot_path_histogram_counts_equal_span_counts(self, clocked_run):
        obs, _ = clocked_run
        spans = [span.name for root in obs.tracer.finished
                 for span in root.walk()]
        counts = {series["labels"]["stage"]: series["count"]
                  for series in series_of(obs, "freeway_hot_path_seconds")}
        assert counts == {name.split(".")[1]: spans.count(name)
                          for names in STAGES.values() for name in names}
        assert set(counts.values()) == {26}

    def test_accuracy_gauges_follow_the_labeled_batches(self):
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4, seed=0, obs=obs)
        accuracies = []
        for batch in ElectricitySimulator(seed=0).stream(60, 32):
            unlabeled = batch.index % 7 == 3
            report = learner.process(batch.without_labels() if unlabeled
                                     else batch)
            if report.accuracy is not None:
                accuracies.append(report.accuracy)
        assert 50 < len(accuracies) < 60
        snapshot = obs.registry.snapshot()
        rolling = snapshot["freeway_rolling_accuracy"]["series"][0]["value"]
        faded = snapshot["freeway_faded_accuracy"]["series"][0]["value"]
        assert rolling == sliding_series(accuracies, 50)[-1]
        assert faded == fading_series(accuracies, 0.98)[-1]

    def test_throttled_batches_reach_the_metrics(self):
        obs = Observability.in_memory()
        learner = Learner(
            lr_factory, window_batches=4, seed=0, obs=obs,
            adjuster=RateAwareAdjuster(high_rate=1.0, high_pressure=-1.0),
        )
        reports = [learner.process(batch) for batch
                   in ElectricitySimulator(seed=0).stream(20, 64)]
        skipped = sum(report.skipped_inference for report in reports)
        assert 0 < skipped < 20
        summary = learner.summary()
        batches = sum(series["value"]
                      for series in series_of(obs, "freeway_batches_total"))
        assert batches == summary["batches_processed"] == 20
        assert sum(summary["strategies"].values()) == 20
        update = series_of(obs, "freeway_update_seconds")
        assert sum(series["count"] for series in update) == 20
        predict = series_of(obs, "freeway_predict_seconds")
        assert sum(series["count"] for series in predict) == 20 - skipped


class TestKnowledgeEviction:
    def test_overflow_emits_evicted_events(self, rng):
        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4,
                          knowledge_capacity=2, seed=0, obs=obs)
        for index in range(30):
            x = rng.normal(size=(32, 8)) + (index // 5)
            learner.process(Batch(x, rng.integers(0, 3, 32), index=index))
        evicted = obs.sink.events_of(KnowledgeEvicted)
        assert evicted, "a capacity-2 store must overflow on this stream"
        for event in evicted:
            assert event.count >= 1
            assert not event.spilled  # no spill dir configured
            assert 0 <= event.store_size <= 2


class TestFacade:
    def test_in_memory_wiring(self):
        obs = Observability.in_memory()
        assert obs.enabled
        with obs.tracer.span("s"):
            pass
        obs.emit(SAMPLE_EVENTS[0])
        assert len(obs.sink.records) == 2  # span dict + event

    def test_to_jsonl_extra_sink(self, tmp_path):
        extra = MemorySink()
        with Observability.to_jsonl(tmp_path / "t.jsonl",
                                    extra_sink=extra) as obs:
            obs.emit(SAMPLE_EVENTS[0])
        assert extra.events == [SAMPLE_EVENTS[0]]
        events, _ = read_records(tmp_path / "t.jsonl")
        assert events == [SAMPLE_EVENTS[0]]


class TestCliObservability:
    def test_run_with_trace_then_report(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", "electricity", "--batches", "12",
                     "--batch-size", "64", "--trace", str(trace),
                     "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "freeway_batches_total" in out
        assert str(trace) in out
        events, spans = read_records(trace)
        assert events and spans

        assert main(["report", str(trace)]) == 0
        report_out = capsys.readouterr().out
        assert "predict latency by strategy" in report_out
        assert "knowledge reuse" in report_out

    def test_run_json_output(self, capsys):
        from repro.cli import main

        code = main(["run", "--dataset", "electricity", "--batches", "8",
                     "--batch-size", "64", "--json", "--metrics"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["framework"] == "freewayml"
        assert payload["batches"] == 8
        assert 0.0 <= payload["g_acc"] <= 1.0
        assert "si" in payload and "throughput" in payload
        assert isinstance(payload["accuracy_by_pattern"], dict)
        assert "freeway_batches_total" in payload["metrics"]

    def test_report_json_output(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        assert main(["run", "--dataset", "electricity", "--batches", "8",
                     "--batch-size", "64", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_events"] > 0
        assert "strategy_latency" in payload
        assert "reuse_hit_rate" in payload


class TestPersistenceEvent:
    def test_checkpoint_event(self, tmp_path, rng):
        from repro.core.persistence import save_learner

        obs = Observability.in_memory()
        learner = Learner(lr_factory, window_batches=4, seed=0, obs=obs)
        for index in range(6):
            x = rng.normal(size=(32, 8))
            learner.process(Batch(x, rng.integers(0, 3, 32), index=index))
        path = tmp_path / "ckpt.npz"
        nbytes = save_learner(learner, path)
        events = obs.sink.events_of(CheckpointWritten)
        assert len(events) == 1
        assert events[0].path == str(path)
        assert events[0].nbytes == nbytes == path.stat().st_size
