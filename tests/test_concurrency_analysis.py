"""Tests for repro.analysis.concurrency (REP008-REP011) and the
concurrency fixes that ride along with it: the MetricsRegistry lock, the
fork-after-thread guard, and ThreadBackend drain ordering."""

import json
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    CONCURRENCY_RULES,
    EXIT_CLEAN,
    EXIT_FINDINGS,
    RULE_DETAILS,
    RULES,
    render_rule_catalogue,
    run_analyze,
)
from repro.analysis.concurrency import (
    COORDINATOR,
    PROCESS_WORKER,
    SERVER_THREAD,
    THREAD_WORKER,
    build_project,
    analyze_project,
    scan_paths,
)
from repro.cli import main as cli_main
from repro.data.stream import Batch
from repro.distributed.backends import ProcessBackend, ThreadBackend
from repro.obs.metrics import MetricsRegistry

SRC = Path(__file__).resolve().parent.parent / "src"
DOCS = Path(__file__).resolve().parent.parent / "docs"


def write_module(tmp_path, source: str, name: str = "fixture.py") -> Path:
    target = tmp_path / name
    target.write_text(source)
    return target


def codes(findings, *, suppressed=False):
    return sorted(f.code for f in findings if f.suppressed == suppressed)


# ---------------------------------------------------------------------------
# Execution-context inference
# ---------------------------------------------------------------------------


CONTEXT_FIXTURE = '''
import multiprocessing
import threading
from http.server import BaseHTTPRequestHandler


def thread_target():
    helper()


def helper():
    pass


def process_target(conn):
    pass


class ScrapeHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        helper()


def main():
    thread = threading.Thread(target=thread_target)
    thread.start()
    process = multiprocessing.Process(target=process_target, args=(None,))
    process.start()
'''


class TestContextInference:
    def test_roots_and_propagation(self, tmp_path):
        path = write_module(tmp_path, CONTEXT_FIXTURE)
        project = build_project([path])
        analyze_project(project)

        def contexts(qualname):
            return project.function(qualname).contexts

        assert THREAD_WORKER in contexts("thread_target")
        assert PROCESS_WORKER in contexts("process_target")
        assert SERVER_THREAD in contexts("ScrapeHandler.do_GET")
        assert contexts("main") == {COORDINATOR}
        # helper is called from a thread target AND a server handler.
        helper = contexts("helper")
        assert THREAD_WORKER in helper and SERVER_THREAD in helper


# ---------------------------------------------------------------------------
# REP008 — unsynchronized shared mutable state
# ---------------------------------------------------------------------------


REP008_POSITIVE = '''
import threading


class Store:
    def __init__(self):
        self.buffer = []

    def add(self, value):
        self.buffer.append(value)


def worker(store: Store):
    store.buffer.append(1)


def main(store: Store):
    thread = threading.Thread(target=worker, args=(store,))
    thread.start()
    store.buffer.append(2)
'''

REP008_NEGATIVE = '''
import threading


class LockedStore:
    def __init__(self):
        self.buffer = []
        self._lock = threading.Lock()

    def add(self, value):
        with self._lock:
            self.buffer.append(value)


def worker(store: LockedStore):
    with store._lock:
        store.buffer.append(1)


def main(store: LockedStore):
    thread = threading.Thread(target=worker, args=(store,))
    thread.start()
    with store._lock:
        store.buffer.append(2)
'''


class TestRep008:
    def test_positive_flags_every_unprotected_write(self, tmp_path):
        findings = scan_paths([write_module(tmp_path, REP008_POSITIVE)])
        assert codes(findings) == ["REP008", "REP008", "REP008"]
        assert all("Store.buffer" in f.message for f in findings)

    def test_lock_protected_writes_are_clean(self, tmp_path):
        findings = scan_paths([write_module(tmp_path, REP008_NEGATIVE)])
        assert codes(findings) == []

    def test_noqa_suppresses_but_is_retained(self, tmp_path):
        source = REP008_POSITIVE.replace(
            "store.buffer.append(1)",
            "store.buffer.append(1)  # repro: noqa[REP008] - fixture",
        )
        findings = scan_paths([write_module(tmp_path, source)])
        assert codes(findings) == ["REP008", "REP008"]
        assert codes(findings, suppressed=True) == ["REP008"]

    def test_disabling_the_rule_silences_it(self, tmp_path):
        path = write_module(tmp_path, REP008_POSITIVE)
        assert codes(scan_paths([path], rules={"REP008"})) != []
        assert codes(scan_paths([path], rules={"REP009"})) == []


# ---------------------------------------------------------------------------
# REP009 — fork-unsafety
# ---------------------------------------------------------------------------


REP009_THREAD_THEN_FORK = '''
import multiprocessing
import threading


def work():
    pass


def main():
    thread = threading.Thread(target=work)
    thread.start()
    process = multiprocessing.Process(target=work)
    process.start()
'''

REP009_FORK_ONLY = '''
import multiprocessing


def work():
    pass


def main():
    process = multiprocessing.Process(target=work)
    process.start()
'''

REP009_PIPE_LEAK = '''
import multiprocessing


def child_main(conn):
    conn.poll()


def main():
    parent, child = multiprocessing.Pipe()
    process = multiprocessing.Process(target=child_main, args=(child,))
    process.start()
    parent.poll()
'''


class TestRep009:
    def test_thread_then_fork_flagged(self, tmp_path):
        findings = scan_paths(
            [write_module(tmp_path, REP009_THREAD_THEN_FORK)])
        assert "REP009" in codes(findings)

    def test_fork_without_threads_is_clean(self, tmp_path):
        findings = scan_paths([write_module(tmp_path, REP009_FORK_ONLY)])
        assert codes(findings) == []

    def test_inherited_pipe_endpoint_never_closed(self, tmp_path):
        findings = scan_paths([write_module(tmp_path, REP009_PIPE_LEAK)])
        assert "REP009" in codes(findings)

    def test_closing_the_child_endpoint_is_clean(self, tmp_path):
        source = REP009_PIPE_LEAK.replace(
            "process.start()", "process.start()\n    child.close()")
        findings = scan_paths([write_module(tmp_path, source)])
        assert codes(findings) == []

    def test_disabling_the_rule_silences_it(self, tmp_path):
        path = write_module(tmp_path, REP009_THREAD_THEN_FORK)
        assert "REP009" in codes(scan_paths([path], rules={"REP009"}))
        assert codes(scan_paths([path], rules={"REP011"})) == []


# ---------------------------------------------------------------------------
# REP010 — unbounded blocking under a lock / in a supervised loop
# ---------------------------------------------------------------------------


REP010_UNDER_LOCK = '''
import threading

LOCK = threading.Lock()


def consume(queue):
    with LOCK:
        return queue.get()
'''

REP010_SUPERVISED_LOOP = '''
import multiprocessing


def worker_loop(conn):
    while True:
        message = conn.recv()
        if message is None:
            break


def main():
    parent, child = multiprocessing.Pipe()
    process = multiprocessing.Process(target=worker_loop, args=(child,))
    process.start()
    child.close()
    parent.send(None)
'''


class TestRep010:
    def test_unbounded_get_under_lock(self, tmp_path):
        findings = scan_paths([write_module(tmp_path, REP010_UNDER_LOCK)])
        assert codes(findings) == ["REP010"]

    def test_timeout_makes_it_clean(self, tmp_path):
        source = REP010_UNDER_LOCK.replace("queue.get()",
                                           "queue.get(timeout=1.0)")
        findings = scan_paths([write_module(tmp_path, source)])
        assert codes(findings) == []

    def test_unbounded_recv_in_worker_loop(self, tmp_path):
        findings = scan_paths(
            [write_module(tmp_path, REP010_SUPERVISED_LOOP)])
        assert "REP010" in codes(findings)

    def test_noqa_suppresses(self, tmp_path):
        source = REP010_UNDER_LOCK.replace(
            "return queue.get()",
            "return queue.get()  # repro: noqa[REP010] - fixture",
        )
        findings = scan_paths([write_module(tmp_path, source)])
        assert codes(findings) == []
        assert codes(findings, suppressed=True) == ["REP010"]

    def test_disabling_the_rule_silences_it(self, tmp_path):
        path = write_module(tmp_path, REP010_UNDER_LOCK)
        assert codes(scan_paths([path], rules={"REP010"})) == ["REP010"]
        assert codes(scan_paths([path], rules={"REP008"})) == []


# ---------------------------------------------------------------------------
# REP011 — singleton confinement
# ---------------------------------------------------------------------------


REP011_THREAD_LOCAL = '''
import threading
from http.server import BaseHTTPRequestHandler

STATE = threading.local()


class MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        STATE.hits = 1
'''

REP011_SHARED_SINGLETON = '''
import threading


class Config:
    def __init__(self):
        self.level = 0


CONFIG = Config()


def reconfigure():
    global CONFIG
    CONFIG = Config()


def main():
    thread = threading.Thread(target=reconfigure)
    thread.start()
'''


class TestRep011:
    def test_thread_local_touched_from_server_thread(self, tmp_path):
        findings = scan_paths([write_module(tmp_path, REP011_THREAD_LOCAL)])
        assert "REP011" in codes(findings)

    def test_shared_singleton_rebinding_from_worker(self, tmp_path):
        findings = scan_paths(
            [write_module(tmp_path, REP011_SHARED_SINGLETON)])
        assert "REP011" in codes(findings)

    def test_coordinator_only_rebinding_is_clean(self, tmp_path):
        source = REP011_SHARED_SINGLETON.replace(
            "thread = threading.Thread(target=reconfigure)\n"
            "    thread.start()",
            "reconfigure()",
        )
        findings = scan_paths([write_module(tmp_path, source)])
        assert codes(findings) == []

    def test_disabling_the_rule_silences_it(self, tmp_path):
        path = write_module(tmp_path, REP011_SHARED_SINGLETON)
        assert "REP011" in codes(scan_paths([path], rules={"REP011"}))
        assert codes(scan_paths([path], rules={"REP008"})) == []


# ---------------------------------------------------------------------------
# Registry / catalogue consistency (no doc drift)
# ---------------------------------------------------------------------------


class TestRuleRegistry:
    def test_concurrency_rules_derived_from_registry(self):
        assert set(CONCURRENCY_RULES) == {"REP008", "REP009", "REP010",
                                          "REP011"}
        for code, summary in CONCURRENCY_RULES.items():
            assert summary == RULE_DETAILS[code]["summary"]

    def test_lint_rules_derived_from_registry(self):
        assert set(RULES) == {code for code, info in RULE_DETAILS.items()
                              if info["pass"] == "lint"}

    def test_catalogue_covers_every_rule(self):
        table = render_rule_catalogue()
        for code in RULE_DETAILS:
            assert code in table

    def test_docs_embed_the_rendered_catalogue(self):
        text = (DOCS / "ANALYSIS.md").read_text()
        assert render_rule_catalogue() in text, (
            "docs/ANALYSIS.md rule table is stale; paste the output of "
            "repro.analysis.render_rule_catalogue() between the "
            "rule-catalogue markers"
        )


# ---------------------------------------------------------------------------
# The tree itself and the CLI surface
# ---------------------------------------------------------------------------


class TestTreeIsClean:
    def test_src_concurrency_pass_is_clean(self):
        findings = [f for f in scan_paths([SRC / "repro"])
                    if not f.suppressed]
        assert findings == [], "\n".join(f.describe() for f in findings)


class TestCli:
    def test_analyze_concurrency_clean_tree(self):
        assert cli_main(["analyze", str(SRC), "--concurrency"]) == EXIT_CLEAN

    def test_analyze_concurrency_failure_exit(self, tmp_path, capsys):
        write_module(tmp_path, REP008_POSITIVE)
        code = cli_main(["analyze", str(tmp_path), "--concurrency",
                         "--format", "json"])
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"].get("REP008")
        assert "REP008" in payload["rules"]

    def test_without_flag_concurrency_rules_not_run(self, tmp_path, capsys):
        write_module(tmp_path, "__all__ = []\n" + REP008_POSITIVE)
        assert run_analyze([tmp_path], output_format="json") == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert "REP008" not in payload["counts"]


# ---------------------------------------------------------------------------
# Satellite: MetricsRegistry lock
# ---------------------------------------------------------------------------


class TestMetricsRegistryLock:
    def test_scrapes_survive_concurrent_mutation(self):
        registry = MetricsRegistry()
        errors = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                try:
                    registry.render_text()
                    registry.snapshot()
                    registry.dump()
                except Exception as error:  # pragma: no cover - regression
                    errors.append(error)
                    return

        thread = threading.Thread(target=scrape, name="scraper")
        thread.start()
        try:
            for index in range(200):
                registry.counter(f"ctr_{index}", "fixture").inc()
                registry.gauge(f"g_{index}").labels(w=str(index)).set(index)
                registry.histogram(f"h_{index}").observe(index * 1e-3)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert errors == []

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 20_000


# ---------------------------------------------------------------------------
# Satellite: fork-after-thread guard
# ---------------------------------------------------------------------------


class TestForkAfterThreadGuard:
    def test_warns_and_names_the_leaked_thread(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait,
                                  name="lingering-fixture")
        thread.start()
        try:
            with pytest.warns(RuntimeWarning, match="lingering-fixture"):
                ProcessBackend._warn_if_threads_alive()
        finally:
            release.set()
            thread.join()

    def test_silent_when_single_threaded(self):
        extra = [t for t in threading.enumerate()
                 if t is not threading.current_thread()]
        if extra:
            pytest.skip(f"leftover threads from other tests: {extra}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ProcessBackend._warn_if_threads_alive()


# ---------------------------------------------------------------------------
# Satellite: deterministic ThreadBackend drain ordering
# ---------------------------------------------------------------------------


class _Report:
    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return self.payload


class _GatedLearner:
    """Stub replica whose ``process`` parks on an Event per batch index."""

    def __init__(self, name, gates, log, lock):
        self.name = name
        self.gates = gates
        self.log = log
        self.lock = lock

    def process(self, batch):
        gate = self.gates.get(batch.index)
        if gate is not None:
            assert gate.wait(timeout=10), "fixture gate never opened"
        with self.lock:
            self.log.append((self.name, batch.index))
        return _Report({"index": batch.index, "replica": self.name})


class TestThreadBackendDrainOrdering:
    def test_drain_is_fifo_despite_reversed_completion(self):
        gate = threading.Event()
        log, lock = [], threading.Lock()
        slow = _GatedLearner("slow", {0: gate}, log, lock)
        fast = _GatedLearner("fast", {}, log, lock)
        backend = ThreadBackend(max_inflight=2)
        backend.bind([slow, fast])

        def batch(index):
            return Batch(np.zeros((1, 2)), np.zeros(1, dtype=np.int64),
                         index=index)

        try:
            backend.submit([batch(0), batch(0)])
            backend.submit([batch(1), batch(1)])
            # Deterministic inversion: the fast replica finishes BOTH its
            # shards while the slow replica is still parked on batch 0.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with lock:
                    if ("fast", 1) in log:
                        break
                time.sleep(0.002)
            with lock:
                assert ("fast", 1) in log, "fast replica never finished"
                assert ("slow", 0) not in log, "gate failed to hold"
            gate.set()
            first = backend.drain()
            second = backend.drain()
        finally:
            gate.set()
            backend.close()
        # FIFO: submission order survives the reversed completion order.
        assert [step.report["index"] for step in first] == [0, 0]
        assert [step.report["index"] for step in second] == [1, 1]
        assert [step.report["replica"] for step in first] == ["slow", "fast"]
