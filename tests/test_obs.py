"""Tests for the observability layer (repro.obs).

Registry snapshot/diff semantics, tracing span nesting and budgets, and
end-to-end per-query profiles from an EduceStar session.
"""

import json

import pytest

from repro import EduceStar, QueryProfile
from repro.obs import (
    DEFAULT_GAUGE_KEYS,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Span,
    Tracer,
    write_json_lines,
)
from repro.obs import tracing
from repro.obs.tracing import event


class FakeSource:
    def __init__(self, **values):
        self.values = dict(values)

    def counters(self):
        return dict(self.values)


class FakeIOSource:
    def __init__(self, **values):
        self.values = dict(values)

    def io_counters(self):
        return dict(self.values)


# =====================================================================
# MetricsRegistry
# =====================================================================

class TestMetricsRegistry:
    def test_own_counters(self):
        # A source's counters are read live at every snapshot.
        reg = MetricsRegistry()
        src = reg.attach(FakeSource(loads=1))
        src.values["loads"] += 4
        assert reg.snapshot()["loads"] == 5

    def test_attached_sources_summed(self):
        reg = MetricsRegistry()
        reg.attach(FakeSource(n=2))
        reg.attach(FakeSource(n=3, m=1))
        snap = reg.snapshot()
        assert snap["n"] == 5 and snap["m"] == 1

    def test_io_counters_source(self):
        reg = MetricsRegistry()
        reg.attach(FakeIOSource(reads=7))
        assert reg.snapshot()["reads"] == 7

    def test_attach_is_idempotent(self):
        reg = MetricsRegistry()
        src = FakeSource(n=1)
        reg.attach(src)
        reg.attach(src)
        assert reg.snapshot()["n"] == 1

    def test_non_numeric_values_skipped(self):
        reg = MetricsRegistry()
        reg.attach(FakeSource(n=1, label="hi"))
        assert reg.snapshot() == {"n": 1}

    def test_gauge_reports_level_not_delta(self):
        reg = MetricsRegistry()
        src = reg.attach(FakeSource(water=10), gauges=("water",))
        before = reg.snapshot()
        src.values["water"] = 4
        diff = reg.diff(reg.snapshot(), before)
        assert diff["water"] == 4  # current level, not -6

    def test_default_gauge_keys_respected(self):
        reg = MetricsRegistry()
        assert "buffer_resident" in DEFAULT_GAUGE_KEYS
        diff = reg.diff({"buffer_resident": 3}, {"buffer_resident": 9})
        assert diff["buffer_resident"] == 3

    def test_attach_time_gauges(self):
        reg = MetricsRegistry()
        reg.attach(FakeSource(depth=5), gauges=("depth",))
        diff = reg.diff({"depth": 2}, {"depth": 5})
        assert diff["depth"] == 2
        assert "depth" in reg.gauge_keys()

    # The registry's diff/merge are the only ones in the tree, so the
    # edge cases the old engine/stats.py helpers pinned live here.  (The
    # helpers' "negative delta on reset" reading is gone with them.)
    @pytest.mark.parametrize("after, before, expected", [
        ({"n": 9}, {"n": 4}, {"n": 5}),
        # n was reset between snapshots; 3 accumulated since
        ({"n": 3}, {"n": 100}, {"n": 3}),
        # key only in *before*: its source is gone, nothing attributable
        ({}, {"gone": 12}, {}),
        ({"a": 5}, {"a": 2, "gone": 9}, {"a": 3}),
        # key missing from *before* counts from 0
        ({"fresh": 6}, {}, {"fresh": 6}),
        ({"a": 5, "b": 1}, {"a": 2}, {"a": 3, "b": 1}),
        # non-numeric values: skipped in *after*, 0 in *before*
        ({"a": 1, "s": "str"}, {"a": 1}, {"a": 0}),
        ({"a": 4}, {"a": "str"}, {"a": 4}),
        # fractional work units
        ({"ms": 3.75}, {"ms": 1.5}, {"ms": 2.25}),
    ])
    def test_counter_diff(self, after, before, expected):
        assert MetricsRegistry().diff(after, before) == expected

    def test_histogram_summary_in_snapshot(self):
        reg = MetricsRegistry()
        hist = Histogram()
        reg.attach(FakeHistSource(fetch_ms=hist))
        for v in (2.0, 8.0, 5.0):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["fetch_ms.count"] == 3
        assert snap["fetch_ms.sum"] == 15.0
        assert snap["fetch_ms.min"] == 2.0
        assert snap["fetch_ms.max"] == 8.0
        assert hist.mean == 5.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.as_dict("x") == {"x.count": 0, "x.sum": 0.0}

    @pytest.mark.parametrize("snapshots, expected", [
        (({"a": 1}, {"a": 2, "b": 3}), {"a": 3, "b": 3}),
        (({"a": 1, "s": "str"},), {"a": 1}),
        (({"ms": 1.5, "n": 1}, {"ms": 2.25}), {"ms": 3.75, "n": 1}),
    ])
    def test_static_merge(self, snapshots, expected):
        merged = MetricsRegistry.merge(*snapshots)
        assert merged == expected
        assert all(type(merged[k]) is type(v) for k, v in expected.items())


# =====================================================================
# Histogram percentiles / family diff & merge
# =====================================================================

class FakeHistSource:
    def __init__(self, **hists):
        self.hists = dict(hists)

    def counters(self):
        return {}

    def histograms(self):
        return dict(self.hists)


def hist_of(*values):
    h = Histogram()
    for v in values:
        h.observe(v)
    return h


class TestHistogramPercentiles:
    def test_percentiles_bucketed(self):
        h = hist_of(*([1.0] * 90 + [100.0] * 10))
        # p50/p90 land in the bucket whose upper bound is 1.0
        assert h.percentile(0.50) == 1.0
        assert h.percentile(0.90) == 1.0
        # p99 lands in the tail bucket; clamped to the exact max
        assert h.percentile(0.99) == 100.0

    def test_percentile_clamped_to_observed_range(self):
        h = hist_of(3.0)
        # bucket upper bound is 5.0, but max observed is 3.0
        assert h.percentile(0.99) == 3.0
        assert h.percentile(0.50) == 3.0

    def test_as_dict_buckets_cumulative(self):
        h = hist_of(0.01, 0.2, 400.0)
        d = h.as_dict("x")
        assert d["x.count"] == 3
        assert d["x.bucket.le_0.05"] == 1
        assert d["x.bucket.le_0.25"] == 2
        assert d["x.bucket.le_500"] == 3
        assert d["x.bucket.le_inf"] == 3
        # the estimate is the containing bucket's upper bound
        assert d["x.p50"] == pytest.approx(0.25)

    def test_merge_from_mismatched_ladders_is_conservative(self):
        a = Histogram(boundaries=(1.0, 2.0))
        a.observe(1.5)
        b = hist_of(0.01)
        a.merge_from(b)
        assert a.count == 2
        assert a.min == 0.01 and a.max == 1.5

    def test_source_histograms_in_snapshot(self):
        reg = MetricsRegistry()
        reg.attach(FakeHistSource(wait_ms=hist_of(1.0, 2.0)))
        snap = reg.snapshot()
        assert snap["wait_ms.count"] == 2
        assert snap["wait_ms.max"] == 2.0

    def test_same_named_source_histograms_fold(self):
        reg = MetricsRegistry()
        reg.attach(FakeHistSource(wait_ms=hist_of(1.0)))
        reg.attach(FakeHistSource(wait_ms=hist_of(9.0)))
        snap = reg.snapshot()
        assert snap["wait_ms.count"] == 2
        assert snap["wait_ms.min"] == 1.0
        assert snap["wait_ms.max"] == 9.0

    def test_diff_drops_family_without_new_observations(self):
        reg = MetricsRegistry()
        src = FakeHistSource(wait_ms=hist_of(1.0))
        reg.attach(src)
        before = reg.snapshot()
        diff = reg.diff(reg.snapshot(), before)
        assert not any(k.startswith("wait_ms") for k in diff)

    def test_diff_recomputes_percentiles_from_bucket_deltas(self):
        reg = MetricsRegistry()
        h = Histogram()
        src = FakeHistSource(wait_ms=h)
        reg.attach(src)
        for _ in range(100):
            h.observe(1.0)           # slow era
        before = reg.snapshot()
        for _ in range(100):
            h.observe(100.0)         # fast-forward era
        diff = reg.diff(reg.snapshot(), before)
        assert diff["wait_ms.count"] == 100
        # the delta's distribution is all-100s, not the lifetime mix
        assert diff["wait_ms.p50"] == 100.0

    def test_merge_preserves_tails(self):
        """Merging snapshots must not average away extremes — the
        satellite fix for mean-only histograms."""
        fast = hist_of(*([1.0] * 99)).as_dict("lat")
        slow = hist_of(5000.0).as_dict("lat")
        merged = MetricsRegistry.merge(fast, slow)
        assert merged["lat.count"] == 100
        assert merged["lat.max"] == 5000.0     # tail survives
        assert merged["lat.min"] == 1.0
        assert merged["lat.p99"] == 1.0        # 99% of obs are <= 1.0
        assert merged["lat.bucket.le_inf"] == 100


# =====================================================================
# EventRing — the flight recorder
# =====================================================================

class TestEventRing:
    def test_record_and_tail_ordered(self):
        from repro.obs import EventRing
        ring = EventRing(capacity=16)
        for i in range(5):
            ring.record("k", n=i)
        tail = ring.tail()
        assert [e["n"] for e in tail] == [0, 1, 2, 3, 4]
        assert [e["seq"] for e in tail] == sorted(
            e["seq"] for e in tail)
        assert all(e["kind"] == "k" and e["ts"] > 0 for e in tail)

    def test_tail_n_returns_most_recent(self):
        from repro.obs import EventRing
        ring = EventRing(capacity=16)
        for i in range(10):
            ring.record("k", n=i)
        assert [e["n"] for e in ring.tail(3)] == [7, 8, 9]

    def test_bounded_and_drop_counted(self):
        from repro.obs import EventRing
        ring = EventRing(capacity=8)
        for i in range(50):
            ring.record("k", n=i)
        assert len(ring) == 8
        counters = ring.counters()
        assert counters["events_recorded"] == 50
        assert counters["events_dropped"] == 42
        # oldest dropped, newest retained
        assert [e["n"] for e in ring.tail()] == list(range(42, 50))

    def test_capacity_never_exceeded_multithreaded(self):
        import threading
        from repro.obs import EventRing
        ring = EventRing(capacity=64)

        def hammer(tid):
            for i in range(500):
                ring.record("k", tid=tid, n=i)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ring) <= ring.capacity
        counters = ring.counters()
        assert counters["events_recorded"] == 4000
        assert counters["events_recorded"] - counters["events_dropped"] \
            == len(ring)

    @staticmethod
    def _hammer(ring, threads, records):
        """*threads* threads record *records* events each, switching
        threads far more often than the interpreter's default."""
        import sys
        import threading

        def hammer(tid):
            for i in range(records):
                ring.record("k", tid=tid, n=i)

        workers = [threading.Thread(target=hammer, args=(t,))
                   for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)

    def test_ring_keeps_the_newest_across_threads(self):
        from repro.obs import EventRing
        ring = EventRing(capacity=64)
        self._hammer(ring, 8, 500)
        # the 64 highest seq, whichever threads recorded them, in order
        assert [e["seq"] for e in ring.tail()] == list(range(3937, 4001))
        assert ring.counters() == {"events_recorded": 4000,
                                   "events_dropped": 4000 - 64}

    def test_ring_in_seq_order_under_contention(self):
        # A thread switch between drawing a seq and appending would put
        # an older event after a newer one.
        from repro.obs import EventRing
        ring = EventRing(capacity=40_000)
        self._hammer(ring, 8, 5_000)
        assert [e["seq"] for e in ring.tail()] == list(range(1, 40_001))

    def test_default_ring_keeps_one_threads_events(self):
        from repro.obs import EventRing
        ring = EventRing()
        for i in range(1000):
            ring.record("k", n=i)
        assert len(ring) == 1000
        assert [e["n"] for e in ring.tail()] == list(range(1000))
        assert ring.counters() == {"events_recorded": 1000,
                                   "events_dropped": 0}

    def test_null_ring_disabled_and_locked(self):
        from repro.obs import NULL_EVENTS
        assert not NULL_EVENTS.enabled
        NULL_EVENTS.record("k")
        assert len(NULL_EVENTS) == 0
        with pytest.raises(ValueError):
            NULL_EVENTS.enabled = True
        NULL_EVENTS.enabled = False   # idempotent no-op allowed

    def test_clear(self):
        from repro.obs import EventRing
        ring = EventRing(capacity=8)
        ring.record("k")
        ring.clear()
        assert len(ring) == 0
        assert ring.counters()["events_recorded"] == 1


# =====================================================================
# Tracer / Span
# =====================================================================

class TestTracer:
    def test_disabled_yields_none(self):
        tracer = Tracer(enabled=False)
        with tracer.span("query") as span:
            assert span is None
        assert tracer.roots == []

    def test_null_tracer_cannot_be_enabled(self):
        with pytest.raises(ValueError):
            NULL_TRACER.enabled = True
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x") as span:
            assert span is None

    def test_nesting_and_ordering(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query") as q:
            with tracer.span("loader.fetch", procedure="p/1"):
                with tracer.span("codec.resolve"):
                    pass
            with tracer.span("preunify.filter"):
                pass
        assert [s.name for s in q.walk()] == [
            "query", "loader.fetch", "codec.resolve", "preunify.filter"]
        fetch = q.children[0]
        assert fetch.parent_id == q.span_id
        assert fetch.children[0].name == "codec.resolve"
        assert q.span_id < fetch.span_id  # ids allocated in open order
        assert tracer.roots == [q]

    def test_events_attach_to_current_span(self):
        tracer = Tracer(enabled=True)
        event("orphan")  # no current span: dropped silently
        with tracer.span("io") as span:
            event("page.read", page=3, bytes=4096)
        assert span.events == [
            {"event": "page.read", "page": 3, "bytes": 4096}]

    def test_events_attach_to_innermost_span_of_any_tracer(self):
        outer, inner = Tracer(enabled=True), Tracer(enabled=True)
        with outer.span("a") as a:
            with inner.span("b") as b:
                event("page.read", page=1)
            event("page.read", page=2)
        assert [e["page"] for e in b.events] == [1]
        assert [e["page"] for e in a.events] == [2]

    def test_events_stay_on_their_own_thread(self):
        import threading
        tracer = Tracer(enabled=True)
        with tracer.span("main") as span:
            worker = threading.Thread(
                target=event, args=("page.read",), kwargs={"page": 1})
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert span.events == []

    def test_event_budget(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_EVENTS_PER_SPAN", 2)
        tracer = Tracer(enabled=True)
        with tracer.span("io") as span:
            for i in range(5):
                event("page.read", page=i)
        assert len(span.events) == 2
        assert span.events_dropped == 3

    def test_span_budget(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 2)
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c") as c:  # over budget
                assert c is None
        assert tracer.dropped_spans == 1
        assert len(tracer.roots) == 2

    def test_take_roots_drains(self):
        tracer = Tracer(enabled=True)
        with tracer.span("one"):
            pass
        roots = tracer.take_roots()
        assert [s.name for s in roots] == ["one"]
        assert tracer.take_roots() == []

    def test_stack_repair_on_leaked_inner_span(self):
        # An abandoned generator can leave an inner span open; closing
        # the outer span must still pop cleanly.
        tracer = Tracer(enabled=True)
        outer_cm = tracer.span("outer")
        inner_cm = tracer.span("inner")
        outer = outer_cm.__enter__()
        inner_cm.__enter__()
        outer_cm.__exit__(None, None, None)  # inner never exited
        assert tracer.roots == [outer]
        event("orphan")   # no span is open on this thread any more
        assert outer.events == []
        with tracer.span("next") as after:   # opens as a root again
            assert after.parent_id is None
        assert tracer.roots == [outer, after]

    def test_wall_time_recorded(self):
        tracer = Tracer(enabled=True)
        with tracer.span("t") as span:
            pass
        assert span.wall_s >= 0.0

    def test_json_lines_roundtrip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", goal="p(X)"):
            with tracer.span("loader.fetch"):
                event("page.read", page=1)
        lines = tracer.to_json_lines()
        objs = [json.loads(line) for line in lines]
        assert [o["name"] for o in objs] == ["query", "loader.fetch"]
        assert objs[1]["parent_id"] == objs[0]["span_id"]
        assert objs[1]["events"] == [{"event": "page.read", "page": 1}]

    def test_span_find_and_format_tree(self):
        root = Span("query", 1)
        child = Span("loader.fetch", 2, parent_id=1, attrs={"mode": "rules"})
        root.children.append(child)
        assert root.find("loader.fetch") == [child]
        text = root.format_tree()
        assert "query" in text and "loader.fetch" in text
        assert "mode=rules" in text


# =====================================================================
# QueryProfile + session integration
# =====================================================================

PROGRAM = """
parent(terach, abraham).  parent(terach, nachor).  parent(terach, haran).
parent(abraham, isaac).   parent(haran, lot).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
"""


@pytest.fixture()
def kb():
    session = EduceStar()
    session.store_program(PROGRAM)
    return session


class TestQueryProfile:
    def test_profile_returns_query_profile(self, kb):
        prof = kb.profile("ancestor(terach, D)")
        assert isinstance(prof, QueryProfile)
        assert prof.solutions == 5
        assert prof.root is not None and prof.root.name == "query"
        assert prof.root.attrs["solutions"] == 5
        assert prof.counters["instr_count"] > 0

    def test_span_tree_shows_loader_activity(self, kb):
        prof = kb.profile("ancestor(terach, D)")
        fetches = prof.root.find("loader.fetch")
        assert fetches, "stored-procedure query must record loader.fetch"
        procs = {s.attrs["procedure"] for s in fetches}
        assert "ancestor/2" in procs
        rules = [s for s in fetches if s.attrs["mode"] == "rules"]
        assert rules and rules[0].find("codec.resolve")
        assert prof.root.find("preunify.filter")

    def test_breakdown_sums(self, kb):
        prof = kb.profile("parent(terach, C)")
        sim = prof.breakdown()
        assert sim["total_ms"] == pytest.approx(
            sim["cpu_ms"] + sim["io_ms"])
        assert sim["cpu_ms"] == pytest.approx(sum(sim["cpu"].values()))
        assert sim["io_ms"] == pytest.approx(sum(sim["io"].values()))
        assert prof.total_ms() == pytest.approx(sim["total_ms"])

    def test_tracing_disabled_after_profile(self, kb):
        kb.profile("parent(terach, C)")
        assert kb.tracer.enabled is False
        # and an untraced solve records no spans
        for _ in kb.solve("parent(terach, C)"):
            pass
        assert kb.tracer.roots == []

    def test_solve_profile_true_sets_last_profile_on_close(self, kb):
        solutions = kb.solve("parent(terach, C)", profile=True)
        next(solutions)
        solutions.close()  # early break, not exhaustion
        prof = kb.last_profile
        assert prof is not None and prof.solutions == 1
        assert prof.root.attrs["solutions"] == 1

    def test_json_lines_header_plus_spans(self, kb, tmp_path):
        prof = kb.profile("ancestor(terach, D)")
        lines = prof.to_json_lines()
        header = json.loads(lines[0])
        assert header["kind"] == "query_profile"
        assert header["solutions"] == 5
        assert header["spans"] == len(lines) - 1
        assert all(json.loads(l)["kind"] == "span" for l in lines[1:])

        path = tmp_path / "profiles.jsonl"
        n = write_json_lines(str(path), [prof])
        n2 = write_json_lines(str(path), [prof])  # appends
        assert n == n2 == len(lines)
        assert len(path.read_text().splitlines()) == 2 * n

    def test_format_is_readable(self, kb):
        text = kb.profile("ancestor(terach, D)").format()
        assert "goal: ancestor(terach, D)" in text
        assert "simulated 1990" in text
        assert "query" in text and "loader.fetch" in text

    def test_metrics_snapshot_covers_all_layers(self, kb):
        for _ in kb.solve("ancestor(terach, D)"):
            pass
        snap = kb.metrics.snapshot()
        for key in ("instr_count", "data_refs", "loads", "parsed_chars",
                    "buffer_hits", "pages"):
            assert key in snap, key

    def test_relational_execute_span(self, kb):
        from repro.relational.algebra import Scan, execute
        kb.store_relation("emp", [(i, i * 10) for i in range(20)])
        tracer = Tracer(enabled=True)
        rows = execute(Scan(kb.relation("emp", 2)), tracer=tracer)
        assert len(rows) == 20
        span = tracer.roots[-1]
        assert span.name == "relational.execute"
        assert span.attrs["rows"] == 20
        assert span.attrs["plan"].startswith("Scan#20")

    def test_page_events_recorded_under_buffer_pressure(self):
        from repro.bang.pager import Pager
        from repro.edb.store import ExternalStore
        kb = EduceStar(store=ExternalStore(pager=Pager(buffer_pages=2)))
        kb.store_relation("num", [(i,) for i in range(2000)])
        prof = kb.profile("num(0)")
        events = [e for s in prof.root.walk() for e in s.events]
        names = {e["event"] for e in events}
        assert "page.read" in names
        read = next(e for e in events if e["event"] == "page.read")
        assert "page" in read and "bytes" in read

    def test_page_events_reach_the_session_that_reads(self):
        # A second session over the same store must not take the first
        # session's page events.
        from repro.bang.pager import Pager
        from repro.edb.store import ExternalStore
        store = ExternalStore(pager=Pager(buffer_pages=2))
        kb = EduceStar(store=store)
        kb.store_relation("num", [(i,) for i in range(2000)])
        other = EduceStar(store=store)
        prof = kb.profile("num(0)")
        names = {e["event"] for s in prof.root.walk() for e in s.events}
        assert "page.read" in names
        assert other.tracer.roots == []


# =====================================================================
# The exposition's key set
# =====================================================================

# What a fresh session and a fresh service report before any work: the
# measuring paths may be rearranged, but the exposition must not gain or
# lose a family by accident.  (Histogram families join once observed.)
SESSION_KEYS = frozenset("""
    analyze_queries backtracks buffer_evictions
    buffer_hits buffer_misses buffer_resident buffer_writebacks
    bytes_read bytes_written cache_epoch cache_hits
    cache_invalidated_entries calls checkpoint_bytes_written
    checkpoints_written clauses_delivered clauses_fetched
    compile_count cp_created cp_refs data_refs datalog_bottomup
    edb_reclusters
    datalog_edb_rows datalog_extractions datalog_facts_derived
    datalog_index_rows datalog_iterations datalog_magic_facts datalog_magic_fallbacks
    datalog_magic_rewrites datalog_queries
    datalog_topdown events_dropped
    events_recorded explain_queries gc_cells_recovered gc_runs
    heap_high_water instr_count latch_acquisitions latch_contentions
    latch_read_acquisitions latch_read_waits
    latch_write_acquisitions latch_write_waits loader_cache_entries
    loads page_corruptions pages pages_quarantined parsed_chars
    preunify_executions preunify_rejections reads resolutions
    store_mutations unify_ops verify_checks verify_rejects
    wal_bytes_appended wal_records_appended wal_records_replayed
    wal_records_skipped writes
""".split())

SERVICE_ONLY_KEYS = frozenset("""
    service_cancelled service_completed service_failed
    service_inflight service_queue_depth service_queue_depth_peak
    service_rejected service_submitted service_timeouts
    service_workers
""".split())


class TestSnapshotKeySet:
    def test_session_snapshot_keys_pinned(self):
        assert set(EduceStar().metrics.snapshot()) == SESSION_KEYS

    def test_service_snapshot_keys_pinned(self):
        from repro import QueryService
        with QueryService(workers=2) as svc:
            keys = set(svc.metrics.snapshot())
        assert keys == SESSION_KEYS | SERVICE_ONLY_KEYS
