"""Service-wide telemetry: end-to-end ticket tracing, lifecycle events,
latency histograms, and the maintained queue gauges.

The differential tests reconstruct each ticket's full lifecycle —
admission, queue wait, execution, terminal state — from
``QueryService.telemetry()`` **alone**, for every terminal state the
service can produce, and cross-check the three telemetry planes
(events, traces, histograms) against each other.
"""

import threading
import time

import pytest

from repro.errors import QueryInterrupted
from repro.obs import EventRing
from repro.service import QueryService

_TERMINAL_KIND = {
    "done": "ticket.done",
    "timeout": "ticket.deadline",
    "cancelled": "ticket.cancelled",
    "failed": "ticket.failed",
}


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_size", 16)
    kwargs.setdefault("tracing", True)
    svc = QueryService(**kwargs)
    svc.store_relation("edge", [(1, 2), (2, 3), (3, 4)])
    svc.store_program("spin :- spin.")
    return svc


def lifecycle(telemetry, trace_id):
    """Reconstruct one ticket's lifecycle from a telemetry aggregate
    alone: its admission event, terminal event, summary row and span
    tree, located purely by trace id."""
    events = [e for e in telemetry["events"]
              if e.get("trace_id") == trace_id]
    admits = [e for e in events if e["kind"] == "ticket.admit"]
    terminals = [e for e in events
                 if e["kind"] in _TERMINAL_KIND.values()]
    summaries = [t for t in telemetry["tickets"]
                 if t["trace_id"] == trace_id]
    traces = [t for t in telemetry["traces"]
              if t.attrs.get("trace_id") == trace_id]
    assert len(admits) == 1, f"expected one admission for {trace_id}"
    assert len(terminals) == 1, f"expected one terminal for {trace_id}"
    assert len(summaries) == 1
    assert len(traces) == 1
    return {"admit": admits[0], "terminal": terminals[0],
            "summary": summaries[0], "trace": traces[0]}


def check_lifecycle(telemetry, ticket, expected_state, executed):
    """The differential: every plane of telemetry must tell the same
    story about this ticket."""
    life = lifecycle(telemetry, ticket.trace_id)
    # ordering: admission strictly precedes the terminal event
    assert life["admit"]["seq"] < life["terminal"]["seq"]
    # terminal state agrees across event kind, event attr, summary
    assert life["terminal"]["kind"] == _TERMINAL_KIND[expected_state]
    assert life["terminal"]["state"] == expected_state
    assert life["summary"]["state"] == expected_state
    assert ticket.state == expected_state
    # the span tree: ticket root, queue_wait always, execute iff run
    root = life["trace"]
    assert root.name == "ticket"
    assert root.attrs["state"] == expected_state
    waits = root.find("queue_wait")
    executes = root.find("execute")
    assert len(waits) == 1
    assert len(executes) == (1 if executed else 0)
    # timings agree between summary, events and spans
    assert life["summary"]["total_ms"] == pytest.approx(
        root.wall_s * 1000.0)
    assert life["terminal"]["total_ms"] == pytest.approx(
        life["summary"]["total_ms"], abs=0.01)
    assert life["summary"]["queue_wait_ms"] == pytest.approx(
        waits[0].wall_s * 1000.0)
    return life


class TestTicketLifecycles:
    def test_done_lifecycle(self):
        svc = make_service()
        try:
            ticket = svc.submit("edge(X, Y)")
            assert len(ticket.result(timeout=30)) == 3
            life = check_lifecycle(svc.telemetry(), ticket,
                                   "done", executed=True)
            assert life["summary"]["store_epoch"] is not None
        finally:
            svc.shutdown()

    def test_failed_lifecycle(self):
        svc = make_service()
        try:
            def boom(session):
                raise RuntimeError("kaboom")
            ticket = svc.submit(boom)
            with pytest.raises(RuntimeError):
                ticket.result(timeout=30)
            check_lifecycle(svc.telemetry(), ticket,
                            "failed", executed=True)
        finally:
            svc.shutdown()

    def test_deadline_lifecycle(self):
        svc = make_service()
        try:
            ticket = svc.submit("spin", timeout=0.05)
            with pytest.raises(QueryInterrupted):
                ticket.result(timeout=30)
            check_lifecycle(svc.telemetry(), ticket,
                            "timeout", executed=True)
        finally:
            svc.shutdown()

    def test_cancelled_lifecycle(self):
        svc = make_service()
        try:
            started = threading.Event()

            def running_spin(session):
                started.set()
                return list(session.solve("spin"))
            ticket = svc.submit(running_spin)
            assert started.wait(timeout=30)
            ticket.cancel()
            with pytest.raises(QueryInterrupted):
                ticket.result(timeout=30)
            check_lifecycle(svc.telemetry(), ticket,
                            "cancelled", executed=True)
        finally:
            svc.shutdown()

    def test_cancelled_while_queued_still_emits_terminal(self):
        """A ticket that never reaches a worker still gets a terminal
        event and a trace — with no execute span."""
        svc = make_service(workers=1)
        try:
            started = threading.Event()

            def blocker(session):
                started.set()
                return list(session.solve("spin"))
            runner = svc.submit(blocker)
            assert started.wait(timeout=30)
            queued = svc.submit("edge(X, Y)")
            assert queued.cancel()
            runner.cancel()
            with pytest.raises(QueryInterrupted):
                queued.result(timeout=30)
            check_lifecycle(svc.telemetry(), queued,
                            "cancelled", executed=False)
        finally:
            svc.shutdown()

    def test_deadline_while_queued_still_emits_terminal(self):
        svc = make_service(workers=1)
        try:
            started = threading.Event()

            def blocker(session):
                started.set()
                return list(session.solve("spin"))
            runner = svc.submit(blocker)
            assert started.wait(timeout=30)
            doomed = svc.submit("edge(X, Y)", timeout=0.01)
            time.sleep(0.05)           # expire while queued
            runner.cancel()
            with pytest.raises(QueryInterrupted):
                doomed.result(timeout=30)
            check_lifecycle(svc.telemetry(), doomed,
                            "timeout", executed=False)
        finally:
            svc.shutdown()

    def test_shutdown_drain_false_drops_get_terminal_events(self):
        svc = make_service(workers=1)
        started = threading.Event()

        def blocker(session):
            started.set()
            return list(session.solve("spin"))
        runner = svc.submit(blocker)
        assert started.wait(timeout=30)
        dropped = svc.submit("edge(X, Y)")
        runner.cancel()
        svc.shutdown(drain=False)
        assert dropped.state == "cancelled"
        check_lifecycle(svc.final_telemetry, dropped,
                        "cancelled", executed=False)


class TestSpanGeometry:
    def test_queue_wait_ends_exactly_where_execute_starts(self):
        svc = make_service()
        try:
            ticket = svc.submit("edge(X, Y)")
            ticket.result(timeout=30)
            life = lifecycle(svc.telemetry(), ticket.trace_id)
            root = life["trace"]
            wait = root.find("queue_wait")[0]
            execute = root.find("execute")[0]
            wait_end = wait.start_s + wait.wall_s
            assert wait_end == pytest.approx(execute.start_s, abs=1e-6)
            assert wait_end <= execute.start_s + 1e-6
            # and the two phases tile the root span
            assert wait.wall_s + execute.wall_s == pytest.approx(
                root.wall_s, abs=1e-4)
        finally:
            svc.shutdown()

    def test_trace_id_propagates_into_engine_spans(self):
        """The tentpole: one trace id from submit() through the queue
        into the worker session's own query spans."""
        svc = make_service()
        try:
            ticket = svc.submit("edge(X, Y)")
            ticket.result(timeout=30)
            life = lifecycle(svc.telemetry(), ticket.trace_id)
            execute = life["trace"].find("execute")[0]
            queries = execute.find("query")
            assert queries, "engine query span missing under execute"
            assert queries[0].attrs["trace_id"] == ticket.trace_id
            # nested loader spans exist under the engine span
            assert queries[0].find("loader.fetch")
        finally:
            svc.shutdown()

    def test_scanning_ticket_trace_holds_page_reads(self):
        """Page events reach the span open on the worker's thread, so
        a traced ticket that misses the buffer shows its page reads."""
        from repro.bang.pager import Pager
        from repro.edb.store import ExternalStore
        svc = QueryService(store=ExternalStore(pager=Pager(buffer_pages=2)),
                           workers=2, tracing=True)
        try:
            svc.store_relation("num", [(i,) for i in range(2000)])
            ticket = svc.submit("num(X), X > 1990")
            assert len(ticket.result(timeout=30)) == 9
            execute = ticket.trace.find("execute")[0]
            reads = [e for s in execute.walk() for e in s.events
                     if e["event"] == "page.read"]
            assert reads
        finally:
            svc.shutdown()

    def test_no_tracing_means_no_traces_but_full_events(self):
        svc = make_service(tracing=False)
        try:
            ticket = svc.submit("edge(X, Y)")
            ticket.result(timeout=30)
            telemetry = svc.telemetry()
            assert telemetry["traces"] == []
            assert ticket.trace is None
            # events and histograms are always on
            kinds = [e["kind"] for e in telemetry["events"]
                     if e.get("trace_id") == ticket.trace_id]
            assert kinds == ["ticket.admit", "ticket.done"]
            assert telemetry["counters"]["service_ticket_ms.count"] == 1
        finally:
            svc.shutdown()

    def test_worker_tracer_left_disabled_between_tickets(self):
        svc = make_service()
        try:
            svc.submit("edge(X, Y)").result(timeout=30)
            time.sleep(0.05)
            for session in svc.sessions:
                assert not session.tracer.enabled
                assert session.tracer.trace_id is None
                assert session.tracer.roots == []
        finally:
            svc.shutdown()


class TestSlowQueryCapture:
    def test_slow_query_captured_with_trace(self):
        svc = make_service(tracing=False, slow_query_ms=0.0)
        try:
            ticket = svc.submit("edge(X, Y)")
            ticket.result(timeout=30)
            telemetry = svc.telemetry()
            slow = [s for s in telemetry["slow_queries"]
                    if s["trace_id"] == ticket.trace_id]
            assert len(slow) == 1
            # the capture carries the full ticket trace even though
            # fleet-wide tracing is off
            assert slow[0]["trace"].find("execute")
            kinds = [e["kind"] for e in telemetry["events"]
                     if e.get("trace_id") == ticket.trace_id]
            assert "query.slow" in kinds
            # but the fleet-wide trace deque stays empty
            assert telemetry["traces"] == []
        finally:
            svc.shutdown()

    def test_fast_queries_not_captured(self):
        svc = make_service(tracing=False, slow_query_ms=60_000.0)
        try:
            svc.submit("edge(X, Y)").result(timeout=30)
            telemetry = svc.telemetry()
            assert telemetry["slow_queries"] == []
            assert not any(e["kind"] == "query.slow"
                           for e in telemetry["events"])
        finally:
            svc.shutdown()


class TestGaugesAndHistograms:
    def test_depth_peak_and_inflight(self):
        svc = make_service(workers=1)
        try:
            started = threading.Event()

            def blocker(session):
                started.set()
                return list(session.solve("spin"))
            runner = svc.submit(blocker)
            assert started.wait(timeout=30)
            queued = [svc.submit("edge(X, Y)") for _ in range(3)]
            counters = svc.counters()
            assert counters["service_queue_depth"] == 3
            assert counters["service_queue_depth_peak"] >= 3
            assert counters["service_inflight"] == 1
            runner.cancel()
            for t in queued:
                t.result(timeout=30)
        finally:
            svc.shutdown()
        counters = svc.counters()
        assert counters["service_queue_depth"] == 0
        assert counters["service_inflight"] == 0
        assert counters["service_queue_depth_peak"] >= 3   # sticky

    def test_every_terminal_ticket_observed_once(self):
        svc = make_service(workers=1)
        started = threading.Event()

        def blocker(session):
            started.set()
            return list(session.solve("spin"))
        runner = svc.submit(blocker)
        assert started.wait(timeout=30)
        done = [svc.submit("edge(X, Y)") for _ in range(3)]
        queued_cancel = svc.submit("edge(X, Y)")
        queued_cancel.cancel()
        runner.cancel()
        for t in done:
            t.result(timeout=30)
        svc.shutdown()
        snap = svc.final_telemetry["counters"]
        # 1 cancelled runner + 3 done + 1 cancelled-in-queue
        assert snap["service_ticket_ms.count"] == 5
        assert snap["service_queue_wait_ms.count"] == 5
        assert snap["service_completed"] == 3
        assert snap["service_cancelled"] == 2

    def test_counted_before_the_ticket_finishes(self):
        svc = make_service()
        try:
            for n in range(1, 21):
                svc.submit("edge(X, Y)").result(timeout=30)
                assert svc.counters()["service_completed"] == n
        finally:
            svc.shutdown()

    def test_histograms_survive_metrics_merge(self):
        svc = make_service()
        try:
            for _ in range(4):
                svc.submit("edge(X, Y)").result(timeout=30)
            time.sleep(0.05)
            snap = svc.metrics.snapshot()
            from repro.obs import MetricsRegistry
            merged = MetricsRegistry.merge(snap, snap)
            assert merged["service_ticket_ms.count"] == \
                2 * snap["service_ticket_ms.count"]
            assert merged["service_ticket_ms.max"] == \
                snap["service_ticket_ms.max"]
        finally:
            svc.shutdown()


class TestRingBoundedUnderLoad:
    def test_ring_never_exceeds_bound_under_soak(self):
        """Soak the service with more tickets than the ring can hold:
        the bound holds, drops are counted, and the newest terminal
        events are still present."""
        from repro.edb.store import ExternalStore
        store = ExternalStore()
        ring = EventRing(capacity=48)
        store.events = ring
        store.pager.events = ring
        svc = QueryService(store=store, workers=4, queue_size=64)
        svc.store_relation("edge", [(1, 2), (2, 3)])
        tickets = [svc.submit("edge(X, Y)") for _ in range(60)]
        for t in tickets:
            t.result(timeout=60)
        svc.shutdown()
        assert len(ring) <= ring.capacity
        counters = ring.counters()
        assert counters["events_recorded"] >= 120   # admit + terminal
        assert counters["events_dropped"] > 0
        snap = svc.final_telemetry["counters"]
        assert snap["events_recorded"] == counters["events_recorded"]
        # the tail still ends with recent, well-formed events
        tail = ring.tail(5)
        assert len(tail) == 5
        assert all("kind" in e and "seq" in e for e in tail)


class TestExplicitTraceSurface:
    def test_ticket_trace_attribute(self):
        svc = make_service()
        try:
            ticket = svc.submit("edge(X, Y)")
            ticket.result(timeout=30)
            time.sleep(0.05)   # telemetry lands just before _finish
            assert ticket.trace is not None
            assert ticket.trace.attrs["trace_id"] == ticket.trace_id
            assert ticket.queue_wait_ms is not None
            assert ticket.execute_ms is not None
            assert ticket.total_ms >= ticket.queue_wait_ms
        finally:
            svc.shutdown()

    def test_trace_ids_unique_and_minted_at_submit(self):
        svc = make_service()
        try:
            tickets = svc.submit_many(["edge(X, Y)"] * 5)
            ids = [t.trace_id for t in tickets]
            assert all(ids), "trace ids minted at submission"
            assert len(set(ids)) == 5
        finally:
            svc.shutdown()


PATH_PROGRAM = (
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Z) :- edge(X, Y), path(Y, Z).\n")


class TestDatalogSpans:
    @pytest.mark.usefixtures("bottom_up")
    def test_datalog_evaluate_span_carries_trace_id(self):
        """A bottom-up ticket's fixpoint span is part of the ticket's
        trace: nested under execute, stamped with the ticket's id."""
        svc = QueryService(workers=1, queue_size=8, tracing=True)
        try:
            svc.store_relation("edge", [(1, 2), (2, 3), (3, 4)])
            svc.store_program(PATH_PROGRAM)
            ticket = svc.submit("path(1, X)")
            assert len(ticket.result(timeout=30)) == 3
            life = lifecycle(svc.telemetry(), ticket.trace_id)
            execute = life["trace"].find("execute")[0]
            evals = execute.find("datalog.evaluate")
            assert evals, "fixpoint ran outside the ticket's trace"
            assert evals[0].attrs["trace_id"] == ticket.trace_id
            assert evals[0].attrs["strategy"] == "bottomup"
        finally:
            svc.shutdown()

    @pytest.mark.usefixtures("bottom_up")
    def test_replica_read_nests_datalog_span_under_ticket(self, tmp_path):
        """Cluster-wide service kwargs: a replica-drained bottom-up
        read produces the same ticket → execute → datalog.evaluate
        span nesting as a primary read, with the replica ticket's own
        trace id on every engine span."""
        from repro.replication import ReplicaSet
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=2,
                             primary_workers=1, replica_workers=1,
                             tracing=True)
        try:
            cluster.store_relation("edge", [(1, 2), (2, 3), (3, 4)])
            cluster.store_program(PATH_PROGRAM)
            assert cluster.wait_for_catch_up(timeout=15)
            ticket = cluster.submit_read("path(1, X)", max_lag=0)
            assert len(ticket.result(timeout=30)) == 3
            assert ticket.trace_id
            traces = []
            for replica in cluster.replicas:
                traces += [
                    t for t in replica.service.telemetry()["traces"]
                    if t.attrs.get("trace_id") == ticket.trace_id]
            assert len(traces) == 1, "read not traced on exactly one replica"
            assert traces[0].name == "ticket"
            execute = traces[0].find("execute")[0]
            evals = execute.find("datalog.evaluate")
            assert evals, "replica fixpoint ran outside the ticket trace"
            assert evals[0].attrs["trace_id"] == ticket.trace_id
            assert evals[0].attrs["strategy"] == "bottomup"
        finally:
            cluster.shutdown()
