"""Concurrency: the multi-user kernel against a serial oracle.

The centrepiece is the **differential** suite: N worker threads query
through a :class:`~repro.service.QueryService` while a writer thread
interleaves EDB mutations.  Every query records the store's
``mutation_epoch`` it observed under the read lock; a serial replay of
the same op sequence — prefix by prefix, on a single-threaded session —
provides the oracle.  A query that saw epoch E must return exactly the
oracle's answer after the first E mutations: any torn read, lost
update or stale cache block shows up as a mismatch.

After every run the accounting must balance: the buffer pool within
its capacity, every loader cache epoch monotone, the store's epoch
equal to the number of mutations applied.

``pytest -m stress`` additionally runs the bounded soak
(:class:`TestStressSoak`): queries + writes hammering a buffer pool
sized to ~10% of the working set for ``STRESS_SECONDS`` (default 30),
asserting liveness — no deadlock, the pool within its capacity,
evictions advancing.
"""

import os
import random
import sys
import threading
import time
from functools import cache

import pytest

from repro import EduceStar, QueryService
from repro.bang.pager import DiskStore, Pager
from repro.edb.store import ExternalStore
from repro.errors import (ExistenceError, LockOrderError, PageError,
                          QueryInterrupted, ServiceClosed, ServiceSaturated)
from repro.locks import Latch, ReadWriteLock
from repro.wam import prelude

from .pages import leaf, unpacked

# Differential seeds: 5 by default (CI-fast); CONCURRENCY_SEEDS=50 for
# the full local sweep the acceptance criteria ask for.
SEEDS = list(range(int(os.environ.get("CONCURRENCY_SEEDS", "5"))))


# =====================================================================
# The differential suite
# =====================================================================

SETUP_PROGRAM = (
    "val(0). "
    "alt(0). "
    "both(X, Y) :- val(X), alt(Y)."
)
GOALS = ["val(X)", "alt(X)", "both(X, Y)"]


def _ops_for(rng: random.Random, count: int):
    """The writer's deterministic op script: clause asserted + target."""
    return [("val" if rng.random() < 0.5 else "alt", k)
            for k in range(1, count + 1)]


def _normalise(solutions):
    """Order-insensitive, machine-independent view of a result set."""
    return sorted(
        tuple(sorted((name, str(term))
                     for name, term in sol.bindings.items()))
        for sol in solutions)


def _serial_oracle(ops):
    """Expected answers per (epoch-offset, goal), by serial replay."""
    kb = EduceStar()
    kb.store_program(SETUP_PROGRAM)
    base = kb.store.mutation_epoch
    expected = {}

    def record(offset):
        for goal in GOALS:
            expected[(offset, goal)] = _normalise(kb.solve(goal))

    record(0)
    for offset, (proc, k) in enumerate(ops, start=1):
        kb.assert_external(f"{proc}({k}).")
        assert kb.store.mutation_epoch == base + offset
        record(offset)
    return base, expected


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_against_serial_oracle(seed):
    rng = random.Random(seed)
    n_ops = rng.randint(10, 25)
    ops = _ops_for(rng, n_ops)
    base, expected = _serial_oracle(ops)

    store = ExternalStore(pager=Pager(buffer_pages=4))
    workers = rng.randint(2, 4)
    svc = QueryService(store=store, workers=workers, queue_size=128)
    try:
        svc.store_program(SETUP_PROGRAM)
        assert store.mutation_epoch == base

        epochs_before = [s.loader.cache_epoch for s in svc.sessions]

        def writer():
            for proc, k in ops:
                svc.assert_external(f"{proc}({k}).")
                if rng.random() < 0.5:
                    time.sleep(rng.random() * 0.002)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()

        tickets = []
        for _ in range(rng.randint(30, 60)):
            goal = rng.choice(GOALS)
            tickets.append((goal, svc.submit(goal)))
            if rng.random() < 0.3:
                time.sleep(rng.random() * 0.002)
        writer_thread.join(30)
        assert not writer_thread.is_alive(), "writer deadlocked"

        for goal, ticket in tickets:
            result = ticket.result(timeout=30)
            offset = ticket.store_epoch - base
            assert 0 <= offset <= len(ops), (
                f"epoch {ticket.store_epoch} outside the mutation order")
            assert _normalise(result) == expected[(offset, goal)], (
                f"seed={seed} goal={goal!r} at epoch offset {offset}: "
                "concurrent result diverged from the serial oracle")
    finally:
        svc.shutdown(timeout=30)

    # -------- post-run accounting: the books must balance -----------
    # No write-back failed, so the pool never outgrew its capacity.
    buffer = store.pager.buffer
    assert buffer.counters()["buffer_resident"] <= buffer.capacity
    assert store.mutation_epoch == base + len(ops)
    # No writer told any worker about a write; each loader followed
    # the stored versions by itself.  So no worker holds a block of a
    # superseded version (each of the three procedures is only ever
    # called with one pattern), every block ever loaded is either live
    # or was reclaimed, and the reclamation epoch never went back.
    for session, before in zip(svc.sessions, epochs_before):
        counters = session.loader.counters()
        assert counters["loader_cache_entries"] <= len(GOALS)
        assert (counters["loader_cache_entries"]
                + counters["cache_invalidated_entries"]
                == counters["loads"])
        assert counters["cache_epoch"] >= before


# =====================================================================
# Service API semantics
# =====================================================================

def _blocker(release: threading.Event, started: threading.Event):
    def goal(_session):
        started.set()
        assert release.wait(30), "test forgot to release the blocker"
        return "done"
    return goal


class TestServiceAPI:
    def test_string_goal_solutions(self):
        with QueryService(workers=2, queue_size=8) as svc:
            svc.store_relation("edge", [(1, 2), (2, 3)])
            sols = svc.execute("edge(X, Y)")
            assert _normalise(sols) == _normalise(
                EduceStarWith("edge", [(1, 2), (2, 3)]).solve("edge(X, Y)"))

    def test_callable_goal(self):
        with QueryService(workers=1, queue_size=8) as svc:
            svc.store_relation("edge", [(1, 2), (2, 3)])
            assert svc.execute(
                lambda s: s.count_solutions("edge(X, Y)")) == 2

    def test_deadline_interrupts_runaway_query(self):
        with QueryService(workers=1, queue_size=8) as svc:
            svc.store_program("loop :- loop.")
            ticket = svc.submit("loop", timeout=0.2)
            with pytest.raises(QueryInterrupted) as err:
                ticket.result(timeout=30)
            assert err.value.reason == "deadline"
            assert svc.counters()["service_timeouts"] == 1

    def test_deadline_interrupts_loop_without_calls(self):
        """A runaway loop made only of backtracking into a built-in —
        no call or execute anywhere in its cycle — still polls."""
        with QueryService(workers=1, queue_size=8) as svc:
            svc.store_program("spin :- between(1, 100000000, _), fail.")
            started = time.monotonic()
            ticket = svc.submit("spin", timeout=0.2)
            with pytest.raises(QueryInterrupted) as err:
                ticket.result(timeout=30)
            assert err.value.reason == "deadline"
            assert time.monotonic() - started < 10
            ticket = svc.submit("spin")
            time.sleep(0.05)
            assert ticket.cancel()
            with pytest.raises(QueryInterrupted) as err:
                ticket.result(timeout=30)
            assert err.value.reason == "cancelled"

    def test_cancel_running_query(self):
        with QueryService(workers=1, queue_size=8) as svc:
            svc.store_program("loop :- loop.")
            ticket = svc.submit("loop")
            time.sleep(0.05)
            assert ticket.cancel()
            with pytest.raises(QueryInterrupted) as err:
                ticket.result(timeout=30)
            assert err.value.reason == "cancelled"

    def test_cancel_queued_ticket_never_runs(self):
        release, started = threading.Event(), threading.Event()
        with QueryService(workers=1, queue_size=8) as svc:
            svc.submit(_blocker(release, started))
            assert started.wait(10)
            queued = svc.submit("true")
            assert queued.cancel()
            release.set()
            with pytest.raises(QueryInterrupted):
                queued.result(timeout=30)
            assert queued.worker is None  # dropped at dequeue, not run

    def test_saturation_rejects(self):
        release, started = threading.Event(), threading.Event()
        svc = QueryService(workers=1, queue_size=2)
        try:
            svc.submit(_blocker(release, started))
            assert started.wait(10)
            svc.submit("true")
            svc.submit("true")
            with pytest.raises(ServiceSaturated):
                svc.submit("true")
            assert svc.counters()["service_rejected"] == 1
        finally:
            release.set()
            svc.shutdown(timeout=30)

    def test_submit_many_is_all_or_nothing(self):
        release, started = threading.Event(), threading.Event()
        svc = QueryService(workers=1, queue_size=3)
        try:
            svc.submit(_blocker(release, started))
            assert started.wait(10)
            svc.submit("true")
            depth = svc.counters()["service_queue_depth"]
            with pytest.raises(ServiceSaturated):
                svc.submit_many(["true", "true", "true"])
            assert svc.counters()["service_queue_depth"] == depth
            tickets = svc.submit_many(["true", "true"])
            release.set()
            for ticket in tickets:
                ticket.result(timeout=30)
        finally:
            release.set()
            svc.shutdown(timeout=30)

    def test_closed_service_rejects(self):
        svc = QueryService(workers=1, queue_size=8)
        svc.shutdown(timeout=30)
        with pytest.raises(ServiceClosed):
            svc.submit("true")

    def test_shutdown_drains_queued_work(self):
        svc = QueryService(workers=1, queue_size=16)
        svc.store_relation("edge", [(1, 2)])
        tickets = svc.submit_many(["edge(X, Y)"] * 8)
        svc.shutdown(drain=True, timeout=30)
        assert all(t.state == "done" for t in tickets)
        assert svc.counters()["service_workers"] == 0

    def test_shutdown_without_drain_cancels_queued(self):
        release, started = threading.Event(), threading.Event()
        svc = QueryService(workers=1, queue_size=16)
        blocked = svc.submit(_blocker(release, started))
        assert started.wait(10)
        queued = svc.submit_many(["true"] * 4)
        release.set()
        svc.shutdown(drain=False, timeout=30)
        assert blocked.result(timeout=1) == "done"  # in-flight completed
        assert all(t.state == "cancelled" for t in queued)

    def test_query_cannot_upgrade_to_writer(self):
        # The read→write upgrade (a query mutating the store) must fail
        # fast with LockOrderError, not deadlock — see CONCURRENCY.md.
        with QueryService(workers=1, queue_size=8) as svc:
            ticket = svc.submit(
                lambda s: s.store_relation("sneaky", [(1,)]))
            with pytest.raises(LockOrderError):
                ticket.result(timeout=30)

    def test_cancel_already_finished_returns_false(self):
        with QueryService(workers=1, queue_size=8) as svc:
            svc.store_relation("edge", [(1, 2)])
            ticket = svc.submit("edge(X, Y)")
            ticket.wait(30)
            assert ticket.cancel() is False
            assert len(ticket.result(timeout=1)) == 1

    def test_cancel_racing_finish_reports_actual_outcome(self):
        # A worker completing the ticket between cancel()'s finished
        # check and its flag set must not make cancel() promise a
        # cancellation that can no longer happen.
        from repro.service.query_service import QueryTicket
        ticket = QueryTicket(1, "goal", None, None)
        real_set = ticket._cancel.set

        def finish_then_set():
            ticket._finish("done", value=["v"])
            real_set()

        ticket._cancel.set = finish_then_set
        assert ticket.cancel() is False
        assert ticket.result(timeout=1) == ["v"]

    def test_db_drop_from_worker_refused_before_mutating(self):
        # db_drop is a mutator: from a worker (shared read lock held)
        # it must fail fast with LockOrderError, leaving the relation,
        # its catalog entry and the mutation epoch untouched.
        with QueryService(workers=1, queue_size=8) as svc:
            svc.store_relation("r", [(1, 2), (3, 4)])
            epoch = svc.store.mutation_epoch
            ticket = svc.submit("db_drop(r/2)")
            with pytest.raises(LockOrderError):
                ticket.result(timeout=30)
            assert svc.store.mutation_epoch == epoch
            assert svc.store.lookup("r", 2) is not None
            assert len(svc.execute("r(X, Y)")) == 2

    def test_materialise_from_worker_refused_without_partial_state(self):
        # db_select over an *existing* output relation used to drop it
        # under the read lock and then die in store_facts, leaving a
        # half-applied mutation.  Now the whole replace is one write-
        # locked section, so the worker is refused before any change.
        with QueryService(workers=1, queue_size=8) as svc:
            svc.store_relation("emp", [(1, "eng"), (2, "hr")])
            svc.execute_admin("db_select(emp/2, [], out)")
            epoch = svc.store.mutation_epoch
            ticket = svc.submit("db_select(emp/2, emp(1, _), out)")
            with pytest.raises(LockOrderError):
                ticket.result(timeout=30)
            assert svc.store.mutation_epoch == epoch
            assert len(svc.execute("out(X, Y)")) == 2  # old rows intact

    def test_execute_admin_runs_relational_mutators(self):
        with QueryService(workers=2, queue_size=8) as svc:
            svc.store_relation("emp", [(1, "eng"), (2, "hr"), (3, "eng")])
            svc.execute_admin("db_select(emp/2, emp(_, eng), engs)")
            assert len(svc.execute("engs(X, Y)")) == 2
            svc.execute_admin("db_drop(engs/2)")
            ticket = svc.submit("engs(X, Y)")
            with pytest.raises(ExistenceError):
                ticket.result(timeout=30)

    def test_drop_recreate_never_serves_stale_cached_code(self):
        # Versions are monotone per indicator across drop+recreate (the
        # store keeps a version floor), so a worker whose loader cached
        # the old code under the old version's stamp can never be
        # served it again after the relation is dropped and rebuilt —
        # even though nobody invalidated its cache.
        store = ExternalStore()
        admin = EduceStar(store=store)
        worker = EduceStar(store=store)
        admin.store_relation("r", [(1,), (2,)])
        assert len(list(worker.solve("r(X)"))) == 2  # worker caches r/1
        assert admin.solve_once("db_drop(r/1)") is not None
        admin.store_relation("r", [(7,), (8,), (9,)])
        got = sorted(str(s["X"]) for s in worker.solve("r(X)"))
        assert got == ["7", "8", "9"]

    def test_non_writer_cache_stays_bounded_under_writes(self):
        # Regression: only the writing session's loader was pruned, so
        # any other session over the same store (every replica worker)
        # kept one unreachable block per write it had read past.
        store = ExternalStore()
        writer = EduceStar(store=store)
        reader = EduceStar(store=store)
        writer.store_relation("r", [(0,)])
        for k in range(1, 201):
            writer.assert_external(f"r({k}).")
            assert len(list(reader.solve("r(X)"))) == k + 1
            assert reader.solve_once(f"r({k})") is not None
        counters = reader.loader.counters()
        # two live call patterns of r/1: free, and bound to an integer
        assert counters["loader_cache_entries"] <= 2
        assert (counters["loader_cache_entries"]
                + counters["cache_invalidated_entries"]
                == counters["loads"])

    def test_worker_caches_follow_versions_without_broadcast(self):
        # A write reaches no worker's loader.  Each worker reclaims the
        # mutated procedure's blocks at its own next call to it;
        # unrelated procedures keep their blocks and their cache_hits.
        with QueryService(workers=2, queue_size=8) as svc:
            svc.store_relation("edge", [(1, 2)])
            svc.store_relation("other", [(9,)])
            for session in svc.sessions:   # workers idle: warm directly
                for _ in range(2):
                    assert len(list(session.solve("edge(X, Y)"))) == 1
                    assert len(list(session.solve("other(X)"))) == 1
            before = [s.loader.counters() for s in svc.sessions]
            svc.assert_external("edge(2, 3).")
            for session, b in zip(svc.sessions, before):
                assert session.loader.counters() == b   # nothing sent
                assert len(list(session.solve("other(X)"))) == 1
                mid = session.loader.counters()
                assert mid["cache_hits"] == b["cache_hits"] + 1
                assert mid["cache_epoch"] == b["cache_epoch"]
                assert len(list(session.solve("edge(X, Y)"))) == 2
                after = session.loader.counters()
                assert after["cache_epoch"] == b["cache_epoch"] + 1
                assert (after["cache_invalidated_entries"]
                        == b["cache_invalidated_entries"] + 1)
                assert after["loads"] == b["loads"] + 1
                assert (after["loader_cache_entries"]
                        == b["loader_cache_entries"])


def EduceStarWith(name, rows):
    kb = EduceStar()
    kb.store_relation(name, rows)
    return kb


# =====================================================================
# Sessions opened at once from one library image
# =====================================================================

LIBRARY_GOALS = ["append(X, Y, [1,2,3])", "maplist(reverse, [[1,2],[3]], L)",
                 "min_list([3,1,4], M)", "numlist(2, 5, L)",
                 "delete([a,b,a,c], a, R)", "nth0(I, [x,y,z], E)",
                 "union([1,2], [2,3], U)", "select(X, [a,b,c], R)"]


def test_sessions_opened_at_once_share_one_library_image(monkeypatch):
    """Eight threads open sessions together on a process with no
    library image yet, then run library goals together
    on blocks no session has bound: one compilation, one dictionary,
    the single-thread answers everywhere."""
    monkeypatch.setattr(prelude, "_IMAGES", {})
    monkeypatch.setattr(prelude, "_compiled_library",
                        cache(prelude._compiled_library.__wrapped__))
    threads = 8
    opened = threading.Barrier(threads)
    solving = threading.Barrier(threads)
    sessions = [None] * threads
    answers = [None] * threads
    errors = []

    def worker(k):
        try:
            opened.wait(30)
            sessions[k] = EduceStar()
            solving.wait(30)
            answers[k] = [_normalise(sessions[k].solve(goal))
                          for goal in LIBRARY_GOALS]
        except BaseException as exc:    # surfaced below, not lost
            errors.append(exc)
            opened.abort()
            solving.abort()

    pool = [threading.Thread(target=worker, args=(k,))
            for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the threads finely
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors, errors
    assert len(prelude._IMAGES) == 1
    entries = [list(s.machine.dictionary.entries()) for s in sessions]
    assert all(e == entries[0] for e in entries)
    expected = [_normalise(EduceStar().solve(goal))
                for goal in LIBRARY_GOALS]
    assert all(a == expected for a in answers)


# =====================================================================
# Buffer frames under contention
# =====================================================================

class TestBufferPins:
    def test_held_payload_survives_eviction(self):
        # A frame keeps a payload, not a reader: what a reader holds
        # stays valid after its frame is evicted, and a re-read returns
        # an equal page.
        pager = Pager(buffer_pages=2)
        pids = [pager.allocate(initial=leaf(f"page-{i}")) for i in range(4)]
        payload = pager.get(pids[0])
        for pid in pids[1:]:
            pager.get(pid)      # evicts LRU, the held page first
        counters = pager.io_counters()
        assert counters["buffer_evictions"] > 0
        assert counters["buffer_resident"] == 2
        assert pids[0] not in pager.buffer._frames
        assert unpacked(pager.disk, pids[0], payload) == leaf("page-0")
        assert unpacked(pager.disk, pids[0],
                        pager.get(pids[0])) == leaf("page-0")

    def test_concurrent_misses_deduplicate_the_disc_read(self):
        disk = DiskStore()
        pager = Pager(disk=disk, buffer_pages=4)
        pid = pager.allocate(initial=leaf("shared"))
        pager.buffer.flush()
        pager.buffer.discard(pid)       # force the next get to miss
        disk.read_latency_s = 0.05
        reads_before = disk.io_counters()["reads"]
        results, errors = [], []

        def fetch():
            try:
                results.append(unpacked(disk, pid, pager.get(pid)))
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not errors
        assert results == [leaf("shared")] * 4
        assert disk.io_counters()["reads"] == reads_before + 1

    def test_failed_in_flight_read_releases_every_waiter(self):
        disk = _FailFirstReadDisk()
        pager = Pager(disk=disk, buffer_pages=4)
        pid = pager.allocate(initial=leaf("shared"))
        pager.buffer.flush()
        pager.buffer.discard(pid)       # force the next get to miss
        disk.read_latency_s = 0.05      # the others queue behind it
        disk.fail_next = True
        results, errors = [], []

        def fetch():
            try:
                results.append(unpacked(disk, pid, pager.get(pid)))
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=fetch, daemon=True)
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads), "a waiter hung"
        assert len(errors) + len(results) == 4
        assert all(isinstance(e, PageError) for e in errors)
        assert len(errors) == 1         # only the failed read's caller
        assert results == [leaf("shared")] * 3
        assert pager.buffer._loading == {}


# =====================================================================
# Buffer write-backs happen outside the latch
# =====================================================================

class _SlowWriteDisk(DiskStore):
    """A disc whose writes block on a gate — models an fsync stall."""

    def __init__(self):
        super().__init__()
        self.write_entered = threading.Event()
        self.write_gate = threading.Event()

    def write(self, page_id, payload):
        self.write_entered.set()
        assert self.write_gate.wait(10)
        super().write(page_id, payload)


class _FailFirstReadDisk(DiskStore):
    """A disc whose next read fails once ``fail_next`` is set."""

    def __init__(self):
        super().__init__()
        self.fail_next = False

    def read(self, page_id):
        if self.read_latency_s:
            time.sleep(self.read_latency_s)
        if self.fail_next:
            self.fail_next = False
            raise PageError("injected read failure")
        return super().read(page_id)


class _FlakyDisk(DiskStore):
    """First write fails; everything after succeeds."""

    def __init__(self):
        super().__init__()
        self.fail_next = True

    def write(self, page_id, payload):
        if self.fail_next:
            self.fail_next = False
            raise PageError("injected write failure")
        super().write(page_id, payload)


class TestBufferWritebacks:
    def test_flush_does_not_hold_latch_across_disc_writes(self):
        disk = _SlowWriteDisk()
        pager = Pager(disk=disk, buffer_pages=8)
        pager.allocate(initial=leaf("dirty"))
        clean_pid = pager.allocate(initial=leaf("clean"))

        flusher = threading.Thread(target=pager.flush, daemon=True)
        flusher.start()
        assert disk.write_entered.wait(10)
        # Flush is stalled inside a disc write; a frame hit must still
        # get through the latch.
        got = []
        done = threading.Event()

        def reader():
            got.append(pager.get(clean_pid))
            done.set()

        threading.Thread(target=reader, daemon=True).start()
        assert done.wait(5), "get() stalled behind flush's disc write"
        assert got == [leaf("clean")]
        disk.write_gate.set()
        flusher.join(10)

    def test_eviction_writeback_outside_latch_and_fetch_waits(self):
        disk = _SlowWriteDisk()
        pager = Pager(disk=disk, buffer_pages=1)
        pool = pager.buffer
        pid_a = disk.allocate()
        pool.install(pid_a, leaf("A"))      # dirty, resident
        pid_b = disk.allocate()

        evictor = threading.Thread(target=pool.install,
                                   args=(pid_b, leaf("B")), daemon=True)
        evictor.start()                     # evicts A → slow write-back
        assert disk.write_entered.wait(10)

        # While A's write-back is in flight, a fetch of A must wait for
        # it (not read the stale disc image) ...
        got_a = []
        a_done = threading.Event()

        def fetch_a():
            got_a.append(unpacked(disk, pid_a, pool.get(pid_a)))
            a_done.set()

        threading.Thread(target=fetch_a, daemon=True).start()
        # ... while a fetch of the resident page B sails through.
        time.sleep(0.05)
        assert pool.get(pid_b) == leaf("B")
        assert not a_done.is_set()
        disk.write_gate.set()
        assert a_done.wait(10)
        assert got_a == [leaf("A")]
        evictor.join(10)
        # A's eviction write-back, plus B's when fetch_a re-admitted A
        # into the single frame.
        assert pool.counters()["buffer_writebacks"] == 2

    def test_flush_failure_keeps_unwritten_pages_dirty(self):
        disk = _FlakyDisk()
        pager = Pager(disk=disk, buffer_pages=8)
        p1 = pager.allocate(initial=leaf("one"))
        p2 = pager.allocate(initial=leaf("two"))
        with pytest.raises(PageError):
            pager.flush()
        pager.flush()                       # retries both pages
        pager.buffer.discard(p1)
        pager.buffer.discard(p2)
        # re-read from disc
        assert unpacked(disk, p1, pager.get(p1)) == leaf("one")
        assert unpacked(disk, p2, pager.get(p2)) == leaf("two")

    def test_failed_eviction_writeback_readmits_frame_dirty(self):
        disk = _FlakyDisk()
        pager = Pager(disk=disk, buffer_pages=1)
        pool = pager.buffer
        pid_a = disk.allocate()
        pool.install(pid_a, leaf("A"))
        pid_b = disk.allocate()
        with pytest.raises(PageError):
            pool.install(pid_b, leaf("B"))  # eviction write-back fails
        # A's payload was the only copy: still resident and dirty.
        assert pool.get(pid_a) == leaf("A")
        pool.flush()
        pool.discard(pid_a)
        # survived via the retry
        assert unpacked(disk, pid_a, pool.get(pid_a)) == leaf("A")


# =====================================================================
# Locks
# =====================================================================

class TestReadWriteLock:
    def test_reentrant_read(self):
        rw = ReadWriteLock("t")
        rw.acquire_read()
        rw.acquire_read()   # re-entry: no queueing, not a fresh acquisition
        rw.release_read()
        rw.release_read()
        assert rw.counters()["latch_read_acquisitions"] == 1
        # fully released: a writer can get in
        rw.acquire_write()
        rw.release_write()

    def test_reentrant_write_and_writer_as_reader(self):
        rw = ReadWriteLock("t")
        rw.acquire_write()
        rw.acquire_write()
        rw.acquire_read()     # mutators call reader helpers internally
        rw.release_read()
        rw.release_write()
        rw.release_write()

    def test_not_picklable(self):
        # Runtime state only: the store drops its lock from a checkpoint
        # and builds a fresh one on load, so none is ever pickled.
        import pickle
        with pytest.raises(TypeError):
            pickle.dumps(ReadWriteLock("t"))

    def test_latch_not_picklable(self):
        # Its holders are runtime state too: the buffer pool is rebuilt
        # when a checkpoint loads, so no latch is ever pickled.
        import pickle
        with pytest.raises(TypeError):
            pickle.dumps(Latch("t"))

    def test_read_to_write_upgrade_refused(self):
        rw = ReadWriteLock("t")
        rw.acquire_read()
        try:
            with pytest.raises(LockOrderError):
                rw.acquire_write()
        finally:
            rw.release_read()

    def test_writer_excludes_readers(self):
        rw = ReadWriteLock("t")
        order = []
        rw.acquire_write()

        def reader():
            rw.acquire_read()
            order.append("read")
            rw.release_read()

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        order.append("write-release")
        rw.release_write()
        t.join(10)
        assert order == ["write-release", "read"]

    def test_writer_preference_over_new_readers(self):
        rw = ReadWriteLock("t")
        order = []
        rw.acquire_read()         # main thread holds a read lock
        writer_waiting = threading.Event()

        def writer():
            writer_waiting.set()
            rw.acquire_write()
            order.append("write")
            rw.release_write()

        def late_reader():
            rw.acquire_read()
            order.append("late-read")
            rw.release_read()

        wt = threading.Thread(target=writer)
        wt.start()
        assert writer_waiting.wait(10)
        time.sleep(0.05)          # writer is now queued on the lock
        rt = threading.Thread(target=late_reader)
        rt.start()
        time.sleep(0.05)
        rw.release_read()
        wt.join(10)
        rt.join(10)
        assert order[0] == "write", (
            "a reader arriving behind a queued writer must not overtake")

    def test_non_lifo_release_downgrades_write_to_read(self):
        # write → read → release_write is a write→read downgrade: the
        # residual read must hold off a queued writer until released.
        rw = ReadWriteLock("t")
        rw.acquire_write()
        rw.acquire_read()
        rw.release_write()
        order = []
        done = threading.Event()

        def writer():
            rw.acquire_write()
            order.append("write")
            rw.release_write()
            done.set()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        time.sleep(0.05)
        assert order == [], "writer overtook the downgraded read hold"
        order.append("read-release")
        rw.release_read()
        assert done.wait(10)
        assert order == ["read-release", "write"]

    def test_non_lifo_release_keeps_reader_accounting_balanced(self):
        # The writer-nested read was never counted in _active_readers;
        # releasing it after the write must not drive the count to -1
        # (which would wedge every future acquire_write forever).
        rw = ReadWriteLock("t")
        for _ in range(3):
            rw.acquire_write()
            rw.acquire_read()
            rw.release_write()
            rw.release_read()
        done = threading.Event()

        def writer():
            rw.acquire_write()
            rw.release_write()
            done.set()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        assert done.wait(10), "reader accounting went negative"

    def test_latch_counts_contention(self):
        latch = Latch("t")
        held = threading.Event()
        release = threading.Event()

        def holder():
            with latch:
                held.set()
                release.wait(10)

        t = threading.Thread(target=holder)
        t.start()
        assert held.wait(10)
        acquired = []

        def contender():
            with latch:
                acquired.append(True)

        c = threading.Thread(target=contender)
        c.start()
        time.sleep(0.02)
        release.set()
        t.join(10)
        c.join(10)
        counters = latch.counters()
        assert acquired == [True]
        assert counters["latch_contentions"] >= 1


# =====================================================================
# Stress soak (pytest -m stress; excluded from the default run)
# =====================================================================

@pytest.mark.stress
class TestStressSoak:
    def test_soak_small_buffer_no_deadlock_pool_within_capacity(self):
        seconds = float(os.environ.get("STRESS_SECONDS", "30"))
        rng = random.Random(0xEDCE)

        # Working set: a relation spread over many pages; pool at ~10%.
        rows = [(i, i % 7, f"name_{i}") for i in range(400)]
        probe = EduceStar()
        probe.store_relation("item", rows)
        working_set = probe.store.pager.io_counters()["pages"]
        pool = max(2, working_set // 10)

        store = ExternalStore(pager=Pager(buffer_pages=pool))
        svc = QueryService(store=store, workers=4, queue_size=64)
        stop = threading.Event()
        writer_ops = [0]

        def writer():
            k = 1000
            while not stop.is_set():
                svc.assert_external(f"extra({k}).")
                writer_ops[0] += 1
                k += 1
                time.sleep(0.01)

        try:
            svc.store_relation("item", rows)
            svc.store_program("extra(0). "
                              "pick(K, N) :- item(K, _, N). "
                              "width(G, K) :- item(K, G, _).")
            evictions_start = svc.metrics.snapshot()["buffer_evictions"]
            wt = threading.Thread(target=writer)
            wt.start()

            deadline = time.monotonic() + seconds
            completed = 0
            while time.monotonic() < deadline:
                goals = []
                for _ in range(rng.randint(4, 12)):
                    which = rng.random()
                    if which < 0.45:
                        goals.append(f"pick({rng.randrange(400)}, N)")
                    elif which < 0.9:
                        goals.append(f"width({rng.randrange(7)}, K)")
                    else:
                        goals.append("extra(X)")
                try:
                    tickets = svc.submit_many(goals, timeout=25.0)
                except ServiceSaturated:
                    time.sleep(0.005)
                    continue
                for ticket in tickets:
                    # A ticket that cannot finish within its generous
                    # deadline means a stuck worker — i.e. a deadlock.
                    ticket.result(timeout=30)
                    completed += 1
            stop.set()
            wt.join(30)
            assert not wt.is_alive(), "writer thread deadlocked"
        finally:
            stop.set()
            svc.shutdown(timeout=60)

        snapshot = svc.metrics.snapshot()
        assert completed > 0 and writer_ops[0] > 0
        assert snapshot["service_queue_depth"] == 0
        assert snapshot["service_inflight"] == 0
        assert snapshot["buffer_evictions"] > evictions_start, (
            "a pool at 10% of the working set must be evicting")
        # No write-back failed, so the pool never outgrew its capacity.
        assert snapshot["buffer_resident"] <= pool
        # Telemetry under soak: the flight recorder stays within its
        # hard bound no matter how many events the run produced, every
        # terminal ticket was observed by the latency histogram, and
        # the maintained peak gauge saw the backlog.
        ring = store.events
        assert len(ring) <= ring.capacity, (
            "event ring exceeded its bound under stress")
        ring_counters = ring.counters()
        assert ring_counters["events_recorded"] >= 2 * completed
        assert snapshot["service_ticket_ms.count"] == \
            snapshot["service_submitted"], (
            "every admitted ticket must be observed exactly once")
        assert snapshot["service_queue_depth_peak"] >= 1
