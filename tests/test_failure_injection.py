"""Failure-injection and robustness tests for the storage stack."""

import struct
from itertools import chain

import pytest

from repro.bang.grid import BangGrid
from repro.bang.pager import DiskStore, Pager
from repro.errors import PageError

from .pages import leaf, unpacked


class TestDiskCorruption:
    def test_corrupt_page_image_raises_on_read(self):
        disk = DiskStore()
        pid = disk.allocate()
        disk.write(pid, leaf("good"))
        disk._pages[pid] = b"\x00garbage that is not a leaf image"
        with pytest.raises(PageError):
            disk.read(pid)
        # detection quarantines the page: later reads fail fast too
        assert pid in disk.quarantined
        with pytest.raises(PageError):
            disk.read(pid)

    def test_truncated_pickle_raises(self):
        disk = DiskStore()
        pid = disk.allocate()
        disk.write(pid, leaf(*range(100)))
        disk._pages[pid] = disk._pages[pid][:10]
        with pytest.raises(PageError):
            disk.read(pid)
        # a full rewrite replaces the image and lifts the quarantine
        disk.write(pid, leaf("fresh"))
        assert unpacked(disk, pid, disk.read(pid)) == leaf("fresh")

    def test_missing_page_after_free(self):
        pager = Pager(buffer_pages=1)
        pid = pager.allocate(leaf("x"))
        # force it out of the buffer, then free the backing page
        other = pager.allocate(leaf("y"))
        pager.get(other)
        pager.disk.free(pid)
        with pytest.raises(PageError):
            # not resident and gone from disc
            pager.buffer._frames.pop(pid, None)
            pager.get(pid)


@pytest.mark.fault_injection
class TestDamagedLeafPages:
    """A leaf image whose blocks decode but are not a packed ``(keys,
    records)`` pair of the grid's arity is a typed error, never rows."""

    def _grid_with_damaged_leaf(self, payload):
        grid = BangGrid(2, Pager(buffer_pages=4), bucket_capacity=8)
        for i in range(3):
            grid.insert((0.1 * i, 0.5), i)
        grid.pager.flush()
        pid = grid.root.page_id
        grid.pager.disk.write(pid, payload)
        grid.pager.buffer.discard(pid)    # the next read hits the disc
        return grid, pid

    def _assert_quarantined(self, grid, pid):
        for box in (((0.0, 1.0), (0.0, 1.0)), ((0.1, 0.1), (0.0, 1.0))):
            with pytest.raises(PageError):
                list(chain.from_iterable(grid.query(box)))
        disk = grid.pager.disk
        assert pid in disk.quarantined
        assert disk.io_counters()["page_corruptions"] == 1
        with pytest.raises(PageError, match="quarantined"):
            list(chain.from_iterable(grid.scan()))

    def test_key_block_of_the_wrong_length(self):
        # Two records, keys for one 2-d entry.
        grid, pid = self._grid_with_damaged_leaf(
            (struct.pack("<2d", 0.1, 0.5), ["a", "b"]))
        self._assert_quarantined(grid, pid)

    def test_leaf_in_the_list_of_pairs_shape(self):
        grid, pid = self._grid_with_damaged_leaf(
            (b"", [((0.1, 0.5), "a"), ((0.2, 0.5), "b")]))
        self._assert_quarantined(grid, pid)

    def test_key_block_of_another_arity(self):
        grid, pid = self._grid_with_damaged_leaf(
            (struct.pack("<3d", 0.1, 0.5, 0.5), ["a"]))
        self._assert_quarantined(grid, pid)

    def test_insert_into_a_damaged_leaf_is_refused(self):
        grid, pid = self._grid_with_damaged_leaf((b"", [((0.1, 0.5), "a")]))
        with pytest.raises(PageError):
            grid.insert((0.3, 0.3), 9)
        assert pid in grid.pager.disk.quarantined


@pytest.mark.fault_injection
class TestClauseBitflip:
    """In-storage rot of a compiled clause blob, below the page CRC's
    radar: the loader's static verifier must quarantine it before a
    single corrupted instruction executes (docs/ANALYSIS.md)."""

    def _session(self):
        from repro.bang.faults import FaultInjector
        from repro.engine.session import EduceStar
        session = EduceStar()
        session.store.faults = FaultInjector()
        session.store_relation("parent", [("t", "a"), ("a", "i")])
        session.store_program(
            "% lint: external parent/2\n"
            "anc(X, Y) :- parent(X, Y).\n"
            "anc(X, Z) :- parent(X, Y), anc(Y, Z).")
        return session

    def test_bitflipped_clause_rejected_never_executed(self):
        from repro.errors import VerifyError
        session = self._session()
        faults = session.store.faults
        faults.arm_clause_bitflip(1)
        with pytest.raises(VerifyError) as excinfo:
            session.solve_once("anc(t, X)")
        assert excinfo.value.rule == "V101"
        assert faults.fired == ["clause_bitflip#1"]
        assert session.loader.verify_rejects >= 1
        # quarantined: the corrupt code was never cached, so a retry
        # refetches clean bytes and the query now succeeds
        assert session.solve_once("anc(t, X)") is not None

    def test_reject_lands_in_flight_recorder(self):
        from repro.errors import VerifyError
        session = self._session()
        session.store.events.enabled = True
        session.store.faults.arm_clause_bitflip(2)
        with pytest.raises(VerifyError):
            session.solve_once("anc(t, X)")
        rejects = [e for e in session.store.events.tail(50)
                   if e["kind"] == "verify.reject"]
        assert rejects and rejects[-1]["rule"] == "V101"
        assert rejects[-1]["procedure"] == "anc/2"

    def test_null_injector_refuses_arming(self):
        from repro.engine.session import EduceStar
        session = EduceStar()
        with pytest.raises(ValueError):
            session.store.faults.arm_clause_bitflip(1)


class TestGridStress:
    def test_delete_reinsert_cycles_preserve_contents(self):
        import random
        rng = random.Random(3)
        grid = BangGrid(2, Pager(buffer_pages=8), bucket_capacity=4)
        model = {}
        next_id = 0
        for step in range(400):
            if model and rng.random() < 0.4:
                key = rng.choice(list(model))
                rid = model.pop(key)
                assert grid.delete(key, lambda r: r == rid) == 1
            else:
                key = (round(rng.random(), 3), round(rng.random(), 3))
                if key in model:
                    continue
                model[key] = next_id
                grid.insert(key, next_id)
                next_id += 1
        assert sorted(chain.from_iterable(grid.scan())) == sorted(model.values())
        assert grid.size == len(model)

    def test_every_point_query_after_stress(self):
        import random
        rng = random.Random(9)
        grid = BangGrid(1, Pager(buffer_pages=4), bucket_capacity=3)
        keys = [(round(rng.random(), 4),) for _ in range(120)]
        for i, key in enumerate(keys):
            grid.insert(key, i)
        for i, key in enumerate(keys):
            box = ((key[0], key[0]),)
            assert i in list(chain.from_iterable(grid.query(box)))


class TestDictionaryPressure:
    def test_many_segments_under_churn(self):
        from repro.dictionary import SegmentedDictionary
        d = SegmentedDictionary(segment_capacity=64, high_water=0.6)
        live = {}
        for wave in range(8):
            for i in range(200):
                name = f"w{wave}_n{i}"
                live[(name, 0)] = d.intern(name, 0)
            # delete every other entry from this wave
            for i in range(0, 200, 2):
                name = f"w{wave}_n{i}"
                d.delete(live.pop((name, 0)))
        # everything still live resolves correctly
        for (name, arity), ident in live.items():
            assert d.functor(ident) == (name, arity)

    def test_identifier_never_recycled_while_live(self):
        from repro.dictionary import SegmentedDictionary
        d = SegmentedDictionary(segment_capacity=32, high_water=0.5)
        ids = {}
        for i in range(300):
            ids[i] = d.intern(f"stable_{i}", 1)
            if i >= 50 and i % 3 == 0:
                d.delete(ids.pop(i - 50))
        seen = list(ids.values())
        assert len(seen) == len(set(seen))


class TestMachineResourceEdges:
    def test_deep_goal_nesting(self, machine):
        goal = "X = " + "f(" * 80 + "1" + ")" * 80
        assert machine.solve_once(goal) is not None

    def test_huge_disjunction_compiles(self, machine):
        body = " ; ".join(f"X = {i}" for i in range(120))
        machine.consult(f"many(X) :- ({body}).")
        assert machine.count_solutions("many(_)") == 120

    def test_many_procedures(self, machine):
        program = "\n".join(f"pr_{i}({i})." for i in range(400))
        machine.consult(program)
        assert machine.solve_once("pr_399(X)")["X"] == 399

    def test_wide_clause_many_args(self, machine):
        args = ", ".join(f"a{i}" for i in range(40))
        machine.consult(f"wide({args}).")
        vars_ = ", ".join(f"V{i}" for i in range(40))
        sol = machine.solve_once(f"wide({vars_})")
        assert str(sol["V39"]) == "a39"


# ------------------------------------------------- replication fault matrix


@pytest.mark.fault_injection
class TestReplicationFaults:
    """The replica-side fault matrix (docs/REPLICATION.md): torn-tail
    races, mid-stream corruption, crashes during promote and during
    catch-up.  The invariant in every cell: suspect bytes are never
    applied, the primary's log is never touched, and a restarted
    follower converges to the primary's state."""

    def _primary(self, tmp_path):
        from repro.edb.store import ExternalStore
        path = str(tmp_path / "db.edb")
        store = ExternalStore.open(path)
        store.store_facts("edge", 2, [(1, 2), (2, 3)],
                          types=("int", "int"))
        store.save(path)
        return path, store

    def _wait(self, predicate, timeout=10.0):
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.002)
        return predicate()

    def test_short_read_race_is_wait_not_truncate(self, tmp_path):
        """A reader racing the append sees a prefix of the new frame:
        the tailer must wait and retry — and must NEVER truncate the
        primary's log (that is the crashed *owner's* recovery move)."""
        import os
        from repro.bang.faults import FaultInjector
        from repro.replication import Replica
        path, store = self._primary(tmp_path)
        faults = FaultInjector()
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, faults=faults, start=False)
        try:
            faults.arm_short_read(1, keep=0.4)  # next header read torn
            store.store_facts("a", 1, [(1,)], types=("int",))
            size = os.path.getsize(path + ".wal")
            advanced, _backoff = replica._step(replica.poll_interval)
            assert not advanced
            assert replica.torn_tail_waits == 1
            assert any(f.startswith("short_read") for f in faults.fired)
            assert os.path.getsize(path + ".wal") == size  # untouched
            assert replica.records_applied == 0
            # the retry (fault disarmed) ships and applies the record
            advanced, _backoff = replica._step(replica.poll_interval)
            assert advanced and replica.records_applied == 1
        finally:
            replica.shutdown()

    def test_bitflip_stream_quarantines_never_applies(self, tmp_path):
        """A complete frame whose payload was bit-flipped in transit
        fails its CRC: the replica quarantines and re-bootstraps; the
        corrupt record is never replayed into its store."""
        from repro.bang.faults import FaultInjector
        from repro.replication import Replica
        path, store = self._primary(tmp_path)
        faults = FaultInjector()
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, faults=faults, start=False)
        try:
            store.store_facts("a", 1, [(7,)], types=("int",))
            faults.arm_bitflip_read(2)   # 1st read: header, 2nd: payload
            advanced, _ = replica._step(replica.poll_interval)
            assert replica.quarantines == 1
            assert replica.rebootstraps == 1   # snapshot re-bootstrap
            assert replica.records_applied == 0  # suspect bytes dropped
            kinds = [e["kind"] for e in replica.events.tail(10)]
            assert "replica.quarantine" in kinds
            assert "replica.rebootstrap" in kinds
            # after re-bootstrap the clean stream replays fully
            assert self._wait(lambda: (
                replica._step(replica.poll_interval),
                replica.records_applied >= 1)[1])
            rows = sorted(r[:1] for r in
                          chain.from_iterable(
                              replica.store.lookup("a", 1).relation.scan()))
            assert rows == [(7,)]
        finally:
            replica.shutdown()

    def test_transient_stream_break_backs_off_and_recovers(self, tmp_path):
        from repro.bang.faults import FaultInjector
        from repro.replication import Replica
        path, store = self._primary(tmp_path)
        faults = FaultInjector()
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, faults=faults, start=False)
        try:
            store.store_facts("a", 1, [(1,)], types=("int",))
            faults.arm_fail_read(1)
            advanced, backoff = replica._step(0.01)
            assert not advanced
            assert replica.stream_retries == 1
            assert backoff == 0.02            # capped exponential
            advanced, _ = replica._step(backoff)
            assert advanced and replica.records_applied == 1
        finally:
            replica.shutdown()

    @pytest.mark.parametrize("crash_point", ["replica.promote.before",
                                             "replica.promote.pre_save"])
    def test_crash_during_promote_leaves_primary_log_intact(
            self, tmp_path, crash_point):
        """Killing the process mid-promote must not lose the durable
        log: a second candidate (fresh process) still promotes with
        every acknowledged record."""
        import os
        from repro.bang.faults import FaultInjector, InjectedCrash
        from repro.replication import Replica
        path, store = self._primary(tmp_path)
        store.store_facts("late", 1, [(42,)], types=("int",))
        faults = FaultInjector().arm_crash_point(crash_point)
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, faults=faults, start=False)
        wal_size = os.path.getsize(path + ".wal")
        with pytest.raises(InjectedCrash):
            replica.promote()
        replica.shutdown()
        assert os.path.getsize(path + ".wal") == wal_size
        # the drill continues with the next candidate
        second = Replica("r1", path, str(tmp_path / "r1"),
                         workers=1, start=False)
        try:
            home = second.promote()
            assert second.promoted
            rows = sorted(r[:1] for r in
                          chain.from_iterable(
                              second.store.lookup("late", 1).relation.scan()))
            assert rows == [(42,)]
            assert os.path.exists(home)
        finally:
            second.shutdown()

    def test_follower_crash_during_catchup_then_restart(self, tmp_path):
        """An injected crash inside the apply loop kills the follower
        "process"; a fresh replica over the same directory re-bootstraps
        and converges."""
        from repro.bang.faults import FaultInjector, InjectedCrash
        from repro.replication import Replica
        path, store = self._primary(tmp_path)
        faults = FaultInjector().arm_crash_point("replica.apply.before")
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, faults=faults)
        try:
            store.store_facts("a", 1, [(1,)], types=("int",))
            assert self._wait(lambda: replica.crashed is not None)
            assert isinstance(replica.crashed, InjectedCrash)
            assert not replica.alive
            assert replica.records_applied == 0
        finally:
            replica.shutdown()
        restarted = Replica("r0", path, str(tmp_path / "r0"), workers=1)
        try:
            assert self._wait(lambda: restarted.records_applied >= 1)
            rows = sorted(r[:1] for r in
                          chain.from_iterable(
                              restarted.store.lookup("a", 1).relation.scan()))
            assert rows == [(1,)]
        finally:
            restarted.shutdown()

    def test_quarantined_replica_excluded_from_reads(self, tmp_path):
        """A quarantined replica that cannot re-bootstrap must not
        serve staleness-bounded reads."""
        from repro.errors import ReplicaLagExceeded
        from repro.replication import ReplicaSet
        cluster = ReplicaSet(str(tmp_path / "c.edb"), replicas=1,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_relation("r", [(1,)])
            assert cluster.wait_for_catch_up(timeout=15)
            cluster.replicas[0].quarantined = True
            with pytest.raises(ReplicaLagExceeded):
                cluster.submit_read("r(X)", max_lag=0)
        finally:
            cluster.shutdown()
