"""WAL-shipping read replicas: bootstrap, replay, lag, failover.

The replication contract under test (docs/REPLICATION.md):

* a replica's answers are **equal to the primary's** at every fenced
  epoch (the differential suite runs 25 seeded interleavings);
* staleness-bounded reads: ``max_lag`` routes to the freshest
  admissible replica or fails typed (:class:`ReplicaLagExceeded`);
* the supervised failover drill loses **zero acknowledged writes** —
  acknowledged means WAL-fsynced — and stale replicas re-attach to
  the new primary cleanly;
* ``replica_*`` counters and lag gauges surface in the Prometheus
  exposition, and lifecycle events in the flight recorder.
"""

import os
import pickle
import random
import threading
from itertools import chain

import pytest

from repro.bang.faults import FaultInjector
from repro.bang.wal import WriteAheadLog, _FRAME
from repro.dictionary import SegmentedDictionary
from repro.edb.store import ExternalStore
from repro.errors import (ReadOnlyService, ReadOnlyStore,
                          ReplicaLagExceeded, ServiceClosed)
from repro.lang.reader import read_terms
from repro.replication import Replica, ReplicaSet, WalTailer
from repro.replication.stream import CORRUPT, OK, WAIT
from repro.service import QueryService
from repro.wam.compiler import CompileContext


def answers(result):
    """Order-insensitive rendering of a solution list."""
    return sorted(str(s) for s in result)


def parse_exposition(text):
    """Prometheus text → {metric_name: value} (samples only)."""
    parsed = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(None, 1)
        parsed[name] = float(value)
    return parsed


def wait_until(predicate, timeout=10.0, interval=0.002):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ------------------------------------------------------- scan_from (WAL)


class TestScanFrom:
    """The incremental WAL cursor shared by recovery and tailing."""

    def test_scan_from_zero_reads_every_committed_frame(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        payloads = [b"a", b"bb", b"ccc"]
        for p in payloads:
            wal.append(p)
        cursor = wal.scan_from(0)
        assert list(cursor) == payloads
        assert cursor.status == "ok"
        assert not cursor.torn
        assert cursor.offset == os.path.getsize(wal.path)
        assert cursor.next_lsn == len(payloads)

    def test_scan_from_mid_offset_resumes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(b"one")
        first_end = os.path.getsize(wal.path)
        wal.append(b"two")
        wal.append(b"three")
        cursor = wal.scan_from(first_end, expected_lsn=1)
        assert list(cursor) == [b"two", b"three"]
        assert cursor.next_lsn == 3

    def test_scan_from_reports_torn_tail(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(b"whole")
        good_end = os.path.getsize(wal.path)
        with open(wal.path, "ab") as f:
            f.write(_FRAME.pack(b"WA", 1, 100, 0)[:7])  # header prefix
        cursor = wal.scan_from(0)
        assert list(cursor) == [b"whole"]
        assert cursor.torn and cursor.status == "torn"
        assert cursor.offset == good_end

    def test_scan_does_not_mutate_cursor_state(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(b"x")
        before = wal.next_lsn
        list(wal.scan_from(0))
        assert wal.next_lsn == before  # scan_from is side-effect free


# ------------------------------------------------------------ WalTailer


class TestWalTailer:
    def test_missing_file_is_wait(self, tmp_path):
        tailer = WalTailer(str(tmp_path / "absent.wal"))
        assert tailer.poll() == (WAIT, [])

    def test_poll_ships_incrementally(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        tailer = WalTailer(wal.path)
        wal.append(b"one")
        status, records = tailer.poll()
        assert status == OK and records == [(0, b"one")]
        assert tailer.poll() == (OK, [])       # caught up
        wal.append(b"two")
        status, records = tailer.poll()
        assert records == [(1, b"two")]
        assert tailer.records_streamed == 2

    def test_torn_tail_is_wait_and_file_untouched(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(b"whole")
        with open(wal.path, "ab") as f:
            f.write(b"\x00" * 5)  # append in flight
        size = os.path.getsize(wal.path)
        tailer = WalTailer(wal.path)
        status, records = tailer.poll()
        assert status == WAIT and records == [(0, b"whole")]
        # wait-and-retry NEVER truncates someone else's log
        assert os.path.getsize(wal.path) == size
        # retrying from the same position is stable
        assert tailer.poll() == (WAIT, [])

    def test_shorter_log_ships_nothing(self, tmp_path):
        """The tailer reads frames and nothing else: a log shorter than
        its offset is not a verdict, it ships nothing and the cursor
        stays where it was."""
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(b"abcdef")
        tailer = WalTailer(wal.path)
        tailer.poll()
        offset = tailer.offset
        wal.truncate_to(0)  # the owner checkpointed
        assert tailer.poll() == (OK, [])
        assert (tailer.offset, tailer.next_lsn) == (offset, 1)

    def test_complete_frame_bad_crc_is_corrupt(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(b"payload-bytes")
        with open(wal.path, "r+b") as f:
            f.seek(_FRAME.size + 2)
            byte = f.read(1)
            f.seek(_FRAME.size + 2)
            f.write(bytes([byte[0] ^ 0x40]))
        status, records = WalTailer(wal.path).poll()
        assert status == CORRUPT and records == []

    def test_max_records_batches(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        for i in range(10):
            wal.append(bytes([i]))
        tailer = WalTailer(wal.path)
        status, records = tailer.poll(max_records=4)
        assert status == OK and len(records) == 4
        status, records = tailer.poll(max_records=None)
        assert len(records) == 6


# -------------------------------------------------------------- Replica


@pytest.fixture
def ctx():
    return CompileContext(SegmentedDictionary(segment_capacity=1024))


def seeded_primary(path, ctx):
    store = ExternalStore.open(path)
    store.store_facts("edge", 2, [(1, 2), (2, 3)], types=("int", "int"))
    store.store_rules(
        "path", 2,
        read_terms("path(X,Y) :- edge(X,Y). "
                   "path(X,Z) :- edge(X,Y), path(Y,Z)."), ctx)
    store.save(path)
    return store


class TestReplica:
    def test_bootstrap_serves_checkpoint_state(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        primary = seeded_primary(path, ctx)
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, start=False)
        try:
            rows = sorted(r[:2] for r in
                          chain.from_iterable(
                              replica.store.lookup("edge", 2).relation.scan()))
            assert rows == [(1, 2), (2, 3)]
            assert replica.bootstraps == 1
            assert replica.applied_epoch == replica.store.checkpoint_epoch
        finally:
            replica.shutdown()

    def test_replica_store_and_service_are_fenced(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        seeded_primary(path, ctx)
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, start=False)
        try:
            with pytest.raises(ReadOnlyStore, match="read-only"):
                replica.store.store_facts("x", 1, [(1,)], types=("int",))
            with pytest.raises(ReadOnlyService):
                replica.service.store_program("p(1).")
            with pytest.raises(ReadOnlyService):
                replica.service.assert_external("edge(9, 9).")
        finally:
            replica.shutdown()

    def test_continuous_replay_applies_new_writes(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        primary = seeded_primary(path, ctx)
        replica = Replica("r0", path, str(tmp_path / "r0"), workers=1)
        try:
            primary.store_facts("hop", 2, [(7, 8)], types=("int", "int"))
            assert wait_until(lambda: replica.records_applied >= 1)
            rows = sorted(r[:2] for r in
                          chain.from_iterable(
                              replica.store.lookup("hop", 2).relation.scan()))
            assert rows == [(7, 8)]
            assert replica.applied_epoch == primary.mutation_epoch
        finally:
            replica.shutdown()

    def test_replica_files_are_private(self, tmp_path, ctx):
        """The only shared artefact is the primary's WAL (read-only);
        the replica's pager must never touch the primary's sidecars."""
        path = str(tmp_path / "db.edb")
        primary = seeded_primary(path, ctx)
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, start=False)
        try:
            disk_path = replica.store.pager.disk.path
            assert str(tmp_path / "r0") in disk_path
            assert disk_path != primary.pager.disk.path
        finally:
            replica.shutdown()

    def test_truncation_horizon_triggers_rebootstrap(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        primary = seeded_primary(path, ctx)
        replica = Replica("r0", path, str(tmp_path / "r0"), workers=1)
        try:
            primary.store_facts("a", 1, [(1,)], types=("int",))
            assert wait_until(lambda: replica.records_applied >= 1)
            # the checkpoint truncates the log below the replica's
            # offset and nothing is written after it: the replica
            # learns of it from the checkpoint's header
            primary.save(path)
            assert wait_until(lambda: replica.rebootstraps >= 1)
            assert replica.store.wal_era == primary.wal_era
            assert replica.applied_epoch == primary.mutation_epoch
            rows = [r[:1] for r in
                    chain.from_iterable(replica.store.lookup("a", 1).relation.scan())]
            assert rows == [(1,)]
        finally:
            replica.shutdown()

    def test_counters_and_gauge_keys(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        seeded_primary(path, ctx)
        replica = Replica("r7", path, str(tmp_path / "r7"),
                          workers=1, start=False)
        try:
            counters = replica.counters()
            for key in ("replica_records_applied", "replica_records_stale",
                        "replica_bootstraps", "replica_rebootstraps",
                        "replica_quarantines", "replica_stream_retries",
                        "replica_torn_tail_waits", "replica_promotions"):
                assert key in counters
            assert "replica_lag_epochs.r7" in counters
            assert set(replica.gauge_keys()) <= set(counters)
        finally:
            replica.shutdown()


# ------------------------------------- named follower schedules


class TestFollowerSchedules:
    """Interleavings of a primary's writes and checkpoints with a
    follower's apply steps, driven one ``_step`` at a time."""

    ROWS = [(1, 2), (3, 4)]

    @pytest.fixture
    def cluster(self, tmp_path):
        from repro import EduceStar
        path = str(tmp_path / "db.edb")
        primary = EduceStar.create(path)
        primary.store_program("edge(a, b). edge(b, c).")
        primary.save(path)
        store = primary.store
        replica = Replica(
            "r0", path, str(tmp_path / "r0"), workers=1, start=False,
            primary_state=lambda: (store.mutation_epoch,
                                   store.wal.next_lsn))
        yield primary, replica, path
        replica.shutdown()

    @staticmethod
    def drive(replica, steps=5):
        for _ in range(steps):
            replica._step(replica.poll_interval)

    @staticmethod
    def assert_converged(primary, replica, relation):
        goal = f"{relation}(X, Y)"
        assert answers(replica.execute(goal)) \
            == answers(primary.solve(goal))
        assert replica.applied_epoch == primary.store.mutation_epoch
        assert replica.rebootstraps >= 1
        assert replica.lag() == (0, 0)

    def test_checkpoint_before_first_shipped_record(self, cluster):
        """Schedule (i): the follower has shipped nothing from the
        current log when the primary writes and checkpoints, so the
        truncated log is exactly as long as the follower's offset."""
        primary, replica, path = cluster
        assert replica.tailer.offset == 0
        primary.store_relation("d3", self.ROWS)
        primary.save(path)
        self.drive(replica)
        self.assert_converged(primary, replica, "d3")

    def test_failed_rebootstrap_is_retried(self, cluster, monkeypatch):
        """Schedule (ii): the follower is caught up, the primary writes
        and checkpoints, and the first copy of the re-bootstrap fails
        the way a pages sidecar removed mid-copy does."""
        import shutil
        import repro.replication.replica as replica_module
        primary, replica, path = cluster
        primary.store_relation("d2", self.ROWS)
        self.drive(replica)
        assert replica.tailer.offset > 0 and replica.lag() == (0, 0)
        primary.store_relation("d3", self.ROWS)
        primary.save(path)
        failures = [FileNotFoundError("pages sidecar removed")]
        real_copyfile = shutil.copyfile

        def copyfile(src, dst, *args, **kwargs):
            if failures:
                raise failures.pop()
            return real_copyfile(src, dst, *args, **kwargs)

        monkeypatch.setattr(replica_module.shutil, "copyfile", copyfile)
        self.drive(replica)
        assert not failures and replica.stream_retries == 1
        self.assert_converged(primary, replica, "d3")

    def test_lag_counts_records_of_a_newer_generation(self, cluster):
        """Until the follower has loaded the primary's checkpoint, every
        record of the primary's current log is unread — however far
        the follower got in the log that checkpoint truncated."""
        primary, replica, path = cluster
        for name in ("d1", "d2", "d3"):
            primary.store_relation(name, self.ROWS)
        self.drive(replica)
        assert replica.tailer.next_lsn >= 3 and replica.lag() == (0, 0)
        primary.save(path)
        primary.store_relation("d4", self.ROWS)
        assert primary.store.wal.next_lsn == 1
        assert replica.lag() == (1, 1)
        self.drive(replica)
        self.assert_converged(primary, replica, "d4")

    def test_log_older_than_the_checkpoint_is_reread(self, cluster,
                                                     monkeypatch):
        """The follower re-bootstraps between the primary's checkpoint
        rename and its log truncation, so it first reads the old log,
        whose records the checkpoint holds.  The next log regrows to
        the same length with frames of the same sizes; a follower that
        kept its offset would resume on a frame boundary and skip
        ``d2`` without a trace."""
        primary, replica, path = cluster
        primary.store_relation("d1", self.ROWS)
        self.drive(replica)
        old_end = replica.tailer.offset
        wal = primary.store.wal
        monkeypatch.setattr(wal, "truncate", lambda: None)
        primary.save(path)
        self.drive(replica)             # re-bootstrap, read the old log
        assert replica.rebootstraps == 1 and replica.records_stale >= 1
        WriteAheadLog.truncate(wal)     # the primary's truncation lands
        primary.store_relation("d2", self.ROWS)
        assert os.path.getsize(wal.path) == old_end
        primary.store_relation("d3", [(5, 6), (7, 8)])
        self.drive(replica)
        for relation in ("d1", "d2", "d3"):
            self.assert_converged(primary, replica, relation)
        assert replica.quarantines == 0


# ------------------------------- one write path: recovery vs follower


def store_state(store):
    """Everything a redo record can change, in comparable form."""
    return {
        "epoch": store.mutation_epoch,
        "procedures": {p.key: (p.mode, p.version, p.nclauses)
                       for p in store.procedures()},
        "rulebase": {ind: [str(c) for c in clauses] for ind, clauses
                     in store.datalog_rules.clauses().items()},
    }


class TestOneWritePath:
    """Live writes, crash recovery and followers run one ``apply``
    behind one admission function (docs/DURABILITY.md): the same
    shipped bytes must leave a recovered store and a follower in the
    same state, with the same verdicts."""

    TERMINAL = {
        "ahead": lambda rec: pickle.dumps(dict(rec, era=rec["era"] + 1)),
        "undecodable": lambda rec: b"\x80\x04 not a pickle",
        "unknown_op": lambda rec: pickle.dumps(dict(rec, op="vacuum")),
    }

    def _shipped_stream(self, path, ctx, terminal):
        """A primary's log, rewritten as: one stale-era record, every
        record of a real mutation sequence (a ``rules`` record with two
        auxiliaries, ``assert_fact``, ``assert_rule``, ``retract``,
        ``materialise``, ``drop``), one record no store may apply, and
        a well-formed record after it that must never be reached."""
        primary = seeded_primary(path, ctx)
        primary.store_rules("pick", 1, read_terms(
            "pick(X) :- ( edge(X,_) ; edge(_,X) ), \\+ X = 0."), ctx)
        primary.assert_clause("edge", 2, read_terms("edge(9,9).")[0], ctx)
        primary.assert_clause(
            "path", 2, read_terms("path(X,X) :- edge(X,_).")[0], ctx)
        primary.retract_clause("path", 2, 0)
        primary.materialise_facts("tmp", 1, [(1,), (2,)])
        primary.materialise_facts("tmp", 1, [(3,)])
        primary.drop_procedure("tmp", 1)
        live = store_state(primary)
        primary.wal.close()                 # the primary dies here

        wal = WriteAheadLog(path + ".wal")
        good = list(wal.scan_from(0))
        records = [pickle.loads(p) for p in good]
        assert [r["op"] for r in records] == [
            "rules", "rules", "rules", "assert_fact", "assert_rule",
            "retract", "materialise", "materialise", "drop"]
        last = records[-1]
        stale = pickle.dumps(dict(records[3], era=last["era"] - 1))
        unreachable = pickle.dumps(dict(records[3],
                                        epoch=last["epoch"] + 1))
        wal.truncate()
        for payload in ([stale] + good
                        + [self.TERMINAL[terminal](last), unreachable]):
            wal.append(payload)
        wal.close()
        return live, len(good)

    @pytest.mark.parametrize("terminal", sorted(TERMINAL))
    def test_recovery_and_follower_agree(self, tmp_path, ctx, terminal):
        path = str(tmp_path / "db.edb")
        live, n_good = self._shipped_stream(path, ctx, terminal)

        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, start=False)
        try:
            status, shipped = replica.tailer.poll(None)
            assert status == OK and len(shipped) == n_good + 3
            fate = replica._apply_batch(shipped)
            follower = store_state(replica.store)
            assert (replica.records_applied, replica.records_stale) \
                == (n_good, 1)
            assert replica.applied_epoch == live["epoch"]
        finally:
            replica.shutdown()
        assert fate == ("rebootstrap" if terminal == "ahead"
                        else "quarantine")

        reopened = ExternalStore.open(path, create=False)
        report, recovered = reopened.recovery, store_state(reopened)
        assert report.wal_records_seen == n_good + 3
        assert (report.wal_records_replayed, report.wal_records_stale) \
            == (n_good, 1)
        assert len(report.errors) == 1      # the terminal record
        assert "replay stopped" in report.errors[0]

        # Same epoch, procedure versions and rulebase on all three
        # (path/2 stays tracked, minus its retracted clause).
        assert recovered == follower == live

    def test_follower_epoch_equals_primary_after_multi_record_store(
            self, tmp_path):
        """Regression: a follower bumped its epoch once per *record*,
        the primary once per *mutation* — one store_program with two
        auxiliary procedures left the follower two epochs ahead."""
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=1,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_relation("edge", [(1, 2), (2, 3)])
            before = cluster.primary_store.mutation_epoch
            cluster.store_program(
                "pick(X) :- ( edge(X,_) ; edge(_,X) ), \\+ X = 0.")
            assert cluster.primary_store.mutation_epoch == before + 1
            replica = cluster.replicas[0]
            assert wait_until(lambda: replica.records_applied >= 4)
            assert replica.store.mutation_epoch \
                == cluster.primary_store.mutation_epoch
            assert replica.applied_epoch \
                == cluster.primary_store.mutation_epoch
            assert replica.lag()[0] == 0
        finally:
            cluster.shutdown()


# ------------------------------------------------- differential suite


@pytest.fixture(scope="module")
def diff_cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("diffcluster")
    cluster = ReplicaSet(str(root / "db.edb"), replicas=2,
                         primary_workers=1, replica_workers=1)
    cluster.store_program("edge(a,b). edge(b,c). edge(c,d).")
    yield cluster
    cluster.shutdown()


@pytest.mark.parametrize("seed", range(25))
def test_differential_interleaving(diff_cluster, seed):
    """One seeded interleaving of writes, checkpoints and fenced reads:
    at the fence (catch-up) every replica's answers equal the
    primary's, for both the fresh data and the shared base relation."""
    cluster = diff_cluster
    rng = random.Random(seed)
    rows = sorted({(rng.randrange(50), rng.randrange(50))
                   for _ in range(rng.randrange(3, 12))})
    relation = f"d{seed}"
    cluster.store_relation(relation, rows)
    if rng.random() < 0.3:
        cluster.checkpoint()
    for _ in range(rng.randrange(0, 3)):
        a, b = rng.randrange(100, 200), rng.randrange(100, 200)
        cluster.assert_external(f"edge({a}, {b}).")
    assert cluster.wait_for_catch_up(timeout=15), \
        f"seed {seed}: replicas never reached the fence"
    for goal in (f"{relation}(X, Y)", "edge(X, Y)"):
        expected = answers(cluster.execute(goal))
        for replica in cluster.replicas:
            assert answers(replica.execute(goal)) == expected, \
                f"seed {seed}: {replica.name} diverged on {goal}"
    got = answers(cluster.execute_read(f"{relation}(X, Y)", max_lag=0))
    assert got == answers(cluster.execute(f"{relation}(X, Y)"))


# -------------------------------------------------- staleness bounds


class TestMaxLag:
    def test_lag_bound_rejects_then_admits(self, tmp_path, ctx,
                                           monkeypatch):
        path = str(tmp_path / "db.edb")
        seeded_primary(path, ctx).save(path)
        # A huge poll interval freezes the replica once its first apply
        # step is over: deterministic, bounded staleness.
        stepped = threading.Event()
        real_step = Replica._step

        def step(replica, backoff):
            try:
                return real_step(replica, backoff)
            finally:
                stepped.set()

        monkeypatch.setattr(Replica, "_step", step)
        cluster = ReplicaSet(path, replicas=1, primary_workers=1,
                             replica_workers=1, poll_interval=60.0)
        try:
            assert stepped.wait(10)
            assert answers(cluster.execute_read("edge(X, Y)",
                                                max_lag=0)) \
                == answers(cluster.execute("edge(X, Y)"))
            cluster.store_relation("fresh", [(1, 1)])
            with pytest.raises(ReplicaLagExceeded) as excinfo:
                cluster.execute_read("fresh(X, Y)", max_lag=0)
            assert excinfo.value.max_lag == 0
            assert excinfo.value.best_lag >= 1
            # a loose bound serves the stale snapshot
            stale = cluster.execute_read("edge(X, Y)", max_lag=100)
            assert answers(stale) == answers(cluster.execute("edge(X, Y)"))
        finally:
            cluster.shutdown()

    def test_no_replicas_falls_through_to_primary(self, tmp_path):
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=0,
                             primary_workers=1)
        try:
            cluster.store_relation("r", [(1,)])
            assert answers(cluster.execute_read("r(X)")) == \
                answers(cluster.execute("r(X)"))
        finally:
            cluster.shutdown()


# ------------------------------------------------------ failover drill


class TestFailoverDrill:
    def test_kill_primary_promote_zero_acknowledged_loss(self, tmp_path):
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=2,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_program("edge(a,b). edge(b,c).")
            cluster.store_relation("num", [(i,) for i in range(10)])
            assert cluster.wait_for_catch_up(timeout=15)
            # an acknowledged write the replicas have NOT applied yet:
            # it is fsynced in the WAL, so failover must preserve it
            cluster.store_relation("late", [(42,)])
            cluster.kill_primary()
            winner = cluster.failover()
            assert winner in ("r0", "r1")
            assert not cluster.primary_dead
            late = cluster.execute("late(X)")
            assert len(late) == 1 and "42" in str(late[0])
            assert len(cluster.execute("num(X)")) == 10
            # the new primary owns a fresh WAL generation (era bump)
            assert cluster.primary_store.wal_era >= 2
            # writes flow again and the re-attached replica follows
            cluster.store_relation("post", [(1,)])
            assert cluster.wait_for_catch_up(timeout=15)
            assert len(cluster.replicas) == 1
            survivor = cluster.replicas[0]
            assert answers(survivor.execute("post(X)")) == \
                answers(cluster.execute("post(X)"))
            assert survivor.rebootstraps >= 1
        finally:
            cluster.shutdown()

    def test_freshest_replica_wins(self, tmp_path):
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=2,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_relation("seedrel", [(1,)])
            assert cluster.wait_for_catch_up(timeout=15)
            # freeze r1's apply loop; r0 keeps up and must be chosen
            cluster.replicas[1].stop_apply()
            cluster.store_relation("onlyr0", [(2,)])
            assert wait_until(
                lambda: cluster.replicas[0].applied_epoch
                >= cluster.primary_store.mutation_epoch)
            cluster.kill_primary()
            assert cluster.failover() == "r0"
            assert len(cluster.execute("onlyr0(X)")) == 1
        finally:
            cluster.shutdown()

    def test_poisoned_primary_fails_over(self, tmp_path):
        from repro.bang.faults import InjectedIOError
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=1,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_relation("good", [(1,), (2,)])
            assert cluster.wait_for_catch_up(timeout=15)
            # the next WAL append fails: the write is NOT acknowledged
            # and the primary store poisons itself (PR 2 semantics)
            cluster.primary_store.wal.faults = \
                FaultInjector().arm_fail_write(1)
            with pytest.raises(InjectedIOError):
                cluster.store_relation("doomed", [(3,)])
            assert cluster.poisoned() is not None
            winner = cluster.failover()
            assert cluster.poisoned() is None  # new primary is clean
            # every acknowledged write survives; the unacknowledged
            # one is (correctly) absent
            assert len(cluster.execute("good(X)")) == 2
            from repro.errors import ExistenceError
            with pytest.raises(ExistenceError):
                cluster.execute("doomed(X)")
            cluster.store_relation("after", [(4,)])
            assert len(cluster.execute("after(X)")) == 1
        finally:
            cluster.shutdown()

    def test_promote_events_and_counters_surface(self, tmp_path):
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=1,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_relation("r", [(1,)])
            assert cluster.wait_for_catch_up(timeout=15)
            cluster.kill_primary()
            winner = cluster.failover()
            expo = cluster.exposition()
            parsed = parse_exposition(expo)
            assert parsed["educe_replica_promotions"] >= 1
            telemetry = cluster.telemetry()
            kinds = {e["kind"] for e in telemetry["events"]}
            assert "replica.promote" in kinds
        finally:
            cluster.shutdown()


# -------------------------------------------------- exposition / events


class TestClusterObservability:
    def test_lag_gauges_and_counters_in_exposition(self, tmp_path):
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=2,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_relation("r", [(1,)])
            assert cluster.wait_for_catch_up(timeout=15)
            expo = cluster.exposition()
            parsed = parse_exposition(expo)
            for key in ("educe_replica_lag_epochs",
                        "educe_replica_lag_records",
                        "educe_replica_lag_epochs_r0",
                        "educe_replica_lag_records_r1",
                        "educe_replica_records_applied",
                        "educe_replica_bootstraps"):
                assert key in parsed, key
            # caught-up cluster: zero lag on every gauge
            assert parsed["educe_replica_lag_epochs"] == 0
            # gauges are typed gauge, not counter
            assert "# TYPE educe_replica_lag_epochs gauge" in expo
            assert "# TYPE educe_replica_records_applied counter" in expo
        finally:
            cluster.shutdown()

    def test_telemetry_carries_replica_summaries(self, tmp_path):
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=1,
                             primary_workers=1, replica_workers=1)
        try:
            telemetry = cluster.telemetry()
            (summary,) = telemetry["replicas"]
            assert summary["name"] == "r0"
            assert summary["alive"] is True
            kinds = {e["kind"] for e in summary["events"]}
            assert "replica.bootstrap" in kinds
        finally:
            cluster.shutdown()


# ------------------------------------------- shutdown idempotency (S4)


class TestShutdownIdempotency:
    def test_service_shutdown_twice_is_noop(self, tmp_path):
        service = QueryService(workers=1)
        service.submit("X is 1 + 1").result()
        service.shutdown()
        first = service.final_telemetry
        service.shutdown()          # second call returns immediately
        assert service.final_telemetry is first
        with pytest.raises(ServiceClosed):
            service.submit("true")

    def test_concurrent_shutdowns_single_winner(self):
        service = QueryService(workers=2)
        errors = []

        def closer():
            try:
                service.shutdown()
            except Exception as exc:   # pragma: no cover - must not
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not errors
        assert service.final_telemetry is not None

    def test_replica_shutdown_idempotent(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        seeded_primary(path, ctx)
        replica = Replica("r0", path, str(tmp_path / "r0"), workers=1)
        replica.shutdown()
        replica.shutdown()
        assert not replica.alive

    def test_cluster_shutdown_with_attached_replicas(self, tmp_path):
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=2,
                             primary_workers=1, replica_workers=1)
        cluster.store_relation("r", [(i,) for i in range(5)])
        # shut down while replicas may still be draining the stream
        cluster.shutdown()
        cluster.shutdown()          # idempotent at cluster level too
        for replica in cluster.replicas:
            assert not replica.alive
        with pytest.raises(ServiceClosed):
            cluster.execute("r(X)")


# ------------------------- the Datalog rulebase travels in the checkpoint


class TestCheckpointedRulebase:
    """The checkpoint carries the Datalog rulebase, so a follower
    bootstrapped from it answers a recursive goal bottom-up, the way
    the primary that wrote it did."""

    @pytest.mark.usefixtures("bottom_up")
    def test_follower_answers_bottom_up(self, tmp_path):
        from repro import EduceStar
        path = str(tmp_path / "db.edb")
        primary = EduceStar(store=ExternalStore.open(path))
        primary.store_relation("link", [(1, 2), (2, 3), (3, 4)])
        primary.store_program(
            "% lint: external link/2\n"
            "reach(X, Y) :- link(X, Y).\n"
            "reach(X, Z) :- link(X, Y), reach(Y, Z).")
        live = answers(primary.solve("reach(1, X)"))
        primary.save(path)
        replica = Replica("r0", path, str(tmp_path / "r0"), workers=1,
                          start=False)
        try:
            _status, records = replica.tailer.poll(None)
            assert records == []                 # nothing past the image
            follower = EduceStar(store=replica.store)
            assert answers(follower.solve("reach(1, X)")) == live
            assert follower.datalog.counters()["datalog_bottomup"] == 1
        finally:
            replica.shutdown()
