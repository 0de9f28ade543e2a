"""Crash-safety tests: WAL framing, atomic checkpoints, recovery.

The deterministic :class:`~repro.bang.faults.FaultInjector` lets these
tests kill the "process" at every interesting instant of a log append
or checkpoint and then reopen the database exactly as a restarted
server would.  The invariant under test throughout: reopening restores
the last committed state, or replays the log to it — never silently
wrong data.
"""

import os
import pickle
import zlib
from itertools import chain

import pytest

from repro.bang.faults import (FaultInjector, InjectedCrash,
                               InjectedIOError, NULL_FAULTS)
from repro.bang.pager import FileDiskStore
from repro.bang.wal import WriteAheadLog
from repro.dictionary import SegmentedDictionary
from repro.edb.store import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             _CKPT_HEADER, ExternalStore)
from repro.errors import CatalogError, PageError, WalError
from repro.lang.reader import read_term, read_terms
from repro.wam.compiler import CompileContext

from .pages import leaf, unpacked


@pytest.fixture
def ctx():
    return CompileContext(SegmentedDictionary(segment_capacity=1024))


def seeded_store(path, ctx):
    """A durable EDB at *path* with one facts and one rules procedure,
    checkpointed."""
    store = ExternalStore.open(path)
    store.store_facts("edge", 2, [(1, 2), (2, 3)], types=("int", "int"))
    store.store_rules(
        "path", 2,
        read_terms("path(X,Y) :- edge(X,Y). "
                   "path(X,Z) :- edge(X,Y), path(Y,Z)."), ctx)
    store.save(path)
    return store


def arm(store, faults):
    """Plug one injector into every I/O path of a live store."""
    store.faults = faults
    store.pager.disk.faults = faults
    if store.wal is not None:
        store.wal.faults = faults
    return faults


def scan(wal):
    """Every committed payload, the way recovery reads a log: returns
    ``(payloads, torn_tail, good_end)`` and positions ``next_lsn``
    after the last committed record."""
    cursor = wal.scan_from(0)
    payloads = list(cursor)
    wal.next_lsn = cursor.next_lsn
    return payloads, cursor.torn, cursor.offset


def edge_rows(store):
    return sorted(chain.from_iterable(store.lookup("edge", 2).relation.scan()))


# ---------------------------------------------------------------- injector


class TestFaultInjector:
    def test_fail_nth_write_is_io_error(self, tmp_path):
        f = open(tmp_path / "t", "wb", buffering=0)
        faults = FaultInjector().arm_fail_write(2)
        faults.write(f, b"one")
        with pytest.raises(InjectedIOError):
            faults.write(f, b"two")
        faults.write(f, b"three")           # plan is one-shot
        f.close()
        assert (tmp_path / "t").read_bytes() == b"onethree"
        assert faults.fired == ["fail_write#2"]

    def test_torn_write_keeps_prefix_then_crashes(self, tmp_path):
        f = open(tmp_path / "t", "wb", buffering=0)
        faults = FaultInjector().arm_torn_write(1, keep=0.5)
        with pytest.raises(InjectedCrash):
            faults.write(f, b"abcdefgh")
        f.close()
        assert (tmp_path / "t").read_bytes() == b"abcd"

    def test_bitflip_read_flips_exactly_one_bit(self, tmp_path):
        (tmp_path / "t").write_bytes(b"\x00\x00")
        f = open(tmp_path / "t", "rb")
        faults = FaultInjector().arm_bitflip_read(1, bit=9)
        assert faults.read(f, 2) == b"\x00\x02"
        f.close()

    def test_crash_point_skip_counts_hits(self):
        faults = FaultInjector().arm_crash_point("cp", skip=2)
        faults.crash_point("cp")
        faults.crash_point("cp")
        with pytest.raises(InjectedCrash):
            faults.crash_point("cp")
        faults.crash_point("cp")            # disarmed after firing

    def test_io_error_point_survivable_and_one_shot(self):
        faults = FaultInjector().arm_io_error_point("cp", skip=1)
        faults.crash_point("cp")
        with pytest.raises(InjectedIOError):
            faults.crash_point("cp")
        faults.crash_point("cp")            # disarmed after firing
        assert faults.fired == ["io_error@cp"]

    def test_null_faults_refuses_arming(self):
        with pytest.raises(ValueError):
            NULL_FAULTS.arm_crash_point("anything")
        with pytest.raises(ValueError):
            NULL_FAULTS.arm_io_error_point("anything")


# --------------------------------------------------------------------- WAL


class TestWriteAheadLog:
    def test_append_scan_roundtrip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        payloads = [b"first", b"second", b"", b"fourth" * 100]
        assert [wal.append(p) for p in payloads] == [0, 1, 2, 3]
        wal.close()

        wal2 = WriteAheadLog(path)
        records, torn, good_end = scan(wal2)
        assert records == payloads
        assert not torn
        assert good_end == os.path.getsize(path)
        assert wal2.next_lsn == 4

    def test_torn_append_truncated_then_log_reusable(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, faults=FaultInjector())
        wal.append(b"committed")
        wal.faults.arm_crash_point("wal.append.mid")
        with pytest.raises(InjectedCrash):
            wal.append(b"torn away")
        wal.close()

        wal2 = WriteAheadLog(path)
        records, torn, good_end = scan(wal2)
        assert records == [b"committed"]
        assert torn
        wal2.truncate_to(good_end)
        assert wal2.append(b"after repair") == 1
        records, torn, _ = scan(WriteAheadLog(path))
        assert records == [b"committed", b"after repair"] and not torn

    def test_corrupt_frame_stops_scan(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append(b"good record")
        wal.append(b"soon corrupt")
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(size - 1)
            byte = f.read(1)
            f.seek(size - 1)
            f.write(bytes([byte[0] ^ 0x40]))
        records, torn, _ = scan(WriteAheadLog(path))
        assert records == [b"good record"]
        assert torn

    def test_trailing_garbage_reported_torn(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append(b"fine")
        wal.close()
        with open(path, "ab") as f:
            f.write(b"\x01\x02\x03")        # shorter than a header
        records, torn, _ = scan(WriteAheadLog(path))
        assert records == [b"fine"] and torn

    def test_truncate_resets_lsn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal"))
        wal.append(b"x")
        wal.append(b"y")
        wal.truncate()
        assert wal.next_lsn == 0
        assert os.path.getsize(wal.path) == 0

    def test_oversized_record_refused(self, tmp_path):
        from repro.bang import wal as wal_mod
        wal = WriteAheadLog(str(tmp_path / "log.wal"))
        with pytest.raises(WalError):
            wal.append(b"\x00" * (wal_mod.MAX_RECORD_BYTES + 1))

    def test_closed_log_raises_typed_error(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal"))
        wal.append(b"x")
        wal.close()
        wal.close()                         # idempotent
        for operation in (lambda: wal.append(b"y"),
                          wal.scan_from,
                          lambda: wal.truncate_to(0),
                          wal.truncate):
            with pytest.raises(WalError, match="closed"):
                operation()


# ----------------------------------------------------------- FileDiskStore


class TestFileDiskStore:
    def test_write_read_roundtrip(self, tmp_path):
        disk = FileDiskStore(str(tmp_path / "pages"))
        pid = disk.allocate()
        disk.write(pid, leaf(*range(20)))
        assert unpacked(disk, pid, disk.read(pid)) == leaf(*range(20))

    def test_rewrite_supersedes_and_read_sees_latest(self, tmp_path):
        disk = FileDiskStore(str(tmp_path / "pages"))
        pid = disk.allocate()
        disk.write(pid, leaf("v1"))
        disk.write(pid, leaf("v2"))
        assert unpacked(disk, pid, disk.read(pid)) == leaf("v2")

    def test_bitflip_detected_and_quarantined(self, tmp_path):
        faults = FaultInjector()
        disk = FileDiskStore(str(tmp_path / "pages"), faults=faults)
        pid = disk.allocate()
        disk.write(pid, leaf(*range(50)))
        faults.arm_bitflip_read(1, bit=200)
        with pytest.raises(PageError):
            disk.read(pid)
        assert pid in disk.quarantined
        # fail-fast on the next read, no I/O needed
        with pytest.raises(PageError):
            disk.read(pid)
        # a rewrite heals the page
        disk.write(pid, leaf("healed"))
        assert unpacked(disk, pid, disk.read(pid)) == leaf("healed")

    def test_on_disk_corruption_detected_by_crc(self, tmp_path):
        disk = FileDiskStore(str(tmp_path / "pages"))
        pid = disk.allocate()
        disk.write(pid, leaf(*range(50)))
        offset, frame_len = disk._index[pid]
        with open(disk.path, "r+b") as f:
            f.seek(offset + frame_len - 1)
            byte = f.read(1)
            f.seek(offset + frame_len - 1)
            f.write(bytes([byte[0] ^ 0x10]))
        with pytest.raises(PageError, match="CRC mismatch"):
            disk.read(pid)

    def test_verify_all_finds_corruption_without_counting_reads(
            self, tmp_path):
        disk = FileDiskStore(str(tmp_path / "pages"))
        pids = [disk.allocate() for _ in range(3)]
        for pid in pids:
            disk.write(pid, leaf(f"page {pid}"))
        offset, _ = disk._index[pids[1]]
        with open(disk.path, "r+b") as f:
            f.seek(offset)
            f.write(b"XX")                  # clobber the frame magic
        reads_before = disk.reads
        assert disk.verify_all() == [pids[1]]
        assert disk.reads == reads_before
        assert unpacked(disk, pids[2], disk.read(pids[2])) == \
            leaf(f"page {pids[2]}")

    def test_compaction_drops_dead_records(self, tmp_path):
        disk = FileDiskStore(str(tmp_path / "pages"))
        pid = disk.allocate()
        for i in range(10):
            disk.write(pid, leaf(f"version {i}"))
        old_size = os.path.getsize(disk.path)
        disk.compact_to(str(tmp_path / "pages.2"), new_epoch=2)
        assert os.path.getsize(disk.path) < old_size
        assert disk.epoch == 2
        assert unpacked(disk, pid, disk.read(pid)) == leaf("version 9")

    def test_detached_store_raises_typed_error(self, tmp_path):
        import pickle
        disk = FileDiskStore(str(tmp_path / "pages"))
        pid = disk.allocate()
        disk.write(pid, leaf("data"))
        clone = pickle.loads(pickle.dumps(disk))
        with pytest.raises(PageError, match="detached"):
            clone.read(pid)
        clone.reattach(disk.path)
        assert unpacked(clone, pid, clone.read(pid)) == leaf("data")


# ----------------------------------------------------- checkpoint validation


class TestCheckpointValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="no such EDB"):
            ExternalStore.load(str(tmp_path / "absent.edb"))

    def test_junk_magic_named_in_error(self, tmp_path):
        path = tmp_path / "junk.edb"
        path.write_bytes(b"#!/usr/bin/env python\nprint('not an edb')\n")
        with pytest.raises(CatalogError, match="bad magic"):
            ExternalStore.load(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.edb"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x00")
        with pytest.raises(CatalogError, match="truncated"):
            ExternalStore.load(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.edb"
        payload = b"whatever"
        header = _CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION + 7,
                                   0, len(payload), zlib.crc32(payload))
        path.write_bytes(header + payload)
        with pytest.raises(CatalogError, match="version"):
            ExternalStore.load(str(path))

    def test_version_1_checkpoint_refused(self, tmp_path):
        # Version 1 held leaf pages as lists of (key, record) pairs.
        path = tmp_path / "v1.edb"
        payload = pickle.dumps(ExternalStore(), protocol=4)
        header = _CKPT_HEADER.pack(CHECKPOINT_MAGIC, 1, 0, len(payload),
                                   zlib.crc32(payload))
        path.write_bytes(header + payload)
        with pytest.raises(CatalogError,
                           match="unsupported EDB checkpoint version 1"):
            ExternalStore.load(str(path))

    def test_version_2_checkpoint_refused(self, tmp_path):
        # Version 2 had no table of the positions stored clauses bind,
        # so its facts relations could not be re-clustered.
        path = tmp_path / "v2.edb"
        payload = pickle.dumps(ExternalStore(), protocol=4)
        header = _CKPT_HEADER.pack(CHECKPOINT_MAGIC, 2, 0, len(payload),
                                   zlib.crc32(payload))
        path.write_bytes(header + payload)
        with pytest.raises(CatalogError,
                           match="unsupported EDB checkpoint version 2"):
            ExternalStore.load(str(path))

    def test_version_3_checkpoint_refused(self, tmp_path):
        # Version 3 had no Datalog rulebase: a store reopened from it
        # would answer recursive goals differently from the live one.
        path = tmp_path / "v3.edb"
        payload = pickle.dumps(ExternalStore(), protocol=4)
        header = _CKPT_HEADER.pack(CHECKPOINT_MAGIC, 3, 0, len(payload),
                                   zlib.crc32(payload))
        path.write_bytes(header + payload)
        with pytest.raises(CatalogError,
                           match="unsupported EDB checkpoint version 3"):
            ExternalStore.load(str(path))

    def test_truncated_payload(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        seeded_store(path, ctx)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:len(data) - 40])
        with pytest.raises(CatalogError, match="truncated"):
            ExternalStore.load(path)

    def test_payload_crc_mismatch(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        seeded_store(path, ctx)
        with open(path, "r+b") as f:
            f.seek(_CKPT_HEADER.size + 11)
            byte = f.read(1)
            f.seek(_CKPT_HEADER.size + 11)
            f.write(bytes([byte[0] ^ 0x20]))
        with pytest.raises(CatalogError, match="checksum mismatch"):
            ExternalStore.load(path)

    def test_error_names_the_path(self, tmp_path):
        path = tmp_path / "named.edb"
        path.write_bytes(b"garbage here")
        with pytest.raises(CatalogError, match="named.edb"):
            ExternalStore.load(str(path))


# ----------------------------------------------------------- crash recovery


@pytest.mark.fault_injection
class TestCrashRecovery:
    """The crash matrix: die at every durability instant, reopen, and
    check the database is the last committed state (or the log replayed
    onto it) — never silently wrong."""

    def test_fresh_create_reports_created(self, tmp_path):
        store = ExternalStore.open(str(tmp_path / "new.edb"))
        assert store.recovery.created and store.recovery.clean
        assert isinstance(store.pager.disk, FileDiskStore)
        assert os.path.exists(str(tmp_path / "new.edb"))

    def test_open_missing_without_create_raises(self, tmp_path):
        with pytest.raises(CatalogError):
            ExternalStore.open(str(tmp_path / "nope.edb"), create=False)

    def test_committed_op_survives_crash(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)
        del store                            # crash: no checkpoint

        reopened = ExternalStore.open(path, create=False)
        assert (9, 9) in [r[:2] for r in edge_rows(reopened)]
        assert reopened.recovery.ops_replayed == {"assert_fact": 1}

    @pytest.mark.parametrize("crash_point,rows_after,expect_torn", [
        # dies before the record is logged: the op never happened
        ("wal.append.before", 2, False),
        # dies mid-frame: torn tail truncated, op never happened
        ("wal.append.mid", 2, True),
        # dies after fsync: the op is committed and replays
        ("wal.append.synced", 3, False),
    ])
    def test_crash_during_wal_append(self, tmp_path, ctx, crash_point,
                                     rows_after, expect_torn):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        arm(store, FaultInjector().arm_crash_point(crash_point))
        with pytest.raises(InjectedCrash):
            store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)

        reopened = ExternalStore.open(path, create=False)
        assert len(edge_rows(reopened)) == rows_after
        assert reopened.recovery.wal_torn_tail is expect_torn
        assert not reopened.recovery.errors

    @pytest.mark.parametrize("crash_point", [
        "pages.append.before",        # during pages-file compaction
        "checkpoint.write.mid",       # mid checkpoint temp-file write
        "checkpoint.pre_rename",      # temp file complete, not yet live
        "checkpoint.post_rename",     # new checkpoint live, WAL not reset
    ])
    def test_crash_during_checkpoint(self, tmp_path, ctx, crash_point):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)
        arm(store, FaultInjector().arm_crash_point(crash_point))
        with pytest.raises(InjectedCrash):
            store.save(path)

        reopened = ExternalStore.open(path, create=False)
        # Whichever instant the crash hit, the committed state — three
        # edge rows — is restored: either the old checkpoint plus a WAL
        # replay, or the new checkpoint with its stale records fenced.
        assert len(edge_rows(reopened)) == 3
        report = reopened.recovery
        if crash_point == "checkpoint.post_rename":
            # the new checkpoint already contains the row: replaying the
            # old record would double-apply, so era fencing skips it
            assert report.wal_records_stale == 1
            assert report.wal_records_replayed == 0
        else:
            assert report.wal_records_replayed == 1
        assert not report.errors

    def test_failed_checkpoint_write_keeps_old_checkpoint(self, tmp_path,
                                                          ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)
        # the checkpoint temp-file write itself fails (disc full) —
        # after the page flush and compaction writes already succeeded
        arm(store, FaultInjector().arm_io_error_point("checkpoint.write.mid"))
        with pytest.raises(InjectedIOError):
            store.save(path)
        assert store.faults.fired == ["io_error@checkpoint.write.mid"]

        # the era bump was not committed, so the surviving session keeps
        # logging under the era of the checkpoint actually on disc and
        # acknowledged writes stay replayable
        assert store.wal_era == 2
        store.assert_clause("edge", 2, read_term("edge(8,8)"), ctx)

        reopened = ExternalStore.open(path, create=False)
        assert len(edge_rows(reopened)) == 4
        assert reopened.recovery.wal_records_replayed == 2
        assert not reopened.recovery.errors

    def test_replay_restores_the_live_mutation_epoch(self, tmp_path, ctx):
        """Regression: replay never advanced ``mutation_epoch``, so a
        reopened store went back to the checkpoint's epoch, post-restart
        records reused epoch numbers and replica lag under-reported."""
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        checkpointed = store.mutation_epoch
        for k in range(5):
            store.assert_clause("edge", 2, read_term(f"edge({k},{k})"), ctx)
        store.retract_clause("path", 2, 1)
        live = store.mutation_epoch
        assert live == checkpointed + 6
        del store                            # abandoned, no checkpoint

        reopened = ExternalStore.open(path, create=False)
        assert reopened.recovery.wal_records_replayed == 6
        assert reopened.mutation_epoch == live
        reopened.assert_clause("edge", 2, read_term("edge(7,7)"), ctx)
        assert reopened.mutation_epoch == live + 1   # no epoch reused

    def test_future_era_wal_record_is_an_error_not_stale(self, tmp_path,
                                                         ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        # simulate checkpoint/log divergence: a record tagged with an
        # era ahead of the on-disc checkpoint must be reported loudly,
        # never silently dropped as "stale"
        store.wal_era += 1
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)

        reopened = ExternalStore.open(path, create=False)
        report = reopened.recovery
        assert any("ahead of checkpoint era" in e for e in report.errors)
        assert report.wal_records_stale == 0
        assert report.wal_records_replayed == 0

    def test_failed_wal_append_poisons_store_until_checkpoint(
            self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.wal.faults = FaultInjector().arm_fail_write(1)
        with pytest.raises(InjectedIOError):
            store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)

        # the mutation is in memory but has no durable redo record:
        # further updates are refused so nothing is ever logged on top
        # of unlogged state
        with pytest.raises(WalError, match="read-only"):
            store.assert_clause("edge", 2, read_term("edge(8,8)"), ctx)
        with pytest.raises(WalError, match="read-only"):
            store.retract_clause("path", 2, 0)
        with pytest.raises(WalError, match="read-only"):
            store.store_facts("other", 1, [(1,)], types=("int",))

        # a fresh checkpoint captures the full in-memory state (the
        # unlogged row included) and lifts the embargo
        store.save(path)
        store.assert_clause("edge", 2, read_term("edge(7,7)"), ctx)

        reopened = ExternalStore.open(path, create=False)
        rows = [r[:2] for r in edge_rows(reopened)]
        assert (9, 9) in rows and (7, 7) in rows
        assert len(rows) == 4
        assert not reopened.recovery.errors

    def test_materialise_and_drop_replay_from_wal(self, tmp_path, ctx):
        # The relational operators' mutations (db_select materialising
        # an output relation, db_drop) are WAL-logged like any other
        # mutator; recovery must replay replace-and-drop faithfully.
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.materialise_facts("out", 2, [(1, "a")])
        store.materialise_facts("out", 2, [(2, "b"), (1, "a")])
        store.store_facts("tmp", 1, [(9,)], types=("int",))
        assert store.drop_procedure("tmp", 1) is True
        assert store.drop_procedure("tmp", 1) is False  # already gone

        reopened = ExternalStore.open(path, create=False)
        assert not reopened.recovery.errors
        assert sorted(reopened.fetch_facts("out", 2)) == [(1, "a"),
                                                          (2, "b")]
        assert reopened.lookup("tmp", 1) is None
        # the version floor replays with the drop: a re-created tmp/1
        # starts above every version the dropped one served under
        recreated = reopened.store_facts("tmp", 1, [(1,)], types=("int",))
        assert recreated.version >= 1

    def test_recovery_is_idempotent(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)
        del store
        for _ in range(3):                  # crash during every restart
            reopened = ExternalStore.open(path, create=False)
            assert len(edge_rows(reopened)) == 3
            assert reopened.recovery.wal_records_replayed == 1

    def test_save_resets_wal_and_clears_replay(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)
        reopened = ExternalStore.open(path, create=False)
        reopened.save(path)

        again = ExternalStore.open(path, create=False)
        assert again.recovery.wal_records_seen == 0
        assert len(edge_rows(again)) == 3

    def test_bitflipped_page_quarantined_at_recovery(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        disk = store.pager.disk
        victim = next(p for p in sorted(disk._index)
                      if disk._index[p] is not None)
        offset, frame_len = disk._index[victim]
        with open(disk.path, "r+b") as f:
            f.seek(offset + frame_len - 2)
            byte = f.read(1)
            f.seek(offset + frame_len - 2)
            f.write(bytes([byte[0] ^ 0x04]))

        reopened = ExternalStore.open(path, create=False)
        report = reopened.recovery
        assert report.pages_quarantined == [victim]
        assert not report.clean
        with pytest.raises(PageError):
            reopened.pager.disk.read(victim)

    def test_checkpoint_leaves_single_pages_epoch(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.save(path)
        store.save(path)
        sidecars = [n for n in os.listdir(tmp_path)
                    if ".pages." in n]
        assert len(sidecars) == 1
        assert sidecars[0].endswith(f"{store.pager.disk.epoch:08d}")


# ----------------------------------------------------------------- admission


#: the fields each op's applier reads; a record without one of them is
#: refused whole, before anything is applied
REQUIRED_FIELDS = {
    "facts": ("name", "arity", "rows", "types", "key_dims"),
    "rules": ("name", "arity", "clauses", "surface"),
    "assert_fact": ("name", "arity", "values"),
    "assert_rule": ("name", "arity", "clause", "surface"),
    "retract": ("name", "arity", "clause_id"),
    "source": ("name", "arity", "clauses"),
    "materialise": ("name", "arity", "rows", "types", "key_dims"),
    "drop": ("name", "arity"),
}


@pytest.fixture(scope="module")
def logged_records(tmp_path_factory):
    """One record of every op, in the order a primary logged them."""
    ctx = CompileContext(SegmentedDictionary(segment_capacity=1024))
    path = str(tmp_path_factory.mktemp("admit") / "db.edb")
    store = ExternalStore.open(path)
    store.store_facts("edge", 2, [(1, 2)], types=("int", "int"))
    store.store_rules("p", 1, read_terms("p(X) :- edge(X, _)."), ctx)
    store.assert_clause("edge", 2, read_term("edge(3, 4)."), ctx)
    store.assert_clause("p", 1, read_term("p(X) :- edge(_, X)."), ctx)
    store.retract_clause("p", 1, 0)
    store.store_source("q", 1, read_terms("q(1)."))
    store.materialise_facts("t", 1, [(1,)])
    store.drop_procedure("t", 1)
    store.wal.close()
    records = [pickle.loads(p)
               for p in WriteAheadLog(path + ".wal").scan_from(0)]
    assert [r["op"] for r in records] == list(REQUIRED_FIELDS)
    return records


def admitted_state(store):
    """Everything a redo record can change, in comparable form."""
    return {
        "epoch": store.mutation_epoch,
        "procedures": {p.key: (p.mode, p.version, p.nclauses)
                       for p in store.procedures()},
        "rows": {p.key: sorted(map(str, chain.from_iterable(p.relation.scan())))
                 for p in store.procedures()},
        "rulebase": {ind: [str(c) for c in clauses] for ind, clauses
                     in store.datalog_rules.clauses().items()},
        "bindable": {ind: sorted(pos)
                     for ind, pos in store.bindable.items()},
    }


class TestAdmission:
    @pytest.mark.parametrize("op,field", [
        (op, field) for op, fields in REQUIRED_FIELDS.items()
        for field in fields])
    def test_record_missing_a_field_is_refused_untouched(
            self, logged_records, op, field):
        store = ExternalStore()
        records = [dict(r, era=store.wal_era) for r in logged_records]
        at = [r["op"] for r in records].index(op)
        for record in records[:at]:
            assert store.admit(pickle.dumps(record)) == \
                ("applied", record["op"])
        before = admitted_state(store)
        broken = {k: v for k, v in records[at].items() if k != field}
        verdict, detail = store.admit(pickle.dumps(broken))
        assert verdict == "undecodable"
        assert field in detail
        assert admitted_state(store) == before
        # the whole record still applies afterwards
        assert store.admit(pickle.dumps(records[at])) == ("applied", op)


# ----------------------------------------------------------------- reporting


class TestRecoveryReport:
    def test_clean_report_formats(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        seeded_store(path, ctx)
        report = ExternalStore.open(path, create=False).recovery
        text = report.format()
        assert "clean" in text and path in text
        assert report.as_dict()["clean"] is True

    def test_findings_surface_in_format(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)
        wal_path = path + ".wal"
        with open(wal_path, "ab") as f:
            f.write(b"torn tail bytes")
        report = ExternalStore.open(path, create=False).recovery
        assert report.wal_torn_tail
        text = report.format()
        assert "torn tail truncated" in text
        assert "assert_fact=1" in text


# ------------------------------------------- crashes under concurrency


@pytest.mark.fault_injection
class TestCrashWithConcurrentReaders:
    """The crash matrix, with company: the fault fires while reader
    threads hold buffer page payloads (the §2.2 block-at-a-time
    contract mid-iteration) that eviction has long since taken from
    the pool.  What readers hold is volatile state — it must neither
    reach the checkpoint image nor affect what recovery rebuilds:
    reopen always yields the last committed state.  (The test names
    date from the buffer pins these payloads replaced.)"""

    @staticmethod
    def _holding_readers(store, hold):
        """Threads that each read one allocated page from an emptied
        pool and hold its payload until *hold* is set; returns once
        every one holds it."""
        import threading
        store.pager.flush()
        for pid in list(store.pager.buffer._frames):
            store.pager.buffer.discard(pid)
        pids = list(range(store.pager.disk.page_count))
        holding, held = threading.Semaphore(0), []

        def reader(pid):
            held.append(store.pager.get(pid))
            holding.release()
            hold.wait(10)       # released only after the crash

        threads = [threading.Thread(target=reader, args=(pid,))
                   for pid in pids]
        for t in threads:
            t.start()
        for _ in pids:
            assert holding.acquire(timeout=10)
        return threads

    @pytest.mark.parametrize("crash_point,rows_after", [
        ("wal.append.before", 2),   # op never logged: not committed
        ("wal.append.mid", 2),      # torn frame: truncated, not committed
        ("wal.append.synced", 3),   # synced: committed, must replay
    ])
    def test_crash_during_append_with_pinned_pages(self, tmp_path, ctx,
                                                   crash_point,
                                                   rows_after):
        import threading
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        # eviction pressure: the pool is far smaller than the page set,
        # so most held payloads are in no frame any more
        store.pager.buffer.capacity = 2

        hold = threading.Event()
        threads = self._holding_readers(store, hold)
        try:
            assert store.pager.io_counters()["buffer_resident"] <= 2
            arm(store, FaultInjector().arm_crash_point(crash_point))
            with pytest.raises(InjectedCrash):
                store.assert_clause("edge", 2, read_term("edge(9,9)"),
                                    ctx)
        finally:
            hold.set()
            for t in threads:
                t.join(10)

        reopened = ExternalStore.open(path, create=False)
        assert len(edge_rows(reopened)) == rows_after
        assert not reopened.recovery.errors

    @pytest.mark.parametrize("crash_point", [
        "checkpoint.write.mid",
        "checkpoint.pre_rename",
        "checkpoint.post_rename",
    ])
    def test_crash_during_checkpoint_with_pinned_pages(self, tmp_path,
                                                       ctx, crash_point):
        import threading
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(9,9)"), ctx)
        store.pager.buffer.capacity = 2

        hold = threading.Event()
        threads = self._holding_readers(store, hold)
        try:
            arm(store, FaultInjector().arm_crash_point(crash_point))
            with pytest.raises(InjectedCrash):
                store.save(path)
        finally:
            hold.set()
            for t in threads:
                t.join(10)

        reopened = ExternalStore.open(path, create=False)
        assert len(edge_rows(reopened)) == 3
        assert not reopened.recovery.errors


# ----------------------------------------------- incremental scan / tailing


class TestIncrementalScan:
    """`scan_from` (the shared recovery/replication cursor) and the
    live-tailer races it must survive (docs/REPLICATION.md)."""

    def test_recovery_report_carries_good_end(self, tmp_path, ctx):
        path = str(tmp_path / "db.edb")
        store = seeded_store(path, ctx)
        store.assert_clause("edge", 2, read_term("edge(5,5)"), ctx)
        expected_end = os.path.getsize(path + ".wal")
        reopened = ExternalStore.open(path, create=False)
        assert reopened.recovery.wal_good_end == expected_end
        assert "wal_good_end" in reopened.recovery.as_dict()

    def test_tailer_sees_only_committed_prefix_mid_append(self, tmp_path):
        """The torn-tail race from the replica's side: a short read of
        an in-flight frame is "wait and retry", and the retry ships the
        frame once the append lands — the owner's log is never cut."""
        from repro.replication import WalTailer
        faults = FaultInjector()
        wal = WriteAheadLog(str(tmp_path / "t.wal"), faults=faults)
        wal.append(b"committed")
        tailer = WalTailer(wal.path)
        status, records = tailer.poll()
        assert status == "ok" and records == [(0, b"committed")]
        faults.arm_torn_write(faults.writes_seen + 1, keep=0.5)
        with pytest.raises(InjectedCrash):
            wal.append(b"torn-in-flight")   # half the frame hits disc
        status, records = tailer.poll()
        assert status == "wait" and records == []
        size = os.path.getsize(wal.path)
        tailer.poll()                        # retries must not truncate
        assert os.path.getsize(wal.path) == size
        # the owner's own recovery truncates its crashed tail; the
        # tailer then resumes cleanly from its committed offset
        payloads, torn, good_end = scan(wal)
        assert torn and payloads == [b"committed"]
        wal.truncate_to(good_end)
        wal.next_lsn = 1
        wal.append(b"after-recovery")
        status, records = tailer.poll()
        assert status == "ok" and records == [(1, b"after-recovery")]

    def test_scan_from_resumes_after_committed_frames(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(b"first")
        mid = os.path.getsize(wal.path)
        wal.append(b"second")
        cursor = wal.scan_from(mid, expected_lsn=1)
        assert list(cursor) == [b"second"]
        assert cursor.status == "ok"


class TestRulebaseReplay:
    """Replayed ``rules`` records carry surface clauses: bottom-up
    evaluation survives a crash (docs/DATALOG.md, *Failure modes*)."""

    RULES = ("% lint: external link/2\n"
             "reach(X, Y) :- link(X, Y).\n"
             "reach(X, Z) :- link(X, Y), reach(Y, Z).")

    @pytest.mark.usefixtures("bottom_up")
    def test_replayed_rules_restore_bottom_up(self, tmp_path):
        from repro import EduceStar
        path = str(tmp_path / "db.edb")
        session = EduceStar(store=ExternalStore.open(path))
        session.store_relation("link", [(1, 2), (2, 3), (3, 4)])
        session.store_program(self.RULES)
        del session                          # crash: no checkpoint

        reopened = EduceStar.open(path)
        assert reopened.store.recovery.ops_replayed.get("rules") == 1
        assert ("reach", 2) in reopened.store.datalog_rules
        assert len(list(reopened.solve("reach(1, X)"))) == 3
        assert reopened.datalog.counters()["datalog_bottomup"] == 1

    @pytest.mark.usefixtures("bottom_up")
    def test_checkpointed_rules_stay_tracked(self, tmp_path):
        """The checkpoint truncates the log and carries the rulebase:
        programs stored before it still answer bottom-up."""
        from repro import EduceStar
        path = str(tmp_path / "db.edb")
        session = EduceStar(store=ExternalStore.open(path))
        session.store_relation("link", [(1, 2), (2, 3)])
        session.store_program(self.RULES)
        session.save(path)

        reopened = EduceStar.open(path)
        assert reopened.store.recovery.ops_replayed.get("rules") is None
        assert ("reach", 2) in reopened.store.datalog_rules
        assert len(list(reopened.solve("reach(1, X)"))) == 2
        assert reopened.datalog.counters()["datalog_bottomup"] == 1

    @pytest.mark.usefixtures("bottom_up")
    def test_replayed_retract_keeps_tracking(self, tmp_path):
        """A replayed retract removes its one clause; the procedure
        stays tracked and answers bottom-up from the clause left."""
        from repro import EduceStar
        path = str(tmp_path / "db.edb")
        session = EduceStar(store=ExternalStore.open(path))
        session.store_relation("link", [(1, 2), (2, 3)])
        session.store_program(self.RULES)
        session.store.retract_clause("reach", 2, 0)
        del session                          # crash: no checkpoint

        reopened = EduceStar.open(path)
        [clause] = reopened.store.datalog_rules.clauses()[("reach", 2)]
        assert clause.args[1].name == ","        # the recursive rule
        assert list(reopened.solve("reach(1, X)")) == []
        assert reopened.datalog.counters()["datalog_bottomup"] == 1
