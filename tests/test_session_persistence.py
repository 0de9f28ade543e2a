"""Tests for the session-level persistence API and the listing/consult
conveniences."""

import pytest

from repro.engine.session import EduceStar


class TestSessionSaveOpen:
    def test_save_open_roundtrip(self, tmp_path):
        path = str(tmp_path / "session.edb")
        a = EduceStar()
        a.store_relation("fact", [(1,), (2,)])
        a.store_program("doubled(Y) :- fact(X), Y is 2 * X.")
        a.save(path)

        b = EduceStar.open(path)
        assert sorted(s["Y"] for s in b.solve("doubled(Y)")) == [2, 4]

    def test_open_kwargs_forwarded(self, tmp_path):
        path = str(tmp_path / "session.edb")
        EduceStar().save(path)
        b = EduceStar.open(path, datalog="off", preunify_depth="none")
        assert b.datalog.mode == "off"
        assert b.preunifier.depth == "none"

    def test_saved_session_keeps_type_independence(self, tmp_path):
        # type declarations are per-session (machine-level), not stored;
        # the EDB data itself reopens fine
        path = str(tmp_path / "typed.edb")
        a = EduceStar()
        a.consult(":- pred t(int).")
        a.store_relation("t", [(1,)])
        a.save(path)
        b = EduceStar.open(path)
        assert b.solve_once("t(1)") is not None


class TestDurableSession:
    """Session persistence through the file-backed (FileDiskStore)
    storage path: WAL replay on reopen, corruption quarantine."""

    def test_create_save_open_roundtrip(self, tmp_path):
        path = str(tmp_path / "durable.edb")
        a = EduceStar.create(path)
        a.store_relation("fact", [(1,), (2,)])
        a.store_program("doubled(Y) :- fact(X), Y is 2 * X.")
        a.save(path)

        b = EduceStar.open(path)
        assert b.store.recovery is not None
        assert b.store.recovery.clean
        assert sorted(s["Y"] for s in b.solve("doubled(Y)")) == [2, 4]

    def test_pages_file_state_needs_no_in_memory_page_table(self, tmp_path):
        """A file-backed disc keeps its pages in the sidecar, found
        through ``_index``; the in-memory ``_pages`` table it inherits
        is dead weight in its pickled state — checkpoints load the same
        with it (as every checkpoint so far carries it) or without."""
        from repro.bang.pager import FileDiskStore
        path = str(tmp_path / "durable.edb")
        a = EduceStar.create(path)
        a.store_relation("fact", [(i,) for i in range(50)])
        a.save(path)
        disk = a.store.pager.disk
        state = disk.__getstate__()
        assert state["_pages"] == {}
        for variant in (state, {k: v for k, v in state.items()
                                if k != "_pages"}):
            clone = FileDiskStore.__new__(FileDiskStore)
            clone.__setstate__(dict(variant))
            clone.reattach(disk.path)
            assert clone.page_count == disk.page_count > 0
            assert clone.verify_all() == []

    def test_checkpoint_carries_no_buffer_frames(self, tmp_path):
        """The pages are in the sidecar by the time the image is
        pickled: a reopened store starts with an empty buffer pool, and
        a warm buffer does not make the checkpoint any larger."""
        import os
        path = str(tmp_path / "durable.edb")
        a = EduceStar.create(path)
        a.store_relation("fact", [(i, f"v{i}") for i in range(2000)])
        a.save(path)
        b = EduceStar.open(path)
        assert len(b.store.pager.buffer._frames) == 0
        b.save(str(tmp_path / "cold.edb"))
        assert b.count_solutions("fact(_, _)") == 2000
        assert len(b.store.pager.buffer._frames) > 0
        b.save(str(tmp_path / "warm.edb"))
        cold, warm = (os.path.getsize(str(tmp_path / name))
                      for name in ("cold.edb", "warm.edb"))
        # only counters (hits, misses, ...) may differ in width
        assert abs(warm - cold) < 256, (cold, warm)

    def test_unsaved_mutations_replay_from_wal(self, tmp_path):
        path = str(tmp_path / "durable.edb")
        a = EduceStar.create(path)
        a.store_program("color(red).")
        a.save(path)
        a.assert_external("color(green)")   # logged, never checkpointed

        b = EduceStar.open(path)
        assert b.store.recovery.wal_records_replayed == 1
        assert sorted(str(s["X"]) for s in b.solve("color(X)")) \
            == ["green", "red"]

    def test_corrupt_page_quarantined_rest_queryable(self, tmp_path):
        path = str(tmp_path / "durable.edb")
        a = EduceStar.create(path)
        a.store_relation("victim", [(i, i + 1) for i in range(50)])
        a.store_relation("survivor", [(i,) for i in range(20)])
        a.save(path)

        # flip one payload byte of one written page record on disc
        disk = a.store.pager.disk
        victim_pid = next(p for p in sorted(disk._index)
                          if disk._index[p] is not None)
        offset, frame_len = disk._index[victim_pid]
        with open(disk.path, "r+b") as f:
            f.seek(offset + frame_len - 1)   # last payload byte
            byte = f.read(1)
            f.seek(offset + frame_len - 1)
            f.write(bytes([byte[0] ^ 0x01]))

        b = EduceStar.open(path)
        report = b.store.recovery
        assert report.pages_quarantined == [victim_pid]
        assert not report.clean
        assert "QUARANTINED" in report.format()
        # the undamaged procedure answers queries as before
        assert sum(1 for _ in b.solve("survivor(X)")) == 20


class TestListing:
    def test_listing_dynamic_clauses(self, machine):
        machine.solve_once("assertz(p(1)), assertz((q(X) :- p(X)))")
        machine.output.clear()
        assert machine.solve_once("listing(p/1)") is not None
        text = "".join(machine.output)
        assert "p(1)." in text

    def test_listing_by_bare_name_covers_all_arities(self, machine):
        machine.solve_once("assertz(r(1)), assertz(r(1, 2))")
        machine.output.clear()
        machine.solve_once("listing(r)")
        text = "".join(machine.output)
        assert "r(1)." in text and "r(1,2)." in text

    def test_listing_static_shows_disassembly(self, machine):
        machine.consult("s(a).")
        machine.output.clear()
        machine.solve_once("listing(s/1)")
        text = "".join(machine.output)
        assert "s(a)." in text  # static procs keep their clauses too

    def test_listing_unknown_fails(self, machine):
        assert machine.solve_once("listing(zzz/9)") is None


class TestConsultFile:
    def test_consult_file(self, machine, tmp_path):
        src = tmp_path / "prog.pl"
        src.write_text("fact_from_file(ok).\n", encoding="utf-8")
        machine.consult_file(str(src))
        assert str(machine.solve_once("fact_from_file(X)")["X"]) == "ok"

    def test_consult_missing_file_raises(self, machine):
        with pytest.raises(OSError):
            machine.consult_file("/nonexistent/path.pl")
