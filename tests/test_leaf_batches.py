"""A page miss decodes only the leaves whose keys pass, and a leaf, not a
row, crosses each layer above the grid (docs/DURABILITY.md, the leaf
image; docs/CONCURRENCY.md, the buffer manager).

* the records block of a leaf is decoded only when a key passes the
  box test (or the box is full), once per buffer residency;
* the decoded block is memoised in the frame, and a ``put`` that lands
  in between wins;
* a damaged records block is a typed, quarantining error on first read
  and from the recovery sweep;
* reads yield one list per leaf, an open cursor reads on after its leaf
  is evicted, and reads count exactly the rows they counted row by row.
"""

import pickle
import struct

import pytest

from repro import EduceStar
from repro.bang.grid import BangGrid
from repro.bang.pager import _LEAF, DiskStore, Pager
from repro.edb.store import (CHECKPOINT_MAGIC, _CKPT_HEADER,
                             ExternalStore)
from repro.errors import CatalogError, PageError
from repro.lang.writer import term_to_text
from repro.relational.algebra import describe, execute
from repro.workloads.wisconsin import (WisconsinDB, plan_tuple_ops,
                                       query_classes)

N = 400


def _cold_grid(buffer_pages=256):
    """A 2-d grid of N records over many leaves, every page on disc and
    none in the buffer: the next read of each leaf is a miss."""
    grid = BangGrid(2, Pager(buffer_pages=buffer_pages), bucket_capacity=8)
    for i in range(N):
        grid.insert((i / N, (i * 7 % N) / N), i)
    grid.pager.flush()
    for pid in list(grid.pager.buffer._frames):
        grid.pager.buffer.discard(pid)
    return grid


def _count_decodes(monkeypatch, disk, also=None):
    decoded = []
    plain = disk.decode

    def decode(page_id, block):
        decoded.append(page_id)
        if also is not None:
            also(page_id)
        return plain(page_id, block)

    monkeypatch.setattr(disk, "decode", decode)
    return decoded


def _key(i):
    return (i / N, (i * 7 % N) / N)


def _point(i):
    return ((i / N, i / N), (0.0, 1.0))


class TestLazyDecode:
    def test_point_probe_decodes_only_leaves_with_a_passing_key(
            self, monkeypatch):
        grid = _cold_grid()
        decoded = _count_decodes(monkeypatch, grid.pager.disk)
        misses = grid.pager.io_counters()["buffer_misses"]
        assert list(grid.query(_point(123))) == [[123]]
        read = grid.pager.io_counters()["buffer_misses"] - misses
        assert grid.leaves_for(_point(123)) == read > 1
        assert len(decoded) == 1
        # a box no key passes decodes nothing at all
        assert list(grid.query(((0.5001, 0.5002), (0.0, 1.0)))) == []
        assert len(decoded) == 1

    def test_a_hit_after_a_decoded_miss_does_not_decode_again(
            self, monkeypatch):
        grid = _cold_grid()
        decoded = _count_decodes(monkeypatch, grid.pager.disk)
        first = [sorted(batch) for batch in grid.scan()]
        assert len(decoded) == grid.leaf_count
        counters = grid.pager.io_counters()
        assert [sorted(batch) for batch in grid.scan()] == first
        assert len(decoded) == grid.leaf_count      # every read a hit
        after = grid.pager.io_counters()
        assert after["buffer_misses"] == counters["buffer_misses"]
        assert after["buffer_hits"] > counters["buffer_hits"]
        # the memo is the same page: nothing to write back
        assert not grid.pager.buffer._dirty
        assert list(grid.query(_point(7))) == [[7]]
        assert len(decoded) == grid.leaf_count

    def test_a_put_between_decode_and_memo_is_not_overwritten(
            self, monkeypatch):
        grid = _cold_grid()
        pager = grid.pager
        newer = {}

        def racing_put(page_id):
            # a writer empties the leaf while the reader decodes it
            newer[page_id] = (b"", [])
            pager.put(page_id, newer[page_id])

        _count_decodes(monkeypatch, pager.disk, also=racing_put)
        assert list(grid.query(_point(123))) == [[123]]
        (page_id, payload), = newer.items()
        assert pager.buffer._frames[page_id] is payload
        assert page_id in pager.buffer._dirty


@pytest.mark.fault_injection
class TestDamagedRecordsBlock:
    def _damaged(self, block):
        grid = _cold_grid()
        disk = grid.pager.disk
        leaf = grid._descend(grid.root, _key(123))
        keys = grid._page(leaf.page_id, disk.read(leaf.page_id))[0]
        disk._pages[leaf.page_id] = (_LEAF.pack(len(keys), len(block))
                                     + keys + block)
        return grid, leaf.page_id

    @pytest.mark.parametrize("block", [
        b"\x80\x04 not a pickle",
        pickle.dumps({"not": "a list"}, protocol=4),
        pickle.dumps(["one record for many keys"], protocol=4),
    ], ids=["undecodable", "not-a-list", "mis-sized"])
    def test_first_read_is_typed_and_quarantines(self, block):
        grid, page_id = self._damaged(block)
        disk = grid.pager.disk
        with pytest.raises(PageError, match=f"page {page_id}"):
            list(grid.query(_point(123)))
        assert page_id in disk.quarantined
        assert disk.io_counters()["page_corruptions"] == 1
        assert page_id not in grid.pager.buffer._frames
        with pytest.raises(PageError, match="quarantined"):
            list(grid.scan())

    def test_verify_all_decodes_every_records_block(self):
        grid, page_id = self._damaged(b"\x80\x04 not a pickle")
        disk = grid.pager.disk
        # a box that reaches the damaged leaf but passes none of its
        # keys never decodes it ...
        x = _key(123)[0] + 1e-9
        box = ((x, x), (0.0, 1.0))
        assert page_id in [leaf.page_id for leaf in grid._leaves((box,))]
        assert list(grid.query(box)) == []
        assert page_id not in disk.quarantined
        # ... the recovery sweep does, without counting reads
        reads = disk.reads
        assert disk.verify_all() == [page_id]
        assert page_id in disk.quarantined
        assert disk.reads == reads

    def test_mis_sized_image_is_refused_by_the_pager(self):
        disk = DiskStore()
        pid = disk.allocate()
        disk.write(pid, (struct.pack("<d", 0.5), ["a"]))
        disk._pages[pid] = disk._pages[pid] + b"trailing"
        with pytest.raises(PageError, match="not a leaf image"):
            disk.read(pid)
        assert disk.verify_all() == [pid]


def test_parent_format_checkpoint_is_refused(tmp_path):
    """Version 4 checkpoints held leaf images as one pickle of the
    ``(keys, records)`` pair; this build reads the two-block image."""
    path = str(tmp_path / "kb.edb")
    store = ExternalStore()
    store.store_facts("p", 1, [(1,), (2,)])
    store.save(path)
    with open(path, "rb") as f:
        blob = f.read()
    magic, _version, flags, length, crc = _CKPT_HEADER.unpack(
        blob[:_CKPT_HEADER.size])
    with open(path, "wb") as f:
        f.write(_CKPT_HEADER.pack(magic, 4, flags, length, crc)
                + blob[_CKPT_HEADER.size:])
    assert magic == CHECKPOINT_MAGIC
    with pytest.raises(CatalogError, match="version 4"):
        ExternalStore.load(path)


# ------------------------------------------------------------ leaf batches

def _store_p(rows=3000, buffer_pages=64):
    kb = EduceStar(store=ExternalStore(pager=Pager(
        buffer_pages=buffer_pages)))
    kb.store_relation("p", [(i, i % 17) for i in range(rows)])
    return kb


def _evict_all(kb):
    """Write back and drop every frame: the next read of any leaf is a
    miss."""
    pager = kb.store.pager
    pager.flush()
    for pid in list(pager.buffer._frames):
        pager.buffer.discard(pid)


class TestOpenCursors:
    """A cursor holds its leaf's rows, not its leaf's frame, so it reads
    on from a one-frame pool that evicted that leaf long ago."""

    def test_a_cursor_whose_leaf_was_evicted_returns_the_rest(self):
        kb = _store_p(rows=300, buffer_pages=1)
        kb.consult("walk(D, [T|Ts]) :- next_tuple(D, T), !, walk(D, Ts).\n"
                   "walk(_, []).")
        opened = kb.solve_once("open_rel(D, p/2), first_tuple(D, T)")
        assert opened is not None and kb.store.relation_of(
            "p", 2).grid.leaf_count > 1
        _evict_all(kb)
        assert kb.store.pager.io_counters()["buffer_resident"] == 0
        rest = kb.solve_once(f"walk({term_to_text(opened['D'])}, Ts), "
                             "length(Ts, N)")
        assert rest is not None and rest["N"] + 1 == 300

    def test_a_keyed_cursor_walks_every_match_across_leaves(self):
        kb = _store_p(buffer_pages=1)
        kb.consult("walk(D, [T|Ts]) :- next_tuple(D, T), !, walk(D, Ts).\n"
                   "walk(_, []).")
        answer = kb.solve_once("open_rel(D, p/2), set_key(D, row(_, 5)), "
                               "first_tuple(D, T), walk(D, Ts), "
                               "\\+ more(D), close_rel(D), length(Ts, N)")
        assert answer is not None
        assert answer["N"] + 1 == len([i for i in range(3000)
                                       if i % 17 == 5])
        assert kb.store.pager.io_counters()["buffer_resident"] <= 1

    def test_rel_tuple_resumes_after_its_leaf_was_evicted(self):
        kb = _store_p(rows=300, buffer_pages=1)
        answers = kb.solve("rel_tuple(p/2, T)")
        seen = [str(next(answers)["T"])]
        _evict_all(kb)
        seen += [str(answer["T"]) for answer in answers]
        assert len(seen) == len(set(seen)) == 300


#: (query, variant) → (rows, plan shape with per-node rows_out,
#: plan_tuple_ops, page reads, buffer hits) at scale 0.1 over a 16-page
#: buffer, each plan drained in turn — the figures the row-at-a-time
#: executor produced.
WISCONSIN_PLANS = {
    (1, "grid-range"): (10, "RangeSelect#10($p$tenk1/16)", 10, 2, 0),
    (1, "scan-filter"): (
        10, "Filter#10(Scan#1000($p$tenk1/16))", 1010, 31, 0),
    (2, "grid-range"): (100, "RangeSelect#100($p$tenk1/16)", 100, 0, 5),
    (2, "scan-filter"): (
        100, "Filter#100(Scan#1000($p$tenk1/16))", 1100, 31, 0),
    (3, "grid-point"): (1, "Select#1($p$tenk1/16)", 1, 18, 0),
    (3, "grid-range"): (1, "RangeSelect#1($p$tenk1/16)", 1, 18, 0),
    (3, "planner"): (1, "Select#1($p$tenk1/16)", 1, 18, 0),
    (4, "hash-join"): (
        100, "HashJoin#100(RangeSelect#100($p$tenk2/16), "
        "Scan#1000($p$tenk1/16))", 1200, 36, 0),
    (4, "index-join"): (
        100, "IndexJoin#100(RangeSelect#100($p$tenk2/16), $p$tenk1/16)",
        200, 5, 233),
    (5, "hash-join"): (
        100, "HashJoin#100(Filter#100(HashJoin#100(RangeSelect#100("
        "$p$tenk1/16), RangeSelect#100($p$tenk2/16))), "
        "Scan#100($p$onek/16))", 600, 3, 10),
    (5, "index-join"): (
        100, "IndexJoin#100(Filter#100(IndexJoin#100(RangeSelect#100("
        "$p$tenk1/16), $p$tenk2/16)), $p$onek/16)", 400, 0, 390),
}


def test_wisconsin_plans_count_what_the_row_executor_counted():
    session = EduceStar(store=ExternalStore(pager=Pager(buffer_pages=16)))
    db = WisconsinDB.build(session, seed=1, scale=0.1)
    got = {}
    for qc in query_classes():
        for variant in qc.variants:
            plan = variant.build(db)
            before = session.io_counters()
            rows = execute(plan)
            after = session.io_counters()
            got[(qc.number, variant.name)] = (
                len(rows), describe(plan), plan_tuple_ops(plan),
                after["reads"] - before["reads"],
                after["buffer_hits"] - before["buffer_hits"])
    assert got == WISCONSIN_PLANS


def test_batches_are_the_leaves_and_rows_flattens_them():
    session = EduceStar(store=ExternalStore(pager=Pager(buffer_pages=16)))
    db = WisconsinDB.build(session, seed=1, scale=0.1)
    build = {(qc.number, v.name): v.build
             for qc in query_classes() for v in qc.variants}
    plan = build[(2, "scan-filter")](db)
    batches = list(plan.batches())
    assert all(batches) and len(batches) < plan.rows_out
    assert plan.rows_out == sum(map(len, batches)) == 100
    again = build[(2, "scan-filter")](db)
    assert list(again.rows()) == [row for batch in batches for row in batch]
