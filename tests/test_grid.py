"""Tests for the BANG-style multidimensional partition index."""

import random
import struct
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.bang.grid import BangGrid
from repro.bang.pager import Pager
from repro.bang.relation import squash_number
from repro.engine.stats import measure


def make_grid(ndims=2, capacity=8, buffer_pages=64):
    return BangGrid(ndims, Pager(buffer_pages=buffer_pages),
                    bucket_capacity=capacity)


def leaf_sizes(g):
    sizes, stack = [], [g.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            sizes.append(node.count)
        else:
            stack.extend([node.left, node.right])
    return sizes


class TestInsertQuery:
    def test_single_insert_roundtrip(self):
        g = make_grid()
        g.insert((0.5, 0.5), "rec")
        assert list(chain.from_iterable(g.scan())) == ["rec"]

    def test_point_query(self):
        g = make_grid()
        g.insert((0.1, 0.2), "a")
        g.insert((0.3, 0.4), "b")
        box = ((0.1, 0.1), (0.2, 0.2))
        assert list(chain.from_iterable(g.query(box))) == ["a"]

    def test_range_query(self):
        g = make_grid(ndims=1)
        for i in range(20):
            g.insert((i / 20.0,), i)
        got = sorted(chain.from_iterable(g.query(((0.25, 0.5),))))
        assert got == [i for i in range(20) if 0.25 <= i / 20.0 <= 0.5]

    def test_wrong_arity_raises(self):
        g = make_grid(ndims=2)
        with pytest.raises(ValueError):
            g.insert((0.5,), "x")

    def test_needs_dimension(self):
        with pytest.raises(ValueError):
            BangGrid(0, Pager())


class TestSplitting:
    def test_splits_on_overflow(self):
        g = make_grid(ndims=2, capacity=4)
        rng = random.Random(1)
        for i in range(100):
            g.insert((rng.random(), rng.random()), i)
        assert g.leaf_count > 1
        assert g.splits == g.leaf_count - 1
        assert sorted(chain.from_iterable(g.scan())) == list(range(100))

    def test_duplicate_keys_allowed_oversized_bucket(self):
        g = make_grid(ndims=1, capacity=4)
        for i in range(20):
            g.insert((0.5,), i)
        assert sorted(chain.from_iterable(g.query(((0.5, 0.5),)))) == list(range(20))

    def test_median_split_balances_skew(self):
        g = make_grid(ndims=1, capacity=10)
        # heavily skewed keys near 0.9
        for i in range(200):
            g.insert((0.9 + i * 1e-6,), i)
        assert max(leaf_sizes(g)) <= 11  # capacity + in-flight insert


class TestDeletion:
    def test_delete_exact(self):
        g = make_grid()
        g.insert((0.5, 0.5), "a")
        g.insert((0.5, 0.5), "b")
        removed = g.delete((0.5, 0.5), lambda r: r == "a")
        assert removed == 1
        assert list(chain.from_iterable(g.scan())) == ["b"]
        assert g.size == 1

    def test_delete_no_match(self):
        g = make_grid()
        g.insert((0.5, 0.5), "a")
        assert g.delete((0.5, 0.5), lambda r: r == "zzz") == 0


class TestCompaction:
    def test_explicit_compact_merges_underfull_siblings(self):
        import random
        rng = random.Random(4)
        pager = Pager(buffer_pages=64)
        g = BangGrid(1, pager, bucket_capacity=8)
        keys = [(rng.random(),) for _ in range(200)]
        for i, key in enumerate(keys):
            g.insert(key, i)
        leaves_full = g.leaf_count
        # delete most entries
        survivors = {}
        for i, key in enumerate(keys):
            if i % 10 == 0:
                survivors[i] = key
            else:
                g.delete(key, lambda r, i=i: r == i)
        g.compact()
        assert g.leaf_count < leaves_full
        assert g.merges > 0
        assert sorted(chain.from_iterable(g.scan())) == sorted(survivors)
        for i, key in survivors.items():
            assert i in list(chain.from_iterable(g.query(((key[0], key[0]),))))

    def test_compact_frees_disc_pages(self):
        pager = Pager(buffer_pages=64)
        g = BangGrid(1, pager, bucket_capacity=4)
        for i in range(60):
            g.insert((i / 60.0,), i)
        pages_before = pager.disk.page_count
        for i in range(60):
            g.delete((i / 60.0,), lambda r, i=i: r == i)
        g.compact()
        assert pager.disk.page_count < pages_before
        assert g.size == 0

    def test_auto_compact_triggered_by_delete_volume(self):
        pager = Pager(buffer_pages=64)
        g = BangGrid(1, pager, bucket_capacity=4)
        g.compact_every = 50
        for i in range(120):
            g.insert((i / 120.0,), i)
        for i in range(110):
            g.delete((i / 120.0,), lambda r, i=i: r == i)
        assert g.merges > 0  # compaction ran without an explicit call

    def test_compact_noop_on_full_tree(self):
        pager = Pager(buffer_pages=64)
        g = BangGrid(1, pager, bucket_capacity=4)
        for i in range(40):
            g.insert((i / 40.0,), i)
        assert g.compact() == 0
        assert sorted(chain.from_iterable(g.scan())) == list(range(40))

    @staticmethod
    def _splice_low_slab(ndims, seed):
        """A grid whose keys with x < 0.3 were all deleted and compacted
        away, so the empty leaves there were spliced out."""
        rng = random.Random(seed)
        g = make_grid(ndims=ndims, capacity=4)
        keys = [tuple(rng.random() for _ in range(ndims)) for _ in range(40)]
        for i, key in enumerate(keys):
            g.insert(key, i)
        for i, key in enumerate(keys):
            if key[0] < 0.3:
                g.delete(key, lambda r, i=i: r == i)
        g.compact()
        return g, rng

    def test_keys_inserted_into_a_spliced_region_are_found(self):
        g, rng = self._splice_low_slab(2, seed=1)
        fresh = [(rng.random() * 0.3, rng.random()) for _ in range(20)]
        for j, key in enumerate(fresh):
            g.insert(key, 100 + j)
        for j, (x, y) in enumerate(fresh):
            box = ((x, x), (y, y))
            assert 100 + j in list(chain.from_iterable(g.query(box)))
            assert g.leaves_for(box) >= 1

    def test_spliced_subtree_keeps_splitting(self):
        """The adopted subtree's regions widen with it, so leaves that
        now receive the empty side's keys still split at capacity."""
        g, rng = self._splice_low_slab(1, seed=2)
        for j in range(400):
            g.insert((rng.random() * 0.3,), 100 + j)
        assert max(leaf_sizes(g)) <= 4
        assert len(list(chain.from_iterable(g.scan()))) == g.size


class TestPartialMatch:
    def test_partial_match_visits_fewer_leaves(self):
        g = make_grid(ndims=2, capacity=4)
        rng = random.Random(7)
        for i in range(300):
            g.insert((rng.random(), rng.random()), i)
        total = g.leaf_count
        partial = g.leaves_for(((0.25, 0.25), (0.0, 1.0)))
        point = g.leaves_for(((0.25, 0.25), (0.75, 0.75)))
        assert point <= partial <= total
        assert partial < total

    def test_io_accounting_per_leaf_visit(self):
        pager = Pager(buffer_pages=2)
        g = BangGrid(1, pager, bucket_capacity=4)
        for i in range(50):
            g.insert((i / 50.0,), i)
        with measure(pager) as run:
            list(chain.from_iterable(g.query(((0.0, 1.0),))))
        touched = run["buffer_hits"] + run["buffer_misses"]
        assert touched == g.leaf_count


class TestStats:
    def test_stats_keys(self):
        g = make_grid()
        g.insert((0.5, 0.5), 1)
        s = g.stats()
        assert s["size"] == 1 and s["leaves"] == 1


_coord = st.floats(min_value=0.0, max_value=0.999)
_key = st.tuples(_coord, _coord)
_interval = st.tuples(_coord, _coord).map(lambda t: tuple(sorted(t)))
_axis = st.one_of(st.just((0.0, 1.0)), _coord.map(lambda v: (v, v)),
                  _interval)


@settings(max_examples=40, deadline=None)
@given(st.lists(_key, max_size=30), st.integers(0, 2**32 - 1), _interval,
       st.lists(st.tuples(_axis, _axis), max_size=6))
def test_property_grid_equals_brute_force(drawn, seed, slab, boxes):
    """Every box query returns exactly the brute-force answer — also
    after deletes have compacted (and spliced) the tree and more keys
    went in — and reads exactly the pages ``leaves_for`` predicts.

    Drawn keys bring edge values and duplicates; seeded uniform keys
    make the tree deep enough for deletes to splice out empty leaves."""
    rng = random.Random(seed)
    uniform = [(rng.random(), rng.random()) for _ in range(200)]
    points, later = drawn + uniform[:120], uniform[120:]
    g = make_grid(ndims=2, capacity=4)
    g.compact_every = 8
    model = {}

    def insert(i, key):
        g.insert(key, i)
        model[i] = key

    for i, key in enumerate(points):
        insert(i, key)
    arrivals = iter(enumerate(later, start=len(points)))
    for i, key in enumerate(points):
        if slab[0] <= key[0] < slab[1]:
            assert g.delete(key, lambda r, i=i: r == i) == 1
            del model[i]
            arrival = next(arrivals, None)   # one arrival per delete
            if arrival is not None:
                insert(*arrival)
    for j, fresh in arrivals:
        insert(j, fresh)
    boxes = boxes + [
        ((0.0, 1.0), (0.0, 1.0)),
        ((0.2, 0.7), (0.0, 1.0)),
        ((0.0, 0.5), (0.5, 1.0)),
    ] + [((x, x), (y, y)) for x, y in model.values()]
    for box in boxes:
        before = g.pager.io_counters()
        got = sorted(chain.from_iterable(g.query(box)))
        after = g.pager.io_counters()
        want = sorted(
            i for i, (x, y) in model.items()
            if box[0][0] <= x <= box[0][1]
            and box[1][0] <= y <= box[1][1])
        assert got == want
        reads = sum(after[c] - before[c]
                    for c in ("buffer_hits", "buffer_misses"))
        assert g.leaves_for(box) == reads


# Keys the packed layout must carry bit for bit: a signed zero and the
# squashed numbers past ±2**128, which fall outside [0, 1).
_edge = st.sampled_from([-0.0, 0.0, squash_number(2.0 ** 200),
                         squash_number(-2.0 ** 200),
                         squash_number(2.0 ** 129)])
_wide = st.one_of(_coord, _edge)
_wide_axis = st.one_of(st.just((0.0, 1.0)), _wide.map(lambda v: (v, v)),
                       st.tuples(_wide, _wide).map(lambda t: tuple(sorted(t))))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_wide, _wide), min_size=1, max_size=60),
       st.lists(st.tuples(_wide_axis, _wide_axis), max_size=6))
def test_property_packed_keys_round_trip_exactly(keys, boxes):
    """Leaf pages pack keys as little-endian float64: what a page holds
    unpacks to the very bits inserted, and box queries over signed
    zeros and out-of-range keys agree with brute force."""
    g = make_grid(ndims=2, capacity=4)
    for i, key in enumerate(keys):
        g.insert(key, i)
    stored, stack = {}, [g.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            stack += (node.left, node.right)
            continue
        for key, record in g._entries(*g._leaf(node.page_id)):
            stored[record] = struct.pack("<2d", *key)
    assert stored == {i: struct.pack("<2d", *key)
                      for i, key in enumerate(keys)}
    boxes = boxes + [((x, x), (y, y)) for x, y in keys]
    for box in boxes:
        want = sorted(i for i, (x, y) in enumerate(keys)
                      if (box[0] == (0.0, 1.0) or box[0][0] <= x <= box[0][1])
                      and (box[1] == (0.0, 1.0)
                           or box[1][0] <= y <= box[1][1]))
        assert sorted(chain.from_iterable(g.query(box))) == want
