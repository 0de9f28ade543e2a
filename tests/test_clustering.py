"""Facts relations built in one pass and clustered on what stored rules
can bind (docs/DURABILITY.md, "Key dims").

A facts relation stored without ``key_dims`` is keyed on the argument
positions some stored clause can bind, most distinct values first; a
stored program that widens them rebuilds the relation as part of its
``rules`` record.  Bulk loads write each leaf page once, by the split
rule inserts use: :meth:`BangGrid.insert_many` builds the tree of one
insert per record, :meth:`BangGrid.load` divides the rows at medians.
"""

import os
import random
import shutil
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro import EduceStar
from repro.bang.faults import FaultInjector, InjectedCrash
from repro.bang.grid import BangGrid
from repro.bang.pager import Pager
from repro.bang.relation import encode_value, squash_number
from repro.edb.store import ExternalStore
from repro.engine.stats import measure
from repro.errors import StorageError, TypeError_
from repro.lang.program import bindable_args
from repro.lang.reader import read_terms
from repro.lang.writer import term_to_text
from repro.replication import Replica
from repro.replication.stream import OK
from repro.workloads import graphs, mvv


# ------------------------------------------------------- one-pass build

_coord = st.floats(min_value=0.0, max_value=0.999)
# a signed zero and squashed numbers past ±2**128, outside [0, 1)
_edge = st.sampled_from([-0.0, 0.0, squash_number(2.0 ** 200),
                         squash_number(-2.0 ** 200),
                         squash_number(2.0 ** 129)])
_value = st.one_of(_coord, _edge)
_axis = st.one_of(st.just((0.0, 1.0)), _value.map(lambda v: (v, v)),
                  st.tuples(_value, _value).map(lambda t: tuple(sorted(t))))


def _inside(box, key):
    return all(axis == (0.0, 1.0) or axis[0] <= value <= axis[1]
               for axis, value in zip(box, key))


def _check_boxes(grid, model, boxes):
    """Brute force agrees with every box, and the pages a query reads
    are the leaves ``leaves_for`` counts."""
    for box in boxes:
        before = grid.pager.io_counters()
        got = sorted(chain.from_iterable(grid.query(box)))
        after = grid.pager.io_counters()
        assert got == sorted(i for i, key in model.items()
                             if _inside(box, key))
        reads = sum(after[c] - before[c]
                    for c in ("buffer_hits", "buffer_misses"))
        assert grid.leaves_for(box) == reads


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_value, _value), max_size=40),
       st.integers(0, 60), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(_axis, _axis), max_size=6))
def test_property_load_equals_brute_force(drawn, dupes, seed, boxes):
    """A grid filled by ``load`` answers like brute force: with
    duplicate keys past a bucket (an oversized leaf), signed zeros and
    out-of-range keys — and still after deletes past ``compact_every``
    compacted it and more keys went in row by row."""
    rng = random.Random(seed)
    keys = (drawn + [(0.25, 0.75)] * dupes
            + [(rng.random(), rng.random()) for _ in range(150)])
    grid = BangGrid(2, Pager(buffer_pages=16), bucket_capacity=4)
    grid.compact_every = 8
    grid.load([[k[0] for k in keys], [k[1] for k in keys]],
              list(range(len(keys))))
    model = dict(enumerate(keys))
    assert grid.size == len(keys)
    assert grid.splits == grid.leaf_count - 1
    assert sum(1 for _ in grid._leaves([((0.0, 1.0), (0.0, 1.0))])) \
        == grid.leaf_count
    probes = boxes + [((x, x), (y, y)) for x, y in keys[:20]]
    _check_boxes(grid, model, probes + [((0.0, 1.0), (0.0, 1.0))])

    victims = rng.sample(sorted(model), min(40, len(model)))
    for i in victims:
        assert grid.delete(model.pop(i), lambda r, i=i: r == i) == 1
    assert grid.merges > 0
    for j in range(len(keys), len(keys) + 30):
        model[j] = (rng.random(), rng.random())
        grid.insert(model[j], j)
    assert grid.splits - grid.merges == grid.leaf_count - 1
    _check_boxes(grid, model, probes)


def test_load_writes_each_leaf_once_and_needs_an_empty_grid():
    pager = Pager(buffer_pages=4)
    grid = BangGrid(2, pager, bucket_capacity=8)
    rng = random.Random(3)
    keys = [(rng.random(), rng.random()) for _ in range(400)]
    with measure(pager) as run:
        grid.load([[k[0] for k in keys], [k[1] for k in keys]],
                  list(range(400)))
        pager.flush()
    # every leaf page reaches the disc exactly once, and nothing is read
    assert run["writes"] == grid.leaf_count
    assert run["reads"] == 0
    with pytest.raises(ValueError, match="new grid"):
        grid.load([[0.5], [0.5]], ["again"])


def _shape(grid, node=None):
    """The tree: split planes and each leaf's records, in scan order."""
    node = node or grid.root
    if node.is_leaf:
        return list(grid._leaf(node.page_id)[1])
    return (node.dim, node.split, _shape(grid, node.left),
            _shape(grid, node.right))


def test_insert_many_builds_the_tree_inserts_build():
    """Arrival order, duplicate keys past a bucket included: one leaf
    page write each, the same tree as one insert per record."""
    rng = random.Random(7)
    keys = [(rng.choice([0.1, 0.2, rng.random()]), rng.random())
            for _ in range(600)]
    keys[100:100] = [(0.5, 0.5)] * 20
    one, bulk = (BangGrid(2, Pager(buffer_pages=8), bucket_capacity=5)
                 for _ in range(2))
    for i, key in enumerate(keys):
        one.insert(key, i)
    with measure(bulk.pager) as run:
        bulk.insert_many([[k[0] for k in keys], [k[1] for k in keys]],
                         list(range(len(keys))))
        bulk.pager.flush()
    assert run["writes"] == bulk.leaf_count
    assert _shape(bulk) == _shape(one)
    assert (bulk.size, bulk.leaf_count, bulk.splits) == \
        (one.size, one.leaf_count, one.splits)


def test_multi_box_probe_pins_each_leaf_once():
    """A bound ``term`` argument probes a value band and the var band;
    the grid walks the two boxes at once and reads every leaf once."""
    kb = EduceStar()
    kb.store_program("p(a, 1). p(X, 2). p(b, 3). p(a, 4).")
    relation = kb.store.lookup("p", 2).relation
    assert len(relation._boxes_for({0: ("atom", "a")})) == 2
    assert relation.pages_for({0: ("atom", "a")}) == 1
    pager = kb.store.pager
    before = pager.io_counters()
    clauses = kb.store.fetch_clauses("p", 2, {0: ("atom", "a")})
    after = pager.io_counters()
    assert [c.clause_id for c in clauses] == [0, 1, 3]
    # one read of the procedure's leaf, one of the $clauses leaf
    assert sum(after[c] - before[c]
               for c in ("buffer_hits", "buffer_misses")) == 2


# ------------------------------------------------- the bindable table

def test_bindable_args_skip_singletons_and_descend_meta_goals():
    table = bindable_args(read_terms(
        "on(S, L) :- s3(L, _, _, S). "
        "nd(L, T) :- findall(X, (s2(L, H, X, _), X >= H), T). "
        "k(X) :- s3(X, 1, Y, Y), \\+ s2(_, _, _, X)."))
    assert table[("s3", 4)] == {0, 1, 2, 3}   # a constant, a shared Y
    assert table[("s2", 4)] == {0, 1, 2, 3}   # inside findall and \+
    assert table[(">=", 2)] == {0, 1}
    assert bindable_args(read_terms("on(S, L) :- s3(L, _, _, S).")) == {
        ("s3", 4): {0, 3}}
    assert bindable_args(read_terms("f(1). g :- h(_, _).")) == {
        ("h", 2): set()}


def test_bindable_args_see_through_call_n():
    """A ``call/N`` closure's goal gets the closure's arguments, then
    the extra ones."""
    assert bindable_args(read_terms("p :- call(q, a).")) == {
        ("q", 1): {0}}
    assert bindable_args(read_terms("p(Y) :- call(q(1), Y).")) == {
        ("q", 2): {0, 1}}


# ------------------------------------------------ layout and its checks

def test_non_key_values_are_type_checked():
    """Every value is checked against its attribute's type, key or not:
    a mistyped row stores nothing and logs nothing."""
    kb = EduceStar()
    kb.store_program("p(Y) :- r(_, Y), s(Y).")
    epoch = kb.store.mutation_epoch
    with pytest.raises(TypeError_):
        kb.store_relation("r", [(1, "a"), ("x", "b")])
    assert kb.store.lookup("r", 2) is None
    assert kb.store.mutation_epoch == epoch
    kb.store_relation("r", [(1, "a"), (2, "b")])
    assert _dims(kb, "r", 2) == [1]
    relation = kb.store.lookup("r", 2).relation
    with pytest.raises(TypeError_):
        relation.insert(("x", "c"))
    assert sorted(chain.from_iterable(relation.scan())) == [(1, "a"), (2, "b")]


def test_a_failed_recluster_leaves_the_old_rows(monkeypatch):
    kb = EduceStar()
    rows = [(i % 7, f"v{i}") for i in range(300)]
    kb.store_relation("r", rows)
    relation = kb.store.lookup("r", 2).relation

    def fail(self, columns, records):
        raise StorageError("disc full")
    monkeypatch.setattr(BangGrid, "load", fail)
    with pytest.raises(StorageError):
        relation.recluster([1], rows)
    assert relation.key_dims == [0, 1]
    assert sorted(chain.from_iterable(relation.scan())) == sorted(rows)
    assert sorted(chain.from_iterable(relation.query({0: 3}))) == sorted(
        row for row in rows if row[0] == 3)


@pytest.mark.parametrize("program_first", [False, True])
def test_every_position_bindable_keeps_the_default_layout(program_first):
    """``edge/2`` under ``reach/2``: both positions are bindable, so it
    keeps every attribute in position order and its arrival-order tree,
    whichever was stored first."""
    edges = graphs.k_ary_tree(600, 3)
    kb = EduceStar()
    if program_first:
        kb.store_program(graphs.REACH_PROGRAM)
    kb.store_relation("edge", edges)
    if not program_first:
        kb.store_program(graphs.REACH_PROGRAM)
    proc = kb.store.lookup("edge", 2)
    assert kb.store.bindable[("edge", 2)] == {0, 1}
    assert (proc.relation.key_dims, proc.key_origin) == ([0, 1], "default")
    assert proc.version == 0
    assert kb.store.io_counters()["edb_reclusters"] == 0
    one = BangGrid(2, Pager(), proc.relation.grid.bucket_capacity)
    for edge in edges:
        one.insert([encode_value("atom", v) for v in edge], edge)
    assert _shape(proc.relation.grid) == _shape(one)


# ------------------------------------------------------- MVV clustering

SCALE = 0.05


@pytest.fixture(scope="module")
def data():
    return mvv.generate(seed=11, scale=SCALE)


def _store_facts(kb, data):
    kb.store_relation("location2", data.location2, mvv.LOCATION2_TYPES)
    kb.store_relation("schedule3", data.schedule3, mvv.SCHEDULE3_TYPES)
    kb.store_relation("schedule2", data.schedule2, mvv.SCHEDULE2_TYPES)


def _pool(data):
    return mvv.class1_queries(data, 12) + mvv.class2_queries(data, 6)


def _answers(kb, goal):
    return sorted(term_to_text(s["Plan"]) for s in kb.solve(goal))


def _dims(kb, name, arity):
    store = kb if isinstance(kb, ExternalStore) else kb.store
    return store.lookup(name, arity).relation.key_dims


def _procedure_node(plan):
    return next(n for n in plan.root.children if n.op == "procedure")


class TestMvvClustering:
    def test_distinct_count_order(self, data):
        kb = EduceStar()
        _store_facts(kb, data)
        assert _dims(kb, "schedule3", 11) == list(range(11))
        assert kb.store.lookup("schedule3", 11).key_origin == "default"
        kb.store_program(mvv.RULES)
        # 104 stops, 28 sequence numbers, 12 lines, 2 directions
        assert _dims(kb, "schedule3", 11) == [3, 2, 0, 1]
        proc = kb.store.lookup("schedule3", 11)
        assert proc.key_origin == "derived from stored calls"
        assert proc.version == 1            # loader caches follow
        assert kb.store.io_counters()["edb_reclusters"] == 2

    def test_paper_scale_order(self):
        rows = mvv.generate(seed=11, scale=1.0).schedule3
        store = ExternalStore()
        store.bindable[("schedule3", 11)] = {0, 1, 2, 3}
        assert store._layout(("schedule3", 11), rows) == (
            [3, 0, 2, 1], "derived from stored calls")

    def test_answers_unchanged_and_equal_to_consulted_rules(self, data):
        stored = EduceStar()
        _store_facts(stored, data)
        stored.store_program(mvv.RULES)
        consulted = mvv.load_educestar(data, EduceStar())
        for goal in _pool(data):
            fresh = EduceStar(store=stored.store)    # cold loader
            assert _answers(fresh, goal) == _answers(consulted, goal), goal

    def test_facts_stored_after_the_program_get_derived_dims(self, data):
        kb = EduceStar()
        kb.store_program(mvv.RULES)
        _store_facts(kb, data)
        assert _dims(kb, "schedule3", 11) == [3, 2, 0, 1]
        assert kb.store.io_counters()["edb_reclusters"] == 0
        goal = mvv.class1_queries(data, 1)[0]
        assert _answers(kb, goal) == _answers(
            mvv.load_educestar(data, EduceStar()), goal)

    def test_a_second_program_widens_the_dims(self, data):
        kb = EduceStar()
        _store_facts(kb, data)
        kb.store_program(mvv.RULES)
        kb.store_program("minute(S, M) :- "
                         "schedule3(_, _, _, S, _, M, _, _, _, _, _).")
        dims = _dims(kb, "schedule3", 11)
        assert sorted(dims) == [0, 1, 2, 3, 5]
        assert dims[0] == 3
        # a program that binds nothing new leaves the relation alone
        version = kb.store.lookup("schedule3", 11).version
        kb.store_program("stop_line(S, L) :- "
                         "schedule3(L, _, _, S, _, _, _, _, _, _, _).")
        assert _dims(kb, "schedule3", 11) == dims
        assert kb.store.lookup("schedule3", 11).version == version

    def test_declared_key_dims_never_change(self, data):
        kb = EduceStar()
        kb.store_relation("schedule3", data.schedule3, mvv.SCHEDULE3_TYPES,
                          key_dims=[0, 1])
        kb.store_program(mvv.RULES)
        assert _dims(kb, "schedule3", 11) == [0, 1]
        assert kb.store.lookup("schedule3", 11).key_origin == "declared"
        assert kb.store.lookup("on_line", 4).relation.key_dims == [0, 1, 2, 3]

    def test_consult_never_reclusters(self, data):
        kb = EduceStar()
        _store_facts(kb, data)
        epoch = kb.store.mutation_epoch
        kb.consult(mvv.RULES)
        assert kb.store.mutation_epoch == epoch
        assert _dims(kb, "schedule3", 11) == list(range(11))
        assert kb.store.bindable == {}

    def test_dims_survive_save_reopen_and_reach_a_follower(self, data,
                                                           tmp_path):
        path = str(tmp_path / "kb.edb")
        kb = EduceStar.create(path)
        _store_facts(kb, data)
        kb.save(path)
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, start=False)
        try:
            kb.store_program(mvv.RULES)          # logged, not checkpointed
            status, shipped = replica.tailer.poll(None)
            assert status == OK
            replica._apply_batch(shipped)
            assert _dims(replica.store, "schedule3", 11) == [3, 2, 0, 1]
            assert replica.store.bindable == kb.store.bindable
        finally:
            replica.shutdown()
        recovered = EduceStar.open(path)         # WAL replay
        assert _dims(recovered, "schedule3", 11) == [3, 2, 0, 1]
        recovered.save(path)                     # a checkpoint
        reopened = EduceStar(store=ExternalStore.load(path))
        assert _dims(reopened, "schedule3", 11) == [3, 2, 0, 1]
        assert reopened.store.bindable == kb.store.bindable
        goal = mvv.class1_queries(data, 1)[0]
        assert _answers(reopened, goal) == _answers(kb, goal)

    def test_explain_shows_key_dims_origin_and_leaves(self, data):
        kb = EduceStar()
        _store_facts(kb, data)
        kb.store_program(mvv.RULES)
        stop = data.schedule3[0][3]
        plan = kb.explain(f"schedule3(L, D, Q, {stop}, "
                          "A, B, C, E, F, G, H)")
        node = _procedure_node(plan)
        relation = kb.store.lookup("schedule3", 11).relation
        assert node.attrs["key_dims"] == [3, 2, 0, 1]
        assert node.attrs["key_origin"] == "derived from stored calls"
        assert node.attrs["leaves"] == relation.pages_for({3: stop})
        text = plan.format()
        assert "key_origin=\"derived from stored calls\"" in text
        # stored calls bind both positions: the default layout stays
        node = _procedure_node(kb.explain("location2(S, Z)"))
        assert node.attrs["key_origin"] == "default"
        assert node.attrs["leaves"] == \
            kb.store.lookup("location2", 2).relation.grid.leaf_count

    def test_recluster_event(self, data):
        kb = EduceStar()
        _store_facts(kb, data)
        kb.store_program(mvv.RULES)
        events = [e for e in kb.store.events.tail(50)
                  if e["kind"] == "store.recluster"]
        assert [(e["relation"], e["old"], e["new"], e["rows"])
                for e in events] == [
            ("schedule3/11", list(range(11)), [3, 2, 0, 1],
             len(data.schedule3)),
            ("schedule2/5", list(range(5)), [3, 0, 2, 1],
             len(data.schedule2))]


# ------------------------------------------------- crash during a rebuild

PROGRAM = "at(S, L) :- sched(L, _, S, _)."
ROWS = [(f"l{i % 9}", i % 2, f"s{i % 37:03d}", i) for i in range(400)]


def _state(store):
    """What a reader can tell about ``sched/4`` and the program."""
    proc = store.lookup("sched", 4)
    rows = sorted(chain.from_iterable(proc.relation.scan()))
    probes = [sorted(chain.from_iterable(proc.relation.query({2: f"s{k:03d}"})))
              for k in (0, 5, 36)]
    return (proc.relation.key_dims, rows, probes,
            store.lookup("at", 2) is not None)


def _seed(path):
    kb = EduceStar.create(path)
    kb.store_relation("sched", ROWS, ["atom", "int", "atom", "int"])
    kb.save(path)
    return kb


def _arm(store, faults):
    store.faults = faults
    store.pager.disk.faults = faults
    store.wal.faults = faults
    return faults


@pytest.mark.fault_injection
class TestReclusterCrash:
    """A crash while a ``store_program`` re-clusters recovers to the
    state before it or the state after it."""

    @pytest.fixture(scope="class")
    def states(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("states") / "kb.edb")
        kb = _seed(path)
        before = _state(kb.store)
        kb.store_program(PROGRAM)
        after = _state(kb.store)
        assert before[0] == [0, 1, 2, 3] and after[0] == [2, 0]
        assert before[1] == after[1] and before[2] == after[2]
        return before, after

    @pytest.mark.parametrize("point,skip", [
        ("wal.append.before", 0), ("wal.append.mid", 0),
        ("wal.append.synced", 0), ("pages.append.before", 0),
        ("pages.append.before", 3)])
    def test_crash_at_named_point(self, tmp_path, states, point, skip):
        path = str(tmp_path / "kb.edb")
        kb = _seed(path)
        kb.store.pager.buffer.capacity = 2     # the rebuild writes back
        faults = _arm(kb.store, FaultInjector().arm_crash_point(point,
                                                                skip))
        with pytest.raises(InjectedCrash):
            kb.store_program(PROGRAM)
        assert faults.fired
        reopened = ExternalStore.open(path, create=False)
        assert not reopened.recovery.errors
        expected = states[1] if point == "wal.append.synced" else states[0]
        assert _state(reopened) == expected

    def test_every_torn_tail_length(self, tmp_path, states):
        before, after = states
        path = str(tmp_path / "kb.edb")
        kb = _seed(path)
        start = os.path.getsize(path + ".wal")
        kb.store_program(PROGRAM)
        end = os.path.getsize(path + ".wal")
        kb.store.wal.close()
        assert end > start
        saved = str(tmp_path / "saved")
        os.mkdir(saved)
        for name in os.listdir(tmp_path):
            if name.startswith("kb.edb"):
                shutil.copy(os.path.join(tmp_path, name), saved)
        wal = open(os.path.join(saved, "kb.edb.wal"), "rb").read()
        for length in range(start, end + 1):
            for name in os.listdir(saved):
                shutil.copy(os.path.join(saved, name), tmp_path)
            with open(path + ".wal", "r+b") as f:
                f.truncate(length)
            reopened = ExternalStore.open(path, create=False)
            assert not reopened.recovery.errors
            assert reopened.recovery.wal_torn_tail == (start < length < end)
            assert _state(reopened) == (after if length == end else before)
        assert len(wal) == end

    def test_follower_fed_the_log_ends_with_the_same_dims(self, tmp_path,
                                                          states):
        path = str(tmp_path / "kb.edb")
        kb = _seed(path)
        replica = Replica("r0", path, str(tmp_path / "r0"),
                          workers=1, start=False)
        try:
            kb.store_program(PROGRAM)
            status, shipped = replica.tailer.poll(None)
            assert status == OK
            replica._apply_batch(shipped)
            assert _state(replica.store) == states[1]
            assert replica.store.io_counters()["edb_reclusters"] == 1
        finally:
            replica.shutdown()
