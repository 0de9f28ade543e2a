"""Bottom-up evaluation over the workload graph families, checked by
the differential oracle (``tests/oracle.py``).

For every graph family (chain, tree, DAG, same-generation, stratified
negation) and 25 seeds, the goals routed bottom-up answer as the
resolution interpreter does, compared by the oracle's rule: a bottom-up
answer multiset is duplicate-free and equals the interpreter's answer
set.  Each case also runs on its store saved and reopened.  The
relations are far below ``DEFAULT_MIN_ROWS``, so these tests use the
``bottom_up`` fixture (conftest) to route them.  The random lattice
over every other configuration is ``test_oracle.py``.  Further groups
pin right-linear factoring of the magic rewrite and the kept EDB
indexes against writes made elsewhere.
"""

import random
import re
from collections import Counter

import pytest

from repro import EduceStar
from repro.workloads import graphs

from . import oracle

SEEDS = 25


def build_session(case, **kwargs) -> EduceStar:
    kb = EduceStar(**kwargs)
    for name, rows in case["relations"].items():
        kb.store_relation(name, rows)
    kb.store_program(case["program"])
    return kb


def answer_multiset(kb: EduceStar, goal: str) -> Counter:
    return Counter(
        tuple(sorted((name, repr(term))
                     for name, term in solution.bindings.items()))
        for solution in kb.solve(goal))


def reopened(kb: EduceStar, tmp_path) -> EduceStar:
    """*kb*'s store saved, then opened again in a fresh session."""
    path = str(tmp_path / "kb.edb")
    kb.save(path)
    return EduceStar.open(path, datalog=kb.datalog.mode)


def check_goals(kb: EduceStar, case, seed, goals=None) -> list:
    """Ask *goals* (default: all of the case's) and assert the oracle's
    rule against the interpreter; returns whether each ran bottom-up."""
    want = oracle.expected(oracle.graph_case(case, seed))
    if goals is not None:
        want = [entry for entry in want if entry[0] in goals]
    got = [(goal, *oracle.answers(kb, goal)) for goal, _, _ in want]
    oracle.assert_agree(want, got, f"{case['name']} seed {seed}")
    return [bottom_up for _goal, _found, bottom_up in got]


def case_ids(seed):
    cases = graphs.differential_cases(seed)
    return ([pytest.param(case, seed, False, id=f"{case['name']}-s{seed}")
             for case in cases]
            + [pytest.param(case, seed, True,
                            id=f"{case['name']}-s{seed}-reopened")
               for case in cases])


ALL_CASES = [p for seed in range(SEEDS) for p in case_ids(seed)]


@pytest.mark.usefixtures("bottom_up")
@pytest.mark.parametrize("case,seed,reopen", ALL_CASES)
def test_bottom_up_matches_oracle(case, seed, reopen, tmp_path):
    """Every goal runs bottom-up and answers as the interpreter does; a
    ``reopened`` case asks a saved and reopened store."""
    kb = build_session(case)
    if reopen:
        kb = reopened(kb, tmp_path)
    assert all(check_goals(kb, case, seed)), (
        f"{case['name']}: not every goal was routed bottom-up")


@pytest.mark.usefixtures("bottom_up")
@pytest.mark.parametrize("seed", range(0, SEEDS, 5))
def test_magic_off_matches_oracle(seed):
    """A goal with no bound argument gets no magic rewrite: the plain
    semi-naive fixpoint answers as the interpreter does."""
    for case in graphs.differential_cases(seed):
        unbound = [goal for goal in case["goals"]
                   if not re.search(r"[(,]\s*[a-z0-9]", goal)]
        if not unbound:
            continue
        kb = build_session(case)
        assert all(check_goals(kb, case, seed, unbound))
        assert kb.datalog.magic_rewrites == 0


@pytest.mark.parametrize("seed", range(0, SEEDS, 5))
def test_planner_free_choice_matches_oracle(seed):
    """With the planner free (auto mode, the shipped threshold) answers
    are the interpreter's, whichever strategy it picked per goal."""
    for case in graphs.differential_cases(seed):
        check_goals(build_session(case), case, seed)


@pytest.mark.usefixtures("bottom_up")
def test_forced_routing_visible_in_exposition():
    """The strategy decision shows up in the Prometheus exposition."""
    from repro.obs import render_prometheus
    case = graphs.differential_cases(0)[0]
    kb = build_session(case)
    for goal in case["goals"]:
        list(kb.solve(goal))
    text = render_prometheus(kb.metrics.snapshot())
    assert "datalog_bottomup" in text
    assert "datalog_fixpoint_iterations" in text


@pytest.mark.usefixtures("bottom_up")
def test_forced_answer_order_is_type_name_then_value():
    """``solve`` orders bottom-up answers per column by type name, then
    value — with or without a limit, whether or not a key is built."""
    def order_key(row):
        return tuple((type(v).__name__, v) for v in row)

    for seed in range(0, SEEDS, 5):
        for case in graphs.differential_cases(seed):
            kb = build_session(case)
            for goal in case["goals"]:
                names = list(dict.fromkeys(re.findall(r"\b[A-Z]\w*", goal)))
                rows = [tuple(getattr(s[n], "name", s[n]) for n in names)
                        for s in kb.solve(goal)]
                assert rows == sorted(rows, key=order_key), (case["name"],
                                                             goal)
                few = [tuple(getattr(s[n], "name", s[n]) for n in names)
                       for s in kb.solve(goal, limit=3)]
                assert few == rows[:3], (case["name"], goal)


# =====================================================================
# Right-linear factoring: the shapes it takes and the ones it leaves
# =====================================================================

#: name -> (program, [(goal, factored)]); ``factored`` is None for a
#: goal with no bound argument (no magic rewrite at all)
FACTORING_PROGRAMS = {
    "exit_head_constant": ("""
        tag(X, hit) :- mark(X).
        tag(n1, extra).
        tag(X, Z) :- edge(X, Y), tag(Y, Z).
    """, [("tag(n0, X)", True), ("tag(n2, hit)", True),
          ("tag(X, hit)", False), ("tag(X, Y)", None)]),
    "exit_negation": ("""
        r(X, Y) :- edge(X, Y), \\+ mark(Y).
        r(X, Z) :- edge(X, Y), r(Y, Z).
    """, [("r(n0, X)", True), ("r(n3, X)", True), ("r(X, Y)", None)]),
    "three_arguments": ("""
        lp(X, C, Y) :- edge(X, Y), colour(Y, C).
        lp(X, C, Z) :- edge(X, Y), lp(Y, C, Z).
    """, [("lp(n0, red, X)", True), ("lp(n0, C, n5)", True),
          ("lp(n1, C, X)", True), ("lp(X, red, n5)", False)]),
    "exit_repeated_variables": ("""
        refl(X, X) :- node(X).
        refl(X, Z) :- edge(X, Y), refl(Y, Z).
    """, [("refl(n0, X)", True), ("refl(n2, n2)", True),
          ("refl(X, n3)", False)]),
    "same_generation": ("""
        sg(X, X) :- person(X).
        sg(X, Y) :- edge(XP, X), sg(XP, YP), edge(YP, Y).
    """, [("sg(n3, X)", False)]),
    "reach_fb": (graphs.REACH_PROGRAM,
                 [("reach(X, n5)", False), ("reach(n0, X)", True)]),
    "call_not_last": ("""
        p(X, Y) :- edge(X, Y).
        p(X, Z) :- edge(X, Y), p(Y, Z), node(Z).
    """, [("p(n0, X)", False)]),
    "free_variable_reused": ("""
        p(X, Y) :- edge(X, Y).
        p(X, Z) :- edge(X, Z), p(Z, Z).
    """, [("p(n0, X)", False)]),
    "swapped_call": ("""
        p(X, Y) :- edge(X, Y).
        p(X, Z) :- edge(X, Y), p(Z, Y).
    """, [("p(n0, X)", False), ("p(n1, X)", False)]),
    "repeated_free_variables": ("""
        q(X, Y, Z) :- edge(X, Y), edge(X, Z).
        q(X, Z, Z) :- edge(X, Y), q(Y, Z, Z).
    """, [("q(n0, A, B)", False), ("q(n1, A, A)", False)]),
    "two_recursive_calls": ("""
        p(X, Y) :- edge(X, Y).
        p(X, Z) :- edge(X, Y), p(Y, W), p(W, Z).
    """, [("p(n0, X)", False)]),
    "mutual_recursion": ("""
        a(X, Y) :- edge(X, Y).
        a(X, Z) :- edge(X, Y), b(Y, Z).
        b(X, Z) :- edge(X, Y), a(Y, Z).
    """, [("a(n0, X)", False), ("b(n1, X)", False)]),
}


def factoring_relations(seed):
    """A small seeded tree with marks, colours and its vertex set —
    small enough for the interpreter's one-answer-per-proof search."""
    rng = random.Random(seed)
    tree = graphs.k_ary_tree(rng.randrange(8, 40), rng.choice([2, 3]))
    nodes = graphs.nodes_of(tree)
    return {"edge": tree,
            "mark": [(v,) for v in nodes if rng.random() < 0.3],
            "colour": [(v, rng.choice(["red", "blue"])) for v in nodes],
            "node": [(v,) for v in nodes],
            "person": [(v,) for v in nodes]}


@pytest.mark.usefixtures("bottom_up")
@pytest.mark.parametrize("name", sorted(FACTORING_PROGRAMS))
@pytest.mark.parametrize("seed", range(0, SEEDS, 5))
def test_factoring_shapes_match_oracle(name, seed):
    """Each right-linear variant is factored and each other shape is
    not — and either way, the bottom-up answers are the interpreter's."""
    program, goals = FACTORING_PROGRAMS[name]
    case = {"name": f"factoring-{name}",
            "relations": factoring_relations(seed),
            "program": program, "goals": [goal for goal, _ in goals]}
    kb = build_session(case)
    for goal, factored in goals:
        plan = kb.datalog.plan(goal)
        assert (plan.program.factored if plan.program else None) \
            == factored, (name, goal)
    assert all(check_goals(kb, case, seed))
    assert kb.datalog.topdown == 0
    assert kb.datalog.magic_rewrites == sum(f is not None
                                            for _goal, f in goals)


# =====================================================================
# Kept EDB indexes against writes the reading session did not make
# =====================================================================

TWO_RELATION_REACH = """\
% lint: external edge/2 link/2
% lint: disable=L104 reach/2
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- link(X, Y).
reach(X, Z) :- edge(X, Y), reach(Y, Z).
reach(X, Z) :- link(X, Y), reach(Y, Z).
"""


def repr_atom(name: str) -> str:
    from repro.terms import Atom
    return repr(Atom(name))


@pytest.mark.usefixtures("bottom_up")
class TestKeptIndexesFollowTheStore:
    """Session A keeps its EDB join indexes between goals; every write
    here is made by *someone else* — a second session on the same store,
    or a primary whose log a follower applies.  After each write A's
    answers must equal the BFS oracle's, and ``datalog_edb_rows`` must
    move by exactly the size of the relation whose version moved."""

    def script(self, reader, writer, sync):
        state = {"edge": graphs.k_ary_tree(40, 3),
                 "link": [("n40", "m0"), ("m0", "m1"), ("n7", "m2")]}
        writer.store_relation("edge", state["edge"])
        writer.store_relation("link", state["link"])
        writer.store_program(TWO_RELATION_REACH)
        sync()

        def check(*moved):
            graph = state["edge"] + state["link"]
            before = reader.counters()["datalog_edb_rows"]
            got = answer_multiset(reader, "reach(n1, X)")
            assert got == Counter(
                (("X", repr_atom(b)),)
                for b in graphs.reachable(graph, "n1")), moved
            assert reader.datalog.last_stats.index_reused == (not moved)
            got = answer_multiset(reader, "reach(X, Y)")
            assert got == Counter(
                (("X", repr_atom(a)), ("Y", repr_atom(b)))
                for a in graphs.nodes_of(graph)
                for b in graphs.reachable(graph, a)), moved
            assert reader.datalog.bottomup and not reader.datalog.topdown
            fetched = reader.counters()["datalog_edb_rows"] - before
            assert fetched == sum(len(state[r]) for r in moved), moved
            assert reader.datalog.last_stats.index_reused    # second goal
            assert reader.counters()["datalog_index_rows"] == len(graph)

        check("edge", "link")
        check()                                  # nothing moved: all reuse

        # drop + re-create: the new procedure would restart at the very
        # version A's entries carry, were it not for the version floor
        assert list(writer.solve("db_drop(edge/2)"))
        state["edge"] = graphs.chain(12) + [("n12", "n40")]
        writer.store_relation("edge", state["edge"])
        sync()
        check("edge")

        writer.assert_external("edge(n2, fresh).")
        state["edge"] = state["edge"] + [("n2", "fresh")]
        sync()
        check("edge")

        writer.assert_external("link(fresh, far).")
        state["link"] = state["link"] + [("fresh", "far")]
        sync()
        check("link")
        check()

    def test_second_session_on_the_same_store(self):
        from repro.edb.store import ExternalStore
        store = ExternalStore()
        self.script(EduceStar(store=store),
                    EduceStar(store=store), lambda: None)

    def test_follower_fed_the_primary_log(self, tmp_path):
        from repro.replication import Replica
        path = str(tmp_path / "kb.edb")
        primary = EduceStar.create(path)
        primary.save(path)                       # the bootstrap checkpoint
        replica = Replica("r0", path, str(tmp_path / "r0"), workers=1,
                          start=False)

        def ship():
            _status, records = replica.tailer.poll(None)
            assert replica._apply_batch(records) == "ok"

        try:
            self.script(EduceStar(store=replica.store),
                        primary, ship)
        finally:
            replica.shutdown()
