"""Tests for first-argument indexing and its determinism effects
(paper §3.2.1 / §3.2.2)."""

import pytest

from repro.engine.stats import measure
from repro.wam.machine import Machine

SRC = """
kind(apple, fruit).
kind(carrot, vegetable).
kind(pear, fruit).
kind(42, number).
kind(3.5, real).
kind([], empty_list).
kind([_|_], list).
kind(f(_), structure).
kind(g(_, _), structure2).
"""


def fresh(index=True):
    m = Machine(index=index)
    m.consult(SRC)
    return m


class TestCorrectness:
    @pytest.mark.parametrize("goal,expect", [
        ("kind(apple, K)", "fruit"),
        ("kind(carrot, K)", "vegetable"),
        ("kind(42, K)", "number"),
        ("kind(3.5, K)", "real"),
        ("kind([], K)", "empty_list"),
        ("kind([1,2], K)", "list"),
        ("kind(f(x), K)", "structure"),
        ("kind(g(1, 2), K)", "structure2"),
    ])
    def test_dispatch_by_type_and_value(self, goal, expect):
        for index in (True, False):
            m = fresh(index)
            assert str(m.solve_once(goal)["K"]) == expect

    def test_unbound_arg_enumerates_all_in_order(self):
        for index in (True, False):
            m = fresh(index)
            kinds = [str(s["K"]) for s in m.solve("kind(_, K)")]
            assert kinds == ["fruit", "vegetable", "fruit", "number",
                             "real", "empty_list", "list", "structure",
                             "structure2"]

    def test_unknown_constant_fails(self):
        m = fresh()
        assert m.solve_once("kind(zebra, _)") is None

    def test_unknown_structure_fails(self):
        m = fresh()
        assert m.solve_once("kind(h(1), _)") is None

    def test_var_headed_clauses_reached_from_every_key(self):
        m = Machine()
        m.consult("""
        v(a, const_a).
        v(X, anything) :- nonvar(X).
        v(b, const_b).
        """)
        # 'a' matches clause 1 AND the var clause, in source order
        assert [str(s["R"]) for s in m.solve("v(a, R)")] == \
            ["const_a", "anything"]
        # 'z' matches only the var clause
        assert [str(s["R"]) for s in m.solve("v(z, R)")] == ["anything"]
        assert [str(s["R"]) for s in m.solve("v(b, R)")] == \
            ["anything", "const_b"]


class TestDeterminismEffect:
    """Indexing "often transforms a non-deterministic procedure into a
    number of purely deterministic procedures ... eliminates the need to
    create choice points" (§3.2.2)."""

    def test_indexed_point_call_creates_no_choice_point(self):
        m = fresh(index=True)
        with measure(m) as run:
            m.solve_once("kind(carrot, _)")
        # Only the query barrier; no clause choice point.
        assert run["cp_created"] == 1

    def test_unindexed_point_call_creates_choice_point(self):
        m = fresh(index=False)
        with measure(m) as run:
            m.solve_once("kind(carrot, _)")
        assert run["cp_created"] > 1

    def test_cp_references_drop_with_indexing(self):
        goals = ["kind(apple, _)", "kind(42, _)", "kind(f(x), _)"]
        runs = []
        for m in (fresh(index=True), fresh(index=False)):
            with measure(m) as run:
                for g in goals * 20:
                    m.solve_once(g)
            runs.append(run)
        indexed, plain = runs
        assert indexed["cp_refs"] < plain["cp_refs"]

    def test_indexing_also_prunes_failing_unifications(self):
        runs = []
        for m in (fresh(index=True), fresh(index=False)):
            with measure(m) as run:
                m.solve_once("kind(pear, _)")
            runs.append(run)
        indexed, plain = runs
        assert indexed["unify_ops"] <= plain["unify_ops"]
