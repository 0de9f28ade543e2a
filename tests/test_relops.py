"""Tests for the Prolog-level relational operators (paper §4, [9])."""

import random

import pytest

from repro.engine.session import EduceStar
from repro.errors import CatalogError, ExistenceError, TypeError_


@pytest.fixture
def kb():
    s = EduceStar()
    s.store_relation("emp", [
        (1, "ann", "eng", 90), (2, "bob", "hr", 60),
        (3, "cleo", "eng", 80), (4, "dan", "ops", 70),
    ])
    s.store_relation("dept", [
        ("eng", "munich"), ("hr", "paris"), ("ops", "rome"),
    ])
    return s


class TestSelect:
    def test_pattern_selection(self, kb):
        kb.solve_once("db_select(emp/4, emp(_, _, eng, _), out)")
        assert kb.count_solutions("out(_, _, _, _)") == 2

    def test_bound_pattern_runs_a_planned_traced_selection(self, kb):
        prof = kb.profile("db_select(emp/4, emp(_, _, eng, _), out)")
        spans = prof.root.find("relational.execute")
        assert len(spans) == 1
        assert spans[0].attrs["rows"] == 2

    def test_empty_pattern_copies(self, kb):
        kb.solve_once("db_select(emp/4, [], all_emp)")
        assert kb.count_solutions("all_emp(_, _, _, _)") == 4

    def test_numeric_selection(self, kb):
        kb.solve_once("db_select(emp/4, emp(2, _, _, _), one)")
        assert str(kb.solve_once("one(_, N, _, _)")["N"]) == "bob"

    def test_empty_result_is_usable(self, kb):
        kb.solve_once("db_select(emp/4, emp(_, _, nowhere, _), none)")
        assert kb.solve_once("none(_, _, _, _)") is None
        assert kb.solve_once("db_count(none/4, 0)") is not None

    def test_rematerialisation_replaces(self, kb):
        kb.solve_once("db_select(emp/4, emp(_, _, eng, _), out)")
        kb.solve_once("db_select(emp/4, emp(_, _, hr, _), out)")
        assert kb.count_solutions("out(_, _, _, _)") == 1

    def test_wrong_arity_pattern_raises(self, kb):
        with pytest.raises(TypeError_):
            kb.solve_once("db_select(emp/4, emp(_, _), out)")


class TestProjectJoin:
    def test_project_distinct(self, kb):
        kb.solve_once("db_project(emp/4, [3], depts)")
        got = sorted(str(s["D"]) for s in kb.solve("depts(D)"))
        assert got == ["eng", "hr", "ops"]

    def test_project_multiple_columns(self, kb):
        kb.solve_once("db_project(emp/4, [2, 3], pairs)")
        assert kb.count_solutions("pairs(_, _)") == 4

    def test_project_column_out_of_range(self, kb):
        with pytest.raises(CatalogError):
            kb.solve_once("db_project(emp/4, [9], bad)")

    def test_join(self, kb):
        kb.solve_once("db_join(emp/4, 3, dept/2, 1, located)")
        assert kb.count_solutions("located(_, _, _, _, _, _)") == 4
        city = kb.solve_once("located(1, _, _, _, _, C)")["C"]
        assert str(city) == "munich"

    def test_join_results_queryable_recursively(self, kb):
        """Derived relations feed straight back into inference (§4:
        mixing strategies 'without performance penalties')."""
        kb.solve_once("db_join(emp/4, 3, dept/2, 1, located)")
        kb.consult("""
        colleague_city(A, B, City) :-
            located(A, _, D, _, _, City),
            located(B, _, D, _, _, City),
            A \\== B.
        """)
        pairs = sorted((s["A"], s["B"]) for s in
                       kb.solve("colleague_city(A, B, _)"))
        assert pairs == [(1, 3), (3, 1)]


class TestSetOps:
    def test_union_set_semantics(self, kb):
        kb.solve_once("""
            db_select(emp/4, emp(_, _, eng, _), a),
            db_select(emp/4, emp(1, _, _, _), b),
            db_union(a/4, b/4, u)
        """)
        assert kb.count_solutions("u(_, _, _, _)") == 2  # ann dedup'd

    def test_diff(self, kb):
        kb.solve_once("""
            db_select(emp/4, [], every),
            db_select(emp/4, emp(_, _, eng, _), engs),
            db_diff(every/4, engs/4, rest)
        """)
        names = sorted(str(s["N"]) for s in kb.solve("rest(_, N, _, _)"))
        assert names == ["bob", "dan"]

    def test_arity_mismatch_raises(self, kb):
        with pytest.raises(CatalogError):
            kb.solve_once("db_union(emp/4, dept/2, nope)")


class TestCountDrop:
    def test_count(self, kb):
        assert kb.solve_once("db_count(emp/4, N)")["N"] == 4
        assert kb.solve_once("db_count(emp/4, 4)") is not None
        assert kb.solve_once("db_count(emp/4, 5)") is None

    def test_drop_removes(self, kb):
        kb.solve_once("db_select(emp/4, [], tmp)")
        assert kb.solve_once("db_drop(tmp/4)") is not None
        with pytest.raises(ExistenceError):
            kb.solve_once("tmp(_, _, _, _)")

    def test_drop_missing_fails(self, kb):
        assert kb.solve_once("db_drop(never_was/3)") is None

    def test_unknown_relation_raises(self, kb):
        with pytest.raises(ExistenceError):
            kb.solve_once("db_count(ghost/2, _)")

    def test_rules_are_not_relations(self, kb):
        kb.store_program("derived(X) :- emp(X, _, _, _).")
        with pytest.raises(ExistenceError):
            kb.solve_once("db_count(derived/1, _)")

    def test_restored_procedures_survive_automatic_compaction(self):
        """Dropping most stored procedures deletes enough `$clauses`
        entries for the grid to compact itself (splicing out empty
        leaves); clauses stored afterwards must all be found again."""
        rng = random.Random(3)
        kb = EduceStar()

        def program(name, n):
            return "\n".join(f"{name}(k{i}, V) :- V = {i}."
                             for i in range(n))

        names = [f"p{i:03d}" for i in range(40)]
        for name in names:
            kb.store_program(program(name, rng.randint(5, 40)))
        dropped = [name for name in names if rng.random() < 0.6]
        for name in dropped:
            assert kb.solve_once(f"db_drop({name}/2)") is not None
        assert kb.store.clauses_relation.grid.merges > 0
        for name in dropped:
            kb.store_program(program(name, 30))
        for name in dropped:
            assert kb.count_solutions(f"{name}(K, V)") == 30, name
            assert kb.count_solutions(f"{name}(k7, V)") == 1, name
