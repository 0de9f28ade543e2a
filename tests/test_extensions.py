"""Tests for the Educe* extension features: directives, the cursor
interface (§2.3), EDB persistence (§3.1), the typed sub-language
(§3.2.3) and cyclic-data facilities (§1)."""


import pytest

from repro.edb.store import ExternalStore
from repro.engine.session import EduceStar
from repro.engine.stats import measure
from repro.errors import ExistenceError, PrologError, TypeError_
from repro.lang.writer import term_to_text


class TestDirectives:
    def test_op_directive_extends_reader(self, machine):
        machine.consult("""
        :- op(700, xfx, ===).
        same(A === B) :- A == B.
        """)
        assert machine.solve_once("same(x === x)") is not None

    def test_dynamic_directive_prefix_syntax(self, machine):
        machine.consult(":- dynamic foo/1.")
        assert machine.solve_once("foo(_)") is None  # exists, empty

    def test_goal_directive_executes(self, machine):
        machine.consult(":- assertz(seeded(1)).")
        assert machine.solve_once("seeded(X)")["X"] == 1

    def test_failing_directive_raises(self, machine):
        with pytest.raises(PrologError):
            machine.consult(":- fail.")

    def test_directive_sees_preceding_clauses(self, machine):
        machine.consult("""
        val(10).
        :- val(X), assertz(derived(X)).
        """)
        assert machine.solve_once("derived(10)") is not None


class TestCursorInterface:
    @pytest.fixture
    def kb(self):
        s = EduceStar()
        s.store_relation("emp", [(1, "ann", "eng"), (2, "bob", "hr"),
                                 (3, "cleo", "eng"), (4, "dan", "ops")])
        return s

    def test_open_set_key_scan_close(self, kb):
        kb.consult("""
        collect(D, [T|Ts]) :- next_tuple(D, T), !, collect(D, Ts).
        collect(_, []).
        dept_names(Dept, Names) :-
            open_rel(D, emp/3),
            set_key(D, emp(_, _, Dept)),
            collect(D, Rows),
            close_rel(D),
            findall(N, member(row(_, N, _), Rows), Names).
        """)
        sol = kb.solve_once("dept_names(eng, L)")
        assert term_to_text(sol["L"]) == "[ann,cleo]"

    def test_first_and_more(self, kb):
        kb.consult("""
        probe(Dept, First, More) :-
            open_rel(D, emp/3),
            set_key(D, emp(_, _, Dept)),
            first_tuple(D, row(_, First, _)),
            ( more(D) -> More = yes ; More = no ),
            close_rel(D).
        """)
        sol = kb.solve_once("probe(eng, F, M)")
        assert str(sol["F"]) == "ann" and str(sol["M"]) == "yes"
        sol = kb.solve_once("probe(hr, F, M)")
        assert str(sol["F"]) == "bob" and str(sol["M"]) == "no"

    def test_cursor_scan_is_deterministic(self, kb):
        """§3.2.1: the descriptor predicates create no choice points
        beyond the query barrier."""
        kb.consult("""
        drain(D) :- next_tuple(D, _), !, drain(D).
        drain(_).
        full_scan :- open_rel(D, emp/3), drain(D), close_rel(D).
        """)
        with measure(kb.machine) as run:
            assert kb.solve_once("full_scan") is not None
        # barrier + nothing per-tuple (drain's clauses are cut-guarded)
        assert run["cp_created"] <= 2 + 5  # small constant, not 4/tuple

    def test_rel_tuple_nondeterministic_wrapper(self, kb):
        names = [str(s["N"]) for s in
                 kb.solve("rel_tuple(emp/3, row(_, N, eng))")]
        assert names == ["ann", "cleo"]

    def test_unknown_relation_raises(self, kb):
        with pytest.raises(ExistenceError):
            kb.solve_once("open_rel(_, ghost/2)")

    def test_closed_cursor_raises(self, kb):
        kb.consult("""
        use_after_close :-
            open_rel(D, emp/3), close_rel(D), next_tuple(D, _).
        """)
        with pytest.raises(ExistenceError):
            kb.solve_once("use_after_close")

    def test_fetch_counters(self, kb):
        kb.solve_once("open_rel(D, emp/3), first_tuple(D, _), "
                      "next_tuple(D, _), close_rel(D)")
        assert kb.cursors.opens == 1
        assert kb.cursors.fetches == 2


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "kb.edb")
        a = EduceStar()
        a.store_relation("edge", [("x", "y"), ("y", "z")])
        a.store_program("""
        reach(A, B) :- edge(A, B).
        reach(A, B) :- edge(A, C), reach(C, B).
        """)
        a.store.save(path)

        b = EduceStar(store=ExternalStore.load(path))
        got = sorted(str(s["B"]) for s in b.solve("reach(x, B)"))
        assert got == ["y", "z"]

    def test_fresh_session_has_fresh_internal_ids(self, tmp_path):
        """The point of relative addresses: session B's internal
        dictionary allocates its own identifiers, yet stored code runs."""
        path = str(tmp_path / "kb.edb")
        a = EduceStar()
        a.store_program("greet(hello_world_atom).")
        a.store.save(path)

        b = EduceStar(store=ExternalStore.load(path))
        # intern unrelated junk first so slot allocation diverges
        for i in range(500):
            b.machine.dictionary.intern(f"noise_{i}", i % 4)
        assert str(b.solve_once("greet(X)")["X"]) == "hello_world_atom"

    def test_updates_after_reload(self, tmp_path):
        path = str(tmp_path / "kb.edb")
        a = EduceStar()
        a.store_program("item(1).")
        a.store.save(path)
        b = EduceStar(store=ExternalStore.load(path))
        b.assert_external("item(2)")
        assert [s["X"] for s in b.solve("item(X)")] == [1, 2]

    def test_load_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "junk.edb")
        with open(path, "wb") as f:
            import pickle
            pickle.dump({"not": "a store"}, f)
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            ExternalStore.load(path)


class TestTypedSubLanguage:
    def test_declaration_and_introspection(self, session):
        session.consult(":- pred employee(int, atom, int).")
        sol = session.solve_once("current_pred_type(employee/3, T)")
        assert term_to_text(sol["T"]) == "[int,atom,int]"

    def test_undeclared_introspection_fails(self, session):
        assert session.solve_once(
            "current_pred_type(nothing/9, _)") is None

    def test_declared_types_used_for_storage(self, session):
        session.consult(":- pred t(int, atom).")
        session.store_relation("t", [(1, "a")])
        types = [a.type for a in
                 session.relation("t", 2).schema.attributes]
        assert types == ["int", "atom"]

    def test_ill_typed_row_rejected(self, session):
        session.consult(":- pred t(int).")
        with pytest.raises(TypeError_):
            session.store_relation("t", [("not_int",)])

    def test_ill_typed_rule_head_rejected(self, session):
        session.consult(":- pred score(int, int).")
        with pytest.raises(TypeError_):
            session.store_program("score(abc, 1).")

    def test_var_head_args_always_allowed(self, session):
        session.consult(":- pred score(int, int).")
        session.store_program("score(X, Y) :- Y is X * 2.")
        assert session.solve_once("score(3, Y)")["Y"] == 6

    def test_ill_typed_call_fails_cleanly(self, session):
        session.consult(":- pred num(int).")
        session.store_relation("num", [(1,), (2,)])
        loads = session.loader.loads
        assert session.solve_once("num(atom_not_int)") is None
        assert session.loader.loads == loads  # no storage work
        assert session.types.rejections >= 1

    def test_well_typed_call_unaffected(self, session):
        session.consult(":- pred num(int).")
        session.store_relation("num", [(1,), (2,)])
        assert session.count_solutions("num(_)") == 2

    def test_bad_type_name_rejected(self, session):
        with pytest.raises(TypeError_):
            session.consult(":- pred t(varchar).")


class TestCyclicData:
    def test_acyclic_on_plain_terms(self, machine):
        assert machine.solve_once(
            "acyclic_term(f(1, [a,b], g(h(c))))") is not None

    def test_cycle_detected(self, machine):
        assert machine.solve_once("X = f(X), cyclic_term(X)") is not None
        assert machine.solve_once("X = f(X), acyclic_term(X)") is None

    def test_shared_subterms_are_not_cycles(self, machine):
        assert machine.solve_once(
            "Y = g(1), X = f(Y, Y), acyclic_term(X)") is not None

    def test_cyclic_list_detected(self, machine):
        assert machine.solve_once(
            "X = [1|X], cyclic_term(X)") is not None

    def test_occurs_check_unification(self, machine):
        assert machine.solve_once(
            "unify_with_occurs_check(X, f(X))") is None
        sol = machine.solve_once("unify_with_occurs_check(X, f(1))")
        assert term_to_text(sol["X"]) == "f(1)"

    def test_extraction_of_cyclic_term_terminates(self, machine):
        sol = machine.solve_once("X = f(a, X)")
        text = term_to_text(sol["X"])
        assert text.startswith("f(a,")  # knot cut with a fresh var

    def test_closure_terminates_on_cyclic_graph(self, machine):
        machine.consult("e(a,b). e(b,c). e(c,a). e(c,d).")
        got = sorted(set(
            str(s["Y"]) for s in machine.solve("closure(e, a, Y)")))
        assert got == ["a", "b", "c", "d"]

    def test_closure_on_acyclic_graph(self, machine):
        machine.consult("p(1,2). p(2,3).")
        got = sorted(set(
            s["Y"] for s in machine.solve("closure(p, 1, Y)")))
        assert got == [2, 3]
