"""End-to-end tests for EduceStar sessions and the Educe baseline."""

from itertools import chain

import pytest

from repro.engine.educe_baseline import EduceBaseline
from repro.engine.session import EduceStar
from repro.engine.stats import measure


class TestEduceStar:
    def test_consult_and_query(self, session):
        session.consult("p(1). p(2).")
        assert [s["X"] for s in session.solve("p(X)")] == [1, 2]

    def test_store_program_roundtrip(self, session):
        session.store_program("""
        fib(0, 0). fib(1, 1).
        fib(N, F) :- N > 1, A is N - 1, B is N - 2,
                     fib(A, FA), fib(B, FB), F is FA + FB.
        """)
        assert session.solve_once("fib(12, F)")["F"] == 144

    def test_store_relation_and_query(self, session):
        session.store_relation("num", [(i, i * i) for i in range(20)])
        assert session.solve_once("num(7, S)")["S"] == 49

    def test_relational_interface(self, session):
        session.store_relation("t", [(1, "a"), (2, "b")])
        rel = session.relation("t", 2)
        assert sorted(chain.from_iterable(rel.scan())) == [(1, "a"), (2, "b")]

    def test_counters_merge_all_layers(self, session):
        session.store_relation("r", [(1,), (2,)])
        session.solve_once("r(1)")
        counters = session.counters()
        for key in ("instr_count", "loads", "parsed_chars"):
            assert key in counters

    def test_measure_context(self, session):
        session.consult("p(0).")
        with measure(session) as m:
            session.solve_once("p(X)")
        assert m.wall_s > 0
        assert m.counters.get("instr_count", 0) > 0

    def test_count_solutions(self, session):
        session.store_program("q(1). q(2). q(3).")
        assert session.count_solutions("q(_)") == 3

    def test_index_and_gc_are_machine_attributes(self):
        # Indexing and GC are the machine's business: a session that
        # wants them off says so on its machine, before loading.
        s = EduceStar()
        s.machine.index_enabled = False
        s.machine.gc_enabled = False
        s.consult("r(a). r(b).")
        s.store_program("q(1). q(2). q(3).")
        assert s.count_solutions("r(_)") == 2
        assert s.count_solutions("q(_)") == 3
        assert s.machine.procedure("r", 1).index is False

    @pytest.mark.parametrize("index", [True, False])
    def test_loader_indexes_as_the_machine_does(self, index):
        from repro.wam import instructions as I
        s = EduceStar()
        s.machine.index_enabled = index
        s.store_relation("f", [("a", 1), ("b", 2), ("c", 3)])
        s.store_program("q(a, 1). q(b, 2). q(c, 3).")
        assert s.count_solutions("f(_, _)") == 3
        assert s.count_solutions("q(_, _)") == 3
        for name in ("f", "q"):
            blocks = s.loader.cached_blocks(name, 2)
            assert [key[:2] for key, _ in blocks] == [(name, 2)]
            assert all(len(key) == 4 for key, _ in blocks)
            switched = any(instr[0] == I.SWITCH_ON_TERM
                           for _, code in blocks for instr in code)
            assert switched is index, name

    def test_edb_and_internal_coexist_same_name_space(self, session):
        session.store_relation("ext", [(1,)])
        session.consult("int_rule(X) :- ext(X).")
        assert session.solve_once("int_rule(X)")["X"] == 1


class TestEduceBaselineSystem:
    def test_store_and_query_rules(self):
        b = EduceBaseline()
        b.store_program("""
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        """)
        b.store_relation("par", [("t", "b"), ("b", "a")])
        got = [str(s["Y"]) for s in b.solve("anc(t, Y)")]
        assert got == ["b", "a"]

    def test_parse_assert_erase_cycle_counted(self):
        """§2 factor 3: every call to an EDB rule re-parses and
        re-asserts; recursion multiplies the cost."""
        b = EduceBaseline()
        b.store_program("""
        len0([], 0).
        len0([_|T], N) :- len0(T, M), N is M + 1.
        """)
        sol = b.solve_once("len0([a,b,c,d], N)")
        assert sol["N"] == 4
        # one fetch per call: 5 calls for a 4-element list
        assert b.fetches >= 5
        assert b.parsed_chars > 0
        assert b.interpreter.erases >= b.fetches

    def test_facts_fetch_prefiltered(self):
        b = EduceBaseline()
        b.store_relation("big", [(i, i % 5) for i in range(100)])
        before = b.interpreter.asserts  # library consult counts too
        sol = b.solve_once("big(42, M)")
        assert sol["M"] == 2
        # selective retrieval: far fewer than 100 clauses asserted
        assert b.interpreter.asserts - before < 20

    def test_differential_vs_educestar(self):
        """Same program + data, both systems, same answers."""
        program = """
        route(X, Y) :- link(X, Y).
        route(X, Y) :- link(X, Z), route(Z, Y).
        """
        links = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]

        star = EduceStar()
        star.store_relation("link", links)
        star.store_program(program)
        star_res = sorted(str(s["Y"]) for s in star.solve("route(a, Y)"))

        base = EduceBaseline()
        base.store_relation("link", links)
        base.store_program(program)
        base_res = sorted(str(s["Y"]) for s in base.solve("route(a, Y)"))

        assert star_res == base_res

    def test_baseline_slower_in_simulated_time(self):
        """The headline direction of Table 1: compiled EDB code beats
        the parse/assert/erase cycle."""
        program = """
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), append_(RT, [H], R).
        append_([], L, L).
        append_([H|T], L, [H|R]) :- append_(T, L, R).
        """
        goal = "nrev([a,b,c,d,e,f,g,h], R)"

        star = EduceStar()
        star.store_program(program)
        with measure(star) as m_star:
            for _ in range(3):
                star.solve_once(goal)

        base = EduceBaseline()
        base.store_program(program)
        with measure(base) as m_base:
            for _ in range(3):
                base.solve_once(goal)

        assert m_base.simulated_ms() > m_star.simulated_ms()


#: every directive kind a program text can carry, in positions that
#: matter: the op before the clauses written with it, the type
#: declaration before the clause it checks, the goal after the clauses
#: it calls
DIRECTIVE_PROGRAM = """
:- dynamic seen/1.
:- op(700, xfx, ===>).
a ===> b.
b ===> c.
:- pred hop(atom, atom).
hop(X, Y) :- X ===> Y.
reach(X, Y) :- hop(X, Y).
reach(X, Z) :- hop(X, Y), reach(Y, Z).
:- reach(a, c), assertz(seen(a)).
"""

DIRECTIVE_GOALS = ["seen(X)", "X ===> Y", "reach(a, X)",
                   "hop(X, c)", "reach(X, X)"]


def _answers(engine, goal):
    return sorted(
        sorted((name, str(value)) for name, value in dict(
            getattr(s, "bindings", s)).items())
        for s in engine.solve(goal))


class TestStoredProgramDirectives:
    """A stored program honours its directives exactly as a consulted
    one does; no path stores or asserts a procedure named ``:-/1``."""

    def test_declaration_is_not_stored_as_a_procedure(self, session):
        session.store_program(":- dynamic seen/1.\nq(1).")
        assert [(p.name, p.arity)
                for p in session.store.procedures()] == [("q", 1)]
        assert session.count_solutions("q(_)") == 1
        assert session.count_solutions("seen(_)") == 0

    def test_op_extends_the_session_reader(self, session):
        session.store_program(
            ":- op(700,xfx,===>). rule(a ===> b).")
        assert str(session.solve_once("rule(X ===> b)")["X"]) == "a"

    def test_goal_directive_runs_in_position(self, session):
        from repro.errors import TypeError_
        session.store_program("p(1). p(2).\n"
                              ":- p(X), X > 1, assertz(saw(X)).\n"
                              ":- pred t(int).\n")
        assert [s["X"] for s in session.solve("saw(X)")] == [2]
        with pytest.raises(TypeError_, match="t/1"):
            session.store_program("t(a).")

    def test_failing_directive_raises_as_consult_does(self, session):
        from repro.errors import PrologError
        for load in (session.consult, session.store_program):
            with pytest.raises(PrologError, match="directive failed"):
                load("d(1).\n:- d(2).")

    def test_declared_and_stored_is_not_shadowed(self, session):
        session.store_program(":- dynamic counter/1.\ncounter(0).")
        assert session.solve_once("counter(X)")["X"] == 0

    @pytest.mark.parametrize("make,text", [
        (EduceStar, DIRECTIVE_PROGRAM),
        # the Educe predecessor has no typed sub-language (§3.2.3)
        (EduceBaseline, DIRECTIVE_PROGRAM.replace(
            ":- pred hop(atom, atom).\n", ""))],
        ids=["educestar", "baseline"])
    def test_consulted_and_stored_answer_the_same(self, make, text):
        consulted, stored = make(), make()
        consulted.consult(text)
        stored.store_program(text)
        for goal in DIRECTIVE_GOALS:
            expected = _answers(consulted, goal)
            assert _answers(stored, goal) == expected, goal
        assert _answers(stored, "reach(a, X)") == [
            [("X", "b")], [("X", "c")]]
        assert _answers(stored, "seen(X)") == [[("X", "a")]]


class TestRemovedOptions:
    """Options no caller set are constants or component attributes now;
    the constructors refuse the old keywords instead of ignoring them."""

    @pytest.mark.parametrize("option", [
        "pager", "index", "gc_enabled", "gc_threshold", "cost_model",
        "datalog_min_rows", "verify", "optimize"])
    def test_session_keywords(self, option):
        with pytest.raises(TypeError, match=option):
            EduceStar(**{option: None})

    @pytest.mark.parametrize("option", [
        "poll_interval", "explain", "profiling", "profile_interval",
        "optimize", "read_only"])
    def test_service_keywords(self, option):
        from repro import QueryService
        with pytest.raises(TypeError, match=option):
            QueryService(workers=1, **{option: None})

    @pytest.mark.parametrize("option", ["optimize"])
    def test_machine_keywords(self, option):
        from repro.wam.machine import Machine
        with pytest.raises(TypeError, match=option):
            Machine(**{option: None})

    @pytest.mark.parametrize("option", ["backoff_cap", "batch"])
    def test_replica_keywords(self, option, tmp_path):
        from repro.edb.store import ExternalStore
        from repro.replication import Replica
        path = str(tmp_path / "kb.edb")
        ExternalStore.open(path)
        with pytest.raises(TypeError, match=option):
            Replica("r0", path, str(tmp_path / "r0"), start=False,
                    **{option: 1})

    @pytest.mark.parametrize("option", ["tracer", "verify_pages"])
    def test_store_open_keywords(self, option, tmp_path):
        from repro.edb.store import ExternalStore
        with pytest.raises(TypeError, match=option):
            ExternalStore.open(str(tmp_path / "kb.edb"), **{option: None})

    @pytest.mark.parametrize("option", ["index"])
    def test_loader_keywords(self, option):
        from repro.edb.loader import DynamicLoader
        kb = EduceStar()
        with pytest.raises(TypeError, match=option):
            DynamicLoader(kb.store, **{option: None})

    def test_loader_verifies_every_fetched_clause(self):
        # One gate, no level to choose: every fetched rule clause is
        # checked before it runs.
        kb = EduceStar()
        assert not hasattr(kb.loader, "verify")
        kb.store_program("p(1). p(2).")
        assert kb.count_solutions("p(X)") == 2
        assert kb.loader.counters()["verify_checks"] == 2

    def test_datalog_engine_magic_keyword(self):
        # Bound goals always get the magic rewrite; unbound goals and
        # abandoned rewrites run the plain fixpoint.  No switch.
        from repro.relational.datalog import DatalogEngine
        kb = EduceStar()
        with pytest.raises(TypeError, match="magic"):
            DatalogEngine(kb.store, kb.machine.reader, magic=False)
        assert not hasattr(kb.datalog, "magic")

    def test_datalog_force_mode(self):
        # "auto" already routes every goal over DEFAULT_MIN_ROWS
        # bottom-up; tests below it patch the constant (conftest).
        from repro import QueryService
        with pytest.raises(ValueError, match="force"):
            EduceStar(datalog="force")
        with pytest.raises(ValueError, match="force"):
            QueryService(workers=1, datalog="force")

    def test_datalog_min_rows_is_a_constant(self):
        from repro.relational.datalog import (DEFAULT_MIN_ROWS,
                                              DatalogEngine)
        kb = EduceStar()
        with pytest.raises(TypeError, match="min_rows"):
            DatalogEngine(kb.store, kb.machine.reader, min_rows=1)
        assert not hasattr(kb.datalog, "min_rows")
        kb.store_relation("edge", [(1, 2), (2, 3)])
        kb.store_program("reach(X, Y) :- edge(X, Y).\n"
                         "reach(X, Z) :- edge(X, Y), reach(Y, Z).\n")
        decision = kb.explain("reach(1, X)").root.find("decision")
        assert decision.attrs["min_rows"] == DEFAULT_MIN_ROWS
        assert decision.attrs["strategy"] == "topdown"

    def test_session_has_no_global_analysis(self):
        # There is no whole-program analysis: no session caches, counts
        # or displays inferred modes.
        kb = EduceStar()
        kb.consult("p(1).")
        assert not hasattr(kb, "global_analysis")
        assert not any(key.startswith("analysis_global_")
                       for key in kb.counters())
        node = kb.explain("p(X)").root.find("procedure")
        assert not {"call_modes", "success_modes",
                    "determinism"} & set(node.attrs)

    def test_submit_explain_keyword(self):
        from repro import QueryService
        kb = EduceStar()
        with QueryService(kb.store, workers=1) as svc:
            with pytest.raises(TypeError, match="explain"):
                svc.submit("true", explain=True)

    def test_analysis_modes_command(self, capsys):
        from repro.analysis.cli import main
        assert main(["modes"]) == 2
