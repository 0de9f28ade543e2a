"""Tests for the resolution interpreter (the Educe baseline engine)."""

import pytest

from repro.engine.interpreter import Interpreter
from repro.errors import ExistenceError, InstantiationError
from repro.lang.writer import term_to_text


@pytest.fixture
def interp():
    return Interpreter()


def answers(interp, goal, var="X"):
    return [term_to_text(b[var]) for b in interp.solve(goal)]


class TestResolution:
    def test_facts(self, interp):
        interp.consult("p(a). p(b).")
        assert answers(interp, "p(X)") == ["a", "b"]

    def test_rules(self, interp):
        interp.consult("""
        parent(t, b). parent(b, a).
        anc(X, Y) :- parent(X, Y).
        anc(X, Y) :- parent(X, Z), anc(Z, Y).
        """)
        assert answers(interp, "anc(t, X)") == ["b", "a"]

    def test_clause_renaming_isolated(self, interp):
        interp.consult("id(X, X).")
        assert interp.solve_once("id(1, Y), id(2, Z)") is not None

    def test_unknown_predicate_raises(self, interp):
        with pytest.raises(ExistenceError):
            interp.solve_once("nothing(1)")

    def test_unbound_goal_raises(self, interp):
        with pytest.raises(InstantiationError):
            interp.solve_once("G")


class TestControl:
    def test_cut_in_clause(self, interp):
        interp.consult("f(1) :- !. f(2).")
        assert answers(interp, "f(X)") == ["1"]

    def test_cut_after_generator(self, interp):
        interp.consult("g(X) :- member(X, [a,b,c]), !.")
        assert answers(interp, "g(X)") == ["a"]

    def test_cut_local_to_called_predicate(self, interp):
        interp.consult("""
        outer(X) :- inner(X).
        outer(99).
        inner(1) :- !.
        inner(2).
        """)
        assert answers(interp, "outer(X)") == ["1", "99"]

    def test_if_then_else(self, interp):
        assert answers(interp, "(1 < 2 -> X = y ; X = n)") == ["y"]
        assert answers(interp, "(2 < 1 -> X = y ; X = n)") == ["n"]

    def test_disjunction(self, interp):
        assert answers(interp, "(X = 1 ; X = 2)") == ["1", "2"]

    def test_negation(self, interp):
        interp.consult("p(a).")
        assert interp.solve_once("\\+ p(b)") is not None
        assert interp.solve_once("\\+ p(a)") is None

    def test_call_with_extra_args(self, interp):
        interp.consult("add(A, B, C) :- C is A + B.")
        assert interp.solve_once("call(add(1), 2, R)")["R"] == 3


class TestBuiltins:
    def test_arith(self, interp):
        assert interp.solve_once("X is 2 + 3 * 4")["X"] == 14

    def test_comparisons(self, interp):
        assert interp.solve_once("1 < 2, 3 >= 3, 1 =\\= 2") is not None

    def test_unify_not_unify(self, interp):
        assert interp.solve_once("f(X) = f(1)")["X"] == 1
        assert interp.solve_once("a \\= b") is not None

    def test_term_order(self, interp):
        assert interp.solve_once("a @< f(b), 1 @< a") is not None

    def test_type_tests(self, interp):
        assert interp.solve_once(
            "atom(a), integer(1), var(_), compound(f(x))") is not None

    def test_functor_arg_univ(self, interp):
        assert interp.solve_once("functor(f(a, b), f, 2)") is not None
        assert str(interp.solve_once("arg(1, f(x), A)")["A"]) == "x"
        assert term_to_text(
            interp.solve_once("f(1) =.. L")["L"]) == "[f,1]"

    def test_findall(self, interp):
        interp.consult("n(1). n(2).")
        out = interp.solve_once("findall(X, n(X), L)")
        assert term_to_text(out["L"]) == "[1,2]"

    def test_between(self, interp):
        assert [b["X"] for b in interp.solve("between(1, 3, X)")] == \
            [1, 2, 3]

    def test_assert_retract(self, interp):
        interp.solve_once("assertz(d(1))")
        assert interp.solve_once("d(1)") is not None
        assert interp.solve_once("retract(d(1))") is not None
        assert interp.solve_once("d(_)") is None

    def test_sort_msort(self, interp):
        assert term_to_text(
            interp.solve_once("msort([2,1,2], L)")["L"]) == "[1,2,2]"
        assert term_to_text(
            interp.solve_once("sort([2,1,2], L)")["L"]) == "[1,2]"

    def test_length(self, interp):
        assert interp.solve_once("length([a,b], N)")["N"] == 2
        assert term_to_text(
            interp.solve_once("length(L, 2)")["L"]) == "[_G1,_G2]"

    def test_library_predicates_available(self, interp):
        assert term_to_text(interp.solve_once(
            "append([1], [2], L)")["L"]) == "[1,2]"
        assert term_to_text(interp.solve_once(
            "reverse([1,2,3], R)")["R"]) == "[3,2,1]"


class TestDirectives:
    def test_directives_are_run_not_asserted(self, interp):
        interp.consult(":- dynamic seen/1.\n"
                       "q(1). q(2).\n"
                       ":- op(700, xfx, ===>).\n"
                       "rule(a ===> b).\n"
                       ":- q(X), X > 1, assertz(seen(X)).\n")
        assert (":-", 1) not in interp.database
        assert answers(interp, "seen(X)") == ["2"]
        assert answers(interp, "rule(X ===> b)") == ["a"]

    def test_declared_predicate_fails_instead_of_raising(self, interp):
        interp.consult(":- dynamic seen/1, later/2.")
        assert interp.solve_once("seen(_)") is None
        assert interp.solve_once("later(_, _)") is None
        with pytest.raises(ExistenceError):
            interp.solve_once("never_declared(_)")

    def test_failing_directive_raises(self, interp):
        from repro.errors import PrologError
        with pytest.raises(PrologError, match="directive failed"):
            interp.consult("d(1).\n:- d(2).")
        assert interp.solve_once("d(1)") is not None


class TestCountersAndHook:
    def test_inference_counter(self, interp):
        interp.consult("p(a).")
        before = interp.inferences
        interp.solve_once("p(_)")
        assert interp.inferences > before

    def test_fetch_hook_supplies_transient_clauses(self, interp):
        from repro.lang.reader import read_terms
        calls = []

        def hook(i, name, arity, goal):
            if name == "virtual":
                calls.append(name)
                return read_terms("virtual(supplied).")
            return None

        interp.fetch_hook = hook
        assert str(interp.solve_once("virtual(X)")["X"]) == "supplied"
        # Transient: fetched again on every call (Educe behaviour §2).
        interp.solve_once("virtual(_)")
        assert len(calls) == 2
        assert interp.erases >= 2
