"""Integration tests for the WAM emulator and its built-ins."""

import pytest

from repro.engine.stats import measure
from repro.errors import (
    EvaluationError,
    ExistenceError,
    InstantiationError,
    PermissionError_,
    PrologError,
    TypeError_,
)
from repro.lang.writer import term_to_text
from repro.terms import Atom


def answers(machine, goal, var="X"):
    return [term_to_text(s[var]) for s in machine.solve(goal)]


def succeeds(machine, goal):
    return machine.solve_once(goal) is not None


class TestFactsAndUnification:
    def test_fact_lookup(self, machine):
        machine.consult("p(a). p(b).")
        assert answers(machine, "p(X)") == ["a", "b"]

    def test_fact_check(self, machine):
        machine.consult("p(a).")
        assert succeeds(machine, "p(a)")
        assert not succeeds(machine, "p(b)")

    def test_structure_unification(self, machine):
        machine.consult("p(f(1, g(2))).")
        sol = machine.solve_once("p(f(X, g(Y)))")
        assert sol["X"] == 1 and sol["Y"] == 2

    def test_structure_mismatch_fails(self, machine):
        machine.consult("p(f(1)).")
        assert not succeeds(machine, "p(g(1))")
        assert not succeeds(machine, "p(f(1, 2))")

    def test_shared_variables(self, machine):
        machine.consult("eq(X, X).")
        assert succeeds(machine, "eq(a, a)")
        assert not succeeds(machine, "eq(a, b)")
        sol = machine.solve_once("eq(f(Y), f(3))")
        assert sol["Y"] == 3

    def test_int_vs_float_do_not_unify(self, machine):
        assert not succeeds(machine, "1 = 1.0")
        assert succeeds(machine, "1.0 = 1.0")

    def test_list_unification(self, machine):
        sol = machine.solve_once("[H|T] = [1,2,3]")
        assert sol["H"] == 1
        assert term_to_text(sol["T"]) == "[2,3]"

    def test_cyclic_safe_same_var(self, machine):
        assert succeeds(machine, "X = X")


class TestBacktrackingAndCut:
    def test_multiple_solutions(self, machine):
        machine.consult("col(r). col(g). col(b).")
        assert answers(machine, "col(X)") == ["r", "g", "b"]

    def test_conjunction_backtracks_left(self, machine):
        machine.consult("n(1). n(2). n(3).")
        sols = [(s["X"], s["Y"]) for s in machine.solve("n(X), n(Y)")]
        assert len(sols) == 9

    def test_cut_prunes_clause_alternatives(self, machine):
        machine.consult("first(X) :- member(X, [a,b,c]), !.")
        assert answers(machine, "first(X)") == ["a"]

    def test_cut_prunes_other_clauses(self, machine):
        machine.consult("p(1) :- !. p(2).")
        assert [s["X"] for s in machine.solve("p(X)")] == [1]

    def test_cut_is_local_to_clause(self, machine):
        machine.consult("""
        q(X) :- p(X).
        q(99).
        p(1) :- !.
        p(2).
        """)
        assert [s["X"] for s in machine.solve("q(X)")] == [1, 99]

    def test_cut_transparent_to_conjunction_after(self, machine):
        machine.consult("t(X, Y) :- member(X, [1,2]), !, member(Y, [a,b]).")
        sols = [(s["X"], str(s["Y"])) for s in machine.solve("t(X, Y)")]
        assert sols == [(1, "a"), (1, "b")]

    def test_fail_forces_backtracking(self, machine):
        machine.consult("p(1). p(2).")
        machine.consult("all :- p(_), fail. all.")
        assert succeeds(machine, "all")


class TestControlConstructs:
    def test_disjunction(self, machine):
        assert answers(machine, "(X = a ; X = b)") == ["a", "b"]

    def test_if_then_else_true(self, machine):
        assert answers(machine, "(1 < 2 -> X = yes ; X = no)") == ["yes"]

    def test_if_then_else_false(self, machine):
        assert answers(machine, "(2 < 1 -> X = yes ; X = no)") == ["no"]

    def test_if_then_commits_to_first_condition_solution(self, machine):
        machine.consult("c(1). c(2).")
        sols = [s["X"] for s in machine.solve("(c(X) -> true ; fail)")]
        assert sols == [1]

    def test_bare_if_then_fails_when_condition_fails(self, machine):
        assert not succeeds(machine, "(fail -> true)")

    def test_negation_as_failure(self, machine):
        machine.consult("p(a).")
        assert succeeds(machine, "\\+ p(b)")
        assert not succeeds(machine, "\\+ p(a)")

    def test_negation_does_not_bind(self, machine):
        machine.consult("p(a).")
        sol = machine.solve_once("\\+ p(zzz), X = done")
        assert str(sol["X"]) == "done"

    def test_nested_control(self, machine):
        goal = "(( 1 > 2 ; 3 > 2 ) -> (X = in ; X = deep) ; X = out)"
        assert answers(machine, goal) == ["in", "deep"]

    def test_call_of_constructed_goal(self, machine):
        machine.consult("p(a).")
        assert succeeds(machine, "G = p(a), call(G)")

    def test_call_n_appends_args(self, machine):
        machine.consult("add(A, B, C) :- C is A + B.")
        sol = machine.solve_once("call(add(1), 2, R)")
        assert sol["R"] == 3

    def test_call_unbound_raises(self, machine):
        with pytest.raises(InstantiationError):
            machine.solve_once("call(G)")

    def test_once_keeps_first_binding(self, machine):
        machine.consult("m(1). m(2).")
        sol = machine.solve_once("once(m(X))")
        assert sol["X"] == 1

    def test_ignore_always_succeeds(self, machine):
        assert succeeds(machine, "ignore(fail)")


class TestArithmetic:
    @pytest.mark.parametrize("expr,value", [
        ("1 + 2", 3),
        ("7 - 10", -3),
        ("3 * 4", 12),
        ("7 // 2", 3),
        ("-7 // 2", -3),       # truncation toward zero
        ("7 mod 3", 1),
        ("-7 mod 3", 2),       # mod follows divisor sign
        ("2 ** 10", 1024.0),
        ("2 ^ 10", 1024),
        ("abs(-5)", 5),
        ("min(3, 7)", 3),
        ("max(3, 7)", 7),
        ("truncate(3.7)", 3),
        ("round(2.5)", 3),
        ("floor(-0.5)", -1),
        ("ceiling(0.1)", 1),
        ("5 /\\ 3", 1),
        ("5 \\/ 3", 7),
        ("5 xor 3", 6),
        ("1 << 4", 16),
        ("gcd(12, 18)", 6),
    ])
    def test_evaluation(self, machine, expr, value):
        sol = machine.solve_once(f"X is {expr}")
        assert sol["X"] == value

    def test_division_exact_stays_int(self, machine):
        assert machine.solve_once("X is 6 / 3")["X"] == 2

    def test_division_inexact_goes_float(self, machine):
        assert machine.solve_once("X is 7 / 2")["X"] == 3.5

    def test_zero_divisor_raises(self, machine):
        with pytest.raises(EvaluationError):
            machine.solve_once("X is 1 / 0")

    def test_unbound_raises(self, machine):
        with pytest.raises(InstantiationError):
            machine.solve_once("X is Y + 1")

    def test_unknown_function_raises(self, machine):
        with pytest.raises(TypeError_):
            machine.solve_once("X is frobnicate(3)")

    def test_comparisons(self, machine):
        assert succeeds(machine, "1 < 2, 2 > 1, 1 =< 1, 2 >= 2")
        assert succeeds(machine, "1 + 1 =:= 2, 1 =\\= 2")
        assert not succeeds(machine, "2 =:= 3")

    def test_pi(self, machine):
        sol = machine.solve_once("X is cos(pi)")
        assert abs(sol["X"] + 1.0) < 1e-12


class TestTermInspection:
    def test_functor_decompose(self, machine):
        sol = machine.solve_once("functor(f(a, b), N, A)")
        assert str(sol["N"]) == "f" and sol["A"] == 2

    def test_functor_construct(self, machine):
        sol = machine.solve_once("functor(T, foo, 3)")
        assert term_to_text(sol["T"]) == "foo(_G1,_G2,_G3)"

    def test_functor_atomic(self, machine):
        sol = machine.solve_once("functor(42, N, A)")
        assert sol["N"] == 42 and sol["A"] == 0

    def test_arg(self, machine):
        assert machine.solve_once("arg(2, f(a, b, c), X)")["X"] is Atom("b")
        assert not succeeds(machine, "arg(9, f(a), _)")

    def test_univ_decompose(self, machine):
        sol = machine.solve_once("f(1, 2) =.. L")
        assert term_to_text(sol["L"]) == "[f,1,2]"

    def test_univ_construct(self, machine):
        sol = machine.solve_once("T =.. [point, 3, 4]")
        assert term_to_text(sol["T"]) == "point(3,4)"

    def test_copy_term_fresh_vars(self, machine):
        sol = machine.solve_once("copy_term(f(X, X, Y), T), T = f(1, A, B)")
        assert sol["A"] == 1  # sharing preserved in the copy

    def test_type_checks(self, machine):
        assert succeeds(machine, "atom(foo), number(1), integer(2), "
                                 "float(1.5), atomic(a), compound(f(x)), "
                                 "callable(g), var(_), nonvar(a)")
        assert not succeeds(machine, "atom(1)")
        assert not succeeds(machine, "var(a)")

    def test_ground(self, machine):
        assert succeeds(machine, "ground(f(1, [a,b]))")
        assert not succeeds(machine, "ground(f(1, [a|_]))")

    def test_is_list(self, machine):
        assert succeeds(machine, "is_list([1,2])")
        assert not succeeds(machine, "is_list([1|_])")


class TestStandardOrder:
    def test_equality_and_inequality(self, machine):
        assert succeeds(machine, "f(X) == f(X)")
        assert succeeds(machine, "f(a) \\== f(b)")

    def test_ordering_chain(self, machine):
        assert succeeds(machine, "1 @< a, a @< f(a), f(a) @< f(a, b)")

    def test_compare(self, machine):
        assert str(machine.solve_once("compare(O, 1, 2)")["O"]) == "<"
        assert str(machine.solve_once("compare(O, b, a)")["O"]) == ">"
        assert str(machine.solve_once("compare(O, x, x)")["O"]) == "="

    def test_not_unify(self, machine):
        assert succeeds(machine, "a \\= b")
        assert not succeeds(machine, "X \\= a")


class TestAllSolutions:
    def test_findall_collects(self, machine):
        machine.consult("p(1). p(2). p(3).")
        sol = machine.solve_once("findall(X, p(X), L)")
        assert term_to_text(sol["L"]) == "[1,2,3]"

    def test_findall_empty_on_failure(self, machine):
        machine.consult("p(1).")
        sol = machine.solve_once("findall(X, (p(X), X > 5), L)")
        assert term_to_text(sol["L"]) == "[]"

    def test_findall_does_not_bind_goal_vars(self, machine):
        machine.consult("p(1). p(2).")
        sol = machine.solve_once("findall(X, p(X), _), var_check(X)"
                                 .replace("var_check(X)", "var(X)"))
        assert sol is not None

    def test_findall_nested(self, machine):
        machine.consult("p(1). p(2). q(a). q(b).")
        sol = machine.solve_once(
            "findall(X-L, (p(X), findall(Y, q(Y), L)), Out)")
        assert term_to_text(sol["Out"]) == "[1-[a,b],2-[a,b]]"

    def test_findall_template_copies(self, machine):
        machine.consult("p(f(1)). p(f(2)).")
        sol = machine.solve_once("findall(g(X), p(f(X)), L)")
        assert term_to_text(sol["L"]) == "[g(1),g(2)]"

    def test_bagof_fails_on_empty(self, machine):
        machine.consult("p(1).")
        assert not succeeds(machine, "bagof(X, (p(X), X > 9), _)")

    def test_setof_sorts_and_dedups(self, machine):
        machine.consult("q(3). q(1). q(3). q(2).")
        sol = machine.solve_once("setof(X, q(X), L)")
        assert term_to_text(sol["L"]) == "[1,2,3]"

    def test_caret_stripped(self, machine):
        machine.consult("r(1, a). r(2, b).")
        sol = machine.solve_once("setof(Y, X^r(X, Y), L)")
        assert term_to_text(sol["L"]) == "[a,b]"

    def test_forall(self, machine):
        machine.consult("n(2). n(4). m(3).")
        assert succeeds(machine, "forall(n(X), 0 =:= X mod 2)")
        assert not succeeds(machine, "forall(m(X), 0 =:= X mod 2)")

    def test_aggregate_all_count(self, machine):
        machine.consult("p(1). p(2). p(3).")
        assert machine.solve_once("aggregate_all(count, p(_), N)")["N"] == 3

    def test_aggregate_all_sum_max(self, machine):
        machine.consult("v(10). v(5). v(20).")
        assert machine.solve_once(
            "aggregate_all(sum(X), v(X), S)")["S"] == 35
        assert machine.solve_once(
            "aggregate_all(max(X), v(X), S)")["S"] == 20


class TestDynamicClauses:
    def test_assert_and_call(self, machine):
        assert succeeds(machine, "assertz(fact(1)), fact(1)")

    def test_asserta_orders_first(self, machine):
        machine.solve_once("assertz(d(1)), asserta(d(0))")
        assert [s["X"] for s in machine.solve("d(X)")] == [0, 1]

    def test_assert_rule(self, machine):
        machine.solve_once("assertz((even(X) :- 0 =:= X mod 2))")
        assert succeeds(machine, "even(4)")
        assert not succeeds(machine, "even(3)")

    def test_retract_removes_first_match(self, machine):
        machine.solve_once("assertz(r(1)), assertz(r(2))")
        assert succeeds(machine, "retract(r(1))")
        assert [s["X"] for s in machine.solve("r(X)")] == [2]

    def test_retract_binds(self, machine):
        machine.solve_once("assertz(r(7))")
        assert machine.solve_once("retract(r(X))")["X"] == 7

    def test_retract_fails_when_no_match(self, machine):
        machine.solve_once("assertz(r(1))")
        assert not succeeds(machine, "retract(r(9))")

    def test_retractall(self, machine):
        machine.solve_once("assertz(s(1)), assertz(s(2)), assertz(t(3))")
        machine.solve_once("retractall(s(_))")
        assert not succeeds(machine, "s(_)")
        assert succeeds(machine, "t(3)")

    def test_clause_inspection(self, machine):
        machine.solve_once("assertz((p(X) :- q(X)))")
        sol = machine.solve_once("clause(p(Z), B)")
        assert term_to_text(sol["B"]) == "q(_G1)"

    def test_cannot_modify_static(self, machine):
        machine.consult("st(1).")
        with pytest.raises(PermissionError_):
            machine.solve_once("assertz(st(2))")

    def test_abolish(self, machine):
        machine.solve_once("assertz(gone(1))")
        machine.solve_once("abolish(gone/1)")
        with pytest.raises(ExistenceError):
            machine.solve_once("gone(_)")

    def test_dynamic_declaration_makes_empty_proc(self, machine):
        machine.solve_once("dynamic(maybe/1)")
        assert not succeeds(machine, "maybe(_)")


class TestAtomsAndStrings:
    def test_atom_codes_both_ways(self, machine):
        sol = machine.solve_once("atom_codes(abc, L)")
        assert term_to_text(sol["L"]) == "[97,98,99]"
        sol = machine.solve_once('atom_codes(A, "xy")')
        assert str(sol["A"]) == "xy"

    def test_atom_chars(self, machine):
        sol = machine.solve_once("atom_chars(ab, L)")
        assert term_to_text(sol["L"]) == "[a,b]"

    def test_atom_length(self, machine):
        assert machine.solve_once("atom_length(hello, N)")["N"] == 5

    def test_atom_concat_forward(self, machine):
        assert str(machine.solve_once(
            "atom_concat(foo, bar, X)")["X"]) == "foobar"

    def test_atom_concat_split_nondeterministic(self, machine):
        sols = [(str(s["A"]), str(s["B"]))
                for s in machine.solve("atom_concat(A, B, ab)")]
        assert sols == [("", "ab"), ("a", "b"), ("ab", "")]

    def test_number_codes(self, machine):
        assert machine.solve_once('number_codes(N, "42")')["N"] == 42

    def test_atom_number(self, machine):
        assert machine.solve_once("atom_number('3.5', N)")["N"] == 3.5
        assert not succeeds(machine, "atom_number(hello, _)")

    def test_char_code(self, machine):
        assert machine.solve_once("char_code(a, X)")["X"] == 97

    def test_term_to_atom(self, machine):
        sol = machine.solve_once("term_to_atom(f(1, X), A)")
        assert str(sol["A"]) == "f(1,_G1)"
        sol = machine.solve_once("term_to_atom(T, 'g(7)')")
        assert term_to_text(sol["T"]) == "g(7)"


class TestListsBuiltins:
    def test_length_of_list(self, machine):
        assert machine.solve_once("length([a,b,c], N)")["N"] == 3

    def test_length_builds_list(self, machine):
        sol = machine.solve_once("length(L, 3)")
        assert term_to_text(sol["L"]) == "[_G1,_G2,_G3]"

    def test_length_partial_list(self, machine):
        sol = machine.solve_once("L = [a|T], length(L, 2)")
        assert term_to_text(sol["L"]) == "[a,_G1]"

    def test_between_enumerates(self, machine):
        assert [s["X"] for s in machine.solve("between(2, 5, X)")] == \
            [2, 3, 4, 5]

    def test_between_checks(self, machine):
        assert succeeds(machine, "between(1, 10, 7)")
        assert not succeeds(machine, "between(1, 10, 70)")

    def test_succ_both_modes(self, machine):
        assert machine.solve_once("succ(3, X)")["X"] == 4
        assert machine.solve_once("succ(X, 4)")["X"] == 3
        assert not succeeds(machine, "succ(_, 0)")

    def test_msort_keeps_duplicates(self, machine):
        sol = machine.solve_once("msort([2,1,2], L)")
        assert term_to_text(sol["L"]) == "[1,2,2]"

    def test_sort_dedups(self, machine):
        sol = machine.solve_once("sort([2,1,2,a,a], L)")
        assert term_to_text(sol["L"]) == "[1,2,a]"

    def test_keysort_stable(self, machine):
        sol = machine.solve_once("keysort([b-1, a-2, b-0], L)")
        assert term_to_text(sol["L"]) == "[a-2,b-1,b-0]"


class TestErrors:
    def test_unknown_procedure(self, machine):
        with pytest.raises(ExistenceError):
            machine.solve_once("no_such_thing(1)")

    def test_unknown_handler_can_supply(self, machine):
        def handler(m, name, arity):
            if name == "supplied":
                return m.define_procedure("supplied", 1,
                                          [m.reader.read_term("supplied(ok)")])
            return None
        machine.unknown_handler = handler
        assert str(machine.solve_once("supplied(X)")["X"]) == "ok"

    def test_redefine_builtin_rejected(self, machine):
        with pytest.raises(PrologError):
            machine.define_procedure("is", 2, [])


class TestRecursion:
    def test_deep_recursion_with_lco(self, machine):
        machine.consult("count(N, N). "
                        "count(I, N) :- I < N, I1 is I + 1, count(I1, N).")
        assert succeeds(machine, "count(0, 50000)")

    def test_naive_reverse(self, machine):
        machine.consult("""
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
        """)
        sol = machine.solve_once("nrev([1,2,3,4,5], R)")
        assert term_to_text(sol["R"]) == "[5,4,3,2,1]"

    def test_mutual_recursion(self, machine):
        machine.consult("""
        even(0).
        even(N) :- N > 0, M is N - 1, odd(M).
        odd(N) :- N > 0, M is N - 1, even(M).
        """)
        assert succeeds(machine, "even(40)")
        assert not succeeds(machine, "odd(40)")

    def test_queens_6(self, machine):
        machine.consult("""
        queens(N, Qs) :- numlist(1, N, Ns), qperm(Ns, Qs, []).
        qperm([], [], _).
        qperm(Ns, [Q|Qs], Placed) :-
            select(Q, Ns, Rest),
            safe(Q, 1, Placed),
            qperm(Rest, Qs, [Q|Placed]).
        safe(_, _, []).
        safe(Q, D, [P|Ps]) :-
            Q =\\= P + D, Q =\\= P - D,
            D1 is D + 1, safe(Q, D1, Ps).
        """)
        assert machine.count_solutions("queens(6, _)") == 4


class TestOutput:
    def test_write_and_nl(self, machine):
        machine.solve_once("write(hello), nl, write(1 + 2)")
        assert "".join(machine.output) == "hello\n1+2"

    def test_writeq_quotes(self, machine):
        machine.solve_once("writeq('a b')")
        assert "".join(machine.output) == "'a b'"

    def test_tab(self, machine):
        machine.solve_once("tab(3)")
        assert "".join(machine.output) == "   "


class TestCounters:
    def test_instruction_count_grows(self, machine):
        machine.consult("p(a).")
        before = machine.instr_count
        machine.solve_once("p(X)")
        assert machine.instr_count > before

    def test_measure_counts_from_zero(self, machine):
        machine.consult("p(a).")
        machine.solve_once("p(_)")
        with measure(machine) as run:
            machine.solve_once("p(_)")
        assert 0 < run["instr_count"] < machine.instr_count

    def test_statistics_builtin(self, machine):
        sol = machine.solve_once("statistics(inferences, N)")
        assert isinstance(sol["N"], int)


# =====================================================================
# Operand binding: a block's constants are bound to heap cells once, when
# the block is built.  A bound constant must keep the identity of its
# source value, not just its equality: 0.0 == -0.0 and 1 == 1.0 in
# Python, but they are four different Prolog constants.
# =====================================================================

#: get_constant / put_constant / unify_constant, each alone in its run
#: and in runs of several
BINDING_PROGRAM = """
z(0.0). z(-0.0).
one(1). one(1.0).
g4(0.0, -0.0, 1, 1.0).
id(X, X).
id8(A, B, C, D, A, B, C, D).
pz(X) :- id(X, -0.0).
p4(A, B, C, D) :- id8(0.0, -0.0, 1, 1.0, A, B, C, D).
sg(g(-0.0)).
sf(f(0.0, -0.0, 1, 1.0)).
"""

#: goal -> the repr of every answer's bindings, in answer order
BINDING_CASES = {
    "findall(_X, z(_X), L)": [["[0.0, -0.0]"]],
    "findall(_X, one(_X), L)": [["[1, 1.0]"]],
    "g4(A, B, C, D)": [["0.0", "-0.0", "1", "1.0"]],
    "g4(-0.0, 0.0, 1, 1.0)": [[]],
    "g4(0.0, -0.0, 1.0, 1)": [],
    "one(1.0)": [[]],
    "pz(X)": [["-0.0"]],
    "p4(A, B, C, D)": [["0.0", "-0.0", "1", "1.0"]],
    "sg(g(X))": [["-0.0"]],
    "sg(T), T = g(X)": [["g(-0.0)", "-0.0"]],
    "sf(f(A, B, C, D))": [["0.0", "-0.0", "1", "1.0"]],
    "sf(T), T = f(A, B, C, D)": [["0.0", "-0.0", "1", "1.0",
                                  "f(0.0, -0.0, 1, 1.0)"]],
}


def _py(term):
    """A surface term as Python values (numbers keep their type)."""
    from repro.terms import Struct
    if isinstance(term, Struct) and term.indicator == (".", 2):
        out = []
        while isinstance(term, Struct) and term.indicator == (".", 2):
            out.append(_py(term.args[0]))
            term = term.args[1]
        return out
    if isinstance(term, Struct):
        return f"{term.name}({', '.join(repr(_py(a)) for a in term.args)})"
    return term


def _binding_answers(solver, goal):
    """Every answer's bound variables, by name, as Python reprs (a
    compound as its text)."""
    from repro.terms import Var
    return [[value if isinstance(value, str) else repr(value)
             for value in (_py(term) for _name, term
                           in sorted(sol.bindings.items())
                           if not isinstance(term, Var))]
            for sol in solver.solve(goal)]


class TestOperandBinding:
    def test_consulted(self):
        from repro.wam.machine import Machine
        machine = Machine()
        machine.consult(BINDING_PROGRAM)
        for goal, expected in BINDING_CASES.items():
            assert _binding_answers(machine, goal) == expected, goal

    def test_stored(self):
        from repro.engine.session import EduceStar
        kb = EduceStar()
        kb.store_program(BINDING_PROGRAM)
        for goal, expected in BINDING_CASES.items():
            assert _binding_answers(kb, goal) == expected, goal

    def test_asserted_and_stored_facts(self):
        from repro.engine.session import EduceStar
        kb = EduceStar()
        kb.solve_once("assertz(dz(0.0)), assertz(dz(-0.0)), "
                      "assertz(dz(1)), assertz(dz(1.0))")
        kb.store_relation("rz", [(0.0,), (-0.0,), (1,), (1.0,)])
        for pred in ("dz", "rz"):
            assert _binding_answers(kb, f"findall(_X, {pred}(_X), L)") == \
                [["[0.0, -0.0, 1, 1.0]"]], pred


WIDE = 80   # more X registers than the machine starts with (64)
WIDE_ARGS = ", ".join(str(i) for i in range(WIDE))
WIDE_VARS = ", ".join(f"V{i}" for i in range(WIDE))
WIDE_PROGRAM = (f"w({WIDE_ARGS}).\n"
                f"wide(L) :- w({WIDE_VARS}), L = [{WIDE_VARS}].\n")


class TestWideRegisters:
    """A clause and a call with more than 64 argument registers."""

    def _check(self, solver, pred="w"):
        sol = solver.solve_once(f"{pred}({WIDE_VARS})")
        assert [sol[f"V{i}"] for i in range(WIDE)] == list(range(WIDE))
        assert solver.solve_once(f"{pred}({WIDE_ARGS})") is not None

    def test_consulted(self):
        from repro.wam.machine import Machine
        machine = Machine()
        machine.consult(WIDE_PROGRAM)
        self._check(machine)
        sol = machine.solve_once("wide(L)")
        assert term_to_text(sol["L"]) == f"[{WIDE_ARGS.replace(' ', '')}]"

    def test_asserted(self):
        from repro.wam.machine import Machine
        machine = Machine()
        machine.solve_once(f"assertz(w({WIDE_ARGS}))")
        self._check(machine)

    def test_stored(self):
        from repro.engine.session import EduceStar
        kb = EduceStar()
        kb.store_program(WIDE_PROGRAM)
        self._check(kb)
        sol = kb.solve_once("wide(L)")
        assert term_to_text(sol["L"]) == f"[{WIDE_ARGS.replace(' ', '')}]"
        kb.store_relation("wr", [tuple(range(WIDE))])
        self._check(kb, "wr")


# =====================================================================
# Counter exactness: the paper's counts are outputs (E1/E7/E9/E14), so
# how the emulator charges them must not move a single one.
# =====================================================================

NREV_PROGRAM = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
"""
QUEENS_PROGRAM = """
queens(N, Qs) :- numlist(1, N, Ns), qperm(Ns, Qs, []).
qperm([], [], _).
qperm(Ns, [Q|Qs], Placed) :-
    select(Q, Ns, Rest),
    safe(Q, 1, Placed),
    qperm(Rest, Qs, [Q|Placed]).
safe(_, _, []).
safe(Q, D, [P|Ps]) :-
    Q =\\= P + D, Q =\\= P - D,
    D1 is D + 1, safe(Q, D1, Ps).
"""
NREV30 = "nrev([" + ",".join(str(i) for i in range(1, 31)) + "], _)"
COUNTER_KEYS = ("instr_count", "data_refs", "cp_refs", "cp_created",
                "backtracks", "calls", "unify_ops")
#: shape -> (solutions, counter deltas in COUNTER_KEYS order)
COUNTER_GOLDEN = {
    "nrev": (1, (5886, 12728, 7, 1, 1, 496, 30)),
    "queens": (4, (27179, 84728, 30562, 1456, 1455, 1611, 713)),
    "mvv": (1, (71868, 188875, 46768, 1114, 2456, 4369, 153)),
}


def _counted(machine, goal):
    before = machine.counters()
    solutions = sum(1 for _ in machine.solve(goal))
    after = machine.counters()
    return solutions, tuple(after[k] - before[k] for k in COUNTER_KEYS)


class TestCounterExactness:
    def test_nrev_and_queens_golden(self):
        from repro.wam.machine import Machine
        machine = Machine()
        machine.consult(NREV_PROGRAM)
        assert _counted(machine, NREV30) == COUNTER_GOLDEN["nrev"]
        machine = Machine()
        machine.consult(QUEENS_PROGRAM)
        assert _counted(machine, "queens(6, _)") == \
            COUNTER_GOLDEN["queens"]

    def test_findall_heavy_mvv_golden(self):
        from repro.engine.session import EduceStar
        from repro.workloads import mvv
        data = mvv.generate(seed=11, scale=0.05)
        kb = mvv.load_educestar(data, EduceStar())
        goal = mvv.class2_queries(data, 1)[0]
        assert goal == "route(stop_0046, stop_0003, 360, Plan)"
        assert _counted(kb.machine, f"findall(P, {goal}, Ps)") == \
            COUNTER_GOLDEN["mvv"]

    def test_statistics_inside_one_query(self):
        from repro.wam.machine import Machine
        machine = Machine()
        machine.consult(NREV_PROGRAM)
        sol = machine.solve_once("statistics(instructions, A), "
                                 "nrev([1,2,3,4,5,6,7,8], _), "
                                 "statistics(instructions, B)")
        assert (sol["A"], sol["B"]) == (7, 553)

    def test_exact_after_interrupt(self):
        """A poll that raises mid-query leaves the counters at exactly
        the instructions that ran, in the machine and the session."""
        from repro.engine.session import EduceStar
        from repro.errors import QueryInterrupted
        kb = EduceStar()
        kb.consult("spin(N) :- between(1, N, X), X < 0. "
                   "loop(N) :- N > 0, M is N - 1, loop(M).")
        machine = kb.machine
        ran = [0]
        for op, handler in list(machine._dispatch.items()):
            def counted(instr, handler=handler):
                ran[0] += 1
                return handler(instr)
            machine._dispatch[op] = counted
        polls = [0]

        def poll(_machine):
            polls[0] += 1
            if polls[0] == 3:
                raise QueryInterrupted("deadline")
        machine.poll_interval = 100
        for goal in ("spin(100000)", "loop(100000)"):
            polls[0] = 0
            before = machine.instr_count
            ran[0] = 0
            machine.poll_hook = poll
            try:
                with pytest.raises(QueryInterrupted):
                    kb.solve_once(goal)
            finally:
                machine.poll_hook = None
            assert machine.instr_count - before == ran[0], goal
            assert kb.counters()["instr_count"] == machine.instr_count
            assert kb.counters()["data_refs"] == machine.data_refs
