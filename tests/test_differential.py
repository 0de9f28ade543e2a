"""Hand-written programs through the differential oracle
(``tests/oracle.py``): consulted and stored, each answers as the
resolution interpreter does — the two share no execution code
(tagged-cell heap and compiled code against surface terms and clause
scanning), so agreement pins down the semantics of each built-in and
control construct below.  The generated lattice is ``test_oracle.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from . import oracle

PROGRAMS = [
    # (program, goal, the query variable the test id names)
    ("p(a). p(b). p(c).", "p(X)", "X"),
    ("e(1,2). e(2,3). e(3,4). t(X,Y) :- e(X,Y). "
     "t(X,Y) :- e(X,Z), t(Z,Y).", "t(1, X)", "X"),
    ("f(0, 1) :- !. f(N, F) :- N > 0, M is N - 1, f(M, G), "
     "F is N * G.", "f(6, X)", "X"),
    ("m(X) :- member(X, [q,w,e]).", "m(X)", "X"),
    ("d(X) :- (X = 1 ; X = 2 ; X = 3).", "d(X)", "X"),
    ("g(X) :- between(1, 4, X), 0 =:= X mod 2.", "g(X)", "X"),
    ("h(X) :- \\+ member(X, [a]), X = b.", "h(X)", "X"),
    ("i(L) :- findall(N, between(1, 3, N), L).", "i(X)", "X"),
    ("j(X, Y) :- member(X, [1,2]), member(Y, [a,b]).", "j(X, Y)", "X"),
    ("k(R) :- append(A, B, [1,2]), R = A-B.", "k(X)", "X"),
    ("c1(X) :- member(X, [1,2,3]), X > 1, !.", "c1(X)", "X"),
    ("n(X) :- (member(X, [5,6]) -> true ; X = none).", "n(X)", "X"),
    ("s(R) :- msort([c,a,b,a], R).", "s(X)", "X"),
    ("u(R) :- f(1, 2) =.. R.", "u(X)", "X"),
    ("w(R) :- functor(R, point, 2).", "w(X)", "X"),
    ("o(X) :- once(member(X, [p,q])).", "o(X)", "X"),
    ("fa(yes) :- forall(member(X, [2,4]), 0 =:= X mod 2).",
     "fa(X)", "X"),
    ("sc(X) :- succ(4, X).", "sc(X)", "X"),
    ("gr(X) :- (ground(f(1)) -> X = g ; X = ng).", "gr(X)", "X"),
    ("ac(L) :- atom_codes(hi, L).", "ac(X)", "X"),
    ("al(N) :- atom_length(hello, N).", "al(X)", "X"),
]


@pytest.mark.parametrize("program,goal,var", PROGRAMS)
def test_engines_agree(program, goal, var):
    oracle.check_text(program, [goal])


_consts = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=40, deadline=None)
@given(
    facts=st.lists(st.tuples(_consts, _consts), min_size=1, max_size=12),
    probe=_consts,
)
def test_random_graph_queries_agree(facts, probe):
    program = "".join(f"edge({x}, {y}).\n" for x, y in
                      dict.fromkeys(facts))
    program += """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- edge(X, Z), Z \\== Y, reach(Z, Y).
    """
    oracle.check_text(program, [f"findall(Y, edge({probe}, Y), L)"])


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.integers(-20, 20), min_size=0, max_size=8))
def test_list_programs_agree(items):
    lst = "[" + ",".join(map(str, items)) + "]"
    oracle.check_text("", [f"msort({lst}, R)", f"reverse({lst}, R)",
                           f"length({lst}, R)",
                           f"findall(X, member(X, {lst}), R)"])


@settings(max_examples=30, deadline=None)
@given(a=st.integers(-50, 50), b=st.integers(1, 50))
def test_arithmetic_agrees(a, b):
    oracle.check_text("", [f"R is {a} + {b} * 2", f"R is {a} mod {b}",
                           f"R is {a} // {b}",
                           f"R is abs({a}) - max({a}, {b})"])
