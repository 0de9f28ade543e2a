"""The one code shape the compiler emits, pinned.

* golden-file listings: the disassembly of a dozen representative
  procedures (facts, structures, lists, cut, indexing on constants and
  structures), regenerated with ``REPRO_REGEN_GOLDEN=1``;
* pinned answers for representative goals of every
  ``tests/corpus/*.pl`` program, and every corpus procedure's open goal
  answered alike by the WAM and the resolution interpreter;
* pinned answers for the E1 (MVV), E7 (choice points) and E8 (EDB
  rules) workloads.
"""

import os
import pathlib

import pytest

from repro import EduceStar, term_to_text
from repro.engine.interpreter import Interpreter
from repro.wam.debugger import disassemble
from repro.wam.machine import Machine

TESTS_DIR = pathlib.Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
GOLDEN_DIR = CORPUS_DIR / "golden"


def collect(engine, goal, limit=50):
    """``(rendered answers in order, exception class name or None)``;
    a WAM answer is a :class:`Solution`, an interpreter answer a dict."""
    rendered, err = [], None
    try:
        for sol in engine.solve(goal, limit=limit):
            bindings = getattr(sol, "bindings", sol)
            rendered.append(tuple(sorted(
                (name, term_to_text(value))
                for name, value in bindings.items())))
    except Exception as exc:
        err = type(exc).__name__
    return rendered, err


def consulted_procedures(machine, text):
    """Consult *text*; return its procedures sorted by indicator."""
    before = set(machine.procedures)
    machine.consult(text)
    fresh = [proc for pid, proc in machine.procedures.items()
             if pid not in before and not proc.name.startswith("$")]
    return sorted(fresh, key=lambda p: (p.name, p.arity))


def open_goal(name, arity):
    if arity == 0:
        return name
    return f"{name}({', '.join(f'Z{i}' for i in range(arity))})"


# =====================================================================
# Golden-file listings
# =====================================================================

GOLDEN_PROGRAM = """
facts3(a, b, c).
facts3(d, e, f).

point(p(1, 2, 3)).
point(p(4, 5, 6)).

headtail([H|T], H, T).

callee(A, B, f(A, B)).
caller(X, R) :- callee(X, k, R).

agetab(alice, 30).
agetab(bob, 31).
agetab(carol, 32).

road(paris, lyon).
road(paris, nice).
road(lyon, nice).

member2(X, [X|_]).
member2(X, [_|T]) :- member2(X, T).

nrev2([], []).
nrev2([H|T], R) :- nrev2(T, RT), append(RT, [H], R).

classify2(N, neg) :- N < 0, !.
classify2(0, zero) :- !.
classify2(_, pos).

zip2([], [], []).
zip2([X|Xs], [Y|Ys], [X-Y|Zs]) :- zip2(Xs, Ys, Zs).

weekend2(sat).
weekend2(sun).
"""

GOLDEN_PROCEDURES = [
    ("facts3", 3), ("point", 1), ("headtail", 3), ("callee", 3),
    ("caller", 2), ("agetab", 2), ("road", 2), ("member2", 2),
    ("nrev2", 2), ("classify2", 2), ("zip2", 3), ("weekend2", 1),
]


class TestGoldenListings:
    @pytest.mark.parametrize(
        "name,arity", GOLDEN_PROCEDURES,
        ids=[f"{n}_{a}" for n, a in GOLDEN_PROCEDURES])
    def test_listing_matches_golden(self, name, arity):
        machine = Machine()
        machine.consult(GOLDEN_PROGRAM)
        listing = disassemble(machine, name, arity) + "\n"
        path = GOLDEN_DIR / f"{name}_{arity}.txt"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(listing, encoding="utf-8")
            return
        assert path.exists(), \
            f"{path} missing — regenerate with REPRO_REGEN_GOLDEN=1"
        assert listing == path.read_text(encoding="utf-8"), (
            f"{name}/{arity} listing changed; review the diff and "
            "regenerate with REPRO_REGEN_GOLDEN=1 if intended")


# =====================================================================
# Corpus answers
# =====================================================================

def _corpus_files():
    return sorted(CORPUS_DIR.glob("*.pl"))


# pinned answers for representative corpus goals (rendered bindings)
PINNED = {
    "indexing_shapes.pl": [
        ("dispatch(b, R)", [(("R", "const_b"),)]),
        ("dispatch(X, int_42)", [(("X", "42"),)]),
        ("only(two, N)", [(("N", "2"),)]),
        ("any(known, R)",
         [(("R", "var_clause(known)"),), (("R", "const"),)]),
    ],
    "cut_negation.pl": [
        ("classify(-5, R)", [(("R", "neg"),)]),
        ("classify(0, R)", [(("R", "zero"),)]),
        ("classify(7, R)", [(("R", "pos"),)]),
        ("guard(13, R)", [(("R", "rejected"),)]),
        ("guard(1, R)", [(("R", "ok"),)]),
    ],
    "disjunction.pl": [
        ("kind(sat, K)", [(("K", "rest"),)]),
        ("kind(mon, K)", [(("K", "work"),)]),
        ("nested(a, Y)", [(("Y", "1"),), (("Y", "2"),)]),
    ],
    "deep_structures.pl": [
        ("sumtree(node(leaf(1), leaf(2)), S)", [(("S", "3"),)]),
        ("build(3, T)", [(("T", "node(node(node(leaf(0),leaf(0)),"
                          "node(leaf(0),leaf(0))),node(node(leaf(0),"
                          "leaf(0)),node(leaf(0),leaf(0))))"),)]),
    ],
}


class TestCorpusAnswers:
    @pytest.mark.parametrize(
        "path", _corpus_files(), ids=lambda p: p.name)
    def test_corpus_answers(self, path):
        text = path.read_text(encoding="utf-8")
        machine = Machine()
        procs = consulted_procedures(machine, text)
        assert procs, f"{path.name}: no procedures consulted"
        for goal, expected in PINNED.get(path.name, ()):
            got, err = collect(machine, goal)
            assert err is None and got == expected, (
                f"{path.name}: {goal} gave {(got, err)}, "
                f"pinned {expected}")
        interpreter = Interpreter()
        interpreter.consult(text)
        for proc in procs:
            goal = open_goal(proc.name, proc.arity)
            assert collect(machine, goal) == collect(interpreter, goal), \
                f"{path.name}: {goal} differs from the interpreter"


# =====================================================================
# Workload answers: E1 (MVV), E7 (choice points), E8 (EDB rules)
# =====================================================================

E7_NONDET_PROGRAM = """
color(r). color(g). color(b). color(y).
adj(1,2). adj(1,3). adj(2,3). adj(2,4). adj(3,4).
ok(A-CA, B-CB) :- (adj(A,B) ; adj(B,A)), !, CA \\== CB.
ok(_, _).
colouring([C1,C2,C3,C4]) :-
    color(C1), color(C2), color(C3), color(C4),
    ok(1-C1, 2-C2), ok(1-C1, 3-C3), ok(2-C2, 3-C3),
    ok(2-C2, 4-C4), ok(3-C3, 4-C4).
"""

E8_PROGRAM = """
tree_sum(leaf(V), V).
tree_sum(node(L, R), S) :-
    tree_sum(L, SL), tree_sum(R, SR), S is SL + SR.

build_tree(0, leaf(1)) :- !.
build_tree(N, node(L, R)) :-
    N1 is N - 1, build_tree(N1, L), build_tree(N1, R).
"""


class TestWorkloadAnswers:
    def test_e1_mvv_queries_answer(self):
        from repro.workloads import mvv
        data = mvv.generate(seed=11, scale=0.12)
        queries = mvv.class1_queries(data, 4) + mvv.class2_queries(data, 3)
        session = mvv.load_educestar(data)
        results = [collect(session, q) for q in queries]
        assert all(err is None for _, err in results)
        assert any(answers for answers, _ in results)

    def test_e7_colouring_unindexed(self):
        machine = Machine(index=False)
        machine.consult(E7_NONDET_PROGRAM)
        answers, err = collect(machine, "colouring(C)", limit=40)
        assert len(answers) == 40 and err is None

    def test_e8_stored_rules(self):
        star = EduceStar()
        star.store_program(E8_PROGRAM)
        answers, err = collect(
            star, "build_tree(7, T), tree_sum(T, S)", limit=1)
        assert err is None and dict(answers[0])["S"] == "128"
