"""Meta-goals compiled with their clause, metacalls keyed by shape.

A literal goal argument of ``findall/3``, ``forall/2``,
``aggregate_all/3``, ``once/1``, ... is compiled with its clause into an
aux procedure, so no binding ever compiles code in the read path; a goal
built at run time compiles once per shape; and aux names derive from the
owning procedure, so a store's aux is never shadowed by another
process's.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from repro.engine.educe_baseline import EduceBaseline
from repro.engine.session import EduceStar
from repro.lang.writer import term_to_text
from repro.terms import make_list

from . import oracle as differential

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script: str, **paths) -> str:
    """Run *script* in a fresh interpreter (its own process-wide state)
    with ``PATH_<name>`` set for each keyword; return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    env.update({f"PATH_{k.upper()}": str(v) for k, v in paths.items()})
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


class TestAuxNames:
    """An aux name never collides with an aux a store already holds."""

    STORE_P = """
        import os
        from repro import EduceStar
        kb = EduceStar()
        kb.store_program("p(X) :- ( X = 1 ; X = 2 ).")
        kb.save(os.environ["PATH_DB"])
    """

    def test_consult_after_restart_keeps_stored_aux(self, tmp_path):
        db = tmp_path / "kb.edb"
        _run(self.STORE_P, db=db)
        out = _run("""
            import os
            from repro import EduceStar
            kb = EduceStar.open(os.environ["PATH_DB"])
            kb.consult("q(Y) :- ( Y = a ; Y = b ).")
            print([str(s["X"]) for s in kb.solve("p(X)")],
                  [str(s["Y"]) for s in kb.solve("q(Y)")])
        """, db=db)
        assert out == "['1', '2'] ['a', 'b']"

    def test_assert_after_restart_stores_its_aux(self, tmp_path):
        db = tmp_path / "kb.edb"
        _run(self.STORE_P, db=db)
        asserted = """
            import os
            from repro import EduceStar
            kb = EduceStar.open(os.environ["PATH_DB"])
            kb.assert_external("p(X) :- ( X = 3 ; X = 4 ).")
            print([str(s["X"]) for s in kb.solve("p(X)")])
            kb.save(os.environ["PATH_DB"])
        """
        assert _run(asserted, db=db) == "['1', '2', '3', '4']"
        reopened = """
            import os
            from repro import EduceStar
            kb = EduceStar.open(os.environ["PATH_DB"])
            print([str(s["X"]) for s in kb.solve("p(X)")])
        """
        assert _run(reopened, db=db) == "['1', '2', '3', '4']"

    def test_follower_applies_records_after_local_consult(self, tmp_path):
        db = tmp_path / "primary.edb"
        _run("""
            import os
            from repro import EduceStar
            from repro.edb.store import ExternalStore
            path = os.environ["PATH_DB"]
            store = ExternalStore.open(path)
            store.save(path)              # the follower bootstraps empty
            EduceStar(store=store).store_program(
                "p(X) :- ( X = 1 ; X = 2 ).")   # shipped through the log
        """, db=db)
        out = _run("""
            import os
            from repro import EduceStar
            from repro.replication import Replica
            replica = Replica("r0", os.environ["PATH_DB"],
                              os.environ["PATH_DIR"], start=False)
            try:
                kb = EduceStar(store=replica.store)
                kb.consult("q(Y) :- ( Y = a ; Y = b ).")
                status, records = replica.tailer.poll(None)
                assert replica._apply_batch(records) == "ok", status
                print([str(s["X"]) for s in kb.solve("p(X)")])
            finally:
                replica.shutdown()
        """, db=db, dir=tmp_path / "r0")
        assert out == "['1', '2']"

    def test_asserted_clause_stores_its_aux(self):
        """Another session over the same store runs the asserted clause:
        its aux went to the store with it, not to one machine."""
        kb = EduceStar()
        kb.store_program("p(0).")
        kb.assert_external("p(X) :- ( X = 3 ; X = 4 ).")
        other = EduceStar(store=kb.store)
        assert [s["X"] for s in other.solve("p(X)")] == [0, 3, 4]

    def test_restored_procedure_names_clear_of_stale_aux(self):
        kb = EduceStar()
        kb.store_program("p(X) :- ( X = 1 ; X = 2 ).")
        kb.store.drop_procedure("p", 1)
        kb.store_program("p(X) :- ( X = 3 ; X = 4 ).")
        assert [s["X"] for s in kb.solve("p(X)")] == [3, 4]


LITERAL = """
p(1). p(2). p(3).
q(L, R) :- findall(X, (p(X), X >= L), R).
c(L, N) :- aggregate_all(count, (p(X), X >= L), N).
f(L) :- forall(p(X), X >= L).
o(L, X) :- once((p(X), X >= L)).
"""


class TestNothingCompilesInTheReadPath:
    def test_thousand_bindings_of_literal_meta_goals(self):
        kb = EduceStar()
        kb.consult(LITERAL)
        m = kb.machine
        before = (m.compile_count, len(m.procedures), len(m.dictionary))
        for lo in range(-996, 4):            # 1 000 distinct bindings
            expect = [x for x in (1, 2, 3) if x >= lo]
            assert kb.solve_once(f"q({lo}, R)")["R"] == make_list(expect)
            assert kb.solve_once(f"c({lo}, N)")["N"] == len(expect)
            assert (kb.solve_once(f"f({lo})") is not None) == (lo <= 1)
            once = kb.solve_once(f"o({lo}, X)")
            assert (once["X"] if once else None) == (
                expect[0] if expect else None)
        assert (m.compile_count, len(m.procedures),
                len(m.dictionary)) == before

    def test_run_time_goal_compiles_once_per_shape(self):
        kb = EduceStar()
        kb.consult("p(1). p(2). p(3). "
                   "t(L, R) :- G = (p(X), X >= L), findall(X, G, R).")
        before = kb.machine.compile_count
        for lo in range(-996, 4):            # 1 000 values of L
            expect = [x for x in (1, 2, 3) if x >= lo]
            assert kb.solve_once(f"t({lo}, R)")["R"] == make_list(expect)
        assert kb.machine.compile_count - before == 1

    def test_mvv_goal_on_a_fresh_session_compiles_nothing(self):
        from repro.workloads import mvv
        data = mvv.generate(seed=11, scale=0.05)
        stored = EduceStar()
        stored.store_relation("location2", data.location2,
                              mvv.LOCATION2_TYPES)
        stored.store_relation("schedule3", data.schedule3,
                              mvv.SCHEDULE3_TYPES)
        stored.store_relation("schedule2", data.schedule2,
                              mvv.SCHEDULE2_TYPES)
        stored.store_program(mvv.RULES)
        goal = mvv.class2_queries(data, 1)[0]
        fresh = EduceStar(store=stored.store)
        answers = {term_to_text(s["Plan"]) for s in fresh.solve(goal)}
        assert answers and answers == {
            term_to_text(s["Plan"])
            for s in mvv.load_educestar(data).solve(goal)}
        assert fresh.machine.compile_count == 0


SEMANTICS = """
p(1). p(2). p(3).
r(1, a). r(2, b). r(2, c).
cut_findall(L) :- findall(X, (p(X), !), L).
cut_forall :- forall(p(X), (X > 0, !)).
cut_once(X) :- once((p(X), !)).
cut_call :- call((!, fail ; true)).
cut_call_else(X) :- call((p(X), ! ; X = 0)).
nested(R) :- findall(X-L, (p(X), findall(Y, (p(Y), Y > X), L)), R).
shared(X, L, M) :- findall(X, (p(X), X > 1), L), X = 9, M = X.
unshared(L) :- findall(a, (p(_), r(_, Z), atom(Z)), L).
raises(L) :- findall(X, (p(X), X > foo), L).
bag(L) :- bagof(X, Y^(r(X, Y), atom(Y)), L).
set(L) :- setof(X-Y, Z^(r(X, Y), Z = Y), L).
count(N) :- aggregate_all(count, (p(X), X > 1), N).
sum(S) :- aggregate_all(sum(X), (p(X), X < 3), S).
ign :- ignore((p(X), X > 5)).
neg(X) :- p(X), \\+ (r(X, Y), Y == b).
"""

SEMANTIC_GOALS = ["cut_findall(L)", "cut_forall", "cut_once(X)", "cut_call",
                  "cut_call_else(X)", "nested(R)", "shared(X, L, M)",
                  "unshared(L)", "raises(L)", "bag(L)", "set(L)",
                  "count(N)", "sum(S)", "ign", "neg(X)"]


def _answers(engine, goal):
    return differential.answers(engine, goal)[0]


def _engine(how):
    if how == "baseline":
        engine = EduceBaseline()
        engine.consult(SEMANTICS)
        return engine
    engine = EduceStar()
    getattr(engine, how)(SEMANTICS)
    return engine


#: answers of the goals the interpreter has no built-ins for
PINNED = {"bag(L)": Counter({"L=[1,2,2]": 1}),
          "set(L)": Counter({"L=[1-a,2-b,2-c]": 1}),
          "count(N)": Counter({"N=2": 1}), "sum(S)": Counter({"S=3": 1}),
          "ign": Counter({"": 1})}


@pytest.fixture(scope="module")
def oracle():
    """The ``EduceBaseline`` interpreter's answers, and PINNED."""
    engine = _engine("baseline")
    return {goal: PINNED.get(goal) or _answers(engine, goal)
            for goal in SEMANTIC_GOALS}


class TestMetaGoalSemantics:
    @pytest.mark.parametrize("how", ["consult", "store_program"])
    def test_matches_the_interpreter(self, how, oracle):
        """The differential oracle's rule (tests/oracle.py): answer
        multisets equal the interpreter's."""
        engine = _engine(how)
        for goal in SEMANTIC_GOALS:
            assert differential.disagreement(
                oracle[goal], _answers(engine, goal), False) is None, goal

    def test_oracle_pins_the_cut_cases(self, oracle):
        assert oracle["cut_findall(L)"] == Counter({"L=[1]": 1})
        assert oracle["cut_forall"] == Counter({"": 1})
        assert oracle["cut_once(X)"] == Counter({"X=1": 1})
        assert oracle["cut_call"] == Counter()
        assert oracle["cut_call_else(X)"] == Counter({"X=1": 1})
        assert oracle["shared(X, L, M)"] == Counter(
            {"L=[2,3], M=9, X=9": 1})
        assert list(oracle["raises(L)"]) == ["error TypeError_"]

    def test_run_time_goals_keep_their_atom_goals(self):
        """An atom in a goal position of ``,``/``;``/``->`` — ``!``
        included — is part of the shape, never a parameter: the same
        session answers each goal by its own code."""
        kb = EduceStar()
        kb.consult("p(1). p(2). p(3). all(G, L) :- findall(X-G, G, L).")
        cases = [("(p(X), !)", "[1]"), ("(p(X), true)", "[1,2,3]"),
                 ("(p(X) -> true ; fail)", "[1]"),
                 ("(p(X) ; fail)", "[1,2,3]"), ("(fail ; p(X))", "[1,2,3]"),
                 ("(p(X), X >= 2)", "[2,3]"), ("(p(X), X >= 3)", "[3]")]
        for _round in range(2):
            for goal, expect in cases:
                found = kb.solve_once(f"G = {goal}, findall(X, G, L)")
                assert term_to_text(found["L"]) == expect, goal

    def test_run_time_goal_over_a_cyclic_term(self):
        """A cyclic term in a run-time goal is passed whole: the goal sees
        the term itself, not a copy cut at its back edge."""
        kb = EduceStar()
        assert kb.solve_once("X = f(X), G = (Z = X, true), call(G), "
                             "Z = f(Y), Y = g") is None
        found = kb.solve_once("X = f(a, X), G = (Z = X, true), call(G), "
                              "Z = f(_, f(B, _))")
        assert term_to_text(found["B"]) == "a"
