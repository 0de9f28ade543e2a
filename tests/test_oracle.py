"""The differential oracle over the configuration lattice
(``tests/oracle.py``): every generated case, in every way Educe* can
answer it, answers as the resolution interpreter does.

Seeds default to 4 and can be raised with ``ORACLE_SEEDS=n`` (the
``datalog`` CI job runs 100).  One subprocess per run answers every
seed's saved store in a second process.
"""

import os

import pytest

from repro import EduceStar
from repro.edb.store import DERIVED
from repro.engine.interpreter import Interpreter
from repro.errors import PermissionError_
from repro.wam.machine import Machine

from . import oracle

SEEDS = int(os.environ.get("ORACLE_SEEDS", "4"))

STORED = [name for name, config in oracle.CONFIGS.items()
          if config.get("load") != "consult"]
DECLARED = [name for name in STORED
            if oracle.CONFIGS[name].get("layout") == "declared"]


@pytest.fixture(scope="module")
def saved():
    """Case name -> the store file its ``durable`` run left, for the
    second process."""
    return {}


@pytest.mark.parametrize("seed", range(SEEDS))
def test_every_configuration_answers_as_the_interpreter(seed, tmp_path,
                                                       saved):
    case = oracle.generate(seed)
    runs = oracle.check(case, oracle.CONFIGS, str(tmp_path))
    saved[case.name] = str(tmp_path / "durable" / "kb.edb")

    # the lattice is the one it names: bottom-up where it is allowed ...
    for name, run in runs.items():
        went_bottom_up = any(bu for _goal, _found, bu in run.results)
        assert went_bottom_up == oracle.CONFIGS[name].get(
            "bottom_up", False), name
    # ... and every facts layout, before and after a re-cluster
    for name in STORED:
        first, last = runs[name].origins[0], runs[name].origins[-1]
        if name in DECLARED:
            assert set(first.values()) == set(last.values()) == {
                "declared"}, name
            assert runs[name].reclusters == 0, name
        else:
            assert (first["w"], first["m"]) == (DERIVED, "default"), name
            assert (last["w"], last["m"]) == ("default", DERIVED), name
            assert runs[name].reclusters >= 2, name


def test_dropping_past_compaction_keeps_every_clause(tmp_path, saved):
    """Dropping 18 of 30 stored procedures deletes 360 of 600 clauses,
    past ``BangGrid.compact_every``; every re-stored clause answers."""
    case = oracle.compaction_case()
    runs = oracle.check(case, ["stored", "reopened", "durable"],
                        str(tmp_path))
    assert runs["stored"].compactions > 0
    saved[case.name] = str(tmp_path / "durable" / "kb.edb")


def test_a_second_process_answers_as_the_interpreter(tmp_path, saved):
    """Every seed's store and the compaction case, as a ``durable``
    session left them (the runs above, when they ran), answered by one
    fresh process."""
    cases = [oracle.generate(seed) for seed in range(SEEDS)]
    cases.append(oracle.compaction_case())
    jobs, wanted = [], []
    for case in cases:
        if case.name not in saved:
            oracle.run(case, "durable", str(tmp_path / case.name))
            saved[case.name] = str(tmp_path / case.name / "kb.edb")
        goals = case.rounds[-1][1]
        jobs.append((saved[case.name], goals))
        wanted.append(oracle.expected(case)[-2 * len(goals):-len(goals)])
    for case, want, got in zip(cases, wanted, oracle.second_process(jobs)):
        oracle.assert_agree(want, got, f"{case.name} [second process]")


# =====================================================================
# Defects the oracle found, pinned by name
# =====================================================================

@pytest.mark.parametrize("make", [Machine, EduceStar, Interpreter])
def test_a_consulted_dynamic_procedure_takes_writes(make):
    """``:- dynamic`` makes a procedure the same text defines writable;
    it was left static when its clauses came with the declaration."""
    engine = make()
    engine.consult(":- dynamic q/1.\nq(0).")
    assert engine.solve_once("assertz(q(1))") is not None
    assert engine.solve_once("retract(q(0))") is not None
    assert [oracle.answer_text(getattr(s, "bindings", s))
            for s in engine.solve("q(X)")] == ["X=1"]


@pytest.mark.parametrize("make", [Machine, EduceStar, Interpreter])
def test_a_later_section_adds_to_a_procedure(make):
    """Clauses after a goal directive follow the procedure's earlier
    clauses; they replaced them."""
    engine = make()
    engine.consult("p(1).\n:- true.\np(2).")
    assert [oracle.answer_text(getattr(s, "bindings", s))
            for s in engine.solve("p(X)")] == ["X=1", "X=2"]


@pytest.mark.parametrize("make", [Machine, EduceStar, Interpreter])
def test_a_procedure_declared_a_section_earlier_stays_dynamic(make):
    """``:- dynamic`` before a goal directive keeps the clauses after it
    writable; they came back static."""
    engine = make()
    engine.consult(":- dynamic q/1.\n:- true.\nq(1).")
    assert engine.solve_once("assertz(q(2))") is not None
    assert [oracle.answer_text(getattr(s, "bindings", s))
            for s in engine.solve("q(X)")] == ["X=1", "X=2"]


def test_a_stored_program_adds_later_sections_to_the_stored_procedure():
    """``store_program`` appends a later section's clauses to the
    procedure it stored; it refused them (the relation existed), and
    the goal between them sees only the clauses before it."""
    oracle.check_text("p(1).\n:- p(1), \\+ p(2).\np(2).\n"
                      "r(X) :- p(X).\n:- true.\nr(3).",
                      ["p(X)", "r(X)", "r(3)"])
    kb = EduceStar()
    kb.store_program("p(1).\n:- true.\np(2).")
    assert kb.store.lookup("p", 1).nclauses == 2


@pytest.mark.parametrize("called", [True, False])
@pytest.mark.parametrize("write", ["assertz(counter(1))",
                                   "asserta(counter(1))",
                                   "retract(counter(0))",
                                   "retractall(counter(5))"])
def test_a_stored_procedure_refuses_main_memory_writes(write, called):
    """A write to a stored procedure from a goal is a typed error that
    names the procedure and the store's own writes; it was lost (after
    a call) or hid the stored clauses (before one)."""
    kb = EduceStar()
    kb.store_program(":- dynamic counter/1.\ncounter(0).")
    if called:
        assert kb.count_solutions("counter(X)") == 1
    with pytest.raises(PermissionError_,
                       match="counter/1.*assert_external.*retract_clause"):
        kb.solve_once(write)
    assert [s["X"] for s in kb.solve("counter(X)")] == [0]


@pytest.mark.parametrize("make", [Machine, Interpreter])
def test_an_arrow_in_a_left_disjunct_cuts_only_its_else(make):
    """``((C -> T ; E) ; F)``: the arrow commits to T over E, never
    over F (the compiler once flattened F under the arrow's cut)."""
    engine = make()
    engine.consult("s(X) :- ((true -> X = 1 ; X = 2) ; X = 3).\n"
                   "t(X) :- ((X = 1 ; (true -> X = 2 ; X = 9)) ; X = 3).")
    for goal in ("s(X)", "t(X)"):
        found = [oracle.answer_text(getattr(s, "bindings", s))
                 for s in engine.solve(goal)]
        assert found == (["X=1", "X=3"] if goal == "s(X)"
                         else ["X=1", "X=2", "X=3"]), goal


@pytest.mark.parametrize("make", [Machine, Interpreter])
def test_retract_matches_a_clause_body_as_written(make):
    """``retract((H :- A, B, C))`` finds the clause written that way
    (its body was rebuilt left-nested), and ``retract(H)`` finds
    facts only."""
    engine = make()
    engine.consult(":- dynamic r/1.\n"
                   "r(X) :- X = 1, X = 2, X = 3.\nr(a).")
    assert engine.solve_once("retract(r(X))") is not None
    assert engine.solve_once("retract(r(_))") is None
    assert engine.solve_once(
        "retract((r(X) :- X = 1, X = 2, X = 3))") is not None
