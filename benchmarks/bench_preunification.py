"""E9 — pre-unification depth ablation (paper §4).

"At the time of writing, we have not yet established a definitive
strategy for deciding how much of the code should be successfully
executed, before a clause is selected for refined processing.  This we
believe is a matter for empirical experimentation, still to be done."

This is that experiment.  A procedure with many clauses whose heads
agree at the top level but differ in nested arguments is queried at the
two filter depths:

* ``none`` — attribute filter only: every top-level-compatible clause is
  loaded and tried by the emulator;
* ``full`` — complete head prefix, run on every call: only truly
  unifiable clauses reach the emulator.

Every goal's answer is checked, in every round, at every depth.
"""

import pytest

from repro.engine.session import EduceStar
from repro.engine.stats import measure

from conftest import record

N_CLAUSES = 60


def _program():
    """Heads share functor f/1 but differ two levels down — invisible to
    the attribute filter, visible to deep pre-unification."""
    lines = []
    for i in range(N_CLAUSES):
        lines.append(f"deep(f(g({i}, h({i}))), {i}).")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def program():
    return _program()


@pytest.mark.parametrize("depth", ["none", "full"])
def test_depth(benchmark, program, depth):
    star = EduceStar(preunify_depth=depth)
    star.store_program(program)
    goals = [(i, f"deep(f(g({i}, h({i}))), X)")
             for i in range(0, N_CLAUSES, 7)]

    def run():
        star.loader.invalidate()
        for i, g in goals:
            sol = star.solve_once(g)
            assert sol is not None and sol["X"] == i, g

    with measure(star) as m:
        benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, m, depth=depth,
           delivered=star.loader.clauses_delivered,
           rejected=star.preunifier.rejections)


def test_deeper_filters_deliver_fewer_clauses(benchmark, program):
    """full delivers fewer clauses to the emulator than none; both give
    the same answer."""
    state = {}

    def run():
        answers = {}
        delivered = {}
        for depth in ("none", "full"):
            star = EduceStar(preunify_depth=depth)
            star.store_program(program)
            sols = [star.solve_once(f"deep(f(g(5, h(5))), X)")["X"]]
            answers[depth] = sols
            delivered[depth] = star.loader.clauses_delivered
        state["answers"] = answers
        state["delivered"] = delivered

    benchmark.pedantic(run, rounds=1, iterations=1)
    answers = state["answers"]
    delivered = state["delivered"]
    benchmark.extra_info["delivered"] = delivered
    assert answers["none"] == answers["full"] == [5]
    assert delivered["full"] < delivered["none"]
