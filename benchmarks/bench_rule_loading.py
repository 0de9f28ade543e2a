"""E8 — compiled-EDB vs source-form rule storage (paper §2, §3.1).

The motivating micro-experiment: a recursive rule set used repeatedly
within one session.

* Educe (source mode): every call retrieves ALL the procedure's clauses,
  parses them, asserts them, and erases them afterwards — "potentially a
  given rule can be asserted and erased thousands of times".
* Educe* (compiled mode): relative code is fetched once per call
  pattern; each clause is address-resolved and verified once per
  session version, and the block over a clause set is built once and
  cached.

Reported: simulated ms, parse characters, assert/erase counts, loader
cache hits.
"""


from repro.engine.educe_baseline import EduceBaseline
from repro.engine.session import EduceStar
from repro.engine.stats import measure

from conftest import record

PROGRAM = """
tree_sum(leaf(V), V).
tree_sum(node(L, R), S) :-
    tree_sum(L, SL), tree_sum(R, SR), S is SL + SR.

build_tree(0, leaf(1)) :- !.
build_tree(N, node(L, R)) :-
    N1 is N - 1, build_tree(N1, L), build_tree(N1, R).
"""

GOAL = "build_tree(7, T), tree_sum(T, S)"
REPEATS = 5


def test_compiled_edb_rules(benchmark):
    star = EduceStar()
    star.store_program(PROGRAM)

    def run():
        for _ in range(REPEATS):
            assert star.solve_once(GOAL)["S"] == 128

    with measure(star) as m:
        benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, m, system="educe*-compiled",
           cache_hits=star.loader.cache_hits,
           loads=star.loader.loads)


def test_source_edb_rules(benchmark):
    base = EduceBaseline()
    base.store_program(PROGRAM)

    def run():
        for _ in range(REPEATS):
            assert base.solve_once(GOAL)["S"] == 128

    with measure(base) as m:
        benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, m, system="educe-source",
           asserts=m["asserts"], erases=m["erases"],
           parsed_chars=m["parsed_chars"], fetches=m["fetches"])


def test_gap_direction(benchmark):
    """The headline: compiled storage must beat source storage, and the
    baseline's parse/assert volume must grow with call count."""
    star = EduceStar()
    star.store_program(PROGRAM)
    base = EduceBaseline()
    base.store_program(PROGRAM)

    state = {}

    def run():
        with measure(star) as m_star:
            for _ in range(REPEATS):
                star.solve_once(GOAL)
        with measure(base) as m_base:
            for _ in range(REPEATS):
                base.solve_once(GOAL)
        state["star"] = m_star
        state["base"] = m_base

    benchmark.pedantic(run, rounds=1, iterations=1)
    sim_star = state["star"].simulated_ms()
    sim_base = state["base"].simulated_ms()
    benchmark.extra_info["educe_star_ms"] = round(sim_star, 2)
    benchmark.extra_info["educe_ms"] = round(sim_base, 2)
    benchmark.extra_info["speedup"] = round(sim_base / max(sim_star, 1e-9), 1)
    assert sim_star < sim_base
    # The baseline re-asserted clauses many times over (factor 3 of §2).
    assert state["base"]["asserts"] > 100
