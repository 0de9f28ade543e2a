"""E1 — Table 1: MVV knowledge-base query times (paper §5.1).

Reproduces the table's structure: Class 1 (simple) and Class 2
(involved) query samples, first run vs second run (buffer warm-up), on
both systems:

* **Educe*** — compiled rules internal, facts in the EDB;
* **Educe**  — the interpreted baseline with the fetch/parse/assert/
  erase cycle.

The paper's qualitative findings to check (EXPERIMENTS.md):
Educe* well below Educe; no significant first-vs-second-run distortion;
CPU dominates I/O.
"""

import pytest

from repro.engine.stats import measure

from conftest import SCALE, record

N_QUERIES = 10  # "a sample of ten queries from each class" (§5.1)


def _queries(mvv_data, klass):
    from repro.workloads import mvv
    if klass == 1:
        return mvv.class1_queries(mvv_data, N_QUERIES)
    return mvv.class2_queries(mvv_data, N_QUERIES)


def _run_sample(engine, queries):
    for q in queries:
        for _ in engine.solve(q):
            pass


@pytest.mark.parametrize("klass,paper_first_s,paper_second_s", [
    (1, 0.9, 0.9),    # Table 1 Class 1 magnitude (seconds, Educe*)
    (2, 4.0, 4.0),    # Table 1 Class 2 magnitude
])
def test_educestar_first_run(benchmark, mvv_star, mvv_data,
                             klass, paper_first_s, paper_second_s):
    queries = _queries(mvv_data, klass)
    mvv_star.loader.invalidate()   # cold loader == first run

    def first_run():
        mvv_star.loader.invalidate()
        _run_sample(mvv_star, queries)

    with measure(mvv_star) as m:
        benchmark.pedantic(first_run, rounds=3, iterations=1)
    record(benchmark, m, system="educe*", klass=klass, run="first",
           paper_s=paper_first_s)


@pytest.mark.parametrize("klass", [1, 2])
def test_educestar_second_run(benchmark, mvv_star, mvv_data, klass):
    queries = _queries(mvv_data, klass)
    _run_sample(mvv_star, queries)  # warm the loader cache + buffers

    def second_run():
        _run_sample(mvv_star, queries)

    with measure(mvv_star) as m:
        benchmark.pedantic(second_run, rounds=3, iterations=1)
    record(benchmark, m, system="educe*", klass=klass, run="second")


@pytest.mark.parametrize("klass,n", [(1, 5), (2, 2)])
def test_educe_baseline(benchmark, mvv_educe, mvv_data, klass, n):
    """The Educe column of Table 1 (smaller sample: the baseline is the
    slow system under test)."""
    from repro.workloads import mvv
    queries = (mvv.class1_queries(mvv_data, n) if klass == 1
               else mvv.class2_queries(mvv_data, n))

    def run():
        _run_sample(mvv_educe, queries)

    with measure(mvv_educe) as m:
        benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, m, system="educe", klass=klass,
           asserts=m["asserts"], erases=m["erases"])


def test_cpu_dominates_io(benchmark, mvv_star, mvv_data):
    """§5.1: "we found the impact of I/O very low in this application"
    — the CPU share of simulated time must dominate."""
    queries = _queries(mvv_data, 2)[:5]

    def run():
        _run_sample(mvv_star, queries)

    with measure(mvv_star) as m:
        benchmark.pedantic(run, rounds=1, iterations=1)
    cpu = m.cpu_ms()
    io = m.io_ms()
    record(benchmark, m, cpu_share=round(cpu / max(cpu + io, 1e-9), 3))
    assert cpu > io, "MVV must be CPU-bound (paper §5.1/§5.4)"


def test_schedule3_probes_read_few_leaves(mvv_data):
    """The journey rules stored in the EDB re-key ``schedule3`` on the
    four positions ``on_line/4`` can bind, most distinct values first:
    a probe on one stop, and on a stop of one line and direction, reads
    a fraction of the relation's leaves (all eleven attributes in
    position order: 133 and 83 at paper scale)."""
    import random

    from repro import EduceStar
    from repro.workloads import mvv
    kb = EduceStar()
    kb.store_relation("schedule3", mvv_data.schedule3, mvv.SCHEDULE3_TYPES)
    kb.store_relation("schedule2", mvv_data.schedule2, mvv.SCHEDULE2_TYPES)
    kb.store_program(mvv.RULES)
    relation = kb.relation("schedule3", 11)
    sample = random.Random(3).sample(mvv_data.schedule3, 400)

    def mean_leaves(positions):
        return sum(relation.pages_for({p: row[p] for p in positions})
                   for row in sample) / len(sample)

    stop, line_dir_stop = mean_leaves([3]), mean_leaves([0, 1, 3])
    print(f"schedule3 key dims {relation.key_dims}: {stop:.1f} leaves "
          f"per stop probe, {line_dir_stop:.1f} per line+dir+stop probe")
    if SCALE == 1.0:
        assert stop <= 60
        assert line_dir_stop <= 8
