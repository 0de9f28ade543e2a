"""Recursive evaluation strategies: WAM top-down vs semi-naive bottom-up.

The recursion workload family (`repro.workloads.graphs`,
docs/DATALOG.md) at EDB scales where the strategy choice matters.
For each graph size the same reachability program runs twice over the
same stored EDB:

* **top-down** — `EduceStar(datalog="off")`: the WAM solves
  `reach(n0, X)` by SLD resolution through the dynamic loader, one
  solution per proof path;
* **bottom-up** — `EduceStar(datalog="auto")`: every size is at least
  ``DEFAULT_MIN_ROWS`` edges, so the strategy planner routes the goal
  to the semi-naive fixpoint; the magic-set rewrite restricts
  derivation to what the bound argument can reach.

Answers are pinned identical (as sets — the WAM derives one answer per
proof, bottom-up has set semantics) at every size where the oracle
runs; sizes above ``--oracle-limit`` run bottom-up only, so the
fixpoint can be measured at EDB scales the WAM cannot finish in
reasonable time.

A second table follows the session's kept EDB join indexes
(docs/DATALOG.md, "What an evaluation keeps"): per size, a bound goal
and the closure are each asked three times on one bottom-up session —
*first* (the indexes are built), *repeat* (they are reused) and *after
one insert* (``edge/2``'s version moved, so they are rebuilt once) —
with wall milliseconds and the ``datalog_edb_rows`` each run fetched.

Run:  PYTHONPATH=src python benchmarks/bench_datalog.py
      [--edges 10000,100000] [--graph tree|chain|dag] [--branching 4]
      [--seed 7] [--oracle-limit 150000] [--exposition PATH] [--smoke]

An ``--edges`` size below ``DEFAULT_MIN_ROWS`` (256) is a usage error
(exit 2): the planner would run it top-down, and the bottom-up column
would not measure what it names.

``--smoke`` is the CI entry point: one small size, oracle always on,
non-zero exit when the answers diverge, the goal was not routed
bottom-up, a repeated goal fetches any EDB row, or the goal after an
insert misses the new edge.  Results at full scale are recorded as E13 in
EXPERIMENTS.md.
"""

import argparse
import gc
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro import EduceStar, measure                   # noqa: E402
from repro.relational.datalog import DEFAULT_MIN_ROWS  # noqa: E402
from repro.workloads import graphs                     # noqa: E402


def build_edges(graph: str, edges: int, branching: int, seed: int):
    if graph == "tree":
        return graphs.k_ary_tree(edges, branching=branching)
    if graph == "chain":
        return graphs.chain(edges)
    if graph == "dag":
        return graphs.random_dag(max(2, edges // 3), edges, seed)
    raise SystemExit(f"unknown graph family {graph!r}")


def build_session(mode: str, edge_rows) -> EduceStar:
    kb = EduceStar(datalog=mode)
    kb.store_relation("edge", edge_rows)
    kb.store_program(graphs.REACH_PROGRAM)
    return kb


def run_strategy(mode: str, edge_rows, goal: str):
    """One strategy at one size: wall seconds, simulated ms, answers."""
    kb = build_session(mode, edge_rows)
    with measure(kb) as m:
        answers = [str(sol["X"]) for sol in kb.solve(goal)]
    return {
        "session": kb,
        "wall_s": m.wall_s,
        "sim_ms": m.simulated_ms(),
        "answers": answers,
        "snapshot": kb.metrics.snapshot(),
    }


def run_kept_indexes(edge_rows, source: str, sessions: int = 3):
    """first / repeat / after-one-insert of ``reach(source, X)`` on a
    bottom-up session: ``[(phase, wall ms, EDB rows fetched, answers)]``
    and the failures (stale or wrong answers, a repeat that fetched).
    Wall time is the least of *sessions* identical sessions (the host's
    noise only ever adds); the counts are the same in each."""
    goal = f"reach({source}, X)"
    best, failures = {}, []
    for _ in range(sessions):
        kb = build_session("auto", edge_rows)
        edges = list(edge_rows)
        for phase in ("first", "repeat", "after insert"):
            if phase == "after insert":
                kb.assert_external(f"edge({source}, fresh).")
                edges.append((source, "fresh"))
            gc.collect()   # the previous phase's garbage is not this one's
            with measure(kb) as m:
                answers = {str(sol["X"]) for sol in kb.solve(goal)}
            fetched = m["datalog_edb_rows"]
            ms = min(m.wall_s * 1000.0, best.get(phase, (0, 1e99))[1])
            best[phase] = (phase, ms, fetched, len(answers))
            if answers != graphs.reachable(edges, source):
                failures.append(f"{goal} {phase}: answers differ from BFS")
            if phase == "repeat" and fetched:
                failures.append(f"{goal} repeat fetched {fetched} EDB rows")
    return list(best.values()), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--edges", default="10000,100000",
                        help="comma-separated EDB sizes (edge counts)")
    parser.add_argument("--graph", default="tree",
                        choices=("tree", "chain", "dag"))
    parser.add_argument("--branching", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--oracle-limit", type=int, default=150_000,
                        help="largest size at which the WAM oracle runs")
    parser.add_argument("--exposition", metavar="PATH", default=None,
                        help="write the bottom-up sessions' merged "
                             "telemetry as Prometheus text format")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: one small size, oracle on")
    args = parser.parse_args(argv)

    sizes = [2_000] if args.smoke else \
        [int(s) for s in args.edges.split(",")]
    if min(sizes) < DEFAULT_MIN_ROWS:
        parser.error(f"--edges {min(sizes)} is below DEFAULT_MIN_ROWS "
                     f"({DEFAULT_MIN_ROWS}): the goal would run top-down")
    oracle_limit = max(sizes) if args.smoke else args.oracle_limit
    goal = "reach(n0, X)"

    first = build_session("auto", build_edges(args.graph, sizes[0],
                                              args.branching, args.seed))
    print(f"graph family: {args.graph}; goal: {goal}")
    print("planner report at the smallest size:")
    for line in first.datalog.explain(goal).splitlines():
        print("   ", line)
    print(f"\n{'edges':>9} {'answers':>8} {'BU wall s':>10} "
          f"{'BU sim ms':>10} {'WAM wall s':>11} {'WAM sim ms':>11} "
          f"{'speedup':>8}")

    failures = 0
    speedup_at_largest_oracled = None
    snapshots = []
    for size in sizes:
        edge_rows = build_edges(args.graph, size, args.branching,
                                args.seed)
        bu = run_strategy("auto", edge_rows, goal)
        engine = bu["session"].datalog
        if engine.bottomup != 1:
            print(f"FAIL edges={size}: goal was not routed bottom-up "
                  f"({engine.last_decision.reason})")
            failures += 1
        if len(bu["answers"]) != len(set(bu["answers"])):
            print(f"FAIL edges={size}: bottom-up produced duplicates")
            failures += 1
        snapshots.append(bu["snapshot"])

        if size <= oracle_limit:
            wam = run_strategy("off", edge_rows, goal)
            if set(wam["answers"]) != set(bu["answers"]):
                print(f"FAIL edges={size}: answer sets diverge "
                      f"(WAM {len(set(wam['answers']))}, "
                      f"bottom-up {len(set(bu['answers']))})")
                failures += 1
            speedup = wam["wall_s"] / bu["wall_s"]
            speedup_at_largest_oracled = speedup
            print(f"{size:>9} {len(set(bu['answers'])):>8} "
                  f"{bu['wall_s']:>10.2f} {bu['sim_ms']:>10.0f} "
                  f"{wam['wall_s']:>11.2f} {wam['sim_ms']:>11.0f} "
                  f"{speedup:>7.1f}x")
        else:
            print(f"{size:>9} {len(set(bu['answers'])):>8} "
                  f"{bu['wall_s']:>10.2f} {bu['sim_ms']:>10.0f} "
                  f"{'(skipped)':>11} {'-':>11} {'-':>8}")

    bu = wam = None    # the last size's two sessions: not this table's heap
    print(f"\nkept EDB indexes, one session per goal "
          f"(wall ms / datalog_edb_rows fetched):")
    print(f"{'edges':>9} {'goal':>18} {'answers':>8} {'first':>16} "
          f"{'repeat':>16} {'after insert':>16}")
    for size in sizes:
        edge_rows = build_edges(args.graph, size, args.branching,
                                args.seed)
        for source in (edge_rows[len(edge_rows) // 64][0], "n0"):
            phases, failed = run_kept_indexes(edge_rows, source)
            cells = " ".join(f"{ms:>9.2f}/{fetched:<6}"
                             for _phase, ms, fetched, _n in phases)
            print(f"{size:>9} {f'reach({source}, X)':>18} "
                  f"{phases[0][3]:>8} {cells}")
            for line in failed:
                print(f"FAIL edges={size}: {line}")
            failures += len(failed)

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        text = render_prometheus(MetricsRegistry.merge(*snapshots))
        assert "educe_datalog_bottomup" in text
        assert "educe_datalog_fixpoint_iterations" in text
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nmerged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    if speedup_at_largest_oracled is not None:
        verdict = "PASS" if (failures == 0
                             and speedup_at_largest_oracled > 1.0) \
            else "FAIL"
        print(f"\nbottom-up vs WAM at the largest oracled size: "
              f"{speedup_at_largest_oracled:.1f}x "
              f"(acceptance: > 1x, answers identical) {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
