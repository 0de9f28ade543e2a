#!/usr/bin/env python3
"""Recursive queries two ways: WAM top-down vs semi-naive bottom-up.

Transitive closure (reachability) is the workload where the two
evaluation strategies of docs/DATALOG.md actually diverge:

* the WAM derives one answer **per proof path** — on a dense DAG the
  same pair is re-derived once per path, and on cyclic data top-down
  evaluation does not terminate at all;
* the semi-naive bottom-up engine derives each fact **once**, delta by
  delta, and the magic-set rewrite restricts the fixpoint to the part
  of the graph the query's bound arguments can reach.

This example builds a reachability knowledge base, shows the strategy
planner's reasoning (the same report the REPL prints for ``:plan G``),
runs the same goal under both strategies, and compares the answers and
the ``datalog_*`` counters.

Run:  python examples/datalog_reachability.py
"""

from repro import EduceStar
from repro.workloads import graphs


def build(mode: str, edges) -> EduceStar:
    kb = EduceStar(datalog=mode)
    kb.store_relation("edge", edges)
    kb.store_program("""
        % lint: external edge/2
        % lint: disable=L104 reach/2
        reach(X, Y) :- edge(X, Y).
        reach(X, Z) :- edge(X, Y), reach(Y, Z).
    """)
    return kb


def main() -> None:
    # A random DAG: many distinct paths between the same pairs, which
    # is exactly what separates set-at-a-time from tuple-at-a-time.
    edges = graphs.random_dag(nodes=120, edges=400, seed=7)

    # --- the planner's view (REPL: ``:plan reach(n0, X)``) -------------
    kb = build("auto", edges)
    print("Planner report for reach(n0, X):")
    for line in kb.datalog.explain("reach(n0, X)").splitlines():
        print("   ", line)

    # --- the same goal, both strategies --------------------------------
    topdown = build("off", edges)      # everything on the WAM
    bottomup = build("auto", edges)    # 400 edges: set-at-a-time

    goal = "reach(n0, X)"
    wam_answers = {str(s["X"]) for s in topdown.solve(goal)}
    wam_proofs = sum(1 for _ in topdown.solve(goal))
    datalog_answers = [str(s["X"]) for s in bottomup.solve(goal)]

    assert set(datalog_answers) == wam_answers, "strategies disagree!"
    assert len(datalog_answers) == len(set(datalog_answers))
    print(f"\nGoal {goal}:")
    print(f"    distinct answers:   {len(wam_answers)} (both strategies)")
    print(f"    WAM solutions:      {wam_proofs} "
          "(one per proof path — duplicates on a DAG)")
    print(f"    bottom-up solutions: {len(datalog_answers)} "
          "(set semantics, duplicate-free)")

    # --- what the evaluation cost, in the session's own telemetry ------
    print("\nBottom-up telemetry (datalog_* counters):")
    for key, value in sorted(bottomup.datalog.counters().items()):
        if value:
            print(f"    {key:<24} {value:g}")
    stats_hist = bottomup.datalog.histograms()["datalog_fixpoint_iterations"]
    print(f"    fixpoint passes observed: {stats_hist.count}")

    # The decision is also visible in the Prometheus exposition — the
    # acceptance surface the service exports (docs/OBSERVABILITY.md).
    from repro.obs import render_prometheus
    text = render_prometheus(bottomup.metrics.snapshot())
    routed = [line for line in text.splitlines()
              if line.startswith("educe_datalog_bottomup")]
    print("\nExposition:", *routed)


if __name__ == "__main__":
    main()
