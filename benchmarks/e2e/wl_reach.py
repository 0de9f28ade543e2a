"""``reach_datalog``: recursive queries answered bottom-up, with writes
beside the reads.

``edge/2`` is a 4-ary tree, ``reach/2`` its transitive closure; the
strategy planner (``datalog="auto"``) sends every goal to the
semi-naive fixpoint — magic sets for a bound source, the full closure
for ``reach(n0, X)``.  A fifth of the reads repeat an earlier goal and every
round ends with inserts of leaves under nodes that have been asked
about, so answer caching or view maintenance would show its read gain
*and* its write cost here.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Tuple

from repro import EduceStar
from repro.workloads import graphs

from base import SessionWorkload, dir_bytes, light_tracer
from harness import OpLog, timed_read, timed_write
from oracles import ReachOracle
from probes import probe_language, probe_point_lookups

#: one round = 28 operations: 12 bound goals, 2 full closures and 4
#: repeats of an earlier goal in seeded order, then 10 leaf inserts back
#: to back.  (The issue had 2 inserts, 10 %, between the reads: a 10 s
#: window then holds under 30 of them, each with cold caches, and their
#: p95 is the second slowest.  In a burst of ten the median is a warm
#: insert and p95 the cold one that opens the burst.)
ROUND = (("bound", 12), ("full", 2), ("repeat", 4))
WRITES = 10
BRANCHING = 4


class ReachDatalog(SessionWorkload):
    name = "reach_datalog"

    def generate(self) -> None:
        self.n_edges = self.size["edges"]
        self.edges = graphs.k_ary_tree(self.n_edges, BRANCHING)
        # inner nodes two to four levels below the root: every one has a
        # subtree, none has most of the tree
        first_leaf_parent = (self.n_edges - 1) // BRANCHING
        self.sources = list(range(
            BRANCHING + 1,
            max(BRANCHING + 2, min(first_leaf_parent, 341))))
        self.inserted: List[Tuple[str, str]] = []
        self.streams = 0

    def inputs(self) -> Dict[str, Any]:
        return {"edges": self.n_edges, "branching": BRANCHING,
                "program": graphs.REACH_PROGRAM,
                "first_round": next(self.rounds())}

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out.update(buffer_pages=128, datalog="auto",
                   store="in-memory (no WAL until the restart check)")
        return out

    def setup(self) -> None:
        with self.spans.span("setup.store"):
            self.session = EduceStar(datalog="auto")
            self.session.store_relation("edge", self.edges)
        with self.spans.span("setup.rules"):
            self.session.store_program(graphs.REACH_PROGRAM)
        light_tracer(self.session, self.spans.enabled)
        self.oracle = ReachOracle(self.edges)
        with self.spans.span("setup.warmup"):
            warm = OpLog()
            self.execute(("read", f"n{self.sources[0]}"), warm)
            self.execute(("read", "n0"), warm)
            self.setup_failures = list(warm.failure_notes)
        self.extras["answers"] = 0

    def rounds(self, client: int = 0) -> Iterator[List[Tuple[str, str]]]:
        """("read", source) and ("write", parent, leaf) operations.  A
        repeat draws from the bound sources asked so far (the full
        closure repeats by itself, twice a round; drawing it here too
        would make one round heavier than the next); a write hangs a new
        leaf under one of them, so a later repeat must see it."""
        rng = random.Random(self.seed * 1009 + client)
        asked: List[str] = [f"n{self.sources[0]}"]
        # every stream inserts leaves of its own: a window run twice
        # (the traced run's untraced reference) must not store an edge
        # twice, or the top-down fallback after a restart answers twice
        self.streams += 1
        stream = self.streams
        leaves = 0
        while True:
            ops: List[Tuple[str, ...]] = []
            kinds = [kind for kind, n in ROUND for _ in range(n)]
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "bound":
                    source = f"n{rng.choice(self.sources)}"
                    asked.append(source)
                elif kind == "full":
                    source = "n0"
                else:
                    source = rng.choice(asked)
                ops.append(("read", source))
            for _ in range(WRITES):
                leaves += 1
                ops.append(("write", rng.choice(asked),
                            f"leaf{stream}_{leaves}"))
            yield ops

    def execute(self, op, log: OpLog) -> None:
        session = self.session
        if op[0] == "write":
            _kind, parent, leaf = op
            with self.spans.span("op.write", op=True):
                with self.spans.span("edb.assert"):
                    ok = timed_write(log, lambda: session.assert_external(
                        f"edge({parent}, {leaf})."))
            if ok:
                self.oracle.add_edge(parent, leaf)
                self.inserted.append((parent, leaf))
            return
        source = op[1]
        goal = f"reach({source}, X)"

        def check(answers: list) -> bool:
            self.extras["answers"] = (self.extras.get("answers", 0)
                                      + len(answers))
            return (sorted(str(s["X"]) for s in answers)
                    == self.oracle.reach(source))

        with self.spans.span("op.read", op=True, goal=goal) as span:
            timed_read(log, lambda: session.solve(goal), check)
            self.drain(session, span)

    def unreadable(self, session: EduceStar) -> int:
        """Inserted edges the store cannot return (an ``edge/2`` fact
        lookup each — the recursive goal is checked once, below)."""
        return sum(
            len(list(session.solve(f"edge({parent}, {leaf})"))) != 1
            for parent, leaf in self.inserted)

    def recover(self) -> Dict[str, float]:
        """A checkpoint keeps compiled code, not the live Datalog
        rulebase (docs/DATALOG.md): the first goal after the restart is
        answered by the documented top-down fallback."""
        home = self.fresh_dir("home")
        self.session.save(f"{home}/kb.edb")
        self.extras["store_bytes"] = dir_bytes(home)
        self.extras["user_bytes"] = (
            sum(len(repr(edge)) for edge in self.edges)
            + len(graphs.REACH_PROGRAM))
        # always the same deep node, so that the fallback's top-down
        # walk costs the same on every seed
        source = f"n{self.sources[-1]}"

        def first_query(session: EduceStar) -> bool:
            answers = session.solve(f"reach({source}, X)")
            return (sorted(str(s["X"]) for s in answers)
                    == self.oracle.reach(source))

        return self.timed_reopen(home, first_query, self.unreadable)

    def probes(self) -> None:
        goals = [f"reach(n{k}, X)" for k in self.sources[:50]]
        probe_language(self.spans, self.extras, graphs.REACH_PROGRAM, goals)
        relation = self.session.relation("edge", 2)
        probe_point_lookups(self.spans, self.extras, self.session, relation,
                            [{0: f"n{k}"} for k in self.sources[:100]])
        for goal in goals[:10]:
            with self.spans.span("datalog.plan"):
                self.session.datalog.explain(goal)
