"""The recursion workload family (docs/DATALOG.md).

Graph generators for the transitive-closure / reachability workloads
where recursive evaluation strategies actually diverge: chains (deep,
narrow), k-ary trees (shallow, wide, one path per pair), random DAGs
(many paths per pair — the WAM re-derives one answer per path, the
bottom-up engine derives each answer once), and parent trees for the
classic same-generation program.

All generated graphs are **acyclic** on purpose: the WAM has no tabling,
so top-down evaluation of transitive closure over a cyclic graph does
not terminate — that asymmetry is exactly why the strategy planner
exists, but it makes cyclic graphs unusable for differential testing
against the WAM oracle.  (The bottom-up engine itself handles cycles
fine; the differential suite pins its answers against the oracle on the
acyclic family.)

Determinism: every generator takes an explicit seed; the same seed
always yields the same graph.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Set, Tuple

__all__ = [
    "chain", "k_ary_tree", "random_dag", "parent_tree", "reachable",
    "REACH_PROGRAM", "SAME_GEN_PROGRAM", "UNREACHABLE_PROGRAM",
    "differential_cases",
]

Edge = Tuple[str, str]


def _node(i: int) -> str:
    return f"n{i}"


def chain(length: int) -> List[Edge]:
    """A path graph: ``n0 -> n1 -> ... -> n<length>``."""
    return [(_node(i), _node(i + 1)) for i in range(length)]


def k_ary_tree(edges: int, branching: int = 4) -> List[Edge]:
    """A complete-ish k-ary tree with exactly *edges* edges, root ``n0``.

    Node ``ni`` is the child of ``n((i-1)//branching)`` — one root-to-
    node path per node, so top-down evaluation derives each reachability
    answer exactly once (the fairest ground for the WAM oracle)."""
    return [(_node((i - 1) // branching), _node(i))
            for i in range(1, edges + 1)]


def random_dag(nodes: int, edges: int, seed: int) -> List[Edge]:
    """A random DAG: edges only go from lower- to higher-numbered
    nodes, so the graph is acyclic by construction.  Duplicate edges
    are skipped (the EDB stores sets of tuples anyway)."""
    if nodes < 2:
        raise ValueError("need at least two nodes")
    rng = random.Random(seed)
    seen = set()
    out: List[Edge] = []
    attempts = 0
    while len(out) < edges and attempts < edges * 20:
        attempts += 1
        a = rng.randrange(0, nodes - 1)
        b = rng.randrange(a + 1, nodes)
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((_node(a), _node(b)))
    return out


def parent_tree(people: int, seed: int,
                branching: int = 3) -> List[Edge]:
    """``(child, parent)`` pairs forming a random ancestry tree rooted
    at ``n0`` — the base relation of the same-generation program.
    Each person ``ni`` (i > 0) gets one parent drawn from earlier
    people, biased toward recent ones to keep generations shallow."""
    rng = random.Random(seed)
    out: List[Edge] = []
    for i in range(1, people):
        low = max(0, i - branching * 2)
        parent = rng.randrange(low, i)
        out.append((_node(i), _node(parent)))
    return out


def reachable(edges: Iterable[Edge], source: str) -> Set[str]:
    """Nodes a non-empty path from *source* leads to, by breadth-first
    search — the oracle for ``reach/2`` that is not the engine."""
    successors: Dict[str, List[str]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    seen: Set[str] = set()
    frontier = [source]
    while frontier:
        nodes, frontier = frontier, []
        for b in (b for a in nodes for b in successors.get(a, ())):
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


# ---------------------------------------------------------------------
# Rule programs over the generated base relations
# ---------------------------------------------------------------------

#: transitive closure over ``edge/2`` (right-linear form)
REACH_PROGRAM = """\
% lint: external edge/2
% lint: disable=L104 reach/2
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- edge(X, Y), reach(Y, Z).
"""

#: the classic same-generation program over ``par/2`` (child, parent)
SAME_GEN_PROGRAM = """\
% lint: external par/2 person/1
% lint: disable=L104 sg/2
sg(X, X) :- person(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
"""

#: stratified negation on top of reachability: nodes a source cannot
#: reach (``node/1`` enumerates the vertex set)
UNREACHABLE_PROGRAM = """\
% lint: external edge/2 node/1
% lint: disable=L104 reach/2
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- edge(X, Y), reach(Y, Z).
unreachable(X, Y) :- node(X), node(Y), \\+ reach(X, Y).
"""


def nodes_of(edges: List[Edge]) -> List[str]:
    """The sorted vertex set of an edge list."""
    seen = set()
    for a, b in edges:
        seen.add(a)
        seen.add(b)
    return sorted(seen)


def differential_cases(seed: int) -> List[Dict]:
    """One suite of differential cases for *seed*: every workload graph
    family, with bound and unbound queries.  Each case dict carries the
    relations to store, the rule program, and the goals whose answer
    multisets must match the WAM oracle's."""
    rng = random.Random(seed)
    chain_len = rng.randrange(5, 40)
    tree_edges = rng.randrange(10, 80)
    # Modest DAG density: the WAM oracle re-derives one answer per
    # path, and path counts grow fast with density.
    dag_nodes = rng.randrange(8, 20)
    dag_edges = rng.randrange(dag_nodes, 2 * dag_nodes)
    people = rng.randrange(6, 25)

    chain_edges = chain(chain_len)
    tree = k_ary_tree(tree_edges, branching=rng.choice([2, 3, 4]))
    dag = random_dag(dag_nodes, dag_edges, seed)
    par = parent_tree(people, seed)
    persons = [(p,) for p in nodes_of(par)]
    dag_vertices = [(v,) for v in nodes_of(dag)]

    return [
        {
            "name": "chain",
            "relations": {"edge": chain_edges},
            "program": REACH_PROGRAM,
            "goals": ["reach(n0, X)", "reach(X, Y)",
                      f"reach(X, n{chain_len})",
                      f"reach(n0, n{chain_len})",
                      "reach(n0, n0)"],
        },
        {
            "name": "tree",
            "relations": {"edge": tree},
            "program": REACH_PROGRAM,
            "goals": ["reach(n0, X)", "reach(X, Y)",
                      f"reach(X, n{tree_edges})"],
        },
        {
            "name": "dag",
            "relations": {"edge": dag},
            "program": REACH_PROGRAM,
            "goals": ["reach(n0, X)", "reach(X, Y)", "reach(X, X)"],
        },
        {
            "name": "same_generation",
            "relations": {"par": par, "person": persons},
            "program": SAME_GEN_PROGRAM,
            "goals": ["sg(n1, X)", "sg(n0, X)"],
        },
        {
            "name": "unreachable",
            "relations": {"edge": dag, "node": dag_vertices},
            "program": UNREACHABLE_PROGRAM,
            "goals": ["unreachable(n0, X)"],
        },
    ]
