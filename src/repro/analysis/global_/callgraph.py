"""Predicate-level call graph over a whole program (docs/ANALYSIS.md).

The whole-program pass needs one structural fact the per-procedure
analyses (D rules, L rules) never see: *who calls whom, and with what
argument terms*.  This module builds that graph from the surface
clauses of one program text, read with the standard reader.

Goals are discovered by the front end's goal walker
(:func:`repro.lang.program.iter_goals`, the one L102 uses too): it
descends the control constructs (``,``/``;``/``->``/...) and the
goal-argument positions of the known meta-predicates; ``call/N``
closures count as calls to the closed-over indicator with the extended
arity; metacalls through a variable are not analysable and contribute
no edge.

Recursion is handled by condensing the graph into strongly connected
components (the iterative Tarjan the Datalog stratifier uses,
:func:`repro.relational.datalog.rules.tarjan_sccs`) — the
mode/cardinality fixpoint widens inside recursive SCCs
(docs/ANALYSIS.md, "sound widening").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...lang.program import (Indicator, Section, iter_goals,
                             read_sections, split_clause_term)
from ...lang.reader import Reader
from ...relational.datalog.rules import tarjan_sccs
from ...terms import Term

__all__ = ["CallSite", "Program", "CallGraph", "build_call_graph",
           "program_from_text", "program_from_sections"]

#: goals the compiler handles directly (no registered indicator)
CONTROL_GOALS = {("true", 0), ("fail", 0), ("false", 0), ("!", 0),
                 ("otherwise", 0)}


@dataclass(frozen=True)
class CallSite:
    """One goal occurrence: caller, callee, and the goal's argument
    terms (None for calls whose arguments are not statically visible,
    e.g. ``call/N`` closures with extra runtime arguments)."""
    caller: Indicator
    callee: Indicator
    args: Optional[Tuple[Term, ...]]


@dataclass
class Program:
    """The whole-program view the global analysis runs over.

    ``clauses`` maps each rule-defined predicate to its surface clause
    terms (source order); ``externals`` are predicates declared
    defined elsewhere (``% lint: external``, dynamic declarations);
    ``entries`` are the analysis roots whose call modes seed at ⊤
    (every argument ``any``).
    """
    clauses: Dict[Indicator, List[Term]] = field(default_factory=dict)
    externals: Set[Indicator] = field(default_factory=set)
    entries: List[Indicator] = field(default_factory=list)

    def defined(self) -> Set[Indicator]:
        return set(self.clauses) | set(self.externals)


@dataclass
class CallGraph:
    """Edges + call sites + SCC condensation of one :class:`Program`."""
    edges: Dict[Indicator, Set[Indicator]]
    sites: List[CallSite]
    #: SCCs in reverse topological order (callees before callers)
    sccs: List[List[Indicator]]
    scc_of: Dict[Indicator, int]

    def recursive(self, ind: Indicator) -> bool:
        """In a cycle: its SCC has >1 member, or it calls itself."""
        scc = self.sccs[self.scc_of[ind]]
        return len(scc) > 1 or ind in self.edges.get(ind, ())


def build_call_graph(program: Program) -> CallGraph:
    """The call graph of *program* plus its SCC condensation."""
    edges: Dict[Indicator, Set[Indicator]] = {
        ind: set() for ind in program.defined()}
    sites: List[CallSite] = []
    for ind, clauses in program.clauses.items():
        for clause in clauses:
            _head, body = split_clause_term(clause)
            if body is None:
                continue
            for callee, args in iter_goals(body):
                if callee in CONTROL_GOALS:
                    continue
                sites.append(CallSite(ind, callee, args))
                edges[ind].add(callee)
                edges.setdefault(callee, set())
    sccs = tarjan_sccs(edges)
    scc_of = {ind: i for i, scc in enumerate(sccs) for ind in scc}
    return CallGraph(edges=edges, sites=sites, sccs=sccs, scc_of=scc_of)


# =====================================================================
# Program builders
# =====================================================================

def program_from_text(text: str,
                      extra_defined: Tuple[Indicator, ...] = ()
                      ) -> Program:
    """A :class:`Program` from one Prolog source text, read under the
    default operator table; ``% lint: external`` pragmas add to its
    externals."""
    from ..lint import _parse_pragmas
    _disabled, externals, _unknown = _parse_pragmas(text)
    return program_from_sections(read_sections(text, Reader()),
                                 externals | set(extra_defined))


def program_from_sections(sections: Iterable[Section],
                          externals: Set[Indicator]) -> Program:
    """A :class:`Program` from a text the front end has read
    (:func:`repro.lang.program.read_sections`).  ``dynamic`` /
    ``discontiguous`` declarations join *externals*; goal directives
    are not run; call-graph roots (no in-edges) are the entries."""
    program = Program(externals=set(externals))
    for section in sections:
        program.externals.update(section.declared)
        for ind, clause in section.clauses:
            program.clauses.setdefault(ind, []).append(clause)
    _default_entries(program)
    return program


def _default_entries(program: Program) -> None:
    """Closed-world default: the analysis roots are the predicates
    with no callers *outside their own SCC* — a predicate only its own
    recursion reaches can only ever be invoked by a top-level query,
    so its call modes must seed at all-``any``.  Any other predicate's
    inferred call modes describe the call sites the program itself
    contains (docs/ANALYSIS.md, "entry adornments")."""
    edges: Dict[Indicator, Set[Indicator]] = {
        ind: set() for ind in program.clauses}
    for ind, clauses in program.clauses.items():
        for clause in clauses:
            _head, body = split_clause_term(clause)
            if body is None:
                continue
            for callee, _args in iter_goals(body):
                if callee in program.clauses:
                    edges[ind].add(callee)
    sccs = tarjan_sccs(edges)
    scc_of = {ind: i for i, scc in enumerate(sccs) for ind in scc}
    entered = {scc_of[callee]
               for caller, callees in edges.items()
               for callee in callees
               if scc_of[caller] != scc_of[callee]}
    program.entries = sorted(
        ind for ind in program.clauses
        if scc_of[ind] not in entered)
