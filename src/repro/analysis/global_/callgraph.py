"""Predicate-level call graph over a whole program (docs/ANALYSIS.md).

The whole-program pass needs one structural fact the per-procedure
analyses (D rules, L rules) never see: *who calls whom, and with what
argument terms*.  This module builds that graph from surface clauses —
the unit every program source in this repo ultimately reduces to
(main-memory procedures keep their clause terms, EDB-stored rules ride
the Datalog rulebase, program texts parse with the standard reader).

Metapredicate-awareness reuses the L102 contract: goals are discovered
by descending through the control constructs (``,``/``;``/``->``/...)
and through the goal-argument positions of the known meta-predicates
(:data:`META_GOAL_ARGS`, the table :mod:`repro.analysis.lint` shares).
``call/N`` closures count as calls to the closed-over indicator with
the extended arity; metacalls through a variable are not analysable
and contribute no edge.

Recursion is handled by condensing the graph into strongly connected
components (iterative Tarjan) — the mode/cardinality fixpoint widens
inside recursive SCCs (docs/ANALYSIS.md, "sound widening").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ...terms import Atom, Struct, Term, Var

__all__ = ["META_GOAL_ARGS", "CallSite", "Program", "CallGraph",
           "build_call_graph", "iter_goals", "program_from_text",
           "program_from_session", "tarjan_sccs", "indicator_of",
           "split_clause_term"]

Indicator = Tuple[str, int]

#: goals the compiler handles directly (no registered indicator)
CONTROL_GOALS = {("true", 0), ("fail", 0), ("false", 0), ("!", 0),
                 ("otherwise", 0)}

#: meta-predicates: which argument positions are themselves goals.
#: This is the canonical table; :mod:`repro.analysis.lint` imports it
#: for L102 so source lint and whole-program analysis agree on what a
#: reachable goal is.
META_GOAL_ARGS: Dict[Indicator, Tuple[int, ...]] = {
    (",", 2): (0, 1), (";", 2): (0, 1), ("->", 2): (0, 1),
    ("\\+", 1): (0,), ("not", 1): (0,), ("once", 1): (0,),
    ("ignore", 1): (0,), ("call", 1): (0,), ("forall", 2): (0, 1),
    ("findall", 3): (1,), ("bagof", 3): (1,), ("setof", 3): (1,),
    ("aggregate_all", 3): (1,),
}


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
    terms (source order); ``fact_rows`` holds EDB facts relations by
    row count (their clauses are not materialised — all-constant rows
    make their modes/cardinality directly computable); ``externals``
    are predicates declared defined elsewhere (``% lint: external``,
    dynamic declarations); ``entries`` are the analysis roots whose
    call modes seed at ⊤ (every argument ``any``).
    """
    clauses: Dict[Indicator, List[Term]] = field(default_factory=dict)
    fact_rows: Dict[Indicator, int] = field(default_factory=dict)
    externals: Set[Indicator] = field(default_factory=set)
    entries: List[Indicator] = field(default_factory=list)

    def defined(self) -> Set[Indicator]:
        return (set(self.clauses) | set(self.fact_rows)
                | set(self.externals))


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


def indicator_of(term: Term) -> Optional[Indicator]:
    if isinstance(term, Struct):
        return (term.name, term.arity)
    if isinstance(term, Atom):
        return (term.name, 0)
    return None


def split_clause_term(clause: Term) -> Tuple[Term, Optional[Term]]:
    if isinstance(clause, Struct) and clause.name == ":-" \
            and clause.arity == 2:
        return clause.args[0], clause.args[1]
    return clause, None


def iter_goals(body: Term) -> Iterator[Tuple[Indicator,
                                             Optional[Tuple[Term, ...]]]]:
    """Yield ``(indicator, args)`` for every goal reachable in *body*,
    descending control constructs and meta-predicate goal arguments.
    ``args`` is None when the call's arguments are not statically
    visible (``call/N`` with extra arguments)."""

    def walk(goal: Term) -> Iterator[Tuple[Indicator,
                                           Optional[Tuple[Term, ...]]]]:
        goal = _strip_caret(goal)
        if isinstance(goal, Var):
            return  # metacall through a variable: not analysable
        if isinstance(goal, Atom):
            yield (goal.name, 0), ()
            return
        if not isinstance(goal, Struct):
            return  # a number in goal position is a runtime type error
        meta = META_GOAL_ARGS.get((goal.name, goal.arity))
        if meta is not None:
            for pos in meta:
                yield from walk(goal.args[pos])
            return
        if goal.name == "call" and goal.arity >= 2:
            target = goal.args[0]
            extra = goal.arity - 1
            if isinstance(target, Atom):
                yield (target.name, extra), None
            elif isinstance(target, Struct):
                yield (target.name, target.arity + extra), None
            return
        yield (goal.name, goal.arity), tuple(goal.args)

    yield from walk(body)


def _strip_caret(goal: Term) -> Term:
    while isinstance(goal, Struct) and goal.name == "^" \
            and goal.arity == 2:
        goal = goal.args[1]
    return goal


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


def tarjan_sccs(graph: Dict[Indicator, Set[Indicator]]
                ) -> List[List[Indicator]]:
    """Strongly connected components, iterative, in reverse
    topological order (every edge leaves a later component)."""
    index: Dict[Indicator, int] = {}
    low: Dict[Indicator, int] = {}
    on_stack: Set[Indicator] = set()
    stack: List[Indicator] = []
    sccs: List[List[Indicator]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[Indicator, Iterator[Indicator]]] = []
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        work.append((root, iter(sorted(graph.get(root, ())))))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: List[Indicator] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


# =====================================================================
# Program builders
# =====================================================================

def program_from_text(text: str,
                      extra_defined: Tuple[Indicator, ...] = ()
                      ) -> Program:
    """A :class:`Program` from one Prolog source text.  Pragma-declared
    externals and ``dynamic``/``discontiguous`` declarations become
    external predicates; call-graph roots (no in-edges) are the
    entries."""
    from ..lint import _parse_pragmas
    from ...lang.reader import Reader
    _disabled, externals, _unknown = _parse_pragmas(text)
    program = Program(externals=set(externals) | set(extra_defined))
    reader = Reader()
    for clause in reader.read_terms(text):
        if isinstance(clause, Struct) and clause.name == ":-" \
                and clause.arity == 1:
            _apply_directive(clause.args[0], reader, program)
            continue
        head, _body = split_clause_term(clause)
        ind = indicator_of(head)
        if ind is None:
            continue
        program.clauses.setdefault(ind, []).append(clause)
    _default_entries(program)
    return program


def program_from_session(session) -> Program:
    """A :class:`Program` over everything a live session can execute:
    main-memory procedures (their surface clauses), EDB-stored rules
    (the Datalog rulebase keeps every stored procedure's surface
    clauses), and EDB facts relations by row count."""
    program = Program()
    for proc in session.machine.procedures.values():
        if proc.kind == "external" or not proc.clauses:
            continue
        program.clauses[(proc.name, proc.arity)] = list(proc.clauses)
    with session.store.reading():
        for ind, clauses in session.store.datalog_rules.clauses().items():
            program.clauses.setdefault(ind, list(clauses))
    for proc in session.store.procedures():
        ind = (proc.name, proc.arity)
        if proc.mode == "facts":
            program.fact_rows[ind] = len(proc.relation)
        elif ind not in program.clauses:
            # rules stored before this process (rulebase dropped on
            # reopen): callable, but no surface clauses to analyse
            program.externals.add(ind)
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


def _apply_directive(directive: Term, reader, program: Program) -> None:
    if isinstance(directive, Struct) and directive.name == "op" \
            and directive.arity == 3:
        priority, type_, name = directive.args
        if isinstance(priority, int) and isinstance(type_, Atom) \
                and isinstance(name, Atom):
            reader.operators.add(priority, type_.name, name.name)
        return
    if isinstance(directive, Struct) and directive.arity == 1 \
            and directive.name in ("dynamic", "discontiguous"):
        for ind in _indicator_list(directive.args[0]):
            program.externals.add(ind)


def _indicator_list(term: Term) -> List[Indicator]:
    if isinstance(term, Struct) and term.name == "," and term.arity == 2:
        return _indicator_list(term.args[0]) + \
            _indicator_list(term.args[1])
    if isinstance(term, Struct) and term.name == "/" and term.arity == 2:
        name, arity = term.args
        if isinstance(name, Atom) and isinstance(arity, int):
            return [(name.name, arity)]
    return []
