"""Datalog rule extraction and program analysis.

The relational engine evaluates *sets* of tuples; the WAM evaluates one
resolution at a time.  This module decides which stored procedures can
legally cross that bridge: a procedure is **Datalog-evaluable** when

* every clause is *Datalog-shaped* — the body is a conjunction of
  positive or ``\\+``-negated literals whose arguments are variables or
  atomic constants (no compound terms, no arithmetic, no control
  constructs, no cuts);
* every clause is **range-restricted** (safe): each head variable and
  each variable of a negated literal also occurs in a positive body
  literal, so bottom-up derivation only ever produces ground tuples;
* every predicate it depends on is either another evaluable procedure
  (IDB) or a facts-mode relation in the EDB;
* negation is **stratifiable**: no predicate depends on its own
  negation through the dependency graph.

The extraction pass works on surface clause :class:`~repro.terms.Term`
objects — the store keeps them in a :class:`DatalogRulebase`, beside
the compiled code and persisted with it (the compiled form is
what the WAM executes; the surface form is what the set-at-a-time
evaluator compiles into algebra plans).  Constants are normalised to
the raw Python values facts relations store (``Atom`` → ``str``,
numbers unchanged), so rule evaluation joins directly against BANG
rows without term wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from ...terms import Atom, Struct, Term, Var

__all__ = [
    "V", "Literal", "Rule", "NotDatalog", "DatalogRulebase",
    "Analysis", "rule_from_clause", "rules_from_clauses", "analyze",
    "term_to_const", "const_to_term", "stratify", "indicator_str",
    "tarjan_sccs",
]

Indicator = Tuple[str, int]


class V:
    """A rule variable (named placeholder in the extracted IR)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, V) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("V", self.name))

    def __repr__(self) -> str:
        return self.name


class NotDatalog(Exception):
    """A clause (or program) is outside the Datalog fragment."""


def term_to_const(term: Term):
    """Surface constant → the raw value facts relations store.

    Returns ``None`` for anything that is not an atomic constant
    (callers must treat ``None`` as *not a constant*, never as a
    value — facts rows cannot hold ``None``).
    """
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, (int, float)) and not isinstance(term, bool):
        return term
    return None


def const_to_term(value) -> Term:
    """Raw relation value → surface term (for Solution bindings)."""
    if isinstance(value, str):
        return Atom(value)
    return value


def indicator_str(ind: Indicator) -> str:
    return f"{ind[0]}/{ind[1]}"


@dataclass(frozen=True)
class Literal:
    """One body or head literal: predicate + argument vector."""

    pred: Indicator
    args: Tuple[object, ...]        # V instances and raw constants
    negated: bool = False

    def vars(self) -> List[V]:
        return [a for a in self.args if isinstance(a, V)]

    def var_names(self) -> Set[str]:
        return {a.name for a in self.args if isinstance(a, V)}

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        body = f"{self.pred[0]}({inner})" if self.args else self.pred[0]
        return f"\\+ {body}" if self.negated else body


@dataclass(frozen=True)
class Rule:
    """``head :- body``; facts are rules with an empty body."""

    head: Literal
    body: Tuple[Literal, ...] = ()

    @property
    def positives(self) -> Tuple[Literal, ...]:
        return tuple(l for l in self.body if not l.negated)

    @property
    def negatives(self) -> Tuple[Literal, ...]:
        return tuple(l for l in self.body if l.negated)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(l) for l in self.body)}."


# =====================================================================
# Clause → rule extraction
# =====================================================================

_NEGATION = {("\\+", 1), ("not", 1)}
_CONJ = (",", 2)

#: control constructs and builtins a Datalog body may not contain.
#: (Anything not listed here that is neither IDB nor EDB is still
#: blocked later, by the dependency analysis — this set just gives the
#: common cases a direct, readable rejection reason.)
_NON_LITERAL = {
    ("!", 0), ("true", 0), ("fail", 0), ("false", 0), ("halt", 0),
    (";", 2), ("->", 2), ("*->", 2),
    ("=", 2), ("\\=", 2), ("==", 2), ("\\==", 2),
    ("is", 2), ("<", 2), (">", 2), ("=<", 2), (">=", 2),
    ("=:=", 2), ("=\\=", 2), ("@<", 2), ("@>", 2), ("@=<", 2),
    ("@>=", 2), ("=..", 2), ("compare", 3),
    ("var", 1), ("nonvar", 1), ("atom", 1), ("number", 1),
    ("atomic", 1), ("compound", 1), ("callable", 1),
    ("call", 1), ("findall", 3), ("bagof", 3), ("setof", 3),
    ("forall", 2), ("assert", 1), ("asserta", 1), ("assertz", 1),
    ("retract", 1), ("once", 1), ("ignore", 1), ("catch", 3),
    ("throw", 1), ("write", 1), ("nl", 0), ("read", 1),
}


def _flatten_body(term: Term, out: List[Term]) -> None:
    if isinstance(term, Struct) and term.indicator == _CONJ:
        _flatten_body(term.args[0], out)
        _flatten_body(term.args[1], out)
    else:
        out.append(term)


def _literal_from_term(term: Term, varmap: Dict[int, V],
                       negated: bool = False) -> Literal:
    if isinstance(term, Atom):
        if (term.name, 0) in _NON_LITERAL:
            raise NotDatalog(f"control goal {term.name}/0")
        return Literal((term.name, 0), (), negated)
    if not isinstance(term, Struct):
        raise NotDatalog(f"non-callable goal {term!r}")
    if term.indicator in _NON_LITERAL:
        raise NotDatalog(
            f"builtin goal {term.name}/{term.arity}")
    args: List[object] = []
    for arg in term.args:
        if isinstance(arg, Var):
            ref = varmap.get(id(arg))
            if ref is None:
                # Keep the surface name (for readable diagnostics and
                # :plan output); anonymous or colliding vars get a
                # fresh positional name.
                name = arg.name if arg.name and arg.name != "_" \
                    else f"_G{len(varmap)}"
                if any(v.name == name for v in varmap.values()):
                    name = f"{name}_{len(varmap)}"
                ref = varmap[id(arg)] = V(name)
            args.append(ref)
            continue
        value = term_to_const(arg)
        if value is None:
            raise NotDatalog(
                f"compound argument {arg!r} in {term.name}/{term.arity}")
        args.append(value)
    return Literal((term.name, term.arity), tuple(args), negated)


def rule_from_clause(clause: Term) -> Rule:
    """Extract one clause into the Datalog IR.

    Raises :class:`NotDatalog` with a human-readable reason when the
    clause falls outside the fragment (control constructs, builtins,
    compound arguments, non-literal goals).
    """
    varmap: Dict[int, V] = {}
    if isinstance(clause, Struct) and clause.indicator == (":-", 2):
        head_term, body_term = clause.args
    else:
        head_term, body_term = clause, None

    if not isinstance(head_term, (Atom, Struct)):
        raise NotDatalog(f"non-callable head {head_term!r}")
    head = _literal_from_term(head_term, varmap)
    if head.negated:  # pragma: no cover - unreachable via parser
        raise NotDatalog("negated head")

    body: List[Literal] = []
    if body_term is not None:
        goals: List[Term] = []
        _flatten_body(body_term, goals)
        for goal in goals:
            if isinstance(goal, Struct) and goal.indicator in _NEGATION:
                inner = goal.args[0]
                if isinstance(inner, Var):
                    raise NotDatalog("negated metacall through a variable")
                body.append(_literal_from_term(inner, varmap, negated=True))
            elif isinstance(goal, Var):
                raise NotDatalog("metacall through a variable")
            else:
                body.append(_literal_from_term(goal, varmap))
    return Rule(head, tuple(body))


def rules_from_clauses(clauses: Sequence[Term]) -> List[Rule]:
    """Extract a whole clause set; raises on the first non-Datalog
    clause (a procedure is in or out as a unit)."""
    return [rule_from_clause(c) for c in clauses]


def range_restriction_violation(rule: Rule) -> Optional[str]:
    """The first safety violation in *rule*, or None when safe."""
    positive_vars: Set[str] = set()
    for literal in rule.positives:
        positive_vars |= literal.var_names()
    for var in rule.head.var_names() - positive_vars:
        return (f"head variable {var} of {indicator_str(rule.head.pred)} "
                "is not bound by a positive body literal")
    for literal in rule.negatives:
        for var in literal.var_names() - positive_vars:
            return (f"variable {var} of negated {indicator_str(literal.pred)}"
                    " is not bound by a positive body literal")
    return None


# =====================================================================
# Program analysis: dependencies, recursion, stratification
# =====================================================================

@dataclass
class Analysis:
    """Everything the strategy planner needs to know about the
    extracted program: which procedures are evaluable, why the rest are
    blocked, which are recursive, and the stratification."""

    #: successfully extracted rule sets (Datalog-shaped procedures)
    rules: Dict[Indicator, List[Rule]] = field(default_factory=dict)
    #: facts-mode relations the rules reference
    edb: Set[Indicator] = field(default_factory=set)
    #: procedures the bottom-up evaluator may own
    evaluable: Set[Indicator] = field(default_factory=set)
    #: indicator → human-readable reason it cannot run bottom-up
    blocked: Dict[Indicator, str] = field(default_factory=dict)
    #: evaluable indicator → stratum number (0-based, bottom first)
    strata: Dict[Indicator, int] = field(default_factory=dict)
    #: members of a recursive SCC (including self-recursion)
    recursive: Set[Indicator] = field(default_factory=set)

    def dependencies(self, ind: Indicator) -> Set[Indicator]:
        """IDB+EDB closure reachable from *ind* (including itself)."""
        seen: Set[Indicator] = set()
        stack = [ind]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for rule in self.rules.get(current, ()):
                for literal in rule.body:
                    stack.append(literal.pred)
        return seen

    def strata_of(self, ind: Indicator) -> List[List[Indicator]]:
        """The evaluable dependency closure of *ind*, grouped by
        stratum (bottom stratum first, EDB relations excluded)."""
        deps = [d for d in self.dependencies(ind) if d in self.strata]
        by_level: Dict[int, List[Indicator]] = {}
        for dep in deps:
            by_level.setdefault(self.strata[dep], []).append(dep)
        return [sorted(by_level[level]) for level in sorted(by_level)]


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


def stratify(rules: Dict[Indicator, List[Rule]]
             ) -> Tuple[Optional[Dict[Indicator, int]],
                        Set[Indicator], Optional[str]]:
    """Stratification of an extracted rule set.

    Returns ``(strata, recursive, error)``: *strata* maps each rule
    predicate to its stratum (None when unstratifiable), *recursive*
    holds members of cyclic SCCs, *error* names the offending negation
    when stratification fails.
    """
    graph: Dict[Indicator, Set[Indicator]] = {ind: set() for ind in rules}
    negative: Set[Tuple[Indicator, Indicator]] = set()
    for ind, rule_list in rules.items():
        for rule in rule_list:
            for literal in rule.body:
                if literal.pred in rules:
                    graph[ind].add(literal.pred)
                    if literal.negated:
                        negative.add((ind, literal.pred))

    sccs = tarjan_sccs(graph)
    scc_of: Dict[Indicator, int] = {}
    for i, scc in enumerate(sccs):
        for member in scc:
            scc_of[member] = i

    recursive: Set[Indicator] = set()
    for scc in sccs:
        if len(scc) > 1:
            recursive.update(scc)
        elif scc[0] in graph[scc[0]]:
            recursive.add(scc[0])

    for caller, callee in negative:
        if scc_of[caller] == scc_of[callee]:
            return (None, recursive,
                    f"{indicator_str(caller)} depends on its own negation "
                    f"through {indicator_str(callee)}")

    # Tarjan emits SCCs in reverse topological order: dependencies
    # first, so one pass assigns every stratum.
    scc_level: Dict[int, int] = {}
    for i, scc in enumerate(sccs):
        level = 0
        members = set(scc)
        for member in scc:
            for callee in graph[member]:
                if callee in members:
                    continue
                step = 1 if (member, callee) in negative else 0
                level = max(level, scc_level[scc_of[callee]] + step)
        scc_level[i] = level
    strata = {ind: scc_level[scc_of[ind]] for ind in rules}
    return strata, recursive, None


def analyze(clause_map: Dict[Indicator, Sequence[Term]],
            is_edb: Callable[[Indicator], bool]) -> Analysis:
    """Full evaluability analysis of a stored clause map.

    *is_edb* answers whether an indicator is a facts-mode relation in
    the external store (the extensional database).
    """
    analysis = Analysis()

    extracted: Dict[Indicator, List[Rule]] = {}
    for ind, clauses in clause_map.items():
        try:
            rules = rules_from_clauses(clauses)
        except NotDatalog as exc:
            analysis.blocked[ind] = f"not Datalog-shaped: {exc}"
            continue
        violation = None
        for rule in rules:
            violation = range_restriction_violation(rule)
            if violation:
                break
        if violation:
            analysis.blocked[ind] = f"not range-restricted: {violation}"
            continue
        extracted[ind] = rules
    analysis.rules = extracted

    # Dependency closure: every body predicate must be extracted IDB or
    # a facts relation; blocked status propagates up the call graph.
    blocked_dep: Dict[Indicator, str] = {}
    changed = True
    while changed:
        changed = False
        for ind, rules in extracted.items():
            if ind in blocked_dep:
                continue
            for rule in rules:
                for literal in rule.body:
                    dep = literal.pred
                    if dep in extracted and dep not in blocked_dep:
                        continue
                    if dep in analysis.blocked or dep in blocked_dep:
                        blocked_dep[ind] = (
                            f"depends on blocked {indicator_str(dep)}")
                    elif dep not in extracted:
                        if is_edb(dep):
                            analysis.edb.add(dep)
                            continue
                        blocked_dep[ind] = (
                            f"depends on {indicator_str(dep)}, which is "
                            "neither an evaluable procedure nor a stored "
                            "facts relation")
                    changed = True
                    break
                if ind in blocked_dep:
                    break

    candidates = {ind: rules for ind, rules in extracted.items()
                  if ind not in blocked_dep}
    analysis.blocked.update(blocked_dep)

    strata, recursive, error = stratify(candidates)
    analysis.recursive = recursive
    if strata is None:
        # Unstratified negation poisons exactly the SCC it occurs in
        # (and everything depending on it); re-run per-SCC to keep the
        # independent parts evaluable.
        graph = {ind: {l.pred for r in rules for l in r.body
                       if l.pred in candidates}
                 for ind, rules in candidates.items()}
        sccs = tarjan_sccs(graph)
        poisoned: Set[Indicator] = set()
        for scc in sccs:
            members = set(scc)
            bad = any(
                l.negated and l.pred in members
                for m in scc for r in candidates[m] for l in r.body)
            if bad or members & {dep for m in scc for dep in graph[m]
                                 if dep in poisoned}:
                if bad:
                    poisoned.update(members)
        # Propagate through callers.
        changed = True
        while changed:
            changed = False
            for ind, deps in graph.items():
                if ind not in poisoned and deps & poisoned:
                    poisoned.add(ind)
                    changed = True
        for ind in poisoned:
            analysis.blocked[ind] = f"unstratified negation: {error}"
        candidates = {ind: rules for ind, rules in candidates.items()
                      if ind not in poisoned}
        strata, _, error2 = stratify(candidates)
        if strata is None:  # pragma: no cover - defensive
            for ind in candidates:
                analysis.blocked[ind] = f"unstratified negation: {error2}"
            strata = {}

    analysis.evaluable = set(strata)
    analysis.strata = strata
    return analysis


# =====================================================================
# The rulebase
# =====================================================================

class DatalogRulebase:
    """Surface clauses of stored rules procedures, kept beside the
    compiled code for the set-at-a-time evaluator and keyed by the
    ``clause_id`` each one is stored under.

    Changed only by applying redo records (``ExternalStore.apply``,
    under the store's write lock) and persisted with the checkpoint,
    so live writes, a reopened store and followers track the same
    clauses: a retract removes its one clause, and the procedure stays
    tracked.
    """

    def __init__(self) -> None:
        self._clauses: Dict[Indicator, Dict[int, Term]] = {}
        #: bumped on every change; analysis caches key on it
        self.epoch = 0

    def set(self, ind: Indicator, clauses: Iterable[Tuple[int, Term]]
            ) -> None:
        """Track *ind* with ``(clause_id, clause)`` pairs."""
        self._clauses[ind] = dict(clauses)
        self.epoch += 1

    def add(self, ind: Indicator, clause_id: int, clause: Term) -> None:
        self._clauses.setdefault(ind, {})[clause_id] = clause
        self.epoch += 1

    def retract(self, ind: Indicator, clause_id: int) -> None:
        if self._clauses.get(ind, {}).pop(clause_id, None) is not None:
            self.epoch += 1

    def drop(self, ind: Indicator) -> None:
        if self._clauses.pop(ind, None) is not None:
            self.epoch += 1

    def clauses(self) -> Dict[Indicator, List[Term]]:
        """Each tracked procedure's clauses in ``clause_id`` order."""
        return {ind: list(cs.values()) for ind, cs in self._clauses.items()}

    def __contains__(self, ind: Indicator) -> bool:
        return ind in self._clauses

    def __len__(self) -> int:
        return len(self._clauses)
