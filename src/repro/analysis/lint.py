"""Source-level lint for Prolog programs (L rules and M201).

Operates on the program *text* (the unit everything in this repo ships
Prolog as: prelude string, workload rule strings, example programs,
``.pl`` files), parsing it with the standard reader and walking the
clause terms.  Findings carry the clause's predicate indicator rather
than a line number — terms do not record source positions.

Waivers are inline pragmas in Prolog comments, file-wide in scope::

    % lint: disable=L104 member/2 select/3
    % lint: disable=L101
    % lint: external schedule3/11 location2/2

``disable`` suppresses a rule (for the named predicates, or everywhere
when no indicator is given); ``external`` declares predicates defined
outside this text (EDB relations, another program unit) so L102 does
not flag calls to them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..lang.program import iter_goals, read_sections, split_clause_term
from ..lang.reader import Reader
from ..terms import Struct, Term, Var, term_variables

__all__ = ["RULES", "LintFinding", "lint_text"]

#: goals the compiler handles directly (no registered indicator)
CONTROL_GOALS = {("true", 0), ("fail", 0), ("false", 0), ("!", 0),
                 ("otherwise", 0)}

#: M201's table: the argument positions (0-based) a builtin demands
#: ground at call time, or it raises an instantiation error.  sort/2
#: and its kin demand a proper list spine, not ground elements, so
#: they are not listed (M201 would over-flag).
DEMANDED: Dict[Tuple[str, int], Tuple[int, ...]] = {
    ("is", 2): (1,),
    ("<", 2): (0, 1), (">", 2): (0, 1), ("=<", 2): (0, 1),
    (">=", 2): (0, 1), ("=:=", 2): (0, 1), ("=\\=", 2): (0, 1),
    ("arg", 3): (0,),
    ("atom_length", 2): (0,),
    ("between", 3): (0, 1),
    ("tab", 1): (0,),
}

#: Lint rule glossary (ids are stable; see docs/ANALYSIS.md).
RULES: Dict[str, str] = {
    "L101": "singleton variable: a named variable occurs exactly once "
            "in its clause (prefix with _ when intentional)",
    "L102": "undefined predicate: a reachable goal's indicator has no "
            "definition in this text, the prelude, the built-ins or a "
            "declared external",
    "L103": "discontiguous clauses: a predicate's clauses are "
            "interleaved with another predicate's",
    "L104": "unindexable first argument: a multi-clause predicate "
            "first-argument indexing cannot discriminate (all clause "
            "heads start with a variable, or arity 0)",
    "L105": "bottom-up blocked: a recursive predicate is Datalog-shaped "
            "but the set-at-a-time engine cannot evaluate it "
            "(unstratified negation in its cycle, or a rule that is "
            "not range-restricted)",
    "L106": "unknown rule id in a lint pragma: '% lint: disable=' names "
            "a rule this linter does not define (typo, or a rule from "
            "a newer version)",
    "M201": "mode conflict: a call passes a variable whose first "
            "occurrence in the clause sits in a builtin's "
            "demanded-ground position — a guaranteed instantiation "
            "error if the goal is reached",
}

_PRAGMA_RE = re.compile(
    r"%\s*lint:\s*(?:disable=(?P<rule>[A-Z]\d{3})|(?P<ext>external))"
    r"(?P<inds>(?:\s+\S+/\d+)*)\s*$",
    re.MULTILINE)

_IND_RE = re.compile(r"(\S+)/(\d+)")


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic, keyed by predicate indicator."""
    rule: str
    indicator: str  # "name/arity" of the offending predicate
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.rule} {self.indicator}: {self.message}"


def lint_text(text: str, name: str = "",
              extra_defined: Tuple[Tuple[str, int], ...] = ()
              ) -> List[LintFinding]:
    """Lint one Prolog program text (read once); return the unwaived
    findings."""
    from ..wam.prelude import library
    _ensure_builtin_registry()
    disabled, externals, unknown_rules = _parse_pragmas(text)
    sections = list(read_sections(text, Reader()))
    clauses = [item for section in sections for item in section.clauses]
    clause_map: Dict[Tuple[str, int], List[Term]] = {}
    for ind, clause in clauses:
        clause_map.setdefault(ind, []).append(clause)
    defined = set(clause_map) | externals | set(extra_defined)
    for section in sections:
        defined.update(section.declared)
    first_arg_kinds: Dict[Tuple[str, int], List[str]] = {}
    calls: List[Tuple[Tuple[str, int], Tuple[str, int]]] = []
    findings: List[LintFinding] = []

    for ind, clause in clauses:
        head, body = split_clause_term(clause)
        first_arg_kinds.setdefault(ind, []).append(_first_arg_kind(head))
        for singleton in _singletons(clause):
            findings.append(LintFinding(
                "L101", _fmt(ind),
                f"singleton variable {singleton} in clause "
                f"{len(first_arg_kinds[ind])} of {_fmt(ind)}"))
        if body is not None:
            calls.extend((ind, callee) for callee, _args in iter_goals(body))
        for goal, var in _fresh_demanded(head, body):
            findings.append(LintFinding(
                "M201", _fmt(ind),
                f"clause {len(first_arg_kinds[ind])} of {_fmt(ind)} "
                f"calls {goal} with the unbound variable {var} in a "
                "position that must be ground (guaranteed "
                "instantiation error)"))

    # L103 — discontiguous clause blocks
    seen: Set[Tuple[str, int]] = set()
    reported: Set[Tuple[str, int]] = set()
    previous: Optional[Tuple[str, int]] = None
    for ind, _clause in clauses:
        if ind != previous and ind in seen and ind not in reported:
            reported.add(ind)
            findings.append(LintFinding(
                "L103", _fmt(ind),
                f"clauses of {_fmt(ind)} are not contiguous"))
        seen.add(ind)
        previous = ind

    # L102 — undefined predicates in the call graph
    flagged: Set[Tuple[Tuple[str, int], Tuple[str, int]]] = set()
    for caller, callee in calls:
        if callee in defined or callee in CONTROL_GOALS:
            continue
        if _builtin(callee) or callee in library():
            continue
        if (caller, callee) in flagged:
            continue
        flagged.add((caller, callee))
        findings.append(LintFinding(
            "L102", _fmt(callee),
            f"{_fmt(caller)} calls undefined {_fmt(callee)} "
            "(declare '% lint: external' if stored in the EDB)"))

    # L104 — unindexable multi-clause predicates
    for ind, kinds in first_arg_kinds.items():
        if len(kinds) < 2:
            continue
        if ind[1] == 0:
            findings.append(LintFinding(
                "L104", _fmt(ind),
                f"{_fmt(ind)} has {len(kinds)} clauses and no "
                "arguments to index on"))
        elif all(kind == "var" for kind in kinds):
            findings.append(LintFinding(
                "L104", _fmt(ind),
                f"every clause of {_fmt(ind)} starts with a variable; "
                "first-argument indexing cannot discriminate"))

    # L105 — recursive, Datalog-shaped, yet blocked from bottom-up
    findings.extend(_datalog_blocked(clause_map))

    # L106 — pragmas naming rules this linter does not define
    for rule_id in sorted(unknown_rules):
        findings.append(LintFinding(
            "L106", rule_id,
            f"'% lint: disable={rule_id}' names an unknown rule "
            "(known: " + ", ".join(sorted(RULES)) + ")"))

    return [f for f in findings if not _waived(f, disabled)]


def _datalog_blocked(clause_terms: Dict[Tuple[str, int], List[Term]]
                     ) -> List[LintFinding]:
    """L105: recursive predicates whose clauses all extract into the
    Datalog fragment (docs/DATALOG.md) but that the set-at-a-time
    engine would still refuse — either a rule is not range-restricted,
    or the recursive cycle passes through a negation (unstratified).
    Non-Datalog-shaped predicates are not flagged: falling back to the
    WAM is their normal, intended execution."""
    from ..relational.datalog.rules import (
        NotDatalog, range_restriction_violation, rule_from_clause,
        stratify)

    extracted = {}
    for ind, terms in clause_terms.items():
        try:
            extracted[ind] = [rule_from_clause(t) for t in terms]
        except NotDatalog:
            continue
    if not extracted:
        return []
    _strata, recursive, _error = stratify(extracted)

    graph = {ind: {lit.pred for rule in rules for lit in rule.body
                   if lit.pred in extracted}
             for ind, rules in extracted.items()}

    def reaches(src: Tuple[str, int], dst: Tuple[str, int]) -> bool:
        seen: Set[Tuple[str, int]] = set()
        stack = [src]
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph[node])
        return False

    findings: List[LintFinding] = []
    for ind in sorted(extracted):
        if ind not in recursive:
            continue
        violation = next(
            (v for v in (range_restriction_violation(r)
                         for r in extracted[ind]) if v), None)
        if violation:
            findings.append(LintFinding(
                "L105", _fmt(ind),
                f"recursive predicate {_fmt(ind)} is Datalog-shaped but "
                f"blocked from bottom-up evaluation: {violation}"))
            continue
        for rule in extracted[ind]:
            negated = next(
                (lit for lit in rule.body if lit.negated
                 and lit.pred in graph and reaches(lit.pred, ind)), None)
            if negated is not None:
                findings.append(LintFinding(
                    "L105", _fmt(ind),
                    f"recursive predicate {_fmt(ind)} is Datalog-shaped "
                    "but blocked from bottom-up evaluation: its cycle "
                    f"passes through the negation of "
                    f"{_fmt(negated.pred)} (unstratified)"))
                break
    return findings


def _fresh_demanded(head: Term, body: Optional[Term]
                    ) -> List[Tuple[str, str]]:
    """M201: ``(goal, variable-name)`` pairs where a variable's *first
    occurrence in the clause* sits in a builtin's demanded-ground
    position — the call is a guaranteed instantiation error if reached
    (a fresh variable is unbound by definition)."""
    if body is None:
        return []
    seen = {id(v) for v in term_variables(head)}
    out: List[Tuple[str, str]] = []
    for ind, args in iter_goals(body):
        for pos in DEMANDED.get(ind, ()):
            if pos < len(args):
                fresh = next((v for v in term_variables(args[pos])
                              if id(v) not in seen), None)
                if fresh is not None:
                    out.append((_fmt(ind), fresh.name or "_"))
        seen.update(id(v) for arg in args for v in term_variables(arg))
    return out


# =====================================================================
# Helpers
# =====================================================================

def _parse_pragmas(text: str):
    """Returns ``(disabled, externals, unknown_rules)``: the waiver
    map, the declared-external indicators, and any well-formed rule ids
    in ``disable=`` pragmas that no rule table defines (L106)."""
    disabled: Dict[str, Optional[Set[str]]] = {}
    externals: Set[Tuple[str, int]] = set()
    unknown: Set[str] = set()
    for m in _PRAGMA_RE.finditer(text):
        inds = [(name, int(arity))
                for name, arity in _IND_RE.findall(m.group("inds") or "")]
        if m.group("ext"):
            externals.update(inds)
        else:
            rule = m.group("rule")
            if rule not in RULES:
                unknown.add(rule)
            if not inds:
                disabled[rule] = None  # everywhere
            elif disabled.get(rule, set()) is not None:
                disabled.setdefault(rule, set()).update(
                    _fmt(ind) for ind in inds)
    return disabled, externals, unknown


def _waived(finding: LintFinding,
            disabled: Dict[str, Optional[Set[str]]]) -> bool:
    if finding.rule not in disabled:
        return False
    scope = disabled[finding.rule]
    return scope is None or finding.indicator in scope


def _fmt(ind: Tuple[str, int]) -> str:
    return f"{ind[0]}/{ind[1]}"


def _first_arg_kind(head: Term) -> str:
    if not isinstance(head, Struct) or head.arity == 0:
        return "none"
    arg = head.args[0]
    if isinstance(arg, Var):
        return "var"
    if isinstance(arg, Struct):
        return "list" if (arg.name == "." and arg.arity == 2) \
            else "struct"
    return "const"  # atoms and numbers


def _singletons(clause: Term) -> List[str]:
    counts: Dict[int, int] = {}
    vars_by_id: Dict[int, Var] = {}
    _count_vars(clause, counts, vars_by_id)
    out = []
    for key, n in counts.items():
        var = vars_by_id[key]
        if n == 1 and var.name and not var.name.startswith("_"):
            out.append(var.name)
    return sorted(out)


def _count_vars(term: Term, counts: Dict[int, int],
                vars_by_id: Dict[int, Var]) -> None:
    if isinstance(term, Var):
        counts[id(term)] = counts.get(id(term), 0) + 1
        vars_by_id[id(term)] = term
    elif isinstance(term, Struct):
        for arg in term.args:
            _count_vars(arg, counts, vars_by_id)


def _builtin(ind: Tuple[str, int]) -> bool:
    from ..wam.compiler import is_builtin_indicator
    if is_builtin_indicator(ind[0], ind[1]):
        return True
    # call/N is open-ended; the registry holds a finite prefix
    return ind[0] == "call" and ind[1] >= 1


def _ensure_builtin_registry() -> None:
    """Import every module that registers builtin indicators, so the
    L102 defined-set matches what a real session can call."""
    from ..wam import builtins  # noqa: F401  (registers at import)
    from ..engine import cursors, relops, types  # noqa: F401
