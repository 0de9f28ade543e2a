"""Whole-program analysis façade and report (docs/ANALYSIS.md).

:func:`analyze_program` runs the full pass — call graph, groundness
fixpoint, cardinality — and returns a :class:`GlobalReport` holding
per-predicate :class:`PredicateInfo`.  Its one consumer is the linter:
:meth:`GlobalReport.mode_findings` gives the M lint rules (M201/M202/
M203) as :class:`~repro.analysis.lint.LintFinding` records, so the
standard ``% lint: disable=`` pragmas waive them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...lang.program import Indicator, iter_goals, split_clause_term
from ...terms import Struct, Var
from .callgraph import Program, build_call_graph
from .cardinality import (CardResult, infer_cardinality)
from .modes import ModeResult, builtin_signature, infer_modes

__all__ = ["PredicateInfo", "GlobalReport", "analyze_program"]


@dataclass
class PredicateInfo:
    """Everything the analysis inferred about one predicate."""
    indicator: Indicator
    source: str               # "clauses" | "external"
    call_modes: Optional[Tuple[str, ...]] = None
    success_modes: Optional[Tuple[str, ...]] = None
    determinism: Optional[str] = None
    recursive: bool = False
    entry: bool = False
    #: argument position that makes the predicate det under modes
    det_arg: Optional[int] = None


@dataclass
class GlobalReport:
    """The result of one whole-program analysis run."""
    program: Program
    modes: ModeResult
    cards: CardResult
    infos: Dict[Indicator, PredicateInfo] = field(default_factory=dict)

    def info(self, name: str, arity: int) -> Optional[PredicateInfo]:
        return self.infos.get((name, arity))

    # -- M lint rules -------------------------------------------------

    def mode_findings(self) -> List[Any]:
        """M201/M202/M203 findings over the analysed program, as
        :class:`~repro.analysis.lint.LintFinding` records."""
        from ..lint import LintFinding

        findings: List[Any] = []
        for ind in sorted(self.program.clauses):
            name = f"{ind[0]}/{ind[1]}"
            for clause_no, clause in enumerate(
                    self.program.clauses[ind], start=1):
                for goal_name, pos, var in _fresh_demanded(clause):
                    findings.append(LintFinding(
                        "M201", name,
                        f"clause {clause_no} of {name} calls "
                        f"{goal_name} with the unbound variable "
                        f"{var} in a position that must be ground "
                        "(guaranteed instantiation error)"))
            info = self.infos[ind]
            if info.determinism == "fails" and not info.recursive:
                findings.append(LintFinding(
                    "M202", name,
                    f"{name} provably always fails: no clause can "
                    "produce a solution"))
            if info.det_arg is not None and info.det_arg >= 1:
                findings.append(LintFinding(
                    "M203", name,
                    f"{name} is deterministic under its inferred call "
                    f"modes (argument {info.det_arg + 1} is always "
                    "ground and discriminates every clause) but "
                    "first-argument indexing cannot see it: the "
                    "compiled code keeps a dead choice point"))
        return findings


def analyze_program(program: Program) -> GlobalReport:
    """Run the whole pass: call graph → groundness fixpoint →
    cardinality (mode-refined)."""
    graph = build_call_graph(program)
    modes = infer_modes(program, graph)
    cards = infer_cardinality(program, graph, modes)
    report = GlobalReport(program=program, modes=modes, cards=cards)
    entries = set(program.entries)
    for ind in sorted(program.defined()):
        info = PredicateInfo(
            indicator=ind,
            source="clauses" if ind in program.clauses else "external",
            recursive=graph.recursive(ind) if ind in graph.scc_of
            else False,
            entry=ind in entries,
            det_arg=cards.det_under_modes.get(ind),
        )
        if ind in program.clauses:
            info.call_modes = modes.call_modes.get(ind)
            info.success_modes = modes.success_modes.get(ind)
        info.determinism = cards.class_of(ind)
        report.infos[ind] = info
    return report


def _fresh_demanded(clause) -> List[Tuple[str, int, str]]:
    """M201 core: ``(goal, position, variable-name)`` triples where a
    variable's *first occurrence in the clause* sits in a builtin's
    demanded-ground position — the call is a guaranteed instantiation
    error if reached (a fresh variable is unbound by definition)."""
    head, body = split_clause_term(clause)
    if body is None:
        return []
    seen: set = set()
    if isinstance(head, Struct):
        for arg in head.args:
            _collect_var_ids(arg, seen)
    out: List[Tuple[str, int, str]] = []
    for ind, args in iter_goals(body):
        if args is None:
            continue
        sig = builtin_signature(ind)
        if sig is not None and sig.demands:
            for pos in sig.demands:
                if pos >= len(args):
                    continue
                fresh = _first_fresh_var(args[pos], seen)
                if fresh is not None:
                    out.append((f"{ind[0]}/{ind[1]}", pos,
                                fresh.name or "_"))
        for arg in args:
            _collect_var_ids(arg, seen)
    return out


def _first_fresh_var(term, seen: set) -> Optional[Var]:
    """A variable in *term* with no earlier occurrence, if any — a
    demanded-ground position containing one cannot be satisfied."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var) and id(t) not in seen:
            return t
        if isinstance(t, Struct):
            stack.extend(reversed(t.args))
    return None


def _collect_var_ids(term, seen: set) -> None:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            seen.add(id(t))
        elif isinstance(t, Struct):
            stack.extend(t.args)
