"""Whole-program analysis façade and report (docs/ANALYSIS.md).

:func:`analyze_program` runs the full pass — call graph, groundness
fixpoint, cardinality — and returns a :class:`GlobalReport` holding
per-predicate :class:`PredicateInfo` plus the ``analysis_global_*``
counters the exposition publishes.  The report is also the consumer
API:

* :meth:`GlobalReport.mode_findings` — the M lint rules (M201/M202/
  M203), returned as :class:`~repro.analysis.lint.LintFinding` so the
  standard ``% lint: disable=`` pragmas waive them.
* :meth:`GlobalReport.describe` / :meth:`GlobalReport.to_dict` — the
  ``:modes`` REPL command and ``python -m repro.analysis modes
  [--json]`` renderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...lang.program import Indicator, iter_goals, split_clause_term
from ...terms import Struct, Var
from .callgraph import CallGraph, Program, build_call_graph
from .cardinality import (CardResult, infer_cardinality)
from .modes import ModeResult, builtin_signature, infer_modes, mode_string

__all__ = ["PredicateInfo", "GlobalReport", "analyze_program"]


@dataclass
class PredicateInfo:
    """Everything the analysis inferred about one predicate."""
    indicator: Indicator
    source: str               # "clauses" | "facts" | "external"
    clauses: int = 0
    rows: int = 0
    call_modes: Optional[Tuple[str, ...]] = None
    success_modes: Optional[Tuple[str, ...]] = None
    determinism: Optional[str] = None
    recursive: bool = False
    widened: bool = False
    called: bool = False
    entry: bool = False
    #: argument position that makes the predicate det under modes
    det_arg: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "indicator": f"{self.indicator[0]}/{self.indicator[1]}",
            "source": self.source,
        }
        if self.source == "clauses":
            out["clauses"] = self.clauses
        if self.source == "facts":
            out["rows"] = self.rows
        if self.call_modes is not None:
            out["call_modes"] = mode_string(self.call_modes)
        if self.success_modes is not None:
            out["success_modes"] = mode_string(self.success_modes)
        if self.determinism is not None:
            out["determinism"] = self.determinism
        out["recursive"] = self.recursive
        out["called"] = self.called
        out["entry"] = self.entry
        if self.widened:
            out["widened"] = True
        if self.det_arg is not None:
            out["det_under_modes_arg"] = self.det_arg
        return out


@dataclass
class GlobalReport:
    """The result of one whole-program analysis run."""
    program: Program
    graph: CallGraph
    modes: ModeResult
    cards: CardResult
    infos: Dict[Indicator, PredicateInfo] = field(default_factory=dict)

    def counters(self) -> Dict[str, int]:
        return {
            "analysis_global_predicates": len(self.infos),
            "analysis_global_sccs": len(self.graph.sccs),
            "analysis_global_iterations": self.modes.iterations,
            "analysis_global_widenings": len(self.modes.widened),
        }

    def info(self, name: str, arity: int) -> Optional[PredicateInfo]:
        return self.infos.get((name, arity))

    # -- renderings ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "global_analysis",
            "predicates": [self.infos[ind].to_dict()
                           for ind in sorted(self.infos)],
            "entries": [f"{n}/{a}" for n, a in self.program.entries],
            "counters": self.counters(),
        }

    def describe(self, name: Optional[str] = None,
                 arity: Optional[int] = None) -> str:
        """Text rendering; restricted to one predicate when asked."""
        lines: List[str] = []
        inds = sorted(self.infos)
        if name is not None:
            inds = [i for i in inds if i[0] == name
                    and (arity is None or i[1] == arity)]
            if not inds:
                return f"no analysed predicate matches {name}" + \
                    ("" if arity is None else f"/{arity}")
        else:
            header = (f"{len(self.infos)} predicates, "
                      f"{len(self.graph.sccs)} SCCs, "
                      f"{self.modes.iterations} iterations, "
                      f"{len(self.modes.widened)} widened")
            lines.append(header)
        for ind in inds:
            info = self.infos[ind]
            bits = [f"{ind[0]}/{ind[1]}:"]
            if info.call_modes is not None:
                bits.append(f"call={mode_string(info.call_modes)}")
            if info.success_modes is not None:
                bits.append(f"succ={mode_string(info.success_modes)}")
            if info.determinism is not None:
                bits.append(f"det={info.determinism}")
            flags = [flag for flag, on in (
                ("recursive", info.recursive), ("entry", info.entry),
                ("widened", info.widened)) if on]
            if info.source != "clauses":
                flags.append(info.source)
            if info.det_arg is not None:
                flags.append(f"det_under_modes@{info.det_arg}")
            if flags:
                bits.append("[" + ",".join(flags) + "]")
            lines.append(" ".join(bits))
        return "\n".join(lines)

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
    report = GlobalReport(program=program, graph=graph, modes=modes,
                          cards=cards)
    entries = set(program.entries)
    for ind in sorted(program.defined()):
        if ind in program.clauses:
            source = "clauses"
        elif ind in program.fact_rows:
            source = "facts"
        else:
            source = "external"
        info = PredicateInfo(
            indicator=ind, source=source,
            clauses=len(program.clauses.get(ind, ())),
            rows=program.fact_rows.get(ind, 0),
            recursive=graph.recursive(ind) if ind in graph.scc_of
            else False,
            widened=ind in modes.widened,
            called=ind in modes.called,
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
