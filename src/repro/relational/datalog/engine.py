"""The Datalog engine: routing, evaluation, telemetry.

:class:`DatalogEngine` sits between the session's :meth:`solve` entry
point and the WAM.  For each goal it decides — via the program analysis
of :mod:`.rules` and the cost heuristics of :mod:`.strategy` — whether
the goal should be answered bottom-up; if so it applies the magic-set
rewrite of :mod:`.magic` to a goal with bound arguments, runs the
semi-naive fixpoint of :mod:`.seminaive` under the store's shared read
lock, and converts the answer tuples back into WAM-compatible
:class:`Solution` objects.

Every decision and evaluation is visible in the session's telemetry:

* ``datalog_*`` counters (queries, per-strategy routing, iterations,
  derived facts, magic rewrites/fallbacks/facts, analysis passes);
* the ``datalog_fixpoint_iterations`` histogram (per-evaluation
  semi-naive pass counts);
* a ``datalog.evaluate`` span when tracing is on, carrying the chosen
  strategy, adornment, iteration count and answer cardinality.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...obs.registry import Histogram
from ...obs.tracing import NULL_TRACER
from ...terms import Atom, Struct, Var, deref
from ...wam.machine import Solution
from .magic import MagicProgram, rewrite
from .rules import (Analysis, Indicator, Rule, analyze, const_to_term,
                    indicator_str, term_to_const)
from .seminaive import (EdbIndexes, FixpointStats, SemiNaiveEvaluator,
                        row_predicate)
from .strategy import DEFAULT_MIN_ROWS, Decision, choose

__all__ = ["DatalogEngine"]

#: fixpoint pass counts bucketed in powers of two
_ITER_BOUNDARIES = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_CONTROL = {(",", 2), (";", 2), ("->", 2), ("\\+", 1), ("not", 1),
            ("call", 1), ("findall", 3), ("bagof", 3), ("setof", 3)}


@dataclass
class GoalPlan:
    """What the engine decides about one goal before anything runs:
    :meth:`DatalogEngine.route` evaluates it, ``explain_plan`` and
    ``explain`` render it as a tree and as text."""

    ind: Indicator
    #: ``("var", name)`` / ``("const", value)`` per argument
    items: List[tuple]
    varmap: dict
    #: None when *ind* is not a stored rules procedure (WAM territory)
    decision: Optional[Decision] = None
    # --- bottom-up decisions only: the program an evaluation runs ----
    #: bound argument positions of the goal
    bound: Set[int] = field(default_factory=set)
    #: the magic rewrite, or None with the reason in ``magic_note``
    program: Optional[MagicProgram] = None
    magic_note: Optional[str] = None
    #: rules and strata handed to the fixpoint (the rewritten ones when
    #: ``program`` is set)
    rules: Dict[Indicator, List[Rule]] = field(default_factory=dict)
    strata: Dict[Indicator, int] = field(default_factory=dict)

    def levels(self) -> List[Tuple[int, List[Indicator]]]:
        """``(level, members)`` per stratum, bottom level first."""
        by_level: Dict[int, List[Indicator]] = {}
        for pred, level in self.strata.items():
            by_level.setdefault(level, []).append(pred)
        return [(level, sorted(by_level[level]))
                for level in sorted(by_level)]


def _feeds_on(rule: Rule, members: List[Indicator]) -> bool:
    """Does *rule* feed on its own stratum (needs semi-naive passes)?"""
    return any(not lit.negated and lit.pred in members
               for lit in rule.body)


class DatalogEngine:
    """Bottom-up evaluation subsystem of one session."""

    def __init__(self, store, reader, tracer=None, mode: str = "auto"):
        if mode not in ("auto", "off"):
            raise ValueError(f"datalog mode {mode!r} (expected auto/off)")
        self.store = store
        self.reader = reader
        self.tracer = tracer or NULL_TRACER
        self.mode = mode

        self._analysis: Optional[Analysis] = None
        self._analysis_key: Optional[Tuple[int, int]] = None
        self.last_decision: Optional[Decision] = None
        #: fixpoint stats of the most recent bottom-up evaluation
        #: (ANALYZE folds its per-pass delta counts into the plan tree)
        self.last_stats: Optional[FixpointStats] = None
        #: EDB rows, join indexes and negation extents kept across
        #: evaluations under procedure-version stamps; session state,
        #: never saved (docs/DATALOG.md, "What an evaluation keeps")
        self.edb = EdbIndexes(store)

        self.queries = 0
        self.bottomup = 0
        self.topdown = 0
        self.iterations = 0
        self.facts_derived = 0
        self.magic_rewrites = 0
        self.magic_fallbacks = 0
        self.magic_facts = 0
        self.extractions = 0
        self._fixpoint_hist = Histogram(boundaries=_ITER_BOUNDARIES)

    # ------------------------------------------------------------- analysis

    def analysis(self) -> Analysis:
        """The current program analysis, re-extracted only when the
        rulebase or the store changed (epoch-keyed cache)."""
        key = (self.store.datalog_rules.epoch, self.store.mutation_epoch)
        if self._analysis is None or self._analysis_key != key:
            with self.store.reading():
                clause_map = self.store.datalog_rules.clauses()
                self._analysis = analyze(clause_map, self._is_edb)
            self._analysis_key = key
            self.extractions += 1
        return self._analysis

    def _is_edb(self, ind: Indicator) -> bool:
        proc = self.store.lookup(*ind)
        return proc is not None and proc.mode == "facts"

    # -------------------------------------------------------------- routing

    def route(self, goal, limit: Optional[int] = None
              ) -> Optional[List[Solution]]:
        """Answer *goal* bottom-up, or return None to send it to the
        WAM.  Mirrors :meth:`Machine.solve`'s binding conventions so the
        two paths are interchangeable."""
        if self.mode == "off":
            return None
        if not len(self.store.datalog_rules):
            return None         # fast path: the store holds no rules
        plan = self.plan(goal)
        if plan is None or plan.decision is None:
            return None
        decision = plan.decision

        self.queries += 1
        self.last_decision = decision
        if decision.strategy != "bottomup":
            self.topdown += 1
            return None
        self.bottomup += 1
        if plan.program is not None:
            self.magic_rewrites += 1
        elif plan.bound:
            self.magic_fallbacks += 1
        answers = self._solve_bottom_up(plan)
        return self._bind(answers, plan.items, plan.varmap, limit)

    def plan(self, goal) -> Optional[GoalPlan]:
        """Plan *goal* without evaluating or counting anything: goal
        shape, strategy decision and — for a bottom-up decision — the
        (magic-rewritten) program a fixpoint would run.  None when the
        goal is not a single positive literal with atomic arguments."""
        spec = self._goal_spec(goal)
        if spec is None:
            return None
        plan = GoalPlan(*spec)
        ind = plan.ind
        if ind not in self.store.datalog_rules:
            return plan
        analysis = self.analysis()
        decision = plan.decision = choose(analysis, ind, self.store,
                                          self.mode)
        if decision.strategy != "bottomup":
            return plan

        deps = analysis.dependencies(ind)
        plan.rules = {d: analysis.rules[d] for d in deps
                      if d in analysis.rules}
        plan.strata = {d: analysis.strata[d] for d in plan.rules}
        consts = tuple((pos, value) for pos, (kind, value)
                       in enumerate(plan.items) if kind == "const")
        plan.bound = {pos for pos, _value in consts}
        if not plan.bound:
            plan.magic_note = "no bound arguments"
        else:
            program = plan.program = rewrite(plan.rules, ind, plan.bound,
                                             consts)
            if program is None:
                plan.magic_note = ("rewrite abandoned (rewritten program "
                                   "unstratifiable)")
            else:
                decision.magic = True
                decision.adornment = program.adornment
                plan.rules, plan.strata = program.rules, program.strata
        return plan

    def _goal_spec(self, goal):
        """(indicator, arg items, varmap) of a routable goal, or None.

        Items are ``("var", name)`` / ``("const", value)`` per argument;
        the varmap follows the machine's conventions (parser varmap for
        text goals, non-underscore surface variables for term goals).
        """
        if isinstance(goal, str):
            try:
                goal_term, varmap = self.reader.read_term_with_vars(goal)
            except Exception:
                return None
        else:
            from ...terms import term_variables
            goal_term = goal
            varmap = {v.name: v for v in term_variables(goal_term)
                      if not v.name.startswith("_")}

        goal_term = deref(goal_term)
        if isinstance(goal_term, Atom):
            return ((goal_term.name, 0), [], varmap)
        if not isinstance(goal_term, Struct) \
                or goal_term.indicator in _CONTROL:
            return None
        items: List[tuple] = []
        for arg in goal_term.args:
            arg = deref(arg)
            if isinstance(arg, Var):
                items.append(("var", arg.name))
                continue
            value = term_to_const(arg)
            if value is None:
                return None        # compound argument: WAM territory
            items.append(("const", value))
        return (goal_term.indicator, items, varmap)

    # ----------------------------------------------------------- evaluation

    def _solve_bottom_up(self, plan: GoalPlan) -> Set[tuple]:
        decision = plan.decision
        with self.store.reading():
            with self.tracer.span(
                    "datalog.evaluate", goal=indicator_str(plan.ind),
                    strategy=decision.strategy,
                    magic=decision.magic) as span:
                evaluator = SemiNaiveEvaluator(
                    self.edb, plan.rules, plan.levels(), self.tracer)
                totals = evaluator.run()
                if plan.program is None:
                    answers = totals.get(plan.ind, set())
                else:
                    answers = totals.get(plan.program.query_pred, set())
                    self.magic_facts += sum(
                        len(totals.get(m, ()))
                        for m in plan.program.magic_preds)
                self._account(evaluator.stats)
                self.last_stats = evaluator.stats
                if span is not None:
                    span.attrs.update(
                        iterations=evaluator.stats.iterations,
                        strata=evaluator.stats.strata,
                        facts=evaluator.stats.facts,
                        answers=len(answers),
                        adornment=decision.adornment or "",
                        index_reused=evaluator.stats.index_reused)
        return answers

    def _account(self, stats: FixpointStats) -> None:
        self.iterations += stats.iterations
        self.facts_derived += stats.facts
        self._fixpoint_hist.observe(stats.iterations)

    def _bind(self, answers: Set[tuple], items: List[tuple], varmap,
              limit: Optional[int]) -> List[Solution]:
        """Answer tuples → Solutions: filter by the goal's constants and
        repeated variables, deterministic order, machine-style bindings."""
        first_pos: Dict[str, int] = {}
        checks: List[tuple] = []
        for pos, (kind, value) in enumerate(items):
            if kind == "const":
                checks.append(("const", pos, value))
            elif value in first_pos:
                checks.append(("eq", first_pos[value], pos))
            else:
                first_pos[value] = pos

        rows = list(filter(row_predicate(checks), answers))
        # Order: per column by type name, then value.  When no column
        # mixes types that is plain tuple order, and no key is built.
        key = None
        if len({tuple(map(type, row)) for row in rows}) > 1:
            def key(row):
                return tuple((type(v).__name__, v) for v in row)
        if limit is None:
            rows.sort(key=key)
        else:
            rows = heapq.nsmallest(limit, rows, key=key)

        solutions = []
        for row in rows:
            bindings = {name: const_to_term(row[pos])
                        for name, pos in first_pos.items()
                        if name in varmap}
            solutions.append(Solution(bindings))
        return solutions

    # -------------------------------------------------------------- explain

    def explain(self, goal) -> str:
        """Human-readable strategy report for ``:plan <goal>`` — the
        text rendering of :meth:`plan` (nothing is evaluated)."""
        plan = self.plan(goal)
        if plan is None:
            return ("not routable: goal is not a single positive literal "
                    "with atomic arguments")
        decision = plan.decision
        if decision is None:
            return (f"{indicator_str(plan.ind)}: topdown (not a stored "
                    "rules procedure)")
        lines = [f"strategy: {decision.strategy}",
                 f"reason:   {decision.reason}"]
        if decision.evaluable:
            analysis = self.analysis()
            base = sorted(indicator_str(d) for d in
                          analysis.dependencies(plan.ind) & analysis.edb)
            lines.append(f"base:     {decision.base_rows} EDB rows in "
                         f"{base}")
        if decision.strategy != "bottomup":
            return "\n".join(lines)
        for level, members in plan.levels():
            marks = ", ".join(
                indicator_str(m)
                + (" (recursive)" if any(_feeds_on(rule, members)
                                         for rule in plan.rules[m])
                   else "")
                for m in members)
            lines.append(f"stratum {level}: {marks}")
        if plan.program is not None:
            factored = ", factored" if plan.program.factored else ""
            lines.append(f"adornment: {plan.program.adornment}{factored} "
                         f"({len(plan.program.magic_preds)} magic "
                         "predicates)")
        else:
            lines.append(f"adornment: none ({plan.magic_note})")
        return "\n".join(lines)

    def explain_plan(self, goal):
        """EXPLAIN subtree for a stored-rules goal — the tree rendering
        of :meth:`plan`: the strategy decision with its cost inputs,
        the magic adornment, and the evaluable strata/rules exactly as
        a bottom-up run would see them.  Returns a
        :class:`~repro.obs.explain.PlanNode` or None when the goal is
        not routable (wrong shape, or not a stored rules procedure);
        nothing is evaluated."""
        from ...obs.explain import PlanNode
        plan = self.plan(goal)
        if plan is None or plan.decision is None:
            return None
        decision = plan.decision
        node = PlanNode("decision", indicator_str(plan.ind),
                        strategy=decision.strategy,
                        reason=decision.reason,
                        mode=self.mode, min_rows=DEFAULT_MIN_ROWS,
                        base_rows=decision.base_rows,
                        evaluable=decision.evaluable,
                        recursive=decision.recursive)
        if decision.blocked:
            node.attrs["blocked"] = decision.blocked
        if decision.strategy != "bottomup":
            return node

        if plan.program is not None:
            node.add(PlanNode("magic", plan.program.adornment,
                              adornment=plan.program.adornment,
                              magic_preds=len(plan.program.magic_preds),
                              bound_args=len(plan.bound),
                              factored=plan.program.factored))
        else:
            node.add(PlanNode("magic", "none", bound_args=len(plan.bound),
                              note=plan.magic_note))
        for level, members in plan.levels():
            snode = node.add(PlanNode(
                "stratum", str(level),
                members=",".join(indicator_str(m) for m in members)))
            for d in members:
                for i, rule in enumerate(plan.rules[d]):
                    body = ",".join(
                        ("\\+" if lit.negated else "")
                        + indicator_str(lit.pred) for lit in rule.body)
                    snode.add(PlanNode(
                        "rule", f"{indicator_str(d)}#{i}", body=body,
                        recursive=_feeds_on(rule, members)))
        return node

    # ------------------------------------------------------------ telemetry

    def counters(self) -> dict:
        return {
            "datalog_queries": self.queries,
            "datalog_bottomup": self.bottomup,
            "datalog_topdown": self.topdown,
            "datalog_iterations": self.iterations,
            "datalog_facts_derived": self.facts_derived,
            "datalog_edb_rows": self.edb.fetched_rows,
            "datalog_index_rows": self.edb.resident_rows,
            "datalog_magic_rewrites": self.magic_rewrites,
            "datalog_magic_fallbacks": self.magic_fallbacks,
            "datalog_magic_facts": self.magic_facts,
            "datalog_extractions": self.extractions,
        }

    def histograms(self) -> Dict[str, Histogram]:
        return {"datalog_fixpoint_iterations": self._fixpoint_hist}
