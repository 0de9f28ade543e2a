"""Semi-naive bottom-up fixpoint evaluation (docs/DATALOG.md).

The evaluator runs one stratum at a time (bottom stratum first).  Inside
a stratum the classic semi-naive discipline applies: after the seed pass
(all rules against the current totals, which start empty), each
iteration re-evaluates only the *recursive* rules, once per occurrence
of a current-stratum predicate in the body, with that occurrence fed
from the previous iteration's **delta** and every other occurrence from
the accumulated **total**.  Derived tuples are deduplicated against the
total, so the fixpoint terminates exactly when an iteration derives
nothing new.

Rule bodies are compiled to trees of the existing
:mod:`repro.relational.algebra` operators:

* EDB literals are fetched through
  :func:`repro.relational.planner.best_access_path` (constant arguments
  become grid partial-match assignments) **once per procedure version**:
  rows, hash indexes and negated-literal extent sets live in the
  session's :class:`EdbIndexes` and outlive the evaluation;
* joins are :class:`~repro.relational.algebra.LookupJoin` probes against
  hash indexes that are **built once and never rebuilt for rows that did
  not change** — EDB indexes stand while ``proc.version`` does, indexes
  over IDB totals live for the evaluation and grow by each pass's delta;
* the plan is seeded from the delta occurrence, so per-iteration work is
  proportional to the delta, not the whole EDB;
* constants, repeated variables and cross-literal equalities become
  :class:`~repro.relational.algebra.Filter` predicates, and negated
  literals (always EDB or lower-stratum, by stratification) become
  membership filters against a fixed extent set.

The caller is expected to hold the store's shared read lock for the
whole evaluation (see :class:`~repro.relational.datalog.engine.DatalogEngine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...errors import ExistenceError
from ..algebra import CrossJoin, Filter, LookupJoin, Plan, Rows, execute
from ..planner import best_access_path
from .rules import Indicator, Literal, Rule, V, indicator_str

__all__ = ["SemiNaiveEvaluator", "FixpointStats", "PassStats"]

ConstItems = Tuple[Tuple[int, Any], ...]


@dataclass
class PassStats:
    """One semi-naive pass: how many rows entered the totals, credited
    per rule (ANALYZE renders these; docs/OBSERVABILITY.md, "Explain
    plans").  Rule ids are ``head/arity#i`` with *i* the rule's position
    in the evaluated program's rule list for that head."""

    #: stratum ordinal in evaluation order (bottom level first)
    stratum: int
    #: pass number within the stratum (0 = seed pass)
    index: int
    #: rows merged into the totals by this pass (all predicates)
    delta_rows: int
    #: new rows credited to the rule that first derived them
    per_rule: Dict[str, int]


@dataclass
class FixpointStats:
    """What one bottom-up evaluation did."""

    #: semi-naive passes across all strata (incl. each stratum's seed
    #: pass and the final empty pass that proves the fixpoint)
    iterations: int = 0
    #: strata evaluated
    strata: int = 0
    #: IDB tuples derived (deduplicated; includes magic predicates)
    facts: int = 0
    #: EDB literals were read and none needed a grid fetch: the indexes
    #: an earlier evaluation left behind were current
    index_reused: bool = False
    #: per-stratum iteration counts, bottom stratum first
    per_stratum: List[int] = field(default_factory=list)
    #: per-pass delta row counts (their ``delta_rows`` sum to ``facts``)
    passes: List[PassStats] = field(default_factory=list)


class EdbIndexes:
    """EDB join material one session keeps across evaluations: per facts
    procedure the rows fetched for each constant pattern, hash indexes
    over them and extent sets for negated literals.

    Each procedure's entries carry the ``proc.version`` they were built
    under — the loader's discipline (:mod:`repro.edb.loader`): a lookup
    that finds another version, or no procedure, drops them.  Writers
    never see this structure; callers hold the store's read lock, so the
    version cannot move inside one evaluation."""

    def __init__(self, store):
        self.store = store
        #: indicator → (version, {("rows"|"index"|"extent", consts[, attr]):
        #: row list | hash index | extent set})
        self._kept: Dict[Indicator, Tuple[int, Dict[tuple, Any]]] = {}
        #: lookups served, grid fetches made, rows those fetches read
        #: (``datalog_edb_rows``), rows resident in kept row lists — the
        #: indexes and extents share their tuples (``datalog_index_rows``)
        self.lookups = self.fetches = 0
        self.fetched_rows = self.resident_rows = 0

    def _keep(self, ind: Indicator, key: tuple, build) -> Any:
        """The value kept under *key* for procedure *ind* at its current
        version, from ``build(proc)`` on first use."""
        proc = self.store.lookup(*ind)
        stamp, kept = self._kept.get(ind, (None, None))
        if kept is not None and (proc is None or proc.version != stamp):
            self.resident_rows -= sum(
                len(rows) for k, rows in kept.items() if k[0] == "rows")
            del self._kept[ind]
            kept = None
        if proc is None:
            raise ExistenceError("external procedure", indicator_str(ind))
        if kept is None:
            kept = {}
            self._kept[ind] = (proc.version, kept)
        self.lookups += 1
        value = kept.get(key)
        if value is None:
            value = kept[key] = build(proc)
        return value

    def rows(self, ind: Indicator, consts: ConstItems, tracer) -> List[tuple]:
        """Matching tuples, through the access-path planner (constants →
        grid partial match)."""
        def fetch(proc):
            rows = execute(best_access_path(proc.relation, dict(consts)),
                           tracer)
            self.fetches += 1
            self.fetched_rows += len(rows)
            self.resident_rows += len(rows)
            return rows
        return self._keep(ind, ("rows", consts), fetch)

    def index(self, ind: Indicator, consts: ConstItems, attr: int,
              tracer) -> Dict[Any, List[tuple]]:
        return self._keep(
            ind, ("index", consts, attr),
            lambda _: _extend_index({}, self.rows(ind, consts, tracer), attr))

    def extent(self, ind: Indicator, consts: ConstItems, tracer) -> Set[tuple]:
        return self._keep(ind, ("extent", consts),
                          lambda _: set(self.rows(ind, consts, tracer)))


class SemiNaiveEvaluator:
    """Evaluate an extracted (possibly magic-rewritten) rule program
    against the EDB material kept in *edb*."""

    def __init__(self, edb: EdbIndexes, rules: Dict[Indicator, List[Rule]],
                 levels: Sequence[Tuple[int, List[Indicator]]], tracer=None):
        self.edb = edb
        self.rules = rules
        #: ``(level, sorted members)`` per stratum, bottom level first
        self.levels = levels
        self.tracer = tracer
        self.totals: Dict[Indicator, Set[tuple]] = {
            ind: set() for ind in rules}
        self.stats = FixpointStats()
        #: predicate → attr → hash index over that total, built on first
        #: use and extended by :meth:`_merge` with every pass's new rows
        self._total_index: Dict[Indicator,
                                Dict[int, Dict[Any, List[tuple]]]] = {}

    # ------------------------------------------------------------------ run

    def run(self) -> Dict[Indicator, Set[tuple]]:
        edb = self.edb
        lookups, fetches = edb.lookups, edb.fetches
        for _level, members in self.levels:
            self._eval_stratum(members)
        self.stats.strata = len(self.levels)
        self.stats.index_reused = (edb.lookups > lookups
                                   and edb.fetches == fetches)
        return self.totals

    def _eval_stratum(self, members: Sequence[Indicator]) -> None:
        scc = set(members)
        ordinal = len(self.stats.per_stratum)
        all_rules = [(ind, rule, f"{indicator_str(ind)}#{i}")
                     for ind in members
                     for i, rule in enumerate(self.rules[ind])]
        recursive = []
        for ind, rule, rid in all_rules:
            positions = [i for i, lit in enumerate(rule.body)
                         if not lit.negated and lit.pred in scc]
            if positions:
                recursive.append((ind, rule, rid, positions))

        iterations = 0
        # Seed pass: every rule against the (initially empty) totals.
        # Per-rule accounting credits a row to the first rule that
        # derived it (the membership checks that dedupe evaluation also
        # guarantee single crediting).
        delta: Dict[Indicator, Set[tuple]] = {}
        per_rule: Dict[str, int] = {}
        for ind, rule, rid in all_rules:
            total = self.totals[ind]
            dset = delta.get(ind, ())
            added = 0
            for row in self._eval_rule(rule, None, None):
                if row not in total and row not in dset:
                    dset = delta.setdefault(ind, set())
                    dset.add(row)
                    added += 1
            if added:
                per_rule[rid] = per_rule.get(rid, 0) + added
        self.stats.passes.append(
            PassStats(ordinal, 0, self._merge(delta), per_rule))
        iterations += 1

        while any(delta.values()):
            new: Dict[Indicator, Set[tuple]] = {}
            per_rule = {}
            for ind, rule, rid, positions in recursive:
                total = self.totals[ind]
                pending = new.get(ind, ())
                added = 0
                for pos in positions:
                    delta_rows = delta.get(rule.body[pos].pred)
                    if not delta_rows:
                        continue
                    for row in self._eval_rule(rule, pos, list(delta_rows)):
                        if row not in total and row not in pending:
                            pending = new.setdefault(ind, set())
                            pending.add(row)
                            added += 1
                if added:
                    per_rule[rid] = per_rule.get(rid, 0) + added
            self.stats.passes.append(
                PassStats(ordinal, iterations, self._merge(new), per_rule))
            delta = new
            iterations += 1

        self.stats.iterations += iterations
        self.stats.per_stratum.append(iterations)

    def _merge(self, new: Dict[Indicator, Set[tuple]]) -> int:
        merged = 0
        for ind, rows in new.items():
            self.totals[ind] |= rows
            merged += len(rows)
            for attr, index in self._total_index.get(ind, {}).items():
                _extend_index(index, rows, attr)
        self.stats.facts += merged
        return merged

    # ------------------------------------------------------ rule evaluation

    def _eval_rule(self, rule: Rule, delta_pos: Optional[int],
                   delta_rows: Optional[List[tuple]]) -> Iterable[tuple]:
        """One rule instantiation: delta at *delta_pos* (None for the
        seed pass), totals everywhere else.  Yields head tuples."""
        positives = [i for i, lit in enumerate(rule.body) if not lit.negated]
        # Seed the plan from the delta occurrence so per-iteration work
        # scales with the delta, not with the largest base relation; then
        # order the remaining literals greedily by join connectivity — a
        # literal sharing a variable with the rows built so far becomes an
        # index probe, one sharing none would become a cross product.
        if delta_pos is not None:
            positives.remove(delta_pos)
        ordered: List[int] = [] if delta_pos is None else [delta_pos]
        bound: Set[str] = set() if delta_pos is None \
            else set(rule.body[delta_pos].var_names())
        while positives:
            i = next((i for i in positives
                      if rule.body[i].var_names() & bound), positives[0])
            positives.remove(i)
            ordered.append(i)
            bound |= rule.body[i].var_names()

        plan: Optional[Plan] = None
        layout: Dict[str, int] = {}
        width = 0
        for i in ordered:
            plan, layout, width = self._add_literal(
                plan, layout, width, rule.body[i],
                delta_rows if i == delta_pos else None)

        if plan is None:
            plan = Rows([()], "unit")
        for lit in rule.body:
            if lit.negated:
                plan = self._add_negation(plan, layout, lit)

        head_cols = []
        for arg in rule.head.args:
            if isinstance(arg, V):
                head_cols.append(("var", layout[arg.name]))
            else:
                head_cols.append(("const", arg))
        rows = execute(plan, self.tracer)
        for row in rows:
            yield tuple(row[c] if kind == "var" else c
                        for kind, c in head_cols)

    def _add_literal(self, plan: Optional[Plan], layout: Dict[str, int],
                     width: int, lit: Literal,
                     delta_rows: Optional[List[tuple]]
                     ) -> Tuple[Plan, Dict[str, int], int]:
        """Join *lit* onto *plan*; *delta_rows* is not None for the
        delta occurrence, which then reads those rows."""
        is_edb = lit.pred not in self.rules
        consts = self._const_items(lit)
        label = lit.pred[0] + ("" if delta_rows is None else "Δ")

        # Equality conditions this literal imposes on the combined row
        # (cross-literal shared variables, in-literal repeated variables,
        # constants for non-EDB sources — EDB rows are pre-filtered by
        # the grid assignment).
        conds: List[Tuple[str, int, Any]] = []
        join_var: Optional[str] = None
        join_pos: Optional[int] = None
        fresh: Dict[str, int] = {}
        for pos, arg in enumerate(lit.args):
            if isinstance(arg, V):
                if arg.name in layout:
                    if plan is not None and join_var is None:
                        join_var, join_pos = arg.name, pos
                    else:
                        conds.append(("eq", layout[arg.name], width + pos))
                elif arg.name in fresh:
                    conds.append(("eq", fresh[arg.name], width + pos))
                else:
                    fresh[arg.name] = width + pos
            elif not is_edb:
                conds.append(("const", width + pos, arg))

        if plan is None:
            plan = Rows(self._source_rows(lit, delta_rows, consts), label)
        elif join_var is None:
            plan = CrossJoin(plan, Rows(
                self._source_rows(lit, delta_rows, consts), label))
        else:
            index = self._index_for(lit, consts, join_pos)
            plan = LookupJoin(plan, index, layout[join_var], label)

        if conds:
            plan = Filter(plan, row_predicate(conds))
        layout.update(fresh)
        return plan, layout, width + lit.pred[1]

    def _add_negation(self, plan: Plan, layout: Dict[str, int],
                      lit: Literal) -> Plan:
        """``\\+ lit`` as a membership filter: by stratification the
        negated predicate's extent is already complete (EDB, or a lower
        stratum)."""
        if lit.pred in self.rules:
            extent = self.totals[lit.pred]
        else:
            extent = self.edb.extent(lit.pred, self._const_items(lit),
                                     self.tracer)
        probe = []
        for arg in lit.args:
            if isinstance(arg, V):
                probe.append(("var", layout[arg.name]))
            else:
                probe.append(("const", arg))

        def absent(row, probe=tuple(probe), extent=extent):
            return tuple(row[c] if kind == "var" else c
                         for kind, c in probe) not in extent
        return Filter(plan, absent)

    # -------------------------------------------------------- row sources

    def _const_items(self, lit: Literal) -> ConstItems:
        return tuple((pos, arg) for pos, arg in enumerate(lit.args)
                     if not isinstance(arg, V))

    def _source_rows(self, lit: Literal, delta_rows: Optional[List[tuple]],
                     consts: ConstItems) -> Sequence[tuple]:
        if delta_rows is not None:
            return delta_rows
        if lit.pred in self.rules:
            return list(self.totals[lit.pred])
        return self.edb.rows(lit.pred, consts, self.tracer)

    def _index_for(self, lit: Literal, consts: ConstItems,
                   join_pos: int) -> Dict[Any, List[tuple]]:
        """A hash index on *join_pos* over the literal's source rows: the
        kept EDB index, or the evaluation's index over an IDB total (the
        delta occurrence seeds the plan and is never probed)."""
        if lit.pred not in self.rules:
            return self.edb.index(lit.pred, consts, join_pos, self.tracer)
        by_attr = self._total_index.setdefault(lit.pred, {})
        if join_pos not in by_attr:
            by_attr[join_pos] = _extend_index(
                {}, self.totals[lit.pred], join_pos)
        return by_attr[join_pos]


def _extend_index(index: Dict[Any, List[tuple]], rows: Iterable[tuple],
                  attr: int) -> Dict[Any, List[tuple]]:
    for row in rows:
        index.setdefault(row[attr], []).append(row)
    return index


def row_predicate(conds: List[Tuple[str, int, Any]]):
    """One predicate for a list of ('eq', col, col) / ('const', col, v)
    conditions over the combined row."""
    def check(row, conds=tuple(conds)):
        for kind, a, b in conds:
            if kind == "eq":
                if row[a] != row[b]:
                    return False
            elif row[a] != b:
                return False
        return True
    return check
