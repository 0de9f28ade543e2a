"""Recursive set-at-a-time evaluation (docs/DATALOG.md).

The missing half of the paper's dual strategy for *recursive*
predicates: rule extraction (:mod:`.rules`), semi-naive bottom-up
fixpoints over the relational algebra (:mod:`.seminaive`), magic-set
demand rewriting for bound-argument queries (:mod:`.magic`), and a
cost-based per-goal strategy planner (:mod:`.strategy`), assembled by
:class:`~repro.relational.datalog.engine.DatalogEngine`.
"""

from .engine import DatalogEngine
from .magic import MagicProgram, rewrite
from .rules import (Analysis, DatalogRulebase, Literal, NotDatalog, Rule, V,
                    analyze, rule_from_clause, stratify)
from .seminaive import FixpointStats, SemiNaiveEvaluator
from .strategy import DEFAULT_MIN_ROWS, Decision, choose

__all__ = [
    "DatalogEngine",
    "DatalogRulebase",
    "Analysis",
    "Literal",
    "Rule",
    "V",
    "NotDatalog",
    "analyze",
    "rule_from_clause",
    "stratify",
    "SemiNaiveEvaluator",
    "FixpointStats",
    "MagicProgram",
    "rewrite",
    "Decision",
    "choose",
    "DEFAULT_MIN_ROWS",
]
