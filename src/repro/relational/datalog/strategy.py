"""Per-call-site strategy selection: WAM top-down vs bottom-up.

The paper's dual evaluation strategy (§4) leaves *which* engine answers
a given goal to the system.  The heuristics here extend the relational
access-path planner's premise — page transfer dominates, so cost in
data volume — one level up:

* goals whose predicate is not Datalog-evaluable (blocked by shape,
  range restriction, dependency on a builtin, or unstratified negation)
  must run top-down;
* non-recursive evaluable goals also run top-down: the WAM with the
  dynamic loader already answers those in one pass, and bottom-up would
  only add fixpoint machinery around the same joins;
* recursive evaluable goals run bottom-up **when the base data is large
  enough to pay for it** — the relevant EDB row count (summed over the
  dependency closure) must reach ``DEFAULT_MIN_ROWS``.  Below that,
  tuple-at-a-time resolution wins on constant factors; above it,
  set-at-a-time joins win asymptotically (no re-derivation, bulk index
  probes).

``mode`` is ``"auto"`` (the heuristics above) or ``"off"`` (no
routing: every goal runs on the WAM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .rules import Analysis, Indicator, indicator_str

__all__ = ["Decision", "choose", "DEFAULT_MIN_ROWS"]

#: below this many relevant EDB rows, stay on the WAM
DEFAULT_MIN_ROWS = 256


@dataclass
class Decision:
    """One strategy decision, as shown by ``:plan`` and span attrs."""

    indicator: Indicator
    strategy: str               # 'bottomup' | 'topdown'
    reason: str
    evaluable: bool = False
    recursive: bool = False
    blocked: Optional[str] = None
    base_rows: int = 0
    #: the routing mode that drove the choice (EXPLAIN renders it)
    mode: str = "auto"
    #: evaluable strata of the goal's dependency closure, bottom first
    strata: List[List[Indicator]] = field(default_factory=list)
    #: query adornment (filled in by the engine when magic applies)
    adornment: Optional[str] = None
    magic: bool = False

    def describe(self) -> str:
        return (f"{indicator_str(self.indicator)}: {self.strategy} "
                f"({self.reason})")


def choose(analysis: Analysis, ind: Indicator, store,
           mode: str = "auto") -> Decision:
    """Pick the strategy for a goal on *ind*: it depends only on the
    goal's predicate and the store, never on what else the session
    has run."""
    if mode == "off":
        return Decision(ind, "topdown", "datalog routing disabled",
                        mode=mode)
    if ind not in analysis.evaluable:
        blocked = analysis.blocked.get(
            ind, "not a stored rules procedure")
        return Decision(ind, "topdown", blocked, blocked=blocked,
                        mode=mode)

    deps = analysis.dependencies(ind)
    recursive = bool(deps & analysis.recursive)
    strata = analysis.strata_of(ind)
    base_rows = 0
    for dep in sorted(deps & analysis.edb):
        proc = store.lookup(*dep)
        if proc is not None:
            base_rows += len(proc.relation)

    if not recursive:
        return Decision(
            ind, "topdown",
            "non-recursive: one top-down pass answers it",
            evaluable=True, recursive=False, base_rows=base_rows,
            strata=strata, mode=mode)
    if base_rows < DEFAULT_MIN_ROWS:
        return Decision(
            ind, "topdown",
            f"small EDB ({base_rows} rows < {DEFAULT_MIN_ROWS}): "
            "tuple-at-a-time wins on constant factors",
            evaluable=True, recursive=True, base_rows=base_rows,
            strata=strata, mode=mode)
    return Decision(ind, "bottomup", f"recursive over {base_rows} EDB rows",
                    evaluable=True, recursive=True, base_rows=base_rows,
                    strata=strata, mode=mode)
