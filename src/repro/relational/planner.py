"""Access-path selection for the relational engine.

A deliberately small cost-based planner: it compares the number of grid
leaves (pages) each candidate access path would touch — the paper's
premise that "data base computations are bound by the transfer of data"
(§2.2) makes page count the right cost unit — and picks the cheaper of

* point/partial-match access through the grid,
* clustered full scan,

and for joins, the cheaper of hash join (one pass over both inputs) and
index nested-loop join (outer cardinality × inner probe pages).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..bang.relation import BangRelation
from .algebra import Filter, HashJoin, IndexJoin, Plan, Scan, Select


def best_access_path(relation: BangRelation,
                     assignment: Dict[int, Any]) -> Plan:
    """Grid partial match vs clustered scan by estimated page count.

    Either way the plan yields exactly the rows matching *assignment*:
    a scan chosen for an unselective pattern filters as it goes."""
    if not assignment:
        return Scan(relation)
    probe_pages = relation.pages_for(assignment)
    scan_pages = relation.grid.leaf_count
    if probe_pages < scan_pages:
        return Select(relation, assignment)
    return Filter(Scan(relation),
                  lambda row: relation.row_matches(row, assignment))


def estimate_rows(relation: BangRelation,
                  assignment: Dict[int, Any]) -> float:
    """Crude cardinality estimate: uniform rows per touched page."""
    if not relation.grid.leaf_count:
        return 0.0
    per_page = len(relation) / relation.grid.leaf_count
    return per_page * relation.pages_for(assignment)


def plan_join(outer: Plan, outer_rows: float,
              inner: BangRelation, outer_attr: int, inner_attr: int,
              inner_assignment: Optional[Dict[int, Any]] = None) -> Plan:
    """Hash join vs index nested-loop join by page cost.

    *outer_rows* is the caller's cardinality estimate for the outer input
    (e.g. from :func:`estimate_rows`)."""
    inner_assignment = dict(inner_assignment or {})
    # Index join cost: per outer row, pages touched by one point probe.
    probe = dict(inner_assignment)
    probe[inner_attr] = _sample_value(inner, inner_attr)
    probe_pages = inner.pages_for(probe) if probe[inner_attr] is not None \
        else inner.grid.leaf_count
    index_cost = outer_rows * max(probe_pages, 1)
    # Hash join cost: one full pass over the inner.
    hash_cost = inner.grid.leaf_count
    if index_cost < hash_cost:
        return IndexJoin(outer, inner, outer_attr, inner_attr,
                         inner_assignment)
    inner_plan = best_access_path(inner, inner_assignment)
    return HashJoin(outer, inner_plan, outer_attr, inner_attr)


def _sample_value(relation: BangRelation, attr: int):
    """A representative probe value for cost estimation."""
    for batch in relation.scan():
        return batch[0][attr]
    return None
