"""Relational algebra plan nodes and the pull-based executor.

Plans are trees of small dataclass-style nodes; :func:`execute` runs a
plan to a list of tuples.  Rows move between nodes a batch at a time —
the access-path nodes pass on one list per grid leaf, and every other
node turns each input batch into one output batch (§2.2: a block is
processed while the next is read) — so no node runs a generator step
per row.  Access-path nodes (:class:`Select`,
:class:`RangeSelect`, :class:`Scan`) sit on BANG relations and exploit
the grid's clustered partial-match access; :class:`HashJoin` implements
the classic build/probe equi-join; :class:`IndexJoin` probes the inner
relation's grid per outer row (chosen by the planner when the inner
probe is selective).

Every node counts the rows it produces (``rows_out``, one addition per
batch) so benchmarks can report intermediate cardinalities alongside the
pager's I/O counters.  :meth:`Plan.batches` is the one way rows flow
and the one place they are counted; :meth:`Plan.rows` flattens it for
callers outside the engine.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..bang.relation import BangRelation
from ..errors import CatalogError
from ..obs.tracing import NULL_TRACER


class Plan:
    """Base class for plan nodes: each yields its output from
    :meth:`_batches`, and :meth:`batches` counts it."""

    def __init__(self) -> None:
        self.rows_out = 0

    def batches(self) -> Iterator[List[tuple]]:
        """The node's output, one non-empty list at a time."""
        for batch in self._batches():
            if batch:
                self.rows_out += len(batch)
                yield batch

    def _batches(self) -> Iterator[List[tuple]]:  # pragma: no cover
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        """The output row by row, for callers outside the engine."""
        for batch in self.batches():
            yield from batch


class Scan(Plan):
    """Full clustered scan of a BANG relation."""

    def __init__(self, relation: BangRelation):
        super().__init__()
        self.relation = relation

    def _batches(self) -> Iterator[List[tuple]]:
        return self.relation.scan()


class Select(Plan):
    """Exact partial-match selection via the grid."""

    def __init__(self, relation: BangRelation, assignment: Dict[int, Any]):
        super().__init__()
        self.relation = relation
        self.assignment = dict(assignment)

    def _batches(self) -> Iterator[List[tuple]]:
        return self.relation.query(self.assignment)


class RangeSelect(Plan):
    """Range selection on one orderable attribute (plus exact extras)."""

    def __init__(self, relation: BangRelation, attr: int,
                 low: Any, high: Any,
                 extra: Optional[Dict[int, Any]] = None):
        super().__init__()
        self.relation = relation
        self.attr = attr
        self.low = low
        self.high = high
        self.extra = dict(extra or {})

    def _batches(self) -> Iterator[List[tuple]]:
        return self.relation.range_query(self.attr, self.low, self.high,
                                         self.extra)


class Filter(Plan):
    """Arbitrary predicate over child rows (post-filter)."""

    def __init__(self, child: Plan, predicate: Callable[[tuple], bool]):
        super().__init__()
        self.child = child
        self.predicate = predicate

    def _batches(self) -> Iterator[List[tuple]]:
        pred = self.predicate
        return ([row for row in batch if pred(row)]
                for batch in self.child.batches())


class Project(Plan):
    """Column projection (no duplicate elimination, like SQL SELECT)."""

    def __init__(self, child: Plan, columns: Sequence[int]):
        super().__init__()
        self.child = child
        self.columns = tuple(columns)

    def _batches(self) -> Iterator[List[tuple]]:
        cols = self.columns
        return ([tuple(row[c] for c in cols) for row in batch]
                for batch in self.child.batches())


class Distinct(Plan):
    """Duplicate elimination (hash-based)."""

    def __init__(self, child: Plan):
        super().__init__()
        self.child = child

    def _batches(self) -> Iterator[List[tuple]]:
        seen: set = set()
        for batch in self.child.batches():
            fresh = []
            for row in batch:
                if row not in seen:
                    seen.add(row)
                    fresh.append(row)
            yield fresh


class HashJoin(Plan):
    """Equi-join: build a hash table on the left, probe with the right.

    Output rows are ``left_row + right_row``.
    """

    def __init__(self, left: Plan, right: Plan,
                 left_attr: int, right_attr: int):
        super().__init__()
        self.left = left
        self.right = right
        self.left_attr = left_attr
        self.right_attr = right_attr

    def _batches(self) -> Iterator[List[tuple]]:
        table: Dict[Any, List[tuple]] = {}
        left_attr, right_attr = self.left_attr, self.right_attr
        for batch in self.left.batches():
            for row in batch:
                table.setdefault(row[left_attr], []).append(row)
        for batch in self.right.batches():
            yield [match + row for row in batch
                   for match in table.get(row[right_attr], ())]


class IndexJoin(Plan):
    """Index nested-loop join: per outer row, probe the inner grid.

    Output rows are ``outer_row + inner_row``, one batch per outer
    batch.
    """

    def __init__(self, outer: Plan, inner: BangRelation,
                 outer_attr: int, inner_attr: int,
                 inner_extra: Optional[Dict[int, Any]] = None):
        super().__init__()
        self.outer = outer
        self.inner = inner
        self.outer_attr = outer_attr
        self.inner_attr = inner_attr
        self.inner_extra = dict(inner_extra or {})

    def _batches(self) -> Iterator[List[tuple]]:
        for batch in self.outer.batches():
            out: List[tuple] = []
            for row in batch:
                assignment = dict(self.inner_extra)
                assignment[self.inner_attr] = row[self.outer_attr]
                for matches in self.inner.query(assignment):
                    out += [row + match for match in matches]
            yield out


class Rows(Plan):
    """In-memory leaf: a materialised tuple list used as a plan input.

    The semi-naive evaluator feeds delta relations (plain Python lists
    rebuilt every iteration) into join trees through this node; it is
    also handy in tests.  ``name`` shows up in :func:`describe`.
    """

    def __init__(self, data: Sequence[tuple], name: str = "rows"):
        super().__init__()
        self.data = data
        self.name = name

    def _batches(self) -> Iterator[List[tuple]]:
        yield list(self.data)


class LookupJoin(Plan):
    """Equi-join probing a *prebuilt* hash index per outer row.

    Unlike :class:`HashJoin`, which rebuilds its table on every
    execution, the index here is built once by the caller and shared
    across executions — the fixpoint evaluator indexes each EDB and
    total-IDB relation once per fixpoint and probes it every iteration,
    turning an O(edges × iterations) rebuild into O(edges).

    Output rows are ``outer_row + match`` for each tuple in
    ``index[outer_row[outer_attr]]``.
    """

    def __init__(self, outer: Plan, index: Dict[Any, List[tuple]],
                 outer_attr: int, name: str = "index"):
        super().__init__()
        self.outer = outer
        self.index = index
        self.outer_attr = outer_attr
        self.name = name

    def _batches(self) -> Iterator[List[tuple]]:
        index, attr = self.index, self.outer_attr
        return ([row + match for row in batch
                 for match in index.get(row[attr], ())]
                for batch in self.outer.batches())


class CrossJoin(Plan):
    """Cartesian product (for rare rules whose literals share no
    variables).  The right input is materialised once.

    Output rows are ``left_row + right_row``.
    """

    def __init__(self, left: Plan, right: Plan):
        super().__init__()
        self.left = left
        self.right = right

    def _batches(self) -> Iterator[List[tuple]]:
        right_rows = [row for batch in self.right.batches()
                      for row in batch]
        for batch in self.left.batches():
            yield [row + other for row in batch for other in right_rows]


class Aggregate(Plan):
    """Scalar aggregation: count / sum / min / max / avg of a column."""

    _FUNCS = ("count", "sum", "min", "max", "avg")

    def __init__(self, child: Plan, func: str, column: int = 0):
        super().__init__()
        if func not in self._FUNCS:
            raise CatalogError(f"unknown aggregate {func!r}")
        self.child = child
        self.func = func
        self.column = column

    def _batches(self) -> Iterator[List[tuple]]:
        values = [row[self.column] for batch in self.child.batches()
                  for row in batch]
        if self.func == "count":
            yield [(len(values),)]
        elif not values:
            yield [(None,)]
        elif self.func == "sum":
            yield [(sum(values),)]
        elif self.func == "min":
            yield [(min(values),)]
        elif self.func == "max":
            yield [(max(values),)]
        else:
            yield [(sum(values) / len(values),)]


def describe(plan: Plan) -> str:
    """One-line plan summary with per-node row counts, e.g.
    ``HashJoin#1000(Select#100(emp), Scan#10000(dept))``."""
    children = [getattr(plan, attr) for attr in
                ("child", "left", "right", "outer")
                if isinstance(getattr(plan, attr, None), Plan)]
    inner = getattr(plan, "inner", None)
    label = f"{type(plan).__name__}#{plan.rows_out}"
    parts = [describe(c) for c in children]
    if isinstance(inner, BangRelation):
        parts.append(getattr(inner, "name", "relation"))
    elif isinstance(plan, (Scan, Select, RangeSelect)):
        parts.append(getattr(plan.relation, "name", "relation"))
    elif isinstance(plan, (Rows, LookupJoin)):
        parts.append(plan.name)
    return label + (f"({', '.join(parts)})" if parts else "")


def execute(plan: Plan, tracer=None) -> List[tuple]:
    """Run a plan to completion; returns the materialised result.

    With a tracer, the run is recorded as a ``relational.execute`` span
    whose ``plan`` attribute carries the post-execution shape (node
    types + per-node cardinalities) alongside the page events of the
    run.
    """
    tracer = tracer or NULL_TRACER
    with tracer.span("relational.execute") as span:
        rows: List[tuple] = []
        for batch in plan.batches():
            rows += batch
        if span is not None:
            span.attrs["plan"] = describe(plan)
            span.attrs["rows"] = len(rows)
    return rows
