"""Relational algebra plan nodes and the pull-based executor.

Plans are trees of small dataclass-style nodes; :func:`execute` turns a
plan into an iterator of tuples.  Access-path nodes (:class:`Select`,
:class:`RangeSelect`, :class:`Scan`) sit on BANG relations and exploit
the grid's clustered partial-match access; :class:`HashJoin` implements
the classic build/probe equi-join; :class:`IndexJoin` probes the inner
relation's grid per outer row (chosen by the planner when the inner
probe is selective).

Every node counts the rows it produces (``rows_out``) so benchmarks can
report intermediate cardinalities alongside the pager's I/O counters.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..bang.relation import BangRelation
from ..errors import CatalogError
from ..obs.tracing import NULL_TRACER


class Plan:
    """Base class for plan nodes."""

    def __init__(self) -> None:
        self.rows_out = 0

    def rows(self) -> Iterator[tuple]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _count(self, it: Iterator[tuple]) -> Iterator[tuple]:
        for row in it:
            self.rows_out += 1
            yield row


class Scan(Plan):
    """Full clustered scan of a BANG relation."""

    def __init__(self, relation: BangRelation):
        super().__init__()
        self.relation = relation

    def rows(self) -> Iterator[tuple]:
        return self._count(self.relation.scan())


class Select(Plan):
    """Exact partial-match selection via the grid."""

    def __init__(self, relation: BangRelation, assignment: Dict[int, Any]):
        super().__init__()
        self.relation = relation
        self.assignment = dict(assignment)

    def rows(self) -> Iterator[tuple]:
        return self._count(self.relation.query(self.assignment))


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

    def rows(self) -> Iterator[tuple]:
        return self._count(self.relation.range_query(
            self.attr, self.low, self.high, self.extra))


class Filter(Plan):
    """Arbitrary predicate over child rows (post-filter)."""

    def __init__(self, child: Plan, predicate: Callable[[tuple], bool]):
        super().__init__()
        self.child = child
        self.predicate = predicate

    def rows(self) -> Iterator[tuple]:
        pred = self.predicate
        return self._count(row for row in self.child.rows() if pred(row))


class Project(Plan):
    """Column projection (no duplicate elimination, like SQL SELECT)."""

    def __init__(self, child: Plan, columns: Sequence[int]):
        super().__init__()
        self.child = child
        self.columns = tuple(columns)

    def rows(self) -> Iterator[tuple]:
        cols = self.columns
        return self._count(
            tuple(row[c] for c in cols) for row in self.child.rows())


class Distinct(Plan):
    """Duplicate elimination (hash-based)."""

    def __init__(self, child: Plan):
        super().__init__()
        self.child = child

    def rows(self) -> Iterator[tuple]:
        def gen():
            seen = set()
            for row in self.child.rows():
                if row not in seen:
                    seen.add(row)
                    yield row
        return self._count(gen())


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

    def rows(self) -> Iterator[tuple]:
        def gen():
            table: Dict[Any, List[tuple]] = {}
            for row in self.left.rows():
                table.setdefault(row[self.left_attr], []).append(row)
            for row in self.right.rows():
                for match in table.get(row[self.right_attr], ()):
                    yield match + row
        return self._count(gen())


class IndexJoin(Plan):
    """Index nested-loop join: per outer row, probe the inner grid.

    Output rows are ``outer_row + inner_row``.
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

    def rows(self) -> Iterator[tuple]:
        def gen():
            for row in self.outer.rows():
                assignment = dict(self.inner_extra)
                assignment[self.inner_attr] = row[self.outer_attr]
                for match in self.inner.query(assignment):
                    yield row + match
        return self._count(gen())


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

    def rows(self) -> Iterator[tuple]:
        return self._count(iter(self.data))


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

    def rows(self) -> Iterator[tuple]:
        def gen():
            index = self.index
            attr = self.outer_attr
            for row in self.outer.rows():
                for match in index.get(row[attr], ()):
                    yield row + match
        return self._count(gen())


class CrossJoin(Plan):
    """Cartesian product (for rare rules whose literals share no
    variables).  The right input is materialised once.

    Output rows are ``left_row + right_row``.
    """

    def __init__(self, left: Plan, right: Plan):
        super().__init__()
        self.left = left
        self.right = right

    def rows(self) -> Iterator[tuple]:
        def gen():
            right_rows = list(self.right.rows())
            for row in self.left.rows():
                for other in right_rows:
                    yield row + other
        return self._count(gen())


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

    def rows(self) -> Iterator[tuple]:
        def gen():
            values = [row[self.column] for row in self.child.rows()]
            if self.func == "count":
                yield (len(values),)
            elif not values:
                yield (None,)
            elif self.func == "sum":
                yield (sum(values),)
            elif self.func == "min":
                yield (min(values),)
            elif self.func == "max":
                yield (max(values),)
            else:
                yield (sum(values) / len(values),)
        return self._count(gen())


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
    types + per-node cardinalities) alongside the span's counter delta
    (page reads, buffer hits, ...).
    """
    tracer = tracer or NULL_TRACER
    with tracer.span("relational.execute") as span:
        rows = list(plan.rows())
        if span is not None:
            span.attrs["plan"] = describe(plan)
            span.attrs["rows"] = len(rows)
    return rows
