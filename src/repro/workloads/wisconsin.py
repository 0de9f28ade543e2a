"""The Wisconsin benchmark subset used in §5.2 (Tables 2a/2b).

The paper runs five queries "to have an indication of Educe*'s
relational capabilities":

1. selection with 1 % selectivity over a 10000-tuple relation;
2. selection with 10 % selectivity over a 10000-tuple relation;
3. select 1 tuple to screen from a 10000-tuple relation;
4. two-way join of two 10000-tuple relations with a selection over one;
5. three-way join of two 10000-tuple relations and one 1000-tuple
   relation, with selections over the two 10000-tuple relations.

Each query class was "run several times and each time the query was
expressed in a different format" — we reproduce that with plan
*variants* (different access paths / join methods), reporting per-class
times and I/O frequencies exactly as Tables 2a/2b do.

The relation generator follows DeWitt's original schema: ``unique1``
(random permutation), ``unique2`` (sequential key), the modulo
attributes (two/four/ten/twenty/onePercent/tenPercent/...) and short
string fillers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.session import EduceStar
from ..engine.stats import Measurement, measure
from ..relational.algebra import (
    Filter,
    HashJoin,
    IndexJoin,
    Plan,
    RangeSelect,
    Scan,
    Select,
)

ATTRS = [
    "unique1", "unique2", "two", "four", "ten", "twenty",
    "onepercent", "tenpercent", "twentypercent", "fiftypercent",
    "unique3", "evenonepercent", "oddonepercent",
    "stringu1", "stringu2", "string4",
]

# Column indexes (for plan construction).
UNIQUE1, UNIQUE2 = 0, 1
ONEPERCENT = 6
STRINGU1 = 13

_STRING4_CYCLE = ["AAAA", "HHHH", "OOOO", "VVVV"]


def _stringu(value: int) -> str:
    """The classic cyclic 7-significant-char Wisconsin string, shortened."""
    chars = []
    v = value
    for _ in range(7):
        chars.append(chr(ord("A") + v % 26))
        v //= 26
    return "".join(reversed(chars))


def generate_rows(n: int, seed: int = 1) -> List[tuple]:
    """*n* Wisconsin tuples (deterministic for a given seed)."""
    rng = random.Random(seed)
    unique1 = list(range(n))
    rng.shuffle(unique1)
    rows = []
    for unique2, u1 in enumerate(unique1):
        rows.append((
            u1,
            unique2,
            u1 % 2,
            u1 % 4,
            u1 % 10,
            u1 % 20,
            u1 % 100,
            u1 % 10,
            u1 % 5,
            u1 % 2,
            u1,
            (u1 % 100) * 2,
            (u1 % 100) * 2 + 1,
            _stringu(u1),
            _stringu(unique2),
            _STRING4_CYCLE[unique2 % 4],
        ))
    return rows


TYPES = ["int"] * 13 + ["atom", "atom", "atom"]


@dataclass
class WisconsinDB:
    """Three loaded relations: tenk1, tenk2 (10000 tuples), onek (1000)."""

    session: EduceStar
    sizes: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, session: Optional[EduceStar] = None, seed: int = 1,
              scale: float = 1.0) -> "WisconsinDB":
        """Load the three relations; *scale* shrinks cardinalities for
        quick test runs (1.0 = the paper's sizes)."""
        session = session or EduceStar()
        n_big = max(10, int(10000 * scale))
        n_small = max(5, int(1000 * scale))
        # Cluster on the three attributes the paper's queries probe —
        # the analogue of declaring indexes in a relational schema.
        keys = [UNIQUE1, UNIQUE2, ONEPERCENT]
        session.store_relation("tenk1", generate_rows(n_big, seed),
                               TYPES, key_dims=keys)
        session.store_relation("tenk2", generate_rows(n_big, seed + 1),
                               TYPES, key_dims=keys)
        session.store_relation("onek", generate_rows(n_small, seed + 2),
                               TYPES, key_dims=keys)
        db = cls(session)
        db.sizes = {"tenk1": n_big, "tenk2": n_big, "onek": n_small}
        return db

    def relation(self, name: str):
        return self.session.relation(name, len(ATTRS))


# =====================================================================
# the five query classes, each with several plan variants
# =====================================================================

@dataclass
class QueryVariant:
    name: str
    build: Callable[[WisconsinDB], Plan]


@dataclass
class QueryClass:
    number: int
    title: str
    variants: List[QueryVariant]
    expected_rows: Callable[[WisconsinDB], int]


def _sel_range(db: WisconsinDB, fraction: float) -> Tuple[int, int]:
    n = db.sizes["tenk1"]
    return (0, max(0, int(n * fraction) - 1))


def query_classes() -> List[QueryClass]:
    """The five paper queries, with their format variants."""

    def q1_grid(db):  # 1% selection, clustered range access
        lo, hi = _sel_range(db, 0.01)
        return RangeSelect(db.relation("tenk1"), UNIQUE1, lo, hi)

    def q1_scan(db):  # same query phrased as scan + filter
        lo, hi = _sel_range(db, 0.01)
        return Filter(Scan(db.relation("tenk1")),
                      lambda r: lo <= r[UNIQUE1] <= hi)

    def q2_grid(db):  # 10% selection
        lo, hi = _sel_range(db, 0.10)
        return RangeSelect(db.relation("tenk1"), UNIQUE1, lo, hi)

    def q2_scan(db):
        lo, hi = _sel_range(db, 0.10)
        return Filter(Scan(db.relation("tenk1")),
                      lambda r: lo <= r[UNIQUE1] <= hi)

    def q3_point(db):  # select 1 tuple to screen
        n = db.sizes["tenk1"]
        return Select(db.relation("tenk1"), {UNIQUE2: n // 2})

    def q3_range(db):
        n = db.sizes["tenk1"]
        return RangeSelect(db.relation("tenk1"), UNIQUE2, n // 2, n // 2)

    def _q4_selection(db) -> Plan:
        lo, hi = _sel_range(db, 0.10)
        return RangeSelect(db.relation("tenk2"), UNIQUE1, lo, hi)

    def q4_hash(db):  # joinAselB as hash join
        return HashJoin(_q4_selection(db), Scan(db.relation("tenk1")),
                        UNIQUE1, UNIQUE1)

    def q4_index(db):  # joinAselB probing tenk1's grid per outer row
        return IndexJoin(_q4_selection(db), db.relation("tenk1"),
                         UNIQUE1, UNIQUE1)

    def _q5_inner(db) -> Tuple[Plan, Plan]:
        lo, hi = _sel_range(db, 0.10)
        sel1 = RangeSelect(db.relation("tenk1"), UNIQUE1, lo, hi)
        sel2 = RangeSelect(db.relation("tenk2"), UNIQUE1, lo, hi)
        return sel1, sel2

    def q5_hash(db):  # three-way join, all hash
        sel1, sel2 = _q5_inner(db)
        width = len(ATTRS)
        two_way = HashJoin(sel1, sel2, UNIQUE1, UNIQUE1)
        # join the pair to onek on onepercent == onek.unique1 (mod small)
        small_n = db.sizes["onek"]
        reduced = Filter(two_way, lambda r: r[ONEPERCENT] < small_n)
        return HashJoin(reduced, Scan(db.relation("onek")),
                        ONEPERCENT, UNIQUE1)

    def q5_index(db):
        sel1, sel2 = _q5_inner(db)
        small_n = db.sizes["onek"]
        two_way = IndexJoin(sel1, db.relation("tenk2"), UNIQUE1, UNIQUE1)
        lo, hi = _sel_range(db, 0.10)
        width = len(ATTRS)
        selected = Filter(
            two_way,
            lambda r: lo <= r[width + UNIQUE1] <= hi
            and r[ONEPERCENT] < small_n)
        return IndexJoin(selected, db.relation("onek"),
                         ONEPERCENT, UNIQUE1)

    def q3_planner(db):  # access path chosen by the planner
        from ..relational.planner import best_access_path
        n = db.sizes["tenk1"]
        return best_access_path(db.relation("tenk1"), {UNIQUE2: n // 2})

    return [
        QueryClass(1, "1% selection of 10000 tuples", [
            QueryVariant("grid-range", q1_grid),
            QueryVariant("scan-filter", q1_scan),
        ], lambda db: max(0, int(db.sizes["tenk1"] * 0.01))),
        QueryClass(2, "10% selection of 10000 tuples", [
            QueryVariant("grid-range", q2_grid),
            QueryVariant("scan-filter", q2_scan),
        ], lambda db: max(0, int(db.sizes["tenk1"] * 0.10))),
        QueryClass(3, "select 1 tuple to screen", [
            QueryVariant("grid-point", q3_point),
            QueryVariant("grid-range", q3_range),
            QueryVariant("planner", q3_planner),
        ], lambda db: 1),
        QueryClass(4, "two-way join with selection", [
            QueryVariant("hash-join", q4_hash),
            QueryVariant("index-join", q4_index),
        ], lambda db: max(0, int(db.sizes["tenk1"] * 0.10))),
        QueryClass(5, "three-way join with selections", [
            QueryVariant("hash-join", q5_hash),
            QueryVariant("index-join", q5_index),
        ], None),  # cardinality depends on modulo overlap
    ]


@dataclass
class QueryResult:
    query: int
    variant: str
    rows: int
    measurement: Measurement


def plan_tuple_ops(plan: Plan) -> int:
    """Rows produced by every node of the plan tree — the relational
    engine's CPU work unit for the cost model."""
    total = plan.rows_out
    for attr in ("child", "left", "right", "outer"):
        node = getattr(plan, attr, None)
        if isinstance(node, Plan):
            total += plan_tuple_ops(node)
    return total


def run_query(db: WisconsinDB, qc: QueryClass,
              variant: QueryVariant) -> QueryResult:
    """Execute one variant, capturing time + I/O counters."""
    with measure(db.session) as m:
        plan = variant.build(db)
        rows = sum(map(len, plan.batches()))
    m.counters["tuple_ops"] = m.counters.get("tuple_ops", 0) \
        + plan_tuple_ops(plan)
    return QueryResult(qc.number, variant.name, rows, m)


def run_all(db: WisconsinDB) -> List[QueryResult]:
    results = []
    for qc in query_classes():
        for variant in qc.variants:
            results.append(run_query(db, qc, variant))
    return results
