"""``wisconsin_mix``: set-at-a-time algebra over the BANG grid (paper
Tables 2a/2b).  No goal text, no WAM: plans are built by
``repro.relational.planner`` and pulled through
``repro.relational.algebra``.  The data (three Wisconsin relations) is
several times the buffer, so range scans and joins miss pages.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro import EduceStar
from repro.bang.pager import Pager
from repro.edb.store import ExternalStore
from repro.relational import planner
from repro.relational.algebra import Filter, Plan, RangeSelect, Scan
from repro.terms import Atom, Struct
from repro.workloads import wisconsin
from repro.workloads.wisconsin import (ATTRS, ONEPERCENT, UNIQUE1, UNIQUE2,
                                       WisconsinDB, plan_tuple_ops)

from base import SessionWorkload, dir_bytes, light_tracer
from harness import OpLog, timed_read, timed_write
from probes import probe_inserts, probe_point_lookups, probe_range_lookups

UNIQUE3 = ATTRS.index("unique3")
WIDTH = len(ATTRS)
#: the relations are one fixed instance (the generator's default seed):
#: the grid a permutation builds decides how many pages a point select
#: touches (40 or 66, by seed), which moves its latency by half.
#: ``--seed`` draws the keys, the ranges and the order.
DATA_SEED = 1
#: tuples per write operation
BATCH = 4

#: one round = 50 operations: 60 % point, 14 % 1 %-range, 10 % 10 %-range,
#: 6 % scan-filter, 8 % two-way join, 2 % three-way join.  The shares
#: put both medians (all answers, first answer) well inside the point
#: selects and p95 inside the two-way joins, not on the border between
#: two kinds of operation.
ROUND = (("point", 30), ("range1", 7), ("range10", 5), ("scan", 3),
         ("join2", 4), ("join3", 1))


class WisconsinMix(SessionWorkload):
    name = "wisconsin_mix"

    def generate(self) -> None:
        scale = self.size["scale"]
        self.n_big = max(10, int(10000 * scale))
        self.n_small = max(5, int(1000 * scale))
        self.one = self.n_big // 100
        self.ten = self.n_big // 10
        self.written: List[int] = []
        self.streams = 0

    def inputs(self) -> Dict[str, Any]:
        return {"rows": {"tenk1": self.n_big, "tenk2": self.n_big,
                         "onek": self.n_small},
                "data_seed": DATA_SEED,
                "first_round": next(self.rounds())}

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out.update(buffer_pages=self.size["buffer_pages"],
                   store="in-memory (no WAL until the restart check)")
        return out

    # ----------------------------------------------------------------- setup

    def setup(self) -> None:
        with self.spans.span("setup.store"):
            store = ExternalStore(
                pager=Pager(buffer_pages=self.size["buffer_pages"]))
            self.session = EduceStar(store=store)
            self.db = WisconsinDB.build(self.session, seed=DATA_SEED,
                                        scale=self.size["scale"])
        light_tracer(self.session, self.spans.enabled)
        self.tenk1 = self.db.relation("tenk1")
        self.tenk2 = self.db.relation("tenk2")
        self.onek = self.db.relation("onek")
        self.setup_failures = []
        self.extras.update(tuple_ops=0, rows_returned=0)
        with self.spans.span("setup.warmup"):
            warm = OpLog()
            rng = random.Random(self.seed - 1)
            for kind, _n in ROUND:
                self.execute(self._draw(kind, rng), warm)
            if warm.failed:
                self.setup_failures = list(warm.failure_notes)

    # ------------------------------------------------------------ operations

    def _draw(self, kind: str, rng: random.Random) -> Tuple[str, int]:
        if kind == "point":
            return kind, rng.randrange(self.n_big)
        width = self.one if kind in ("range1", "scan") else self.ten
        return kind, rng.randrange(self.n_big - width + 1)

    def rounds(self, client: int = 0) -> Iterator[List[Tuple[str, int]]]:
        rng = random.Random(self.seed * 1009 + client)
        self.streams += 1
        key = self.n_big * (1 + self.streams)    # above every stored key
        while True:
            ops = [self._draw(kind, rng) for kind, n in ROUND
                   for _ in range(n)]
            rng.shuffle(ops)
            for _ in range(self.size["writes_per_round"]):
                key += 1
                ops.append(("write", key))
            yield ops

    def _plan(self, kind: str, arg: int
              ) -> Tuple[Plan, int, Callable[[tuple], bool]]:
        """(plan, closed-form row count, per-row predicate)."""
        if kind == "point":
            return (planner.best_access_path(self.tenk1, {UNIQUE2: arg}),
                    1, lambda r: r[UNIQUE2] == arg)
        if kind == "range1":
            hi = arg + self.one - 1
            return (RangeSelect(self.tenk1, UNIQUE1, arg, hi), self.one,
                    lambda r: arg <= r[UNIQUE1] <= hi)
        if kind == "range10":
            hi = arg + self.ten - 1
            return (RangeSelect(self.tenk1, UNIQUE1, arg, hi), self.ten,
                    lambda r: arg <= r[UNIQUE1] <= hi)
        if kind == "scan":
            # unique3 is not a key dimension: scan + filter is the
            # only access path
            hi = arg + self.one - 1
            return (Filter(Scan(self.tenk1),
                           lambda r: arg <= r[UNIQUE3] <= hi), self.one,
                    lambda r: arg <= r[UNIQUE3] <= hi)
        hi = arg + self.ten - 1
        outer = RangeSelect(self.tenk2, UNIQUE1, arg, hi)
        two_way = planner.plan_join(outer, self.ten, self.tenk1,
                                    UNIQUE1, UNIQUE1)

        def joined(r: tuple) -> bool:
            return arg <= r[UNIQUE1] <= hi and r[UNIQUE1] == r[WIDTH + UNIQUE1]

        if kind == "join2":
            return two_way, self.ten, joined
        three_way = planner.plan_join(two_way, self.ten, self.onek,
                                      ONEPERCENT, UNIQUE1)
        return (three_way, self.ten,
                lambda r: joined(r) and r[ONEPERCENT] == r[2 * WIDTH + UNIQUE1])

    def execute(self, op, log: OpLog) -> None:
        kind, arg = op
        if kind == "write":
            self.insert(arg, log)
            return
        made: List[Plan] = []
        want: List[Any] = []

        def run():
            with self.spans.span("relational.plan"):
                plan, rows, holds = self._plan(kind, arg)
            made.append(plan)
            want.extend((rows, holds))
            return pull(plan)

        def pull(plan: Plan):
            with self.spans.span("relational.execute"):
                yield from plan.rows()

        def check(answers: list) -> bool:
            return len(answers) == want[0] and all(map(want[1], answers))

        with self.spans.span("op.read", op=True, kind=kind):
            answers = timed_read(log, run, check)
        if made and answers is not None:
            self.extras["tuple_ops"] += plan_tuple_ops(made[0])
            self.extras["rows_returned"] += len(answers)

    # ------------------------------------------------------ writes + restart

    def _row(self, key: int) -> tuple:
        """A new tuple whose three unique attributes are *key*, above
        every stored value: no select, range or scan-filter of the
        round's reads may match it, or its closed-form count is off."""
        row = list(wisconsin.generate_rows(1, seed=0)[0])
        row[UNIQUE1] = row[UNIQUE2] = row[UNIQUE3] = key
        return tuple(row)

    def insert(self, key: int, log: OpLog) -> None:
        """One write = :data:`BATCH` new tuples through
        ``ExternalStore.assert_clause`` — the store-level write path
        (version bump, mutation epoch) with no goal text to parse.

        A single insert splits a grid bucket one time in twenty-five,
        which is right where p95 sits; of a batch of four, 15 % contain
        one split and 1 % two, so p50 is a batch without a split and p95
        a batch with one."""
        store, ctx = self.session.store, self.session.machine.ctx
        keys = [key * BATCH + offset for offset in range(BATCH)]
        terms = [Struct("tenk1", tuple(
            Atom(v) if isinstance(v, str) else v for v in self._row(k)))
            for k in keys]

        def write() -> None:
            for term in terms:
                store.assert_clause("tenk1", WIDTH, term, ctx)

        with self.spans.span("op.write", op=True):
            with self.spans.span("edb.assert"):
                ok = timed_write(log, write)
        if ok:
            self.written.extend(keys)

    def unreadable(self, session: EduceStar) -> int:
        relation = session.relation("tenk1", WIDTH)
        return sum(len(list(relation.query({UNIQUE2: key}))) != 1
                   for key in self.written)

    def recover(self) -> Dict[str, float]:
        home = self.fresh_dir("home")
        self.session.save(f"{home}/kb.edb")
        self.extras["store_bytes"] = dir_bytes(home)
        self.extras["user_bytes"] = sum(
            len(repr(row))
            for n, seed in ((self.n_big, DATA_SEED),
                            (self.n_big, DATA_SEED + 1),
                            (self.n_small, DATA_SEED + 2))
            for row in wisconsin.generate_rows(n, seed))
        key = self.n_big // 2

        def first_query(session: EduceStar) -> bool:
            relation = session.relation("tenk1", WIDTH)
            return len(list(relation.query({UNIQUE2: key}))) == 1

        return self.timed_reopen(home, first_query, self.unreadable)

    def probes(self) -> None:
        rng = random.Random(self.seed + 7)
        keys = [rng.randrange(self.n_big) for _ in range(100)]
        probe_point_lookups(self.spans, self.extras, self.session,
                            self.tenk1, [{UNIQUE2: k} for k in keys])
        lows = [rng.randrange(self.n_big - self.one) for _ in range(30)]
        probe_range_lookups(self.spans, self.tenk1, UNIQUE1,
                            [(lo, lo + self.one - 1) for lo in lows])
        start = 100 * self.n_big
        probe_inserts(self.spans, self.onek,
                      [self._row(start + i) for i in range(50)])
