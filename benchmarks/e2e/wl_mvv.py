"""``mvv_warm`` and ``mvv_cold``: the two columns of the paper's Table 1.

Same network, same goal pool, same answers — opposite layers at work.
Warm keeps the rules compiled in main memory behind a buffer that holds
every page, so after the warm-up pass the WAM emulator is all that runs.
Cold stores the rules in the EDB as relative code behind a buffer a
tenth of the data's size and answers every goal on a fresh session, so
each goal pays the dynamic loader, the codec, pre-unification and page
misses again.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Any, Dict, Iterator, List, Tuple

from repro import EduceBaseline, EduceStar
from repro.bang.pager import Pager
from repro.edb.store import ExternalStore
from repro.lang.writer import term_to_text
from repro.obs import DEFAULT_GAUGE_KEYS, MetricsRegistry
from repro.workloads import mvv

from base import SessionWorkload, dir_bytes, light_tracer
from harness import OpLog, timed_read, timed_write
from oracles import MvvOracle
from probes import probe_language, probe_point_lookups

_GOAL = re.compile(r"(\w+)\((\w+), (\w+), (\d+), Plan\)")
NOTE_TYPES = ["atom", "int"]


#: the network is one fixed instance — the generator seed the paper-table
#: scripts use — because the cost of a goal follows the network's shape
#: (departures per line, lines per hub) by ±15 %, which is wider than the
#: regression bounds; ``--seed`` deals the goals' order and the keys
DATA_SEED = 11
#: how many candidate draws to make before settling for a smaller pool
MAX_DRAWS = 40


class MvvInputs:
    """The network, and the goal pools with their expected answers.

    A goal's warm cost follows its number of answers (class 1: 0.4 +
    0.65 ms per answer; class 2: ~2 ms per answer, 4 to 230 answers),
    and a class-2 goal's cold cost the number of stops it can change at
    (~14 ms each, 18 to 88 of them: every one is a call pattern the
    loader has to fetch).  The pools therefore keep only goals for which
    both — by the oracle — lie in a fixed band.

    The pools are the same on every seed, like the network.  Inside the
    bands a goal still costs a sixth more or less than its neighbour;
    the network has only a dozen class-2 goals inside both bands, so
    which of them a seeded draw left out moved p95 and the throughput by
    a tenth, and under a Zipf distribution the one class-1 goal that
    happens to come first sets the median.  ``--seed`` deals the order,
    the Zipf draws, the arrival times and the keys.
    """

    def __init__(self, size: Dict[str, Any]):
        self.data = mvv.generate(seed=DATA_SEED, scale=size["scale"])
        self.oracle = MvvOracle(self.data.schedule3, self.data.schedule2)
        self.expected: Dict[str, List[str]] = {}
        self.class1 = self._pick(mvv.class1_queries, self.oracle.class1,
                                 size["pool1"], size["band1"])
        reach_low, reach_high = size["reach2"]
        self.class2 = self._pick(
            mvv.class2_queries, self.oracle.route, size["pool2"],
            size["band2"],
            lambda a: reach_low <= self.oracle.change_points(a) <= reach_high)
        #: goal → digest of what the *engine* answered (first time seen)
        self.digests: Dict[str, str] = {}
        self.streams = 0

    def _pick(self, candidates, answer, count: int, band: Tuple[int, int],
              admit=lambda origin: True) -> List[str]:
        """*count* goals drawn in a fixed order from *candidates* whose
        origin passes *admit* (cheap, asked first) and whose answer
        count lies in *band*."""
        picked: List[str] = []
        low, high = band
        for draw in range(MAX_DRAWS):
            if len(picked) >= count:
                break
            for goal in candidates(self.data, 100_000,
                                   seed=DATA_SEED * MAX_DRAWS + draw):
                if goal in self.expected or len(picked) >= count:
                    continue
                _pred, a, b, t0 = _GOAL.fullmatch(goal).groups()
                if not admit(a):
                    continue
                answers = answer(a, b, int(t0))
                if low <= len(answers) <= high:
                    self.expected[goal] = answers
                    picked.append(goal)
        if len(picked) < count:
            raise SystemExit(f"goal pool: only {len(picked)} of {count} "
                             f"goals with {low}..{high} answers")
        return picked

    def user_bytes(self) -> int:
        """Source bytes of the facts and rules a user hands over."""
        rows = (self.data.location2 + self.data.schedule3
                + self.data.schedule2)
        return sum(len(repr(row)) for row in rows) + len(mvv.RULES)

    def store_facts(self, target) -> None:
        """*target* is an ``EduceStar`` or a ``QueryService`` — both
        expose ``store_relation``."""
        data = self.data
        target.store_relation("location2", data.location2,
                              types=mvv.LOCATION2_TYPES)
        target.store_relation("schedule3", data.schedule3,
                              types=mvv.SCHEDULE3_TYPES)
        target.store_relation("schedule2", data.schedule2,
                              types=mvv.SCHEDULE2_TYPES)
        target.store_relation("note", [("k_seed", 0)], types=NOTE_TYPES)

    def check(self, goal: str, solutions: list) -> bool:
        texts = sorted(term_to_text(s["Plan"]) for s in solutions)
        if goal not in self.digests:
            self.digests[goal] = hashlib.sha256(
                "\n".join(texts).encode()).hexdigest()[:16]
        return texts == self.expected[goal]

    def check_against_baseline(self, sample: int) -> List[str]:
        """A seeded sample of class-1 goals on the ``EduceBaseline``
        interpreter (class-2 goals take seconds each there)."""
        baseline = mvv.load_baseline(self.data, EduceBaseline())
        bad = []
        for goal in self.class1[:sample]:
            texts = sorted(term_to_text(s["Plan"])
                           for s in baseline.solve(goal))
            if texts != self.expected[goal]:
                bad.append(goal)
        return bad

    def rounds(self, rng: random.Random, client: int, n1: int, n2: int,
               writes: int) -> Iterator[List[Tuple]]:
        """Rounds of *n1* class-1 and *n2* class-2 reads, shuffled, then
        *writes* ``("write", key, value)`` operations back to back.

        The reads are dealt from seeded shuffles of each pool, a new
        shuffle when one is used up, so every goal of a pool is asked
        equally often and two seeds differ in the order of the work, not
        in how much of it there is.

        Spread between the reads every write ran with cold caches, and
        its latency followed the host's memory traffic (x 1.4 for minutes
        at a time) instead of the program.  In a burst only the first
        write is cold: with ten to a round the median is a warm write
        and p95 a cold one, each well inside its own kind.  Every stream
        writes keys of its own, so a window run twice (the traced run's
        untraced reference) never asserts a fact twice."""
        self.streams += 1
        stream, written = self.streams, 0
        deal1, deal2 = _dealer(rng, self.class1), _dealer(rng, self.class2)
        while True:
            ops: List[Tuple] = (
                [("read", next(deal1)) for _ in range(n1)]
                + [("read", next(deal2)) for _ in range(n2)])
            rng.shuffle(ops)
            for _ in range(writes):
                written += 1
                ops.append(("write", f"w{client}_{stream}_{written}",
                            written))
            yield ops

    def as_json(self) -> Dict[str, Any]:
        return {"class1": self.class1, "class2": self.class2,
                "relations": {"location2": len(self.data.location2),
                              "schedule3": len(self.data.schedule3),
                              "schedule2": len(self.data.schedule2)},
                "expected_answers": {g: len(a)
                                     for g, a in self.expected.items()}}


def _dealer(rng: random.Random, pool: List[str]) -> Iterator[str]:
    """The pool in seeded order, shuffled again each time it runs out."""
    while pool:
        deck = list(pool)
        rng.shuffle(deck)
        yield from deck


def unreadable_notes(session: EduceStar, written) -> int:
    """How many acknowledged ``note(key, value)`` writes *session* cannot
    read back, each by its key."""
    return sum([s["V"] for s in session.solve(f"note({key}, V)")] != [value]
               for key, value in written)


class _MvvWorkload(SessionWorkload):
    """What warm and cold share: inputs, the writes into ``note/2`` at
    the end of every round, the restart check."""

    rules_in_edb = False

    def generate(self) -> None:
        size = self.size
        self.mvv = MvvInputs(size)
        self.written: Dict[str, int] = {}

    def inputs(self) -> Dict[str, Any]:
        return self.mvv.as_json()

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out.update(buffer_pages=self.size["buffer_pages"],
                   rules="edb" if self.rules_in_edb else "main-memory",
                   store="in-memory (no WAL until the restart check)")
        return out

    def check_oracle_sample(self) -> List[str]:
        return self.mvv.check_against_baseline(self.size["baseline_sample"])

    def rounds(self, client: int = 0):
        rng = random.Random(self.seed * 1009 + client)
        return self.mvv.rounds(rng, client, *self.size["round"],
                               self.size["writes_per_round"])

    def new_store(self) -> ExternalStore:
        return ExternalStore(
            pager=Pager(buffer_pages=self.size["buffer_pages"]))

    def execute(self, op, log: OpLog) -> None:
        if op[0] == "read":
            self.read(op[1], log)
            return
        _kind, key, value = op
        session = self.session
        with self.spans.span("op.write", op=True):
            with self.spans.span("edb.assert"):
                ok = timed_write(log, lambda: session.assert_external(
                    f"note({key}, {value})."))
        if ok:
            self.written[key] = value

    def read(self, goal: str, log: OpLog) -> None:
        raise NotImplementedError

    def unreadable(self, session: EduceStar) -> int:
        return unreadable_notes(session, self.written.items())

    def recover(self) -> Dict[str, float]:
        home = self.fresh_dir("home")
        self.session.save(f"{home}/kb.edb")
        self.extras["store_bytes"] = dir_bytes(home)
        self.extras["user_bytes"] = self.mvv.user_bytes()
        goal = self.mvv.class1[0]

        def first_query(session: EduceStar) -> bool:
            if not self.rules_in_edb:
                session.consult(mvv.RULES)
            return self.mvv.check(goal, list(session.solve(goal)))

        return self.timed_reopen(home, first_query, self.unreadable)

    def probes(self) -> None:
        probe_language(self.spans, self.extras, mvv.RULES,
                       self.mvv.class1 + self.mvv.class2)
        relation = self.session.relation("schedule3", 11)
        stops = [_GOAL.fullmatch(g).group(2) for g in self.mvv.class1]
        probe_point_lookups(self.spans, self.extras, self.session,
                            relation, [{3: stop} for stop in stops])


class MvvWarm(_MvvWorkload):
    name = "mvv_warm"

    def setup(self) -> None:
        with self.spans.span("setup.store"):
            self.session = EduceStar(store=self.new_store())
            self.mvv.store_facts(self.session)
        with self.spans.span("setup.rules"):
            self.session.consult(mvv.RULES)
        light_tracer(self.session, self.spans.enabled)
        with self.spans.span("setup.warmup"):
            self.setup_failures = [
                goal for goal in self.mvv.class1 + self.mvv.class2
                if not self.mvv.check(goal, list(self.session.solve(goal)))]
            self.session.tracer.take_roots()

    def read(self, goal: str, log: OpLog) -> None:
        session = self.session
        with self.spans.span("op.read", op=True, goal=goal) as span:
            timed_read(log, lambda: session.solve(goal),
                       lambda answers: self.mvv.check(goal, answers))
            self.drain(session, span)


class _Retired:
    """Counter source summing the work of throw-away sessions."""

    def __init__(self):
        self.totals: Dict[str, float] = {}

    def add(self, after: Dict[str, float], before: Dict[str, float]) -> None:
        """*before* was taken when the session had just been opened, so
        the prelude it compiles is not counted as the goal's work."""
        for key, value in after.items():
            if not isinstance(value, (int, float)):
                continue
            if key in DEFAULT_GAUGE_KEYS:       # a level, not a count
                self.totals[key] = max(self.totals.get(key, 0), value)
            else:
                self.totals[key] = (self.totals.get(key, 0) + value
                                    - before.get(key, 0))

    def counters(self) -> Dict[str, float]:
        return dict(self.totals)


class MvvCold(_MvvWorkload):
    name = "mvv_cold"
    rules_in_edb = True

    def setup(self) -> None:
        with self.spans.span("setup.store"):
            self.session = EduceStar(store=self.new_store())
            self.mvv.store_facts(self.session)
        with self.spans.span("setup.rules"):
            self.session.store_program(mvv.RULES)
        light_tracer(self.session, self.spans.enabled)
        self.setup_failures = []
        self.retired = _Retired()
        self._registry = MetricsRegistry()
        self._registry.attach(self.retired)
        self._registry.attach(self.session.store)

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def read(self, goal: str, log: OpLog) -> None:
        """Every goal on a fresh session over the shared store: loader
        cache and session dictionary start empty, and opening the
        session is part of what the user waits for."""
        traced = self.spans.enabled
        opened: List[EduceStar] = []
        before: Dict[str, float] = {}

        def run():
            with self.spans.span("engine.session_open"):
                session = EduceStar(store=self.session.store)
                light_tracer(session, traced)
            opened.append(session)
            if traced:
                before.update(session.counters())
            return session.solve(goal)

        with self.spans.span("op.read", op=True, goal=goal) as span:
            timed_read(log, run,
                       lambda answers: self.mvv.check(goal, answers))
            if traced and opened:
                self.retired.add(opened[0].counters(), before)
                self.drain(opened[0], span)
