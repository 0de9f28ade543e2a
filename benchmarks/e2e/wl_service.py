"""``service_closed_read`` and ``service_open_mixed``: many users on one
kernel (paper §3.3) through ``repro.service.QueryService``.

Closed: two clients, two workers, a warm in-memory store — the queue is
empty by construction, so what is measured is how much CPU-bound work
one process gets through under the interpreter lock.

Open: requests arrive on a seeded schedule whether or not earlier ones
have been answered, writes take the exclusive store lock beside the
reads, every append is fsynced, and at the end the store is abandoned
and reopened from its files.  Latency is timed from when a request was
*due*.
"""

from __future__ import annotations

import gc
import os
import queue
import random
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from repro import EduceStar, QueryService
from repro.bang.pager import Pager
from repro.edb.store import ExternalStore
from repro.errors import QueryInterrupted, ServiceSaturated
from repro.obs import MetricsRegistry
from repro.workloads import mvv

from base import Workload, dir_bytes, light_tracer
from harness import (OpLog, Window, due_latency_ms, pace, percentile,
                     poisson_schedule, speed_factor, timed_read, timed_write,
                     zipf_weights)
from probes import probe_language
from wl_mvv import MvvInputs, unreadable_notes

WORKERS = 2
#: writes between two probes of the closed workload's write tail; the
#: first of a chunk runs with cold caches, so a tenth of them do and p95
#: lies well inside that kind
TAIL_CHUNK = 10
#: the open loop's segments: slices of this many reference seconds, each
#: with this many machine-speed probes among its reads
SLICE_S = 1.0
PROBES_PER_SLICE = 3
#: warm-up passes stop when a pass loads nothing new on either worker
MAX_WARMUP_PASSES = 6


def failure_reason(exc: BaseException) -> str:
    if isinstance(exc, ServiceSaturated):
        return "refused"
    if isinstance(exc, QueryInterrupted):
        return "deadline" if exc.reason == "deadline" else "exception"
    return "exception"


class _ServiceWorkload(Workload):
    """MVV facts and rules in the EDB behind a two-worker service."""

    deterministic = False

    def generate(self) -> None:
        size = self.size
        self.mvv = MvvInputs(size)
        self.svc: QueryService = None
        self.home: Optional[str] = None
        self.acked: List[Tuple[str, int]] = [("k_seed", 0)]
        self.windows = 0
        self.tails = 0
        self.extras.update(execute_ms_sum=0.0, late_p95_ms=0.0,
                           written_user_bytes=0)

    def inputs(self) -> Dict[str, Any]:
        return self.mvv.as_json()

    def check_oracle_sample(self) -> List[str]:
        return self.mvv.check_against_baseline(self.size["baseline_sample"])

    def new_store(self) -> ExternalStore:
        raise NotImplementedError

    def setup(self) -> None:
        with self.spans.span("setup.store"):
            self.svc = QueryService(
                store=self.new_store(), workers=WORKERS,
                queue_size=self.size["queue_size"],
                tracing=self.spans.enabled)
            self.mvv.store_facts(self.svc)
        with self.spans.span("setup.rules"):
            self.svc.store_program(mvv.RULES)
        for session in self.svc.sessions:
            light_tracer(session, False)
        with self.spans.span("setup.warmup"):
            self.setup_failures = self._warm_up()

    def _warm_up(self) -> List[str]:
        """Each pass submits every pool goal twice at once, so both
        workers see it; passes repeat until ``loads`` stops rising."""
        svc = self.svc
        bad: List[str] = []
        goals = self.mvv.class1 + self.mvv.class2
        loads = svc.metrics.snapshot()["loads"]
        for _ in range(MAX_WARMUP_PASSES):
            for goal in goals:
                for ticket in svc.submit_many([goal] * WORKERS):
                    if not self.mvv.check(goal, ticket.result()):
                        bad.append(goal)
            now = svc.metrics.snapshot()["loads"]
            if now == loads:
                break
            loads = now
        return bad

    @property
    def registry(self) -> MetricsRegistry:
        return self.svc.metrics

    def close(self) -> None:
        if self.svc is not None:
            self.svc.shutdown()
            if self.svc.store.wal is not None:
                self.svc.store.wal.close()
        self.svc = None

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        self.svc.trace_tickets = on

    def worker_probe(self) -> float:
        """The machine-speed probe as a request: how slow is the machine
        where the goals run."""
        return self.svc.execute(lambda _session: self.speed_probe())

    # ------------------------------------------------------------ operations

    def ask(self, goal: str, log: OpLog, check) -> None:
        """One closed-loop read through the ticket queue.  The service
        materialises every answer before the ticket completes, so the
        first answer reaches the client when the last one does."""
        svc = self.svc
        tickets = []

        def run():
            with self.spans.span("service.submit"):
                tickets.append(svc.submit(goal, timeout=self.size["deadline_s"]))
            return tickets[0].result()

        with self.spans.span("op.read", op=True, goal=goal) as span:
            timed_read(log, run, check, failure_reason)
            if tickets:
                self.extras["execute_ms_sum"] += tickets[0].execute_ms or 0.0
                self.spans.adopt(tickets[0].trace, span)

    def write_note(self, key: str, value: int, log: OpLog) -> bool:
        svc = self.svc
        text = f"note({key}, {value})."
        with self.spans.span("op.write", op=True):
            with self.spans.span("edb.assert"):
                ok = timed_write(log, lambda: svc.assert_external(text))
        if ok:
            self.acked.append((key, value))
            self.extras["written_user_bytes"] += len(text)
        return ok

    def verify_writes(self, log: OpLog) -> None:
        lost = self.svc.execute(self.unreadable)
        if lost:
            log.fail("wrong", f"{lost} acknowledged writes unreadable")

    def unreadable(self, session: EduceStar) -> int:
        return unreadable_notes(session, self.acked)

    def reopen(self) -> Dict[str, float]:
        self.extras["store_bytes"] = dir_bytes(self.home)
        self.extras["user_bytes"] = self.mvv.user_bytes()
        goal = self.mvv.class1[0]

        def first_query(session: EduceStar) -> bool:
            return self.mvv.check(goal, list(session.solve(goal)))

        return self.timed_reopen(self.home, first_query, self.unreadable)

    def probes(self) -> None:
        probe_language(self.spans, self.extras, mvv.RULES,
                       self.mvv.class1 + self.mvv.class2)


class ServiceClosedRead(_ServiceWorkload):
    name = "service_closed_read"
    clients = 2

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out.update(workers=WORKERS, buffer_pages=self.size["buffer_pages"],
                   store="in-memory, no simulated disc latency")
        return out

    def new_store(self) -> ExternalStore:
        return ExternalStore(
            pager=Pager(buffer_pages=self.size["buffer_pages"]))

    def rounds(self, client: int = 0):
        rng = random.Random(self.seed * 1009 + client)
        return self.mvv.rounds(rng, client, *self.size["round"], 0)

    def execute(self, op, log: OpLog) -> None:
        goal = op[1]
        self.ask(goal, log, lambda answers: self.mvv.check(goal, answers))

    def run_window(self, seconds: Optional[float] = None,
                   rounds: Optional[int] = None) -> Window:
        """Two client threads, each a closed loop over its own seeded
        stream, in step: both start a round together and between rounds,
        while nothing else is queued, this thread sends the machine-speed
        probe through the service, so it runs on a worker like the goals
        (see :meth:`ServiceOpenMixed.run_window`).  (A probe taken
        inside a client thread, beside a busy worker, gave factors of
        0.58 to 1.05 within one window — noise, not signal.)  A round is
        ~0.35 s, the meeting point ~7 ms."""
        window = Window(self.clients)
        meet = threading.Barrier(self.clients + 1, timeout=120)
        going = [True]
        finished: List[Optional[tuple]] = [None] * self.clients

        def client(index: int) -> None:
            for ops in self.rounds(index):
                meet.wait()
                if not going[0]:
                    return
                log = OpLog()
                began = time.perf_counter()
                for op in ops:
                    self.execute(op, log)
                finished[index] = (log, time.perf_counter() - began)
                meet.wait()

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.clients)]
        for thread in threads:
            thread.start()
        gc.collect()
        start = time.perf_counter()
        before = self.worker_probe()
        done = 0
        while True:
            going[0] = not (
                (rounds is not None and done >= rounds)
                or (seconds is not None
                    and time.perf_counter() - start >= seconds))
            meet.wait()                 # the clients start their round
            if not going[0]:
                break
            meet.wait()                 # ... and have both finished it
            after = self.worker_probe()
            for log, wall in finished:
                window.add(log, wall, speed_factor(before, after))
            before = after
            done += 1
        for thread in threads:
            thread.join()
        self._write_tail(window)
        window.wall_s = time.perf_counter() - start
        return window

    def _write_tail(self, window: Window) -> None:
        """The writes come after the reads, from this thread alone.  A
        write waits for the readers in flight; beside two busy clients
        about one write in twenty waited, which put ``write_p95_ms`` on
        the edge between 0.2 ms and 3 ms from run to run."""
        self.tails += 1
        before = self.speed_probe()
        for chunk in range(self.size["write_tail"] // TAIL_CHUNK):
            log = OpLog()
            began = time.perf_counter()
            for index in range(TAIL_CHUNK):
                self.write_note(f"t{self.tails}_{chunk}_{index}", index, log)
            wall = time.perf_counter() - began
            after = self.speed_probe()
            window.add(log, wall, speed_factor(before, after), reads=False)
            before = after

    def recover(self) -> Dict[str, float]:
        self.home = self.fresh_dir("home")
        self.svc.shutdown()
        self.svc.admin.save(f"{self.home}/kb.edb")
        return self.reopen()


class ServiceOpenMixed(_ServiceWorkload):
    name = "service_open_mixed"
    loop = "open"
    clients = 2
    #: a reopening replays the log: a third of a second each
    recovery_repeats = 3

    def generate(self) -> None:
        super().generate()
        #: per write, how long the log append (writes + sync) took
        self.device_ms: List[float] = []

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out.update(workers=WORKERS, buffer_pages=128,
                   read_rate_per_s=self.size["read_rate"],
                   write_rate_per_s=self.size["write_rate"],
                   deadline_s=self.size["deadline_s"],
                   store="durable files; WAL fsync on every append "
                         "(the program's default policy)")
        if self.device_ms:
            out["device_append_ms_p50"] = percentile(self.device_ms, 0.5)
        return out

    def new_store(self) -> ExternalStore:
        self.home = self.fresh_dir("home")
        return ExternalStore.open(os.path.join(self.home, "kb.edb"),
                                  create=True)

    def run_window(self, seconds: Optional[float] = None,
                   rounds: Optional[int] = None) -> Window:
        """Open loop for *seconds*: one thread sends the reads when they
        are due, another the writes, whether or not earlier requests
        have been answered.

        The window is whole slices of :data:`SLICE_S` reference seconds,
        one after the other without a gap, as many as fit into *seconds*
        of wall time.  :data:`PROBES_PER_SLICE` times a slice the read
        schedule carries the machine-speed probe as a request of its
        own, so it runs on a worker, between the goals, as they do.
        (Taken by this thread in a pause left for it — after a second
        asleep, with cold caches — the probe drifted from 1.07 to 1.30
        over sixteen runs in which the unscaled median latency stayed
        within 3 %: it measured how this thread woke up, not how the
        workers ran.)  The probes hold a worker for 2 % of the time.

        The schedule is laid out in reference-machine time and each
        slice's due times are stretched by what the probes of the slice
        before it say: on a machine (or in a moment) a quarter slower
        the requests come a quarter further apart, so the offered load
        stays the same share of what the machine can do.  Without that,
        a slow spell raised the utilisation, the waiting grew faster
        than the service time, and p95 spread by a third between runs of
        one commit.  The probe sees the machine only — a slower
        *program* meets the same schedule and shows.

        A write's latency leaves out the time the log append took — two
        writes and the sync, as the log's own ``wal_append_ms``
        histogram has it: on the sandbox's shared disc a sync takes
        0.1 ms or 4 ms depending on what else the host does, and the
        kernel's share moves by a third within minutes, whatever the
        program does.  What stays is parsing, the wait for the exclusive
        lock and the store update; the append is reported beside it
        (``device_append_ms_p50`` in the settings, ``bang.wal_*`` per
        layer)."""
        size = self.size
        self.windows += 1
        rng = random.Random(self.seed * 1009)
        ranks = zipf_weights(len(self.mvv.class1), size["zipf_s"])
        svc = self.svc
        plans: List[list] = []          # per slice: what each read asks
        probes: List[list] = []         # per slice: the probes' tickets
        slices: List[OpLog] = []

        def draw(kind: float) -> Tuple[str, Any]:
            """What one read asks: a note by (note, fraction of the keys
            acknowledged so far) or a class-1 goal by Zipf rank."""
            if kind < size["note_share"]:
                return "note", rng.random()
            return "goal", self.mvv.class1[
                min(bisect_left(ranks, rng.random()), len(ranks) - 1)]

        def lay_out_slice() -> Tuple[List[float], List[float]]:
            """The next slice's due times, in reference seconds."""
            due = poisson_schedule(rng, size["read_rate"], SLICE_S)
            asks = [draw(rng.random()) for _ in due]
            entries = list(zip(due, asks)) + [
                ((k + 0.5) * SLICE_S / PROBES_PER_SLICE, ("probe", None))
                for k in range(PROBES_PER_SLICE)]
            entries.sort(key=lambda entry: entry[0])
            plans.append([ask for _due, ask in entries])
            probes.append([])
            slices.append(OpLog())
            return ([at for at, _ask in entries],
                    poisson_schedule(rng, size["write_rate"], SLICE_S))

        acked_lock = threading.Lock()
        sent_reads: List[tuple] = []

        def reader(number: int):
            def fire(index: int, due: float, sent: float) -> None:
                kind, what = plans[number][index]
                if kind == "probe":
                    try:
                        probes[number].append(svc.submit(
                            lambda _session: self.speed_probe(),
                            timeout=size["deadline_s"]))
                    except ServiceSaturated:
                        pass            # the slice before says how fast
                    return
                if kind == "note":
                    with acked_lock:
                        key, value = self.acked[int(what * len(self.acked))]
                    goal, expect = f"note({key}, V)", value
                else:
                    goal, expect = what, None
                try:
                    with self.spans.span("service.submit"):
                        ticket = svc.submit(goal, timeout=size["deadline_s"])
                except ServiceSaturated:
                    slices[number].fail("refused", goal)
                    return
                sent_reads.append((due, sent, ticket, goal, expect,
                                   slices[number]))
            return fire

        #: the log's own record of how long its appends took (two writes
        #: and the sync).  This thread is the only writer, so the
        #: histogram's growth around one call is that call's device time.
        device = svc.store.wal.histograms()["wal_append_ms"]

        def writer(number: int):
            def fire(index: int, due: float, sent: float) -> None:
                key = f"k{abs(self.seed)}_{self.windows}_{number}_{index}"
                text = f"note({key}, {index})."
                synced_ms = device.total
                started = time.perf_counter()
                try:
                    with self.spans.span("op.write", op=True):
                        with self.spans.span("edb.assert"):
                            svc.assert_external(text)
                except Exception as exc:  # noqa: BLE001
                    slices[number].fail("exception", repr(exc))
                    return
                served_ms = (time.perf_counter() - started) * 1000.0
                synced_ms = device.total - synced_ms
                with acked_lock:
                    self.acked.append((key, index))
                self.extras["written_user_bytes"] += len(text)
                self.device_ms.append(synced_ms)
                slices[number].write(
                    due_latency_ms(due, sent, served_ms - synced_ms))
            return fire

        feeds = {"reads": queue.Queue(), "writes": queue.Queue()}
        late: List[float] = []

        def generator(feed: "queue.Queue") -> None:
            """Paces one slice's schedule after the other."""
            while True:
                job = feed.get()
                if job is None:
                    return
                late.extend(pace(*job))

        threads = [threading.Thread(target=generator, args=(feed,))
                   for feed in feeds.values()]
        for thread in threads:
            thread.start()
        gc.collect()
        slowness = [self.worker_probe()]
        start = opens = time.perf_counter() + 0.05
        walls = []
        # whole slices until the time is up: a slow spell stretches the
        # slices, so fewer of them fit (at least one does)
        while not slices or opens + SLICE_S * slowness[-1] <= start + seconds:
            number = len(slices)
            stretch = slowness[-1]              # wall s per reference s
            reads, writes = lay_out_slice()
            feeds["reads"].put(([due * stretch for due in reads],
                                opens, reader(number)))
            feeds["writes"].put(([due * stretch for due in writes],
                                 opens, writer(number)))
            closes = opens + SLICE_S * stretch
            time.sleep(max(0.0, closes - time.perf_counter()))
            probed = [ticket.value for ticket in probes[number]
                      if ticket.state == "done"]
            slowness.append(percentile(probed, 0.5) if probed
                            else slowness[-1])
            walls.append(SLICE_S * stretch)
            opens = closes
        for feed in feeds.values():
            feed.put(None)
        for thread in threads:
            thread.join()

        for due, sent, ticket, goal, expect, log in sent_reads:
            ticket.wait(size["deadline_s"] + 1.0)
            self._settle(log, due, sent, ticket, goal, expect)
        window = Window(tails_by_segment=True)
        window.wall_s = time.perf_counter() - start
        for number, log in enumerate(slices):
            window.add(log, walls[number], 1.0 / slowness[number + 1])
        self.extras["late_p95_ms"] = percentile(late, 0.95)
        return window

    def _settle(self, log: OpLog, due: float, sent: float, ticket,
                goal: str, expect: Optional[int]) -> None:
        """Account one open-loop read after its ticket ended."""
        if ticket.state != "done":
            reason = ("deadline" if ticket.state in ("timeout", "queued",
                                                     "running")
                      else "exception")
            log.fail(reason, f"{goal}: {ticket.state}")
            return
        self.extras["execute_ms_sum"] += ticket.execute_ms or 0.0
        if expect is None:
            right = self.mvv.check(goal, ticket.value)
        else:
            right = [s["V"] for s in ticket.value] == [expect]
        if not right:
            log.fail("wrong", goal)
            return
        log.read(due_latency_ms(due, sent, ticket.total_ms))
        span = self.spans.record("op.read", sent,
                                 sent + ticket.total_ms / 1000.0,
                                 op=True, goal=goal)
        self.spans.adopt(ticket.trace, span)

    def recover(self) -> Dict[str, float]:
        """Abandon the store: workers are stopped, but nothing is saved
        or checkpointed — what the reopen sees is the last checkpoint
        (the empty store) plus the fsynced log."""
        self.svc.shutdown()
        return self.reopen()
