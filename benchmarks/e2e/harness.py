"""Measurement primitives of the end-to-end benchmark.

Nothing here imports ``repro``: percentiles and the sample-count rule,
the in-memory span recorder with self-time arithmetic, the operation log
that does failure accounting, and the open-loop arrival schedule are
plain Python so ``benchmarks/e2e/tests`` can pin them down without a
knowledge base.

Conventions: latencies are milliseconds, span times are
``time.perf_counter()`` seconds.
"""

from __future__ import annotations

import gc
import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


# --------------------------------------------------------------- percentiles

def percentile(samples: Iterable[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between the
    two closest ranks; raises on an empty sample."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the q-quantile."""
    return int(math.floor(n * (1.0 - q) + 1e-9))


def supported(n: int, q: float) -> bool:
    """The sample-count rule: the q-quantile of *n* samples is worth
    reporting only when at least :data:`MIN_BEYOND` samples lie beyond
    it (200 samples for p95)."""
    return samples_beyond(n, q) >= MIN_BEYOND


# --------------------------------------------------------------------- spans

class Span:
    """One traced interval recorded by the benchmark."""

    __slots__ = ("name", "span_id", "parent", "op_id", "start", "end",
                 "attrs")

    def __init__(self, name: str, span_id: int, parent: Optional[int],
                 op_id: Optional[int], start: float,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.op_id = op_id
        self.start = start
        self.end = start
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        out = {"name": self.name, "span_id": self.span_id,
               "parent": self.parent, "op_id": self.op_id,
               "start": self.start, "end": self.end}
        if self.attrs:
            out["attrs"] = self.attrs
        return out


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*
    (clipped to it) — children that overlap each other, as spans of
    concurrent workers do, are not counted twice."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


class SpanRecorder:
    """Keeps spans in memory; written out when the workload ends.

    Disabled (the untraced run) it hands out ``None`` and records
    nothing.  Each thread has its own stack of open spans, so a client
    thread's operation spans nest independently of the other client's.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: bool = False,
             **attrs) -> Iterator[Optional[Span]]:
        """Record *name* around the block.  ``op=True`` starts a new
        operation: the span's id becomes the ``op_id`` every span below
        it shares."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._next_id()
        op_id = span_id if op else (parent.op_id if parent else None)
        span = Span(name, span_id, parent.span_id if parent else None,
                    op_id, time.perf_counter(), attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               op: bool = False, **attrs) -> Optional[Span]:
        """Add a finished top-level span whose ends were measured
        elsewhere (an open-loop request: sent → ticket done)."""
        if not self.enabled:
            return None
        span_id = self._next_id()
        span = Span(name, span_id, None, span_id if op else None, start,
                    attrs)
        span.end = end
        self.spans.append(span)
        return span

    def adopt(self, tree, parent: Optional[Span]) -> None:
        """Nest a span tree the program recorded itself (anything with
        ``name``/``start_s``/``wall_s``/``children``/``attrs``, i.e.
        ``repro.obs.tracing.Span``) under the benchmark's *parent*."""
        if not self.enabled or tree is None:
            return
        op_id = parent.op_id if parent is not None else None

        def walk(node, parent_id):
            span = Span(node.name, self._next_id(), parent_id, op_id,
                        node.start_s,
                        {k: v for k, v in node.attrs.items()
                         if isinstance(v, (str, int, float, bool))})
            span.end = node.start_s + node.wall_s
            self.spans.append(span)
            for child in node.children:
                walk(child, span.span_id)

        walk(tree, parent.span_id if parent is not None else None)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> Dict[int, float]:
        """span id → duration minus the part its children cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return {
            span.span_id: span.duration - covered(
                span.start, span.end,
                [(c.start, c.end)
                 for c in children.get(span.span_id, ())])
            for span in self.spans}

    def self_time_by_name(self) -> Dict[str, float]:
        own = self.self_times()
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + own[span.span_id]
        return out

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict(), sort_keys=True,
                                    default=str) + "\n")
        return len(self.spans)


# ------------------------------------------------------------ operation log

class OpLog:
    """Every attempted operation lands here exactly once: as a latency
    sample when it completed with the right answer, as a failure
    otherwise.  A failed operation contributes to no latency figure."""

    def __init__(self):
        self._lock = threading.Lock()
        self.attempted = 0
        self.read_ms: List[float] = []
        self.first_ms: List[float] = []
        self.write_ms: List[float] = []
        #: reason → count ("exception", "deadline", "refused", "wrong")
        self.failures: Dict[str, int] = {}
        self.failure_notes: List[str] = []

    def read(self, latency_ms: float,
             first_ms: Optional[float] = None) -> None:
        with self._lock:
            self.attempted += 1
            self.read_ms.append(latency_ms)
            self.first_ms.append(latency_ms if first_ms is None
                                 else first_ms)

    def write(self, latency_ms: float) -> None:
        with self._lock:
            self.attempted += 1
            self.write_ms.append(latency_ms)

    def fail(self, reason: str, note: str = "") -> None:
        with self._lock:
            self.attempted += 1
            self.failures[reason] = self.failures.get(reason, 0) + 1
            if note and len(self.failure_notes) < 20:
                self.failure_notes.append(f"{reason}: {note}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def completed(self) -> int:
        return len(self.read_ms) + len(self.write_ms)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def scaled(self, factor: float) -> "OpLog":
        """A copy with every latency multiplied by *factor*."""
        out = OpLog()
        out.attempted = self.attempted
        out.read_ms = [v * factor for v in self.read_ms]
        out.first_ms = [v * factor for v in self.first_ms]
        out.write_ms = [v * factor for v in self.write_ms]
        out.failures = dict(self.failures)
        out.failure_notes = list(self.failure_notes)
        return out

    def merge(self, other: "OpLog") -> None:
        with self._lock:
            self.attempted += other.attempted
            self.read_ms.extend(other.read_ms)
            self.first_ms.extend(other.first_ms)
            self.write_ms.extend(other.write_ms)
            for reason, n in other.failures.items():
                self.failures[reason] = self.failures.get(reason, 0) + n
            self.failure_notes.extend(other.failure_notes)


_NOTHING = object()


def _exception(exc: BaseException) -> str:
    return "exception"


def timed_read(log: OpLog, run: Callable[[], Iterator],
               check: Callable[[list], bool],
               classify: Callable[[BaseException], str] = _exception
               ) -> Optional[list]:
    """One closed-loop read: ``run()`` returns the answer iterator, the
    clock stops when it is drained, *check* decides if the answers are
    right.  *classify* names the failure an exception stands for
    ("exception", "deadline", "refused").  Returns the answers (None
    when the operation raised)."""
    start = time.perf_counter()
    try:
        answers_iter = iter(run())
        first = next(answers_iter, _NOTHING)
        first_at = time.perf_counter()
        answers = [] if first is _NOTHING else [first]
        answers.extend(answers_iter)
        done = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - the failure is the datum
        log.fail(classify(exc), repr(exc))
        return None
    if check(answers):
        log.read((done - start) * 1000.0, (first_at - start) * 1000.0)
    else:
        log.fail("wrong", f"{len(answers)} answers")
    return answers


def timed_write(log: OpLog, run: Callable[[], Any]) -> bool:
    """One write: update call → acknowledged."""
    start = time.perf_counter()
    try:
        run()
    except Exception as exc:  # noqa: BLE001
        log.fail("exception", repr(exc))
        return False
    log.write((time.perf_counter() - start) * 1000.0)
    return True


# ------------------------------------------------- machine speed, segments

#: CPU seconds the probe's two loops take at the full speed of the machine
#: the sizes were frozen on.  Every time the benchmark reports is scaled
#: to a machine on which they take exactly this long.
REFERENCE_ARITHMETIC_S = 0.00075
REFERENCE_ALLOCATION_S = 0.00095


class SpeedProbe:
    """How slow is the *machine* right now?  1.0 = the reference machine.

    The thread CPU time of two fixed pure-Python loops, each relative to
    its reference, averaged.  On a shared host every latency the
    benchmark measures drifts by a quarter for seconds or minutes at a
    time, and in a bad spell doubles — more than any regression worth
    catching.  The slowness has two parts that move apart: arithmetic
    in registers (x 1.3 in the worst spell seen) and work that allocates
    and touches memory (x 1.9 in the same spell).  The program's
    operations sat between the two (goals and reopenings x 1.65-1.7,
    set-up x 1.9), so the probe is half of each: an arithmetic loop and a
    loop that builds a dictionary of small tuples, lists and strings.
    The loops touch no part of the program, so they tell the machine's
    slowness from the program's own: a stall caused by the program (a
    collection, a checkpoint, a lock) leaves the probe untouched and
    stays in the numbers.  The collector is off inside the probe — how
    long a collection takes depends on the program's heap — and each
    loop's time is the best of three.
    """

    LOOPS = 20000
    ALLOCATIONS = 3000
    REPEATS = 3

    @staticmethod
    def _arithmetic(n: int) -> int:
        x = 0
        for i in range(n):
            x += i * i % 7
        return x

    @staticmethod
    def _allocation(n: int) -> list:
        table = {}
        for i in range(n):
            table[("k", i)] = [i, str(i), (i, i + 1)]
        return [row[1] + "x" for row in table.values()]

    def _best(self, loop, n: int) -> float:
        best = float("inf")
        for _ in range(self.REPEATS):
            start = time.thread_time()
            loop(n)
            best = min(best, time.thread_time() - start)
        return best

    def __call__(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            arithmetic = self._best(self._arithmetic, self.LOOPS)
            allocation = self._best(self._allocation, self.ALLOCATIONS)
        finally:
            if collecting:
                gc.enable()
        return (arithmetic / REFERENCE_ARITHMETIC_S
                + allocation / REFERENCE_ALLOCATION_S) / 2.0


def speed_factor(before: float, after: float) -> float:
    """What to multiply a time by to get the time the reference machine
    would have taken, given the slowness probed just before and after
    it."""
    return 2.0 / (before + after)


class Window:
    """A timed window as a list of segments — the rounds of a closed
    loop, the time slices of an open one — each with its own operation
    log, wall time and speed factor (1.0 when no probe was taken)."""

    def __init__(self, clients: int = 1, tails_by_segment: bool = False):
        self.clients = clients
        #: report p95 as the lower quartile of the segments' own p95
        self.tails_by_segment = tails_by_segment
        self.wall_s = 0.0
        self.segments: List[tuple] = []     # (log, wall_s, factor)
        #: wall seconds (as measured, at reference speed) of the segments
        #: that carry reads: what throughput divides by
        self.read_wall_s = [0.0, 0.0]
        self._lock = threading.Lock()

    def add(self, log: OpLog, wall_s: float, factor: float = 1.0,
            reads: bool = True) -> None:
        """``reads=False``: a stretch of writes after the clients have
        stopped; its time is no part of the read throughput."""
        with self._lock:
            self.segments.append((log, wall_s, factor))
            if reads:
                self.read_wall_s[0] += wall_s
                self.read_wall_s[1] += wall_s * factor

    def everything(self) -> OpLog:
        """Every operation as measured: what failure accounting, the
        traced run's counts and the raw figures are taken over."""
        merged = OpLog()
        for log, _wall, _factor in self.segments:
            merged.merge(log)
        return merged

    def at_reference_speed(self) -> OpLog:
        """Every latency scaled by its segment's speed factor: what the
        reported latencies are taken over."""
        merged = OpLog()
        for log, _wall, factor in self.segments:
            merged.merge(log.scaled(factor))
        return merged

    def latency_figures(self, scaled: bool = True) -> Dict[str, float]:
        """Medians and 95th percentiles of the reads and the writes,
        over every operation of the window.

        With ``tails_by_segment`` a p95 is the lower quartile of the
        segments' own p95 instead: the p95 of an undisturbed second.  In
        an open loop one stall of the host holds up every request that
        arrives behind it — 300 ms stop a third of a second's arrivals,
        3 % of a ten-second window, and the pooled p95 doubles.  What
        the host adds it only ever adds, so the quieter seconds say most
        about the program: over 22 runs of one commit the pooled p95
        and the median of the segments spread by 22 % (inter-quartile
        distance ÷ median), the lower quartile by 9 %.  A program that
        queues or stalls in every second still shows; a rare stall of
        its own shows in ``failed`` (deadline) and in the per-layer p99.
        """
        log = self.at_reference_speed() if scaled else self.everything()
        if not log.read_ms or not log.write_ms:
            raise ValueError("the window completed no read or no write")
        figures = {
            "query_p50_ms": percentile(log.read_ms, 0.5),
            "query_p95_ms": percentile(log.read_ms, 0.95),
            "first_answer_p50_ms": percentile(log.first_ms, 0.5),
            "write_p50_ms": percentile(log.write_ms, 0.5),
            "write_p95_ms": percentile(log.write_ms, 0.95),
        }
        if self.tails_by_segment:
            for name, kind in (("query_p95_ms", "read_ms"),
                               ("write_p95_ms", "write_ms")):
                figures[name] = percentile(
                    [percentile(getattr(seg, kind), 0.95)
                     * (factor if scaled else 1.0)
                     for seg, _wall, factor in self.segments
                     if getattr(seg, kind)], 0.25)
        return figures

    def reads_per_second(self, scaled: bool = True) -> float:
        """Correct reads per second; concurrent clients' segments overlap
        in time, so their rates add."""
        reads = sum(len(log.read_ms) for log, _wall, _f in self.segments)
        wall = self.read_wall_s[1 if scaled else 0]
        return self.clients * reads / wall if wall else 0.0

    def mean_factor(self) -> float:
        raw, scaled = self.read_wall_s
        return scaled / raw if raw else 1.0


# ----------------------------------------------------------------- open loop

def poisson_schedule(rng, rate_per_s: float, duration_s: float
                     ) -> List[float]:
    """Due offsets (seconds from the window's start) of Poisson arrivals
    at *rate_per_s* over *duration_s*.  A Poisson process conditioned on
    its arrival count is that many uniform draws, sorted — so every run
    sends exactly ``round(rate × duration)`` requests at Poisson-spaced
    times, and the count does not add noise of its own."""
    count = max(1, round(rate_per_s * duration_s))
    return sorted(rng.uniform(0.0, duration_s) for _ in range(count))


def zipf_weights(n: int, s: float) -> List[float]:
    """Cumulative Zipf(s) weights over ranks 1..n for ``bisect``."""
    total = 0.0
    cumulative = []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        cumulative.append(total)
    return [c / total for c in cumulative]


def due_latency_ms(due: float, sent: float, service_ms: float) -> float:
    """Open-loop latency, timed from when the request was *due*: the
    wait a late generator imposed plus the program's own time."""
    return (sent - due) * 1000.0 + service_ms


def pace(schedule: List[float], start: float,
         fire: Callable[[int, float, float], None],
         clock: Callable[[], float] = time.perf_counter,
         sleep: Callable[[float], None] = time.sleep) -> List[float]:
    """Send on schedule regardless of completions: for each due offset
    wait until it is due, then call ``fire(index, due, sent)``.  Returns
    how late (ms) each request left the generator."""
    late_ms: List[float] = []
    for index, offset in enumerate(schedule):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        sent = clock()
        late_ms.append(max(0.0, (sent - due) * 1000.0))
        fire(index, due, sent)
    return late_ms
