"""What every workload shares: the life cycle the runner drives, the
closed-loop window, the restart check, and the wiring that lets the
program's own opt-in spans nest under the benchmark's operation spans.

A workload is measured **from outside**: it calls public functions of
``repro`` and reads the public ``counters()`` / ``io_counters()`` /
``histograms()`` surfaces through a :class:`repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from typing import Any, Dict, Iterator, List, Optional

from repro import EduceStar
from repro.obs import MetricsRegistry, Tracer

from harness import OpLog, SpanRecorder, SpeedProbe, Window, speed_factor

def light_tracer(session: EduceStar, enabled: bool) -> Tracer:
    """Point the session's span emitters at a tracer that takes no
    counter snapshot per span.

    ``EduceStar.profile`` snapshots the whole metrics registry at both
    ends of every span, which costs more than the short spans it wraps
    (``codec.resolve`` is ~20 µs) and inflated a cold MVV goal by half.
    The spans themselves — ``query``, ``loader.fetch``,
    ``codec.resolve``, ``preunify.filter``, ``relational.execute``,
    ``datalog.evaluate`` — are the program's own, emitted at its own
    boundaries; only the recorder behind them is swapped, through the
    same public attributes the session constructor assigns.
    """
    tracer = Tracer(enabled=enabled)
    session.tracer = tracer
    session.machine.tracer = tracer
    session.loader.tracer = tracer
    session.preunifier.tracer = tracer
    session.datalog.tracer = tracer
    return tracer


class Workload:
    """Life cycle: ``setup`` (timed, repeated) → ``run_window`` →
    ``verify_writes`` → ``recover`` → ``close``."""

    name = ""
    loop = "closed"
    clients = 1
    #: counts repeat bit for bit only with one client and no timers
    deterministic = True
    #: how often the restart check reopens the saved/abandoned store; the
    #: median is reported so one slow ``open`` does not set ``recovery_s``
    recovery_repeats = 5

    def __init__(self, seed: int, size: Dict[str, Any], workdir: str,
                 spans: SpanRecorder):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.spans = spans
        #: numbers the counters cannot give (rows returned, user bytes…)
        self.extras: Dict[str, float] = {}
        self.setup_failures: List[str] = []
        self.speed_probe = SpeedProbe()
        self.generate()

    # ------------------------------------------------------------ life cycle

    def generate(self) -> None:
        """Derive every input from ``self.seed`` (no program call)."""
        raise NotImplementedError

    def inputs(self) -> Dict[str, Any]:
        """The generated inputs, as written to ``--out``."""
        raise NotImplementedError

    def setup(self) -> None:
        """Store the data, load the rules, warm up.  Timed as
        ``setup_s``; called again after :meth:`close` to repeat it."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built."""

    def check_oracle_sample(self) -> List[str]:
        """Cross-check a seeded sample against a second engine; returns
        the disagreements (empty = none).  Not part of ``setup_s``."""
        return []

    @property
    def registry(self) -> MetricsRegistry:
        """Every public counter surface of the current set-up."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """Settings worth stating beside the numbers."""
        return {"loop": self.loop, "clients": self.clients}

    # ---------------------------------------------------------------- window

    def rounds(self, client: int = 0) -> Iterator[List[Any]]:
        """The seeded operation stream, in rounds of a fixed mix: the
        reads, then the round's writes."""
        raise NotImplementedError

    def execute(self, op: Any, log: OpLog) -> None:
        """Run one operation, check its answer, log it."""
        raise NotImplementedError

    def run_window(self, seconds: Optional[float] = None,
                   rounds: Optional[int] = None) -> Window:
        """Closed loop, one client: the next operation starts when the
        previous one has been answered.  Runs whole rounds — so the mix
        inside every segment is exact — until *seconds* have passed or
        *rounds* are done.  Every round becomes a segment with the speed
        factor from the probes taken just before and after it."""
        window = Window(self.clients)
        gc.collect()
        start = time.perf_counter()
        probe = self.speed_probe
        before = probe()
        for done, ops in enumerate(self.rounds()):
            if rounds is not None and done >= rounds:
                break
            began = time.perf_counter()
            if seconds is not None and began - start >= seconds:
                break
            log = OpLog()
            for op in ops:
                self.execute(op, log)
            wall = time.perf_counter() - began
            after = probe()
            window.add(log, wall, speed_factor(before, after))
            before = after
        window.wall_s = time.perf_counter() - start
        return window

    def verify_writes(self, log: OpLog) -> None:
        """Off the clock: read back every write the window acknowledged;
        an unreadable one is a failed operation."""
        raise NotImplementedError

    def recover(self) -> Dict[str, float]:
        """Stop using the store, reopen it from its files, answer one
        query, and check that every acknowledged write is there.
        Returns ``recovery_s``, ``first_query_right``,
        ``lost_acked_writes`` and ``records_replayed``."""
        raise NotImplementedError

    def set_tracing(self, on: bool) -> None:
        """Switch the benchmark's spans — and, in subclasses, the
        program's opt-in ones — on or off between windows."""
        self.spans.enabled = on

    def probes(self) -> None:
        """Traced run only: push this workload's inputs straight into
        the public function of each layer it uses, one span per call."""

    # --------------------------------------------------------------- helpers

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def fresh_dir(self, name: str) -> str:
        target = self.path(name)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        return target

    def drain(self, session: EduceStar, parent) -> None:
        """Nest what the session's tracer recorded under *parent*."""
        for root in session.tracer.take_roots():
            self.spans.adopt(root, parent)

    def timed_reopen(self, home: str, first_query,
                     unreadable) -> Dict[str, float]:
        """The restart check over the store files in directory *home*
        (checkpoint ``kb.edb`` + sidecars): reopen from a private copy
        ``recovery_repeats`` times — recovery may write to the files
        it replays into — and report the median time, at reference
        speed, until ``first_query(session)`` has answered (it returns
        whether the answer was right).  Off the clock,
        ``unreadable(session)`` counts the acknowledged writes the first
        reopened store cannot return."""
        times: List[float] = []
        raw: List[float] = []
        lost = 0
        replayed = 0
        right = True
        for attempt in range(self.recovery_repeats):
            copy = self.path(f"reopen{attempt}")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(home, copy)
            gc.collect()
            before = self.speed_probe()
            with self.spans.span("recovery.open"):
                start = time.perf_counter()
                session = EduceStar.open(os.path.join(copy, "kb.edb"))
                right = first_query(session) and right
                raw.append(time.perf_counter() - start)
            times.append(raw[-1] * speed_factor(before,
                                                   self.speed_probe()))
            if attempt == 0:
                lost = unreadable(session)
                report = session.store.recovery
                replayed = report.wal_records_replayed if report else 0
            if session.store.wal is not None:
                session.store.wal.close()
            shutil.rmtree(copy, ignore_errors=True)
        return {"recovery_s": statistics.median(times),
                "recovery_raw_s": statistics.median(raw),
                "first_query_right": right,
                "lost_acked_writes": lost,
                "records_replayed": replayed}


class SessionWorkload(Workload):
    """A workload that drives one ``EduceStar`` session directly."""

    session: EduceStar = None

    @property
    def registry(self) -> MetricsRegistry:
        return self.session.metrics

    def close(self) -> None:
        if self.session is not None and self.session.store.wal is not None:
            self.session.store.wal.close()      # attached by the restart check
        self.session = None

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        self.session.tracer.enabled = on

    def unreadable(self, session: EduceStar) -> int:
        """How many acknowledged writes *session* cannot return."""
        raise NotImplementedError

    def verify_writes(self, log: OpLog) -> None:
        lost = self.unreadable(self.session)
        if lost:
            log.fail("wrong", f"{lost} acknowledged writes unreadable")


def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, entry))
               for entry in os.listdir(directory))
