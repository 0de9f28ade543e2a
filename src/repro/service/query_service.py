"""The concurrent query service — N WAM machines over one shared EDB.

Paper §3.3: "Educe* is a multi-user system ... the code of a procedure
stored in the EDB is compiled once and executed by every session."  The
reproduction's unit of sharing is the :class:`~repro.edb.store.
ExternalStore`; everything *per-session* (WAM heap and stacks, internal
dictionary, loader cache) is private to a worker, so workers never
contend on machine state — only on storage, exactly as in the paper's
architecture.

Design (full locking discipline in ``docs/CONCURRENCY.md``):

* Each worker thread owns one :class:`~repro.engine.session.EduceStar`
  built over the shared store.  Queries run under the store's shared
  **read lock**; the store's ``mutation_epoch`` is captured right after
  lock acquisition, which linearizes every query against the writer
  stream (the differential concurrency suite replays the serial oracle
  from exactly these epochs).
* Updates go through :meth:`QueryService.store_program` /
  :meth:`store_relation` / :meth:`assert_external`, which run on a
  dedicated admin session under the exclusive write lock.  Nothing is
  broadcast to the workers: each worker's loader cache follows the
  stored procedure versions, dropping a mutated procedure's blocks at
  its next call to it; unrelated procedures keep their cached blocks.
* Submissions are tickets on a bounded queue (`ServiceSaturated` when
  full, `ServiceClosed` after shutdown begins).  A ticket may carry a
  deadline; a running query is interrupted cooperatively through the
  WAM's instruction-poll hook, surfacing as
  :exc:`~repro.errors.QueryInterrupted`.
* Service counters are counted under locks the service takes anyway:
  admissions and rejections under the submit lock, terminal states
  under the histogram lock, before the ticket finishes.  They merge
  into the service's :class:`~repro.obs.registry.MetricsRegistry`
  beside the shared store's I/O counters and every worker's
  machine/loader counters.
* Updates raise :class:`~repro.errors.ReadOnlyService` while the
  shared store is fenced read-only (a replica's store,
  docs/REPLICATION.md): the store's fence is the service's too.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from collections import deque
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..engine.session import EduceStar
from ..errors import (QueryInterrupted, ReadOnlyService, ServiceClosed,
                      ServiceSaturated)
from ..obs import MetricsRegistry
from ..obs.exposition import render_prometheus
from ..obs.registry import Histogram
from ..obs.tracing import Span

#: A query is either a Prolog goal string (solved on the worker's
#: session, solutions collected eagerly under the read lock) or a
#: callable ``fn(session) -> value`` for programmatic access — e.g. the
#: relational interface or multi-goal transactions-of-reads.
Goal = Union[str, Callable[[EduceStar], object]]

_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"
_TIMEOUT = "timeout"
_FAILED = "failed"

#: instructions between two cancellation/deadline polls of a worker's
#: machine — tighter than the machine's own default, so a cancelled or
#: expired ticket releases its worker promptly
_POLL_INTERVAL = 512

#: how many finished tickets / captured trace trees the service remembers
_RECENT_TICKETS = 256
_TRACE_CAPACITY = 64


class QueryTicket:
    """A submitted query: future-style handle with cancellation.

    States: ``queued`` → ``running`` → one of ``done`` / ``cancelled``
    / ``timeout`` / ``failed`` (cancellation and deadline expiry can
    also strike while still queued).
    """

    def __init__(self, ticket_id: int, goal: Goal,
                 limit: Optional[int], deadline: Optional[float]):
        self.id = ticket_id
        self.goal = goal
        self.limit = limit
        self.state = _QUEUED
        #: store ``mutation_epoch`` observed under the read lock — the
        #: query saw exactly the first ``store_epoch`` mutations.
        self.store_epoch: Optional[int] = None
        self.value: object = None
        self.error: Optional[BaseException] = None
        self.worker: Optional[str] = None
        #: trace id minted at submission; carried into the worker
        #: session's tracer so every span of this query's execution —
        #: service-synthesised and engine-emitted alike — shares it.
        self.trace_id: Optional[str] = None
        self.queue_wait_ms: Optional[float] = None
        self.execute_ms: Optional[float] = None
        self.total_ms: Optional[float] = None
        #: root of the ticket's span tree (``ticket`` → ``queue_wait``
        #: + ``execute`` → engine spans) when the service traces.
        self.trace: Optional[Span] = None
        self._deadline = deadline          # time.monotonic() basis
        self._submitted_perf: Optional[float] = None
        self._cancel = threading.Event()
        self._finished = threading.Event()

    # ------------------------------------------------------------- consumer

    def cancel(self) -> bool:
        """Request cancellation; returns False if already finished.

        A queued ticket is dropped when a worker dequeues it; a running
        query is interrupted at its next instruction poll.  Because
        cancellation is cooperative, a True return is *advisory* for a
        running query — the worker may still complete it before the
        next poll fires; only :meth:`result` reports the actual
        outcome.  A finish that races this call is detected: if the
        ticket completed between the check and the flag, the return
        value reflects the final state rather than promising a
        cancellation that can no longer happen."""
        if self._finished.is_set():
            return False
        self._cancel.set()
        if self._finished.is_set():
            # The worker finished the ticket concurrently; report
            # whether the cancellation actually took effect.
            return self.state in (_CANCELLED, _TIMEOUT)
        return True

    def done(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> object:
        """Block for the outcome.

        Returns the query's value (list of
        :class:`~repro.wam.machine.Solution` for goal strings, the
        callable's return value otherwise).  Raises
        :exc:`QueryInterrupted` for cancelled/timed-out tickets, the
        original exception for failed ones, :exc:`TimeoutError` if the
        ticket is still unfinished after *timeout* seconds."""
        if not self._finished.wait(timeout):
            raise TimeoutError(f"ticket {self.id} still {self.state}")
        if self.state == _CANCELLED:
            raise QueryInterrupted("cancelled")
        if self.state == _TIMEOUT:
            raise QueryInterrupted("deadline")
        if self.state == _FAILED:
            assert self.error is not None
            raise self.error
        return self.value

    # ------------------------------------------------------------- internal

    def _finish(self, state: str, value: object = None,
                error: Optional[BaseException] = None) -> None:
        self.state = state
        self.value = value
        self.error = error
        self._finished.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryTicket(id={self.id}, state={self.state!r})"


class QueryService:
    """N worker sessions over one shared store, behind a bounded queue.

    ``store`` may be an existing :class:`ExternalStore` (e.g. one
    opened from a durable path) or None for a fresh in-memory EDB.
    Extra keyword arguments are forwarded to every worker's
    :class:`EduceStar` constructor (``preunify_depth``, ``datalog``).
    """

    def __init__(self, store=None, workers: int = 4,
                 queue_size: int = 64,
                 tracing: bool = False,
                 slow_query_ms: Optional[float] = None,
                 **session_kwargs):
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("need a positive queue bound")
        #: trace every ticket end to end (``tracing=True``), or only
        #: capture tickets slower than ``slow_query_ms`` milliseconds.
        #: Either setting enables the worker sessions' tracers per
        #: ticket; with both off the tracing path costs nothing.
        self.trace_tickets = bool(tracing)
        self.slow_query_ms = slow_query_ms
        #: the admin session is built first: it creates the store when
        #: none is given and is the single session used for updates.
        self.admin = EduceStar(store=store, **session_kwargs)
        self.store = self.admin.store
        self.sessions: List[EduceStar] = [
            EduceStar(store=self.store, **session_kwargs)
            for _ in range(workers)
        ]
        for session in self.sessions:
            session.machine.poll_interval = _POLL_INTERVAL

        self._queue: "queue.Queue[QueryTicket]" = queue.Queue(queue_size)
        self._queue_bound = queue_size
        self._submit_lock = threading.Lock()
        self._admin_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._shutdown = False
        # Shutdown is idempotent: the first caller does the work, every
        # later (or concurrent) caller waits on this lock and returns.
        self._shutdown_lock = threading.Lock()
        self._shutdown_complete = False

        # Maintained gauges (satellite fix: ``qsize()`` sampled at
        # counters() time is racy and has no memory — a burst that
        # drains before the next scrape leaves no evidence).  Depth is
        # incremented under the submit lock and decremented by the
        # dequeuing worker; the peak is a high-watermark.
        self._gauge_lock = threading.Lock()
        self._depth = 0
        self._depth_peak = 0
        self._inflight = 0

        # Service-level latency histograms; observed once per terminal
        # ticket under a dedicated lock (not the submit lock — finishes
        # must not contend with admissions).
        self._hist_lock = threading.Lock()
        self._queue_wait_hist = Histogram()
        self._ticket_hist = Histogram()
        # Submitted/rejected move under the submit lock, terminal
        # states under the histogram lock; every key exists from the
        # start, so counters() copies the dict without a lock.
        self._counts: Dict[str, int] = dict.fromkeys((
            "service_submitted", "service_completed", "service_failed",
            "service_cancelled", "service_timeouts", "service_rejected",
        ), 0)

        #: the flight recorder: the shared store's event ring doubles
        #: as the service ring, so storage events (evictions, WAL
        #: poison, recovery) and ticket lifecycle events interleave in
        #: one sequenced stream.
        self.events = self.store.events
        self._service_id = uuid.uuid4().hex[:6]
        self._span_seq = itertools.count(1)
        self._recent: "deque[Dict[str, Any]]" = deque(maxlen=_RECENT_TICKETS)
        self._traces: "deque[Span]" = deque(maxlen=_TRACE_CAPACITY)
        self._slow: "deque[Dict[str, Any]]" = deque(maxlen=32)
        #: full :meth:`telemetry` aggregate captured by :meth:`shutdown`
        self.final_telemetry: Optional[Dict[str, Any]] = None

        self.metrics = MetricsRegistry()
        self.metrics.attach(self)   # counters() + histograms()
        self.metrics.attach(self.store)   # io_counters: pager + WAL + locks
        for session in self.sessions:
            self.metrics.attach(session.machine)
            self.metrics.attach(session.loader)
            # Strategy-planner decisions and fixpoint work, per worker
            # (counters + the fixpoint-iteration histogram).
            self.metrics.attach(session.datalog)

        self._threads = [
            threading.Thread(target=self._worker_loop,
                             args=(session,),
                             name=f"educe-worker-{i}", daemon=True)
            for i, session in enumerate(self.sessions)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------ submission

    def submit(self, goal: Goal, limit: Optional[int] = None,
               timeout: Optional[float] = None) -> QueryTicket:
        """Enqueue one query; returns its ticket.

        *timeout* is the query's deadline in seconds, measured from
        submission (queue wait counts).  A callable goal runs on the
        worker inside the same read-lock hold as any other goal, so
        ``submit(lambda s: (s.explain(g), list(s.solve(g))))`` gets the
        plan of the very planner state the query ran against.  Raises
        :exc:`ServiceClosed` after shutdown began,
        :exc:`ServiceSaturated` when the bounded queue is full."""
        return self._admit([(goal, limit, timeout)])[0]

    def submit_many(self, goals: Sequence[Goal],
                    limit: Optional[int] = None,
                    timeout: Optional[float] = None) -> List[QueryTicket]:
        """Atomically enqueue a batch: either every goal is admitted
        (in order) or none is and :exc:`ServiceSaturated` is raised."""
        return self._admit([(goal, limit, timeout) for goal in goals])

    def execute(self, goal: Goal, limit: Optional[int] = None,
                timeout: Optional[float] = None) -> object:
        """Submit and block for the result (convenience)."""
        return self.submit(goal, limit=limit, timeout=timeout).result()

    def _admit(self, specs: Iterable[Tuple[Goal, Optional[int],
                                           Optional[float]]]
               ) -> List[QueryTicket]:
        specs = list(specs)
        with self._submit_lock:
            if self._closed:
                self._counts["service_rejected"] += len(specs)
                raise ServiceClosed("service is shutting down")
            # All puts go through this lock, and concurrent gets only
            # free space, so the capacity check cannot over-admit: the
            # maintained depth is decremented *after* a worker's get, so
            # it is always >= qsize() and the put below cannot block.
            with self._gauge_lock:
                free = self._queue_bound - self._depth
            if len(specs) > free:
                self._counts["service_rejected"] += len(specs)
                raise ServiceSaturated(
                    f"queue full ({len(specs)} submitted, {free} free)")
            tickets = []
            now = time.monotonic()
            for goal, limit, timeout in specs:
                deadline = None if timeout is None else now + timeout
                ticket = QueryTicket(next(self._ids), goal, limit,
                                     deadline)
                ticket.trace_id = f"tk-{self._service_id}-{ticket.id}"
                ticket._submitted_perf = time.perf_counter()
                with self._gauge_lock:
                    self._depth += 1
                    if self._depth > self._depth_peak:
                        self._depth_peak = self._depth
                self._queue.put_nowait(ticket)
                tickets.append(ticket)
                if self.events.enabled:
                    self.events.record("ticket.admit", ticket=ticket.id,
                                       trace_id=ticket.trace_id,
                                       goal=_goal_label(ticket.goal))
            self._counts["service_submitted"] += len(tickets)
        return tickets

    # --------------------------------------------------------------- updates

    def _check_mutable(self) -> None:
        reason = self.store.read_only_reason
        if reason is not None:
            raise ReadOnlyService(
                f"this service's store is read-only ({reason}); "
                "send writes to the primary")

    def store_program(self, text: str) -> None:
        """Store a program in the shared EDB (exclusive write lock)."""
        self._check_mutable()
        with self._admin_lock:
            self.admin.store_program(text)

    def store_relation(self, name: str, rows: List[tuple],
                       **kwargs) -> None:
        self._check_mutable()
        with self._admin_lock:
            self.admin.store_relation(name, rows, **kwargs)

    def assert_external(self, clause_text: str) -> None:
        self._check_mutable()
        with self._admin_lock:
            self.admin.assert_external(clause_text)

    def execute_admin(self, goal: Goal,
                      limit: Optional[int] = None) -> object:
        """Run a goal on the admin session — the write path for goals
        that mutate the store, e.g. the materialising relational
        operators (``db_select/3`` and friends, ``db_drop/1``).  On a
        worker those raise :class:`~repro.errors.LockOrderError`
        because the query holds the shared read lock; here the goal
        runs outside any read hold, so its mutators take the exclusive
        write lock normally."""
        self._check_mutable()
        with self._admin_lock:
            if callable(goal):
                return goal(self.admin)
            return list(self.admin.solve(goal, limit=limit))

    # -------------------------------------------------------------- shutdown

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service.

        With ``drain=True`` (default) queued tickets finish first; with
        ``drain=False`` queued tickets are cancelled and only in-flight
        queries run to completion.  *timeout* bounds the total join
        wait; workers still running after it are abandoned (daemon
        threads).

        Idempotent: a second call — including one racing the first from
        another thread — is a no-op that returns once the first
        completes; ``final_telemetry`` is captured exactly once, by the
        call that did the work."""
        with self._shutdown_lock:
            if self._shutdown_complete:
                return
            with self._submit_lock:
                self._closed = True
            if not drain:
                while True:
                    try:
                        ticket = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    with self._gauge_lock:
                        self._depth -= 1
                    self._finish_unqueued(ticket, _CANCELLED)
            self._shutdown = True
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            for thread in self._threads:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                thread.join(remaining)
            # One last look at everything the run produced: counters,
            # histograms, recent tickets, traces, slow queries, the
            # event ring's tail.  Post-mortem surfaces (examples,
            # benchmarks) read this instead of re-sampling a torn-down
            # service.
            self.final_telemetry = self.telemetry()
            self._shutdown_complete = True

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ---------------------------------------------------------- worker side

    def _worker_loop(self, session: EduceStar) -> None:
        while True:
            try:
                ticket = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._shutdown:
                    return
                continue
            with self._gauge_lock:
                self._depth -= 1
            self._run_ticket(session, ticket)

    def _run_ticket(self, session: EduceStar, ticket: QueryTicket) -> None:
        if ticket._cancel.is_set():
            self._finish_unqueued(ticket, _CANCELLED)
            return
        now = time.monotonic()
        if ticket._deadline is not None and now >= ticket._deadline:
            self._finish_unqueued(ticket, _TIMEOUT)
            return

        dequeued = time.perf_counter()
        queue_wait_ms = (dequeued - ticket._submitted_perf) * 1000.0
        ticket.state = _RUNNING
        ticket.worker = threading.current_thread().name
        with self._gauge_lock:
            self._inflight += 1
        machine = session.machine
        cancel = ticket._cancel
        ticket_deadline = ticket._deadline

        def poll(_machine):
            if cancel.is_set():
                raise QueryInterrupted("cancelled")
            if (ticket_deadline is not None
                    and time.monotonic() >= ticket_deadline):
                raise QueryInterrupted("deadline")

        # Per-ticket tracing: the worker owns its session outright, so
        # flipping its tracer on (and stamping the ticket's trace id on
        # it) is private state — every engine span emitted during this
        # query becomes a child of the synthetic ``execute`` span.
        tracer = session.tracer
        trace_this = self.trace_tickets or self.slow_query_ms is not None
        if trace_this:
            tracer.take_roots()   # drop any stale roots from prior use
            tracer.trace_id = ticket.trace_id
            tracer.enabled = True

        machine.poll_hook = poll
        state = _FAILED
        value: object = None
        error: Optional[BaseException] = None
        try:
            # The whole query runs under the shared read lock: a writer
            # can never interleave mid-query, so capturing the epoch
            # here pins the query to one point of the mutation order.
            with self.store.reading():
                ticket.store_epoch = self.store.mutation_epoch
                if callable(ticket.goal):
                    value = ticket.goal(session)
                else:
                    value = list(session.solve(ticket.goal,
                                               limit=ticket.limit))
        except QueryInterrupted as interrupted:
            state = (_TIMEOUT if interrupted.reason == "deadline"
                     else _CANCELLED)
        except BaseException as err:  # noqa: BLE001 - recorded on ticket
            state, error = _FAILED, err
        else:
            state = _DONE
        finally:
            machine.poll_hook = None
            finished = time.perf_counter()
            roots: List[Span] = []
            if trace_this:
                roots = tracer.take_roots()
                tracer.enabled = False
                tracer.trace_id = None
            with self._gauge_lock:
                self._inflight -= 1
            try:
                self._record_terminal(
                    ticket, state, queue_wait_ms,
                    execute_ms=(finished - dequeued) * 1000.0,
                    total_ms=(finished - ticket._submitted_perf) * 1000.0,
                    exec_start=dequeued, roots=roots, traced=trace_this)
            finally:
                # Telemetry strictly before _finish: a consumer woken
                # by result() must find the terminal event, counter and
                # histogram observation already in telemetry().
                ticket._finish(state, value=value, error=error)

    # ------------------------------------------------------------- telemetry

    def _finish_unqueued(self, ticket: QueryTicket, state: str) -> None:
        """Terminal path for tickets that never execute — cancelled or
        expired while queued, or dropped by ``shutdown(drain=False)``.
        They still get a terminal event, a trace (queue wait only) and
        histogram observations, so no admitted ticket ever vanishes
        from telemetry."""
        now = time.perf_counter()
        queue_wait_ms = (now - ticket._submitted_perf) * 1000.0
        try:
            self._record_terminal(ticket, state, queue_wait_ms,
                                  execute_ms=None,
                                  total_ms=queue_wait_ms,
                                  exec_start=None, roots=[],
                                  traced=self.trace_tickets)
        finally:
            ticket._finish(state)

    def _record_terminal(self, ticket: QueryTicket, state: str,
                         queue_wait_ms: float,
                         execute_ms: Optional[float],
                         total_ms: float,
                         exec_start: Optional[float],
                         roots: List[Span], traced: bool) -> None:
        ticket.queue_wait_ms = queue_wait_ms
        ticket.execute_ms = execute_ms
        ticket.total_ms = total_ms
        with self._hist_lock:
            self._counts[_TERMINAL_COUNTER[state]] += 1
            self._queue_wait_hist.observe(queue_wait_ms)
            self._ticket_hist.observe(total_ms)

        trace: Optional[Span] = None
        if traced:
            trace = self._build_trace(ticket, state, queue_wait_ms,
                                      execute_ms, total_ms, exec_start,
                                      roots)
            ticket.trace = trace
            if self.trace_tickets:
                self._traces.append(trace)

        slow = (self.slow_query_ms is not None
                and total_ms >= self.slow_query_ms)
        if self.events.enabled:
            self.events.record(
                _TERMINAL_EVENT[state], ticket=ticket.id,
                trace_id=ticket.trace_id, state=state,
                goal=_goal_label(ticket.goal),
                queue_wait_ms=round(queue_wait_ms, 3),
                total_ms=round(total_ms, 3), worker=ticket.worker)
            if slow:
                self.events.record(
                    "query.slow", ticket=ticket.id,
                    trace_id=ticket.trace_id, state=state,
                    goal=_goal_label(ticket.goal),
                    total_ms=round(total_ms, 3),
                    threshold_ms=self.slow_query_ms)
        if slow:
            self._slow.append({
                "ticket": ticket.id, "trace_id": ticket.trace_id,
                "state": state, "goal": _goal_label(ticket.goal),
                "queue_wait_ms": queue_wait_ms,
                "execute_ms": execute_ms, "total_ms": total_ms,
                "trace": trace,
            })
        self._recent.append({
            "ticket": ticket.id, "trace_id": ticket.trace_id,
            "state": state, "goal": _goal_label(ticket.goal),
            "queue_wait_ms": queue_wait_ms, "execute_ms": execute_ms,
            "total_ms": total_ms, "worker": ticket.worker,
            "store_epoch": ticket.store_epoch,
        })

    def _build_trace(self, ticket: QueryTicket, state: str,
                     queue_wait_ms: float, execute_ms: Optional[float],
                     total_ms: float, exec_start: Optional[float],
                     roots: List[Span]) -> Span:
        """One span tree for the whole ticket: ``ticket`` at the root,
        ``queue_wait`` and ``execute`` as children, with the session's
        own query spans nested under ``execute``."""
        root = Span("ticket", next(self._span_seq), None, {
            "trace_id": ticket.trace_id, "ticket": ticket.id,
            "goal": _goal_label(ticket.goal), "state": state,
            "worker": ticket.worker})
        root.start_s = ticket._submitted_perf
        root.wall_s = total_ms / 1000.0
        wait = Span("queue_wait", next(self._span_seq), root.span_id,
                    {"trace_id": ticket.trace_id})
        wait.start_s = ticket._submitted_perf
        wait.wall_s = queue_wait_ms / 1000.0
        root.children.append(wait)
        if exec_start is not None:
            execute = Span("execute", next(self._span_seq), root.span_id,
                           {"trace_id": ticket.trace_id,
                            "worker": ticket.worker})
            execute.start_s = exec_start
            execute.wall_s = (execute_ms or 0.0) / 1000.0
            execute.children.extend(roots)
            root.children.append(execute)
        return root

    def telemetry(self, events: Optional[int] = 200) -> Dict[str, Any]:
        """One aggregate over everything the service observes: merged
        counters + histograms, recent ticket summaries, retained span
        trees, slow-query captures, and the flight recorder's tail."""
        return {
            "counters": self.metrics.snapshot(),
            "gauge_keys": sorted(self.metrics.gauge_keys()),
            "tickets": list(self._recent),
            "traces": list(self._traces),
            "slow_queries": list(self._slow),
            "events": self.events.tail(events),
        }

    # ------------------------------------------------------------- profiling

    def enable_profiling(self, interval: Optional[int] = None) -> None:
        """Install and enable one sampled WAM profiler per worker
        session (per-machine instances — the merged snapshot sums their
        ``profiler_*`` counters without double counting)."""
        for session in self.sessions:
            session.enable_profiling(interval)

    def disable_profiling(self) -> None:
        for session in self.sessions:
            session.disable_profiling()

    def profile_report(self) -> Dict[str, Any]:
        """Merged per-predicate attribution across every worker's
        profiler — same shape as
        :meth:`~repro.obs.profiler.WamProfiler.report`."""
        preds: Dict[str, Dict[str, Any]] = {}
        folded: Dict[str, int] = {}
        profiled = [s for s in self.sessions if s.profiler is not None]
        for session in profiled:
            prof = session.profiler
            for rec in prof.attribution(session.cost_model):
                agg = preds.get(rec["predicate"])
                if agg is None:
                    preds[rec["predicate"]] = dict(rec)
                    continue
                for key, val in rec.items():
                    if key != "predicate":
                        agg[key] += val
            for line in prof.folded():
                stack, _, n = line.rpartition(" ")
                folded[stack] = folded.get(stack, 0) + int(n)
        records = sorted(preds.values(),
                         key=lambda r: (-r["excl_instr"],
                                        -r["incl_instr"], r["predicate"]))
        return {"kind": "wam_profile",
                "interval": (profiled[0].profiler.interval
                             if profiled else None),
                "predicates": records,
                "folded": [f"{stack} {n}"
                           for stack, n in sorted(folded.items())],
                "counters": MetricsRegistry.merge(
                    *(s.profiler.counters() for s in profiled))}

    def exposition(self) -> str:
        """The service's merged snapshot in Prometheus text format."""
        return render_prometheus(self.metrics.snapshot(),
                                 gauge_keys=self.metrics.gauge_keys())

    # -------------------------------------------------------------- counters

    def counters(self) -> dict:
        # The workers' session-local tallies (explain/analyze queries,
        # parsed chars) — not part of the machine/loader/datalog
        # sources attached per worker.
        counters = MetricsRegistry.merge(
            *(session.local_counters() for session in self.sessions))
        counters.update(self._counts)
        with self._gauge_lock:
            counters["service_queue_depth"] = self._depth
            counters["service_queue_depth_peak"] = self._depth_peak
            counters["service_inflight"] = self._inflight
        counters["service_workers"] = sum(
            1 for t in self._threads if t.is_alive())
        return counters

    def histograms(self) -> Dict[str, Histogram]:
        return {"service_queue_wait_ms": self._queue_wait_hist,
                "service_ticket_ms": self._ticket_hist}


_TERMINAL_EVENT = {
    _DONE: "ticket.done",
    _TIMEOUT: "ticket.deadline",
    _CANCELLED: "ticket.cancelled",
    _FAILED: "ticket.failed",
}

_TERMINAL_COUNTER = {
    _DONE: "service_completed",
    _TIMEOUT: "service_timeouts",
    _CANCELLED: "service_cancelled",
    _FAILED: "service_failed",
}


def _goal_label(goal: Goal) -> str:
    """A short, stable label for event/trace attributes."""
    if isinstance(goal, str):
        text = " ".join(goal.split())
        return text if len(text) <= 80 else text[:77] + "..."
    return getattr(goal, "__name__", None) or repr(goal)
