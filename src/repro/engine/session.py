"""EduceStar — the paper's system, assembled.

One session couples:

* a :class:`~repro.wam.machine.Machine` (compiler + emulator + GC),
* an :class:`~repro.edb.store.ExternalStore` (BANG relations, external
  dictionary, compiled clause code),
* a :class:`~repro.edb.loader.DynamicLoader` with a
  :class:`~repro.edb.preunify.PreUnifier`.

The machine's unknown-procedure trap is wired to the loader, so calling
a predicate that lives in the EDB transparently fetches, filters,
resolves and executes its compiled code — the architecture of §3.

Both evaluation strategies of §4 are available and freely mixable:

* **term-oriented** — ordinary Prolog queries through :meth:`solve`;
* **goal-oriented** — :meth:`relation` exposes a stored facts relation
  to the set-at-a-time relational engine (:mod:`repro.relational`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..bang.relation import BangRelation
from ..edb.loader import DynamicLoader, _facts_assignment
from ..edb.preunify import PreUnifier
from ..edb.store import ExternalStore, summarize_arg
from ..obs import MetricsRegistry, Tracer
from ..terms import Atom, Struct, Term, deref, indicator_of
from ..wam.compiler import split_clause
from ..wam.machine import Machine, Procedure, Solution
from .stats import CostModel, QueryProfile, measuring


#: the counter deltas ANALYZE copies from the run record onto the plan
#: root's ``actual`` (docs/OBSERVABILITY.md, "The run record")
ANALYZE_COUNTERS = ("instr_count", "data_refs", "edb_fetches",
                    "cache_hits", "pages_read", "datalog_iterations",
                    "datalog_facts_derived", "datalog_magic_facts",
                    "datalog_edb_rows")


class EduceStar:
    """A complete Educe* session."""

    def __init__(self,
                 store: Optional[ExternalStore] = None,
                 preunify_depth: str = "full",
                 datalog: str = "auto"):
        self.machine = Machine()
        self.store = store or ExternalStore()
        self.preunifier = PreUnifier(preunify_depth)
        self.loader = DynamicLoader(self.store, self.preunifier)
        self.machine.unknown_handler = self._edb_trap
        self.cost_model = CostModel()
        self.parsed_chars = 0
        self.explain_queries = 0
        self.analyze_queries = 0
        #: sampled WAM profiler, installed by :meth:`enable_profiling`
        self.profiler = None

        # Observability (repro.obs): one registry over every counter
        # source, one tracer shared by the session's layers; the shared
        # storage stack reports page events to the span open on the
        # calling thread.  Tracing is off by default; :meth:`profile` /
        # :meth:`solve`'s ``profile=True`` enable it for one query.
        self.metrics = MetricsRegistry()
        self.metrics.attach(self)   # counters() + io_counters()
        self.tracer = Tracer()
        self.machine.tracer = self.tracer
        self.loader.tracer = self.tracer
        self.preunifier.tracer = self.tracer
        self.last_profile: Optional[QueryProfile] = None

        # The deterministic record-manager interface (§2.3, §3.2.1).
        from .cursors import CursorTable, install_cursor_builtins
        self.cursors = CursorTable(self.store)
        install_cursor_builtins(self.machine, self.cursors)

        # The strongly typed sub-language (§3.2.3).
        from .types import TypeDeclarations, install_type_builtins
        self.types = TypeDeclarations()
        install_type_builtins(self.machine, self.types)

        # The relational operators of Educe* (§4, [9]).
        from .relops import RelationalOps, install_relop_builtins
        self.relops = RelationalOps(self)
        install_relop_builtins(self.machine, self.relops)

        # Recursive set-at-a-time evaluation (docs/DATALOG.md): solve()
        # consults the strategy planner and routes evaluable recursive
        # goals through the semi-naive bottom-up engine instead of the
        # WAM.
        from ..relational.datalog import DatalogEngine
        self.datalog = DatalogEngine(
            self.store, self.machine.reader, tracer=self.tracer,
            mode=datalog)

    # ------------------------------------------------------------ population

    def consult(self, text: str) -> None:
        """Compile a program into main memory."""
        self.parsed_chars += len(text)
        self.machine.consult(text)

    def store_program(self, text: str) -> None:
        """Compile a program and store it in the EDB as relative code.

        Directives are honoured as :meth:`consult` honours them (``op/3``,
        ``dynamic``, ``:- pred ...``, any goal — run on this session's
        machine once the clauses before it are stored)."""
        self.parsed_chars += len(text)
        self.machine.consult(text, define=self._store_rules,
                             extend=self._extend_rules)

    def _check_heads(self, name: str, arity: int,
                     clauses: List[Term]) -> None:
        if arity and (name, arity) in self.types:
            # Store-time type checking of rule heads (§3.2.3).
            for clause in clauses:
                self.types.check_summaries(
                    name, arity,
                    [summarize_arg(a) for a in split_clause(clause)[0].args])

    def _store_rules(self, name: str, arity: int,
                     clauses: List[Term]) -> None:
        self._check_heads(name, arity, clauses)
        self.store.store_rules(name, arity, clauses, self.machine.ctx)

    def _extend_rules(self, name: str, arity: int,
                      clauses: List[Term]) -> None:
        """A later section's clauses for a procedure the text stored (or
        declared) earlier: appended to the stored procedure."""
        if self.store.lookup(name, arity) is None:
            # Declared only: the declaration left an empty main-memory
            # procedure, which would shadow the one stored now.
            local = self.machine.procedure(name, arity)
            if local is not None and not local.clauses:
                del self.machine.procedures[local.pid]
            self._store_rules(name, arity, clauses)
            return
        self._check_heads(name, arity, clauses)
        for clause in clauses:
            self.store.assert_clause(name, arity, clause, self.machine.ctx)

    def store_relation(self, name: str, rows: List[tuple],
                       types: Optional[List[str]] = None,
                       key_dims: Optional[List[int]] = None) -> None:
        """Store an ordinary relation in the EDB (facts mode).

        ``key_dims`` restricts the clustered index to the named attribute
        positions (default: all attributes).  A prior ``:- pred``
        declaration supplies the attribute formats and every row is
        checked against it (§3.2.3)."""
        if not rows:
            raise ValueError("empty relation")
        arity = len(rows[0])
        if types is None and (name, arity) in self.types:
            types = self.types.storage_types(name, arity)
        if (name, arity) in self.types:
            for row in rows:
                self.types.check_fact_row(name, row)
        self.store.store_facts(name, arity, rows, types, key_dims)

    def assert_external(self, clause_text: str) -> None:
        """Assert a clause into a stored EDB procedure."""
        clause = self.machine.reader.read_term(clause_text)
        head, _ = split_clause(clause)
        arity = head.arity if isinstance(head, Struct) else 0
        self.store.assert_clause(head.name, arity, clause, self.machine.ctx)

    # ----------------------------------------------------------------- query

    def solve(self, goal, limit: Optional[int] = None,
              profile: bool = False) -> Iterator[Solution]:
        """Solve *goal*; yield :class:`Solution` objects.

        With ``profile=True``, tracing is enabled for this query and a
        :class:`~repro.engine.stats.QueryProfile` (span tree + counter
        deltas + simulated-ms breakdown) is stored in
        :attr:`last_profile` once the solution iterator is exhausted or
        closed.  Use :meth:`profile` to run to completion and get the
        profile back directly.
        """
        if isinstance(goal, str):
            self.parsed_chars += len(goal)
        if not profile:
            return self._solve_routed(goal, limit)
        return self._solve_measured(goal, limit, self._run_record(goal),
                                    spans=True)

    def _solve_routed(self, goal,
                      limit: Optional[int]) -> Iterator[Solution]:
        """The dual-strategy dispatch of §4: the Datalog engine answers
        evaluable recursive goals bottom-up; everything else (and every
        goal it declines) runs on the WAM."""
        routed = self.datalog.route(goal, limit=limit)
        if routed is not None:
            return iter(routed)
        return self.machine.solve(goal, limit=limit)

    def _run_record(self, goal) -> QueryProfile:
        return QueryProfile(
            goal=goal if isinstance(goal, str) else str(goal),
            cost_model=self.cost_model, trace_id=self.tracer.trace_id)

    def _solve_measured(self, goal, limit: Optional[int],
                        run: QueryProfile,
                        spans: bool) -> Iterator[Solution]:
        """Run *goal* between two registry snapshots, filling in *run*
        — the one measuring path behind ``solve(profile=True)``,
        :meth:`profile` and :meth:`analyze`.  With *spans* the tracer is
        on for the extent of the run, and once the iterator is exhausted
        or closed the record carries the query's span tree and becomes
        :attr:`last_profile`."""
        tracer = self.tracer
        was_enabled = tracer.enabled
        if spans:
            tracer.enabled = True
        try:
            with measuring(self.metrics, run):
                for solution in self._solve_routed(goal, limit):
                    run.solutions += 1
                    yield solution
        finally:
            if spans:
                roots = tracer.take_roots()
                run.root = roots[-1] if roots else None
                self.last_profile = run
            tracer.enabled = was_enabled

    def profile(self, goal, limit: Optional[int] = None) -> QueryProfile:
        """Run *goal* to completion under tracing; return its profile."""
        for _ in self.solve(goal, limit=limit, profile=True):
            pass
        assert self.last_profile is not None
        return self.last_profile

    # --------------------------------------------------- EXPLAIN / ANALYZE

    def explain(self, goal) -> "ExplainPlan":
        """EXPLAIN *goal* without running it (docs/OBSERVABILITY.md).

        The plan tree names the strategy the planner would pick and why
        (with its cost inputs), the magic-set adornment and evaluable
        strata/rules for a bottom-up goal, or the procedure's compiled
        code shape (switches and choice instructions) for a top-down
        one.  Nothing is evaluated and no EDB pages move beyond the
        planner's own row-count lookups.
        """
        from ..obs.explain import ExplainPlan, PlanNode
        self.explain_queries += 1
        label = goal if isinstance(goal, str) else str(goal)
        root = PlanNode("query", label)
        decision = self.datalog.explain_plan(goal)
        if decision is not None:
            root.attrs["strategy"] = decision.attrs.get("strategy")
            root.attrs["reason"] = decision.attrs.get("reason")
            root.add(decision)
            if decision.attrs.get("strategy") != "bottomup":
                self._explain_procedure(root, goal)
        else:
            root.attrs["strategy"] = "topdown"
            root.attrs["reason"] = ("not a stored rules procedure "
                                    "(WAM top-down)")
            self._explain_procedure(root, goal)
        return ExplainPlan(goal=label, mode="explain", root=root)

    def analyze(self, goal, limit: Optional[int] = None) -> "ExplainPlan":
        """EXPLAIN *goal*, then run it and attach measurements.

        The plan gains ``actual`` entries: answers, wall time, counter
        deltas, the strategy that *executed* (cross-checkable against
        the plan's prediction), and — when the fixpoint engine ran —
        per-pass delta row counts on each stratum/rule node, whose sum
        equals the fixpoint's total derived rows.
        """
        from ..obs.explain import attach_fixpoint
        plan = self.explain(goal)
        plan.mode = "analyze"
        self.analyze_queries += 1
        if isinstance(goal, str):
            self.parsed_chars += len(goal)
        run = self._run_record(goal)
        for _ in self._solve_measured(goal, limit, run, spans=False):
            pass
        executed = "bottomup" if run["datalog_bottomup"] else "topdown"
        actual = plan.root.actual
        actual["executed"] = executed
        actual["answers"] = run.solutions
        actual["wall_ms"] = round(run.wall_s * 1000.0, 3)
        for key in ANALYZE_COUNTERS:
            if run[key]:
                actual[key] = run[key]
        if executed == "bottomup" and self.datalog.last_stats is not None:
            stats = self.datalog.last_stats
            actual["index_reused"] = stats.index_reused
            attach_fixpoint(plan, stats.passes, stats.facts)
        return plan

    def _goal_term(self, goal) -> Optional[Term]:
        """*goal* as a callable term (None: it is not one)."""
        if isinstance(goal, str):
            try:
                goal = self.machine.reader.read_term(goal)
            except Exception:
                return None
        goal = deref(goal)
        return goal if isinstance(goal, (Atom, Struct)) else None

    def _explain_procedure(self, root, goal) -> None:
        """Add the top-down ``procedure`` node: where the goal's
        predicate lives (main memory vs EDB) and the shape of the
        compiled code the WAM would execute, including every block the
        loader currently caches for it (one per call pattern)."""
        from ..obs.explain import PlanNode, code_shape
        term = self._goal_term(goal)
        if term is None:
            root.add(PlanNode("procedure", "?",
                              note="goal shape not a single predicate "
                                   "call"))
            return
        name, arity = indicator_of(term)
        pnode = PlanNode("procedure", f"{name}/{arity}")
        proc = self.machine.procedure(name, arity)
        stored = self.store.lookup(name, arity)
        if proc is not None and proc.kind != "external":
            pnode.attrs["source"] = "main-memory"
            pnode.attrs["kind"] = proc.kind
            pnode.attrs["clauses"] = len(proc.clauses)
            if proc.code:
                pnode.attrs.update(code_shape(proc.code))
        elif stored is not None:
            pnode.attrs["source"] = "edb"
            pnode.attrs["mode"] = stored.mode
            pnode.attrs["version"] = stored.version
            if stored.mode == "facts":
                pnode.attrs["rows"] = len(stored.relation)
                pnode.attrs["key_dims"] = list(stored.relation.key_dims)
                pnode.attrs["key_origin"] = stored.key_origin
                # the leaves the call's bound arguments reach
                pnode.attrs["leaves"] = stored.relation.pages_for(
                    _facts_assignment({i: summarize_arg(arg) for i, arg
                                       in enumerate(term.args)}))
            for key, code in self.loader.cached_blocks(name, arity):
                _n, _a, version, pattern = key
                # The pattern is the pre-unifier's bound-argument
                # summary map; "free" means every argument was unbound.
                label = ",".join(f"{pos}:{summary[0]}"
                                 for pos, summary in pattern) or "free"
                pnode.add(PlanNode(
                    "cached_block", label,
                    version=version,
                    **code_shape(code)))
        elif proc is not None:
            pnode.attrs["source"] = "builtin"
            pnode.attrs["kind"] = proc.kind
        else:
            pnode.attrs["source"] = "undefined"
        root.add(pnode)

    # ------------------------------------------------------------ profiling

    def enable_profiling(self, interval: Optional[int] = None):
        """Install (if needed) and enable the sampled WAM profiler.

        Samples every *interval* executed instructions (default
        :data:`~repro.obs.profiler.DEFAULT_INTERVAL`); attribution
        accumulates across queries until :meth:`disable_profiling` or
        ``profiler.reset()``.  Returns the profiler.
        """
        from ..obs.profiler import DEFAULT_INTERVAL, WamProfiler
        if self.profiler is None:
            self.profiler = WamProfiler(
                interval=interval or DEFAULT_INTERVAL)
            self.profiler.install(self.machine)
        elif interval is not None:
            self.profiler.interval = int(interval)
        self.profiler.enable()
        return self.profiler

    def disable_profiling(self) -> None:
        """Stop sampling; accumulated attribution stays readable."""
        if self.profiler is not None:
            self.profiler.disable()

    def solve_once(self, goal) -> Optional[Solution]:
        """First solution or None, routed exactly like :meth:`solve`."""
        for solution in self.solve(goal, limit=1):
            return solution
        return None

    def count_solutions(self, goal) -> int:
        return sum(1 for _ in self.solve(goal))

    # -------------------------------------------------- relational interface

    def relation(self, name: str, arity: int) -> BangRelation:
        """Goal-oriented access to a stored facts relation (§4)."""
        return self.store.relation_of(name, arity)

    # ------------------------------------------------------------ persistence

    def save(self, path: str) -> None:
        """Persist this session's EDB (see ExternalStore.save)."""
        self.store.save(path)

    @classmethod
    def open(cls, path: str, faults=None, **kwargs) -> "EduceStar":
        """A fresh session over a previously saved EDB.

        Runs crash recovery (WAL replay + page verification); the
        outcome is on ``session.store.recovery``.  ``faults`` optionally
        arms a :class:`~repro.bang.faults.FaultInjector` on the opened
        store's I/O paths (tests).
        """
        store = ExternalStore.open(path, create=False, faults=faults)
        return cls(store=store, **kwargs)

    @classmethod
    def create(cls, path: str, faults=None, **kwargs) -> "EduceStar":
        """A durable file-backed session: pages in ``path``'s sidecar
        file, mutations write-ahead logged, checkpoint on :meth:`save`.
        Opens an existing EDB at *path* if one is already there."""
        store = ExternalStore.open(path, create=True, faults=faults)
        return cls(store=store, **kwargs)

    # ----------------------------------------------------------- EDB wiring

    def _edb_trap(self, machine: Machine, name: str,
                  arity: int) -> Optional[Procedure]:
        """Unknown-procedure hook: route the call to the EDB."""
        if self.store.lookup(name, arity) is None:
            return None

        def fetch(m, proc):
            # Call-time type check (§3.2.3): a bound argument that
            # conflicts with the declaration fails without storage work.
            if (proc.name, proc.arity) in self.types:
                summaries = self.preunifier.summaries_from_registers(
                    m, proc.arity)
                if not self.types.check_call(proc.name, proc.arity,
                                             summaries):
                    return None
            return self.loader.procedure_code(m, proc.name, proc.arity)

        return machine.define_external(name, arity, fetch=fetch)

    # ------------------------------------------------------------- counters

    def local_counters(self) -> dict:
        """Only the counters the session owns itself — what the query
        service folds into its own ``counters()`` next to the
        machine/loader/datalog sources it attaches per worker."""
        return {"parsed_chars": self.parsed_chars,
                "explain_queries": self.explain_queries,
                "analyze_queries": self.analyze_queries}

    def counters(self) -> dict:
        merged = dict(self.machine.counters())
        merged.update(self.loader.counters())
        merged.update(self.datalog.counters())
        merged.update(self.local_counters())
        return merged

    def io_counters(self) -> dict:
        return self.store.io_counters()

    def histograms(self) -> dict:
        """Duration histograms visible to this session: the shared
        store's lock/latch waits, miss stalls, write-backs and WAL
        appends, plus this session's loader-cache latch waits.
        Same-named histograms (the two latches) merge bucket-wise."""
        from ..obs.registry import merge_histogram_maps
        return merge_histogram_maps(self.store.histograms(),
                                    self.loader.histograms(),
                                    self.datalog.histograms())
