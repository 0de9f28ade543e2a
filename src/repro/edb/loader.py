"""The dynamic loader (paper §3.1, component 2).

"This loader, at run time, resolves associative addresses, adds
procedural and other forms of control code to the clausal code stored in
the EDB.  This makes the retrieved code runnable in Educe's virtual
machine."

Given a call to an EDB-stored procedure, the loader:

1. asks the pre-unifier for the typed summaries of the bound argument
   registers and lets the BANG grid filter the per-procedure relation
   (attribute-level pre-unification);
2. fetches the surviving clauses' relative code in one clustered read;
3. resolves external identifiers to internal dictionary identifiers
   (:func:`repro.edb.codec.decode_code`) — interning functors this
   session has not seen;
4. splices in control code — try/retry/trust chains and, when more than
   one clause comes back, in-memory first-argument indexing — via
   :func:`repro.wam.indexing.build_procedure_code`, whose block the
   emulator binds at its first call;
5. while the procedure's stored version stands, decodes and gates each
   clause once and builds the block once per clause set the grid
   returns, and caches that block per call pattern — the paper's
   "freeze the definition of the procedure" without the poor
   selectivity it complains about;
6. on every call with two or more candidates, loaded or cached, runs
   their head prefixes (:class:`~repro.edb.preunify.PreUnifier`); when
   one fails, the call gets a block built from the survivors for it
   alone.  Success is "necessary but not sufficient" (§4) and turns on
   nested values and aliased variables no key holds, so only the
   grid's answer is cached.

Facts relations are loaded by generating unit-clause code directly from
the matching tuples, with no compiler involvement.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.verifier import verify_code
from ..errors import CatalogError, VerifyError
from ..locks import Latch
from ..obs.registry import Histogram
from ..obs.tracing import NULL_TRACER, event
from ..wam import instructions as I
from ..wam.block import Block
from ..wam.compiler import CompiledClause
from ..wam.indexing import build_procedure_code
from .codec import decode_code
from .preunify import PreUnifier
from .store import ExternalStore, StoredClause

class DynamicLoader:
    """Per-session loader over one :class:`ExternalStore`."""

    def __init__(self, store: ExternalStore,
                 preunifier: Optional[PreUnifier] = None):
        self.store = store
        self.preunifier = preunifier or PreUnifier("full")
        self.tracer = NULL_TRACER  # session installs its shared tracer
        # (name, arity) → (version, {pattern: (clauses, block)}, built):
        # the rule clauses the grid answers (none for facts) and the
        # block over them all; *built* maps a verified clause id to its
        # compiled clause and a clause-id tuple to its (clauses, block).
        # The cache *follows* the store: a call that
        # finds the procedure's blocks under an older version drops
        # them before loading, so no writer ever has to tell a session
        # about a write, and a session holds at most the blocks of its
        # live call patterns.  Versions are monotone per indicator even
        # across drop+recreate (the store keeps a version floor), so a
        # stamp never aliases old code with new.  Nothing else can
        # change a cached entry: the pre-unifier's execution filter
        # runs after the cache, per call.
        # Latched: metric scrapes and explicit invalidate() calls may
        # come from another thread than the one querying.
        self._cache: Dict[Tuple[str, int],
                          Tuple[int, Dict[tuple, tuple], dict]] = {}
        self._latch = Latch("loader")
        self.loads = 0
        self.cache_hits = 0
        self.clauses_fetched = 0
        self.clauses_delivered = 0
        self.resolutions = 0  # external->internal address resolutions
        #: monotone: bumped every time blocks are dropped — a stamp
        #: change noticed at lookup, or an :meth:`invalidate` call
        self.cache_epoch = 0
        self.cache_invalidated_entries = 0
        #: clause records put through the verifier / rejected by it
        self.verify_checks = 0
        self.verify_rejects = 0
        self._verify_hist = Histogram()

    # ------------------------------------------------------------------ API

    def procedure_code(self, machine, name: str, arity: int
                       ) -> Optional[list]:
        """Runnable code block for the current call, or None when no
        stored clause can match."""
        proc = self.store.lookup(name, arity)
        if proc is None:
            if (name, arity) in self._cache:
                self.invalidate(name, arity)   # dropped from the store
            return None
        summaries = self.preunifier.summaries_from_registers(machine, arity)
        # summaries come in register order: no sort needed for a key
        pattern = tuple(summaries.items())
        stamp = proc.version
        with self._latch:
            entry = self._cache.get((name, arity))
            if entry is not None and entry[0] != stamp:
                self._drop(name, arity)
                entry = None
            cached = entry[1].get(pattern) if entry is not None else None
            if cached is not None:
                self.cache_hits += 1
        loaded = cached is None
        if not loaded:
            if self.tracer.enabled:
                event("loader.cache_hit", procedure=f"{name}/{arity}")
        elif proc.mode == "source":
            # The Educe baseline's scheme: that engine fetches and
            # interprets the text by itself.
            raise CatalogError(
                f"{name}/{arity} is stored as source text: only "
                "EduceBaseline runs it, the loader serves compiled code")
        else:
            self.loads += 1
            with self.tracer.span("loader.fetch",
                                  procedure=f"{name}/{arity}",
                                  mode=proc.mode) as span:
                if proc.mode == "facts":
                    cached = ((), self._load_facts(machine, name, arity,
                                                   summaries))
                else:
                    cached = self._load_rules(machine, name, arity,
                                              summaries, stamp)
                if span is not None:
                    span.attrs["bound_args"] = sorted(summaries)
            with self._latch:
                self._entry(name, arity, stamp)[1][pattern] = cached

        clauses, block = cached
        survivors = clauses
        if len(clauses) > 1:
            kept = self.preunifier.filter_by_execution(
                machine, [c.code for c in clauses])
            if len(kept) < len(clauses):
                survivors = [clauses[i] for i in kept]
                block = self._build(machine, survivors)
        # Counted where a block is built for this call (fact rows by
        # _load_facts: their entries hold no clauses to filter).
        if loaded or survivors is not clauses:
            self.clauses_delivered += len(survivors)
        return block

    def _entry(self, name: str, arity: int, stamp: int) -> tuple:
        """The procedure's entry at *stamp*, replaced by an empty one
        when absent or stale; latch held by the caller."""
        entry = self._cache.get((name, arity))
        if entry is None or entry[0] != stamp:
            entry = self._cache[(name, arity)] = (stamp, {}, {})
        return entry

    def _drop(self, name: Optional[str], arity: Optional[int]) -> int:
        """Drop one procedure's blocks (or all, with no name); latch
        held by the caller."""
        if name is None:
            dropped = sum(len(entry[1]) for entry in self._cache.values())
            self._cache.clear()
        else:
            _, blocks, _ = self._cache.pop((name, arity), (None, (), None))
            dropped = len(blocks)
        self.cache_epoch += 1
        self.cache_invalidated_entries += dropped
        return dropped

    def invalidate(self, name: Optional[str] = None,
                   arity: Optional[int] = None) -> int:
        """Drop cached blocks now; returns how many went.

        With a procedure indicator, only that procedure's blocks go;
        with no arguments, the whole cache — the explicit cold start
        (benchmarks' first-run measurements, the REPL).  Correctness
        never needs this: a lookup drops blocks whose stamp no longer
        matches the store by itself.  Each call bumps the monotone
        ``cache_epoch``.
        """
        with self._latch:
            return self._drop(name, arity)

    def cached_blocks(self, name: str, arity: int) -> list:
        """Snapshot of this procedure's live cache entries, for EXPLAIN.

        Returns ``[(key, code), ...]`` pairs where *key* is ``(name,
        arity, version, pattern)``.
        Read-only: no counters move and the cache is not touched beyond
        holding the latch for a consistent copy.
        """
        with self._latch:
            entry = self._cache.get((name, arity))
            if entry is None:
                return []
            version, blocks, _ = entry
            return [((name, arity, version, pattern), code)
                    for pattern, (_, code) in blocks.items()]

    # ------------------------------------------------------------ rules path

    def _load_rules(self, machine, name: str, arity: int,
                    summaries: Dict[int, tuple], stamp: int) -> tuple:
        """(candidates as compiled clauses, the block over all of them);
        only clauses not yet verified at *stamp* are decoded and gated."""
        clauses = self.store.fetch_clauses(name, arity, summaries)
        self.clauses_fetched += len(clauses)
        with self._latch:
            entry = self._cache.get((name, arity))
        built = entry[2] if entry is not None and entry[0] == stamp else {}
        ids = tuple(sc.clause_id for sc in clauses)
        if ids in built:
            return built[ids]
        fresh = [sc for sc in clauses if sc.clause_id not in built]
        new = {}
        if fresh:
            faults = self.store.faults
            with self.tracer.span("codec.resolve",
                                  clauses=len(fresh)) as span:
                resolved = sum(_count_refs(sc.relative_code) for sc in fresh)
                decoded = [faults.clause_record(decode_code(
                    sc.relative_code, machine.dictionary,
                    self.store.external_dict)) for sc in fresh]
                self.resolutions += resolved
                if span is not None:
                    span.attrs["resolutions"] = resolved
            # Retrieved code is verified *before* anything executes it —
            # the pre-unifier's execution filter runs head prefixes, so
            # the gate sits here, between decode and filtering.
            self._verify_clauses(machine, name, arity, fresh, decoded)
            new = {sc.clause_id: self._as_compiled(machine, sc, code)
                   for sc, code in zip(fresh, decoded)}
        compiled = tuple(new[cid] if cid in new else built[cid]
                         for cid in ids)
        result = compiled, self._build(machine, compiled)
        with self._latch:
            built = self._entry(name, arity, stamp)[2]
            built.update(new)
            built[ids] = result
        return result

    @staticmethod
    def _build(machine, compiled: Sequence[CompiledClause]) -> list:
        """Splice control code around stored rules, indexed the way the
        machine indexes its own procedures."""
        return build_procedure_code(compiled, index=machine.index_enabled)

    def _verify_clauses(self, machine, name: str, arity: int,
                        clauses: List[StoredClause],
                        decoded: List[list]) -> None:
        """Gate every decoded clause record behind the structural
        verifier; a rejected record raises :class:`VerifyError` (typed,
        with rule id and offset) and the whole load is quarantined — the
        block is never cached and never executed."""
        started = perf_counter()
        try:
            for sc, code in zip(clauses, decoded):
                self.verify_checks += 1
                try:
                    verify_code(code, arity=arity,
                                dictionary=machine.dictionary,
                                level="structural",
                                procedure=f"{name}/{arity}")
                except VerifyError as exc:
                    self._reject(name, arity, sc, exc)
                    raise
        finally:
            self._verify_hist.observe(
                (perf_counter() - started) * 1000.0)

    def _reject(self, name: str, arity: int, sc: StoredClause,
                exc: VerifyError) -> None:
        self.verify_rejects += 1
        events = self.store.events
        if events.enabled:
            events.record("verify.reject",
                          procedure=f"{name}/{arity}",
                          clause_id=sc.clause_id,
                          rule=exc.rule, offset=exc.offset)

    def _as_compiled(self, machine, sc: StoredClause,
                     code: list) -> CompiledClause:
        kind, key = _index_key(machine, sc.summaries)
        # A Block, so the head prefix the pre-unifier runs on every call
        # with two or more candidates is bound once, at its first run.
        return CompiledClause(
            code=Block(code), head_name="", arity=len(sc.summaries),
            first_arg_kind=kind, first_arg_key=key)

    # ------------------------------------------------------------ facts path

    def _load_facts(self, machine, name: str, arity: int,
                    summaries: Dict[int, tuple]) -> list:
        """Unit-clause code generated straight from matching tuples —
        unification pushed into the storage engine, code grouped for one
        transfer (§3.2.1)."""
        rows = list(self.store.fetch_facts(
            name, arity, _facts_assignment(summaries)))
        self.clauses_fetched += len(rows)
        self.clauses_delivered += len(rows)
        compiled = []
        regs = [("x", i) for i in range(arity)]
        shared: Dict[object, tuple] = {}

        def const_of(value):
            # One operand per atom or integer value in the load, not per
            # occurrence: a cached block holds every row's code.  Floats
            # are never shared — 0.0 and -0.0 are equal keys.
            if type(value) not in (str, int):
                return _value_const(machine, value)
            const = shared.get(value)
            if const is None:
                const = shared[value] = _value_const(machine, value)
            return const

        for row in rows:
            consts = [const_of(value) for value in row]
            code = [(I.GET_CONSTANT, const, reg)
                    for const, reg in zip(consts, regs)]
            code.append((I.PROCEED,))
            kind, key = ("constant", consts[0]) if consts else ("var", None)
            compiled.append(CompiledClause(
                code=code, head_name=name, arity=arity,
                first_arg_kind=kind, first_arg_key=key))
        return self._build(machine, compiled)

    # ------------------------------------------------------------- counters

    def counters(self) -> dict:
        counters = {
            "loads": self.loads,
            "cache_hits": self.cache_hits,
            "clauses_fetched": self.clauses_fetched,
            "clauses_delivered": self.clauses_delivered,
            "resolutions": self.resolutions,
            "preunify_executions": self.preunifier.executions,
            "preunify_rejections": self.preunifier.rejections,
            "cache_epoch": self.cache_epoch,
            "cache_invalidated_entries": self.cache_invalidated_entries,
            "loader_cache_entries": sum(
                len(entry[1]) for entry in list(self._cache.values())),
            "verify_checks": self.verify_checks,
            "verify_rejects": self.verify_rejects,
        }
        counters.update(self._latch.counters())
        return counters

    def histograms(self) -> dict:
        """Wait-duration histograms (the loader cache latch) plus the
        time spent verifying fetched code (``verify_ms``)."""
        out = dict(self._latch.histograms())
        out["verify_ms"] = self._verify_hist
        return out


def _facts_assignment(summaries: Dict[int, tuple]) -> Dict[int, object]:
    """Summaries → plain values for a facts relation query (atoms are
    stored as their names, numbers as themselves)."""
    out: Dict[int, object] = {}
    for pos, summary in summaries.items():
        if summary[0] in ("atom", "int", "real"):
            out[pos] = summary[1]
        # list/struct summaries cannot appear in atomic facts relations;
        # the call will simply fail during head unification.
    return out


def _value_const(machine, value) -> tuple:
    if isinstance(value, str):
        return ("atom", machine.dictionary.intern(value, 0))
    if isinstance(value, float):
        return ("flt", value)
    return ("int", value)


def _summary_key(machine, s: tuple) -> Tuple[str, Optional[tuple]]:
    """Index metadata of one stored head-argument summary."""
    kind = s[0]
    if kind == "var":
        return ("var", None)
    if kind == "atom":
        if s[1] == "[]":
            return ("nil", ("atom", machine.dictionary.intern("[]", 0)))
        return ("constant", ("atom", machine.dictionary.intern(s[1], 0)))
    if kind == "int":
        return ("constant", ("int", s[1]))
    if kind == "real":
        return ("constant", ("flt", s[1]))
    if kind == "list":
        return ("list", None)
    return ("structure",
            ("fun", machine.dictionary.intern(s[1], s[2])))


def _index_key(machine, summaries: Tuple[tuple, ...]
               ) -> Tuple[str, Optional[tuple]]:
    """First-argument index metadata from stored summaries."""
    if not summaries:
        return ("var", None)
    return _summary_key(machine, summaries[0])


def _count_refs(code: list) -> int:
    count = 0
    for instr in code:
        for operand in instr[1:]:
            if isinstance(operand, tuple) and operand and operand[0] == "ext":
                count += 1
            elif (isinstance(operand, tuple) and len(operand) == 2
                  and operand[0] == "atom"
                  and isinstance(operand[1], tuple)):
                count += 1
    return count
