"""The EDB procedure store (paper §4).

Implements the four structures of §4:

1. **Procedures table** — every external procedure has an entry in an
   in-memory map that the checkpoint persists;
2. **External dictionary** — see :mod:`repro.edb.external_dict`;
3. **Per-procedure relation** — one BANG relation per stored procedure,
   one tuple per clause: a ``term`` attribute per head argument (typed,
   indexable on type and value), plus ``clause_id`` and the boolean
   ``code`` attribute;
4. **Clauses relation** — ``(procedure_id, clause_id, relative_code)``;
   the code attribute holds compiled WAM code with external-dictionary
   references.

"Ordinary" relations (conventional DBMS data) are the special case where
``code`` is false and only atomic formats are allowed — stored here in
*facts mode*, giving the relational engine direct set-at-a-time access
while the inference engine sees them as procedures.

Durability (docs/DURABILITY.md)
-------------------------------

The paper's central asset is compiled code *persisted across sessions*
(§3.1) — relative addresses exist precisely so a different session can
reopen the database — so persistence here is crash-safe, not a bare
``pickle.dump``:

* **Checkpoints** (:meth:`ExternalStore.save`) are atomic: the store is
  serialised behind a versioned, checksummed header, written to a temp
  file, fsynced, and renamed over the target.  A reader sees either the
  old checkpoint or the new one, never a torn hybrid, and
  :meth:`ExternalStore.load` rejects damaged files with a
  :class:`~repro.errors.CatalogError` that names the path and the exact
  failure (magic / version / truncation / CRC).
* **Write-ahead log**: once a store has a durable home, every mutating
  operation appends a logical redo record (already-compiled payloads —
  no recompilation at recovery) to ``<path>.wal`` before returning.
  Records are tagged with the checkpoint *era* so a crash between
  checkpoint rename and log reset can never double-apply old records.
* **Recovery** (:meth:`ExternalStore.open`) loads the checkpoint,
  sweeps the pages for corruption (quarantining bad pages instead of
  returning garbage), replays the committed current-era log records,
  truncates any torn log tail, and reports everything in a
  :class:`~repro.edb.recovery.RecoveryReport` (``store.recovery``).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bang.catalog import AttributeSpec, Catalog, RelationSchema
from ..bang.faults import NULL_FAULTS, FaultInjector
from ..bang.pager import FileDiskStore, Pager
from ..bang.relation import BangRelation
from ..bang.wal import WriteAheadLog
from ..errors import (CatalogError, ExistenceError, ReadOnlyStore,
                      ReproError, TypeError_,
                      WalError)
from ..lang.program import bindable_args
from ..locks import ReadWriteLock
from ..obs.events import EventRing
from ..obs.registry import Histogram, merge_histogram_maps
from ..relational.datalog.rules import DatalogRulebase
from ..terms import Atom, Struct, Term, Var, deref
from ..wam.compiler import (ClauseCompiler, CompileContext, is_aux_name,
                            split_clause)
from .codec import encode_code, measure_code
from .external_dict import ExternalDictionary
from .recovery import RecoveryReport

# Checkpoint file header:
#   magic "EDB*" | format version u16 | flags u16 | payload length u64 |
#   payload crc32 u32 | pickled ExternalStore
CHECKPOINT_MAGIC = b"EDB*"
CHECKPOINT_VERSION = 5
_CKPT_HEADER = struct.Struct(">4sHHQI")
DERIVED = "derived from stored calls"


def _pages_path(checkpoint_path: str, epoch: int) -> str:
    """Sidecar pages file for a checkpoint (relocates with it)."""
    return f"{checkpoint_path}.pages.{epoch:08d}"


def _fsync_dir(path: str) -> None:
    """fsync the directory so a rename survives power loss (POSIX)."""
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:
        return  # platform without directory fsync
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def summarize_arg(term: Term) -> tuple:
    """Head-argument summary stored in the per-procedure relation."""
    term = deref(term)
    if isinstance(term, Var):
        return ("var",)
    if isinstance(term, Atom):
        return ("atom", term.name)
    if isinstance(term, bool):
        raise TypeError_("term", term)
    if isinstance(term, int):
        return ("int", term)
    if isinstance(term, float):
        return ("real", term)
    assert isinstance(term, Struct)
    if term.indicator == (".", 2):
        return ("list",)
    return ("struct", term.name, term.arity)


@dataclass
class StoredClause:
    """One clause as fetched from the EDB."""

    clause_id: int
    relative_code: list
    summaries: Tuple[tuple, ...]
    has_body: bool
    source: str = ""  # source text, kept only in source mode (Educe)


@dataclass
class StoredProcedure:
    """Procedures-table entry."""

    name: str
    arity: int
    mode: str             # 'rules' | 'facts' | 'source'
    relation: BangRelation
    nclauses: int = 0
    version: int = 0      # bumped on update; loader caches follow it
    #: ``declared`` (never re-clustered), ``default`` (every attribute)
    #: or ``derived from stored calls``: where the key dims come from
    key_origin: str = "declared"

    @property
    def key(self) -> str:
        return f"{self.name}/{self.arity}"


class ExternalStore:
    """One External Data Base: catalog + dictionaries + procedure store."""

    def __init__(self, pager: Optional[Pager] = None,
                 bucket_capacity: int = 50):
        self.pager = pager or Pager()
        self.catalog = Catalog(self.pager, bucket_capacity)
        self.external_dict = ExternalDictionary(self.catalog)
        self._procs: Dict[Tuple[str, int], StoredProcedure] = {}
        #: (name, arity) → smallest version a re-created procedure may
        #: use.  Written on every drop, so versions stay monotone per
        #: indicator across drop+recreate cycles and a loader cache
        #: stamp (which carries the version) can never alias old code
        #: with new.
        self._version_floor: Dict[Tuple[str, int], int] = {}
        self.clauses_relation = self.catalog.create(RelationSchema(
            "$clauses",
            [
                AttributeSpec("procedure_id", "atom"),
                AttributeSpec("clause_id", "int"),
                AttributeSpec("payload", "term"),
            ],
            key_dims=[0, 1],
        ))
        self.code_bytes_stored = 0
        self.source_bytes_stored = 0
        #: callee → the positions stored clauses can bind (only grows);
        #: facts stored without ``key_dims`` are keyed on them
        self.bindable: Dict[Tuple[str, int], set] = {}
        #: facts relations rebuilt on new key dims (session-scoped)
        self.edb_reclusters = 0

        # --- concurrency state (docs/CONCURRENCY.md) ---------------------
        #: updates serialize against in-flight queries: every mutator
        #: runs under :meth:`writing`, service workers run each query
        #: under :meth:`reading`
        self._rw = ReadWriteLock("store")
        #: epoch of the last applied record (:meth:`apply`): moves once
        #: per top-level mutation, *before* the write lock is released —
        #: a reader observing epoch E sees exactly the first E
        #: mutations, which is what the differential concurrency suite
        #: linearizes against.  Identical on the primary, after crash
        #: recovery and on every follower that applied the same records.
        self.mutation_epoch = 0

        # --- durability state (docs/DURABILITY.md) -----------------------
        #: checkpoint path this store is homed at (None: in-memory only)
        self._home: Optional[str] = None
        #: live write-ahead log (attached on save/open)
        self.wal: Optional[WriteAheadLog] = None
        #: checkpoint era: bumped by every save; WAL records carry the
        #: era they were logged under, so recovery can never replay
        #: records that predate the checkpoint it loaded
        self.wal_era = 0
        self.faults: FaultInjector = NULL_FAULTS
        #: set when a WAL append failed after its in-memory mutation was
        #: applied: the live state is ahead of the log, so further
        #: mutations are refused until a checkpoint re-establishes
        #: durability (see :meth:`_check_writable`)
        self._poisoned: Optional[str] = None
        #: RecoveryReport from the ExternalStore.open that produced this
        #: store (None for fresh in-memory stores)
        self.recovery: Optional[RecoveryReport] = None
        #: mutation epoch the loaded checkpoint was taken at (stamped by
        #: ``__getstate__``): a replica bootstrapped from a checkpoint
        #: starts its applied-epoch tracking here
        self.checkpoint_epoch = 0
        #: replication fence: set on follower stores so every local
        #: mutator raises :class:`~repro.errors.ReadOnlyStore`; the
        #: replication apply path and :meth:`promote` bypass it
        self.read_only_reason: Optional[str] = None
        # cumulative durability counters (merged into io_counters)
        self.wal_records_appended = 0
        self.wal_bytes_appended = 0
        self.wal_records_replayed = 0
        self.wal_records_skipped = 0
        self.checkpoints_written = 0
        self.checkpoint_bytes_written = 0

        # --- flight recorder (docs/OBSERVABILITY.md) ---------------------
        #: the store-wide event ring: buffer evictions, WAL poisoning,
        #: recovery; the query service records ticket lifecycle events
        #: into the same ring, so one tail tells the whole story
        self.events = EventRing()
        self.pager.events = self.events

        # --- datalog rulebase (docs/DATALOG.md) --------------------------
        #: surface clauses of rules procedures, kept for the bottom-up
        #: evaluator.  Changed only by applied records and persisted by
        #: the checkpoint, so a reopened store or a follower answers a
        #: goal the way the store that wrote it did.
        self.datalog_rules = DatalogRulebase()

    # The WAL handle, fault plan and recovery report belong to the live
    # session, not the persisted image.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["wal"] = None
        state["faults"] = None
        state["recovery"] = None
        state["_home"] = None
        # The event ring holds locks and transient history.
        state["events"] = None
        # Locks are runtime (session) state.  The mutation epoch is
        # NOT: it must stay monotone across restarts so that WAL
        # record epochs from different primary processes remain
        # comparable (replica lag is denominated in epochs).
        state["_rw"] = None
        state["mutation_epoch"] = self.mutation_epoch
        # A checkpoint only ever persists consistent state (save()
        # captures the full in-memory image), so the poison flag never
        # travels into the image.
        state["_poisoned"] = None
        # Where in the mutation sequence this image was taken: replicas
        # bootstrapping from the checkpoint resume epoch tracking here.
        state["checkpoint_epoch"] = self.mutation_epoch
        # The replication fence is session state (a promoted replica's
        # checkpoint must not re-freeze the store it reloads into).
        state["read_only_reason"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.faults = NULL_FAULTS
        self._rw = ReadWriteLock("store")
        self.events = EventRing()
        self.pager.events = self.events
        # Durability counters are session-scoped, like tracer spans: a
        # freshly loaded store reports work *it* did, not history baked
        # into the checkpoint it came from.
        for key in ("wal_records_appended", "wal_bytes_appended",
                    "wal_records_replayed", "wal_records_skipped",
                    "checkpoints_written", "checkpoint_bytes_written",
                    "edb_reclusters"):
            setattr(self, key, 0)

    # ---------------------------------------------------------- concurrency

    @contextmanager
    def reading(self):
        """Shared-mode access: queries run inside this so updates
        serialize against them.  Reentrant — every read entry point of
        the store takes it, and a service worker additionally wraps the
        whole query execution."""
        self._rw.acquire_read()
        try:
            yield self
        finally:
            self._rw.release_read()

    @contextmanager
    def writing(self):
        """Exclusive-mode access for mutators, the checkpoint and the
        admission of shipped records.  Reentrant (recovery holds it
        around its whole replay loop).  The mutation epoch is not this
        section's business: it comes from the record being applied
        (:meth:`apply`), still before the lock is released, so a
        subsequent reader's observed epoch counts exactly the mutations
        it can see."""
        self._rw.acquire_write()
        try:
            yield self
        finally:
            self._rw.release_write()

    # ------------------------------------------------------------- metadata

    def lookup(self, name: str, arity: int) -> Optional[StoredProcedure]:
        with self.reading():
            return self._procs.get((name, arity))

    def get(self, name: str, arity: int) -> StoredProcedure:
        proc = self.lookup(name, arity)
        if proc is None:
            raise ExistenceError("external procedure", f"{name}/{arity}")
        return proc

    def procedures(self) -> List[StoredProcedure]:
        with self.reading():
            return list(self._procs.values())

    def _register(self, proc: StoredProcedure) -> None:
        if (proc.name, proc.arity) in self._procs:
            raise CatalogError(f"{proc.key} already stored")
        floor = self._version_floor.get((proc.name, proc.arity))
        if floor is not None and proc.version < floor:
            proc.version = floor
        self._procs[(proc.name, proc.arity)] = proc

    def _proc_relation_schema(self, name: str, arity: int) -> RelationSchema:
        attrs = [AttributeSpec(f"arg{i + 1}", "term") for i in range(arity)]
        attrs.append(AttributeSpec("clause_id", "int"))
        attrs.append(AttributeSpec("code", "int"))  # boolean flag
        key_dims = list(range(arity)) if arity else [arity]  # clause_id key
        return RelationSchema(f"$p${name}/{arity}", attrs, key_dims=key_dims)

    # ------------------------------------------------------- rules (compiled)

    def store_rules(self, name: str, arity: int, clauses: Sequence[Term],
                    context: CompileContext) -> StoredProcedure:
        """Compile *clauses* and store them as relative code (§3.1).

        Auxiliary procedures synthesised for control constructs are
        stored in the same mutation (one record each, one shared
        epoch), so the EDB is self-contained.
        """
        with self.writing():
            self._check_writable()
            self._commit(*self._rules_records(name, arity, clauses, context))
            return self._procs[(name, arity)]

    def _rules_records(self, name: str, arity: int, clauses: Sequence[Term],
                       context: CompileContext) -> List[dict]:
        """The ``rules`` record of one procedure followed, depth-first,
        by those of its auxiliary procedures."""
        aux_sink: List[Tuple[str, int, list]] = []
        compiler = self._compiler(context, aux_sink)
        payloads = [self._rule_payload(compiler, clause, context)
                    for clause in clauses]
        # The surface clauses ride the record so that applying it —
        # live, at recovery or on a follower — tracks the procedure in
        # the Datalog rulebase (which the checkpoint then persists).
        record = {"op": "rules", "name": name, "arity": arity,
                  "clauses": payloads, "surface": list(clauses)}
        self._add_ext_functors(record, payloads)
        return [record] + self._aux_records(aux_sink, context)

    def _compiler(self, context: CompileContext,
                  aux_sink: List[Tuple[str, int, list]]) -> ClauseCompiler:
        """A compiler whose aux procedures go to *aux_sink*, named clear
        of every procedure this store holds."""
        return ClauseCompiler(CompileContext(
            context.dictionary,
            define_procedure=lambda n, a, c: aux_sink.append((n, a, c)),
            taken=lambda n, a: (n, a) in self._procs))

    def _aux_records(self, aux_sink: List[Tuple[str, int, list]],
                     context: CompileContext) -> List[dict]:
        return [r for name, arity, clauses in aux_sink
                for r in self._rules_records(name, arity, clauses, context)]

    def _rule_payload(self, compiler: ClauseCompiler, clause: Term,
                      context: CompileContext) -> dict:
        """One clause compiled to its stored form (already-compiled
        payloads ride the redo record — recovery never recompiles)."""
        compiled = compiler.compile_clause(clause)
        head, body = split_clause(clause)
        head_args = head.args if isinstance(head, Struct) else ()
        return {
            "code": encode_code(compiled.code, context.dictionary,
                                self.external_dict),
            "summaries": tuple(summarize_arg(a) for a in head_args),
            "has_body": bool(body),
        }

    def _apply_rules(self, record: dict) -> None:
        name, arity = record["name"], record["arity"]
        relation = self.catalog.create(self._proc_relation_schema(name, arity))
        proc = StoredProcedure(name, arity, "rules", relation)
        self._register(proc)
        for payload in record["clauses"]:
            self._insert_rule_clause(proc, proc.nclauses, payload)
        self.datalog_rules.set((name, arity), enumerate(record["surface"]))
        # An aux head passes on singletons too; its owner's clause holds
        # the same calls, and iter_goals reaches them.
        if not is_aux_name(name):
            self._note_calls(record["surface"])

    def _note_calls(self, clauses: Sequence[Term]) -> None:
        """Widen :attr:`bindable` by the call sites of *clauses* and
        re-cluster each facts relation whose key dims change."""
        for ind, positions in bindable_args(clauses).items():
            known = self.bindable.setdefault(ind, set())
            if positions <= known:
                continue
            known |= positions
            proc = self._procs.get(ind)
            # Declared dims (and rules) stay; a new order of the same
            # set is no reason to rebuild (EXPERIMENTS E22).
            if (proc is None or proc.key_origin == "declared"
                    or known == set(proc.relation.key_dims)):
                continue
            rows = [row for batch in proc.relation.scan() for row in batch]
            dims, proc.key_origin = self._layout(ind, rows)
            dims = dims or list(range(ind[1]))
            self.events.record("store.recluster", relation=proc.key,
                               old=proc.relation.key_dims, new=dims,
                               rows=len(rows))
            proc.relation.recluster(dims, rows)
            proc.version += 1
            self.edb_reclusters += 1

    def _layout(self, ind: Tuple[str, int], rows: Sequence[tuple]
                ) -> Tuple[Optional[List[int]], str]:
        """Key dims and origin of a facts relation stored without
        ``key_dims``: its bindable positions, most distinct values
        first, ties by position — or, when none or all are bindable,
        ``None`` (every attribute in position order) and ``default``."""
        positions = self.bindable.get(ind, set())
        if not positions or len(positions) == ind[1]:
            return None, "default"
        return sorted(positions, key=lambda pos: (
            -len({row[pos] for row in rows}), pos)), DERIVED

    def _insert_rule_clause(self, proc: StoredProcedure, cid: int,
                            payload: dict) -> None:
        summaries = tuple(payload["summaries"])
        proc.relation.insert(summaries + (cid, 1))
        self.code_bytes_stored += measure_code(payload["code"])
        # The payload rides as a non-key attribute: it is pickled
        # with its page, so code size and transfer are page-accounted.
        self.clauses_relation.insert((proc.key, cid, StoredClause(
            clause_id=cid, relative_code=payload["code"],
            summaries=summaries, has_body=payload["has_body"])))
        proc.nclauses += 1

    def fetch_clauses(self, name: str, arity: int,
                      assignment: Optional[Dict[int, tuple]] = None
                      ) -> List[StoredClause]:
        """Candidate clauses whose head-argument summaries are compatible
        with *assignment* (``{arg_index: summary}``) — the attribute-level
        half of pre-unification, answered by the BANG grid."""
        with self.reading():
            proc = self.get(name, arity)
            assignment = assignment or {}
            if proc.mode == "facts":
                raise CatalogError(f"{proc.key} is a facts relation")
            wanted = {row[arity] for batch
                      in proc.relation.query(dict(assignment))
                      for row in batch}
            # One clustered partial-match fetch for the whole procedure:
            # the deterministic collect-at-once of §3.2.1.
            fetched = [
                row[2] for batch
                in self.clauses_relation.query({0: proc.key})
                for row in batch if row[1] in wanted
            ]
            fetched.sort(key=lambda sc: sc.clause_id)
            return fetched

    # ----------------------------------------------------------- facts mode

    def store_facts(self, name: str, arity: int,
                    rows: Sequence[tuple],
                    types: Optional[Sequence[str]] = None,
                    key_dims: Optional[Sequence[int]] = None
                    ) -> StoredProcedure:
        """Store an ordinary relation (code attribute false, atomic
        formats only).  ``key_dims`` selects the indexed attributes
        (default: all — full partial-match clustering)."""
        return self._store_facts("facts", name, arity, rows, types, key_dims)

    def materialise_facts(self, name: str, arity: int,
                          rows: Sequence[tuple],
                          types: Optional[Sequence[str]] = None,
                          key_dims: Optional[Sequence[int]] = None
                          ) -> StoredProcedure:
        """Replace-or-create a facts relation in **one** exclusive
        section — the relational operators' materialisation path
        (derived relations are replaceable, unlike :meth:`store_facts`
        which refuses to overwrite).  A concurrent reader sees either
        the old relation or the new one, never the gap between drop
        and store; a service worker holding the shared read lock gets
        :class:`~repro.errors.LockOrderError` before anything mutates.
        """
        return self._store_facts("materialise", name, arity, rows, types,
                                 key_dims)

    def _store_facts(self, op: str, name: str, arity: int,
                     rows: Sequence[tuple], types: Optional[Sequence[str]],
                     key_dims: Optional[Sequence[int]]) -> StoredProcedure:
        with self.writing():
            self._check_writable()
            if types is None:
                types = _infer_types(rows, arity)
            self._commit({
                "op": op, "name": name, "arity": arity,
                "rows": [tuple(row) for row in rows], "types": list(types),
                "key_dims": list(key_dims) if key_dims is not None else None})
            return self._procs[(name, arity)]

    def _apply_facts(self, record: dict) -> None:
        name, arity, key_dims = (record["name"], record["arity"],
                                 record["key_dims"])
        attrs = [AttributeSpec(f"arg{i + 1}", t)
                 for i, t in enumerate(record["types"])]
        origin = "declared"
        if key_dims is None:
            key_dims, origin = self._layout((name, arity), record["rows"])
        schema = RelationSchema(f"$p${name}/{arity}", attrs,
                                key_dims=list(key_dims)
                                if key_dims is not None else None)
        relation = self.catalog.create(schema)
        # Only a layout the store derives is laid out by median splits;
        # others keep the tree of their arrival order (EXPERIMENTS E22).
        build = relation.load if origin == DERIVED else relation.insert_many
        try:
            count = build(record["rows"])
        except ReproError:      # a mistyped row: nothing is stored
            relation.grid.free_pages()
            self.catalog.drop(schema.name)
            raise
        self._register(StoredProcedure(name, arity, "facts", relation,
                                       count, key_origin=origin))

    def _apply_materialise(self, record: dict) -> None:
        self._apply_drop(record)
        self._apply_facts(record)

    def fetch_facts(self, name: str, arity: int,
                    assignment: Optional[Dict[int, Any]] = None
                    ) -> List[tuple]:
        """Matching tuples, materialised *inside* the read lock — a lazy
        iterator would keep reading pages after the lock was released,
        racing any concurrent update.  The grid's leaf batches are
        joined whole."""
        with self.reading():
            proc = self.get(name, arity)
            if proc.mode != "facts":
                raise CatalogError(f"{proc.key} is not a facts relation")
            rows: List[tuple] = []
            for batch in (proc.relation.query(dict(assignment))
                          if assignment else proc.relation.scan()):
                rows += batch
            return rows

    def relation_of(self, name: str, arity: int) -> BangRelation:
        """Direct relational-engine access to a facts relation — the
        goal-oriented evaluation path of §4."""
        return self.get(name, arity).relation

    # ---------------------------------------------------------- source mode

    def store_source(self, name: str, arity: int,
                     clauses: Sequence[Term]) -> StoredProcedure:
        """Store rules as *source text* — the Educe predecessor's scheme
        (§2.3), kept as the baseline the paper measures against.  A
        procedure already stored as source gets the clauses appended
        after its own, as a consulted text's later section does."""
        with self.writing():
            self._check_writable()
            stored = self._procs.get((name, arity))
            if stored is not None and stored.mode != "source":
                raise CatalogError(
                    f"{name}/{arity} is stored as {stored.mode}, not source")
            from ..lang.writer import format_clause
            payloads: List[dict] = []
            for clause in clauses:
                head, body = split_clause(clause)
                head_args = head.args if isinstance(head, Struct) else ()
                payloads.append({
                    "source": format_clause(clause),
                    "summaries": tuple(summarize_arg(a) for a in head_args),
                    "has_body": bool(body),
                })
            self._commit({"op": "source", "name": name, "arity": arity,
                          "clauses": payloads})
            return self._procs[(name, arity)]

    def _apply_source(self, record: dict) -> None:
        name, arity = record["name"], record["arity"]
        proc = self._procs.get((name, arity))
        if proc is None:
            relation = self.catalog.create(
                self._proc_relation_schema(name, arity))
            proc = StoredProcedure(name, arity, "source", relation)
            self._register(proc)
            first = 0
        else:
            first = self._next_clause_id(proc)
            proc.version += 1
        for cid, payload in enumerate(record["clauses"], first):
            summaries = tuple(payload["summaries"])
            proc.relation.insert(summaries + (cid, 0))
            self.source_bytes_stored += len(payload["source"])
            self.clauses_relation.insert((proc.key, cid, StoredClause(
                clause_id=cid, relative_code=[],
                summaries=summaries, has_body=payload["has_body"],
                source=payload["source"])))
            proc.nclauses += 1

    # -------------------------------------------------------------- updates

    def assert_clause(self, name: str, arity: int, clause: Term,
                      context: CompileContext) -> None:
        """Append a clause to a stored rules procedure."""
        with self.writing():
            self._check_writable()
            proc = self.get(name, arity)
            if proc.mode == "facts":
                head, _ = split_clause(clause)
                self._commit({"op": "assert_fact", "name": name,
                              "arity": arity, "values": _fact_values(head)})
                return
            aux_sink: List[Tuple[str, int, list]] = []
            payload = self._rule_payload(self._compiler(context, aux_sink),
                                         clause, context)
            record = {"op": "assert_rule", "name": name, "arity": arity,
                      "clause": payload, "surface": clause}
            self._add_ext_functors(record, [payload])
            self._commit(record, *self._aux_records(aux_sink, context))

    def _apply_assert_fact(self, record: dict) -> None:
        proc = self.get(record["name"], record["arity"])
        proc.relation.insert(tuple(record["values"]))
        proc.nclauses += 1
        proc.version += 1

    def _next_clause_id(self, proc: StoredProcedure) -> int:
        """The clause id after every one *proc* holds (retracted ids are
        never reused)."""
        return 1 + max((row[1] for batch in self.clauses_relation.query(
            {0: proc.key}) for row in batch), default=-1)

    def _apply_assert_rule(self, record: dict) -> None:
        proc = self.get(record["name"], record["arity"])
        cid = self._next_clause_id(proc)
        self._insert_rule_clause(proc, cid, record["clause"])
        proc.version += 1
        if proc.mode == "rules":     # source text is never evaluated bottom-up
            self.datalog_rules.add((proc.name, proc.arity), cid,
                                   record["surface"])
        self._note_calls([record["surface"]])

    def retract_clause(self, name: str, arity: int, clause_id: int) -> None:
        """Remove one stored clause; a clause id not stored is an
        :class:`ExistenceError` and commits nothing."""
        with self.writing():
            self._check_writable()
            key = self.get(name, arity).key
            if next(self.clauses_relation.query({0: key, 1: clause_id}),
                    None) is None:
                raise ExistenceError("clause", f"{key}#{clause_id}")
            self._commit({"op": "retract", "name": name, "arity": arity,
                          "clause_id": clause_id})

    def _apply_retract(self, record: dict) -> None:
        proc = self.get(record["name"], record["arity"])
        self.datalog_rules.retract((proc.name, proc.arity),
                                   record["clause_id"])
        proc.relation.delete_where({proc.arity: record["clause_id"]})
        proc.nclauses -= self.clauses_relation.delete_where(
            {0: proc.key, 1: record["clause_id"]})
        proc.version += 1

    def drop_procedure(self, name: str, arity: int) -> bool:
        """Remove a stored procedure entirely (``db_drop/1``).

        Runs under the exclusive write lock like every mutator — a
        service worker calling this from inside a query (shared read
        lock held) gets :class:`~repro.errors.LockOrderError` instead
        of silently mutating under concurrent readers.  Returns False
        when the procedure does not exist (nothing is committed, so
        the epoch does not move)."""
        if self.lookup(name, arity) is None:
            # Fast path — also keeps db_drop of a missing relation a
            # plain failure (not LockOrderError) under a read hold.
            # Re-checked under the write lock before mutating.
            return False
        with self.writing():
            if (name, arity) not in self._procs:
                return False
            self._check_writable()
            self._commit({"op": "drop", "name": name, "arity": arity})
            return True

    def _apply_drop(self, record: dict) -> None:
        name, arity = record["name"], record["arity"]
        proc = self._procs.pop((name, arity), None)
        if proc is None:
            return
        self.datalog_rules.drop((name, arity))
        self.catalog.drop(proc.relation.schema.name)
        # Its pages go with it; a cursor still open on the relation
        # refuses to read on (engine/cursors.py).
        proc.relation.grid.free_pages()
        if proc.mode != "facts":
            self.clauses_relation.delete_where({0: proc.key})
        # A re-created procedure must never reuse a version this one
        # served under: loader caches are stamped with the version.
        self._version_floor[(name, arity)] = proc.version + 1

    # --------------------------------------------- the one write path

    #: op → the function that performs it and the fields it reads
    #: besides ``name`` and ``arity``.  A mutation *is* its redo record:
    #: these are the only code that changes relations, the
    #: procedures/clauses tables, the version floor or the Datalog
    #: rulebase — for live writes, crash recovery and followers alike.
    _APPLIERS = {
        "rules": (_apply_rules, ("clauses", "surface")),
        "source": (_apply_source, ("clauses",)),
        "facts": (_apply_facts, ("rows", "types", "key_dims")),
        "materialise": (_apply_materialise, ("rows", "types", "key_dims")),
        "assert_rule": (_apply_assert_rule, ("clause", "surface")),
        "assert_fact": (_apply_assert_fact, ("values",)),
        "retract": (_apply_retract, ("clause_id",)),
        "drop": (_apply_drop, ()),
    }

    def apply(self, record: dict) -> None:
        """Perform the state change *record* describes and move the
        mutation epoch to the record's.  The caller holds the write
        lock (:meth:`_commit` for live writes, :meth:`admit` for
        recovery and replication)."""
        applier, _fields = self._APPLIERS[record["op"]]
        # Functors the code references, re-interned even when the
        # checkpoint this record replays onto predates them.
        for name, arity in record.get("ext", ()):
            self.external_dict.intern(name, arity)
        applier(self, record)
        self.mutation_epoch = record["epoch"]

    def _commit(self, *records: dict) -> None:
        """The one commit step of every mutator: stamp each record with
        the checkpoint era and the epoch this mutation commits as (the
        records of one mutation share it), apply it, then log it.

        Operations are atomic at record granularity — a crash before
        the append simply loses the whole operation, never half of it.
        """
        epoch = self.mutation_epoch + 1
        for record in records:
            record["era"] = self.wal_era
            record["epoch"] = epoch
            self.apply(record)
            self._log(record)

    def admit(self, payload: bytes) -> Tuple[str, str]:
        """Admit one WAL payload that this store did not write itself —
        crash recovery and followers both feed every shipped record
        through here: decode → era fence → :meth:`apply`.

        Returns ``(verdict, detail)``:

        * ``"applied"`` — current-era record, applied (*detail*: its op);
        * ``"stale"`` — logged before the loaded checkpoint, which
          already contains it; skipped (*detail*: its op);
        * ``"ahead"`` — logged under a *later* era than the loaded
          checkpoint: log and checkpoint diverged (recovery), or a
          newer checkpoint generation exists (follower);
        * ``"undecodable"`` — not a record this store can apply: the
          payload does not unpickle to a record of a known op with
          every field that op reads (checked before anything is
          applied), or applying it raised a typed error.  Nothing
          after it in the stream can be trusted.

        For the last two *detail* says what was wrong; what to do about
        them is the caller's policy (recovery stops replaying, a
        follower re-bootstraps).  Bypasses the read-only fence — that
        fence is for *local* mutators.
        """
        try:
            record = pickle.loads(payload)
        except Exception as exc:
            return "undecodable", (f"undecodable WAL record "
                                   f"({type(exc).__name__}: {exc})")
        if not isinstance(record, dict):
            return "undecodable", (f"WAL payload is a "
                                   f"{type(record).__name__}, not a record")
        era = record.get("era")
        if not isinstance(era, int) or era > self.wal_era:
            return "ahead", (f"WAL record era {era!r} is ahead of "
                             f"checkpoint era {self.wal_era}")
        op = str(record.get("op"))
        if era < self.wal_era:
            self.wal_records_skipped += 1
            return "stale", op
        if (op not in self._APPLIERS
                or not isinstance(record.get("epoch"), int)):
            return "undecodable", (f"WAL record with unknown op {op!r} "
                                   f"or no epoch")
        missing = [f for f in ("name", "arity") + self._APPLIERS[op][1]
                   if f not in record]
        if missing:
            return "undecodable", (f"WAL record {op!r} lacks "
                                   f"{', '.join(missing)}")
        try:
            with self.writing():
                self.apply(record)
        except ReproError as exc:
            return "undecodable", f"replay of {op!r} failed ({exc})"
        self.wal_records_replayed += 1
        return "applied", op

    def _check_writable(self) -> None:
        """Refuse mutations while the live state is ahead of the log.

        Set by :meth:`_log` when a WAL append fails after its in-memory
        mutation was applied: logging further operations on top of
        unlogged state would make recovery replay against a state that
        never existed on disc (e.g. an ``assert_rule`` for a procedure
        whose ``rules`` record was never logged).  A successful
        :meth:`save` — which checkpoints the full in-memory image —
        clears the flag.
        """
        if self.read_only_reason is not None:
            raise ReadOnlyStore(self.read_only_reason)
        if self._poisoned is not None:
            raise WalError(
                "EDB store is read-only: a WAL append failed "
                f"({self._poisoned}) and the in-memory state is ahead "
                "of the log; save() a fresh checkpoint to resume updates")

    def _log(self, record: dict) -> None:
        """Durably append one applied record (no-op without a WAL home).

        If the append *fails* while the session lives on (disc full,
        EIO), the in-memory mutation has no durable redo record, so the
        store is poisoned: subsequent mutations raise
        :class:`~repro.errors.WalError` until a checkpoint
        re-establishes durability.
        """
        if self.wal is None:
            return
        payload = pickle.dumps(record, protocol=4)
        try:
            self.wal.append(payload)
        except BaseException as exc:
            self._poisoned = f"{type(exc).__name__}: {exc}"
            if self.events.enabled:
                self.events.record("wal.poison", op=record.get("op"),
                                   error=self._poisoned)
            raise
        self.wal_records_appended += 1
        self.wal_bytes_appended += len(payload)

    def _add_ext_functors(self, record: dict,
                          payloads: Sequence[dict]) -> None:
        """Attach ``ext`` — (name, arity) of every external-dictionary
        reference in the payloads' relative code — so that applying the
        *logged* record can re-intern them even when the checkpoint
        predates them.  Without a WAL nothing ever reads it."""
        if self.wal is None:
            return
        refs: set = set()
        for payload in payloads:
            _collect_ext_refs(payload["code"], refs)
        record["ext"] = [self.external_dict.resolve(ext_id)
                         for ext_id in sorted(refs)]

    # ----------------------------------------------------------- replication

    def freeze(self, reason: str) -> None:
        """Fence this store read-only (a follower applying a primary's
        WAL stream).  Every local mutator raises
        :class:`~repro.errors.ReadOnlyStore` until :meth:`promote`
        lifts the fence; reads are unaffected."""
        self.read_only_reason = reason

    def promote(self, path: str) -> None:
        """Promote a follower to primary.

        Lifts the read-only fence and checkpoints the full in-memory
        image to *path* — which bumps the checkpoint era and starts a
        fresh WAL generation this store owns.  Stale replicas that
        re-attach to *path* bootstrap from the new-era checkpoint, so
        the old primary's log can never be double-applied here (the
        era fence rejects it).
        """
        self.read_only_reason = None
        self.save(path)

    # ----------------------------------------------------------- persistence

    def save(self, path: str) -> None:
        """Atomically checkpoint the whole EDB to *path*.

        This is what relative addresses buy (§3.1): the stored clause
        code references the external dictionary only, so a *different*
        session — with a fresh internal dictionary whose identifiers
        bear no relation to this one's — can load the file and run the
        code after plain address resolution.

        The checkpoint is crash-safe: serialised behind a versioned,
        checksummed header into ``path + ".tmp"``, fsynced, then renamed
        over *path*.  File-backed stores first compact their pages into
        a fresh epoch sidecar (``path + ".pages.NNNNNNNN"``).  On
        success the store is *homed* at *path*: a fresh WAL generation
        starts and subsequent mutations are logged for replay.

        Runs under the write lock: the checkpoint excludes
        concurrent queries while it compacts pages and reshapes the
        WAL, but is not itself a logical mutation.
        """
        with self.writing():
            self._save_locked(path)

    def _save_locked(self, path: str) -> None:
        self.pager.flush()
        disk = self.pager.disk
        faults = self.faults
        old_pages_path = None
        if isinstance(disk, FileDiskStore):
            old_pages_path = disk.path
            new_epoch = disk.epoch + 1
            disk.compact_to(_pages_path(path, new_epoch), new_epoch)

        # The checkpoint *image* carries the next era, but the live
        # store commits the bump only once os.replace has made that
        # image durable.  If any write up to the rename fails (disc
        # full during the temp-file write), the session keeps logging
        # under the era of the checkpoint actually on disc, so those
        # acknowledged records still replay at recovery instead of
        # being fenced off as stale.
        new_era = self.wal_era + 1
        self.wal_era = new_era
        try:
            payload = pickle.dumps(self, protocol=4)
        finally:
            self.wal_era = new_era - 1
        header = _CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0,
                                   len(payload), zlib.crc32(payload))
        tmp = path + ".tmp"
        with open(tmp, "wb", buffering=0) as f:
            half = len(payload) // 2
            faults.write(f, header)
            faults.write(f, payload[:half])
            faults.crash_point("checkpoint.write.mid")
            faults.write(f, payload[half:])
            os.fsync(f.fileno())
        faults.crash_point("checkpoint.pre_rename")
        os.replace(tmp, path)
        self.wal_era = new_era
        faults.crash_point("checkpoint.post_rename")
        _fsync_dir(os.path.dirname(os.path.abspath(path)))

        # The checkpoint is durable: start a fresh log generation.  (If
        # we crash before the reset, the era tag already fences the old
        # records off — recovery skips them as stale.)
        wal_path = path + ".wal"
        if self.wal is not None and self.wal.path != wal_path:
            self.wal.close()
            self.wal = None
        if self.wal is None:
            self.wal = WriteAheadLog(wal_path, faults=faults)
        self.wal.truncate()
        # Drop the superseded epoch sidecar — but only when it belongs
        # to *this* checkpoint base.  After a save-as to a new path, the
        # old home's checkpoint still references its own pages file.
        if (old_pages_path is not None
                and old_pages_path.startswith(path + ".pages.")
                and old_pages_path != disk.path):
            try:
                os.remove(old_pages_path)
            except OSError:
                pass
        self._home = path
        # The checkpoint captured the full in-memory state, including
        # any mutation whose redo record failed to log: durability is
        # re-established, so a poisoned store becomes writable again.
        self._poisoned = None
        self.checkpoints_written += 1
        self.checkpoint_bytes_written += len(header) + len(payload)

    @staticmethod
    def load(path: str) -> "ExternalStore":
        """Reopen a saved EDB checkpoint (no WAL replay — use
        :meth:`open` for full crash recovery).

        Rejects anything that is not a healthy checkpoint with a
        :class:`~repro.errors.CatalogError` naming the path and the
        failure: bad magic, unsupported version, truncation, checksum
        mismatch, or an undecodable payload.
        """
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except FileNotFoundError:
            raise CatalogError(f"{path}: no such EDB checkpoint") from None
        if len(blob) < _CKPT_HEADER.size:
            raise CatalogError(
                f"{path}: not a saved EDB (file shorter than the "
                f"{_CKPT_HEADER.size}-byte checkpoint header)")
        magic, version, _flags, length, crc = _CKPT_HEADER.unpack(
            blob[:_CKPT_HEADER.size])
        if magic != CHECKPOINT_MAGIC:
            raise CatalogError(
                f"{path}: not a saved EDB (bad magic {magic!r})")
        if version != CHECKPOINT_VERSION:
            raise CatalogError(
                f"{path}: unsupported EDB checkpoint version {version} "
                f"(this build reads version {CHECKPOINT_VERSION})")
        payload = blob[_CKPT_HEADER.size:]
        if len(payload) != length:
            raise CatalogError(
                f"{path}: truncated EDB checkpoint "
                f"({len(payload)} of {length} payload bytes)")
        computed = zlib.crc32(payload)
        if computed != crc:
            raise CatalogError(
                f"{path}: EDB checkpoint checksum mismatch "
                f"(stored {crc:#010x}, computed {computed:#010x})")
        try:
            store = pickle.loads(payload)
        except Exception as exc:
            raise CatalogError(
                f"{path}: undecodable EDB checkpoint payload "
                f"({type(exc).__name__}: {exc})") from exc
        if not isinstance(store, ExternalStore):
            raise CatalogError(f"{path} is not a saved EDB")
        disk = store.pager.disk
        if isinstance(disk, FileDiskStore):
            pages = _pages_path(path, disk.epoch)
            if not os.path.exists(pages):
                raise CatalogError(
                    f"{path}: missing pages sidecar {pages}")
            disk.reattach(pages)
        return store

    @classmethod
    def open(cls, path: str, *, create: bool = True,
             faults: Optional[FaultInjector] = None) -> "ExternalStore":
        """Open a durable EDB at *path*, performing crash recovery.

        * no file and ``create=True`` → a fresh file-backed
          (:class:`~repro.bang.pager.FileDiskStore`) EDB with an initial
          checkpoint and an empty WAL;
        * otherwise → load the checkpoint, verify every page
          (quarantining corrupt ones), replay the committed current-era
          WAL records, and truncate any torn log tail.

        The resulting store carries a
        :class:`~repro.edb.recovery.RecoveryReport` in ``.recovery``.
        """
        faults = faults or NULL_FAULTS
        if not os.path.exists(path):
            if not create:
                raise CatalogError(
                    f"{path}: no such EDB (and create=False)")
            disk = FileDiskStore(_pages_path(path, 1), faults=faults)
            store = cls(pager=Pager(disk=disk))
            store.faults = faults
            store.save(path)
            store.recovery = RecoveryReport(path=path, created=True)
            store.events.record("store.recovery", path=path, created=True)
            return store

        store = cls.load(path)
        store.faults = faults
        disk = store.pager.disk
        if isinstance(disk, FileDiskStore):
            disk.faults = faults
        report = RecoveryReport(path=path)
        report.checkpoint_bytes = max(
            0, os.path.getsize(path) - _CKPT_HEADER.size)
        report.pages_scanned = disk.page_count
        report.pages_quarantined = disk.verify_all()
        wal = WriteAheadLog(path + ".wal", faults=faults)
        # Incremental replay: one committed frame at a time, so
        # recovery memory is bounded by the largest record, not the
        # whole log.  After a record that cannot be admitted the
        # cursor is still drained (without applying) to find the
        # true good end.
        cursor = wal.scan_from(0)
        stopped = False
        with store.writing():
            for payload in cursor:
                report.wal_records_seen += 1
                if stopped:
                    continue
                verdict, detail = store.admit(payload)
                if verdict == "applied":
                    report.ops_replayed[detail] = (
                        report.ops_replayed.get(detail, 0) + 1)
                    report.wal_records_replayed += 1
                elif verdict == "stale":
                    report.wal_records_stale += 1
                else:
                    # Ahead of the checkpoint (save commits the era
                    # bump only once the checkpoint is durable, so
                    # log and checkpoint diverged) or undecodable:
                    # refuse to guess rather than silently drop or
                    # misapply committed writes.
                    report.errors.append(f"{detail}; replay stopped")
                    stopped = True
        report.wal_torn_tail = cursor.torn
        report.wal_good_end = cursor.offset
        if cursor.torn:
            # Drop the uncommitted tail so future appends never sit
            # behind unreadable garbage.  (A *live tailer* seeing a
            # torn tail must wait and retry instead — truncation is
            # only ever the crashed owner's recovery action.)
            wal.truncate_to(cursor.offset)
        wal.next_lsn = cursor.next_lsn
        store.wal = wal
        store._home = path
        cls._clean_leftovers(path, disk)
        store.recovery = report
        store.events.record(
            "store.recovery", path=path, created=False,
            wal_records_replayed=report.wal_records_replayed,
            wal_records_stale=report.wal_records_stale,
            wal_torn_tail=report.wal_torn_tail,
            pages_quarantined=len(report.pages_quarantined),
            errors=len(report.errors))
        return store

    @staticmethod
    def _clean_leftovers(path: str, disk) -> None:
        """Remove debris from interrupted checkpoints: the temp file and
        pages sidecars from epochs the loaded checkpoint does not use."""
        try:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")
            if isinstance(disk, FileDiskStore):
                directory = os.path.dirname(os.path.abspath(path))
                prefix = os.path.basename(path) + ".pages."
                for entry in os.listdir(directory):
                    if not entry.startswith(prefix):
                        continue
                    full = os.path.join(directory, entry)
                    if os.path.abspath(full) != os.path.abspath(disk.path):
                        os.remove(full)
        except OSError:
            pass

    # ------------------------------------------------------------- counters

    def io_counters(self) -> dict:
        counters = self.pager.io_counters()
        counters.update({
            "wal_records_appended": self.wal_records_appended,
            "wal_bytes_appended": self.wal_bytes_appended,
            "wal_records_replayed": self.wal_records_replayed,
            "wal_records_skipped": self.wal_records_skipped,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_bytes_written": self.checkpoint_bytes_written,
            "edb_reclusters": self.edb_reclusters,
        })
        counters.update(self._rw.counters())
        counters.update(self.events.counters())
        counters["store_mutations"] = self.mutation_epoch
        return counters

    def histograms(self) -> Dict[str, Histogram]:
        """Duration histograms of the whole storage side: buffer latch
        waits / miss stalls / write-backs (pager), store lock waits,
        and — when a WAL is attached — append/fsync durations."""
        maps = [self.pager.histograms(), self._rw.histograms()]
        if self.wal is not None:
            maps.append(self.wal.histograms())
        return merge_histogram_maps(*maps)


def _collect_ext_refs(obj: Any, acc: set) -> None:
    """Accumulate every ``("ext", hash)`` marker in a relative-code
    structure (instruction tuples, switch tables, nested constants)."""
    if isinstance(obj, tuple):
        if (len(obj) == 2 and obj[0] == "ext"
                and isinstance(obj[1], int)):
            acc.add(obj[1])
            return
        for item in obj:
            _collect_ext_refs(item, acc)
    elif isinstance(obj, list):
        for item in obj:
            _collect_ext_refs(item, acc)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _collect_ext_refs(key, acc)
            _collect_ext_refs(value, acc)


def _infer_types(rows: Sequence[tuple], arity: int) -> List[str]:
    types = ["atom"] * arity
    if rows:
        first = rows[0]
        for i in range(arity):
            v = first[i]
            if isinstance(v, bool):
                raise TypeError_("atomic value", v)
            if isinstance(v, int):
                types[i] = "int"
            elif isinstance(v, float):
                types[i] = "real"
            elif isinstance(v, str):
                types[i] = "atom"
            else:
                raise TypeError_("atomic value", v)
    return types


def _fact_values(head: Term) -> tuple:
    if not isinstance(head, Struct):
        raise TypeError_("fact with arguments", head)
    values = []
    for arg in head.args:
        arg = deref(arg)
        if isinstance(arg, Atom):
            values.append(arg.name)
        elif isinstance(arg, (int, float)) and not isinstance(arg, bool):
            values.append(arg)
        else:
            raise TypeError_("atomic value", arg)
    return tuple(values)
