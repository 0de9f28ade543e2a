"""The WAM emulator (paper §2.1, §3.2, §3.3).

A register/heap machine executing the instruction tuples produced by
:mod:`repro.wam.compiler`.  The heap is a list of tagged cells:

=========  =================================================
``REF a``  variable; unbound iff it points at its own address
``STR a``  pointer to a ``FUN`` cell followed by the arguments
``FUN f``  functor cell (*f* = internal dictionary identifier)
``CON c``  atom constant (*c* = internal dictionary identifier)
``INT n`` / ``FLT x``  immediate numbers
``LIS a``  list cell: head at *a*, tail at *a+1*
=========  =================================================

Counters
--------
The machine counts executed instructions, data references and — kept
separately — **choice-point references**, so the reproduction of the
Touati & Despain observation the paper cites in §3.2.1 ("an average of
52 % of data references are choice point references") is a first-class
output (benchmark E7).  The dispatch loop pays for them once per
straight-line run, not per instruction (:meth:`Machine._run`), and
handlers run code whose operands were bound once per block
(:mod:`repro.wam.block`).

Procedures
----------
Four kinds, reflecting the Educe* architecture:

* ``static``  — compiled main-memory code;
* ``dynamic`` — surface clauses, recompiled on demand (assert/retract);
* ``external``— a fetch callback; the EDB dynamic loader returns runnable
  code filtered by pre-unification (paper §3.1, §4);
* built-ins live in a separate registry and are invoked by ``escape``.

When a called procedure is unknown, the machine consults its
``unknown_handler`` — the "interpreter program that is trapped when no
predicate is found in main memory" of §3.2.1; the EDB session installs
its retrieval hook there.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import (
    ExistenceError,
    InstantiationError,
    MachineError,
    PrologError,
    TypeError_,
)
from ..lang.program import META_GOAL_ARGS, load_program
from ..lang.reader import Reader
from ..obs.tracing import NULL_TRACER
from ..terms import NIL, Atom, Struct, Term, Var, deref, term_variables
from . import instructions as I
from .block import Block
from .compiler import (
    INLINE_CONTROL,
    ClauseCompiler,
    CompileContext,
    is_builtin_indicator,
)
from .indexing import build_procedure_code

_CP_FIXED_FIELDS = 7  # prev, e, cp, tr, h, b0, next — per create/restore

#: a constant cell's tag -> the kind in its switch-table key
_KEY_KIND = {"CON": "atom", "INT": "int", "FLT": "flt"}

_HALT_CODE = Block([(I.HALT_SUCCESS,)]).bind()


class Procedure:
    """A predicate known to the machine."""

    __slots__ = ("pid", "name", "arity", "kind", "code", "clauses",
                 "compiled", "dirty", "fetch", "index")

    def __init__(self, pid: int, name: str, arity: int, kind: str,
                 code: Optional[list] = None,
                 clauses: Optional[list] = None,
                 fetch: Optional[Callable] = None,
                 index: bool = True):
        self.pid = pid
        self.name = name
        self.arity = arity
        self.kind = kind          # 'static' | 'dynamic' | 'external'
        self.code = code
        self.clauses = clauses if clauses is not None else []
        # Per-clause compiled code, kept aligned with ``clauses`` for
        # dynamic procedures: assert compiles ONE clause (the paper's
        # incremental compiler, §3.1); only the cheap control/indexing
        # wrapper is rebuilt.
        self.compiled: list = []
        self.dirty = kind == "dynamic"
        self.fetch = fetch
        self.index = index

    def copy(self) -> "Procedure":
        """A copy with its own clause lists, sharing the code block."""
        clone = Procedure(self.pid, self.name, self.arity, self.kind,
                          self.code, list(self.clauses), self.fetch,
                          self.index)
        clone.compiled = list(self.compiled)
        clone.dirty = self.dirty
        return clone

    @property
    def indicator(self) -> Tuple[str, int]:
        return (self.name, self.arity)

    def __repr__(self) -> str:
        return f"Procedure({self.name}/{self.arity}, {self.kind})"


class _Env:
    """An AND-stack frame: permanent variables + saved continuation."""

    __slots__ = ("prev", "cp_code", "cp_pc", "slots")

    def __init__(self, prev, cp_code, cp_pc, nslots: int):
        self.prev = prev
        self.cp_code = cp_code
        self.cp_pc = cp_pc
        self.slots: list = [None] * nslots


class _ChoicePoint:
    """An OR-stack frame (paper §3.2.1)."""

    __slots__ = ("prev", "args", "e", "cp_code", "cp_pc", "tr", "h", "b0",
                 "next_code", "next_pc", "kind", "generator")

    def __init__(self, prev, args, e, cp_code, cp_pc, tr, h, b0,
                 next_code, next_pc, kind="clause", generator=None):
        self.prev = prev
        self.args = args
        self.e = e
        self.cp_code = cp_code
        self.cp_pc = cp_pc
        self.tr = tr
        self.h = h
        self.b0 = b0
        self.next_code = next_code
        self.next_pc = next_pc
        self.kind = kind          # 'clause' | 'barrier' | 'gen'
        self.generator = generator


class Solution:
    """One answer to a query: variable-name → surface-term bindings."""

    def __init__(self, bindings: Dict[str, Term]):
        self.bindings = bindings

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __eq__(self, other) -> bool:
        if isinstance(other, Solution):
            return self.bindings == other.bindings
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.bindings.items())
        return f"Solution({inner})"


class Machine:
    """A complete WAM instance: code store, heap, stacks, dictionary."""

    def __init__(self, index: bool = True,
                 gc_enabled: bool = True,
                 gc_threshold: int = 200_000):
        self.index_enabled = index
        # The library is compiled once per process (wam/prelude.py); a
        # session starts from a copy of its dictionary and procedures.
        from .prelude import library_image
        dictionary, library = library_image(index)
        self.dictionary = dictionary.copy()
        self.procedures: Dict[int, Procedure] = {
            pid: proc.copy() for pid, proc in library.items()}
        self.reader = Reader()
        self.ctx = CompileContext(self.dictionary, self._define_aux)
        self.compiler = ClauseCompiler(self.ctx)

        self.unknown_handler: Optional[Callable] = None
        self.output: List[str] = []
        # Observability: the session replaces this with its shared
        # tracer; standalone machines keep the free no-op.
        self.tracer = NULL_TRACER

        # Machine state.
        self.heap: list = []
        self.x: list = [None] * 64
        self.trail: list = []
        self.e: Optional[_Env] = None
        self.b: Optional[_ChoicePoint] = None
        self.b0: Optional[_ChoicePoint] = None
        self.code: list = _HALT_CODE
        self.pc = 0
        self.cp_code: list = _HALT_CODE
        self.cp_pc = 0
        self.s = 0
        self.mode = "read"

        # Counters (benchmarks E7, E10 read these).
        self.instr_count = 0
        self.data_refs = 0
        self.cp_refs = 0
        self.cp_created = 0
        self.backtracks = 0
        self.calls = 0
        self.unify_ops = 0
        self.compile_count = 0
        self.heap_high_water = 0

        # Garbage collection (§3.3.2).
        self.gc_enabled = gc_enabled
        self.gc_threshold = gc_threshold
        self.gc_runs = 0
        self.gc_cells_recovered = 0
        self._gc_floor = 0  # heap size below which GC must not reach
        # Heap size above which a call or proceed takes the _maybe_gc
        # path (a new high-water mark, or GC due); -1 re-derives it.
        self._heap_mark = -1

        from .builtins import BUILTINS  # registers indicators on import
        self.builtins = dict(BUILTINS)  # copy: sessions add their own

        # Cooperative interruption (repro.service): when set, the hook
        # is called at the first call or backtrack after every
        # ``poll_interval`` instructions (:meth:`_due`) and may raise
        # (e.g. QueryInterrupted) to abort the query.  Kept as instance
        # attributes so each worker machine can be interrupted
        # independently.
        self.poll_hook: Optional[Callable] = None
        self.poll_interval = 2048
        # Sampled profiler (repro.obs.profiler), sampled at the same
        # due-check as the poll hook.
        self.profiler = None
        #: instr_count at which :meth:`_due` next runs
        self.next_due = self.poll_interval

        self._dispatch = self._build_dispatch()
        self._nil_id = self.dictionary.intern("[]", 0)
        self._nil_cell = ("CON", self._nil_id)
        self._metacall_cache: Dict[object, Tuple[str, int]] = {}
        # External root cells for the garbage collector: single-element
        # lists holding cells that must survive and be relocated.
        self.rooted: List[list] = []

    # ===================================================== program loading

    def consult(self, text: str, define: Optional[Callable] = None,
                extend: Optional[Callable] = None) -> None:
        """Compile a program text into main-memory procedures.

        The text is read section by section (:mod:`repro.lang.program`):
        ``op/3`` has extended this machine's operator table by the time
        the next clause is parsed, ``dynamic``/``discontiguous``
        declarations make a procedure callable without clauses, and any
        other ``:- Goal`` is solved once the clauses before it are
        loaded; a later section's clauses for a procedure the text
        already defined or declared are added after its clauses.
        *define(name, arity, clauses)* and *extend* receive the clause
        groups in place of :meth:`define_procedure` and
        :meth:`extend_procedure` — the EDB session stores them
        (``EduceStar.store_program``).
        """
        load_program(text, self.reader, define or self.define_procedure,
                     extend or self.extend_procedure, self.declare_dynamic,
                     self.solve_once)

    def consult_file(self, path: str) -> None:
        """Consult a Prolog source file."""
        with open(path, "r", encoding="utf-8") as f:
            self.consult(f.read())

    def declare_dynamic(self, name: str, arity: int) -> None:
        """Make *name/arity* take assert/retract, keeping the clauses it
        has; with none it is callable all the same — unless the
        unknown-procedure trap resolves it (a stored one is not shadowed)."""
        proc = self.procedure(name, arity)
        if proc is not None:
            if proc.kind == "static":
                proc.kind = "dynamic"
        elif (self.unknown_handler is None
              or self.unknown_handler(self, name, arity) is None):
            self.define_procedure(name, arity, [], kind="dynamic")

    def define_procedure(self, name: str, arity: int, clauses: List[Term],
                         kind: str = "static", index: Optional[bool] = None
                         ) -> Procedure:
        """Define (or redefine) a procedure from surface clauses."""
        if is_builtin_indicator(name, arity):
            raise PrologError(
                f"cannot redefine built-in {name}/{arity}")
        pid = self.dictionary.intern(name, arity)
        use_index = self.index_enabled if index is None else index
        proc = Procedure(pid, name, arity, kind, clauses=list(clauses),
                         index=use_index)
        if kind == "static":
            self.compile_count += len(clauses)
            proc.compiled = [self.compiler.compile_clause(c)
                             for c in clauses]
            proc.code = self._build_block(proc)
        self.procedures[pid] = proc
        return proc

    def extend_procedure(self, name: str, arity: int,
                         clauses: List[Term]) -> None:
        """Add *clauses* after those of *name/arity*, keeping its kind (a
        procedure only declared so far is defined by them)."""
        proc = self.procedure(name, arity)
        if proc is None or proc.kind not in ("static", "dynamic"):
            self.define_procedure(name, arity, clauses)
            return
        proc.clauses.extend(clauses)
        if proc.kind == "static":
            self.refresh(proc)
        else:
            proc.dirty = True

    def define_external(self, name: str, arity: int,
                        fetch: Callable) -> Procedure:
        """Register an EDB-backed procedure; *fetch(machine, proc)* must
        return a :class:`~repro.wam.block.Block` for the call pattern."""
        pid = self.dictionary.intern(name, arity)
        proc = Procedure(pid, name, arity, "external", fetch=fetch)
        self.procedures[pid] = proc
        return proc

    def procedure(self, name: str, arity: int) -> Optional[Procedure]:
        pid = self.dictionary.lookup(name, arity)
        return None if pid is None else self.procedures.get(pid)

    def refresh(self, proc: Procedure) -> None:
        """Bring a dirty dynamic procedure's block up to date: compile
        only the clauses without cached code (incremental, §3.1), then
        rebuild the control/indexing wrapper."""
        while len(proc.compiled) < len(proc.clauses):
            proc.compiled.append(
                self.compiler.compile_clause(proc.clauses[len(proc.compiled)]))
            self.compile_count += 1
        proc.code = self._build_block(proc)
        proc.dirty = False

    def _build_block(self, proc: Procedure) -> Block:
        return build_procedure_code(proc.compiled, index=proc.index)

    def fit(self, block) -> None:
        """Make *block* runnable here: bound (once — a block that never
        runs is never bound) and the X register file as large as it
        needs, so no handler ever grows it."""
        if block.run is None:
            block.bind()
        if block.xregs > len(self.x):
            self.x.extend([None] * (block.xregs - len(self.x)))

    def _define_aux(self, name: str, arity: int, clauses: List[Term]) -> None:
        self.define_procedure(name, arity, clauses, index=False)

    # ===================================================== queries

    def solve(self, goal, limit: Optional[int] = None) -> Iterator[Solution]:
        """Solve *goal* (text or term); yield :class:`Solution` objects.

        Backtracking is driven lazily: requesting the next solution forces
        a failure and resumes the machine.
        """
        if isinstance(goal, str):
            goal_term, varmap = self.reader.read_term_with_vars(goal)
        else:
            goal_term = goal
            varmap = {v.name: v for v in term_variables(goal_term)
                      if not v.name.startswith("_")}

        if self.tracer.enabled:
            if isinstance(goal, str):
                label = " ".join(goal.split())[:200]
            else:
                from ..lang.writer import term_to_text
                label = term_to_text(goal_term)[:200]
        else:
            label = ""

        mark = self._save_state()
        self._heap_mark = -1    # GC settings may have changed since
        holders: List[list] = []
        count = 0
        with self.tracer.span("query", goal=label) as qspan:
            try:
                cell, addr_of = self._build(goal_term, {})
                # GC-safe watch cells: the collector rewrites holder
                # contents.
                watch = {}
                for name, var in varmap.items():
                    addr = addr_of.get(id(var))
                    if addr is not None:
                        holder = [("REF", addr)]
                        watch[name] = holder
                        holders.append(holder)
                self.rooted.extend(holders)
                for _ in self._solve_cell(cell):
                    bindings = {}
                    memo: dict = {}
                    for name, holder in watch.items():
                        bindings[name] = self._extract(holder[0], memo)
                    count += 1   # before yield: consumer may not resume
                    yield Solution(bindings)
                    if limit is not None and count >= limit:
                        return
            finally:
                if qspan is not None:
                    qspan.attrs["solutions"] = count
                for holder in holders:
                    self.rooted.remove(holder)
                self._restore_state(mark)

    def solve_once(self, goal) -> Optional[Solution]:
        """First solution or None."""
        for solution in self.solve(goal, limit=1):
            return solution
        return None

    def count_solutions(self, goal) -> int:
        return sum(1 for _ in self.solve(goal))

    # --------------------------------------------------------- nested solve

    def _solve_cell(self, goal_cell) -> Iterator[_ChoicePoint]:
        """Run *goal_cell* as a goal; yield its barrier once per solution.

        Creates a barrier choice point; exhausting alternatives below the
        barrier ends the iteration with all state restored.  Re-entrant:
        built-ins (findall, forall...) nest their own solve loops.
        """
        saved = (self.code, self.pc, self.cp_code, self.cp_pc, self.e,
                 self.b0, self.mode, self.s)
        barrier = self._push_barrier()
        self.cp_code, self.cp_pc = _HALT_CODE, 0
        try:
            status = self._metacall(goal_cell)
            if status == "fail":
                status = self._backtrack(barrier)
            while True:
                if status != "exhausted":
                    status = self._run(barrier)
                if status == "exhausted":
                    return
                yield barrier
                status = self._backtrack(barrier)
        finally:
            # Barrier may already be popped on exhaustion; pop if present.
            self._pop_barrier(barrier)
            (self.code, self.pc, self.cp_code, self.cp_pc, self.e,
             self.b0, self.mode, self.s) = saved

    def solve_goal_once(self, goal_cell) -> bool:
        """Solve *goal_cell* once, **keeping** the bindings of the first
        solution (implements ``once/1`` / ``ignore/1``): the alternatives
        above the barrier go, the trail and heap stay."""
        solutions = self._solve_cell(goal_cell)
        for barrier in solutions:
            self.b = barrier.prev
            solutions.close()
            return True
        return False

    def _push_barrier(self) -> _ChoicePoint:
        cp = _ChoicePoint(
            prev=self.b, args=(), e=self.e,
            cp_code=self.cp_code, cp_pc=self.cp_pc,
            tr=len(self.trail), h=len(self.heap), b0=self.b0,
            next_code=None, next_pc=0, kind="barrier")
        self.b = cp
        self.cp_created += 1
        self.cp_refs += _CP_FIXED_FIELDS
        return cp

    def _pop_barrier(self, barrier: _ChoicePoint) -> None:
        cursor = self.b
        while cursor is not None and cursor is not barrier:
            cursor = cursor.prev
        if cursor is barrier:
            # Unwind everything above (and including) the barrier.
            self._unwind_trail(barrier.tr)
            del self.heap[barrier.h:]
            self.b = barrier.prev

    def _save_state(self) -> tuple:
        return (len(self.heap), len(self.trail), self.b, self.e,
                self.code, self.pc, self.cp_code, self.cp_pc, self.b0)

    def _restore_state(self, mark: tuple) -> None:
        (h, tr, b, e, code, pc, cp_code, cp_pc, b0) = mark
        self._unwind_trail(tr)
        del self.heap[h:]
        self.b = b
        self.e = e
        self.code, self.pc = code, pc
        self.cp_code, self.cp_pc = cp_code, cp_pc
        self.b0 = b0

    # ===================================================== main loop

    # Optional per-instruction hook: fn(machine, instr), *instr* in its
    # source form.  Read once per _run entry, which then dispatches
    # through a wrapped table (repro.wam.debugger.traced_dispatch);
    # installed by repro.wam.debugger.Tracer.
    trace_hook = None

    def _run(self, barrier: _ChoicePoint) -> str:
        """Execute until success ('success') or exhaustion below
        *barrier* ('exhausted').

        One loop: fetch, dispatch, test the result.  A handler returns
        None to fall through, 'jump' once it has moved ``code``/``pc``
        (a run ends: block.ENDS_RUN), 'fail' or 'halt'.  The counters
        cost nothing per instruction: entering a straight-line run
        charges its static instructions and data references
        (``Block.charge``), and a failure or exception part-way refunds
        what did not execute, so ``instr_count``/``data_refs`` are exact
        wherever they can be read — in a built-in, at a call or a
        backtrack (:meth:`_due`), after an exception.
        """
        dispatch = self._dispatch
        if self.trace_hook is not None:
            from .debugger import traced_dispatch
            dispatch = traced_dispatch(self, dispatch, self.trace_hook)
        code = self.code
        run, charge, pc = code.run, code.charge, self.pc
        due = charge[pc]
        self.instr_count += due[0]
        self.data_refs += due[1]
        while True:
            instr = run[pc]
            pc += 1
            try:
                result = dispatch[instr[0]](instr)
            except BaseException:
                due = charge[pc]
                self.instr_count -= due[2]
                self.data_refs -= due[3]
                raise
            if result is None:
                continue
            if result == "fail":
                due = charge[pc]
                self.instr_count -= due[2]
                self.data_refs -= due[3]
                if self._backtrack(barrier) == "exhausted":
                    return "exhausted"
            elif result == "halt":
                self.pc = pc
                return "success"
            code = self.code
            run, charge, pc = code.run, code.charge, self.pc
            due = charge[pc]
            self.instr_count += due[0]
            self.data_refs += due[1]

    def _due(self) -> None:
        """The poll hook's and the sampler's one safe point, reached at
        call dispatch and on backtracking once ``instr_count`` passes
        ``next_due`` — every cycle in control flow passes one of the
        two, since a block only jumps forward."""
        count = self.instr_count
        due = count + self.poll_interval
        profiler = self.profiler
        if profiler is not None:
            if count >= profiler.next_due:
                profiler.sample(self)
            due = min(due, profiler.next_due)
        self.next_due = due
        if self.poll_hook is not None:
            self.poll_hook(self)

    def _backtrack(self, barrier: _ChoicePoint) -> str:
        """Restore the newest choice point and resume its next alternative;
        'exhausted' once the *barrier* is reached."""
        self.backtracks += 1
        if self.instr_count >= self.next_due:
            self._due()
        while True:
            cp = self.b
            if cp is None:
                raise MachineError("backtrack past the bottom of the OR-stack")
            if cp.kind == "barrier":
                if cp is not barrier:
                    # A nested barrier must already have been popped.
                    raise MachineError("foreign barrier on backtrack")
                self._unwind_trail(cp.tr)
                del self.heap[cp.h:]
                self.e = cp.e
                self.b = cp.prev
                return "exhausted"

            # Restore machine state from the choice point.
            self._unwind_trail(cp.tr)
            del self.heap[cp.h:]
            nargs = len(cp.args)
            self.x[:nargs] = cp.args
            self.e = cp.e
            self.cp_code, self.cp_pc = cp.cp_code, cp.cp_pc
            self.b0 = cp.b0
            self.cp_refs += _CP_FIXED_FIELDS + nargs
            self.data_refs += _CP_FIXED_FIELDS + nargs

            if cp.kind == "gen":
                assert cp.generator is not None
                try:
                    next(cp.generator)
                except StopIteration:
                    self.b = cp.prev
                    continue
            # Resume the next clause, or after the generator's escape.
            self.code, self.pc = cp.next_code, cp.next_pc
            return "resumed"

    def _unwind_trail(self, mark: int) -> None:
        trail = self.trail
        heap = self.heap
        for i in range(len(trail) - 1, mark - 1, -1):
            addr = trail[i]
            heap[addr] = ("REF", addr)
        del trail[mark:]

    # ===================================================== heap primitives

    def deref_cell(self, cell):
        heap = self.heap
        while cell[0] == "REF":
            addr = cell[1]
            at = heap[addr]
            if at[0] == "REF" and at[1] == addr:
                return at
            cell = at
        return cell

    def bind(self, addr: int, cell) -> None:
        self.heap[addr] = cell
        hb = self.b.h if self.b is not None else 0
        if addr < hb:
            self.trail.append(addr)
        self.data_refs += 1

    def new_var(self):
        h = len(self.heap)
        cell = ("REF", h)
        self.heap.append(cell)
        return cell

    def unify(self, c1, c2) -> bool:
        """General unifier over cells (no occurs check, as in the WAM)."""
        self.unify_ops += 1
        heap = self.heap
        stack = [(c1, c2)]
        push = stack.append
        pop = stack.pop
        while stack:
            a, b = pop()
            a = self.deref_cell(a)
            b = self.deref_cell(b)
            self.data_refs += 2
            ta, tb = a[0], b[0]
            if ta == "REF":
                if tb == "REF":
                    aa, ba = a[1], b[1]
                    if aa == ba:
                        continue
                    if aa < ba:
                        self.bind(ba, a)
                    else:
                        self.bind(aa, b)
                else:
                    self.bind(a[1], b)
                continue
            if tb == "REF":
                self.bind(b[1], a)
                continue
            if ta != tb:
                return False
            if ta == "CON" or ta == "INT" or ta == "FLT":
                if a[1] != b[1]:
                    return False
                continue
            if ta == "LIS":
                aa, ba = a[1], b[1]
                if aa == ba:
                    continue
                push((heap[aa], heap[ba]))
                push((heap[aa + 1], heap[ba + 1]))
                continue
            if ta == "STR":
                aa, ba = a[1], b[1]
                if aa == ba:
                    continue
                fa, fb = heap[aa], heap[ba]
                if fa[1] != fb[1]:
                    return False
                arity = self.dictionary.arity(fa[1])
                for k in range(1, arity + 1):
                    push((heap[aa + k], heap[ba + k]))
                continue
            raise MachineError(f"bad cell tag {ta}")
        return True

    # ---------------------------------------------- term <-> heap conversion

    def _build(self, term: Term, addr_of: dict) -> tuple:
        """Copy a surface term onto the heap; returns (cell, var-addr map)."""
        cell = self._build_cell(term, addr_of)
        return cell, addr_of

    def _build_cell(self, term: Term, addr_of: dict):
        term = deref(term)
        if isinstance(term, Var):
            addr = addr_of.get(id(term))
            if addr is None:
                cell = self.new_var()
                addr_of[id(term)] = cell[1]
                return cell
            return ("REF", addr)
        if isinstance(term, Atom):
            if term is NIL:
                return ("CON", self._nil_id)
            return ("CON", self.dictionary.intern(term.name, 0))
        if isinstance(term, bool):
            raise TypeError_("term", term)
        if isinstance(term, int):
            return ("INT", term)
        if isinstance(term, float):
            return ("FLT", term)
        assert isinstance(term, Struct)
        heap = self.heap
        if term.indicator == (".", 2):
            # Iterative over the spine: lists can be arbitrarily long.
            spine: List[Term] = []
            cursor: Term = term
            while (isinstance(cursor, Struct)
                   and cursor.indicator == (".", 2)):
                spine.append(cursor.args[0])
                cursor = deref(cursor.args[1])
            head_cells = [self._build_cell(x, addr_of) for x in spine]
            tail_cell = self._build_cell(cursor, addr_of)
            for head in reversed(head_cells):
                a = len(heap)
                heap.append(head)
                heap.append(tail_cell)
                tail_cell = ("LIS", a)
            return tail_cell
        arg_cells = [self._build_cell(a, addr_of) for a in term.args]
        fid = self.dictionary.intern(term.name, term.arity)
        a = len(heap)
        heap.append(("FUN", fid))
        heap.extend(arg_cells)
        return ("STR", a)

    def _extract(self, cell, memo: dict, _visiting: Optional[set] = None
                 ) -> Term:
        """Heap cell → surface term; unbound cells become fresh Vars.

        Cyclic terms (possible because WAM unification omits the occurs
        check) are cut at the back edge with a fresh variable, so
        extraction always terminates; use ``acyclic_term/1`` to detect
        them explicitly.
        """
        if _visiting is None:
            _visiting = set()
        cell = self.deref_cell(cell)
        tag = cell[0]
        if tag == "REF":
            addr = cell[1]
            var = memo.get(addr)
            if var is None:
                var = Var()
                memo[addr] = var
            return var
        if tag == "CON":
            return Atom(self.dictionary.name(cell[1]))
        if tag == "INT" or tag == "FLT":
            return cell[1]
        if tag == "LIS":
            # Iterative over the spine: lists can be arbitrarily long.
            heads: List[Term] = []
            spine: List[int] = []
            while tag == "LIS":
                a = cell[1]
                if a in _visiting:
                    break  # cyclic spine: cut with a fresh var
                _visiting.add(a)
                spine.append(a)
                heads.append(self._extract(self.heap[a], memo, _visiting))
                cell = self.deref_cell(self.heap[a + 1])
                tag = cell[0]
            if tag == "LIS":  # loop broken by the cycle guard
                result: Term = Var()
            else:
                result = self._extract(cell, memo, _visiting)
            for a in spine:
                _visiting.discard(a)
            for head in reversed(heads):
                result = Struct(".", (head, result))
            return result
        if tag == "STR":
            a = cell[1]
            if a in _visiting:
                return Var()  # back edge: cut the cycle
            _visiting.add(a)
            fid = self.heap[a][1]
            name, arity = self.dictionary.functor(fid)
            args = tuple(
                self._extract(self.heap[a + k], memo, _visiting)
                for k in range(1, arity + 1)
            )
            _visiting.discard(a)
            return Struct(name, args)
        raise MachineError(f"cannot extract cell {cell!r}")

    def extract(self, cell) -> Term:
        return self._extract(cell, {})

    # ===================================================== instruction set

    def _build_dispatch(self) -> Dict[str, Callable]:
        return {
            I.GET_VARIABLE: self._i_get_variable,
            I.GET_VALUE: self._i_get_value,
            I.GET_CONSTANT: self._i_get_constant,
            I.GET_NIL: self._i_get_nil,
            I.GET_STRUCTURE: self._i_get_structure,
            I.GET_LIST: self._i_get_list,
            I.PUT_VARIABLE: self._i_put_variable,
            I.PUT_VALUE: self._i_put_value,
            I.PUT_UNSAFE_VALUE: self._i_put_value,
            I.PUT_CONSTANT: self._i_put_constant,
            I.PUT_NIL: self._i_put_nil,
            I.PUT_STRUCTURE: self._i_put_structure,
            I.PUT_LIST: self._i_put_list,
            I.UNIFY_VARIABLE: self._i_unify_variable,
            I.UNIFY_VALUE: self._i_unify_value,
            I.UNIFY_LOCAL_VALUE: self._i_unify_value,
            I.UNIFY_CONSTANT: self._i_unify_constant,
            I.UNIFY_NIL: self._i_unify_nil,
            I.UNIFY_VOID: self._i_unify_void,
            I.ALLOCATE: self._i_allocate,
            I.DEALLOCATE: self._i_deallocate,
            I.CALL: self._i_call,
            I.EXECUTE: self._i_execute,
            I.PROCEED: self._i_proceed,
            I.TRY_ME_ELSE: self._i_try_me_else,
            I.RETRY_ME_ELSE: self._i_retry_me_else,
            I.TRUST_ME: self._i_trust_me,
            I.TRY: self._i_try,
            I.RETRY: self._i_retry,
            I.TRUST: self._i_trust,
            I.SWITCH_ON_TERM: self._i_switch_on_term,
            I.SWITCH_ON_CONSTANT: self._i_switch_on_constant,
            I.SWITCH_ON_STRUCTURE: self._i_switch_on_structure,
            I.NECK_CUT: self._i_neck_cut,
            I.GET_LEVEL: self._i_get_level,
            I.CUT: self._i_cut,
            I.ESCAPE: self._i_escape,
            I.ARITH: self._i_arith,
            I.FAIL_OP: self._i_fail,
            I.NOOP: self._i_noop,
            I.HALT_SUCCESS: self._i_halt,
        }

    # --- get ------------------------------------------------------------------
    # Handlers run bound instructions (repro.wam.block): constants, FUN
    # cells and continuation offsets are operands, argument registers
    # are X registers (the verifier's V rules), and the X file is
    # already as large as the block needs (:meth:`fit`).

    def _i_get_variable(self, instr):
        reg = instr[1]
        if reg[0] == "x":
            self.x[reg[1]] = self.x[instr[2][1]]
        else:
            self.e.slots[reg[1]] = self.x[instr[2][1]]

    def _i_get_value(self, instr):
        reg = instr[1]
        cell = self.x[reg[1]] if reg[0] == "x" else self.e.slots[reg[1]]
        if not self.unify(cell, self.x[instr[2][1]]):
            return "fail"

    def _i_get_constant(self, instr):
        cell = self.x[instr[2][1]]
        if cell[0] == "REF":
            cell = self.deref_cell(cell)
            if cell[0] == "REF":
                self.bind(cell[1], instr[3])
                return None
        want = instr[3]
        if cell[0] != want[0] or cell[1] != want[1]:
            return "fail"

    def _i_get_nil(self, instr):
        cell = self.deref_cell(self.x[instr[1][1]])
        if cell[0] == "REF":
            self.bind(cell[1], self._nil_cell)
            return None
        if cell[0] != "CON" or cell[1] != self._nil_id:
            return "fail"

    def _i_get_structure(self, instr):
        cell = self.deref_cell(self.x[instr[2][1]])
        if cell[0] == "REF":
            heap = self.heap
            h = len(heap)
            heap.append(instr[3])
            self.bind(cell[1], ("STR", h))
            self.mode = "write"
            return None
        if cell[0] == "STR":
            a = cell[1]
            if self.heap[a][1] == instr[1]:
                self.s = a + 1
                self.mode = "read"
                return None
        return "fail"

    def _i_get_list(self, instr):
        cell = self.deref_cell(self.x[instr[1][1]])
        if cell[0] == "REF":
            self.bind(cell[1], ("LIS", len(self.heap)))
            self.mode = "write"
            return None
        if cell[0] == "LIS":
            self.s = cell[1]
            self.mode = "read"
            return None
        return "fail"

    # --- put ---------------------------------------------------------------

    def _i_put_variable(self, instr):
        heap = self.heap
        cell = ("REF", len(heap))
        heap.append(cell)
        reg = instr[1]
        if reg[0] == "x":
            self.x[reg[1]] = cell
        else:
            self.e.slots[reg[1]] = cell
        self.x[instr[2][1]] = cell

    def _i_put_value(self, instr):
        reg = instr[1]
        self.x[instr[2][1]] = (self.x[reg[1]] if reg[0] == "x"
                               else self.e.slots[reg[1]])

    def _i_put_constant(self, instr):
        self.x[instr[2][1]] = instr[3]

    def _i_put_nil(self, instr):
        self.x[instr[1][1]] = self._nil_cell

    def _i_put_structure(self, instr):
        heap = self.heap
        self.x[instr[2][1]] = ("STR", len(heap))
        heap.append(instr[3])
        self.mode = "write"

    def _i_put_list(self, instr):
        self.x[instr[1][1]] = ("LIS", len(self.heap))
        self.mode = "write"

    # --- unify ---------------------------------------------------------------

    def _i_unify_variable(self, instr):
        if self.mode == "read":
            cell = self.heap[self.s]
            self.s += 1
        else:
            heap = self.heap
            cell = ("REF", len(heap))
            heap.append(cell)
        reg = instr[1]
        if reg[0] == "x":
            self.x[reg[1]] = cell
        else:
            self.e.slots[reg[1]] = cell

    def _i_unify_value(self, instr):
        reg = instr[1]
        cell = self.x[reg[1]] if reg[0] == "x" else self.e.slots[reg[1]]
        if self.mode == "read":
            ok = self.unify(cell, self.heap[self.s])
            self.s += 1
            if not ok:
                return "fail"
        else:
            self.heap.append(self.deref_cell(cell))

    def _i_unify_constant(self, instr):
        want = instr[2]
        if self.mode == "read":
            cell = self.deref_cell(self.heap[self.s])
            self.s += 1
            if cell[0] == "REF":
                self.bind(cell[1], want)
                return None
            if cell[0] != want[0] or cell[1] != want[1]:
                return "fail"
        else:
            self.heap.append(want)

    def _i_unify_nil(self, instr):
        if self.mode == "read":
            cell = self.deref_cell(self.heap[self.s])
            self.s += 1
            if cell[0] == "REF":
                self.bind(cell[1], self._nil_cell)
                return None
            if cell[0] != "CON" or cell[1] != self._nil_id:
                return "fail"
        else:
            self.heap.append(self._nil_cell)

    def _i_unify_void(self, instr):
        if self.mode == "read":
            self.s += instr[1]
        else:
            for _ in range(instr[1]):
                self.new_var()

    # --- control -----------------------------------------------------------

    def _i_allocate(self, instr):
        self.e = _Env(self.e, self.cp_code, self.cp_pc, instr[1])

    def _i_deallocate(self, instr):
        env = self.e
        self.cp_code, self.cp_pc = env.cp_code, env.cp_pc
        self.e = env.prev

    def _i_call(self, instr):
        self.cp_code, self.cp_pc = self.code, instr[3]
        self.calls += 1
        self.b0 = self.b
        return self._dispatch_call(instr[1], instr[2])

    def _i_execute(self, instr):
        self.calls += 1
        self.b0 = self.b
        return self._dispatch_call(instr[1], instr[2])

    def _i_proceed(self, instr):
        self.code, self.pc = self.cp_code, self.cp_pc
        if len(self.heap) > self._heap_mark:
            self._maybe_gc()
        return "jump"

    def _dispatch_call(self, pid: int, arity: int):
        self._pending_arity = arity
        if len(self.heap) > self._heap_mark:
            self._maybe_gc()  # safe point: args in registers, S/mode dead
        if self.instr_count >= self.next_due:
            self._due()
        proc = self.procedures.get(pid)
        if proc is None:
            proc = self._resolve_unknown(pid, arity)
            if proc is None:
                return "fail"
        kind = proc.kind
        if kind == "static":
            code = proc.code
        elif kind == "dynamic":
            if proc.dirty:
                self.refresh(proc)
            code = proc.code
        elif kind == "external":
            code = proc.fetch(self, proc)
            if code is None:
                return "fail"
            if self.profiler is not None:
                # Fetched blocks never appear in ``procedures``; label
                # them here so EDB predicates are attributed like
                # main-memory ones.
                self.profiler.note_code(code, proc.name, proc.arity)
        else:
            raise MachineError(f"cannot call procedure kind {kind}")
        if code.run is None or code.xregs > len(self.x):
            self.fit(code)
        self.code, self.pc = code, 0
        return "jump"

    def _resolve_unknown(self, pid: int, arity: int) -> Optional[Procedure]:
        name = self.dictionary.name(pid)
        if self.unknown_handler is not None:
            proc = self.unknown_handler(self, name, arity)
            if proc is not None:
                return proc
        raise ExistenceError("procedure", f"{name}/{arity}")

    # --- choice points --------------------------------------------------------

    def _push_cp(self, next_code, next_pc, generator=None) -> None:
        # The choice instructions run at procedure entry (a generator's
        # at its escape); the argument registers to save are those of
        # the procedure being tried.
        nargs = self._pending_arity
        self.b = _ChoicePoint(
            self.b, tuple(self.x[:nargs]), self.e, self.cp_code,
            self.cp_pc, len(self.trail), len(self.heap), self.b0,
            next_code, next_pc, "clause" if generator is None else "gen",
            generator)
        self.cp_created += 1
        self.cp_refs += _CP_FIXED_FIELDS + nargs
        if generator is None:
            self.data_refs += _CP_FIXED_FIELDS + nargs

    # --- clause chains ------------------------------------------------------

    def _i_try_me_else(self, instr):
        self._push_cp(self.code, instr[1])

    def _i_retry_me_else(self, instr):
        self.b.next_code = self.code
        self.b.next_pc = instr[1]
        self.cp_refs += 2
        self.data_refs += 2

    def _i_trust_me(self, instr):
        self.b = self.b.prev
        self.cp_refs += 1
        self.data_refs += 1

    def _i_try(self, instr):
        self._push_cp(self.code, instr[2])
        self.pc = instr[1]
        return "jump"

    def _i_retry(self, instr):
        self.b.next_code = self.code
        self.b.next_pc = instr[2]
        self.pc = instr[1]
        self.cp_refs += 2
        self.data_refs += 2
        return "jump"

    def _i_trust(self, instr):
        self.b = self.b.prev
        self.pc = instr[1]
        self.cp_refs += 1
        self.data_refs += 1
        return "jump"

    # --- indexing -----------------------------------------------------------

    def _i_switch_on_term(self, instr):
        tag = self.deref_cell(self.x[0])[0]
        if tag == "REF":
            self.pc = instr[1]
        elif tag == "LIS":
            self.pc = instr[3]
        elif tag == "STR":
            self.pc = instr[4]
        else:
            self.pc = instr[2]
        return "jump"

    def _i_switch_on_constant(self, instr):
        cell = self.deref_cell(self.x[0])
        self.pc = instr[1].get((_KEY_KIND[cell[0]], cell[1]), instr[2])
        return "jump"

    def _i_switch_on_structure(self, instr):
        cell = self.deref_cell(self.x[0])
        fid = self.heap[cell[1]][1]
        self.pc = instr[1].get(("fun", fid), instr[2])
        return "jump"

    # --- cut -------------------------------------------------------------------

    def _i_neck_cut(self, instr):
        self.b = self.b0

    def _i_get_level(self, instr):
        self.e.slots[instr[1][1]] = ("LVL", self.b0)

    def _i_cut(self, instr):
        cell = self.e.slots[instr[1][1]]
        assert cell is not None and cell[0] == "LVL"
        self.b = cell[1]

    # --- escapes -----------------------------------------------------------------

    def _i_escape(self, instr):
        arity = instr[2]
        self.pc = instr[3]      # built-ins see the continuation (call/N)
        fn = self.builtins[(instr[1], arity)]
        args = self.x[:arity]
        self._pending_arity = arity
        result = fn(self, args)
        if result is True or result == "dispatched":
            # "dispatched": the built-in transferred control (call/N).
            return "jump"
        if result is False:
            return "fail"
        # Non-deterministic built-in: a generator of solutions.
        return self._escape_generator(result)

    def _i_arith(self, instr):
        if not instr[4](self):      # the closure Block.bind built
            return "fail"

    def _escape_generator(self, gen):
        self._push_cp(self.code, self.pc, gen)
        cp = self.b
        try:
            next(gen)
        except StopIteration:
            self.b = cp.prev
            return "fail"
        return "jump"

    def _i_fail(self, instr):
        return "fail"

    def _i_noop(self, instr):
        return None

    def _i_halt(self, instr):
        return "halt"

    # ===================================================== metacall

    def _metacall(self, goal_cell):
        """Call a goal given as a heap cell (``call/1`` and query entry)."""
        cell = self.deref_cell(goal_cell)
        tag, a = cell
        if tag == "REF":
            raise InstantiationError("call/1: unbound goal")
        if tag == "CON":
            name, arity, args = self.dictionary.name(a), 0, []
        elif tag == "STR":
            name, arity = self.dictionary.functor(self.heap[a][1])
            args = self.heap[a + 1:a + 1 + arity]
        else:
            raise TypeError_("callable", self.extract(cell))
        if (name, arity) in INLINE_CONTROL or is_builtin_indicator(
                name, arity):
            # A control construct or built-in runs as a one-clause
            # procedure compiled once per shape (§3.1).
            args = []
            shape = self._goal_shape(cell, args, {}, "goal")
            name, arity = (self._metacall_cache.get(shape)
                           or self._define_shape(shape, len(args)))
        self.x[:arity] = args            # grows the register file if needed
        self.calls += 1
        self.b0 = self.b
        return self._dispatch_call(self.dictionary.intern(name, arity), arity)

    def _define_shape(self, shape, arity: int) -> Tuple[str, int]:
        head_vars = [Var() for _ in range(arity)]
        name = self.ctx.fresh_aux_name("$call", arity)
        head = Struct(name, tuple(head_vars)) if arity else Atom(name)
        self.define_procedure(name, arity, [Struct(":-", (
            head, self._shape_term(shape, head_vars)))], index=False)
        self._metacall_cache[shape] = (name, arity)
        return name, arity

    def _goal_shape(self, cell, params: list, seen: dict, role: str):
        """The cache key of a goal: functor ids and constants, the goal
        positions of control constructs (META_GOAL_ARGS) kept, and an int
        per head parameter — a variable, a number that is an argument of
        a goal, or a cyclic term's back edge; their cells go to *params*.
        *seen* maps a variable's address to its index and holds the
        compound cells on the current path."""
        cell = self.deref_cell(cell)
        tag, a = cell
        if tag == "REF" or cell in seen or (role == "arg"
                                            and tag in ("INT", "FLT")):
            key = a if tag == "REF" else object()   # only variables repeat
            if key not in seen:
                seen[key] = len(params)
                params.append(cell)
            return seen[key]
        if tag == "LIS":
            fid, a = self.dictionary.intern(".", 2), a - 1
        elif tag == "STR":
            fid = self.heap[a][1]
        else:
            return cell
        ind = self.dictionary.functor(fid)
        goals = (META_GOAL_ARGS.get(ind, ()) if role == "goal"
                 and ind in INLINE_CONTROL else ())
        seen[cell] = None
        shape = (fid,) + tuple(
            self._goal_shape(self.heap[a + 1 + k], params, seen,
                             "goal" if k in goals else
                             "arg" if role == "goal" else "term")
            for k in range(ind[1]))
        del seen[cell]
        return shape

    def _shape_term(self, shape, head_vars: List[Var]) -> Term:
        """The goal of *shape* over the head parameters *head_vars*."""
        if isinstance(shape, int):
            return head_vars[shape]
        if isinstance(shape[0], str):
            return self._extract(shape, {})
        name, _ = self.dictionary.functor(shape[0])
        return Struct(name, tuple(self._shape_term(s, head_vars)
                                  for s in shape[1:]))

    # ===================================================== GC hook

    def _maybe_gc(self) -> None:
        """Call/proceed safe point, taken once the heap outgrows
        ``_heap_mark``: track the high-water mark, collect when due."""
        if len(self.heap) > self.heap_high_water:
            self.heap_high_water = len(self.heap)
        if (self.gc_enabled
                and len(self.heap) - self._gc_floor >= self.gc_threshold):
            from .gc import collect_heap
            recovered = collect_heap(self)
            self.gc_runs += 1
            self.gc_cells_recovered += recovered
            self._gc_floor = len(self.heap)
        self._heap_mark = (min(self.heap_high_water,
                               self._gc_floor + self.gc_threshold - 1)
                           if self.gc_enabled else self.heap_high_water)

    # ===================================================== misc accessors

    def counters(self) -> dict:
        out = {
            "instr_count": self.instr_count,
            "data_refs": self.data_refs,
            "cp_refs": self.cp_refs,
            "cp_created": self.cp_created,
            "backtracks": self.backtracks,
            "calls": self.calls,
            "unify_ops": self.unify_ops,
            "compile_count": self.compile_count,
            "heap_high_water": self.heap_high_water,
            "gc_runs": self.gc_runs,
            "gc_cells_recovered": self.gc_cells_recovered,
        }
        if self.profiler is not None:
            out.update(self.profiler.counters())
        return out
