"""Pre-unification on external storage (paper §4).

"Bang can directly execute compiled code kept in the clauses relation.
However ... successful execution is a necessary but not sufficient
requirement" — the storage engine executes a clause's *head-argument
code* against the query's bound arguments to decide whether the clause
is worth loading at all.  Clauses that cannot match never reach the
emulator, so no choice point is ever created for them (§3.2.1).

Two layers:

* **attribute filtering** — :meth:`summaries_from_registers` turns the
  caller's argument registers into the typed summaries the per-procedure
  BANG relation is keyed on; the grid answers the partial match;
* **code execution** — :meth:`filter_by_execution` runs each candidate
  clause's ``get``/``unify`` prefix on the session emulator's own
  dispatch table against the live argument registers (``Machine`` owns
  what a head instruction does; this module only where the prefix
  ends), at a *depth*:

  - ``"none"`` — trust the attribute filter only;
  - ``"full"`` — execute the whole head prefix (exact filter).

  The paper leaves the depth "a matter for empirical experimentation";
  benchmark E9 runs it.  The loader runs this filter on every call that
  finds at least two candidates: what it rejects depends on nested
  values and aliased variables that no cache key holds, and its purpose
  in §4 is avoiding choice points — a lone candidate creates none.
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.tracing import NULL_TRACER
from ..wam import instructions as I
from ..wam.block import Block

#: the instructions that make up a clause's head prefix; the first
#: opcode outside this set (``get_level`` apart) ends the prefix
_HEAD_PREFIX_OPS = frozenset({
    I.ALLOCATE, I.GET_VARIABLE, I.GET_VALUE, I.GET_CONSTANT, I.GET_NIL,
    I.GET_STRUCTURE, I.GET_LIST,
    I.UNIFY_VARIABLE, I.UNIFY_VALUE, I.UNIFY_LOCAL_VALUE,
    I.UNIFY_CONSTANT, I.UNIFY_NIL, I.UNIFY_VOID,
})

DEPTHS = ("none", "full")


class PreUnifier:
    """Executes head code against query arguments, with undo."""

    def __init__(self, depth: str = "full"):
        if depth not in DEPTHS:
            raise ValueError(f"depth must be one of {DEPTHS}")
        self.depth = depth
        self.executions = 0
        self.rejections = 0
        self.tracer = NULL_TRACER  # session installs its shared tracer

    @staticmethod
    def summaries_from_registers(machine, arity: int) -> Dict[int, tuple]:
        """Typed summaries of the *bound* argument registers — the grid
        assignment for the per-procedure relation."""
        out: Dict[int, tuple] = {}
        for i in range(arity):
            cell = machine.deref_cell(machine.x[i])
            tag = cell[0]
            if tag == "REF":
                continue
            if tag == "CON":
                out[i] = ("atom", machine.dictionary.name(cell[1]))
            elif tag == "INT":
                out[i] = ("int", cell[1])
            elif tag == "FLT":
                out[i] = ("real", cell[1])
            elif tag == "LIS":
                out[i] = ("list",)
            else:  # STR
                fid = machine.heap[cell[1]][1]
                name, fa = machine.dictionary.functor(fid)
                out[i] = ("struct", name, fa)
        return out

    def filter_by_execution(self, machine, codes: List[list]) -> List[int]:
        """Indices of the clause *codes* whose head prefix executes
        successfully against the current argument registers — all of
        them at depth ``none``."""
        if self.depth == "none":
            return list(range(len(codes)))
        with self.tracer.span("preunify.filter", depth=self.depth,
                              candidates=len(codes)) as span:
            survivors = [idx for idx, code in enumerate(codes)
                         if self._head_matches(machine, code)]
            self.executions += len(codes)
            self.rejections += len(codes) - len(survivors)
            if span is not None:
                span.attrs["survivors"] = len(survivors)
        return survivors

    def _head_matches(self, machine, code: List[tuple]) -> bool:
        """Run the head prefix of *code* on the emulator's handlers; every
        side effect (bindings, heap, registers, environment) is undone.
        The handlers run bound instructions: the loader's clause code is
        a :class:`Block`, bound at its first filter; other code is bound
        here."""
        if not isinstance(code, Block):
            code = Block(code)
        # A barrier makes conditional trailing record every binding below
        # the heap top; popping it undoes them and truncates the heap.
        barrier = machine._push_barrier()
        saved = (machine.x[:], machine.e, machine.mode, machine.s)
        machine.fit(code)
        dispatch = machine._dispatch
        try:
            for instr in code.run:
                op = instr[0]
                if op == I.GET_LEVEL:
                    continue
                if op not in _HEAD_PREFIX_OPS:
                    break
                if dispatch[op](instr) == "fail":
                    return False
            return True
        finally:
            machine._pop_barrier(barrier)
            machine.x[:], machine.e, machine.mode, machine.s = saved
