"""Code blocks as the emulator runs them (paper §3.1, §3.2).

Everything that produces or reads WAM code — the compiler and the
indexer, the codec, the verifier, the disassembler, EXPLAIN — sees a
block as a list of instruction tuples (:mod:`repro.wam.instructions`).
A :class:`Block` is such a list, made by
:func:`repro.wam.indexing.build_procedure_code` (the one place the
machine, the library image and the EDB loader build blocks), plus what
:meth:`Machine._run <repro.wam.machine.Machine._run>` needs to pay its
interpretation overhead once per straight-line run instead of once per
instruction.  :meth:`Block.bind` works that out once per block, when the
block is first called (``Machine.fit``): a block that never runs costs
no more than its list, and the library's blocks, which every session of
the process shares (:func:`repro.wam.prelude.library_image`), are bound
once per process.  ``run`` is published last, so sessions binding one
block at the same time install equal results.

* ``run`` — the instructions with their operands bound.  A bound
  instruction is its source tuple with operands *appended*
  (:data:`SOURCE_WIDTH` says where the source form ends): a constant's
  heap cell, a functor's ``FUN`` cell, an ``arith`` instruction's
  closure (:func:`repro.wam.arith.closure`), and — for instructions
  that save the current position — the offset of the next
  instruction.  Cells are made from the source
  operand's own value, so ``0.0``/``-0.0`` and ``1``/``1.0`` stay four
  different constants.
* ``charge`` — per offset, ``(instructions, data refs)`` from that
  offset to the end of its straight-line run, then the same again
  unless the previous instruction ended a run (what a failure or an
  exception there leaves unexecuted).  A run ends at every instruction
  in :data:`ENDS_RUN`: the ones that move control, and ``escape``,
  whose built-in may read the counters (``arith`` reads none).
* ``xregs`` — the X registers the block touches (``arith`` trees
  included), so the register file grows when a block is installed and
  never in a handler.
"""

from __future__ import annotations

from typing import Dict, Iterable

from . import arith
from . import instructions as I

# Rough data-reference cost (register/heap/stack accesses) per opcode,
# excluding the choice-point traffic which is counted separately.
DATA_COST = {
    I.GET_VARIABLE: 2, I.GET_VALUE: 3, I.GET_CONSTANT: 2, I.GET_NIL: 2,
    I.GET_STRUCTURE: 3, I.GET_LIST: 3,
    I.PUT_VARIABLE: 3, I.PUT_VALUE: 2, I.PUT_UNSAFE_VALUE: 2,
    I.PUT_CONSTANT: 1, I.PUT_NIL: 1, I.PUT_STRUCTURE: 2, I.PUT_LIST: 2,
    I.UNIFY_VARIABLE: 2, I.UNIFY_VALUE: 3, I.UNIFY_LOCAL_VALUE: 3,
    I.UNIFY_CONSTANT: 2, I.UNIFY_NIL: 2, I.UNIFY_VOID: 1,
    I.ALLOCATE: 3, I.DEALLOCATE: 2, I.CALL: 2, I.EXECUTE: 1, I.PROCEED: 1,
    I.SWITCH_ON_TERM: 1, I.SWITCH_ON_CONSTANT: 1, I.SWITCH_ON_STRUCTURE: 2,
    I.NECK_CUT: 1, I.GET_LEVEL: 1, I.CUT: 1,
    I.ESCAPE: 2, I.ARITH: 2, I.FAIL_OP: 0, I.NOOP: 0, I.HALT_SUCCESS: 0,
    I.TRY_ME_ELSE: 0, I.RETRY_ME_ELSE: 0, I.TRUST_ME: 0,
    I.TRY: 0, I.RETRY: 0, I.TRUST: 0,
}

#: instructions that end a straight-line run
ENDS_RUN = frozenset({
    I.CALL, I.EXECUTE, I.PROCEED, I.TRY, I.RETRY, I.TRUST,
    I.SWITCH_ON_TERM, I.SWITCH_ON_CONSTANT, I.SWITCH_ON_STRUCTURE,
    I.ESCAPE, I.FAIL_OP, I.HALT_SUCCESS,
})

#: tuple length of the source form of each instruction
#: :meth:`Block.bind` extends (opcode included); every other bound
#: instruction *is* its source tuple
SOURCE_WIDTH = {
    I.GET_CONSTANT: 3, I.PUT_CONSTANT: 3, I.UNIFY_CONSTANT: 2,
    I.GET_STRUCTURE: 3, I.PUT_STRUCTURE: 3,
    I.CALL: 3, I.TRY: 2, I.RETRY: 2, I.ESCAPE: 3, I.ARITH: 4,
}

_CELL_TAG = {"atom": "CON", "int": "INT", "flt": "FLT"}

#: charge entries are small repeating tuples; one object per value
_CHARGES: Dict[tuple, tuple] = {}

#: where each opcode names registers
_REGISTERS = {
    I.GET_VARIABLE: (1, 2), I.GET_VALUE: (1, 2), I.GET_CONSTANT: (2,),
    I.GET_NIL: (1,), I.GET_STRUCTURE: (2,), I.GET_LIST: (1,),
    I.PUT_VARIABLE: (1, 2), I.PUT_VALUE: (1, 2), I.PUT_UNSAFE_VALUE: (1, 2),
    I.PUT_CONSTANT: (2,), I.PUT_NIL: (1,), I.PUT_STRUCTURE: (2,),
    I.PUT_LIST: (1,), I.UNIFY_VARIABLE: (1,), I.UNIFY_VALUE: (1,),
    I.UNIFY_LOCAL_VALUE: (1,),
}


def _cell(cells: Dict[tuple, tuple], const: tuple) -> tuple:
    """The heap cell of a constant operand, made from its own value.
    Atom and integer cells are shared by value within a block — an
    int-typed key cannot confuse 1 with 1.0, or 0.0 with -0.0."""
    if const[1].__class__ is not int:
        return (_CELL_TAG[const[0]], const[1])
    cell = cells.get(const)
    if cell is None:
        cell = cells[const] = (_CELL_TAG[const[0]], const[1])
    return cell


def _bound(instr: tuple, cells: Dict[tuple, tuple]) -> tuple:
    """*instr*, one that carries constants, a functor or arithmetic,
    with its bound operands appended (module docstring)."""
    op = instr[0]
    if op in (I.GET_CONSTANT, I.PUT_CONSTANT, I.UNIFY_CONSTANT):
        return instr + (_cell(cells, instr[1]),)
    if op == I.ARITH:
        return instr + (arith.closure(instr),)
    return instr + (("FUN", instr[1]),)


class Block(list):
    """A code block: its instructions as every reader sees them, plus —
    once :meth:`bind` has run — the bound form the emulator runs (see
    the module docstring).  ``run`` is None until then."""

    __slots__ = ("run", "charge", "xregs")

    def __init__(self, code: Iterable[tuple] = ()):
        super().__init__(code)
        self.run = None

    def bind(self) -> "Block":
        """Fill in ``run``, ``charge`` and ``xregs``; returns the block."""
        n = len(self)
        run = self[:]
        charge = [None] * (n + 1)
        charges = _CHARGES
        cells: Dict[tuple, tuple] = {}
        count = cost = xregs = 0        # what is left of the run after i
        for i in range(n - 1, -1, -1):
            instr = run[i]
            op = instr[0]
            if op in ENDS_RUN:
                # after instruction i fails, the rest of its run is
                # refunded — nothing when i ends the run
                key = (count, cost, 0, 0)
                count, cost = 1, DATA_COST[op]
                if op in SOURCE_WIDTH:      # call, try, retry, escape
                    run[i] = instr + (i + 1,)
                if op in (I.CALL, I.EXECUTE, I.ESCAPE) and instr[2] > xregs:
                    xregs = instr[2]
            else:
                key = (count, cost, count, cost)
                count += 1
                cost += DATA_COST[op]
                for reg in (sum(arith.registers(instr), []) if op == I.ARITH
                            else [instr[k] for k in _REGISTERS.get(op, ())]):
                    if reg[0] == "x" and reg[1] >= xregs:
                        xregs = reg[1] + 1
                if op in SOURCE_WIDTH:
                    run[i] = _bound(instr, cells)
            charge[i + 1] = charges.get(key) or charges.setdefault(key, key)
        key = (count, cost, 0, 0)
        charge[0] = charges.get(key) or charges.setdefault(key, key)
        self.charge = charge
        self.xregs = xregs
        self.run = run
        return self
