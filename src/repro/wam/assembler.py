"""Label resolution for WAM code blocks.

Code generators emit ``(LABEL, name)`` pseudo-instructions and symbolic
label operands; :func:`assemble` strips the pseudo-instructions and
rewrites every label operand into an integer offset within the block.

The same pass is used by the compiler (procedure code) and by the
EDB dynamic loader, which splices control code around clause code
retrieved from secondary storage (paper §3.1: "adds procedural and other
forms of control code to the clausal code stored in the EDB").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import MachineError
from . import instructions as I

_LABEL_OPERAND_OPS = {
    I.TRY_ME_ELSE,
    I.RETRY_ME_ELSE,
    I.TRY,
    I.RETRY,
    I.TRUST,
}

#: When true, the compiler verifies every clause it emits and the
#: assembler every block it assembles (:mod:`repro.analysis.verifier`).
#: The one self-verify switch: set by
#: :func:`repro.analysis.enable_self_verify` (the test suite turns it
#: on); off in production, where the dynamic loader's structural gate
#: checks every fetched clause instead.
SELF_VERIFY = False


def assemble(code: List[tuple]) -> List[tuple]:
    """Resolve labels to offsets; returns a new executable code block."""
    return assemble_with_offsets(code)[0]


def assemble_with_offsets(code: List[tuple]
                          ) -> Tuple[List[tuple], Dict[str, int]]:
    """Like :func:`assemble`, but also return the label→offset map —
    the determinism analysis uses it to locate clause entry points in
    the assembled block."""
    offsets: Dict[str, int] = {}
    stripped: List[tuple] = []
    for instr in code:
        if instr[0] == I.LABEL:
            name = instr[1]
            if name in offsets:
                raise MachineError(f"duplicate label {name!r}")
            offsets[name] = len(stripped)
        else:
            stripped.append(instr)

    def resolve(label: str) -> int:
        if label not in offsets:
            raise MachineError(f"undefined label {label!r}")
        return offsets[label]

    out: List[tuple] = []
    for instr in stripped:
        op = instr[0]
        if op in _LABEL_OPERAND_OPS:
            out.append((op, resolve(instr[1])))
        elif op == I.SWITCH_ON_TERM:
            out.append((
                op,
                resolve(instr[1]),
                resolve(instr[2]),
                resolve(instr[3]),
                resolve(instr[4]),
            ))
        elif op in (I.SWITCH_ON_CONSTANT, I.SWITCH_ON_STRUCTURE):
            table = {key: resolve(lbl) for key, lbl in instr[1].items()}
            out.append((op, table, resolve(instr[2])))
        else:
            out.append(instr)
    if SELF_VERIFY:
        from ..analysis.verifier import verify_code
        verify_code(out, level="structural")
    return out, offsets
