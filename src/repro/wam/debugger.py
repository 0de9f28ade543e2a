"""Debugging aids: symbolic disassembly, tracing, spypoints.

The paper's acknowledgements credit Michael Dahmen "for such a powerful
debugger"; this module is the reproduction's equivalent:

* :func:`disassemble` — procedure listing with dictionary identifiers
  resolved back to functor names (readable WAM code);
* :class:`Tracer` — per-instruction trace with optional spypoints on
  predicate indicators, capturing call/instruction streams;
* :func:`instruction_profile` — opcode histogram for a goal, the raw
  material behind the paper's instruction-mix arguments (§2.1, §3.2.1).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ExistenceError
from . import instructions as I
from .block import SOURCE_WIDTH


def _fmt_tree(node: tuple) -> str:
    """An ``arith`` tree in prefix form, ``+(*(X3, 60), X4)``; a
    first-occurrence target reads ``new Y0``."""
    if node[0] == "fn":
        args = ", ".join(map(_fmt_tree, node[2:]))
        return f"{node[1]}({args})" if args else node[1]
    if node[0] == "set":
        return "new " + _fmt_tree(node[1])
    return (node[0].upper() if node[0] in ("x", "y") else "") + str(node[1])


def _fmt_operand(machine, op: str, pos: int, operand) -> str:
    d = machine.dictionary
    if op == I.ARITH:
        return operand if pos == 1 else _fmt_tree(operand)
    if isinstance(operand, tuple) and len(operand) == 2:
        kind = operand[0]
        if kind in ("x", "y"):
            return f"{kind.upper()}{operand[1]}"
        if kind == "atom":
            try:
                return f"'{d.name(operand[1])}'"
            except Exception:
                return repr(operand)
        if kind in ("int", "flt"):
            return str(operand[1])
    if op in (I.GET_STRUCTURE, I.PUT_STRUCTURE) and pos == 1:
        try:
            name, arity = d.functor(operand)
            return f"{name}/{arity}"
        except Exception:
            return repr(operand)
    if op in (I.CALL, I.EXECUTE) and pos == 1:
        try:
            name, arity = d.functor(operand)
            return f"{name}/{arity}"
        except Exception:
            return repr(operand)
    if isinstance(operand, dict):
        parts = []
        for key, target in operand.items():
            if key[0] == "atom":
                try:
                    parts.append(f"'{d.name(key[1])}'->{target}")
                    continue
                except Exception:
                    pass
            if key[0] == "fun":
                try:
                    name, arity = d.functor(key[1])
                    parts.append(f"{name}/{arity}->{target}")
                    continue
                except Exception:
                    pass
            parts.append(f"{key[1]}->{target}")
        return "{" + ", ".join(parts) + "}"
    return repr(operand)


def format_instruction(machine, instr: tuple) -> str:
    op = instr[0]
    operands = ", ".join(
        _fmt_operand(machine, op, i, operand)
        for i, operand in enumerate(instr[1:], start=1))
    return f"{op} {operands}".rstrip()


def disassemble(machine, name: str, arity: int) -> str:
    """Symbolic listing of a compiled procedure."""
    proc = machine.procedure(name, arity)
    if proc is None:
        raise ExistenceError("procedure", f"{name}/{arity}")
    if proc.kind == "dynamic" and (proc.dirty or proc.code is None):
        machine.refresh(proc)
    if proc.code is None:
        raise ExistenceError("compiled code", f"{name}/{arity}")
    lines = [f"% {name}/{arity} ({proc.kind})"]
    for offset, instr in enumerate(proc.code):
        lines.append(f"{offset:4d}  {format_instruction(machine, instr)}")
    return "\n".join(lines)


class Tracer:
    """Instruction/call tracer with spypoints.

    >>> tracer = Tracer(machine, spypoints=[("append", 3)])
    >>> with tracer:
    ...     machine.solve_once("append([1], [2], L)")
    >>> tracer.calls
    [('append', 3), ...]
    """

    def __init__(self, machine, spypoints=None,
                 sink: Optional[Callable[[str], None]] = None,
                 max_events: int = 100_000):
        self.machine = machine
        self.spypoints = set(spypoints or [])
        self.sink = sink
        self.max_events = max_events
        self.events: List[str] = []
        self.calls: List[Tuple[str, int]] = []
        self.opcode_counts: Counter = Counter()

    # -------------------------------------------------------- context mgmt

    def __enter__(self) -> "Tracer":
        self._saved = self.machine.trace_hook
        self.machine.trace_hook = self._on_instruction
        return self

    def __exit__(self, *exc) -> None:
        self.machine.trace_hook = self._saved
        return None

    # ------------------------------------------------------------- the hook

    def _on_instruction(self, machine, instr) -> None:
        op = instr[0]
        self.opcode_counts[op] += 1
        if op in (I.CALL, I.EXECUTE):
            try:
                indicator = machine.dictionary.functor(instr[1])
            except Exception:
                indicator = ("?", -1)
            self.calls.append(indicator)
            if not self.spypoints or indicator in self.spypoints:
                self._emit(f"{op} {indicator[0]}/{indicator[1]}")
        elif not self.spypoints and len(self.events) < self.max_events:
            self._emit(format_instruction(machine, instr))

    def _emit(self, text: str) -> None:
        if len(self.events) < self.max_events:
            self.events.append(text)
        if self.sink is not None:
            self.sink(text)


def traced_dispatch(machine, dispatch: Dict[str, Callable],
                    hook: Callable) -> Dict[str, Callable]:
    """*dispatch* with ``hook(machine, instr)`` called before every
    handler — what ``Machine._run`` runs while ``machine.trace_hook`` is
    set.  The hook sees each instruction in its source form: a bound
    instruction's appended operands are cut off.  Pre-unification keeps
    calling the unwrapped table."""
    def traced(handler, width):
        def step(instr):
            hook(machine, instr[:width])
            return handler(instr)
        return step
    return {op: traced(handler, SOURCE_WIDTH.get(op))
            for op, handler in dispatch.items()}


def instruction_profile(machine, goal) -> Dict[str, int]:
    """Opcode histogram for solving *goal* once."""
    tracer = Tracer(machine, spypoints=[("$none", 0)])
    with tracer:
        machine.solve_once(goal)
    return dict(tracer.opcode_counts)
