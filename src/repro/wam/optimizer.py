"""WAM code optimizer: peephole fusion + determinism-driven dispatch.

Two passes over procedure code, both proven safe before their output is
ever executed (docs/OPTIMIZER.md):

* **Peephole / superinstruction fusion** rewrites runs of adjacent
  instructions inside one clause's code into fused instructions
  executed natively by :mod:`repro.wam.machine` under a single
  dispatch — ``get_constants``, ``unify_constants``,
  ``get_list_vv`` and ``put_args``.  Each fused handler executes the
  exact semantics of the run it replaces, in order, so fusion is
  observationally equivalent by construction; what changes is the
  interpretation overhead (``instr_count``), the cost the paper's
  compiled-vs-interpreted argument hinges on (§2.1, §3.2.1).

* **Determinism-driven dispatch** consults the same per-argument
  partition analysis as :mod:`repro.analysis.determinism`:
  when every clause of a try/retry/trust chain holds a pairwise-distinct
  constant at some argument position, at most one clause can match any
  bound value, so the chain is demoted behind a ``switch_on_arg`` guard
  — a bound call dispatches straight to its clause entry with **no
  choice point**, extending the paper's first-argument determinism
  transformation (§3.2.2) to every argument position and to unindexed
  chains.

Safety gate
-----------
Every optimized block must pass ``verify="full"`` (structural V rules +
the abstract interpreter, both extended with the fused opcodes) plus the
D301/D302 determinism analysis before it replaces the naive block.  Any
finding — or an armed forced reject, the FaultInjector-style test hook —
falls back to the unoptimized block and bumps ``wam_opt_rejects``;
unverified optimized code is never executed.

The ``optimize="off"|"full"`` knob (``"full"`` runs both passes)
threads through :class:`~repro.wam.machine.Machine`, the EDB dynamic
loader, the session config and the REPL's ``:optimize`` command.  The
suite-wide default is set with :func:`set_default_level`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import VerifyError
from . import instructions as I
from .block import Block
from .compiler import CompiledClause
from .indexing import build_procedure_code, build_procedure_layout

__all__ = ["OPT_LEVELS", "Optimizer", "build_optimized_block",
           "chain_guard", "default_level", "fuse_code",
           "set_default_level"]

#: accepted optimization levels (docs/OPTIMIZER.md)
OPT_LEVELS = ("off", "full")

#: process-wide default level for machines/sessions constructed with
#: ``optimize=None``; the test suite flips it to "full" in conftest.py
_DEFAULT_LEVEL = "off"


def set_default_level(level: str) -> None:
    """Set the process-wide default optimization level."""
    global _DEFAULT_LEVEL
    if level not in OPT_LEVELS:
        raise ValueError(
            f"optimize={level!r}: expected one of {OPT_LEVELS}")
    _DEFAULT_LEVEL = level


def default_level() -> str:
    return _DEFAULT_LEVEL


# =====================================================================
# Peephole / superinstruction fusion
# =====================================================================

_MIN_RUN = 2
_PUT_RUN_OPS = (I.PUT_VALUE, I.PUT_CONSTANT)


def fuse_code(code: Sequence[tuple]) -> Tuple[List[tuple], int]:
    """One peephole pass over a clause's (label-free, linear) code.

    Returns ``(fused_code, fusions)`` where *fusions* counts the fused
    instructions emitted.  The fusion table lives in docs/OPTIMIZER.md;
    every rule replaces an adjacent run with one fused instruction whose
    handler executes the component semantics in source order.
    """
    out: List[tuple] = []
    fusions = 0
    i, n = 0, len(code)
    while i < n:
        instr = code[i]
        op = instr[0]
        if op == I.GET_CONSTANT:
            j = i
            while j < n and code[j][0] == I.GET_CONSTANT:
                j += 1
            if j - i >= _MIN_RUN:
                out.append((I.GET_CONSTANTS, tuple(
                    (code[k][1], code[k][2]) for k in range(i, j))))
                fusions += 1
                i = j
                continue
        elif op == I.UNIFY_CONSTANT:
            j = i
            while j < n and code[j][0] == I.UNIFY_CONSTANT:
                j += 1
            if j - i >= _MIN_RUN:
                out.append((I.UNIFY_CONSTANTS,
                            tuple(code[k][1] for k in range(i, j))))
                fusions += 1
                i = j
                continue
        elif (op == I.GET_LIST and i + 2 < n
              and code[i + 1][0] == I.UNIFY_VARIABLE
              and code[i + 2][0] == I.UNIFY_VARIABLE):
            out.append((I.GET_LIST_VV, instr[1],
                        code[i + 1][1], code[i + 2][1]))
            fusions += 1
            i += 3
            continue
        elif op in _PUT_RUN_OPS:
            j = i
            while j < n and code[j][0] in _PUT_RUN_OPS:
                j += 1
            if j - i >= _MIN_RUN:
                out.append((I.PUT_ARGS, tuple(
                    ("v", code[k][1], code[k][2])
                    if code[k][0] == I.PUT_VALUE
                    else ("c", code[k][1], code[k][2])
                    for k in range(i, j))))
                fusions += 1
                i = j
                continue
        out.append(instr)
        i += 1
    return out, fusions


# =====================================================================
# Determinism-driven chain demotion
# =====================================================================

def chain_guard(clauses: Sequence[CompiledClause],
                positions: Sequence[int], min_arg: int
                ) -> Optional[Tuple[int, Dict[tuple, int]]]:
    """``(argpos, {const_key: clause position})`` when the chain over
    *positions* is provably deterministic on some argument ≥ *min_arg*:
    every clause holds a constant there and the constants are pairwise
    distinct, so a bound value selects at most one clause (and a bound
    list/structure selects none).  ``None`` when no such position
    exists or any clause lacks per-argument key metadata.
    """
    chain = [clauses[p] for p in positions]
    if len(chain) < 2:
        return None
    arity = chain[0].arity
    if any(c.arg_keys is None or len(c.arg_keys) != arity for c in chain):
        return None
    for k in range(min_arg, arity):
        keys = []
        for c in chain:
            kind, key = c.arg_keys[k]
            if kind not in ("constant", "nil") or key is None:
                keys = None
                break
            keys.append(key)
        if keys is not None and len(set(keys)) == len(keys):
            return k, {key: positions[i] for i, key in enumerate(keys)}
    return None


# =====================================================================
# The optimizer object
# =====================================================================

class Optimizer:
    """Level knob + statistics + the verify/fallback gate.

    One instance is shared per session between the machine and the
    dynamic loader so the ``wam_opt_*`` counters aggregate in one place
    (they surface through ``Machine.counters()`` into the metrics
    registry and the Prometheus exposition).
    """

    def __init__(self, level: Optional[str] = None):
        resolved = _DEFAULT_LEVEL if level is None else level
        if resolved not in OPT_LEVELS:
            raise ValueError(
                f"optimize={resolved!r}: expected one of {OPT_LEVELS}")
        self.level = resolved
        #: blocks built through the optimizing path (level != off)
        self.blocks = 0
        #: fused superinstructions emitted by the peephole pass
        self.fusions = 0
        #: try/retry/trust chains demoted behind a switch_on_arg guard
        self.chains_demoted = 0
        #: optimized blocks rejected by the gate (fell back to naive code)
        self.rejects = 0
        #: (procedure, rule, offset) of the most recent gate rejection
        self.last_reject: Optional[tuple] = None
        #: flight recorder for ``wam_opt.reject`` events — the session
        #: wires its store's ring here so gate fallbacks show up in
        #: ``:events`` and slow-query captures (None = not wired)
        self.events = None
        self._armed_rejects = 0
        self._muted = 0

    # ------------------------------------------------------------ level

    @property
    def enabled(self) -> bool:
        return self.level != "off"

    def set_level(self, level: str) -> None:
        if level not in OPT_LEVELS:
            raise ValueError(
                f"optimize={level!r}: expected one of {OPT_LEVELS}")
        self.level = level

    # ------------------------------------------------------- pass hooks

    def fuse_compiled(self, clause: CompiledClause) -> CompiledClause:
        """Peephole-fuse one clause's code; the clause object is never
        mutated (dynamic procedures keep their per-clause cache)."""
        code, fusions = fuse_code(clause.code)
        if not fusions:
            return clause
        if not self._muted:
            self.fusions += fusions
        return replace(clause, code=code)

    def plan_guard(self, clauses: Sequence[CompiledClause],
                   positions: Sequence[int], min_arg: int
                   ) -> Optional[Tuple[int, Dict[tuple, int]]]:
        """:func:`chain_guard`, counted in ``wam_opt_chains_demoted``:
        the guard planner :mod:`repro.wam.indexing` emits from."""
        guard = chain_guard(clauses, positions, min_arg)
        if guard is not None and not self._muted:
            self.chains_demoted += 1
        return guard

    @contextmanager
    def muted(self):
        """Suspend statistics while rebuilding for the D301 check, so
        the verification rebuild does not double-count the passes."""
        self._muted += 1
        try:
            yield
        finally:
            self._muted -= 1

    # ------------------------------------------------------------- gate

    def arm_reject(self, count: int = 1) -> None:
        """FaultInjector-style test hook: force the next *count* gated
        blocks to be rejected (and fall back to unoptimized code)."""
        self._armed_rejects += count

    def gate(self, clauses: Sequence[CompiledClause], layout,
             index: bool, dictionary, procedure: str) -> None:
        """Raise :class:`VerifyError` unless the optimized *layout* is
        provably safe: verify="full" clean and D301/D302 clean."""
        if self._armed_rejects > 0:
            self._armed_rejects -= 1
            raise VerifyError("F901", 0, "forced optimizer reject "
                              "(armed test fault)", procedure)
        from ..analysis.verifier import verify_code
        verify_code(layout.code, arity=clauses[0].arity,
                    dictionary=dictionary, level="full",
                    procedure=procedure)
        from ..analysis.determinism import analyze_clauses
        with self.muted():
            report = analyze_clauses(clauses, code=layout.code,
                                     index=index, optimizer=self)
        if report.findings:
            first = report.findings[0]
            raise VerifyError(first.rule, first.offset, first.message,
                              procedure)

    # --------------------------------------------------------- counters

    def counters(self) -> dict:
        return {
            "wam_opt_blocks": self.blocks,
            "wam_opt_fusions": self.fusions,
            "wam_opt_chains_demoted": self.chains_demoted,
            "wam_opt_rejects": self.rejects,
        }

    def reset_counters(self) -> None:
        self.blocks = 0
        self.fusions = 0
        self.chains_demoted = 0
        self.rejects = 0


def build_optimized_block(clauses: Sequence[CompiledClause],
                          index: bool = True,
                          optimizer: Optional[Optimizer] = None,
                          dictionary=None,
                          procedure: str = "") -> Block:
    """Build a procedure block, optimizing when an enabled *optimizer*
    is supplied.  The optimized block replaces the naive one **only**
    after passing the full verification gate; any finding falls back to
    the unoptimized block (counted in ``wam_opt_rejects``).  Either way
    it comes back as a :class:`~repro.wam.block.Block`, which the
    emulator binds at its first call."""
    clauses = list(clauses)
    if optimizer is None or not optimizer.enabled or not clauses:
        return Block(build_procedure_code(clauses, index=index))
    optimizer.blocks += 1
    layout = build_procedure_layout(clauses, index=index,
                                    optimizer=optimizer)
    try:
        optimizer.gate(clauses, layout, index=index,
                       dictionary=dictionary, procedure=procedure)
    except VerifyError as exc:
        optimizer.rejects += 1
        optimizer.last_reject = (procedure, exc.rule, exc.offset)
        events = optimizer.events
        if events is not None and events.enabled:
            events.record("wam_opt.reject", procedure=procedure or "?",
                          rule=exc.rule, offset=exc.offset)
        return Block(build_procedure_code(clauses, index=index))
    return Block(layout.code)
