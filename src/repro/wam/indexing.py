"""First-argument indexing on type and value (paper §3.2.2).

For a multi-clause procedure we emit a ``switch_on_term`` dispatching on
the dereferenced first argument's *type*:

* unbound  → the full ``try_me_else`` chain over all clauses;
* constant → ``switch_on_constant`` over the clause set keyed by value;
* list     → the chain of list-headed (plus var-headed) clauses;
* structure→ ``switch_on_structure`` keyed by functor.

Clauses whose first head argument is a variable match *every* key and are
woven into each chain at their original position, preserving the standard
clause-selection order.  When the matching set for a key is a single
clause, the switch jumps straight to the clause code — **no choice point
is created**, which is precisely the determinism transformation the paper
credits with eliminating the dominant class of data references (§3.2.1).

The paper also notes that indexing on *type* is "a feature of no value to
a relational DBMS [but] very effective in an inferential engine"; the
type dispatch of ``switch_on_term`` is that feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import instructions as I
from .assembler import assemble, assemble_with_offsets
from .block import Block
from .compiler import CompiledClause

_FAIL_LABEL = "$fail"


@dataclass
class ProcedureLayout:
    """An assembled procedure block plus its structural map — where each
    clause's code begins and where the shared failure sentinel sits.
    The determinism analysis (:mod:`repro.analysis.determinism`) uses
    the entry offsets to check switch-table coverage and reachability.
    """

    code: List[tuple]
    #: per-clause entry offset (past the choice instruction, the target
    #: indexed jumps use) in clause-source order
    entries: List[int] = field(default_factory=list)
    #: offset of the trailing ``fail`` sentinel, when one was emitted
    fail_offset: Optional[int] = None


def build_procedure_code(
    clauses: Sequence[CompiledClause], index: bool = True,
) -> Block:
    """Combine compiled clauses into one code block with choice
    instructions and (optionally) first-argument indexing."""
    return Block(build_procedure_layout(clauses, index=index).code)


def build_procedure_layout(
    clauses: Sequence[CompiledClause], index: bool = True,
) -> ProcedureLayout:
    """As :func:`build_procedure_code`, keeping the layout map."""
    if not clauses:
        return ProcedureLayout(code=assemble([(I.FAIL_OP,)]))

    if len(clauses) == 1:
        return ProcedureLayout(code=assemble(list(clauses[0].code)),
                               entries=[0])

    out: List[tuple] = []
    entry_labels = [f"$clause_{i}" for i in range(len(clauses))]

    use_switch = (
        index
        and clauses[0].arity > 0
        and any(c.first_arg_kind != "var" for c in clauses)
    )

    if use_switch:
        _emit_switch(out, clauses, entry_labels)

    # The variable-entry chain: try_me_else over all clauses, with clause
    # code inline.  Clause entry labels point past the choice instruction
    # so indexed jumps skip choice-point creation.
    out.append((I.LABEL, "$var_entry"))
    last = len(clauses) - 1
    for i, clause in enumerate(clauses):
        if i == 0:
            out.append((I.TRY_ME_ELSE, "$alt_1"))
        elif i < last:
            out.append((I.LABEL, f"$alt_{i}"))
            out.append((I.RETRY_ME_ELSE, f"$alt_{i + 1}"))
        else:
            out.append((I.LABEL, f"$alt_{i}"))
            out.append((I.TRUST_ME,))
        out.append((I.LABEL, entry_labels[i]))
        out.extend(clause.code)

    out.append((I.LABEL, _FAIL_LABEL))
    out.append((I.FAIL_OP,))
    code, offsets = assemble_with_offsets(out)
    return ProcedureLayout(
        code=code,
        entries=[offsets[label] for label in entry_labels],
        fail_offset=offsets[_FAIL_LABEL])


def _emit_switch(out: List[tuple], clauses: Sequence[CompiledClause],
                 entry_labels: List[str]) -> None:
    var_positions = [
        i for i, c in enumerate(clauses) if c.first_arg_kind == "var"
    ]

    # --- constants -----------------------------------------------------
    const_keys: List[tuple] = []
    for c in clauses:
        if c.first_arg_kind in ("constant", "nil") and c.first_arg_key not in const_keys:
            const_keys.append(c.first_arg_key)  # type: ignore[arg-type]
    # --- structures ----------------------------------------------------
    struct_keys: List[tuple] = []
    for c in clauses:
        if c.first_arg_kind == "structure" and c.first_arg_key not in struct_keys:
            struct_keys.append(c.first_arg_key)  # type: ignore[arg-type]
    has_list = any(c.first_arg_kind == "list" for c in clauses)

    chains: List[Tuple[str, List[int]]] = []  # (label, clause positions)

    def chain_label(positions: List[int], tag: str) -> str:
        """Label reaching exactly *positions* (direct jump when single)."""
        if not positions:
            return _FAIL_LABEL
        if len(positions) == 1:
            return entry_labels[positions[0]]
        label = f"$chain_{tag}_{len(chains)}"
        chains.append((label, positions))
        return label

    # Constant dispatch.
    const_table: Dict[tuple, str] = {}
    for key in const_keys:
        positions = sorted(
            set(var_positions)
            | {
                i
                for i, c in enumerate(clauses)
                if c.first_arg_kind in ("constant", "nil")
                and c.first_arg_key == key
            }
        )
        const_table[key] = chain_label(positions, "con")
    const_default = chain_label(sorted(var_positions), "cdef")

    # Structure dispatch.
    struct_table: Dict[tuple, str] = {}
    for key in struct_keys:
        positions = sorted(
            set(var_positions)
            | {
                i
                for i, c in enumerate(clauses)
                if c.first_arg_kind == "structure" and c.first_arg_key == key
            }
        )
        struct_table[key] = chain_label(positions, "str")
    struct_default = chain_label(sorted(var_positions), "sdef")

    # List dispatch.
    list_positions = sorted(
        set(var_positions)
        | {i for i, c in enumerate(clauses) if c.first_arg_kind == "list"}
    )
    list_label = chain_label(list_positions, "lis") if (
        has_list or var_positions) else _FAIL_LABEL

    out.append((
        I.SWITCH_ON_TERM,
        "$var_entry",
        "$con_entry" if const_table else const_default,
        list_label,
        "$str_entry" if struct_table else struct_default,
    ))
    if const_table:
        out.append((I.LABEL, "$con_entry"))
        out.append((I.SWITCH_ON_CONSTANT, const_table, const_default))
    if struct_table:
        out.append((I.LABEL, "$str_entry"))
        out.append((I.SWITCH_ON_STRUCTURE, struct_table, struct_default))

    # Emit the try/retry/trust chains.
    for label, positions in chains:
        out.append((I.LABEL, label))
        last = len(positions) - 1
        for j, pos in enumerate(positions):
            if j == 0:
                out.append((I.TRY, entry_labels[pos]))
            elif j < last:
                out.append((I.RETRY, entry_labels[pos]))
            else:
                out.append((I.TRUST, entry_labels[pos]))
