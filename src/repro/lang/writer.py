"""Term writer: render terms back to Prolog text.

Two modes:

* **canonical** — ignores operators, quotes where needed; the output can
  always be re-read (used by the Educe baseline, which stores rules in the
  EDB *in source form*, §2 of the paper).
* **operator** — pretty form using the operator table (``writeq`` style).
"""

from __future__ import annotations

from typing import Optional

from ..terms import NIL, Atom, Struct, Term, Var, deref
from .operators import OperatorTable, default_operators
from .tokenizer import _SYMBOL_CHARS  # shared symbolic-char set

_ATOM_NOQUOTE = {"[]", "{}", "!", ";", ",", "|"}

#: The standard operator set, built once: rendering only looks operators
#: up.  Never handed out or mutated — a reader that takes ``op/3``
#: directives owns its own table (``default_operators()``).
_DEFAULT_OPERATORS = default_operators()


def _atom_needs_quotes(name: str) -> bool:
    if name in _ATOM_NOQUOTE:
        return False
    if not name:
        return True
    first = name[0]
    if first.islower() and all(c == "_" or c.isalnum() for c in name):
        return False
    if all(c in _SYMBOL_CHARS for c in name):
        return False
    return True


def _quote_atom(name: str) -> str:
    if not _atom_needs_quotes(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f"'{escaped}'"


def term_to_text(
    term: Term,
    operators: Optional[OperatorTable] = None,
    quoted: bool = True,
    max_priority: int = 1200,
) -> str:
    """Render *term* using operator notation (``writeq``-like)."""
    ops = operators or _DEFAULT_OPERATORS
    return _write(term, ops, quoted, max_priority, {})


def format_clause(term: Term, operators: Optional[OperatorTable] = None) -> str:
    """Render a clause with its terminating ``.`` — the exact source form
    the Educe baseline stores in the EDB."""
    return term_to_text(term, operators) + "."


def _var_name(var: Var, names: dict) -> str:
    name = names.get(id(var))
    if name is None:
        name = f"_G{len(names) + 1}"
        names[id(var)] = name
    return name


def _write(
    term: Term,
    ops: OperatorTable,
    quoted: bool,
    max_prio: int,
    names: dict,
) -> str:
    term = deref(term)

    if isinstance(term, Var):
        return _var_name(term, names)

    if isinstance(term, bool):  # guard: bools are not terms
        return "true" if term else "fail"

    if isinstance(term, int):
        return str(term)

    if isinstance(term, float):
        text = repr(term)
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"

    if isinstance(term, Atom):
        return _quote_atom(term.name) if quoted else term.name

    assert isinstance(term, Struct)

    # Lists.
    if term.name == "." and term.arity == 2:
        return _write_list(term, ops, quoted, names)

    # Curly term.
    if term.name == "{}" and term.arity == 1:
        inner = _write(term.args[0], ops, quoted, 1200, names)
        return "{" + inner + "}"

    # Operator notation.
    if term.arity == 2:
        op = ops.infix(term.name)
        if op is not None:
            left = _write(term.args[0], ops, quoted, op.left_max, names)
            right = _write(term.args[1], ops, quoted, op.right_max, names)
            name = term.name
            if name == ",":
                text = f"{left}{name}{right}"
            elif all(c in _SYMBOL_CHARS for c in name):
                # Keep symbol runs from merging on re-read: "3- -4", not
                # "3--4" (which would tokenize as the atom '--').
                lsep = " " if (left and left[-1] in _SYMBOL_CHARS) else ""
                rsep = " " if (right and right[0] in _SYMBOL_CHARS) else ""
                text = f"{left}{lsep}{name}{rsep}{right}"
            else:
                text = f"{left} {name} {right}"
            if op.priority > max_prio:
                return f"({text})"
            return text
    if term.arity == 1:
        op = ops.prefix(term.name)
        if op is not None:
            arg = _write(term.args[0], ops, quoted, op.right_max, names)
            sep = "" if all(c in _SYMBOL_CHARS for c in term.name) else " "
            # avoid gluing '-' onto a number or another symbol char
            if sep == "" and arg and (arg[0].isdigit() or arg[0] in _SYMBOL_CHARS):
                sep = " "
            text = f"{term.name}{sep}{arg}"
            if op.priority > max_prio:
                return f"({text})"
            return text
        op = ops.postfix(term.name)
        if op is not None:
            arg = _write(term.args[0], ops, quoted, op.left_max, names)
            text = f"{arg}{term.name}"
            if op.priority > max_prio:
                return f"({text})"
            return text

    # Plain functor application.
    head = _quote_atom(term.name) if quoted else term.name
    args = ",".join(_write(a, ops, quoted, 999, names) for a in term.args)
    return f"{head}({args})"


def _write_list(term: Struct, ops, quoted: bool, names: dict) -> str:
    parts = []
    cursor: Term = term
    while True:
        cursor = deref(cursor)
        if isinstance(cursor, Struct) and cursor.name == "." and cursor.arity == 2:
            parts.append(_write(cursor.args[0], ops, quoted, 999, names))
            cursor = cursor.args[1]
        elif cursor is NIL:
            return "[" + ",".join(parts) + "]"
        else:
            tail = _write(cursor, ops, quoted, 999, names)
            return "[" + ",".join(parts) + "|" + tail + "]"
