"""Prolog operator table.

Standard-Prolog operator definitions with the classic types:

=======  ==========================================
xfx      infix, neither side may have equal priority
xfy      infix, right-associative
yfx      infix, left-associative
fy       prefix, operand may have equal priority
fx       prefix, operand must have lower priority
xf / yf  postfix
=======  ==========================================

The table is a mutable object so programs can declare operators with
``:- op(P, Type, Name)`` directives, as Educe* supports for its extended
syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import TypeError_

PREFIX_TYPES = ("fy", "fx")
INFIX_TYPES = ("xfx", "xfy", "yfx")
POSTFIX_TYPES = ("xf", "yf")
ALL_TYPES = PREFIX_TYPES + INFIX_TYPES + POSTFIX_TYPES

MAX_PRIORITY = 1200


@dataclass(frozen=True)
class Op:
    """A single operator definition."""

    priority: int
    type: str
    name: str

    @property
    def left_max(self) -> int:
        """Maximum priority allowed for the left operand (infix/postfix)."""
        if self.type in ("yfx", "yf"):
            return self.priority
        return self.priority - 1

    @property
    def right_max(self) -> int:
        """Maximum priority allowed for the right operand (infix/prefix)."""
        if self.type in ("xfy", "fy"):
            return self.priority
        return self.priority - 1


# The standard table, extended with a few Educe*-style declarations that the
# workloads use (none conflict with ISO).
_DEFAULT_OPS = [
    (1200, "xfx", ":-"),
    (1200, "xfx", "-->"),
    (1200, "fx", ":-"),
    (1200, "fx", "?-"),
    (1150, "fx", "dynamic"),
    (1150, "fx", "discontiguous"),
    (1150, "fx", "multifile"),
    (1150, "fx", "pred"),
    (1150, "fx", "meta_predicate"),
    (1100, "xfy", ";"),
    (1100, "xfy", "|"),
    (1050, "xfy", "->"),
    (1050, "xfy", "*->"),
    (1000, "xfy", ","),
    (990, "xfx", ":="),
    (900, "fy", "\\+"),
    (700, "xfx", "="),
    (700, "xfx", "\\="),
    (700, "xfx", "=="),
    (700, "xfx", "\\=="),
    (700, "xfx", "@<"),
    (700, "xfx", "@>"),
    (700, "xfx", "@=<"),
    (700, "xfx", "@>="),
    (700, "xfx", "=.."),
    (700, "xfx", "is"),
    (700, "xfx", "=:="),
    (700, "xfx", "=\\="),
    (700, "xfx", "<"),
    (700, "xfx", ">"),
    (700, "xfx", "=<"),
    (700, "xfx", ">="),
    (500, "yfx", "+"),
    (500, "yfx", "-"),
    (500, "yfx", "/\\"),
    (500, "yfx", "\\/"),
    (500, "yfx", "xor"),
    (400, "yfx", "*"),
    (400, "yfx", "/"),
    (400, "yfx", "//"),
    (400, "yfx", "rem"),
    (400, "yfx", "mod"),
    (400, "yfx", "div"),
    (400, "yfx", "<<"),
    (400, "yfx", ">>"),
    (200, "xfx", "**"),
    (200, "xfy", "^"),
    (200, "fy", "-"),
    (200, "fy", "+"),
    (200, "fy", "\\"),
    (100, "yfx", "."),
    (1, "fx", "$"),
]


class OperatorTable:
    """Mutable operator table with prefix/infix/postfix lookup."""

    def __init__(self) -> None:
        self._prefix: Dict[str, Op] = {}
        self._infix: Dict[str, Op] = {}
        self._postfix: Dict[str, Op] = {}

    def add(self, priority: int, type_: str, name: str) -> None:
        """Declare (or with priority 0, remove) an operator."""
        if type_ not in ALL_TYPES:
            raise TypeError_("operator_specifier", type_)
        if not 0 <= priority <= MAX_PRIORITY:
            raise TypeError_("operator_priority", priority)
        table = self._table_for(type_)
        if priority == 0:
            table.pop(name, None)
        else:
            table[name] = Op(priority, type_, name)

    def _table_for(self, type_: str) -> Dict[str, Op]:
        if type_ in PREFIX_TYPES:
            return self._prefix
        if type_ in INFIX_TYPES:
            return self._infix
        return self._postfix

    def prefix(self, name: str) -> Optional[Op]:
        return self._prefix.get(name)

    def infix(self, name: str) -> Optional[Op]:
        return self._infix.get(name)

    def postfix(self, name: str) -> Optional[Op]:
        return self._postfix.get(name)

    def is_operator(self, name: str) -> bool:
        return (
            name in self._prefix or name in self._infix or name in self._postfix
        )

    def lookup(self, name: str) -> Tuple[Optional[Op], Optional[Op], Optional[Op]]:
        """Return (prefix, infix, postfix) definitions for *name*."""
        return (
            self._prefix.get(name),
            self._infix.get(name),
            self._postfix.get(name),
        )

    def copy(self) -> "OperatorTable":
        clone = OperatorTable()
        clone._prefix = dict(self._prefix)
        clone._infix = dict(self._infix)
        clone._postfix = dict(self._postfix)
        return clone


def _standard_table() -> OperatorTable:
    table = OperatorTable()
    for priority, type_, name in _DEFAULT_OPS:
        table.add(priority, type_, name)
    return table


_DEFAULT_TABLE = _standard_table()


def default_operators() -> OperatorTable:
    """A fresh table containing the standard operator set: a copy of
    the one built at import, so ``op/3`` extends only its own copy."""
    return _DEFAULT_TABLE.copy()
