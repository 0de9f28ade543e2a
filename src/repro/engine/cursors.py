"""The deterministic record-manager interface (paper §2.3, §3.2.1).

§2.3 shows the low-level loop a relational engine runs for
``?- p(a, X)``::

    open rel(Descr, "p");
    set key(Descr, Query params);
    for (first tuple(Descr); more(Descr); next(Descr))
        get tuple(Descr, Tuple);
        unify(Descr, Tuple);
    close rel(Descr);

and §3.2.1 argues the integration should "extend the logic deductive
language with deterministic procedures to interface with the low level
record manager of the relational DBMS" — *deterministic*, so that no
choice point is created per tuple (the `repeat`-based alternative the
paper criticises).

This module provides exactly those predicates on an Educe* session:

=====================  ==============================================
``open_rel(N/A, D)``   open a cursor descriptor on a facts relation
``set_key(D, Tpl)``    constrain the scan (unbound args = wildcards)
``first_tuple(D, T)``  position at the first qualifying tuple (semidet)
``next_tuple(D, T)``   advance (semidet; fails at end)
``more(D)``            does a qualifying tuple remain?
``close_rel(D)``       release the descriptor
``rel_tuple(N/A, T)``  the *non-deterministic* convenience wrapper
                       (a choice point per tuple — what §3.2.1 avoids;
                       provided for comparison and for benchmarks)
=====================  ==============================================

All of these are per-session built-ins: they are installed into the
session's machine by :func:`install_cursor_builtins`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ExistenceError, InstantiationError, TypeError_
from ..wam.compiler import register_builtin_indicator


class _Cursor:
    """One open descriptor: relation + key + the current leaf batch.

    The relation's read yields one list per grid leaf, a list of its
    own, so a cursor left open holds no buffer frame: its leaf may be
    evicted between two tuples."""

    __slots__ = ("name", "arity", "relation", "assignment",
                 "batches", "batch", "pos")

    def __init__(self, name: str, arity: int, relation):
        self.name = name
        self.arity = arity
        self.relation = relation
        self.assignment: Dict[int, object] = {}
        self.batches: Optional[Iterator[List[tuple]]] = None
        self.batch: List[tuple] = []
        self.pos = 0

    def rewind(self) -> None:
        self.batches = (self.relation.query(self.assignment)
                        if self.assignment else self.relation.scan())
        self.batch = next(self.batches, [])
        self.pos = 0

    @property
    def lookahead(self) -> Optional[tuple]:
        """The next tuple :meth:`take` returns, if any."""
        if self.batches is None:
            self.rewind()
        return self.batch[self.pos] if self.pos < len(self.batch) else None

    def take(self) -> Optional[tuple]:
        row = self.lookahead
        if row is not None:
            self.pos += 1
            if self.pos == len(self.batch):
                self.batch = next(self.batches, [])  # type: ignore[arg-type]
                self.pos = 0
        return row


class CursorTable:
    """Per-session descriptor registry."""

    def __init__(self, store):
        self.store = store
        self._cursors: Dict[int, _Cursor] = {}
        self._next_id = 1
        self.opens = 0
        self.fetches = 0

    def open(self, name: str, arity: int) -> int:
        stored = self.store.lookup(name, arity)
        if stored is None or stored.mode != "facts":
            raise ExistenceError("relation", f"{name}/{arity}")
        handle = self._next_id
        self._next_id += 1
        self._cursors[handle] = _Cursor(name, arity, stored.relation)
        self.opens += 1
        return handle

    def get(self, handle: int) -> _Cursor:
        """The open cursor *handle*, while its relation is still the one
        stored under its name: a dropped or replaced relation has freed
        its pages, so the cursor raises instead of reading them."""
        cursor = self._cursors.get(handle)
        if cursor is None:
            raise ExistenceError("cursor", str(handle))
        stored = self.store.lookup(cursor.name, cursor.arity)
        if stored is None or stored.relation is not cursor.relation:
            raise ExistenceError("relation",
                                 f"{cursor.name}/{cursor.arity}")
        return cursor

    def close(self, handle: int) -> None:
        self._cursors.pop(handle, None)


# --------------------------------------------------------------- helpers

def _descr_handle(m, cell) -> int:
    cell = m.deref_cell(cell)
    if cell[0] == "STR":
        a = cell[1]
        name, arity = m.dictionary.functor(m.heap[a][1])
        if (name, arity) == ("$cursor", 1):
            inner = m.deref_cell(m.heap[a + 1])
            if inner[0] == "INT":
                return inner[1]
    raise TypeError_("cursor descriptor", m.extract(cell))


def _descr_cell(m, handle: int) -> tuple:
    fid = m.dictionary.intern("$cursor", 1)
    a = len(m.heap)
    m.heap.append(("FUN", fid))
    m.heap.append(("INT", handle))
    return ("STR", a)


def _indicator(m, cell) -> Tuple[str, int]:
    cell = m.deref_cell(cell)
    if cell[0] != "STR":
        raise TypeError_("predicate indicator", m.extract(cell))
    a = cell[1]
    if m.dictionary.functor(m.heap[a][1]) != ("/", 2):
        raise TypeError_("predicate indicator", m.extract(cell))
    name_cell = m.deref_cell(m.heap[a + 1])
    arity_cell = m.deref_cell(m.heap[a + 2])
    if name_cell[0] != "CON" or arity_cell[0] != "INT":
        raise InstantiationError("relation indicator")
    return m.dictionary.name(name_cell[1]), arity_cell[1]


def _value_of(m, cell):
    cell = m.deref_cell(cell)
    if cell[0] == "CON":
        return m.dictionary.name(cell[1])
    if cell[0] in ("INT", "FLT"):
        return cell[1]
    return None  # unbound or structured: wildcard


def _row_cells(m, row: tuple) -> List[tuple]:
    out = []
    for value in row:
        if isinstance(value, str):
            out.append(("CON", m.dictionary.intern(value, 0)))
        elif isinstance(value, float):
            out.append(("FLT", value))
        else:
            out.append(("INT", value))
    return out


def _unify_row(m, cell, row: tuple) -> bool:
    cells = _row_cells(m, row)
    target = m.deref_cell(cell)
    if target[0] == "REF":
        fid = m.dictionary.intern("row", len(row))
        a = len(m.heap)
        m.heap.append(("FUN", fid))
        m.heap.extend(cells)
        return m.unify(cell, ("STR", a))
    if target[0] != "STR":
        return False
    a = target[1]
    arity = m.dictionary.arity(m.heap[a][1])
    if arity != len(row):
        return False
    for k, value_cell in enumerate(cells, start=1):
        if not m.unify(m.heap[a + k], value_cell):
            return False
    return True


# ------------------------------------------------------------ the builtins

_CURSOR_INDICATORS = [
    ("open_rel", 2), ("set_key", 2), ("first_tuple", 2),
    ("next_tuple", 2), ("more", 1), ("close_rel", 1), ("rel_tuple", 2),
]

for _name, _arity in _CURSOR_INDICATORS:
    register_builtin_indicator(_name, _arity)


def install_cursor_builtins(machine, table: CursorTable) -> None:
    """Install the descriptor predicates into *machine*."""

    def bi_open_rel(m, args):
        name, arity = _indicator(m, args[1])
        handle = table.open(name, arity)
        return m.unify(args[0], _descr_cell(m, handle))

    def bi_set_key(m, args):
        cursor = table.get(_descr_handle(m, args[0]))
        pattern = m.deref_cell(args[1])
        if pattern[0] != "STR":
            raise TypeError_("key pattern", m.extract(pattern))
        a = pattern[1]
        arity = m.dictionary.arity(m.heap[a][1])
        if arity != cursor.arity:
            raise TypeError_("key pattern arity", m.extract(pattern))
        assignment = {}
        for i in range(arity):
            value = _value_of(m, m.heap[a + 1 + i])
            if value is not None:
                assignment[i] = value
        cursor.assignment = assignment
        cursor.batches = None
        return True

    def bi_first_tuple(m, args):
        cursor = table.get(_descr_handle(m, args[0]))
        cursor.rewind()
        table.fetches += 1
        row = cursor.take()
        if row is None:
            return False
        return _unify_row(m, args[1], row)

    def bi_next_tuple(m, args):
        cursor = table.get(_descr_handle(m, args[0]))
        table.fetches += 1
        row = cursor.take()
        if row is None:
            return False
        return _unify_row(m, args[1], row)

    def bi_more(m, args):
        cursor = table.get(_descr_handle(m, args[0]))
        return cursor.lookahead is not None

    def bi_close_rel(m, args):
        table.close(_descr_handle(m, args[0]))
        return True

    def bi_rel_tuple(m, args):
        """The non-deterministic wrapper: one choice point per tuple —
        the `repeat`-style access §3.2.1 argues against, kept for
        comparison benchmarks."""
        name, arity = _indicator(m, args[0])
        stored = table.store.lookup(name, arity)
        if stored is None or stored.mode != "facts":
            raise ExistenceError("relation", f"{name}/{arity}")
        rows = [row for batch in stored.relation.scan() for row in batch]

        def solutions():
            for row in rows:
                mark = len(m.trail)
                if _unify_row(m, args[1], row):
                    yield True
                m._unwind_trail(mark)
        return solutions()

    machine.builtins[("open_rel", 2)] = bi_open_rel
    machine.builtins[("set_key", 2)] = bi_set_key
    machine.builtins[("first_tuple", 2)] = bi_first_tuple
    machine.builtins[("next_tuple", 2)] = bi_next_tuple
    machine.builtins[("more", 1)] = bi_more
    machine.builtins[("close_rel", 1)] = bi_close_rel
    machine.builtins[("rel_tuple", 2)] = bi_rel_tuple
