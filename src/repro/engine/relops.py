"""Relational operators of Educe* (paper §4 end, reference [9]).

"This allows for the processing of such relations by means of
conventional relational operations, if so required by the programmer.
For this, see the relational operators of Educe* in [9]."  And §1: the
language offers "manipulation of large data sets ... as extensions of
the language Prolog".

These built-ins run the *goal-oriented* engine (set-at-a-time algebra
with access-path planning) over facts relations and materialise results
as new EDB relations — the programmer-visible form of the dual
evaluation strategy, freely mixable with ordinary term-at-a-time
resolution:

==========================================  ============================
``db_select(R/A, Pattern, Out)``            σ: keep tuples matching the
                                            pattern (unbound = wildcard)
``db_project(R/A, Cols, Out)``              π (1-based columns, distinct)
``db_join(R1/A1, C1, R2/A2, C2, Out)``      ⋈ equi-join (planner picks
                                            hash vs index join)
``db_union(R1/A, R2/A, Out)``               ∪ (set semantics)
``db_diff(R1/A, R2/A, Out)``                −
``db_count(R/A, N)``                        cardinality
``db_drop(R/A)``                            remove a derived relation
==========================================  ============================

``Out`` is the atom naming the derived relation; it becomes an ordinary
EDB facts relation immediately queryable by the inference engine.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import CatalogError, ExistenceError, TypeError_
from ..relational.algebra import Distinct, Project, Scan, execute
from ..relational.planner import best_access_path, estimate_rows, plan_join
from ..wam.compiler import register_builtin_indicator

_RELOP_INDICATORS = [
    ("db_select", 3), ("db_project", 3), ("db_join", 5),
    ("db_union", 3), ("db_diff", 3), ("db_count", 2), ("db_drop", 1),
]

for _name, _arity in _RELOP_INDICATORS:
    register_builtin_indicator(_name, _arity)


def _indicator(m, cell) -> Tuple[str, int]:
    cell = m.deref_cell(cell)
    if cell[0] != "STR":
        raise TypeError_("relation indicator", m.extract(cell))
    a = cell[1]
    if m.dictionary.functor(m.heap[a][1]) != ("/", 2):
        raise TypeError_("relation indicator", m.extract(cell))
    name = m.deref_cell(m.heap[a + 1])
    arity = m.deref_cell(m.heap[a + 2])
    if name[0] != "CON" or arity[0] != "INT":
        raise TypeError_("relation indicator", m.extract(cell))
    return m.dictionary.name(name[1]), arity[1]


def _atom_name(m, cell) -> str:
    cell = m.deref_cell(cell)
    if cell[0] != "CON":
        raise TypeError_("atom", m.extract(cell))
    return m.dictionary.name(cell[1])


def _int_list(m, cell) -> List[int]:
    out = []
    cell = m.deref_cell(cell)
    while cell[0] == "LIS":
        item = m.deref_cell(m.heap[cell[1]])
        if item[0] != "INT":
            raise TypeError_("column index", m.extract(item))
        out.append(item[1])
        cell = m.deref_cell(m.heap[cell[1] + 1])
    if not (cell[0] == "CON" and cell[1] == m._nil_id):
        raise TypeError_("column list", m.extract(cell))
    return out


class RelationalOps:
    """Per-session implementation of the db_* predicates."""

    def __init__(self, session):
        self.session = session
        self.materialised = 0

    # ------------------------------------------------------------ plumbing

    def _relation(self, m, cell):
        name, arity = _indicator(m, cell)
        stored = self.session.store.lookup(name, arity)
        if stored is None or stored.mode != "facts":
            raise ExistenceError("relation", f"{name}/{arity}")
        return stored.relation

    def _materialise(self, name: str, rows: List[tuple],
                     arity: int) -> None:
        # Drop-if-existing + store happen in one exclusive write-lock
        # section (derived relations are replaceable); from a service
        # worker holding the shared read lock this raises
        # LockOrderError before mutating anything — route db_* writers
        # through QueryService.execute_admin instead.
        self.session.store.materialise_facts(name, arity, rows)
        self.materialised += 1

    def _pattern_assignment(self, m, cell, arity: int) -> Dict[int, object]:
        cell = m.deref_cell(cell)
        if cell[0] == "CON" and cell[1] == m._nil_id:
            return {}
        if cell[0] != "STR":
            raise TypeError_("selection pattern", m.extract(cell))
        a = cell[1]
        pat_arity = m.dictionary.arity(m.heap[a][1])
        if pat_arity != arity:
            raise TypeError_("pattern arity", m.extract(cell))
        out: Dict[int, object] = {}
        for i in range(arity):
            v = m.deref_cell(m.heap[a + 1 + i])
            if v[0] == "CON":
                out[i] = m.dictionary.name(v[1])
            elif v[0] in ("INT", "FLT"):
                out[i] = v[1]
        return out

    # ------------------------------------------------------------ operators

    def db_select(self, m, args):
        relation = self._relation(m, args[0])
        assignment = self._pattern_assignment(m, args[1], relation.arity)
        rows = execute(best_access_path(relation, assignment),
                       tracer=self.session.tracer)
        self._materialise(_atom_name(m, args[2]), rows, relation.arity)
        return True

    def db_project(self, m, args):
        relation = self._relation(m, args[0])
        cols = [c - 1 for c in _int_list(m, args[1])]
        for c in cols:
            if not 0 <= c < relation.arity:
                raise CatalogError(f"column {c + 1} out of range")
        rows = execute(Distinct(Project(Scan(relation), cols)),
                       tracer=self.session.tracer)
        self._materialise(_atom_name(m, args[2]), rows, len(cols))
        return True

    def db_join(self, m, args):
        left = self._relation(m, args[0])
        c1 = m.deref_cell(args[1])
        right = self._relation(m, args[2])
        c2 = m.deref_cell(args[3])
        if c1[0] != "INT" or c2[0] != "INT":
            raise TypeError_("join column", "db_join/5")
        outer = best_access_path(left, {})
        plan = plan_join(outer, estimate_rows(left, {}), right,
                         c1[1] - 1, c2[1] - 1)
        rows = execute(plan, tracer=self.session.tracer)
        self._materialise(_atom_name(m, args[4]), rows,
                          left.arity + right.arity)
        return True

    def db_union(self, m, args):
        left = self._relation(m, args[0])
        right = self._relation(m, args[1])
        if left.arity != right.arity:
            raise CatalogError("union arity mismatch")
        rows = list(dict.fromkeys(
            row for relation in (left, right)
            for batch in relation.scan() for row in batch))
        self._materialise(_atom_name(m, args[2]), rows, left.arity)
        return True

    def db_diff(self, m, args):
        left = self._relation(m, args[0])
        right = self._relation(m, args[1])
        if left.arity != right.arity:
            raise CatalogError("difference arity mismatch")
        exclude = {row for batch in right.scan() for row in batch}
        rows = [row for batch in left.scan() for row in batch
                if row not in exclude]
        self._materialise(_atom_name(m, args[2]), rows, left.arity)
        return True

    def db_count(self, m, args):
        relation = self._relation(m, args[0])
        return m.unify(args[1], ("INT", len(relation)))

    def db_drop(self, m, args):
        name, arity = _indicator(m, args[0])
        return self.session.store.drop_procedure(name, arity)


def install_relop_builtins(machine, ops: RelationalOps) -> None:
    machine.builtins[("db_select", 3)] = ops.db_select
    machine.builtins[("db_project", 3)] = ops.db_project
    machine.builtins[("db_join", 5)] = ops.db_join
    machine.builtins[("db_union", 3)] = ops.db_union
    machine.builtins[("db_diff", 3)] = ops.db_diff
    machine.builtins[("db_count", 2)] = ops.db_count
    machine.builtins[("db_drop", 1)] = ops.db_drop
