"""The Educe predecessor system (paper §2) — the measured baseline.

Educe stored rules in the EDB **in source form** and evaluated them with
an interpreter.  Using a rule kept externally costs, per call:

1. retrieval of *all* clauses of the procedure (poor selectivity — the
   paper: "the interpreter retrieves all the clauses for the procedure
   which match the Goal ... performance is badly affected by the poor
   selectivity of this policy");
2. parsing of the source text ("the very time consuming activity of
   parsing general logic terms");
3. assertion into main memory, and
4. erasure after execution "to make room for the next rule(s)" — so a
   recursive rule is re-fetched, re-parsed and re-asserted on every
   recursive call, "potentially ... thousands of times".

All four steps are implemented literally; the counters
(``parsed_chars``, ``asserts``, ``erases``, ``fetches``) feed the cost
model, and the EDB traffic shows up in the shared pager's I/O counters.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..edb.store import ExternalStore
from ..terms import Atom, Struct, Term, deref
from .interpreter import Interpreter


class EduceBaseline:
    """Interpreter + source-form EDB, coupled in the Educe fashion."""

    def __init__(self, store: Optional[ExternalStore] = None):
        self.store = store or ExternalStore()
        self.interpreter = Interpreter()
        self.interpreter.fetch_hook = self._edb_fetch
        self.parsed_chars = 0
        self.fetches = 0

    # ----------------------------------------------------------- population

    def consult(self, text: str) -> None:
        """Load rules into main memory (no EDB involvement)."""
        self.interpreter.consult(text)

    def store_program(self, text: str) -> None:
        """Store a program in the EDB in source form, grouped by
        procedure — the Educe storage scheme.  Directives are honoured
        as :meth:`consult` honours them."""
        self.interpreter.consult(text, define=self.store.store_source)

    def store_relation(self, name: str, rows: List[tuple],
                       types: Optional[List[str]] = None) -> None:
        if not rows:
            raise ValueError("empty relation")
        self.store.store_facts(name, len(rows[0]), rows, types)

    # ----------------------------------------------------------------- query

    def solve(self, goal, limit: Optional[int] = None) -> Iterator[dict]:
        return self.interpreter.solve(goal, limit=limit)

    def solve_once(self, goal) -> Optional[dict]:
        return self.interpreter.solve_once(goal)

    def count_solutions(self, goal) -> int:
        return self.interpreter.count_solutions(goal)

    # --------------------------------------------------------- the EDB trap

    def _edb_fetch(self, interp: Interpreter, name: str, arity: int,
                   goal: Term) -> Optional[List[Term]]:
        """The exception-handling trap of §3.2.1: no main-memory
        predicate ⇒ fetch from the EDB."""
        stored = self.store.lookup(name, arity)
        if stored is None:
            return None
        self.fetches += 1
        if stored.mode == "facts":
            # Fact retrieval was "satisfactory even in reasonably large
            # relations": tuples arrive pre-filtered through the grid.
            assignment = self._bound_args(goal)
            rows = self.store.fetch_facts(name, arity, assignment)
            clauses = [
                Struct(name, tuple(
                    Atom(v) if isinstance(v, str) else v for v in row))
                for row in rows
            ]
            interp.asserts += len(clauses)
            return clauses
        # Rules: ALL clauses of the procedure, parsed and asserted.
        stored_clauses = self.store.fetch_clauses(name, arity, {})
        clauses = []
        for sc in stored_clauses:
            self.parsed_chars += len(sc.source)
            clauses.append(interp.reader.read_term(sc.source))
        interp.asserts += len(clauses)
        return clauses

    def _bound_args(self, goal: Term) -> Dict[int, object]:
        out: Dict[int, object] = {}
        goal = deref(goal)
        if not isinstance(goal, Struct):
            return out
        for i, arg in enumerate(goal.args):
            arg = deref(arg)
            if isinstance(arg, Atom):
                out[i] = arg.name
            elif isinstance(arg, (int, float)) and not isinstance(arg, bool):
                out[i] = arg
        return out

    # ------------------------------------------------------------- counters

    def counters(self) -> dict:
        merged = dict(self.interpreter.counters())
        merged["parsed_chars"] = self.parsed_chars
        merged["fetches"] = self.fetches
        return merged

    def io_counters(self) -> dict:
        return self.store.io_counters()
