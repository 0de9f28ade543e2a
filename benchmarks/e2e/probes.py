"""Layer probes of the traced run.

Where the program records no span of its own, the traced run pushes the
workload's inputs straight into the layer's public function and records
one benchmark span per call.  Probes run after the timed window; their
time is the layer's busy time for those inputs, not a share of any
operation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.dictionary import SegmentedDictionary
from repro.lang.reader import read_program, read_term
from repro.terms import Atom, Struct
from repro.wam.compiler import ClauseCompiler, CompileContext

from harness import SpanRecorder


def _symbols(term, acc: Set[Tuple[str, int]]) -> None:
    if isinstance(term, Atom):
        acc.add((term.name, 0))
    elif isinstance(term, Struct):
        acc.add((term.name, term.arity))
        for arg in term.args:
            _symbols(arg, acc)


def probe_language(spans: SpanRecorder, extras: Dict[str, float],
                   program: str, goals: List[str]) -> None:
    """``lang``: read the rule text and every goal text;
    ``dictionary``: intern their symbols into a fresh dictionary;
    ``wam``: compile each clause."""
    with spans.span("lang.parse"):
        clauses = read_program(program)
    terms = []
    for goal in goals:
        with spans.span("lang.parse"):
            terms.append(read_term(goal))
    extras["probe_parsed_chars"] = len(program) + sum(map(len, goals))

    symbols: Set[Tuple[str, int]] = set()
    for term in clauses + terms:
        _symbols(term, symbols)
    dictionary = SegmentedDictionary()
    with spans.span("dictionary.intern"):
        for name, arity in sorted(symbols):
            dictionary.intern(name, arity)
    extras["dictionary_entries"] = len(dictionary)

    compiler = ClauseCompiler(CompileContext(dictionary))
    for clause in clauses:
        with spans.span("wam.compile"):
            compiler.compile_clause(clause)


def _pages_touched(session, before: Dict[str, float]) -> float:
    after = session.io_counters()
    return ((after["buffer_hits"] - before["buffer_hits"])
            + (after["buffer_misses"] - before["buffer_misses"]))


def probe_point_lookups(spans: SpanRecorder, extras: Dict[str, float],
                        session, relation,
                        assignments: List[Dict[int, Any]]) -> None:
    """``bang``: partial-match probes straight on the grid."""
    before = session.io_counters()
    for assignment in assignments:
        with spans.span("bang.point_query"):
            list(relation.query(assignment))
    extras["probe_lookups"] = len(assignments)
    extras["probe_lookup_pages"] = _pages_touched(session, before)


def probe_range_lookups(spans: SpanRecorder, relation, attr: int,
                        bounds: List[Tuple[int, int]]) -> None:
    for low, high in bounds:
        with spans.span("bang.range_query"):
            list(relation.range_query(attr, low, high))


def probe_inserts(spans: SpanRecorder, relation,
                  rows: List[tuple]) -> None:
    for row in rows:
        with spans.span("bang.insert"):
            relation.insert(row)
