"""Library predicates, written in Prolog: read once per process,
compiled once per process.

These are ordinary compiled procedures — they exercise the same WAM code
paths as user programs (list traversal dominates the MVV workload, so the
library being compiled matters for fidelity).  Every ``Machine`` starts
from a copy of the compiled library (:func:`library_image`), every
``Interpreter`` asserts the clauses, and the linter takes their
indicators as always defined — all from the one reading :func:`library`
keeps.  Compiled once and stored, resolved at load: the paper's §3.1
applied to the library itself.
"""

import threading
from functools import cache
from typing import Dict, Tuple

from ..dictionary import SegmentedDictionary
from ..lang.program import Indicator, read_sections
from ..lang.reader import Reader
from ..terms import Term
from .compiler import ClauseCompiler, CompileContext
from .indexing import build_procedure_code
from .machine import Procedure

PRELUDE_SOURCE = r"""
% lint: disable=L104 member/2 select/3 closure_step/4 maplist/2 maplist/3 maplist/4
% (library predicates are legitimately list-recursive: their first
% argument is an unbound output or a partial list in normal use, so
% first-argument indexing never had a chance — waived, docs/ANALYSIS.md)

% ------------------------------------------------------------------ lists
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).

member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

memberchk(X, [Y|T]) :- ( X = Y -> true ; memberchk(X, T) ).

reverse(L, R) :- reverse_acc(L, [], R).
reverse_acc([], A, A).
reverse_acc([H|T], A, R) :- reverse_acc(T, [H|A], R).

nth0(I, L, E) :- nth_from(L, 0, I, E).
nth1(I, L, E) :- nth_from(L, 1, I, E).
nth_from([H|_], N, N, H).
nth_from([_|T], N0, N, E) :- N1 is N0 + 1, nth_from(T, N1, N, E).

last([X], X).
last([_|T], X) :- last(T, X).

select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).

delete([], _, []).
delete([H|T], X, R) :- \+ H \= X, !, delete(T, X, R).
delete([H|T], X, [H|R]) :- delete(T, X, R).

subtract([], _, []).
subtract([H|T], L, R) :- memberchk(H, L), !, subtract(T, L, R).
subtract([H|T], L, [H|R]) :- subtract(T, L, R).

intersection([], _, []).
intersection([H|T], L, [H|R]) :- memberchk(H, L), !, intersection(T, L, R).
intersection([_|T], L, R) :- intersection(T, L, R).

union([], L, L).
union([H|T], L, R) :- memberchk(H, L), !, union(T, L, R).
union([H|T], L, [H|R]) :- union(T, L, R).

sum_list([], 0).
sum_list([H|T], S) :- sum_list(T, S0), S is S0 + H.
sumlist(L, S) :- sum_list(L, S).

max_list([H|T], M) :- max_list_acc(T, H, M).
max_list_acc([], M, M).
max_list_acc([H|T], A, M) :-
    ( H > A -> max_list_acc(T, H, M) ; max_list_acc(T, A, M) ).

min_list([H|T], M) :- min_list_acc(T, H, M).
min_list_acc([], M, M).
min_list_acc([H|T], A, M) :-
    ( H < A -> min_list_acc(T, H, M) ; min_list_acc(T, A, M) ).

numlist(L, H, [L|T]) :- L =< H, ( L =:= H -> T = [] ;
    L1 is L + 1, numlist(L1, H, T) ).

% ------------------------------------------------------ cyclic-data safety
% Transitive closure over a binary relation with a visited list — the
% library-level facility for querying cyclic data (graphs with loops)
% without non-termination (paper §1).
closure(Rel, X, Y) :- closure_step(Rel, X, Y, [X]).
closure_step(Rel, X, Y, _) :- call(Rel, X, Y).
closure_step(Rel, X, Y, Seen) :-
    call(Rel, X, Z),
    \+ memberchk(Z, Seen),
    closure_step(Rel, Z, Y, [Z|Seen]).

% ---------------------------------------------------------------- maplist
maplist(_, []).
maplist(G, [H|T]) :- call(G, H), maplist(G, T).

maplist(_, [], []).
maplist(G, [H|T], [H2|T2]) :- call(G, H, H2), maplist(G, T, T2).

maplist(_, [], [], []).
maplist(G, [A|As], [B|Bs], [C|Cs]) :-
    call(G, A, B, C), maplist(G, As, Bs, Cs).
"""


@cache
def library() -> Dict[Indicator, Tuple[Term, ...]]:
    """The library's clauses by indicator, in source order: the text
    above read under the default operator table (a session's own
    ``op/3`` never reaches it).  Shared by every session of the process
    and never mutated: consumers copy the clause sequences they keep and
    rename a clause before binding its variables."""
    section, = read_sections(PRELUDE_SOURCE, Reader())
    return {ind: tuple(clauses)
            for ind, clauses in section.groups().items()}


_IMAGE_LOCK = threading.Lock()
_IMAGES: Dict[bool,
              Tuple[SegmentedDictionary, Dict[int, Procedure]]] = {}


@cache
def _compiled_library() -> Tuple[SegmentedDictionary, Dict[int, Procedure]]:
    """The library compiled once, the way ``Machine.define_procedure``
    compiles a program: ``[]`` interned first, each procedure's name
    before its clauses, the ``$aux`` procedures of its disjunctions and
    negations (never indexed) ahead of the procedure that calls them.
    The procedures carry per-clause code and no block yet."""
    dictionary = SegmentedDictionary(segment_capacity=32000)
    dictionary.intern("[]", 0)
    procedures: Dict[int, Procedure] = {}

    def define(name: str, arity: int, clauses, index: bool = True) -> None:
        pid = dictionary.intern(name, arity)
        proc = Procedure(pid, name, arity, "static", clauses=list(clauses),
                         index=index)
        proc.compiled = [compiler.compile_clause(c) for c in clauses]
        procedures[pid] = proc

    compiler = ClauseCompiler(CompileContext(
        dictionary, lambda name, arity, clauses:
        define(name, arity, clauses, index=False)))
    for (name, arity), clauses in library().items():
        define(name, arity, clauses)
    return dictionary, procedures


def library_image(index: bool
                  ) -> Tuple[SegmentedDictionary, Dict[int, Procedure]]:
    """The compiled library as a session starts from it, with or without
    first-argument *index*ing: the dictionary after ``[]``
    and every library functor, and the procedures with their per-clause
    code and blocks.  Built once per process and setting, under a lock;
    never mutated — a ``Machine`` copies the dictionary and each
    procedure, and shares the blocks (``Block.bind`` publishes ``run``
    last, so sessions binding one block at once install equal results).
    """
    with _IMAGE_LOCK:
        image = _IMAGES.get(index)
        if image is None:
            dictionary, compiled = _compiled_library()
            procedures = {}
            for pid, proc in compiled.items():
                proc = procedures[pid] = proc.copy()
                proc.index = proc.index and index
                proc.code = build_procedure_code(proc.compiled,
                                                 index=proc.index)
            image = _IMAGES[index] = (dictionary, procedures)
        return image
