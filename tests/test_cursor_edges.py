"""Edge cases for the cursor interface and grid compaction interplay."""

from itertools import chain

import pytest

from repro.engine.session import EduceStar
from repro.errors import ExistenceError
from repro.lang.writer import term_to_text


@pytest.fixture
def kb():
    s = EduceStar()
    s.store_relation("n", [(i, i % 3) for i in range(30)])
    return s


class TestCursorRewind:
    def test_set_key_resets_position(self, kb):
        kb.consult("""
        two_scans(A, B) :-
            open_rel(D, n/2),
            set_key(D, n(_, 0)),
            first_tuple(D, row(A, _)),
            set_key(D, n(_, 1)),
            first_tuple(D, row(B, _)),
            close_rel(D).
        """)
        sol = kb.solve_once("two_scans(A, B)")
        assert sol["A"] % 3 == 0
        assert sol["B"] % 3 == 1

    def test_first_tuple_restarts_exhausted_cursor(self, kb):
        kb.consult("""
        drain(D) :- next_tuple(D, _), !, drain(D).
        drain(_).
        restart(X) :-
            open_rel(D, n/2),
            drain(D),
            first_tuple(D, row(X, _)),
            close_rel(D).
        """)
        assert kb.solve_once("restart(X)") is not None

    def test_more_does_not_consume(self, kb):
        kb.consult("""
        peek_then_read(X) :-
            open_rel(D, n/2),
            more(D),
            more(D),
            first_tuple(D, row(X, _)),
            close_rel(D).
        """)
        assert kb.solve_once("peek_then_read(X)") is not None

    def test_two_cursors_independent(self, kb):
        kb.consult("""
        parallel(A, B) :-
            open_rel(D1, n/2),
            open_rel(D2, n/2),
            first_tuple(D1, row(A, _)),
            first_tuple(D2, row(B, _)),
            next_tuple(D1, _),
            first_tuple(D2, row(B2, _)),
            B == B2,
            close_rel(D1), close_rel(D2).
        """)
        assert kb.solve_once("parallel(A, B)") is not None


class TestCursorAfterMutation:
    def test_cursor_over_relation_after_deletes(self, kb):
        rel = kb.relation("n", 2)
        rel.delete_where({1: 0})
        kb.consult("""
        drain(D, N0, N) :-
            ( next_tuple(D, _) -> N1 is N0 + 1, drain(D, N1, N)
            ; N = N0 ).
        count_all(N) :-
            open_rel(D, n/2), drain(D, 0, N), close_rel(D).
        """)
        assert kb.solve_once("count_all(N)")["N"] == 20

    def test_relation_queries_after_compaction(self, kb):
        rel = kb.relation("n", 2)
        rel.delete_where({1: 0})
        rel.delete_where({1: 1})
        rel.grid.compact()
        left = sorted(r[0] for r in chain.from_iterable(rel.scan()))
        assert left == [i for i in range(30) if i % 3 == 2]
        # point query still exact after merges/splices
        assert list(chain.from_iterable(rel.query({0: 2}))) == [(2, 2)]
        assert list(chain.from_iterable(rel.query({0: 3}))) == []


class TestCursorAfterDrop:
    """A cursor opened before its relation is dropped or replaced
    raises instead of reading on: the relation's pages are freed, and a
    relation stored after it must never show through."""

    ROWS = [(i, i % 7) for i in range(2000)]

    def _open_and_read_one(self, kb, name):
        sol = kb.solve_once(f"open_rel(D, {name}/2), first_tuple(D, R)")
        assert sol is not None
        return term_to_text(sol["D"])

    def test_dropped_relation(self):
        kb = EduceStar()
        kb.store_relation("t", self.ROWS)
        descr = self._open_and_read_one(kb, "t")
        assert kb.store.drop_procedure("t", 2)
        kb.store_relation("u", [(-i, -1) for i in range(2000)])
        with pytest.raises(ExistenceError):
            kb.solve_once(f"next_tuple({descr}, R)")

    def test_replaced_relation(self):
        kb = EduceStar()
        kb.store.materialise_facts("m", 2, self.ROWS)
        descr = self._open_and_read_one(kb, "m")
        kb.store.materialise_facts("m", 2, [(-i, -1) for i in range(2000)])
        with pytest.raises(ExistenceError):
            kb.solve_once(f"next_tuple({descr}, R)")
        with pytest.raises(ExistenceError):
            kb.solve_once(f"more({descr})")
