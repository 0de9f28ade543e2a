"""Tests for pre-unification and the dynamic loader (paper §3.1, §4)."""

import pytest

from repro.edb.loader import DynamicLoader
from repro.edb.preunify import PreUnifier
from repro.edb.store import ExternalStore
from repro.engine.session import EduceStar
from repro.service import QueryService
from repro.terms import Atom
from repro.wam.machine import Machine


def make_session(depth="full"):
    return EduceStar(preunify_depth=depth)


PROG = """
p(a, 1).
p(b, 2).
p(f(1), 3).
p(f(2), 4).
p([x], 5).
p(_, 6).
"""


class TestSummariesFromRegisters:
    def test_bound_args_summarised(self):
        m = Machine()
        cell, _ = m._build(m.reader.read_term("probe(foo, 42, 2.5, [a], "
                                              "g(1), X)"), {})
        a = cell[1]
        for i in range(6):
            m.x[i] = m.heap[a + 1 + i]
        out = PreUnifier.summaries_from_registers(m, 6)
        assert out[0] == ("atom", "foo")
        assert out[1] == ("int", 42)
        assert out[2] == ("real", 2.5)
        assert out[3] == ("list",)
        assert out[4] == ("struct", "g", 1)
        assert 5 not in out  # unbound


class TestFilteringSemantics:
    """The filter must never reject a clause that would unify
    (necessary-condition property, §4) and at depth=full must reject
    exactly the non-unifiable ones."""

    @pytest.mark.parametrize("depth", ["none", "full"])
    def test_all_depths_sound(self, depth):
        s = make_session(depth=depth)
        s.store_program(PROG)
        assert [sol["N"] for sol in s.solve("p(a, N)")] == [1, 6]
        assert [sol["N"] for sol in s.solve("p(f(1), N)")] == [3, 6]
        assert [sol["N"] for sol in s.solve("p([x], N)")] == [5, 6]
        assert [sol["N"] for sol in s.solve("p(zzz, N)")] == [6]
        assert sorted(sol["N"] for sol in s.solve("p(_, N)")) == \
            [1, 2, 3, 4, 5, 6]

    def test_full_depth_rejects_nonmatching_nested(self):
        s = make_session(depth="full")
        s.store_program("q(f(g(1)), hit1). q(f(g(2)), hit2).")
        s.solve_once("q(f(g(2)), _)")
        # full pre-unification rejected the g(1) clause outright
        assert s.preunifier.rejections >= 1

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            PreUnifier("bogus")

    @pytest.mark.parametrize("depth", ["none", "full"])
    def test_filter_leaves_no_residue(self, depth):
        """Pre-unification must not leak bindings or heap cells — nor
        registers or an environment frame: the head prefix runs on the
        machine's real register file and ``allocate`` pushes a real
        frame, and all of it is put back whether the clause matched or
        was rejected."""
        from repro.edb.codec import decode_code
        s = make_session(depth=depth)
        s.store_program(PROG)
        m = s.machine
        list(s.solve("p(a, N)"))
        heap_before = len(m.heap)
        trail_before = len(m.trail)
        list(s.solve("p(f(1), N)"))
        assert len(m.heap) == heap_before
        assert len(m.trail) == trail_before

        # Permanent variables put ``allocate`` and Y slots in the
        # prefix; the third clause writes X registers above the
        # initial register file.
        big = "big(" + ", ".join(f"V{i}" for i in range(70)) + ")"
        s.store_program(
            "q(f(X), [Y|T], W) :- r(X), r(Y), r(T), r(W).\n"
            "q(g(X), Y, Y) :- r(X), r(Y).\n"
            f"q(_, {big}, {big}).\n")
        clauses = s.store.fetch_clauses("q", 3, {})
        decoded = [decode_code(sc.relative_code, m.dictionary,
                               s.store.external_dict) for sc in clauses]
        cell, _ = m._build(m.reader.read_term("probe(f(1), L, Z)"), {})
        for i in range(3):
            m.x[i] = m.heap[cell[1] + 1 + i]
        m.mode, m.s = "write", 12345
        before = (list(m.x), m.e, m.mode, m.s, m.b, list(m.heap),
                  list(m.trail))
        survivors = s.preunifier.filter_by_execution(m, decoded)
        assert survivors == ([0, 2] if depth == "full" else [0, 1, 2])
        assert before == (m.x, m.e, m.mode, m.s, m.b, m.heap, m.trail)


class TestLoader:
    def test_cache_hit_on_repeat_pattern(self):
        s = make_session()
        s.store_program(PROG)
        s.solve_once("p(a, _)")
        loads_after_first = s.loader.loads
        s.solve_once("p(a, _)")
        assert s.loader.loads == loads_after_first
        assert s.loader.cache_hits >= 1

    def test_distinct_patterns_load_separately(self):
        s = make_session()
        s.store_program(PROG)
        s.solve_once("p(a, _)")
        s.solve_once("p(b, _)")
        assert s.loader.loads >= 2

    def test_cache_invalidated_by_assert(self):
        s = make_session()
        s.store_program("r(1).")
        assert [sol["X"] for sol in s.solve("r(X)")] == [1]
        s.assert_external("r(2)")
        assert [sol["X"] for sol in s.solve("r(X)")] == [1, 2]

    def test_mutation_reclaims_only_that_procedures_blocks(self):
        # Regression: any mutation used to clear the WHOLE cache —
        # every procedure re-resolved after every assert.  Now a
        # mutated procedure's blocks go at the next call to it and
        # nothing else moves.
        s = make_session()
        s.store_program(PROG)
        s.store_program("r(1).")
        s.solve_once("p(a, _)")
        s.solve_once("r(X)")
        loads = s.loader.loads
        hits = s.loader.cache_hits
        before = s.loader.counters()

        s.assert_external("r(2)")
        s.solve_once("p(a, _)")             # unrelated: still cached
        assert s.loader.loads == loads
        assert s.loader.cache_hits == hits + 1, (
            "cache_hits must keep accruing, never reset")
        assert [sol["X"] for sol in s.solve("r(X)")] == [1, 2]
        after = s.loader.counters()
        # r/1's old block was replaced, not kept beside the new one
        assert after["loader_cache_entries"] == before["loader_cache_entries"]
        assert (after["cache_invalidated_entries"]
                == before["cache_invalidated_entries"] + 1)
        assert after["cache_epoch"] == before["cache_epoch"] + 1

    def test_invalidate_returns_dropped_and_bumps_epoch(self):
        s = make_session()
        s.store_program(PROG)
        s.store_program("r(1).")
        s.solve_once("p(a, _)")
        s.solve_once("r(X)")
        epoch = s.loader.cache_epoch
        assert s.loader.invalidate("r", 1) == 1
        assert s.loader.invalidate("r", 1) == 0   # already pruned
        assert s.loader.cache_epoch == epoch + 2  # monotone per call
        dropped_all = s.loader.invalidate()       # global clear
        assert dropped_all >= 1
        assert s.loader.counters()["loader_cache_entries"] == 0

    def test_resolutions_counted(self):
        s = make_session()
        s.store_program(PROG)
        s.solve_once("p(a, _)")
        assert s.loader.counters()["resolutions"] > 0

    def test_loads_facts_with_indexed_code(self):
        s = make_session()
        s.store_relation("city", [("munich", 1), ("paris", 2),
                                  ("rome", 3)])
        assert s.solve_once("city(paris, N)")["N"] == 2
        assert s.machine.cp_created <= 2  # barrier (+possible fact chain)

    def test_unknown_procedure_still_raises(self):
        s = make_session()
        from repro.errors import ExistenceError
        with pytest.raises(ExistenceError):
            s.solve_once("never_stored(1)")

    def test_none_for_unstored(self):
        store = ExternalStore()
        loader = DynamicLoader(store)
        assert loader.procedure_code(Machine(), "missing", 2) is None


#: Two clauses with variable heads: every binding of the first argument
#: gets the same grid answer, clause ids (0, 1).  Arithmetic compiles to
#: ``arith`` instructions, which name no atom or functor; ``atom(small)``
#: gives the second clause a dictionary reference for its decode to
#: resolve.
COST = """
cost(X, C) :- X > 10, C is X * 2.
cost(X, C) :- X =< 10, C is X + 1, atom(small).
"""


class TestBuiltOncePerClauseSet:
    """A rules miss decodes and gates only clauses this session has not
    loaded at the procedure's version, and builds one block per clause
    set the grid returns (§3.2.1: the definition is frozen at fetch)."""

    @staticmethod
    def _session():
        s = make_session()
        s.store_program(COST)
        return s

    @staticmethod
    def _work(s):
        return s.loader.resolutions, s.loader.verify_checks

    def test_same_clause_set_reuses_verified_block(self):
        s = self._session()
        assert s.solve_once("cost(3, C)")["C"] == 4
        loads, work = s.loader.loads, self._work(s)
        assert s.solve_once("cost(20, C)")["C"] == 40
        assert s.loader.loads == loads + 1      # a new pattern still fetches
        assert self._work(s) == work            # nothing decoded or gated
        (_, first), (_, second) = s.loader.cached_blocks("cost", 2)
        assert first is second
        fresh = self._session()
        for goal in ("cost(3, C)", "cost(20, C)", "cost(10, C)"):
            assert ([sol.bindings for sol in s.solve(goal)]
                    == [sol.bindings for sol in fresh.solve(goal)])

    @pytest.mark.parametrize("write", ["assert", "retract"])
    def test_write_makes_next_load_decode(self, write):
        s = self._session()
        s.solve_once("cost(1, C)")
        s.solve_once("cost(2, C)")
        resolutions, checks = self._work(s)
        if write == "assert":
            s.assert_external("cost(X, 0) :- X < 0.")
        else:
            s.store.retract_clause("cost", 2, 0)
        s.solve_once("cost(3, C)")
        nclauses = s.store.get("cost", 2).nclauses
        assert s.loader.verify_checks == checks + nclauses
        assert s.loader.resolutions > resolutions
        # ...and only once at the new version
        work = self._work(s)
        s.solve_once("cost(4, C)")
        assert self._work(s) == work

    @pytest.mark.fault_injection
    def test_bitflip_reject_leaves_nothing_reusable(self):
        from repro.bang.faults import FaultInjector
        from repro.errors import VerifyError
        s = self._session()
        s.store.faults = FaultInjector().arm_clause_bitflip(2)
        with pytest.raises(VerifyError):
            s.solve_once("cost(3, C)")
        assert s.loader.counters()["loader_cache_entries"] == 0
        # the retry decodes and gates both clauses again, from clean bytes
        assert s.solve_once("cost(3, C)")["C"] == 4
        assert s.loader.verify_checks == 4
        assert s.store.faults.clause_records_seen == 4
        assert s.solve_once("cost(30, C)")["C"] == 60
        assert s.store.faults.clause_records_seen == 4


class TestRetractUnknownClause:
    """Retracting a clause id that is not stored is refused under the
    write lock: no record, no version or epoch bump, ``nclauses``
    untouched."""

    REACH = ("reach(X, Y) :- edge(X, Y).\n"
             "reach(X, Y) :- edge(X, Z), reach(Z, Y).")

    def test_phantom_retract_is_refused(self):
        from repro.errors import ExistenceError
        s = make_session()
        s.store_relation("edge", [("a", "b")])
        s.store_program(self.REACH)
        store = s.store
        proc = store.get("reach", 2)
        before = (proc.version, store.mutation_epoch, proc.nclauses)
        with pytest.raises(ExistenceError):
            store.retract_clause("reach", 2, 99)
        assert (proc.version, store.mutation_epoch, proc.nclauses) == before
        store.retract_clause("reach", 2, 1)
        store.retract_clause("reach", 2, 0)
        assert proc.nclauses == 0
        with pytest.raises(ExistenceError):
            store.retract_clause("reach", 2, 0)
        assert proc.nclauses == 0

    def test_logged_phantom_retract_cannot_go_negative(self):
        # a log written before the refusal may still hold such a record
        s = make_session()
        s.store_program(self.REACH)
        store = s.store
        with store.writing():
            store.apply({"op": "retract", "name": "reach", "arity": 2,
                         "clause_id": 99,
                         "epoch": store.mutation_epoch + 1})
        assert store.get("reach", 2).nclauses == 2


#: Calls that share a loader cache key — the top-level argument
#: summaries — but differ in a nested value, a list element or aliased
#: variables, then the E9 shape (benchmarks/bench_preunification.py).
a, b, c = Atom("a"), Atom("b"), Atom("c")
SHARED_KEY_CASES = [
    ("r(f(a), 1). r(f(b), 2).",
     [("r(f(a), N)", [{"N": 1}]), ("r(f(b), N)", [{"N": 2}])]),
    ("l([a], 1). l([b], 2).",
     [("l([a], N)", [{"N": 1}]), ("l([b], N)", [{"N": 2}])]),
    ("p(a, b). p(c, c).",
     [("p(A, A)", [{"A": c}]),
      ("p(A, B)", [{"A": a, "B": b}, {"A": c, "B": c}])]),
    ("\n".join(f"deep(f(g({i}, h({i}))), {i})." for i in range(60)),
     [(f"deep(f(g({i}, h({i}))), X)", [{"X": i}])
      for i in range(0, 60, 7)]),
]


class TestCacheHoldsOnlyWhatItsKeyDetermines:
    """Regression: the loader cached the block the execution filter
    built for the *first* call under a key of top-level summaries, so
    later calls with that key got its survivors (§4: successful
    pre-unification is necessary, not sufficient)."""

    @pytest.mark.parametrize("depth", ["none", "full"])
    def test_repeated_calls_warm_and_in_a_worker(self, depth):
        s = make_session(depth=depth)
        with QueryService(workers=1, preunify_depth=depth) as svc:
            for program, calls in SHARED_KEY_CASES:
                s.store_program(program)
                svc.store_program(program)
                for goal, want in calls:
                    assert [sol.bindings for sol in s.solve(goal)] == want
                    assert [sol.bindings
                            for sol in svc.submit(goal).result()] == want

    def test_filtered_call_still_caches(self):
        s = make_session()
        s.store_program("p(a, b). p(c, c).")
        assert [sol.bindings for sol in s.solve("p(A, A)")] == [{"A": c}]
        assert len(list(s.solve("p(A, B)"))) == 2
        assert (s.loader.loads, s.loader.cache_hits) == (1, 1)


class TestRecursionThroughEDB:
    def test_recursive_rules_in_edb(self):
        s = make_session()
        s.store_relation("edge", [("a", "b"), ("b", "c"), ("c", "d")])
        s.store_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        reach = sorted(str(sol["Y"]) for sol in s.solve("path(a, Y)"))
        assert reach == ["b", "c", "d"]

    def test_mixed_internal_and_external(self):
        s = make_session()
        s.store_relation("base", [(1,), (2,), (3,)])
        s.consult("doubled(X, Y) :- base(X), Y is 2 * X.")
        assert sorted(sol["Y"] for sol in s.solve("doubled(_, Y)")) == \
            [2, 4, 6]

    def test_edb_rule_calling_internal(self):
        s = make_session()
        s.consult("local(10).")
        s.store_program("uses_local(X) :- local(X).")
        assert s.solve_once("uses_local(X)")["X"] == 10
