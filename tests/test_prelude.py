"""Tests for the compiled Prolog library (prelude)."""

import pytest

from repro.lang.writer import term_to_text


def one(machine, goal, var):
    sol = machine.solve_once(goal)
    assert sol is not None, goal
    return term_to_text(sol[var])


def all_(machine, goal, var):
    return [term_to_text(s[var]) for s in machine.solve(goal)]


class TestAppendMember:
    def test_append_ground(self, machine):
        assert one(machine, "append([1,2], [3], L)", "L") == "[1,2,3]"

    def test_append_split_enumeration(self, machine):
        assert len(list(machine.solve("append(_, _, [a,b,c])"))) == 4

    def test_append_finds_prefix(self, machine):
        assert one(machine, "append(P, [c], [a,b,c])", "P") == "[a,b]"

    def test_member_enumerates(self, machine):
        assert all_(machine, "member(X, [a,b,c])", "X") == ["a", "b", "c"]

    def test_member_checks(self, machine):
        assert machine.solve_once("member(b, [a,b])") is not None
        assert machine.solve_once("member(z, [a,b])") is None

    def test_memberchk_deterministic(self, machine):
        assert len(list(machine.solve("memberchk(a, [a,a,a])"))) == 1


class TestListUtilities:
    def test_reverse(self, machine):
        assert one(machine, "reverse([1,2,3], R)", "R") == "[3,2,1]"

    def test_nth0_nth1(self, machine):
        assert one(machine, "nth0(0, [a,b], E)", "E") == "a"
        assert one(machine, "nth1(1, [a,b], E)", "E") == "a"

    def test_nth_enumerates_positions(self, machine):
        sols = [(s["I"], str(s["E"]))
                for s in machine.solve("nth0(I, [x,y], E)")]
        assert sols == [(0, "x"), (1, "y")]

    def test_last(self, machine):
        assert one(machine, "last([1,2,3], X)", "X") == "3"

    def test_select(self, machine):
        assert all_(machine, "select(X, [a,b], _)", "X") == ["a", "b"]
        assert one(machine, "select(b, [a,b,c], R)", "R") == "[a,c]"

    def test_delete(self, machine):
        assert one(machine, "delete([a,b,a,c], a, R)", "R") == "[b,c]"

    def test_subtract(self, machine):
        assert one(machine, "subtract([1,2,3,4], [2,4], R)", "R") == "[1,3]"

    def test_intersection_union(self, machine):
        assert one(machine, "intersection([1,2,3], [2,3,4], R)", "R") \
            == "[2,3]"
        assert one(machine, "union([1,2], [2,3], R)", "R") == "[1,2,3]"


class TestNumericLists:
    def test_sum_list(self, machine):
        assert one(machine, "sum_list([1,2,3], S)", "S") == "6"
        assert one(machine, "sum_list([], S)", "S") == "0"

    def test_max_min_list(self, machine):
        assert one(machine, "max_list([3,1,4,1,5], M)", "M") == "5"
        assert one(machine, "min_list([3,1,4], M)", "M") == "1"

    def test_numlist(self, machine):
        assert one(machine, "numlist(2, 5, L)", "L") == "[2,3,4,5]"

    def test_numlist_single(self, machine):
        assert one(machine, "numlist(3, 3, L)", "L") == "[3]"

    def test_numlist_empty_range_fails(self, machine):
        assert machine.solve_once("numlist(5, 2, _)") is None


class TestMaplist:
    def test_maplist2(self, machine):
        machine.consult("pos(X) :- X > 0.")
        assert machine.solve_once("maplist(pos, [1,2,3])") is not None
        assert machine.solve_once("maplist(pos, [1,-2])") is None

    def test_maplist3(self, machine):
        machine.consult("double(X, Y) :- Y is 2 * X.")
        assert one(machine, "maplist(double, [1,2,3], L)", "L") == "[2,4,6]"

    def test_maplist4(self, machine):
        machine.consult("addp(A, B, C) :- C is A + B.")
        assert one(machine, "maplist(addp, [1,2], [10,20], L)", "L") \
            == "[11,22]"

    def test_maplist_empty(self, machine):
        assert machine.solve_once("maplist(nothing, [])") is not None


LIBRARY_GOALS = [
    ("append(X, Y, [1,2])", ["X", "Y"]),
    ("maplist(reverse, [[1,2],[3]], L)", ["L"]),
    ("min_list([3,1,4], M)", ["M"]),
    ("numlist(2, 5, L)", ["L"]),
    ("delete([a,b,a,c], a, R)", ["R"]),
]


def library_answers(engine):
    return [[tuple(term_to_text(s[v]) for v in names)
             for s in engine.solve(goal)]
            for goal, names in LIBRARY_GOALS]


class TestSharedLibrary:
    """The library text is read once per process and compiled once per
    process; every session starts from a copy of that image (or asserts
    the clauses) and never changes the shared one."""

    def test_one_image_per_index_value(self, monkeypatch):
        from repro.wam import prelude
        from repro.wam.machine import Machine
        monkeypatch.setattr(prelude, "_IMAGES", {})
        built = []
        build = prelude.build_procedure_code

        def counted(clauses, index=True):
            built.append(index)
            return build(clauses, index=index)

        monkeypatch.setattr(prelude, "build_procedure_code", counted)
        for index in (True, False, True, False):
            Machine(index=index)
        library = prelude._compiled_library()[1]
        assert set(prelude._IMAGES) == {True, False}
        assert len(built) == 2 * len(library)
        a, b = Machine(index=False), Machine(index=False)
        assert all(a.procedures[pid].code is b.procedures[pid].code
                   for pid in library)

    def test_later_sessions_never_tokenize(self, monkeypatch):
        from repro import EduceStar
        from repro.engine.interpreter import Interpreter
        from repro.lang import reader
        from repro.wam.machine import Machine
        Machine()  # the first session of the process may read the text

        def refuse(text):
            raise AssertionError(f"tokenized {text[:40]!r}")

        monkeypatch.setattr(reader, "tokenize", refuse)
        assert Machine().procedure("append", 3) is not None
        assert EduceStar().machine.procedure("maplist", 4) is not None
        assert ("append", 3) in Interpreter().database

    def test_back_to_back_machines_are_identical(self):
        """Cloning the image moved no id: same pids, same ``$aux`` names,
        same per-clause code, same blocks, same dictionary — and neither
        machine compiled anything of the library."""
        from repro.wam.machine import Machine

        def build():
            m = Machine()
            return m, {
                pid: (p.name, p.arity, p.kind,
                      [c.code for c in p.compiled], p.code)
                for pid, p in m.procedures.items()}

        (first, table), (second, again) = build(), build()
        assert list(table) == list(again)
        assert table == again
        assert any(name.startswith("$aux_") for name, *_ in table.values())
        assert list(first.dictionary.entries()) \
            == list(second.dictionary.entries())
        assert first.compile_count == second.compile_count == 0

    def test_later_sessions_never_compile_the_library(self, monkeypatch):
        from repro import EduceStar
        from repro.wam.compiler import ClauseCompiler
        from repro.wam.machine import Machine
        expected = library_answers(Machine())

        def refuse(self, clause):
            raise AssertionError(f"compiled {clause!r}")

        monkeypatch.setattr(ClauseCompiler, "compile_clause", refuse)
        assert library_answers(Machine()) == expected
        assert library_answers(EduceStar()) == expected

    def test_a_session_changes_only_its_own_copy(self):
        from repro.wam.machine import Machine
        a, b = Machine(), Machine()

        def state(m):
            return {pid: (p.code, list(p.compiled), list(p.clauses))
                    for pid, p in m.procedures.items()}

        expected = library_answers(b)
        before = state(b)
        entries = list(b.dictionary.entries())

        a.consult("append(mine, mine, mine).")
        a.refresh(a.procedure("member", 2))    # a new block for a alone
        a.dictionary.delete(a.dictionary.lookup("numlist", 3))
        a.dictionary.intern("only_in_a", 2)
        assert a.solve_once("append(X, Y, Z)")["X"].name == "mine"
        assert a.procedure("numlist", 3) is None

        after = state(b)
        assert list(after) == list(before)
        for pid, (code, compiled, clauses) in before.items():
            assert after[pid][0] is code
            assert all(x is y for x, y in zip(after[pid][1], compiled))
            assert after[pid][2] == clauses
        assert list(b.dictionary.entries()) == entries
        assert library_answers(b) == expected
        assert library_answers(Machine()) == expected

    def test_running_library_predicates_binds_no_shared_variable(self):
        from repro.engine.educe_baseline import EduceBaseline
        from repro.engine.interpreter import Interpreter
        from repro.terms import Struct, Var
        from repro.wam.machine import Machine
        from repro.wam.prelude import library

        goals = ["append(X, Y, [1,2,3])",
                 "msort([c,a,b], L), reverse(L, R), last(R, X)",
                 "findall(A-B, append(A, B, [1,2]), L), "
                 "length(L, 3)"]
        for engine in (Machine(), Interpreter(), EduceBaseline()):
            for goal in goals:
                assert list(engine.solve(goal)), goal
        m = Machine()
        assert m.solve_once("listing(append/3)") is not None
        assert len(list(m.solve(
            "clause(append(_, _, _), Body)"))) == 2
        # a session that grows a library predicate grows its own copy
        grown = Interpreter()
        assert grown.solve_once(
            "assertz(append(extra, extra, extra))") is not None
        assert len(grown.database[("append", 3)]) == 3

        def variables(term):
            if isinstance(term, Var):
                yield term
            elif isinstance(term, Struct):
                for arg in term.args:
                    yield from variables(arg)

        seen = [v for clauses in library().values()
                for clause in clauses for v in variables(clause)]
        assert seen and all(v.ref is None for v in seen)
        assert len(library()[("append", 3)]) == 2
        assert len(Interpreter().database[("append", 3)]) == 2

    def test_a_sessions_operators_stay_its_own(self):
        from repro import EduceStar
        from repro.errors import SyntaxError_
        from repro.wam.prelude import library
        before = library()
        first = EduceStar()
        first.consult(":- op(200, xfy, ===>).\nr(a ===> b).")
        assert first.solve_once("r(X ===> b)") is not None
        second = EduceStar()
        with pytest.raises(SyntaxError_):
            second.consult("r(a ===> b).")
        assert second.machine.reader.operators.infix("===>") is None
        assert library() is before
        assert one(second.machine, "append([1], [2], L)", "L") == "[1,2]"
