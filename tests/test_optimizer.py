"""WAM optimizer: peephole fusion + determinism-driven dispatch.

The correctness net behind docs/OPTIMIZER.md:

* unit tests for the two passes (``fuse_code``, ``chain_guard``);
* execution tests for every fused opcode (both unification modes) and
  for ``switch_on_arg`` dispatch (hit / miss / unbound);
* the corpus differential suite — every ``tests/corpus/*.pl`` program
  and the E1/E7/E8 workloads run under ``optimize="off"`` and
  ``"full"`` with identical answers, order and errors, plus pinned
  expected answers for representative goals;
* golden-file regression listings (before/after disassembly) for a
  dozen representative procedures, regenerated with
  ``REPRO_REGEN_GOLDEN=1``;
* negative paths: the armed-fault reject (F901), verifier and D301
  gate rejections, and the proof that a rejected block falls back to
  exactly the unoptimized code — unverified optimized code never runs.
"""

import importlib.util
import os
import pathlib

import pytest

from repro import EduceStar, measure, term_to_text
from repro.errors import VerifyError
from repro.obs import render_prometheus
from repro.wam import instructions as I
from repro.wam.indexing import build_procedure_code, build_procedure_layout
from repro.wam.machine import Machine
from repro.wam.optimizer import (OPT_LEVELS, Optimizer,
                                 build_optimized_block, chain_guard,
                                 default_level, fuse_code)

TESTS_DIR = pathlib.Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
GOLDEN_DIR = CORPUS_DIR / "golden"

A = ("atom", 1)
B = ("atom", 2)
C = ("atom", 3)


# ------------------------------------------------------------------ helpers

def collect(engine, goal, limit=50):
    """``(rendered answers in order, exception class name or None)``."""
    rendered, err = [], None
    try:
        for sol in engine.solve(goal, limit=limit):
            rendered.append(tuple(sorted(
                (name, term_to_text(value))
                for name, value in sol.bindings.items())))
    except Exception as exc:          # differential: compare error types
        err = type(exc).__name__
    return rendered, err


def opcodes(code):
    return {instr[0] for instr in code}


def consulted_procedures(machine, text):
    """Consult *text*; return its procedures sorted by indicator."""
    before = set(machine.procedures)
    machine.consult(text)
    fresh = [proc for pid, proc in machine.procedures.items()
             if pid not in before and not proc.name.startswith("$")]
    return sorted(fresh, key=lambda p: (p.name, p.arity))


def open_goal(name, arity):
    if arity == 0:
        return name
    return f"{name}({', '.join(f'Z{i}' for i in range(arity))})"


# =====================================================================
# Pass 1 unit tests — fuse_code
# =====================================================================

class TestFuseCode:
    def test_get_constant_run_fuses(self):
        code = [(I.GET_CONSTANT, A, 0), (I.GET_CONSTANT, B, 1),
                (I.GET_CONSTANT, C, 2), (I.PROCEED,)]
        fused, n = fuse_code(code)
        assert n == 1
        assert fused == [(I.GET_CONSTANTS, ((A, 0), (B, 1), (C, 2))),
                         (I.PROCEED,)]

    def test_single_get_constant_not_fused(self):
        code = [(I.GET_CONSTANT, A, 0), (I.PROCEED,)]
        fused, n = fuse_code(code)
        assert n == 0 and fused == code

    def test_unify_constant_run_fuses(self):
        code = [(I.GET_STRUCTURE, 9, 0),
                (I.UNIFY_CONSTANT, A), (I.UNIFY_CONSTANT, B),
                (I.PROCEED,)]
        fused, n = fuse_code(code)
        assert n == 1
        assert fused[1] == (I.UNIFY_CONSTANTS, (A, B))

    def test_get_list_vv_triple_fuses(self):
        code = [(I.GET_LIST, 0),
                (I.UNIFY_VARIABLE, ("x", 3)), (I.UNIFY_VARIABLE, ("y", 0)),
                (I.PROCEED,)]
        fused, n = fuse_code(code)
        assert n == 1
        assert fused[0] == (I.GET_LIST_VV, 0, ("x", 3), ("y", 0))

    def test_get_list_with_constant_not_fused(self):
        code = [(I.GET_LIST, 0),
                (I.UNIFY_CONSTANT, A), (I.UNIFY_VARIABLE, ("x", 3)),
                (I.PROCEED,)]
        fused, n = fuse_code(code)
        assert n == 0 and fused == code

    def test_put_run_fuses_mixed(self):
        code = [(I.PUT_VALUE, ("y", 0), 0), (I.PUT_CONSTANT, A, 1),
                (I.PUT_VALUE, ("x", 4), 2), (I.CALL, 7, 1)]
        fused, n = fuse_code(code)
        assert n == 1
        assert fused[0] == (I.PUT_ARGS, (("v", ("y", 0), 0),
                                         ("c", A, 1),
                                         ("v", ("x", 4), 2)))
        assert fused[1] == (I.CALL, 7, 1)

    def test_interrupted_runs_keep_order(self):
        code = [(I.GET_CONSTANT, A, 0), (I.GET_VARIABLE, ("x", 1), 1),
                (I.GET_CONSTANT, B, 2), (I.PROCEED,)]
        fused, n = fuse_code(code)
        assert n == 0 and fused == code

    def test_multiple_runs_in_one_clause(self):
        code = [(I.GET_CONSTANT, A, 0), (I.GET_CONSTANT, B, 1),
                (I.PUT_CONSTANT, C, 0), (I.PUT_VALUE, ("x", 2), 1),
                (I.CALL, 7, 0)]
        fused, n = fuse_code(code)
        assert n == 2
        assert opcodes(fused) == {I.GET_CONSTANTS, I.PUT_ARGS, I.CALL}

    def test_empty_code(self):
        assert fuse_code([]) == ([], 0)


# =====================================================================
# Pass 2 unit tests — chain_guard
# =====================================================================

class FakeClause:
    def __init__(self, arity, arg_keys):
        self.arity = arity
        self.arg_keys = arg_keys


def _const(v):
    return ("constant", v)


class TestChainGuard:
    def test_distinct_constants_guard(self):
        clauses = [FakeClause(1, (_const(A),)), FakeClause(1, (_const(B),))]
        guard = chain_guard(clauses, [0, 1], min_arg=0)
        assert guard == (0, {A: 0, B: 1})

    def test_duplicate_constants_rejected(self):
        clauses = [FakeClause(1, (_const(A),)), FakeClause(1, (_const(A),))]
        assert chain_guard(clauses, [0, 1], min_arg=0) is None

    def test_later_position_used_when_first_dup(self):
        clauses = [FakeClause(2, (_const(A), _const(B))),
                   FakeClause(2, (_const(A), _const(C)))]
        guard = chain_guard(clauses, [0, 1], min_arg=0)
        assert guard == (1, {B: 0, C: 1})

    def test_min_arg_skips_first_position(self):
        clauses = [FakeClause(2, (_const(A), _const(B))),
                   FakeClause(2, (_const(C), _const(B)))]
        assert chain_guard(clauses, [0, 1], min_arg=1) is None
        assert chain_guard(clauses, [0, 1], min_arg=0) == (0, {A: 0, C: 1})

    def test_var_argument_blocks_position(self):
        clauses = [FakeClause(1, (("var", None),)),
                   FakeClause(1, (_const(B),))]
        assert chain_guard(clauses, [0, 1], min_arg=0) is None

    def test_structure_argument_blocks_position(self):
        clauses = [FakeClause(1, (("structure", ("fun", 4)),)),
                   FakeClause(1, (_const(B),))]
        assert chain_guard(clauses, [0, 1], min_arg=0) is None

    def test_nil_counts_as_constant(self):
        clauses = [FakeClause(1, (("nil", A),)), FakeClause(1, (_const(B),))]
        assert chain_guard(clauses, [0, 1], min_arg=0) == (0, {A: 0, B: 1})

    def test_missing_metadata_rejected(self):
        clauses = [FakeClause(1, None), FakeClause(1, (_const(B),))]
        assert chain_guard(clauses, [0, 1], min_arg=0) is None

    def test_single_clause_chain_rejected(self):
        assert chain_guard([FakeClause(1, (_const(A),))], [0],
                           min_arg=0) is None

    def test_table_maps_to_chain_positions(self):
        clauses = [FakeClause(1, (_const(A),)),
                   FakeClause(1, (_const(B),)),
                   FakeClause(1, (_const(C),))]
        # positions select a sub-chain; the table maps back to them
        guard = chain_guard(clauses, [2, 0], min_arg=0)
        assert guard == (0, {C: 2, A: 0})


# =====================================================================
# Fused-opcode execution semantics
# =====================================================================

def machines(program, **kw):
    """The same program consulted at every level."""
    out = {}
    for level in OPT_LEVELS:
        m = Machine(optimize=level, **kw)
        m.consult(program)
        out[level] = m
    return out

def assert_agree(ms, goal, limit=50):
    results = {level: collect(m, goal, limit=limit)
               for level, m in ms.items()}
    baseline = results["off"]
    for level, got in results.items():
        assert got == baseline, (
            f"{goal}: optimize={level} diverged:\n"
            f"  off : {baseline}\n  {level}: {got}")
    return baseline


class TestOptimizedExecution:
    def test_get_constants_read_and_fail_modes(self):
        ms = machines("f3(a, b, c). f3(d, e, f).")
        assert ms["full"].optimizer.fusions > 0
        assert_agree(ms, "f3(a, b, c)")
        assert_agree(ms, "f3(a, b, z)")          # fails mid-run
        assert_agree(ms, "f3(X, Y, Z)")
        assert_agree(ms, "f3(a, Y, c)")

    def test_unify_constants_read_and_write(self):
        ms = machines("pt(p(1, 2, 3)).")
        assert_agree(ms, "pt(p(1, 2, 3))")       # read mode
        assert_agree(ms, "pt(p(1, 9, 3))")       # read-mode mismatch
        answers = assert_agree(ms, "pt(X)")       # write mode
        assert answers == ([(("X", "p(1,2,3)"),)], None)

    def test_get_list_vv_read_and_write(self):
        ms = machines("ht([H|T], H, T).")
        assert_agree(ms, "ht([1, 2, 3], H, T)")   # read mode
        answers = assert_agree(ms, "ht(L, 1, [])")  # write mode builds cell
        assert answers == ([(("L", "[1]"),)], None)
        assert_agree(ms, "ht([], H, T)")           # nil: get_list fails

    def test_put_args_loads_call_arguments(self):
        ms = machines("callee(A, B, f(A, B)). "
                      "caller(X, R) :- callee(X, k, R).")
        answers = assert_agree(ms, "caller(1, R)")
        assert answers == ([(("R", "f(1,k)"),)], None)

    def test_switch_on_arg_hit_miss_unbound(self):
        ms = machines("age(alice, 30). age(bob, 31). age(carol, 32).")
        assert ms["full"].optimizer.chains_demoted > 0
        hit = assert_agree(ms, "age(P, 31)")
        assert hit == ([(("P", "bob"),)], None)
        assert assert_agree(ms, "age(P, 99)") == ([], None)     # table miss
        assert assert_agree(ms, "age(P, [x])") == ([], None)    # list → miss
        unbound = assert_agree(ms, "age(P, N)")                  # var path
        assert [dict(a)["P"] for a in unbound[0]] == \
            ["alice", "bob", "carol"]

    def test_switch_on_arg_inside_multiclause_key(self):
        # key 'paris' selects a 2-clause chain; arg 1 disambiguates it
        ms = machines("road(paris, lyon). road(paris, nice). "
                      "road(lyon, nice).")
        assert_agree(ms, "road(paris, nice)")
        assert_agree(ms, "road(paris, X)")
        assert_agree(ms, "road(X, nice)")

    def test_unindexed_chain_demotion(self):
        program = "".join(f"item(k{i}, {i}). " for i in range(50))
        ms = machines(program, index=False)
        stats = {}
        for level, m in ms.items():
            with measure(m) as meas:
                for i in (0, 13, 37, 49):
                    assert collect(m, f"item(k{i}, V)") == \
                        ([(("V", str(i)),)], None)
            stats[level] = meas
        assert stats["full"]["cp_created"] < stats["off"]["cp_created"]
        assert stats["full"]["instr_count"] < stats["off"]["instr_count"]

    def test_instruction_count_drops_on_list_code(self):
        ms = machines("nrev([], []). "
                      "nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).")
        goal = "nrev([a,b,c,d,e,f,g,h], R)"
        stats = {}
        for level, m in ms.items():
            with measure(m) as meas:
                assert collect(m, goal)[0]
            stats[level] = meas
        assert stats["full"]["instr_count"] < stats["off"]["instr_count"]
        # fusion preserves the paper's data-reference accounting
        assert stats["full"]["data_refs"] == stats["off"]["data_refs"]

    def test_set_optimize_rebuilds_at_runtime(self):
        m = Machine(optimize="off")
        m.consult("age(alice, 30). age(bob, 31). age(carol, 32).")
        code_off = list(m.procedure("age", 2).code)
        assert I.SWITCH_ON_ARG not in opcodes(code_off)
        m.set_optimize("full")
        assert I.SWITCH_ON_ARG in opcodes(m.procedure("age", 2).code)
        assert collect(m, "age(P, 31)") == ([(("P", "bob"),)], None)
        m.set_optimize("off")
        assert m.procedure("age", 2).code == code_off

    def test_dynamic_procedures_reoptimized_on_assert(self):
        m = Machine(optimize="full")
        m.solve_once("dynamic(age/2)")
        m.solve_once("assertz(age(alice, 30))")
        m.solve_once("assertz(age(bob, 31))")
        m.solve_once("assertz(age(carol, 32))")
        assert collect(m, "age(P, 32)") == ([(("P", "carol"),)], None)
        assert I.SWITCH_ON_ARG in opcodes(m.procedure("age", 2).code)


# =====================================================================
# Corpus differential suite (every tests/corpus/*.pl, three levels)
# =====================================================================

def _corpus_files():
    return sorted(CORPUS_DIR.glob("*.pl"))


# pinned answers for representative corpus goals (rendered bindings)
PINNED = {
    "indexing_shapes.pl": [
        ("dispatch(b, R)", [(("R", "const_b"),)]),
        ("dispatch(X, int_42)", [(("X", "42"),)]),
        ("only(two, N)", [(("N", "2"),)]),
        ("any(known, R)",
         [(("R", "var_clause(known)"),), (("R", "const"),)]),
    ],
    "cut_negation.pl": [
        ("classify(-5, R)", [(("R", "neg"),)]),
        ("classify(0, R)", [(("R", "zero"),)]),
        ("classify(7, R)", [(("R", "pos"),)]),
        ("guard(13, R)", [(("R", "rejected"),)]),
        ("guard(1, R)", [(("R", "ok"),)]),
    ],
    "disjunction.pl": [
        ("kind(sat, K)", [(("K", "rest"),)]),
        ("kind(mon, K)", [(("K", "work"),)]),
        ("nested(a, Y)", [(("Y", "1"),), (("Y", "2"),)]),
    ],
    "deep_structures.pl": [
        ("sumtree(node(leaf(1), leaf(2)), S)", [(("S", "3"),)]),
        ("build(3, T)", [(("T", "node(node(node(leaf(0),leaf(0)),"
                          "node(leaf(0),leaf(0))),node(node(leaf(0),"
                          "leaf(0)),node(leaf(0),leaf(0))))"),)]),
    ],
}


class TestCorpusDifferential:
    @pytest.mark.parametrize(
        "path", _corpus_files(), ids=lambda p: p.name)
    def test_corpus_agrees_across_levels(self, path):
        text = path.read_text(encoding="utf-8")
        results = {}
        for level in OPT_LEVELS:
            machine = Machine(optimize=level)
            procs = consulted_procedures(machine, text)
            assert procs, f"{path.name}: no procedures consulted"
            level_results = {}
            for proc in procs:
                goal = open_goal(proc.name, proc.arity)
                level_results[goal] = collect(machine, goal)
            for goal, expected in PINNED.get(path.name, ()):
                got, err = collect(machine, goal)
                assert err is None and got == expected, (
                    f"{path.name} @ optimize={level}: {goal} gave "
                    f"{(got, err)}, pinned {expected}")
            assert machine.optimizer.rejects == 0, \
                f"{path.name} @ {level}: gate rejected a block"
            results[level] = level_results
        for level in OPT_LEVELS[1:]:
            assert results[level] == results["off"], (
                f"{path.name}: optimize={level} diverged from off on "
                + ", ".join(g for g in results["off"]
                            if results[level][g] != results["off"][g]))


# =====================================================================
# Workload differential: E1 (MVV), E7 (choice points), E8 (EDB rules)
# =====================================================================

E7_NONDET_PROGRAM = """
color(r). color(g). color(b). color(y).
adj(1,2). adj(1,3). adj(2,3). adj(2,4). adj(3,4).
ok(A-CA, B-CB) :- (adj(A,B) ; adj(B,A)), !, CA \\== CB.
ok(_, _).
colouring([C1,C2,C3,C4]) :-
    color(C1), color(C2), color(C3), color(C4),
    ok(1-C1, 2-C2), ok(1-C1, 3-C3), ok(2-C2, 3-C3),
    ok(2-C2, 4-C4), ok(3-C3, 4-C4).
"""

E8_PROGRAM = """
tree_sum(leaf(V), V).
tree_sum(node(L, R), S) :-
    tree_sum(L, SL), tree_sum(R, SR), S is SL + SR.

build_tree(0, leaf(1)) :- !.
build_tree(N, node(L, R)) :-
    N1 is N - 1, build_tree(N1, L), build_tree(N1, R).
"""


class TestWorkloadDifferential:
    def test_e1_mvv_queries_agree(self):
        from repro.workloads import mvv
        data = mvv.generate(seed=11, scale=0.12)
        queries = mvv.class1_queries(data, 4) + mvv.class2_queries(data, 3)
        results, stats = {}, {}
        for level in ("off", "full"):
            session = mvv.load_educestar(
                data, session=EduceStar(optimize=level))
            with measure(session.machine) as meas:
                results[level] = [collect(session, q) for q in queries]
            stats[level] = meas
            assert session.machine.optimizer.rejects == 0
        assert results["full"] == results["off"]
        assert any(answers for answers, _ in results["off"])
        assert stats["full"]["instr_count"] < stats["off"]["instr_count"]

    def test_e7_colouring_agrees_unindexed(self):
        ms = machines(E7_NONDET_PROGRAM, index=False)
        answers = assert_agree(ms, "colouring(C)", limit=40)
        assert len(answers[0]) == 40 and answers[1] is None

    def test_e7_bound_lookups_drop_choicepoints(self):
        program = "".join(f"item(k{i}, {i}).\n" for i in range(50))
        stats = {}
        for level in ("off", "full"):
            m = Machine(index=False, optimize=level)
            m.consult(program)
            with measure(m) as meas:
                for i in range(50):
                    assert m.solve_once(f"item(k{i}, _)") is not None
            stats[level] = meas
        # the guard dispatches every bound lookup straight to its
        # clause: all 50 chain choice points disappear (one per query
        # remains for the top-level goal itself)
        assert stats["off"]["cp_created"] - stats["full"]["cp_created"] >= 45
        assert stats["full"]["instr_count"] < stats["off"]["instr_count"] / 2

    def test_e8_stored_rules_agree(self):
        results = {}
        for level in ("off", "full"):
            star = EduceStar(optimize=level)
            star.store_program(E8_PROGRAM)
            results[level] = collect(
                star, "build_tree(7, T), tree_sum(T, S)", limit=1)
            assert star.machine.optimizer.rejects == 0
        assert results["full"] == results["off"]
        answers, err = results["off"]
        assert err is None and dict(answers[0])["S"] == "128"


# =====================================================================
# Golden-file regression listings (before/after disassembly)
# =====================================================================

GOLDEN_PROGRAM = """
facts3(a, b, c).
facts3(d, e, f).

point(p(1, 2, 3)).
point(p(4, 5, 6)).

headtail([H|T], H, T).

callee(A, B, f(A, B)).
caller(X, R) :- callee(X, k, R).

agetab(alice, 30).
agetab(bob, 31).
agetab(carol, 32).

road(paris, lyon).
road(paris, nice).
road(lyon, nice).

member2(X, [X|_]).
member2(X, [_|T]) :- member2(X, T).

nrev2([], []).
nrev2([H|T], R) :- nrev2(T, RT), append(RT, [H], R).

classify2(N, neg) :- N < 0, !.
classify2(0, zero) :- !.
classify2(_, pos).

zip2([], [], []).
zip2([X|Xs], [Y|Ys], [X-Y|Zs]) :- zip2(Xs, Ys, Zs).

weekend2(sat).
weekend2(sun).
"""

GOLDEN_PROCEDURES = [
    ("facts3", 3), ("point", 1), ("headtail", 3), ("callee", 3),
    ("caller", 2), ("agetab", 2), ("road", 2), ("member2", 2),
    ("nrev2", 2), ("classify2", 2), ("zip2", 3), ("weekend2", 1),
]


def _golden_listing(name, arity):
    from repro.wam.debugger import disassemble
    sections = []
    for level in ("off", "full"):
        machine = Machine(optimize=level)
        machine.consult(GOLDEN_PROGRAM)
        sections.append(f"%% optimize={level}\n"
                        f"{disassemble(machine, name, arity)}\n")
    return "\n".join(sections)


class TestGoldenListings:
    @pytest.mark.parametrize(
        "name,arity", GOLDEN_PROCEDURES,
        ids=[f"{n}_{a}" for n, a in GOLDEN_PROCEDURES])
    def test_listing_matches_golden(self, name, arity):
        listing = _golden_listing(name, arity)
        path = GOLDEN_DIR / f"{name}_{arity}.txt"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(listing, encoding="utf-8")
            return
        assert path.exists(), \
            f"{path} missing — regenerate with REPRO_REGEN_GOLDEN=1"
        assert listing == path.read_text(encoding="utf-8"), (
            f"{name}/{arity} listing changed; review the diff and "
            "regenerate with REPRO_REGEN_GOLDEN=1 if intended")

    def test_goldens_exercise_the_passes(self):
        full = "".join(
            (GOLDEN_DIR / f"{n}_{a}.txt").read_text(encoding="utf-8")
            .split("%% optimize=full", 1)[1]
            for n, a in GOLDEN_PROCEDURES
            if (GOLDEN_DIR / f"{n}_{a}.txt").exists())
        assert I.GET_CONSTANTS in full
        assert I.UNIFY_CONSTANTS in full
        assert I.GET_LIST_VV in full
        assert I.PUT_ARGS in full
        assert I.SWITCH_ON_ARG in full


# =====================================================================
# Negative paths — the gate never lets unverified code run
# =====================================================================

class TestNegativePaths:
    def test_armed_reject_falls_back(self):
        m = Machine(optimize="full")
        m.optimizer.arm_reject(1)
        m.consult("conf(a, 1). conf(b, 2).")
        assert m.optimizer.rejects == 1
        assert m.optimizer.last_reject[0] == "conf/2"
        assert m.optimizer.last_reject[1] == "F901"
        # the block that runs is the unoptimized one...
        assert I.SWITCH_ON_ARG not in opcodes(m.procedure("conf", 2).code)
        # ...and it still answers correctly
        assert collect(m, "conf(X, 2)") == ([(("X", "b"),)], None)
        # the armed fault is consumed: the next block optimizes again
        m.consult("conf2(a, 1). conf2(b, 2).")
        assert m.optimizer.rejects == 1
        assert I.SWITCH_ON_ARG in opcodes(m.procedure("conf2", 2).code)

    def test_reject_lands_on_flight_recorder(self):
        """A gate fallback is a `wam_opt.reject` event on the session
        store's ring, interleaved with the rest of the event stream and
        carrying the rule id and procedure that tripped it."""
        from repro import EduceStar
        kb = EduceStar(optimize="full")
        kb.store.events.enabled = True
        kb.machine.optimizer.arm_reject(1)
        kb.consult("conf(a, 1). conf(b, 2).")
        rejects = [e for e in kb.store.events.tail(50)
                   if e["kind"] == "wam_opt.reject"]
        assert len(rejects) == 1
        event = rejects[0]
        assert event["procedure"] == "conf/2"
        assert event["rule"] == "F901"
        assert isinstance(event["offset"], int)
        # Ring disabled (the default for bare sessions): no recording.
        kb.store.events.enabled = False
        kb.machine.optimizer.arm_reject(1)
        kb.consult("conf3(a, 1). conf3(b, 2).")
        assert kb.machine.optimizer.rejects == 2
        assert not [e for e in kb.store.events.tail(50)
                    if e["kind"] == "wam_opt.reject"
                    and e["procedure"] == "conf3/2"]

    def _compiled(self, program, name, arity):
        m = Machine(optimize="off")
        m.consult(program)
        return m, m.procedure(name, arity).compiled

    def test_gate_rejects_verifier_finding(self):
        m, compiled = self._compiled("pair(a, b). pair(c, d).",
                                     "pair", 2)
        opt = Optimizer("full")
        layout = build_procedure_layout(compiled, index=True,
                                        optimizer=opt)
        # corrupt a fused constant to a dead dictionary id (V103)
        for offset, instr in enumerate(layout.code):
            if instr[0] == I.GET_CONSTANTS:
                items = tuple(((("atom", 10 ** 6), ai) if i == 0
                               else (const, ai))
                              for i, (const, ai) in enumerate(instr[1]))
                layout.code[offset] = (I.GET_CONSTANTS, items)
                break
        else:
            pytest.fail("expected a get_constants instruction")
        with pytest.raises(VerifyError) as exc:
            opt.gate(compiled, layout, index=True,
                     dictionary=m.dictionary, procedure="pair/2")
        assert exc.value.rule.startswith("V")

    def test_gate_rejects_rebuild_mismatch(self):
        m, compiled = self._compiled("pair(a, b). pair(c, d).",
                                     "pair", 2)
        opt = Optimizer("full")
        layout = build_procedure_layout(compiled, index=True,
                                        optimizer=opt)
        # reverse the items inside one superinstruction: the code still
        # verifies (same shape, same registers, live constants), but no
        # longer equals the rebuild of its clause set (D301)
        for offset, instr in enumerate(layout.code):
            if instr[0] == I.GET_CONSTANTS:
                layout.code[offset] = (I.GET_CONSTANTS,
                                       tuple(reversed(instr[1])))
                break
        else:
            pytest.fail("expected a get_constants instruction")
        with pytest.raises(VerifyError) as exc:
            opt.gate(compiled, layout, index=True,
                     dictionary=m.dictionary, procedure="pair/2")
        assert exc.value.rule == "D301"

    def test_rejected_block_is_exactly_the_naive_code(self, monkeypatch):
        m, compiled = self._compiled(
            "age(alice, 30). age(bob, 31). age(carol, 32).", "age", 2)
        opt = Optimizer("full")

        def failing_gate(*args, **kwargs):
            raise VerifyError("X999", 0, "injected", "age/2")

        monkeypatch.setattr(Optimizer, "gate", failing_gate)
        code = build_optimized_block(compiled, index=True, optimizer=opt,
                                     dictionary=m.dictionary,
                                     procedure="age/2")
        assert code == build_procedure_code(compiled, index=True)
        assert opt.rejects == 1
        assert opt.last_reject == ("age/2", "X999", 0)

    def test_gate_passes_untampered_block(self):
        m, compiled = self._compiled("pair(a, b). pair(c, d).",
                                     "pair", 2)
        opt = Optimizer("full")
        layout = build_procedure_layout(compiled, index=True,
                                        optimizer=opt)
        opt.gate(compiled, layout, index=True,
                 dictionary=m.dictionary, procedure="pair/2")  # no raise


# =====================================================================
# Knob plumbing: session, loader cache, REPL, exposition, counters
# =====================================================================

class TestKnobPlumbing:
    def test_suite_default_is_full(self):
        # conftest flips the process default so the whole suite runs
        # optimized (docs/OPTIMIZER.md) — unless the CI leg that tests
        # the shipped default set REPRO_TEST_OPTIMIZE
        expected = os.environ.get("REPRO_TEST_OPTIMIZE", "full")
        assert default_level() == expected
        assert Machine().optimizer.level == expected

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            Machine(optimize="fast")
        with pytest.raises(ValueError):
            Optimizer("o2")
        with pytest.raises(ValueError):
            Machine(optimize="full").set_optimize("turbo")

    def test_two_levels_only(self, capsys):
        """``off`` and ``full`` are the only levels: the session and the
        REPL refuse the retired fusion-only level and name both."""
        assert OPT_LEVELS == ("off", "full")
        with pytest.raises(ValueError, match="'off', 'full'"):
            EduceStar(optimize="peephole")
        star = EduceStar(optimize="full")
        _load_repl().command(star, ":optimize peephole",
                             interactive=False)
        assert "usage: :optimize [off|full]" in capsys.readouterr().out
        assert star.optimize == "full"

    def test_session_knob_and_property(self):
        star = EduceStar(optimize="off")
        assert star.optimize == "off"
        star.set_optimize("full")
        assert star.optimize == "full"
        assert star.machine.optimizer is star.loader.optimizer

    def test_loader_serves_fresh_blocks_after_flip(self):
        star = EduceStar(optimize="full")
        star.store_program("edge(a, b). edge(b, c). edge(c, d).")
        expected = ([(("X", "b"),)], None)
        assert collect(star, "edge(a, X)") == expected
        star.set_optimize("off")
        assert collect(star, "edge(a, X)") == expected
        star.set_optimize("full")
        assert collect(star, "edge(a, X)") == expected

    def test_counters_flow_into_machine_and_session(self):
        star = EduceStar(optimize="full")
        star.machine.consult("f3(a, b, c). f3(d, e, f).")
        counters = star.counters()
        assert counters["wam_opt_blocks"] > 0
        assert counters["wam_opt_fusions"] > 0
        assert counters["wam_opt_rejects"] == 0

    def test_counters_in_prometheus_exposition(self):
        star = EduceStar(optimize="full")
        star.machine.consult("f3(a, b, c). f3(d, e, f).")
        text = render_prometheus(star.metrics.snapshot())
        for counter in ("wam_opt_blocks", "wam_opt_fusions",
                        "wam_opt_chains_demoted", "wam_opt_rejects"):
            assert f"educe_{counter}" in text

    def test_reset_counters_covers_optimizer(self):
        m = Machine(optimize="full")
        m.consult("f3(a, b, c).")
        assert m.counters()["wam_opt_blocks"] > 0
        m.reset_counters()
        assert m.counters()["wam_opt_blocks"] == 0


def _load_repl():
    path = TESTS_DIR.parent / "examples" / "repl.py"
    spec = importlib.util.spec_from_file_location("educe_repl", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReplCommand:
    def test_optimize_set_and_show(self, capsys):
        repl = _load_repl()
        star = EduceStar(optimize="full")
        repl.command(star, ":optimize off", interactive=False)
        assert star.optimize == "off"
        assert "optimize off" in capsys.readouterr().out
        repl.command(star, ":optimize", interactive=False)
        out = capsys.readouterr().out
        assert "optimize off" in out and "wam_opt_blocks" in out

    def test_optimize_rejects_unknown_level(self, capsys):
        repl = _load_repl()
        star = EduceStar(optimize="full")
        repl.command(star, ":optimize warp", interactive=False)
        assert "usage: :optimize" in capsys.readouterr().out
        assert star.optimize == "full"
