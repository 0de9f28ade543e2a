"""Cross-layer property tests (hypothesis).

These pin the system's load-bearing invariants:

* pre-unification exactness — every call, the first or a repeat in one
  session, answers what surface unification says at every depth, and
  at depth ``full`` the filter lets through
  exactly the clauses whose head unifies (§4's "necessary but not
  sufficient");
* codec totality — every compilable clause round-trips through the
  relative-address encoding;
* EDB-vs-main-memory equivalence — a program answers as the
  interpreter does whether compiled internally or stored in the EDB and
  dynamically loaded.
"""

from hypothesis import assume, example, given, settings, strategies as st

from repro.engine.session import EduceStar
from repro.lang.writer import format_clause, term_to_text
from repro.terms import (Atom, Struct, Var, deref, make_list, rename_term,
                         term_variables)

from . import oracle

# ------------------------------------------------------------ term makers

_const_names = st.sampled_from(["a", "b", "c", "d", "e"])
_functors = st.sampled_from(["f", "g", "h"])


def head_args(depth=2):
    """Head-argument terms: constants, ints, vars (fresh or one of
    three that may repeat), nested structures, lists (proper or with a
    tail)."""
    leaves = st.one_of(
        _const_names.map(Atom),
        st.integers(0, 9),
        st.just(None),  # placeholder for a fresh Var (built later)
        st.integers(0, 2).map(lambda k: ("var", k)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(
                lambda n, args: ("struct", n, tuple(args)),
                _functors,
                st.lists(children, min_size=1, max_size=2),
            ),
            st.builds(
                lambda items, tail: ("list", tuple(items), tail),
                st.lists(children, max_size=2),
                st.one_of(st.just(Atom("[]")), children),
            ),
        ),
        max_leaves=4,
    )


def _reify(spec, scope=None):
    """*scope* maps ``("var", k)`` placeholders to the Var they share;
    terms reified with the same scope share those variables."""
    if scope is None:
        scope = {}
    if spec is None:
        return Var()
    if isinstance(spec, tuple) and spec[0] == "var":
        return scope.setdefault(spec[1], Var())
    if isinstance(spec, tuple) and spec[0] == "struct":
        return Struct(spec[1], tuple(_reify(a, scope) for a in spec[2]))
    if isinstance(spec, tuple) and spec[0] == "list":
        return make_list([_reify(a, scope) for a in spec[1]],
                         _reify(spec[2], scope))
    return spec


def _clause(a, b, i, with_body=False):
    """``p(A, B, i)``, or ``p(A, B, i) :- ok(A), ok(B)`` — the body makes
    every variable of B permanent, so the head prefix starts with
    ``allocate`` and reads/writes environment slots."""
    scope = {}
    a, b = _reify(a, scope), _reify(b, scope)
    head = Struct("p", (a, b, i))
    if not with_body:
        return head
    return Struct(":-", (head, Struct(",", (Struct("ok", (a,)),
                                            Struct("ok", (b,))))))


def _probe_goal(probe):
    """findall(I, p(A, B, I), L) as a term with named query vars."""
    ivar, lvar = Var("I"), Var("Found")
    scope = {}
    call = Struct("p", (_reify(probe[0], scope), _reify(probe[1], scope),
                        ivar))
    return Struct("findall", (ivar, call, lvar))


def _surface_unify(a, b, trail):
    """Reference unifier over ``repro.terms`` (with occurs check: None
    where the WAM, which has none, would build a cyclic term)."""
    a, b = deref(a), deref(b)
    if a is b:
        return True
    if isinstance(b, Var) and not isinstance(a, Var):
        a, b = b, a
    if isinstance(a, Var):
        if any(v is a for v in term_variables(b)):
            return None
        a.ref = b
        trail.append(a)
        return True
    if isinstance(a, Struct) and isinstance(b, Struct):
        if a.indicator != b.indicator:
            return False
        for x, y in zip(a.args, b.args):
            ok = _surface_unify(x, y, trail)
            if not ok:
                return ok
        return True
    return type(a) is type(b) and a == b


_FA, _FB = (("struct", "f", (Atom(n),)) for n in "ab")
_LA, _LB = (("list", (Atom(n),), Atom("[]")) for n in "ab")


@settings(max_examples=60, deadline=None)
@given(
    heads=st.lists(st.tuples(head_args(), head_args(), st.booleans()),
                   min_size=1, max_size=8),
    probes=st.lists(st.tuples(head_args(), head_args()),
                    min_size=1, max_size=3),
)
# Shared-key pairs whose second call once got the first's filtered block
@example(heads=[(_FA, None, False), (_FB, None, False)],
         probes=[(_FA, None), (_FB, None)])
@example(heads=[(_LA, None, False), (_LB, None, False)],
         probes=[(_LA, None), (_LB, None)])
@example(heads=[(Atom("a"), Atom("b"), False), (Atom("c"), Atom("c"), False)],
         probes=[(("var", 0), ("var", 0)), (None, None)])
def test_preunification_exactness(heads, probes):
    """Probes back to back in one session per depth answer exactly the clauses whose head unifies (oracle: occurs-checked
    surface unification); at ``full`` the filter keeps exactly those."""
    clauses = [_clause(a, b, i, with_body)
               for i, (a, b, with_body) in enumerate(heads)]
    sessions = [EduceStar(preunify_depth=depth)
                for depth in ("none", "full")]
    for session in sessions:
        session.consult("ok(_).")
        session.store_program("\n".join(format_clause(c) for c in clauses))
    for probe in probes:
        goal = _probe_goal(probe)
        unifying = []
        for i, clause in enumerate(clauses):
            head = rename_term(
                clause.args[0] if clause.name == ":-" else clause)
            trail = []
            ok = _surface_unify(head, goal.args[1], trail)
            for var in trail:
                var.ref = None
            assume(ok is not None)      # cyclic without the occurs check
            if ok:
                unifying.append(i)
        for session in sessions:
            before = session.loader.counters()
            got = term_to_text(session.solve_once(goal)["Found"])
            assert got == term_to_text(make_list(unifying))
            moved = {key: value - before[key]
                     for key, value in session.loader.counters().items()}
            if session.preunifier.depth == "none":
                continue
            if moved["preunify_executions"]:
                assert (moved["preunify_executions"]
                        - moved["preunify_rejections"]) == len(unifying)
            if moved["loads"] and moved["clauses_fetched"] >= 2:
                assert moved["clauses_delivered"] == len(unifying)


@settings(max_examples=40, deadline=None)
@given(
    heads=st.lists(st.tuples(head_args(), head_args()),
                   min_size=1, max_size=6),
)
def test_codec_roundtrip_random_clauses(heads):
    from repro.dictionary import SegmentedDictionary
    from repro.edb.codec import decode_code, encode_code
    from repro.edb.external_dict import ExternalDictionary
    from repro.bang.catalog import Catalog
    from repro.bang.pager import Pager
    from repro.wam.compiler import ClauseCompiler, CompileContext

    ctx = CompileContext(SegmentedDictionary(segment_capacity=512))
    compiler = ClauseCompiler(ctx)
    ext = ExternalDictionary(Catalog(Pager(buffer_pages=8)))
    for i, (a, b) in enumerate(heads):
        clause = Struct("q", (_reify(a), _reify(b), i))
        code = compiler.compile_clause(clause).code
        relative = encode_code(code, ctx.dictionary, ext)
        assert decode_code(relative, ctx.dictionary, ext) == code


@settings(max_examples=25, deadline=None)
@given(
    facts=st.lists(st.tuples(st.integers(0, 5), _const_names),
                   min_size=1, max_size=10),
    pivot=st.integers(0, 5),
)
def test_edb_equals_main_memory(facts, pivot):
    """Same program: EDB-stored and consulted answer as the interpreter
    does (the differential oracle, tests/oracle.py)."""
    program = "".join(
        f"r({n}, {s}).\n" for n, s in dict.fromkeys(facts))
    program += "pick(S) :- r(%d, S).\n" % pivot
    oracle.check_text(program, ["pick(S)"])


@settings(max_examples=40, deadline=None)
@given(
    heads=st.lists(st.tuples(head_args(), head_args()),
                   min_size=1, max_size=8),
    body_len=st.integers(0, 3),
)
def test_random_clauses_verify_clean(heads, body_len):
    """Everything the compiler emits passes full static verification
    (docs/ANALYSIS.md): every clause, and the assembled procedure block
    with its switch tables.  The determinism analysis of the honest
    block reports no findings either."""
    from repro.analysis import analyze_clauses, check_clause, check_code
    from repro.dictionary import SegmentedDictionary
    from repro.wam.compiler import ClauseCompiler, CompileContext
    from repro.wam.indexing import build_procedure_layout

    ctx = CompileContext(SegmentedDictionary(segment_capacity=512))
    compiler = ClauseCompiler(ctx)
    compiled = []
    for i, (a, b) in enumerate(heads):
        head = Struct("p", (_reify(a), _reify(b), i))
        if body_len:
            # a chain body exercises environments and permanent vars
            shared = Var()
            goals = [Struct("q", (shared, _reify(a)))
                     for _ in range(body_len)]
            body = goals[0]
            for goal in goals[1:]:
                body = Struct(",", (body, goal))
            clause = Struct(":-", (head, body))
        else:
            clause = head
        compiled.append(compiler.compile_clause(clause))
    for cc in compiled:
        assert check_clause(cc, dictionary=ctx.dictionary) == []
    layout = build_procedure_layout(compiled)
    assert check_code(list(layout.code), arity=3,
                      dictionary=ctx.dictionary) == []
    report = analyze_clauses(compiled, layout=layout)
    assert report.findings == []


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["x", "y", "z"])),
    min_size=1, max_size=25))
def test_relops_match_python_semantics(rows):
    """db_select/db_project/db_count agree with plain Python."""
    session = EduceStar()
    rows = list(dict.fromkeys(rows))
    session.store_relation("t", rows)

    assert session.solve_once("db_count(t/2, N)")["N"] == len(rows)

    session.solve_once("db_select(t/2, t(_, x), only_x)")
    want = len([r for r in rows if r[1] == "x"])
    assert session.solve_once("db_count(only_x/2, N)")["N"] == want

    session.solve_once("db_project(t/2, [2], tags)")
    want = len({r[1] for r in rows})
    assert session.solve_once("db_count(tags/1, N)")["N"] == want
