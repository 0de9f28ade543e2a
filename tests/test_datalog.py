"""Unit tests for the Datalog subsystem (docs/DATALOG.md).

Covers rule extraction and its rejection reasons, stratification and
SCC analysis, the new algebra nodes, semi-naive fixpoints (including
stratified negation), magic-set rewriting, the strategy planner, the
session/service wiring, and the documented failure modes (retract,
checkpoint reopen).
"""

import pytest

from repro import EduceStar
from repro.lang.reader import Reader
from repro.terms import Atom
from repro.relational.algebra import (CrossJoin, Filter, LookupJoin, Rows,
                                      describe, execute)
from repro.relational.datalog import (DEFAULT_MIN_ROWS, NotDatalog, analyze,
                                      choose, rule_from_clause, stratify)
from repro.relational.datalog.magic import rewrite
from repro.relational.datalog.rules import (V, range_restriction_violation,
                                            tarjan_sccs)

READER = Reader()


def clause(text):
    return READER.read_term(text)


def rules_map(text, edb=()):
    """program text -> {indicator: [Rule]} grouped by head."""
    grouped = {}
    for term in READER.read_terms(text):
        rule = rule_from_clause(term)
        grouped.setdefault(rule.head.pred, []).append(rule)
    return grouped


# =====================================================================
# Extraction
# =====================================================================

class TestExtraction:
    def test_fact_and_rule(self):
        rule = rule_from_clause(clause("p(a, 7)."))
        assert rule.head.pred == ("p", 2)
        assert rule.head.args == ("a", 7)
        assert rule.body == ()
        rule = rule_from_clause(clause("p(X) :- q(X, Y), r(Y)."))
        assert [l.pred for l in rule.body] == [("q", 2), ("r", 1)]

    def test_variables_shared_across_literals(self):
        rule = rule_from_clause(clause("p(X) :- q(X, Y), r(Y)."))
        q, r = rule.body
        assert q.args[1] == r.args[0]          # same V for Y

    def test_negation_extracted(self):
        rule = rule_from_clause(clause("p(X) :- q(X), \\+ r(X)."))
        assert rule.body[1].negated
        assert rule.body[1].pred == ("r", 1)

    @pytest.mark.parametrize("text", [
        "p(X) :- X = 1.",                    # builtin
        "p(X) :- q(X), !.",                  # cut
        "p(X) :- (q(X) ; r(X)).",            # disjunction
        "p(X) :- Y is X + 1, q(Y).",         # arithmetic
        "p(f(X)) :- q(X).",                  # compound head arg
        "p(X) :- q(f(X)).",                  # compound body arg
        "p(X) :- \\+ G.",                    # metacall under negation
    ])
    def test_non_datalog_rejected(self, text):
        with pytest.raises(NotDatalog):
            rule_from_clause(clause(text))

    def test_range_restriction(self):
        safe = rule_from_clause(clause("p(X) :- q(X)."))
        assert range_restriction_violation(safe) is None
        unsafe = rule_from_clause(clause("p(X, Y) :- q(X)."))
        assert "Y" in (range_restriction_violation(unsafe) or "")
        neg = rule_from_clause(clause("p(X) :- q(X), \\+ r(X, Z)."))
        assert range_restriction_violation(neg) is not None


# =====================================================================
# Stratification
# =====================================================================

class TestStratify:
    def test_recursion_detected(self):
        rules = rules_map("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)
        strata, recursive, error = stratify(rules)
        assert error is None
        assert ("reach", 2) in recursive
        assert strata[("reach", 2)] == 0

    def test_negation_raises_stratum(self):
        rules = rules_map("""
            p(X) :- base(X).
            q(X) :- base(X), \\+ p(X).
        """)
        strata, _recursive, error = stratify(rules)
        assert error is None
        assert strata[("q", 1)] == strata[("p", 1)] + 1

    def test_unstratified_negation(self):
        rules = rules_map("""
            win(X) :- move(X, Y), \\+ win(Y).
        """)
        strata, recursive, error = stratify(rules)
        assert strata is None
        assert "win/1" in error

    def test_mutual_recursion_same_stratum(self):
        rules = rules_map("""
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
        """)
        strata, recursive, error = stratify(rules)
        assert error is None
        assert ("even", 1) in recursive and ("odd", 1) in recursive
        assert strata[("even", 1)] == strata[("odd", 1)]

    def test_tarjan_on_cycle(self):
        a, b, c = ("a", 0), ("b", 0), ("c", 0)
        sccs = tarjan_sccs({a: {b}, b: {a, c}, c: set()})
        assert [c] in sccs
        assert sorted([a, b]) in [sorted(scc) for scc in sccs]

    def test_sccs_reverse_topological(self):
        graph = {("route", 2): {("lookup", 2), ("act", 3)},
                 ("act", 3): {("mark", 1)},
                 ("lookup", 2): set(), ("mark", 1): set(),
                 ("path", 2): {("path", 2), ("route", 2)}}
        sccs = tarjan_sccs(graph)
        scc_of = {ind: i for i, scc in enumerate(sccs) for ind in scc}
        assert sorted(scc_of) == sorted(graph)
        for caller, callees in graph.items():
            for callee in callees:
                if scc_of[caller] != scc_of[callee]:
                    assert scc_of[callee] < scc_of[caller]


# =====================================================================
# Whole-program analysis
# =====================================================================

class TestAnalyze:
    def edb(self, *inds):
        members = set(inds)
        return lambda ind: ind in members

    def clause_map(self, text):
        grouped = {}
        for term in READER.read_terms(text):
            rule = rule_from_clause(term)      # heads only, for grouping
            grouped.setdefault(rule.head.pred, []).append(term)
        return grouped

    def test_evaluable_program(self):
        analysis = analyze(self.clause_map("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """), self.edb(("edge", 2)))
        assert ("reach", 2) in analysis.evaluable
        assert ("edge", 2) in analysis.edb
        assert ("reach", 2) in analysis.recursive

    def test_missing_dependency_blocks(self):
        analysis = analyze(self.clause_map("""
            p(X) :- mystery(X).
        """), self.edb())
        assert ("p", 1) in analysis.blocked
        assert "mystery/1" in analysis.blocked[("p", 1)]

    def test_blocked_status_propagates(self):
        analysis = analyze(self.clause_map("""
            top(X) :- mid(X).
            mid(X) :- mystery(X).
        """), self.edb())
        assert ("top", 1) in analysis.blocked
        assert ("mid", 1) in analysis.blocked

    def test_unstratified_poisons_only_its_scc(self):
        analysis = analyze(self.clause_map("""
            win(X) :- move(X, Y), \\+ win(Y).
            reach(X, Y) :- move(X, Y).
            reach(X, Z) :- move(X, Y), reach(Y, Z).
        """), self.edb(("move", 2)))
        assert ("win", 1) in analysis.blocked
        assert "unstratified" in analysis.blocked[("win", 1)]
        assert ("reach", 2) in analysis.evaluable


# =====================================================================
# Algebra additions
# =====================================================================

class TestAlgebraNodes:
    def test_rows_and_describe(self):
        node = Rows([(1,), (2,)], "delta")
        assert execute(node) == [(1,), (2,)]
        assert describe(node) == "Rows#2(delta)"

    def test_lookup_join_reuses_index(self):
        index = {1: [(1, "a")], 2: [(2, "b"), (2, "c")]}
        join = LookupJoin(Rows([(1,), (2,), (3,)], "outer"), index, 0,
                          "edge")
        assert execute(join) == [(1, 1, "a"), (2, 2, "b"), (2, 2, "c")]
        assert "edge" in describe(join)

    def test_cross_join(self):
        plan = CrossJoin(Rows([(1,), (2,)], "l"), Rows([("x",)], "r"))
        assert sorted(execute(plan)) == [(1, "x"), (2, "x")]

    def test_filter_over_lookup_join(self):
        index = {1: [(1, 1)], 2: [(2, 9)]}
        join = LookupJoin(Rows([(1,), (2,)], "o"), index, 0)
        filtered = Filter(join, lambda row: row[1] == row[2])
        assert execute(filtered) == [(1, 1, 1)]


# =====================================================================
# Magic rewriting
# =====================================================================

class TestMagic:
    def reach_rules(self):
        return rules_map("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)

    def test_rewrite_structure(self):
        program = rewrite(self.reach_rules(), ("reach", 2), {0},
                          ((0, "a"),))
        assert program is not None
        assert program.adornment == "bf"
        assert program.query_pred == ("reach@bf", 2)
        assert ("magic$reach@bf", 1) in program.magic_preds
        # seed fact for the query constant
        seed = program.rules[("magic$reach@bf", 1)][0]
        assert seed.body == () or any(
            r.body == () and r.head.args == ("a",)
            for r in program.rules[("magic$reach@bf", 1)])

    def test_no_bound_positions_no_rewrite(self):
        assert rewrite(self.reach_rules(), ("reach", 2), set(), ()) is None

    def test_rewritten_program_is_stratifiable(self):
        program = rewrite(self.reach_rules(), ("reach", 2), {0},
                          ((0, "a"),))
        strata, _rec, error = stratify(program.rules)
        assert error is None

    def test_right_linear_query_is_factored(self):
        program = rewrite(self.reach_rules(), ("reach", 2), {0},
                          ((0, "a"),))
        assert program.factored
        answers = program.rules[("reach@bf", 2)]
        assert len(answers) == 1                     # the exit rule
        exit_rule = answers[0]
        assert exit_rule.head.args == ("a", V("Y"))
        assert [str(lit) for lit in exit_rule.body] == [
            "magic$reach@bf(X)", "edge(X, Y)"]
        # the demand rule stays: it walks the nodes a goal visits
        assert any(rule.body for rule in
                   program.rules[("magic$reach@bf", 1)])

    # Shapes that keep the unfactored rewrite: each rule headed by the
    # query's adorned predicate stays, the recursive ones included.
    NOT_FACTORED = {
        "same_generation": ("""
            sg(X, X) :- person(X).
            sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
        """, ("sg", 2), 0),
        "reach_fb": ("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """, ("reach", 2), 1),
        "call_not_last": ("""
            p(X, Y) :- edge(X, Y).
            p(X, Z) :- edge(X, Y), p(Y, Z), node(Z).
        """, ("p", 2), 0),
        "free_variable_reused": ("""
            p(X, Y) :- edge(X, Y).
            p(X, Z) :- edge(X, Z), p(Z, Z).
        """, ("p", 2), 0),
        "swapped_call": ("""
            p(X, Y) :- edge(X, Y).
            p(X, Z) :- edge(X, Y), p(Z, Y).
        """, ("p", 2), 0),
        "mutual_recursion": ("""
            a(X, Y) :- edge(X, Y).
            a(X, Z) :- edge(X, Y), b(Y, Z).
            b(X, Z) :- edge(X, Y), a(Y, Z).
        """, ("a", 2), 0),
        "call_argument_unbound": ("""
            p(X, Y) :- edge(X, Y).
            p(X, Z) :- edge(X, Y), p(W, Z).
        """, ("p", 2), 0),
        "free_variable_under_negation": ("""
            p(X, Y) :- edge(X, Y).
            p(X, Z) :- edge(X, Y), \\+ bad(Z), p(Y, Z).
        """, ("p", 2), 0),
    }

    @pytest.mark.parametrize("shape", sorted(NOT_FACTORED))
    def test_other_shapes_are_not_factored(self, shape):
        text, query, bound = self.NOT_FACTORED[shape]
        rules = rules_map(text)
        program = rewrite(rules, query, {bound}, ((bound, "a"),))
        assert program is not None and not program.factored
        adorned = program.rules[program.query_pred]
        assert len(adorned) == len(rules[query])
        for rule, new in zip(rules[query], adorned):
            assert new.head.args == rule.head.args
            assert new.body[0].pred[0].startswith("magic$")
            assert len(new.body) == len(rule.body) + 1
        idb_calls = [lit for new in adorned for lit in new.body
                     if "@" in lit.pred[0]
                     and not lit.pred[0].startswith("magic$")]
        assert idb_calls                     # the recursion stays


# =====================================================================
# Strategy planner
# =====================================================================

class TestStrategy:
    def session(self, edges, datalog="auto", **kwargs):
        kb = EduceStar(datalog=datalog, **kwargs)
        kb.store_relation("edge", edges)
        kb.store_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
            direct(X, Y) :- edge(X, Y).
        """)
        return kb

    def big_edges(self):
        from repro.workloads.graphs import k_ary_tree
        return k_ary_tree(DEFAULT_MIN_ROWS + 64)

    def test_small_edb_stays_topdown(self):
        kb = self.session([("a", "b"), ("b", "c")])
        decision = choose(kb.datalog.analysis(), ("reach", 2), kb.store)
        assert decision.strategy == "topdown"
        assert "small EDB" in decision.reason

    def test_large_recursive_goes_bottomup(self):
        kb = self.session(self.big_edges())
        decision = choose(kb.datalog.analysis(), ("reach", 2), kb.store)
        assert decision.strategy == "bottomup"
        assert decision.base_rows >= DEFAULT_MIN_ROWS

    def test_non_recursive_stays_topdown(self):
        kb = self.session(self.big_edges())
        decision = choose(kb.datalog.analysis(), ("direct", 2), kb.store)
        assert decision.strategy == "topdown"
        assert "non-recursive" in decision.reason

    def test_off_disables(self):
        kb = self.session(self.big_edges())
        decision = choose(kb.datalog.analysis(), ("reach", 2), kb.store,
                          mode="off")
        assert decision.strategy == "topdown"

    def test_auto_routes_large_goal(self):
        kb = self.session(self.big_edges())
        answers = list(kb.solve("reach(n0, X)"))
        assert kb.datalog.bottomup == 1
        assert len(answers) == DEFAULT_MIN_ROWS + 64

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            EduceStar(datalog="sometimes")


# =====================================================================
# Engine behaviour
# =====================================================================

@pytest.mark.usefixtures("bottom_up")
class TestEngine:
    def reach_kb(self, n=30, **kwargs):
        from repro.workloads.graphs import chain
        kb = EduceStar(**kwargs)
        kb.store_relation("edge", chain(n))
        kb.store_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)
        return kb

    def test_bound_query_uses_magic(self):
        kb = self.reach_kb()
        answers = list(kb.solve("reach(n0, X)"))
        assert len(answers) == 30
        assert kb.datalog.magic_rewrites == 1
        assert kb.datalog.magic_facts > 0

    def test_full_closure_derives_each_answer_once(self):
        """Factored right-linear recursion: one demand fact per node
        visited (the seed included) and one answer fact per answer —
        not one answer set per visited node."""
        from repro.workloads.graphs import k_ary_tree
        kb = EduceStar()
        kb.store_relation("edge", k_ary_tree(2000, 4))
        kb.store_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)
        answers = list(kb.solve("reach(n0, X)"))
        assert len(answers) == 2000
        assert kb.datalog.facts_derived <= 2 * len(answers) + 1

    def test_unbound_query_full_fixpoint(self):
        kb = self.reach_kb(10)
        answers = list(kb.solve("reach(X, Y)"))
        assert len(answers) == 55                    # 10+9+...+1
        assert kb.datalog.magic_rewrites == 0

    def test_constant_in_edb_literal_on_a_one_page_relation(self):
        # Regression: for a relation the planner would rather scan than
        # probe (one leaf), the access path dropped the constant and
        # every edge/2 row seeded r/1.
        kb = EduceStar()
        kb.store_relation("edge", [(1, 2), (2, 3), (3, 4), (7, 8)])
        kb.store_program("""
            r(X) :- edge(3, X).
            r(X) :- r(Y), edge(Y, X).
        """)
        assert sorted(s["X"] for s in kb.solve("r(X)")) == [4]
        assert kb.datalog.bottomup == 1

    def test_ground_query(self):
        kb = self.reach_kb(10)
        assert list(kb.solve("reach(n0, n10)")) != []
        assert list(kb.solve("reach(n10, n0)")) == []

    def test_repeated_query_variable(self):
        kb = self.reach_kb(10)
        assert list(kb.solve("reach(X, X)")) == []

    def test_limit_respected(self):
        kb = self.reach_kb(20)
        assert len(list(kb.solve("reach(n0, X)", limit=5))) == 5

    def test_solve_once_routes_like_solve(self):
        # Regression: solve_once went straight to the WAM, where this
        # left-recursive reach/2 over a cyclic edge/2 never returns.
        kb = EduceStar()
        kb.store_relation("edge", [("a", "b"), ("b", "a")])
        kb.store_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
        """)
        assert list(kb.solve("reach(zzz, X)", limit=1)) == []
        parsed = kb.parsed_chars
        assert kb.solve_once("reach(zzz, X)") is None
        assert kb.parsed_chars == parsed + len("reach(zzz, X)")
        assert kb.solve_once("reach(a, X)") is not None
        assert kb.datalog.bottomup == 3

    def test_solutions_deterministic(self):
        kb = self.reach_kb(15)
        first = [s.bindings for s in kb.solve("reach(n0, X)")]
        second = [s.bindings for s in kb.solve("reach(n0, X)")]
        assert first == second

    def test_counters_and_histogram(self):
        kb = self.reach_kb()
        list(kb.solve("reach(n0, X)"))
        counters = kb.counters()
        assert counters["datalog_queries"] == 1
        assert counters["datalog_bottomup"] == 1
        assert counters["datalog_iterations"] > 0
        hist = kb.datalog.histograms()["datalog_fixpoint_iterations"]
        assert hist.count == 1
        snapshot = kb.metrics.snapshot()
        assert "datalog_fixpoint_iterations.count" in snapshot

    def test_span_emitted_under_profile(self):
        kb = self.reach_kb()
        profile = kb.profile("reach(n0, X)")
        names = {span.name for span in profile.root.walk()} \
            if profile.root else set()
        assert "datalog.evaluate" in names

    def test_assert_extends_rulebase(self):
        kb = self.reach_kb(10)
        kb.store_relation("special", [("n3",)])
        before = set(
            tuple(sorted(s.bindings.items())) for s in kb.solve("reach(n0, X)"))
        kb.assert_external("reach(zzz, qqq).")
        answers = list(kb.solve("reach(n0, X)"))
        assert len(answers) == len(before)
        assert list(kb.solve("reach(zzz, X)")) != []

    def test_retract_keeps_tracking(self):
        """A retract removes its one clause and the procedure stays in
        the rulebase: with a recursive clause left the goal still runs
        bottom-up, with none left it is non-recursive — and either way
        it answers what the WAM does."""
        from repro.workloads.graphs import chain
        kb = EduceStar()
        kb.store_relation("edge", chain(10))
        kb.store_relation("link", [("n3", "m0"), ("m0", "m1")])
        kb.store_program("""
            % lint: disable=L104 reach/2
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- link(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
            reach(X, Z) :- link(X, Y), reach(Y, Z).
        """)
        wam = EduceStar(store=kb.store, datalog="off")

        def answers(session):
            return sorted(repr(s["X"]) for s in session.solve("reach(n0, X)"))

        kb.store.retract_clause("reach", 2, 3)       # the link recursion
        assert answers(kb) == answers(wam)
        assert repr(Atom("m0")) in answers(kb)
        assert repr(Atom("m1")) not in answers(kb)
        assert kb.datalog.bottomup == 3
        kb.store.retract_clause("reach", 2, 2)       # the edge recursion
        assert answers(kb) == answers(wam) == [repr(Atom("n1"))]
        assert kb.datalog.last_decision.reason.startswith("non-recursive")

    def test_reopened_store_answers_bottom_up(self, tmp_path):
        path = str(tmp_path / "kb.edb")
        kb = EduceStar.create(path)
        kb.store_relation("edge", [("a", "b"), ("b", "c")])
        kb.store_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)
        assert list(kb.solve("reach(a, X)"))
        assert kb.datalog.bottomup == 1
        kb.save(path)

        reopened = EduceStar.open(path)
        assert ("reach", 2) in reopened.store.datalog_rules
        answers = list(reopened.solve("reach(a, X)"))
        assert len(answers) == 2
        assert reopened.datalog.bottomup == 1

    def test_negation_program(self):
        from repro.workloads.graphs import UNREACHABLE_PROGRAM
        kb = EduceStar()
        kb.store_relation("edge", [("a", "b"), ("b", "c")])
        kb.store_relation("node", [("a",), ("b",), ("c",)])
        kb.store_program(UNREACHABLE_PROGRAM)
        got = {s["X"].name for s in kb.solve("unreachable(c, X)")}
        assert got == {"a", "b", "c"}
        assert kb.datalog.bottomup == 1

    def test_negated_edb_extent_built_once_per_version(self, monkeypatch):
        """A negated *EDB* literal inside a recursive rule is planned on
        every pass; its extent set is built once and stands until
        ``blocked/2`` changes (UNREACHABLE_PROGRAM negates an IDB
        predicate and never takes this path)."""
        from repro.relational.datalog.seminaive import EdbIndexes
        from repro.workloads.graphs import chain, reachable
        kb = EduceStar()
        edges = chain(8) + [("n2", "n6")]
        kb.store_relation("edge", edges)
        kb.store_relation("blocked", [("n3", "n4")])
        kb.store_program("""
            reach(X, Y) :- edge(X, Y), \\+ blocked(X, Y).
            reach(X, Z) :- edge(X, Y), \\+ blocked(X, Y), reach(Y, Z).
        """)
        extents = []
        build = EdbIndexes.extent

        def spy(self, *args):
            extents.append(build(self, *args))
            return extents[-1]
        monkeypatch.setattr(EdbIndexes, "extent", spy)

        def answers(blocked):
            open_edges = [e for e in edges if e not in blocked]
            got = sorted(s["X"].name for s in kb.solve("reach(n0, X)"))
            assert got == sorted(reachable(open_edges, "n0"))

        answers({("n3", "n4")})
        assert len(extents) > 2                      # asked for every pass
        assert all(e is extents[0] for e in extents)  # built once
        answers({("n3", "n4")})
        assert extents[-1] is extents[0]             # and kept between goals
        assert kb.counters()["datalog_edb_rows"] == len(edges) + 1

        kb.assert_external("blocked(n2, n6).")
        del extents[1:]
        answers({("n3", "n4"), ("n2", "n6")})
        assert extents[1] == {("n3", "n4"), ("n2", "n6")}
        assert all(e is extents[1] for e in extents[1:])
        assert kb.counters()["datalog_edb_rows"] == len(edges) + 1 + 2

    def test_explain(self):
        kb = self.reach_kb()
        text = kb.datalog.explain("reach(n0, X)")
        assert "bottomup" in text
        assert "stratum 0" in text
        assert "adornment: bf, factored (1 magic predicates)" in text
        assert kb.datalog.explain_plan("reach(n0, X)").find(
            "magic").attrs["factored"] is True
        assert "adornment: fb (" in kb.datalog.explain("reach(X, n5)")
        assert kb.datalog.explain_plan("reach(X, n5)").find(
            "magic").attrs["factored"] is False
        assert "not routable" in kb.datalog.explain("foo(X), bar(X)")

    @pytest.mark.parametrize("goal", ["reach(n0, X)", "reach(X, Y)",
                                      "edge(n0, X)"])
    def test_text_and_tree_render_one_plan(self, goal):
        """``:plan`` text and the EXPLAIN subtree are two renderings of
        one ``plan()``: same strategy, adornment and strata — and
        planning counts nothing."""
        kb = self.reach_kb()
        before = kb.datalog.counters()
        text = kb.datalog.explain(goal)
        tree = kb.datalog.explain_plan(goal)
        del before["datalog_extractions"]      # the cached analysis
        after = kb.datalog.counters()
        del after["datalog_extractions"]
        assert after == before
        if tree is None:                       # not a stored rules procedure
            assert "topdown" in text and "stratum" not in text
            return
        lines = dict(line.split(":", 1) for line in text.splitlines())
        assert lines["strategy"].strip() == tree.attrs["strategy"]
        magic = tree.find("magic")
        adornment = lines["adornment"].split("(")[0].strip()
        assert adornment.split(",")[0] == magic.label
        assert (adornment.endswith(", factored")
                == magic.attrs.get("factored", False))
        strata = [n for n in tree.walk() if n.op == "stratum"]
        assert strata
        for node in strata:
            members = [m.split(" ")[0] for m in
                       lines[f"stratum {node.label}"].strip().split(", ")]
            assert ",".join(members) == node.attrs["members"]
        assert (sum(line.startswith("stratum") for line in lines)
                == len(strata))

    def test_conjunction_not_routed(self):
        kb = self.reach_kb(10)
        answers = list(kb.solve("reach(n0, X), reach(X, n10)"))
        assert answers                               # WAM handled it
        assert kb.datalog.bottomup == 0


# =====================================================================
# Service integration
# =====================================================================

class TestService:
    @pytest.mark.usefixtures("bottom_up")
    def test_service_routes_and_exposes(self):
        from repro.obs import render_prometheus
        from repro.service import QueryService
        from repro.workloads.graphs import k_ary_tree

        svc = QueryService(workers=2)
        try:
            svc.store_relation("edge", k_ary_tree(100))
            svc.store_program("""
                reach(X, Y) :- edge(X, Y).
                reach(X, Z) :- edge(X, Y), reach(Y, Z).
            """)
            answers = svc.submit("reach(n0, X)").result(timeout=30)
            assert len(answers) == 100
            snapshot = svc.metrics.snapshot()
            assert snapshot["datalog_bottomup"] >= 1
            text = render_prometheus(snapshot)
            assert "datalog_bottomup" in text
        finally:
            svc.shutdown()
