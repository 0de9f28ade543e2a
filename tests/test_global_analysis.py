"""Whole-program analysis: call graph, modes, determinism, M rules.

Covers the `repro.analysis.global_` package (docs/ANALYSIS.md,
"Whole-program analysis"), a static pass over program text whose one
consumer is the linter's M rules.
"""

from repro.analysis.global_ import (ANY, GROUND, NONVAR, analyze_program,
                                    build_call_graph, builtin_signature,
                                    infer_cardinality, infer_modes, join,
                                    leq, mode_string, program_from_text,
                                    refine)
from repro.relational.datalog.rules import tarjan_sccs

# A dispatch shape no local analysis can index: the key column (arg 1)
# repeats constants, the first argument is a variable in every head.
DISPATCH = """
    act(S, k1, on) :- mark(on).
    act(S, k1, off) :- mark(off).
    act(S, k2, off).
    mark(_).
    route(S, R) :- lookup(S, K), act(S, K, R).
    lookup(c, k1).
    lookup(d, k2).
"""


def analyzed(text):
    return analyze_program(program_from_text(text))


# =====================================================================
# Mode lattice
# =====================================================================

class TestLattice:
    def test_join_weakens(self):
        assert join(GROUND, NONVAR) == NONVAR
        assert join(GROUND, ANY) == ANY
        assert join(GROUND, GROUND) == GROUND

    def test_refine_strengthens(self):
        assert refine(ANY, NONVAR) == NONVAR
        assert refine(NONVAR, GROUND) == GROUND
        assert refine(GROUND, ANY) == GROUND

    def test_order(self):
        assert leq(GROUND, NONVAR) and leq(NONVAR, ANY)
        assert not leq(ANY, GROUND)

    def test_mode_string_letters(self):
        assert mode_string((GROUND, NONVAR, ANY)) == "gna"


# =====================================================================
# Call graph
# =====================================================================

class TestCallGraph:
    def test_edges_and_sites(self):
        program = program_from_text(DISPATCH)
        graph = build_call_graph(program)
        assert graph.edges[("route", 2)] == {("lookup", 2), ("act", 3)}
        callees = {site.callee for site in graph.sites
                   if site.caller == ("route", 2)}
        assert callees == {("lookup", 2), ("act", 3)}

    def test_metapredicate_goal_arguments(self):
        program = program_from_text("""
            p(1).
            q(L) :- length(L, _).
            main :- findall(X, p(X), L), q(L).
            % lint: external main/0
        """)
        graph = build_call_graph(program)
        assert ("p", 1) in graph.edges[("main", 0)]
        assert ("q", 1) in graph.edges[("main", 0)]

    def test_dynamic_declaration_is_external(self):
        program = program_from_text("""
            :- dynamic(counter/1).
            bump :- counter(N).
            % lint: external bump/0
        """)
        assert ("counter", 1) in program.externals

    def test_pragma_external(self):
        program = program_from_text("p :- helper(1).\n"
                                    "% lint: external helper/1\n")
        assert ("helper", 1) in program.externals

    def test_recursive_detection(self):
        program = program_from_text("""
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            edge(a, b).
        """)
        graph = build_call_graph(program)
        assert graph.recursive(("path", 2))
        assert not graph.recursive(("edge", 2))

    def test_sccs_reverse_topological(self):
        program = program_from_text(DISPATCH)
        graph = build_call_graph(program)
        for site in graph.sites:
            if graph.scc_of[site.caller] != graph.scc_of[site.callee]:
                assert graph.scc_of[site.callee] < \
                    graph.scc_of[site.caller]

    def test_tarjan_on_cycle(self):
        a, b, c = ("a", 0), ("b", 0), ("c", 0)
        sccs = tarjan_sccs({a: {b}, b: {a, c}, c: set()})
        assert [c] in sccs
        assert sorted([a, b]) in [sorted(s) for s in sccs]

    def test_entries_are_uncalled_roots(self):
        program = program_from_text(DISPATCH)
        assert program.entries == [("route", 2)]

    def test_recursive_root_is_entry(self):
        """A predicate only its own recursion reaches must seed at ⊤ —
        otherwise its call modes would be self-justified by the
        bootstrap call."""
        program = program_from_text("""
            path(X, Z) :- edge(X, Y), path(Y, Z).
            path(X, Y) :- edge(X, Y).
            edge(a, b).
        """)
        assert ("path", 2) in program.entries


# =====================================================================
# Groundness / mode inference
# =====================================================================

class TestModes:
    def test_builtin_signatures(self):
        sig = builtin_signature(("is", 2))
        assert sig.demands == (1,)
        assert sig.success[0] == GROUND
        assert builtin_signature(("no_such_builtin", 3)) is None

    def test_facts_succeed_ground(self):
        report = analyzed("p(1). p(2). main :- p(X).\n"
                          "% lint: external main/0\n")
        info = report.info("p", 1)
        assert mode_string(info.success_modes) == "g"
        assert mode_string(info.call_modes) == "a"

    def test_call_modes_from_call_sites(self):
        report = analyzed(DISPATCH)
        act = report.info("act", 3)
        # S and K flow from lookup/2's ground facts; R is the output.
        assert mode_string(act.call_modes) == "gga"
        assert mode_string(act.success_modes) == "ggg"

    def test_entry_call_modes_are_top(self):
        report = analyzed(DISPATCH)
        route = report.info("route", 2)
        assert route.entry
        assert mode_string(route.call_modes) == "aa"

    def test_unification_refines_both_sides(self):
        report = analyzed("eq(X) :- X = done. main :- eq(V).\n"
                          "% lint: external main/0\n")
        assert mode_string(report.info("eq", 1).success_modes) == "g"

    def test_findall_output_nonvar(self):
        report = analyzed("""
            p(1).
            collect(L) :- findall(X, p(X), L).
            main :- collect(Out).
            % lint: external main/0
        """)
        succ = report.info("collect", 1).success_modes
        assert leq(succ[0], NONVAR)

    def test_recursive_program_terminates_without_widening(self):
        program = program_from_text("""
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            edge(a, b). edge(b, c).
            main :- path(a, T).
            % lint: external main/0
        """)
        result = infer_modes(program)
        assert not result.widened
        assert mode_string(result.call_modes[("path", 2)]) == "ga"
        assert mode_string(result.success_modes[("path", 2)]) == "gg"

    def test_called_tracking(self):
        program = program_from_text(DISPATCH)
        result = infer_modes(program)
        assert ("act", 3) in result.called
        assert ("route", 2) not in result.called

    def test_report_covers_every_defined_predicate(self):
        report = analyzed(DISPATCH)
        assert sorted(report.infos) == [("act", 3), ("lookup", 2),
                                        ("mark", 1), ("route", 2)]
        assert report.program.entries == [("route", 2)]
        assert report.info("act", 3).determinism == "nondet"


# =====================================================================
# Cardinality / determinism classes
# =====================================================================

class TestCardinality:
    def test_class_spectrum(self):
        report = analyzed("""
            f(X) :- fail.
            id(X).
            s(a).
            m(X) :- X = a.
            m(X) :- X = b.
            b. b.
            main :- f(A), id(B), s(C), m(D), b.
            % lint: external main/0
        """)
        expect = {("f", 1): "fails", ("id", 1): "det",
                  ("s", 1): "semidet", ("m", 1): "nondet",
                  ("b", 0): "multi"}
        for (name, arity), cls in expect.items():
            assert report.info(name, arity).determinism == cls, name

    def test_recursion_widens_max(self):
        report = analyzed("""
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            edge(a, b).
            main :- path(a, T).
            % lint: external main/0
        """)
        assert report.info("path", 2).determinism in ("nondet", "multi")

    def test_det_under_modes_discriminating_position(self):
        """Pairwise-distinct constants at a position every call site
        binds drop the max to one solution."""
        report = analyzed("""
            d(X, k1).
            d(X, k2).
            main :- d(foo, k1).
            % lint: external main/0
        """)
        info = report.info("d", 2)
        assert info.determinism == "semidet"
        assert info.det_arg == 1

    def test_no_det_under_modes_when_keys_repeat(self):
        report = analyzed(DISPATCH)
        assert report.info("act", 3).det_arg is None

    def test_cardinality_direct(self):
        program = program_from_text("one(X) :- X = a. main :- one(Z).\n"
                                    "% lint: external main/0\n")
        graph = build_call_graph(program)
        cards = infer_cardinality(program, graph)
        low, high = cards.cards[("one", 1)]
        assert (low, high) == (0, 1)


# =====================================================================
# M rules (via the linter)
# =====================================================================

class TestModeRules:
    def lint(self, text):
        from repro.analysis.lint import lint_text
        return lint_text(text)

    def rules(self, text):
        return {(f.rule, f.indicator) for f in self.lint(text)}

    def test_m201_fresh_variable_demanded_ground(self):
        found = self.rules("p(X) :- Y is Z + 1, X = Y.\n"
                           "main :- p(V).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("M201", "p/1") in found

    def test_m201_quiet_when_bound_upstream(self):
        found = self.rules("p(X, Y) :- X = 2, Y is X + 1.\n"
                           "main :- p(A, B).\n"
                           "% lint: external main/0\n")
        assert not any(rule == "M201" for rule, _ in found)

    def test_m202_always_fails(self):
        found = self.rules("p(X) :- q(X), fail.\nq(1).\n"
                           "main :- p(V).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("M202", "p/1") in found
        assert ("M202", "main/0") in found  # failure propagates up

    def test_m203_dead_choice_point(self):
        found = self.rules("d(X, k1).\nd(X, k2).\n"
                           "main :- d(foo, k1).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("M203", "d/2") in found

    def test_m_rules_waivable(self):
        clean = self.lint("% lint: disable=M202\n"
                          "% lint: disable=L101\n"
                          "p(X) :- fail.\nmain :- p(V).\n"
                          "% lint: external main/0\n")
        assert not any(f.rule.startswith("M") for f in clean)

    def test_l106_unknown_rule_id(self):
        found = self.rules("% lint: disable=Z999\np(1).\n"
                           "main :- p(X).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("L106", "Z999") in found

    def test_l106_itself_waivable(self):
        clean = self.lint("% lint: disable=Z999\n"
                          "% lint: disable=L106\n"
                          "% lint: disable=L101\n"
                          "p(1).\nmain :- p(X).\n"
                          "% lint: external main/0\n")
        assert not any(f.rule == "L106" for f in clean)

    def test_pragma_on_clause_continuation_line(self):
        """Pragmas are file-scoped comments; one trailing a clause
        continuation line waives the same way as a line of its own."""
        clean = self.lint("p(X) :-\n"
                          "    q(X).   % lint: disable=L102\n"
                          "main :- p(V).\n"
                          "% lint: external main/0\n"
                          "% lint: disable=L101\n")
        assert not any(f.rule == "L102" for f in clean)


# =====================================================================
# CLI exit-code matrix
# =====================================================================

class TestCliExitCodes:
    def run(self, *argv):
        from repro.analysis.cli import main
        return main(list(argv))

    def write(self, tmp_path, text, name="unit.pl"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    CLEAN = ("p(1).\np(2).\nmain :- p(X), write(X).\n"
             "% lint: external main/0\n")
    FINDING = "p(X) :- fail.\nmain :- p(V).\n% lint: external main/0\n"
    BROKEN = "p(1"

    def test_corpus_clean(self, capsys):
        # The corpus lint runs the M rules too: no unwaived M finding.
        assert self.run("corpus") == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_modes_corpus_sweep_is_clean(self):
        # Every corpus unit, linted as the corpus command lints it,
        # raises no unwaived mode (M2xx) finding.
        from repro.analysis.corpus import corpus_entries
        from repro.analysis.lint import lint_text
        mode_findings = [
            (entry.name, f.rule)
            for entry in corpus_entries()
            for f in lint_text(entry.text, name=entry.name,
                               extra_defined=entry.extra_defined)
            if f.rule.startswith("M")]
        assert mode_findings == []

    def test_lint_matrix(self, tmp_path, capsys):
        assert self.run("lint", self.write(tmp_path, self.CLEAN)) == 0
        assert self.run("lint", self.write(tmp_path, self.FINDING)) == 1
        assert self.run("lint", self.write(tmp_path, self.BROKEN)) == 2
        assert self.run("lint", str(tmp_path / "missing.pl")) == 2

    def test_verify_matrix(self, tmp_path, capsys):
        assert self.run("verify", self.write(tmp_path, self.CLEAN)) == 0
        assert self.run("verify", self.write(tmp_path, self.BROKEN)) == 2

    def test_usage_error(self, capsys):
        assert self.run("frobnicate") == 2
