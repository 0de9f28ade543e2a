"""The static-analysis framework: verifier, abstract interpreter,
determinism analysis, linter, loader gate and CLI (docs/ANALYSIS.md)."""

import pytest

from repro.analysis import (analyze_clauses, check_code,
                            lint_text, verify_code)
from repro.analysis.cli import main as cli_main
from repro.errors import VerifyError
from repro.wam import instructions as I


def rules_of(findings):
    return {f.rule for f in findings}


def compile_clauses(machine, text):
    """The compiled clauses of a program text, flattened."""
    from repro.wam.compiler import ClauseCompiler
    cc = ClauseCompiler(machine.ctx)
    return [cc.compile_clause(term)
            for term in machine.reader.read_terms(text)]


# =====================================================================
# Structural verification (V1xx)
# =====================================================================

class TestStructural:
    def test_clean_block_is_clean(self, machine):
        machine.consult("p(1). p(2). p(f(X)) :- p(X).")
        proc = machine.procedure("p", 1)
        assert check_code(proc.code, arity=1,
                          dictionary=machine.dictionary) == []

    def test_v101_unknown_opcode(self):
        findings = check_code([("fet_variable", ("x", 0), 0),
                               (I.PROCEED,)])
        assert "V101" in rules_of(findings)

    def test_v101_malformed_operand(self):
        findings = check_code([(I.GET_CONSTANT, "not_a_const", 0),
                               (I.PROCEED,)])
        assert "V101" in rules_of(findings)

    def test_v101_wrong_operand_count(self):
        findings = check_code([(I.PROCEED, 1, 2)])
        assert "V101" in rules_of(findings)

    def test_v102_jump_out_of_range(self):
        findings = check_code([(I.TRY_ME_ELSE, 99), (I.PROCEED,),
                               (I.TRUST_ME,), (I.PROCEED,)])
        assert "V102" in rules_of(findings)

    def test_v103_dead_dictionary_id(self, machine):
        machine.consult("q(a).")
        code = [(I.GET_CONSTANT, ("atom", 999_999), ("x", 0)),
                (I.PROCEED,)]
        findings = check_code(code, dictionary=machine.dictionary)
        assert "V103" in rules_of(findings)

    def test_v104_broken_chain(self):
        # try_me_else points at a plain proceed, not retry/trust
        findings = check_code([(I.TRY_ME_ELSE, 2), (I.PROCEED,),
                               (I.PROCEED,)])
        assert "V104" in rules_of(findings)

    def test_v105_unbalanced_allocate(self):
        findings = check_code([(I.ALLOCATE, 1), (I.PROCEED,)])
        assert "V105" in rules_of(findings)

    def test_v105_deallocate_without_env(self):
        findings = check_code([(I.DEALLOCATE,), (I.PROCEED,)])
        assert "V105" in rules_of(findings)

    def test_v106_empty_and_fallthrough(self):
        assert "V106" in rules_of(check_code([]))
        assert "V106" in rules_of(
            check_code([(I.GET_NIL, ("x", 0))]))

    def test_v107_unregistered_escape(self):
        findings = check_code([(I.ESCAPE, "no_such_builtin", 2),
                               (I.PROCEED,)])
        assert "V107" in rules_of(findings)

    def test_v108_malformed_switch_table(self):
        findings = check_code(
            [(I.SWITCH_ON_CONSTANT, "not_a_dict", 1), (I.FAIL_OP,)])
        assert "V108" in rules_of(findings)

    def test_v109_label_in_assembled_code(self):
        findings = check_code([(I.LABEL, "L1"), (I.PROCEED,)])
        assert "V109" in rules_of(findings)

    def test_v110_try_without_chain(self):
        findings = check_code([(I.TRY, 2), (I.PROCEED,), (I.PROCEED,)])
        assert "V110" in rules_of(findings)

    def test_verify_code_raises_typed_error(self):
        with pytest.raises(VerifyError) as excinfo:
            verify_code([("bogus_op",), (I.PROCEED,)], procedure="p/0")
        err = excinfo.value
        assert err.rule == "V101"
        assert err.offset == 0
        assert "p/0" in str(err)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            check_code([(I.PROCEED,)], level="paranoid")


# =====================================================================
# Abstract interpretation (A2xx)
# =====================================================================

class TestAbstract:
    def test_a201_read_before_write(self):
        code = [(I.PUT_VALUE, ("x", 3), ("x", 0)),
                (I.ESCAPE, "var", 1), (I.PROCEED,)]
        assert "A201" in rules_of(check_code(code, arity=1))

    def test_arity_registers_are_initialised(self):
        code = [(I.PUT_VALUE, ("x", 1), ("x", 0)),
                (I.ESCAPE, "var", 1), (I.PROCEED,)]
        assert check_code(code, arity=2) == []

    def test_a202_y_read_before_write(self):
        code = [(I.ALLOCATE, 2),
                (I.PUT_VALUE, ("y", 1), ("x", 0)),
                (I.PUT_VALUE, ("y", 0), ("x", 1)),
                (I.CALL, 7, 2),
                (I.DEALLOCATE,), (I.PROCEED,)]
        assert "A202" in rules_of(check_code(code, arity=0))

    def test_a202_y_out_of_range(self):
        code = [(I.ALLOCATE, 1),
                (I.GET_VARIABLE, ("y", 5), ("x", 0)),
                (I.PUT_VALUE, ("y", 5), ("x", 0)),
                (I.CALL, 7, 1),
                (I.DEALLOCATE,), (I.PROCEED,)]
        assert "A202" in rules_of(check_code(code, arity=1))

    def test_a203_y_touch_without_env(self):
        code = [(I.GET_VARIABLE, ("y", 0), ("x", 0)), (I.PROCEED,)]
        assert "A203" in rules_of(check_code(code, arity=1))

    def test_a204_unify_outside_mode(self):
        code = [(I.UNIFY_VARIABLE, ("x", 1)), (I.PROCEED,)]
        assert "A204" in rules_of(check_code(code, arity=1))

    def test_a204_mode_killed_by_call_boundary(self):
        code = [(I.ALLOCATE, 1),
                (I.GET_STRUCTURE, 1, ("x", 0)),
                (I.UNIFY_VARIABLE, ("y", 0)),
                (I.PUT_VALUE, ("y", 0), ("x", 0)),
                (I.CALL, 7, 1),
                (I.UNIFY_VALUE, ("x", 0)),   # stale mode after the call
                (I.DEALLOCATE,), (I.PROCEED,)]
        findings = check_code(code, arity=1)
        assert "A204" in rules_of(findings)

    def test_a205_oversized_environment(self):
        code = [(I.ALLOCATE, 3),
                (I.GET_VARIABLE, ("y", 0), ("x", 0)),
                (I.PUT_VALUE, ("y", 0), ("x", 0)),
                (I.CALL, 7, 1),
                (I.DEALLOCATE,), (I.EXECUTE, 7, 0)]
        findings = check_code(code, arity=1)
        a205 = [f for f in findings if f.rule == "A205"]
        # one finding naming both unused slots
        assert len(a205) == 1 and "[1, 2]" in a205[0].message

    def test_a206_unsafe_value_before_nonfinal_call(self):
        code = [(I.ALLOCATE, 1),
                (I.GET_VARIABLE, ("y", 0), ("x", 0)),
                (I.PUT_UNSAFE_VALUE, ("y", 0), ("x", 0)),
                (I.CALL, 7, 1),
                (I.PUT_VALUE, ("y", 0), ("x", 0)),
                (I.CALL, 7, 1),
                (I.DEALLOCATE,), (I.PROCEED,)]
        assert "A206" in rules_of(check_code(code, arity=1))

    def test_backtrack_edge_restores_only_arity_registers(self):
        # x2 written in clause 1 is NOT available in clause 2: the
        # choice point saved only x0..arity-1
        code = [(I.TRY_ME_ELSE, 3),
                (I.GET_VARIABLE, ("x", 2), ("x", 0)),
                (I.PROCEED,),
                (I.TRUST_ME,),
                (I.PUT_VALUE, ("x", 2), ("x", 0)),
                (I.ESCAPE, "var", 1),
                (I.PROCEED,)]
        assert "A201" in rules_of(check_code(code, arity=2))

    def test_compiler_output_is_clean(self, machine):
        machine.consult("""
            len([], 0).
            len([_|T], N) :- len(T, M), N is M + 1.
            rev([], A, A).
            rev([H|T], A, R) :- rev(T, [H|A], R).
            cutty(X) :- X > 0, !, X < 10.
            cutty(_).
            disj(X) :- (X = 1 ; X = 2 ; X > 5).
            negy(X) :- \\+ disj(X).
        """)
        for name, arity in (("len", 2), ("rev", 3), ("cutty", 1),
                            ("disj", 1), ("negy", 1)):
            proc = machine.procedure(name, arity)
            findings = check_code(proc.code, arity=arity,
                                  dictionary=machine.dictionary)
            assert findings == [], (name, findings)


# =====================================================================
# Determinism / indexing analysis (D3xx)
# =====================================================================

class TestDeterminism:
    def _compiled(self, machine, text):
        return compile_clauses(machine, text)

    def test_partitions_and_deterministic_keys(self, machine):
        clauses = self._compiled(machine, """
            color(red, 1). color(green, 2). color(blue, 3).
        """)
        report = analyze_clauses(clauses)
        assert len(report.partitions) == 3
        assert report.deterministic_keys == 3
        assert report.findings == []
        assert report.dead_clauses == []

    def test_var_clause_joins_every_partition(self, machine):
        clauses = self._compiled(machine, """
            p(a, 1). p(X, 2) :- q(X). p(b, 3).
        """)
        report = analyze_clauses(clauses)
        # a var-headed clause is a candidate for every key
        assert report.deterministic_keys == 0

    def test_d301_tampered_block(self, machine):
        from repro.wam.indexing import build_procedure_code
        clauses = self._compiled(machine, "f(a). f(b).")
        block = list(build_procedure_code(clauses))
        block[0] = (I.FAIL_OP,)   # stale/tampered dispatch
        report = analyze_clauses(clauses, code=block)
        assert "D301" in rules_of(report.findings)

    def test_d302_dead_clause(self, machine):
        from repro.wam.indexing import build_procedure_layout
        clauses = self._compiled(machine, "g(a, 1). g(b, 2).")
        layout = build_procedure_layout(clauses)
        # drop clause 1 from every dispatch path: retarget its try/me
        # chain by rebuilding with only clause 0, then analyze the
        # two-clause set against a block that only reaches clause 0
        solo = build_procedure_layout(clauses[:1])
        report = analyze_clauses(clauses[:1] + clauses[1:],
                                 code=list(solo.code))
        assert "D301" in rules_of(report.findings) or \
            "D302" in rules_of(report.findings)
        # and the honest block has no dead code at all
        clean = analyze_clauses(clauses, code=list(layout.code))
        assert clean.dead_clauses == []

    def test_fail_sentinel_not_reported_dead(self, machine):
        clauses = self._compiled(machine, """
            h(a). h(b). h(c). h(d).
        """)
        report = analyze_clauses(clauses)
        assert report.findings == []


# =====================================================================
# Lint (L1xx)
# =====================================================================

class TestLint:
    def test_l101_singleton(self):
        findings = lint_text("p(X, Y) :- q(X).")
        assert any(f.rule == "L101" and "Y" in f.message
                   for f in findings)

    def test_l101_underscore_names_exempt(self):
        findings = lint_text("p(X, _Y, _) :- q(X).")
        assert "L101" not in rules_of(findings)

    def test_l102_undefined_predicate(self):
        findings = lint_text("p(X) :- mystery(X).")
        assert any(f.rule == "L102" and "mystery/1" in f.message
                   for f in findings)

    def test_l102_sees_through_metapredicates(self):
        findings = lint_text(
            "p(L) :- findall(X, hidden(X), L).")
        assert any("hidden/1" in f.message for f in findings
                   if f.rule == "L102")

    def test_l102_call_n_partial_application(self):
        # call(missing2, G) invokes missing2(G) — missing2/1
        findings = lint_text("p(G) :- call(missing2, G).")
        assert any("missing2/1" in f.message for f in findings
                   if f.rule == "L102")

    def test_prelude_and_builtins_are_defined(self):
        assert lint_text("p(L, S) :- msort(L, S), length(S, _N).",
                         name="t") == [
            f for f in lint_text("p(L, S) :- msort(L, S), "
                                 "length(S, _N).", name="t")
            if f.rule != "L102"]

    def test_l103_discontiguous(self):
        findings = lint_text("a(1). b(2). a(3).")
        assert any(f.rule == "L103" and f.indicator == "a/1"
                   for f in findings)

    def test_l104_all_var_heads(self):
        findings = lint_text("m(X, Y) :- n(X, Y). m(X, Y) :- o(X, Y).",
                             extra_defined=(("n", 2), ("o", 2)))
        assert any(f.rule == "L104" and f.indicator == "m/2"
                   for f in findings)

    def test_l104_single_clause_exempt(self):
        findings = lint_text("one(X) :- two(X).",
                             extra_defined=(("two", 1),))
        assert "L104" not in rules_of(findings)

    def test_pragma_disable_scoped(self):
        text = ("% lint: disable=L104 m/2\n"
                "m(X, Y) :- n(X, Y). m(X, Y) :- o(X, Y).\n"
                "k(A) :- p(A). k(B) :- q(B).\n")
        findings = lint_text(text, extra_defined=(
            ("n", 2), ("o", 2), ("p", 1), ("q", 1)))
        assert not any(f.rule == "L104" and f.indicator == "m/2"
                       for f in findings)
        assert any(f.rule == "L104" and f.indicator == "k/1"
                   for f in findings)

    def test_pragma_external(self):
        text = ("% lint: external edb_rel/2\n"
                "view(X) :- edb_rel(X, _).")
        assert not any(f.rule == "L102"
                       for f in lint_text(text))

    def test_op_directives_respected(self):
        text = (":- op(700, xfx, ===).\n"
                "eq(X, Y) :- X === Y.\n"
                "'==='(A, A).")
        findings = lint_text(text)
        assert "L102" not in rules_of(findings)

    def test_dynamic_declares_definition(self):
        findings = lint_text(":- dynamic(counter/1).\n"
                             "bump(N) :- counter(N).")
        assert "L102" not in rules_of(findings)

    def test_dynamic_declaration_is_external(self):
        # A dynamic predicate with no clauses, called by an entry point.
        findings = lint_text(":- dynamic(counter/1).\n"
                             "bump :- counter(_).\n"
                             "% lint: external bump/0\n")
        assert "L102" not in rules_of(findings)

    def test_pragma_external_after_the_call(self):
        # The pragma defines the predicate wherever it stands in the file.
        findings = lint_text("p :- helper(1).\n"
                             "% lint: external helper/1\n")
        assert "L102" not in rules_of(findings)

    def test_text_is_read_once(self, monkeypatch):
        """The L rules and M201 share one reading of the text (and the
        library was read when the process first needed it)."""
        from repro.lang import reader
        lint_text("warm(1).")
        texts = []
        real = reader.tokenize
        monkeypatch.setattr(
            reader, "tokenize",
            lambda text: texts.append(text) or real(text))
        text = (":- op(700, xfx, ===).\n"
                "'==='(A, A).\n"
                "p(X) :- Y is Z + 1, X === Y.\n"
                "main :- p(_).")
        findings = lint_text(text)
        assert texts == [text]
        # both rule families ran over that one reading
        assert {"L101", "M201"} <= rules_of(findings)

    def test_l105_unstratified_negation(self):
        text = ("% lint: external edge/2\n"
                "win(X) :- edge(X, Y), \\+ win(Y).")
        findings = lint_text(text)
        assert any(f.rule == "L105" and f.indicator == "win/1"
                   and "negation" in f.message for f in findings)

    def test_l105_mutual_unstratified_cycle(self):
        text = ("% lint: external move/2\n"
                "trapped(X) :- move(X, Y), \\+ escapes(Y).\n"
                "escapes(X) :- move(X, Y), \\+ trapped(Y).")
        findings = lint_text(text)
        flagged = {f.indicator for f in findings if f.rule == "L105"}
        assert flagged == {"trapped/1", "escapes/1"}

    def test_l105_non_range_restricted_head(self):
        # recursive, Datalog-shaped, but the head variable C is never
        # bound by a positive body literal
        text = ("% lint: external edge/2\n"
                "tag(X, C) :- edge(X, Y), tag(Y, _C0).")
        findings = lint_text(text)
        assert any(f.rule == "L105" and f.indicator == "tag/2"
                   and "C" in f.message for f in findings)

    def test_l105_stratified_negation_clean(self):
        text = ("% lint: external edge/2 node/1\n"
                "reach(X, Y) :- edge(X, Y).\n"
                "reach(X, Z) :- edge(X, Y), reach(Y, Z).\n"
                "unreachable(X, Y) :- node(X), node(Y), "
                "\\+ reach(X, Y).")
        assert "L105" not in rules_of(lint_text(text))

    def test_l105_non_datalog_recursion_exempt(self):
        # arithmetic in the body puts the clause outside the Datalog
        # fragment: WAM execution is its normal path, nothing to flag
        text = ("% lint: external edge/2\n"
                "depth(X, N) :- edge(X, Y), depth(Y, M), N is M + 1.")
        assert "L105" not in rules_of(lint_text(text))

    def test_l105_disable_pragma(self):
        text = ("% lint: disable=L105 win/1\n"
                "% lint: external edge/2\n"
                "win(X) :- edge(X, Y), \\+ win(Y).")
        assert "L105" not in rules_of(lint_text(text))

    def test_l106_unknown_rule_id(self):
        findings = lint_text("% lint: disable=Z999\np(1).\n"
                             "main :- p(X).\n"
                             "% lint: external main/0\n"
                             "% lint: disable=L101\n")
        assert any(f.rule == "L106" and f.indicator == "Z999"
                   for f in findings)

    def test_l106_itself_waivable(self):
        clean = lint_text("% lint: disable=Z999\n"
                          "% lint: disable=L106\n"
                          "% lint: disable=L101\n"
                          "p(1).\nmain :- p(X).\n"
                          "% lint: external main/0\n")
        assert "L106" not in rules_of(clean)

    def test_pragma_on_clause_continuation_line(self):
        """Pragmas are file-scoped comments; one trailing a clause
        continuation line waives the same way as a line of its own."""
        clean = lint_text("p(X) :-\n"
                          "    q(X).   % lint: disable=L102\n"
                          "main :- p(V).\n"
                          "% lint: external main/0\n"
                          "% lint: disable=L101\n")
        assert "L102" not in rules_of(clean)


class TestM201:
    """The one M rule: a variable whose first occurrence sits in a
    builtin's demanded-ground position (clause-local)."""

    def test_m201_fresh_variable_demanded_ground(self):
        findings = lint_text("p(X) :- Y is Z + 1, X = Y.\n"
                             "main :- p(V).\n"
                             "% lint: external main/0\n"
                             "% lint: disable=L101\n")
        assert any(f.rule == "M201" and f.indicator == "p/1"
                   and "is/2" in f.message and " Z " in f.message
                   for f in findings)

    def test_m201_quiet_when_bound_upstream(self):
        findings = lint_text("p(X, Y) :- X = 2, Y is X + 1.\n"
                             "main :- p(A, B).\n"
                             "% lint: external main/0\n")
        assert "M201" not in rules_of(findings)

    @pytest.mark.parametrize("clause", ["r :- call(foo, Y), Y > 1.",
                                        "r :- call(foo(1), Y), Y > 1."])
    def test_m201_quiet_when_call_n_binds(self, clause):
        # call/N binds its extra arguments before the comparison runs
        findings = lint_text(clause + "\nfoo(2).\nfoo(1, 2).\n"
                             "% lint: external r/0\n")
        assert "M201" not in rules_of(findings)

    def test_m201_waivable(self):
        text = ("p(X) :- Y is Z + 1, X = Y.\n"
                "main :- p(V).\n"
                "% lint: external main/0\n"
                "% lint: disable=L101\n")
        assert "M201" not in rules_of(
            lint_text("% lint: disable=M201\n" + text))
        assert "M201" not in rules_of(
            lint_text("% lint: disable=M201 p/1\n" + text))
        assert "M201" in rules_of(
            lint_text("% lint: disable=M201 main/0\n" + text))


# =====================================================================
# The loader gate
# =====================================================================

def _check_cached_blocks(session):
    """Run the abstract interpreter over every block the loader caches:
    the gate checks clause records, this checks what it builds."""
    machine = session.machine
    checked = 0
    for proc in session.store.procedures():
        for key, code in session.loader.cached_blocks(proc.name,
                                                      proc.arity):
            checked += 1
            findings = check_code(code, arity=proc.arity,
                                  dictionary=machine.dictionary,
                                  level="full")
            assert findings == [], (key, findings)
    return checked


class TestLoaderGate:
    def _populated(self):
        from repro.engine.session import EduceStar
        session = EduceStar()
        session.store_relation("edge", [(1, 2), (2, 3), (3, 4)])
        session.store_program(
            "% lint: external edge/2\n"
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Z) :- edge(X, Y), path(Y, Z).")
        return session

    def test_gated_answers(self):
        session = self._populated()
        answers = sorted((s["X"], s["Y"])
                         for s in session.solve("path(X, Y)"))
        assert len(answers) == 6
        assert _check_cached_blocks(session) > 0

    def test_counters_and_histogram(self):
        session = self._populated()
        assert session.count_solutions("path(1, Y)") == 3
        counters = session.loader.counters()
        assert counters["verify_checks"] > 0
        assert counters["verify_rejects"] == 0
        hist = session.loader.histograms()["verify_ms"]
        assert hist.count > 0

    def test_facts_path_exempt(self):
        from repro.engine.session import EduceStar
        session = EduceStar()
        session.store_relation("f", [(1,), (2,)])
        assert session.count_solutions("f(_)") == 2
        assert session.loader.counters()["verify_checks"] == 0

    def test_workloads_verify_full_clean(self):
        """The acceptance bar: the integrity workload's whole program
        (rules + constraints + specialiser) stored in the EDB and run
        through the gate — many checks, zero rejects — and every block
        the loader built clean under the abstract interpreter."""
        from repro.engine.session import EduceStar
        from repro.workloads import integrity
        session = EduceStar()
        integrity.load_educestar(session)
        integrity.load_database(session, integrity.generate(scale=0.5))
        result = integrity.run_preprocess(session, integrity.UPDATES[2])
        assert result is not None
        counters = session.loader.counters()
        assert counters["verify_checks"] > 0
        assert counters["verify_rejects"] == 0
        assert _check_cached_blocks(session) > 0


# =====================================================================
# Self-verify choke point
# =====================================================================

class TestSelfVerify:
    def test_suite_runs_with_self_verify_on(self):
        from repro.analysis import self_verify_enabled
        assert self_verify_enabled()   # armed in conftest.py

    def test_assembler_self_verify_catches_corruption(self):
        from repro.wam.assembler import assemble
        with pytest.raises(VerifyError):
            assemble([("bogus_op", 1), (I.PROCEED,)])


# =====================================================================
# Regression corpus (tests/corpus/*.pl)
# =====================================================================

def _regression_files():
    import glob
    import os
    here = os.path.dirname(__file__)
    return sorted(glob.glob(os.path.join(here, "corpus", "*.pl")))


@pytest.mark.parametrize("path", _regression_files(),
                         ids=lambda p: p.rsplit("/", 1)[-1])
class TestRegressionCorpus:
    def test_lints_clean(self, path):
        with open(path, "r", encoding="utf-8") as f:
            assert lint_text(f.read(), name=path) == []

    def test_compiles_and_verifies_full(self, path, session):
        """Consult (under the suite-wide self-verify) and then fully
        verify every resulting procedure block."""
        with open(path, "r", encoding="utf-8") as f:
            session.consult(f.read())
        machine = session.machine
        checked = 0
        for proc in machine.procedures.values():
            if not proc.code:
                continue
            checked += 1
            findings = check_code(proc.code, arity=proc.arity,
                                  dictionary=machine.dictionary)
            assert findings == [], (proc.name, proc.arity, findings)
        assert checked > 0

    def test_stored_in_edb_verifies_at_load(self, path):
        """The same programs through the loader gate: every stored
        procedure is fetched (open-goal call), verified and accepted,
        and every block built from them is clean at level full."""
        from repro.engine.session import EduceStar
        session = EduceStar()
        with open(path, "r", encoding="utf-8") as f:
            session.store_program(f.read())
        from repro.errors import ReproError
        stored = [(p.name, p.arity) for p in session.store.procedures()
                  if not p.name.startswith("$aux_")]
        for name, arity in stored:
            goal = name if arity == 0 else \
                f"{name}({', '.join('_' for _ in range(arity))})"
            try:
                session.solve_once(goal)   # forces fetch + verify
            except VerifyError:
                raise
            except ReproError:
                pass   # open call may be insufficiently instantiated
        counters = session.loader.counters()
        assert counters["verify_checks"] > 0
        assert counters["verify_rejects"] == 0
        assert _check_cached_blocks(session) > 0


# =====================================================================
# CLI
# =====================================================================

class TestCli:
    CLEAN = ("p(1).\np(2).\nmain :- p(X), write(X).\n"
             "% lint: external main/0\n")
    FINDING = "p(X) :- fail.\nmain :- p(V).\n% lint: external main/0\n"
    BROKEN = "p(1"

    def write(self, tmp_path, text, name="unit.pl"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_corpus_is_clean(self, capsys):
        assert cli_main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_corpus_has_no_m201_finding(self):
        # Every corpus unit, linted as the corpus command lints it.
        from repro.analysis.corpus import corpus_entries
        assert [(entry.name, f.indicator)
                for entry in corpus_entries()
                for f in lint_text(entry.text, name=entry.name,
                                   extra_defined=entry.extra_defined)
                if f.rule == "M201"] == []

    def test_lint_matrix(self, tmp_path, capsys):
        assert cli_main(["lint", self.write(tmp_path, self.CLEAN)]) == 0
        assert cli_main(["lint", self.write(tmp_path, self.FINDING)]) == 1
        assert cli_main(["lint", self.write(tmp_path, self.BROKEN)]) == 2
        assert cli_main(["lint", str(tmp_path / "missing.pl")]) == 2

    def test_verify_matrix(self, tmp_path, capsys):
        assert cli_main(["verify", self.write(tmp_path, self.CLEAN)]) == 0
        assert cli_main(["verify", self.write(tmp_path, self.BROKEN)]) == 2

    def test_lint_file_with_findings_exits_1(self, tmp_path, capsys):
        f = tmp_path / "dirty.pl"
        f.write_text("p(X) :- q(X).")
        assert cli_main(["lint", str(f)]) == 1
        assert "L102" in capsys.readouterr().out

    def test_verify_clean_file_exits_0(self, tmp_path, capsys):
        f = tmp_path / "clean.pl"
        f.write_text("% lint: external base/1\n"
                     "p(a). p(b).\n"
                     "q(X) :- p(X), base(X).\n")
        assert cli_main(["verify", str(f)]) == 0
        assert "procedures verified" in capsys.readouterr().out

    def test_missing_file_exits_2(self):
        assert cli_main(["lint", "/no/such/file.pl"]) == 2

    def test_usage_exits_2(self):
        assert cli_main(["frobnicate"]) == 2

    def test_usage_error_prints_usage(self, capsys):
        # An unknown command, or lint/verify without files, prints the
        # usage text on stderr.
        for argv in (["frobnicate"], ["lint"], ["verify"],
                     ["corpus", "extra.pl"]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert "python -m repro.analysis lint F.pl" in err

    def test_corpus_clean_with_no_command(self, capsys):
        # No command means corpus; -q keeps a clean run silent.
        assert cli_main([]) == 0
        out = capsys.readouterr().out
        assert "corpus units linted" in out and "0 finding(s)" in out
        assert cli_main(["-q"]) == 0
        assert capsys.readouterr().out == ""
