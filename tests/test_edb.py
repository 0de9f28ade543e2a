"""Tests for the EDB layer: external dictionary, codec, store."""

from itertools import chain

import pytest

from repro.bang.catalog import Catalog
from repro.bang.pager import Pager
from repro.dictionary import SegmentedDictionary, fnv1a
from repro.edb.codec import decode_code, encode_code, measure_code
from repro.edb.external_dict import ExternalDictionary
from repro.edb.store import ExternalStore, summarize_arg
from repro.errors import CatalogError, ExistenceError
from repro.lang.reader import read_term, read_terms
from repro.terms import Var
from repro.wam.compiler import ClauseCompiler, CompileContext


@pytest.fixture
def ext_dict():
    return ExternalDictionary(Catalog(Pager(buffer_pages=16)))


@pytest.fixture
def store():
    return ExternalStore()


@pytest.fixture
def ctx():
    return CompileContext(SegmentedDictionary(segment_capacity=1024))


class TestExternalDictionary:
    def test_intern_resolve_roundtrip(self, ext_dict):
        ident = ext_dict.intern("foo", 3)
        assert ext_dict.resolve(ident) == ("foo", 3)

    def test_external_id_is_the_hash(self, ext_dict):
        # §4: "computed by applying the hash function of the internal
        # dictionary, without clash resolution"
        assert ext_dict.intern("bar", 1) == fnv1a("bar", 1)

    def test_intern_idempotent(self, ext_dict):
        assert ext_dict.intern("x", 0) == ext_dict.intern("x", 0)
        assert len(ext_dict) == 1

    def test_unknown_id_raises(self, ext_dict):
        with pytest.raises(ExistenceError):
            ext_dict.resolve(12345)

    def test_lookup_absent(self, ext_dict):
        assert ext_dict.lookup("ghost", 2) is None

    def test_survives_cache_wipe(self, ext_dict):
        """Entries live in storage, not just the session cache."""
        ident = ext_dict.intern("persistent", 4)
        ext_dict._by_hash.clear()
        ext_dict._by_functor.clear()
        assert ext_dict.resolve(ident) == ("persistent", 4)

    def test_name_range_query(self, ext_dict):
        for name in ("alpha", "beta", "gamma", "delta"):
            ext_dict.intern(name, 0)
        names = sorted(row[1] for row in ext_dict.name_range("b", "e"))
        assert names == ["beta", "delta"]


class TestCodec:
    def _compile(self, ctx, text):
        return ClauseCompiler(ctx).compile_clause(read_term(text))

    def test_roundtrip_simple_fact(self, ctx, ext_dict):
        code = self._compile(ctx, "p(a, 1, 2.5)").code
        relative = encode_code(code, ctx.dictionary, ext_dict)
        back = decode_code(relative, ctx.dictionary, ext_dict)
        assert back == code

    def test_roundtrip_rule_with_structures(self, ctx, ext_dict):
        code = self._compile(
            ctx, "p(f(X, [a|T])) :- q(g(X)), r(T, h(1)).").code
        relative = encode_code(code, ctx.dictionary, ext_dict)
        assert decode_code(relative, ctx.dictionary, ext_dict) == code

    def test_relative_code_has_no_internal_ids(self, ctx, ext_dict):
        code = self._compile(ctx, "p(hello) :- world(hello).").code
        relative = encode_code(code, ctx.dictionary, ext_dict)
        for instr in relative:
            if instr[0] in ("get_constant", "put_constant"):
                assert instr[1][0] == "atom"
                assert instr[1][1][0] == "ext"
            if instr[0] in ("call", "execute"):
                assert instr[1][0] == "ext"

    def test_decode_into_fresh_dictionary(self, ctx, ext_dict):
        """A new session (new internal dictionary) can run stored code."""
        code = self._compile(ctx, "p(shared_atom).").code
        relative = encode_code(code, ctx.dictionary, ext_dict)
        fresh = SegmentedDictionary(segment_capacity=256)
        decoded = decode_code(relative, fresh, ext_dict)
        cid = decoded[0][1][1]
        assert fresh.name(cid) == "shared_atom"

    def test_measure_code_positive(self, ctx, ext_dict):
        code = self._compile(ctx, "p(a).").code
        assert measure_code(encode_code(code, ctx.dictionary,
                                        ext_dict)) > 0


class TestSummaries:
    @pytest.mark.parametrize("text,expect", [
        ("foo", ("atom", "foo")),
        ("42", ("int", 42)),
        ("2.5", ("real", 2.5)),
        ("[a]", ("list",)),
        ("[]", ("atom", "[]")),
        ("f(1, 2)", ("struct", "f", 2)),
    ])
    def test_kinds(self, text, expect):
        assert summarize_arg(read_term(text)) == expect

    def test_var(self):
        assert summarize_arg(Var()) == ("var",)


class TestStoreRules:
    def test_store_and_fetch_all(self, store, ctx):
        clauses = read_terms("p(a, 1). p(b, 2). p(c, 3).")
        store.store_rules("p", 2, clauses, ctx)
        fetched = store.fetch_clauses("p", 2)
        assert [sc.clause_id for sc in fetched] == [0, 1, 2]
        assert all(sc.relative_code for sc in fetched)

    def test_fetch_filters_by_summary(self, store, ctx):
        clauses = read_terms("p(a, 1). p(b, 2). p(X, 9).")
        store.store_rules("p", 2, clauses, ctx)
        got = store.fetch_clauses("p", 2, {0: ("atom", "b")})
        # clause with b + the var-headed clause
        assert [sc.clause_id for sc in got] == [1, 2]

    def test_metadata(self, store, ctx):
        store.store_rules("q", 1, read_terms("q(1). q(2)."), ctx)
        proc = store.get("q", 1)
        assert proc.mode == "rules" and proc.nclauses == 2

    def test_duplicate_rejected(self, store, ctx):
        store.store_rules("p", 0, read_terms("p."), ctx)
        with pytest.raises(CatalogError):
            store.store_rules("p", 0, read_terms("p."), ctx)

    def test_missing_raises(self, store):
        with pytest.raises(ExistenceError):
            store.get("ghost", 1)
        assert store.lookup("ghost", 1) is None

    def test_aux_procedures_stored_recursively(self, store, ctx):
        clauses = read_terms("p(X) :- (X > 0 -> q(X) ; r(X)).")
        store.store_rules("p", 1, clauses, ctx)
        aux = [sp for sp in store.procedures()
               if sp.name.startswith("$aux")]
        assert aux, "control-construct aux procedure must be stored"

    def test_code_bytes_accounted(self, store, ctx):
        before = store.code_bytes_stored
        store.store_rules("p", 1, read_terms("p(a)."), ctx)
        assert store.code_bytes_stored > before


class TestStoreFacts:
    def test_store_and_fetch(self, store):
        rows = [(1, "a"), (2, "b"), (3, "a")]
        store.store_facts("f", 2, rows)
        assert sorted(store.fetch_facts("f", 2)) == sorted(rows)
        assert sorted(store.fetch_facts("f", 2, {1: "a"})) == \
            [(1, "a"), (3, "a")]

    def test_types_inferred(self, store):
        store.store_facts("g", 3, [(1, 2.5, "x")])
        types = [a.type for a in store.get("g", 3).relation.schema.attributes]
        assert types == ["int", "real", "atom"]

    def test_relation_of_gives_engine_access(self, store):
        store.store_facts("h", 1, [(5,), (6,)])
        rel = store.relation_of("h", 1)
        assert sorted(chain.from_iterable(rel.scan())) == [(5,), (6,)]

    def test_fetch_clauses_on_facts_rejected(self, store):
        store.store_facts("h2", 1, [(5,)])
        with pytest.raises(CatalogError):
            store.fetch_clauses("h2", 1)


class TestStoreSource:
    def test_source_mode_keeps_text(self, store):
        clauses = read_terms("s(a). s(X) :- t(X).")
        store.store_source("s", 1, clauses)
        fetched = store.fetch_clauses("s", 1)
        assert fetched[0].source == "s(a)."
        assert ":-" in fetched[1].source
        assert fetched[0].relative_code == []

    def test_source_bytes_accounted(self, store):
        before = store.source_bytes_stored
        store.store_source("s2", 1, read_terms("s2(hello_world_atom)."))
        assert store.source_bytes_stored > before

    def test_program_directives_are_never_stored(self, store):
        """The Educe baseline reads a program through the same front end
        as everything else: a directive is run (``op/3`` before the
        clauses written with it), never kept as a clause of ``:-/1``."""
        from repro.engine.educe_baseline import EduceBaseline
        baseline = EduceBaseline(store)
        baseline.store_program(":- dynamic seen/1.\nq(1).")
        baseline.store_program(":- op(700,xfx,===>). rule(a ===> b).")
        assert store.lookup(":-", 1) is None
        assert [(p.name, p.arity, p.mode) for p in store.procedures()] \
            == [("q", 1, "source"), ("rule", 1, "source")]
        assert baseline.solve_once("seen(_)") is None
        assert str(baseline.solve_once("rule(X ===> b)")["X"]) == "a"

    def test_a_later_section_appends_to_the_stored_source(self, tmp_path):
        """A goal directive between a procedure's clauses splits the text
        into sections; the baseline stores what ``consult`` loads, and
        the append is a committed record that a reopen replays."""
        from repro.engine.educe_baseline import EduceBaseline
        from repro.engine.interpreter import Interpreter
        text = "p(1).\n:- true.\np(2).\n:- true.\np(3) :- true."
        consulted = Interpreter()
        consulted.consult(text)
        expected = sorted(a["X"] for a in consulted.solve("p(X)"))
        assert expected == [1, 2, 3]
        path = str(tmp_path / "kb.edb")
        baseline = EduceBaseline(ExternalStore.open(path))
        baseline.store_program(text)
        assert sorted(a["X"] for a in baseline.solve("p(X)")) == expected
        del baseline                              # abandoned, not saved
        reopened = ExternalStore.open(path)
        assert reopened.recovery.ops_replayed == {"source": 3}
        assert reopened.get("p", 1).nclauses == 3
        again = EduceBaseline(reopened)
        assert sorted(a["X"] for a in again.solve("p(X)")) == expected

    def test_source_does_not_append_to_compiled_rules(self, store, ctx):
        store.store_rules("r", 1, read_terms("r(1)."), ctx)
        with pytest.raises(CatalogError, match="r/1"):
            store.store_source("r", 1, read_terms("r(2)."))
        assert store.get("r", 1).nclauses == 1

    def test_loader_refuses_source_mode(self, store):
        """Source text is the Educe baseline's scheme; a compiled-code
        session that reaches such a procedure gets a typed error naming
        it, not an attempt to run text."""
        from repro.engine.session import EduceStar
        store.store_source("s3", 1, read_terms("s3(a)."))
        session = EduceStar(store=store)
        with pytest.raises(CatalogError, match="s3/1"):
            session.solve_once("s3(X)")
        assert session.loader.loads == 0


class TestDroppedPages:
    """A dropped or replaced relation gives its pages back."""

    ROWS = [(i, i % 7) for i in range(2000)]

    def test_store_then_drop(self, store):
        pages = store.pager.disk.page_count
        store.store_facts("t", 2, self.ROWS)
        assert store.pager.disk.page_count > pages
        assert store.drop_procedure("t", 2)
        assert store.pager.disk.page_count == pages

    def test_repeated_materialise_holds_one_relation(self, store):
        store.materialise_facts("m", 2, self.ROWS)
        pages = store.pager.disk.page_count
        for _ in range(3):
            store.materialise_facts("m", 2, self.ROWS)
            assert store.pager.disk.page_count == pages
        assert sorted(store.fetch_facts("m", 2)) == sorted(self.ROWS)

    def test_replayed_drop(self, tmp_path):
        path = str(tmp_path / "db.edb")
        durable = ExternalStore.open(path)
        pages = durable.pager.disk.page_count
        durable.store_facts("t", 2, self.ROWS)
        durable.save(path)                 # t's pages in the checkpoint
        durable.drop_procedure("t", 2)     # the drop only in the log
        del durable                        # crash: no checkpoint

        reopened = ExternalStore.open(path, create=False)
        assert reopened.recovery.ops_replayed == {"drop": 1}
        assert reopened.lookup("t", 2) is None
        assert reopened.pager.disk.page_count == pages


class TestUpdates:
    def test_assert_appends(self, store, ctx):
        store.store_rules("p", 1, read_terms("p(a)."), ctx)
        store.assert_clause("p", 1, read_term("p(b)"), ctx)
        assert [sc.clause_id for sc in store.fetch_clauses("p", 1)] == [0, 1]
        assert store.get("p", 1).version == 1

    def test_assert_into_facts(self, store, ctx):
        store.store_facts("f", 2, [(1, "a")])
        store.assert_clause("f", 2, read_term("f(2, b)"), ctx)
        assert sorted(store.fetch_facts("f", 2)) == [(1, "a"), (2, "b")]

    def test_retract_by_clause_id(self, store, ctx):
        store.store_rules("p", 1, read_terms("p(a). p(b)."), ctx)
        store.retract_clause("p", 1, 0)
        fetched = store.fetch_clauses("p", 1)
        assert [sc.clause_id for sc in fetched] == [1]
        assert store.get("p", 1).nclauses == 1
