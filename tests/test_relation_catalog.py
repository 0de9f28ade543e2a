"""Tests for BANG relations, typed key transforms and the catalog."""

from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.bang.catalog import AttributeSpec, Catalog
from repro.bang.pager import Pager
from repro.bang.relation import (
    encode_value,
    functor_fraction,
    squash_number,
    string_fraction,
)
from repro.errors import CatalogError, TypeError_


@pytest.fixture
def catalog():
    return Catalog(Pager(buffer_pages=32), bucket_capacity=8)


class TestKeyTransforms:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_squash_monotonic(self, a, b):
        if a < b:
            assert squash_number(a) < squash_number(b)

    def test_squash_handles_64bit_hashes(self):
        a, b = 2**63, 2**63 + 2**40
        assert 0 < squash_number(a) < squash_number(b) < 1

    @given(st.text(max_size=6), st.text(max_size=6))
    def test_string_fraction_order(self, a, b):
        # order-preserving on the first 7 bytes
        fa, fb = string_fraction(a), string_fraction(b)
        if a.encode("utf-8")[:7] < b.encode("utf-8")[:7]:
            assert fa <= fb

    def test_functor_fraction_in_range(self):
        assert 0 <= functor_fraction("foo", 3) < 1

    def test_encode_type_dispatch(self):
        assert 0 < encode_value("int", 5) < 1
        assert 0 < encode_value("real", 2.5) < 1
        assert 0 <= encode_value("atom", "abc") < 1
        assert 0 <= encode_value("term", ("atom", "x")) < 1
        assert 0 <= encode_value("term", ("var",)) < 1

    def test_term_bands_are_disjoint(self):
        kinds = [("int", 3), ("real", 1.0), ("atom", "a"), ("list",),
                 ("struct", "f", 1), ("var",)]
        values = sorted(encode_value("term", k) for k in kinds)
        # six values in six distinct sixths of [0,1)
        bands = {int(v * 6) for v in values}
        assert len(bands) == 6

    def test_bad_values_raise(self):
        with pytest.raises(TypeError_):
            encode_value("int", "not an int")
        with pytest.raises(TypeError_):
            encode_value("term", "bare string")


class TestCatalog:
    def test_create_and_get(self, catalog):
        rel = catalog.create_simple("r", [("a", "int")])
        assert catalog.get("r") is rel
        assert "r" in catalog

    def test_duplicate_rejected(self, catalog):
        catalog.create_simple("r", [("a", "int")])
        with pytest.raises(CatalogError):
            catalog.create_simple("r", [("a", "int")])

    def test_missing_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get("nope")
        assert catalog.lookup("nope") is None

    def test_drop(self, catalog):
        catalog.create_simple("r", [("a", "int")])
        catalog.drop("r")
        assert "r" not in catalog

    def test_invalid_type_rejected(self):
        with pytest.raises(CatalogError):
            AttributeSpec("x", "varchar")


class TestRelationBasics:
    def test_insert_scan(self, catalog):
        rel = catalog.create_simple("r", [("a", "int"), ("b", "atom")])
        rel.insert((1, "x"))
        rel.insert((2, "y"))
        assert sorted(chain.from_iterable(rel.scan())) == [(1, "x"), (2, "y")]
        assert len(rel) == 2

    def test_arity_checked(self, catalog):
        rel = catalog.create_simple("r", [("a", "int")])
        with pytest.raises(CatalogError):
            rel.insert((1, 2))

    def test_exact_query(self, catalog):
        rel = catalog.create_simple("r", [("a", "int"), ("b", "atom")])
        rel.insert_many([(i, f"v{i % 3}") for i in range(50)])
        assert sorted(r[0] for r in chain.from_iterable(rel.query({1: "v1"}))) == \
            [i for i in range(50) if i % 3 == 1]

    def test_range_query_inclusive(self, catalog):
        rel = catalog.create_simple("r", [("a", "int")])
        rel.insert_many([(i,) for i in range(30)])
        got = sorted(r[0] for r in chain.from_iterable(rel.range_query(0, 10, 20)))
        assert got == list(range(10, 21))

    def test_range_on_term_column_rejected(self, catalog):
        rel = catalog.create_simple("r", [("a", "term")])
        with pytest.raises(TypeError_):
            list(chain.from_iterable(rel.range_query(0, 1, 2)))

    def test_delete_exact(self, catalog):
        rel = catalog.create_simple("r", [("a", "int")])
        rel.insert((7,))
        rel.insert((7,))
        assert rel.delete((7,)) == 2
        assert len(rel) == 0

    def test_keys_squashed_past_the_unit_interval_are_found(self, catalog):
        """Integers beyond ±2**128 squash to keys outside [0, 1); reads
        follow the split planes, so scans and probes still find them."""
        huge = 2 ** 200
        rel = catalog.create_simple("r", [("a", "int")])
        rel.insert_many([(i,) for i in range(120)] + [(huge,), (-huge,)])
        assert len(list(chain.from_iterable(rel.scan()))) == 122
        assert list(chain.from_iterable(rel.query({0: huge}))) == [(huge,)]
        assert list(chain.from_iterable(rel.query({0: -huge}))) == [(-huge,)]
        assert list(chain.from_iterable(
            rel.range_query(0, 2 ** 199, 2 ** 201))) == [(huge,)]

    def test_delete_where(self, catalog):
        rel = catalog.create_simple("r", [("a", "int"), ("b", "atom")])
        rel.insert_many([(i, "keep" if i % 2 else "kill")
                         for i in range(20)])
        assert rel.delete_where({1: "kill"}) == 10
        assert all(r[1] == "keep" for r in chain.from_iterable(rel.scan()))


class TestTermColumns:
    def test_var_rows_match_any_query(self, catalog):
        rel = catalog.create_simple("c", [("a", "term"), ("id", "int")])
        rel.insert((("atom", "foo"), 1))
        rel.insert((("var",), 2))
        rel.insert((("int", 9), 3))
        def seconds(rows):
            return sorted(r[1] for r in chain.from_iterable(rows))

        assert seconds(rel.query({0: ("atom", "foo")})) == [1, 2]
        assert seconds(rel.query({0: ("int", 9)})) == [2, 3]

    def test_struct_key_by_functor(self, catalog):
        rel = catalog.create_simple("c", [("a", "term"), ("id", "int")])
        rel.insert((("struct", "f", 2), 1))
        rel.insert((("struct", "g", 2), 2))
        assert [r[1] for r in chain.from_iterable(
            rel.query({0: ("struct", "f", 2)}))] == [1]

    def test_type_query_bands(self, catalog):
        rel = catalog.create_simple("c", [("a", "term"), ("id", "int")])
        rows = [(("int", 1), 1), (("atom", "a"), 2), (("list",), 3),
                (("struct", "f", 1), 4), (("var",), 5)]
        rel.insert_many(rows)
        assert [r[1] for r in chain.from_iterable(rel.type_query(0, "list"))] == [3]
        assert [r[1] for r in chain.from_iterable(rel.type_query(0, "struct"))] == [4]

    def test_type_query_validation(self, catalog):
        rel = catalog.create_simple("c", [("a", "int")])
        with pytest.raises(TypeError_):
            list(chain.from_iterable(rel.type_query(0, "atom")))
        rel2 = catalog.create_simple("c2", [("a", "term")])
        with pytest.raises(TypeError_):
            list(chain.from_iterable(rel2.type_query(0, "weird_band")))


class TestSelectivity:
    def test_point_query_touches_few_pages(self, catalog):
        rel = catalog.create_simple("big", [("a", "int"), ("b", "int")])
        rel.insert_many([(i, i * 7 % 100) for i in range(500)])
        assert rel.pages_for({0: 250}) <= 2
        assert rel.pages_for({}) == rel.grid.leaf_count


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50),
                          st.sampled_from(["a", "b", "c"])),
                min_size=1, max_size=80))
def test_property_query_equals_filter(rows):
    catalog = Catalog(Pager(buffer_pages=16), bucket_capacity=6)
    rel = catalog.create_simple("p", [("n", "int"), ("s", "atom")])
    rel.insert_many(rows)
    for probe in (rows[0][0], 99):
        assert sorted(chain.from_iterable(rel.query({0: probe}))) == \
            sorted(r for r in rows if r[0] == probe)
    for s in ("a", "b", "c"):
        assert sorted(chain.from_iterable(rel.query({1: s}))) == \
            sorted(r for r in rows if r[1] == s)
    lo, hi = 10, 30
    assert sorted(chain.from_iterable(rel.range_query(0, lo, hi))) == \
        sorted(r for r in rows if lo <= r[0] <= hi)
