"""Unit tests for the surface term model."""

import pytest
from hypothesis import given

from repro.errors import TypeError_
from repro.terms import (
    NIL,
    Atom,
    Struct,
    Var,
    compare_terms,
    deref,
    ground,
    indicator_of,
    is_proper_list,
    iter_subterms,
    list_to_python,
    make_list,
    rename_term,
    resolve_term,
    term_variables,
    terms_equal,
)

from .conftest import ground_terms


class TestAtomInterning:
    def test_same_name_is_same_object(self):
        assert Atom("foo") is Atom("foo")

    def test_different_names_differ(self):
        assert Atom("foo") is not Atom("bar")

    def test_nil_is_interned(self):
        assert Atom("[]") is NIL

    def test_hash_equals_name_hash(self):
        assert hash(Atom("xyz")) == hash("xyz")

    def test_str(self):
        assert str(Atom("hello")) == "hello"


class TestVar:
    def test_fresh_vars_are_distinct(self):
        assert Var() is not Var()

    def test_named_var_keeps_name(self):
        assert Var("X").name == "X"

    def test_anonymous_names_are_unique(self):
        assert Var().name != Var().name

    def test_deref_unbound(self):
        v = Var()
        assert deref(v) is v

    def test_deref_chain(self):
        a, b = Var(), Var()
        a.ref = b
        b.ref = Atom("end")
        assert deref(a) is Atom("end")


class TestStruct:
    def test_requires_args(self):
        with pytest.raises(TypeError_):
            Struct("f", ())

    def test_indicator(self):
        assert Struct("f", (1, 2)).indicator == ("f", 2)

    def test_equality_structural(self):
        assert Struct("f", (1, Atom("a"))) == Struct("f", (1, Atom("a")))
        assert Struct("f", (1,)) != Struct("g", (1,))


class TestLists:
    def test_make_and_unmake_roundtrip(self):
        items = [1, Atom("a"), 2.5]
        assert list_to_python(make_list(items)) == items

    def test_empty_list(self):
        assert make_list([]) is NIL
        assert list_to_python(NIL) == []

    def test_improper_list_raises(self):
        with pytest.raises(TypeError_):
            list_to_python(Struct(".", (1, Atom("not_nil"))))

    def test_is_proper_list(self):
        assert is_proper_list(make_list([1, 2]))
        assert not is_proper_list(Struct(".", (1, Var())))
        assert not is_proper_list(Atom("a"))

    def test_tail_parameter(self):
        tail = Var()
        lst = make_list([1], tail)
        assert deref(lst.args[1]) is tail


class TestIndicator:
    def test_atom(self):
        assert indicator_of(Atom("x")) == ("x", 0)

    def test_struct(self):
        assert indicator_of(Struct("f", (1, 2, 3))) == ("f", 3)

    def test_non_callable_raises(self):
        with pytest.raises(TypeError_):
            indicator_of(42)


class TestTermVariables:
    def test_order_is_first_occurrence(self):
        x, y = Var("X"), Var("Y")
        t = Struct("f", (y, Struct("g", (x, y))))
        assert term_variables(t) == [y, x]

    def test_ground_term_has_none(self):
        assert term_variables(make_list([1, 2, Atom("a")])) == []

    def test_bound_vars_skipped(self):
        x = Var()
        x.ref = Atom("bound")
        assert term_variables(Struct("f", (x,))) == []
        x.ref = None


class TestRenameResolve:
    def test_rename_preserves_sharing(self):
        x = Var("X")
        t = Struct("f", (x, x))
        fresh = rename_term(t)
        assert fresh.args[0] is fresh.args[1]
        assert fresh.args[0] is not x

    def test_rename_keeps_constants(self):
        t = Struct("f", (1, Atom("a")))
        assert rename_term(t) == t

    def test_resolve_replaces_bindings(self):
        x = Var()
        x.ref = 42
        assert resolve_term(Struct("f", (x,))) == Struct("f", (42,))
        x.ref = None


class TestCompareTerms:
    def test_type_ordering(self):
        # Var < Number < Atom < Compound
        v = Var()
        assert compare_terms(v, 1) == -1
        assert compare_terms(1, Atom("a")) == -1
        assert compare_terms(Atom("a"), Struct("f", (1,))) == -1

    def test_numbers_by_value(self):
        assert compare_terms(1, 2) == -1
        assert compare_terms(2.5, 1) == 1

    def test_int_float_tie(self):
        assert compare_terms(1.0, 1) == -1
        assert compare_terms(1, 1.0) == 1

    def test_atoms_alphabetical(self):
        assert compare_terms(Atom("abc"), Atom("abd")) == -1

    def test_compound_by_arity_first(self):
        assert compare_terms(Struct("z", (1,)), Struct("a", (1, 2))) == -1

    def test_compound_by_name_second(self):
        assert compare_terms(Struct("a", (9,)), Struct("b", (0,))) == -1

    def test_compound_by_args_third(self):
        assert compare_terms(Struct("f", (1, 2)), Struct("f", (1, 3))) == -1

    def test_deep_lists_no_recursion_error(self):
        big = make_list(list(range(50_000)))
        big2 = make_list(list(range(50_000)))
        assert compare_terms(big, big2) == 0

    @given(ground_terms())
    def test_reflexive(self, t):
        assert compare_terms(t, t) == 0

    @given(ground_terms(), ground_terms())
    def test_antisymmetric(self, a, b):
        assert compare_terms(a, b) == -compare_terms(b, a)

    @given(ground_terms(), ground_terms(), ground_terms())
    def test_transitive(self, a, b, c):
        if compare_terms(a, b) <= 0 and compare_terms(b, c) <= 0:
            assert compare_terms(a, c) <= 0

    @given(ground_terms(), ground_terms())
    def test_equal_iff_terms_equal(self, a, b):
        assert (compare_terms(a, b) == 0) == terms_equal(a, b)


class TestIterAndGround:
    def test_iter_subterms_preorder(self):
        t = Struct("f", (Atom("a"), Struct("g", (1,))))
        subs = list(iter_subterms(t))
        assert subs[0] is t
        assert Atom("a") in subs
        assert 1 in subs

    def test_ground_detects_vars(self):
        assert ground(Struct("f", (1, Atom("a"))))
        assert not ground(Struct("f", (Var(),)))

    @given(ground_terms())
    def test_generated_ground_terms_are_ground(self, t):
        assert ground(t)
