"""Shared fixtures and hypothesis strategies."""

import pytest
from hypothesis import strategies as st

from repro.analysis import enable_self_verify
from repro.terms import Atom, Struct

# Every compile and every assembly in the test suite runs under the
# static verifier (docs/ANALYSIS.md): a clause the compiler emits that
# fails verification is a bug in either the compiler or the verifier,
# and the whole suite is the property harness that finds it.
enable_self_verify()


@pytest.fixture
def machine():
    from repro.wam.machine import Machine
    return Machine()


@pytest.fixture
def session():
    from repro.engine.session import EduceStar
    return EduceStar()


@pytest.fixture
def interpreter():
    from repro.engine.interpreter import Interpreter
    return Interpreter()


@pytest.fixture
def pager():
    from repro.bang.pager import Pager
    return Pager(buffer_pages=16)


# ---------------------------------------------------------------- strategies

_atom_names = st.sampled_from(
    ["a", "b", "c", "foo", "bar", "baz", "x1", "hello_world", "[]"])

atoms = _atom_names.map(Atom)
integers = st.integers(min_value=-1000, max_value=1000)
floats = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)


def ground_terms(max_depth: int = 3):
    """Ground Prolog terms of bounded depth."""
    leaves = st.one_of(atoms, integers,
                       floats.map(lambda f: round(f, 3)))
    return st.recursive(
        leaves,
        lambda children: st.builds(
            lambda name, args: Struct(name, tuple(args)),
            st.sampled_from(["f", "g", "pair", "."]),
            st.lists(children, min_size=1, max_size=3),
        ).filter(lambda t: not (t.name == "." and t.arity != 2)),
        max_leaves=8,
    )


def term_lists(max_size: int = 6):
    from repro.terms import make_list
    return st.lists(ground_terms(), max_size=max_size).map(make_list)


@pytest.fixture
def bottom_up(monkeypatch):
    """Route every evaluable recursive goal bottom-up, however small its
    EDB: test relations are far below ``DEFAULT_MIN_ROWS`` (256)."""
    from repro.relational.datalog import strategy
    monkeypatch.setattr(strategy, "DEFAULT_MIN_ROWS", 0)
