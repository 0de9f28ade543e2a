"""Surface representation of Prolog terms.

This is the *source level* term model used by the reader, the compiler and
the resolution interpreter.  The WAM emulator has its own tagged-cell heap
representation (see :mod:`repro.wam.machine`); conversion between the two
happens at the query boundary.

Representation choices
----------------------
* Python ``int`` and ``float`` are used directly as Prolog integers and
  floats — they are immutable and hash well, and it keeps arithmetic code
  free of wrapping/unwrapping noise.
* :class:`Atom` instances are interned: ``Atom('foo') is Atom('foo')``.
  This gives constant-time equality, mirroring the dictionary-identifier
  technique of the paper (§3.3.1) at the surface level.
* :class:`Var` is a mutable binding cell used by the interpreter baseline.
  Compiled execution never binds these directly.
* :class:`Struct` is a compound term; lists are ``Struct('.', (H, T))``
  chains terminated by ``Atom('[]')``, as in classic Prolog.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple, Union

from .errors import TypeError_

Term = Union["Atom", int, float, "Var", "Struct"]


class Atom:
    """An interned Prolog atom.

    ``Atom(name)`` returns the unique instance for *name*; identity
    comparison is therefore valid for equality.
    """

    __slots__ = ("name",)
    _interned: dict = {}

    def __new__(cls, name: str) -> "Atom":
        existing = cls._interned.get(name)
        if existing is not None:
            return existing
        atom = object.__new__(cls)
        atom.name = name
        cls._interned[name] = atom
        return atom

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(self.name)

    # Identity equality is inherited from object and is correct because of
    # interning.

    def __reduce__(self):
        return (Atom, (self.name,))


NIL = Atom("[]")
TRUE = Atom("true")
FAIL = Atom("fail")
EMPTY_BLOCK = Atom("{}")


class Var:
    """A logic variable with an optional print name.

    ``ref`` is ``None`` while unbound, otherwise the term this variable is
    bound to.  Binding/unbinding is managed by the interpreter's trail.
    """

    __slots__ = ("name", "ref")
    _counter = 0

    def __init__(self, name: Optional[str] = None):
        if name is None:
            Var._counter += 1
            name = f"_G{Var._counter}"
        self.name = name
        self.ref: Optional[Term] = None

    def __repr__(self) -> str:
        if self.ref is None:
            return f"Var({self.name})"
        return f"Var({self.name}={self.ref!r})"


class Struct:
    """A compound term ``name(args...)`` with at least one argument."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Term, ...]):
        if not args:
            raise TypeError_("compound term requires arguments", name)
        self.name = name
        self.args = tuple(args)

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> Tuple[str, int]:
        """The predicate indicator ``(name, arity)``."""
        return (self.name, len(self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"Struct({self.name!r}, ({inner}))"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Struct)
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash((self.name, self.args))


def deref(term: Term) -> Term:
    """Follow variable bindings until reaching an unbound var or non-var."""
    while isinstance(term, Var) and term.ref is not None:
        term = term.ref
    return term


def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    """Build a Prolog list term from a Python iterable."""
    result = tail
    for item in reversed(list(items)):
        result = Struct(".", (item, result))
    return result


def list_to_python(term: Term) -> List[Term]:
    """Convert a proper Prolog list to a Python list.

    Raises :class:`TypeError_` if *term* is not a proper list.
    """
    out: List[Term] = []
    term = deref(term)
    while True:
        if term is NIL:
            return out
        if isinstance(term, Struct) and term.name == "." and term.arity == 2:
            out.append(deref(term.args[0]))
            term = deref(term.args[1])
        else:
            raise TypeError_("list", term)


def is_proper_list(term: Term) -> bool:
    """True iff *term* is a nil-terminated list with no unbound tail."""
    term = deref(term)
    while isinstance(term, Struct) and term.name == "." and term.arity == 2:
        term = deref(term.args[1])
    return term is NIL


def indicator_of(term: Term) -> Tuple[str, int]:
    """Predicate indicator of a callable term."""
    term = deref(term)
    if isinstance(term, Atom):
        return (term.name, 0)
    if isinstance(term, Struct):
        return (term.name, term.arity)
    raise TypeError_("callable", term)


def term_variables(term: Term) -> List[Var]:
    """All distinct unbound variables in *term*, in first-occurrence order."""
    seen: dict = {}
    stack = [term]
    order: List[Var] = []
    while stack:
        t = deref(stack.pop())
        if isinstance(t, Var):
            if id(t) not in seen:
                seen[id(t)] = t
                order.append(t)
        elif isinstance(t, Struct):
            stack.extend(reversed(t.args))
    return order


def rename_term(term: Term, mapping: Optional[dict] = None) -> Term:
    """Structure-preserving copy with fresh variables (``copy_term/2``)."""
    if mapping is None:
        mapping = {}

    def walk(t: Term) -> Term:
        t = deref(t)
        if isinstance(t, Var):
            fresh = mapping.get(id(t))
            if fresh is None:
                fresh = Var(t.name)
                mapping[id(t)] = fresh
            return fresh
        if isinstance(t, Struct):
            return Struct(t.name, tuple(walk(a) for a in t.args))
        return t

    return walk(term)


def resolve_term(term: Term) -> Term:
    """Replace bound variables by their values, keeping unbound vars."""
    term = deref(term)
    if isinstance(term, Struct):
        return Struct(term.name, tuple(resolve_term(a) for a in term.args))
    return term


_TYPE_ORDER = {"var": 0, "float": 1, "int": 1, "atom": 2, "struct": 3}


def _type_rank(term: Term) -> int:
    if isinstance(term, Var):
        return 0
    if isinstance(term, (int, float)) and not isinstance(term, bool):
        return 1
    if isinstance(term, Atom):
        return 2
    return 3


def compare_terms(a: Term, b: Term) -> int:
    """Standard order of terms: Var < Number < Atom < Compound.

    Returns -1, 0 or 1.  Numbers compare by value (with int before float on
    a tie, per ISO); compound terms by arity, then name, then args.
    Iterative (explicit work stack) so long lists do not overflow the
    Python call stack.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a = deref(a)
        b = deref(b)
        ra, rb = _type_rank(a), _type_rank(b)
        if ra != rb:
            return -1 if ra < rb else 1
        if ra == 0:  # both vars: order by identity (stable within a run)
            ia, ib = id(a), id(b)
            if ia != ib:
                return -1 if ia < ib else 1
            continue
        if ra == 1:  # numbers
            if a == b:
                if isinstance(a, float) and isinstance(b, int):
                    return -1
                if isinstance(a, int) and isinstance(b, float):
                    return 1
                continue
            return -1 if a < b else 1
        if ra == 2:  # atoms
            if a is b:
                continue
            return -1 if a.name < b.name else 1
        # compound: arity, then name, then args left-to-right
        assert isinstance(a, Struct) and isinstance(b, Struct)
        if a.arity != b.arity:
            return -1 if a.arity < b.arity else 1
        if a.name != b.name:
            return -1 if a.name < b.name else 1
        if a.args is not b.args:
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    return 0


def terms_equal(a: Term, b: Term) -> bool:
    """Structural equality after dereferencing (``==/2``)."""
    return compare_terms(a, b) == 0


def iter_subterms(term: Term) -> Iterator[Term]:
    """Depth-first pre-order iteration over all subterms (dereferenced)."""
    stack = [term]
    while stack:
        t = deref(stack.pop())
        yield t
        if isinstance(t, Struct):
            stack.extend(reversed(t.args))


def ground(term: Term) -> bool:
    """True iff *term* contains no unbound variables."""
    for sub in iter_subterms(term):
        if isinstance(sub, Var):
            return False
    return True
