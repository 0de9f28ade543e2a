"""A clause-resolution interpreter over surface terms.

This is the inference engine of the **Educe baseline** (§2 of the
paper): no compilation, structure-walking unification, clause selection
by linear scan.  The paper's claim — "It is not unusual to have
performance increased by several orders of magnitude when moving from an
interpreter to a compiler" — is only measurable if the interpreter is
real, so this one supports the full control repertoire the workloads
need: conjunction, disjunction, if-then-else, negation, cut, arithmetic,
findall and dynamic clauses.

Counters: logical inferences, unification attempts, clause scans — the
work units the cost model prices for the baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import (
    ExistenceError,
    InstantiationError,
    TypeError_,
)
from ..lang.program import load_program
from ..lang.reader import Reader
from ..terms import (
    Atom,
    Struct,
    Term,
    Var,
    compare_terms,
    deref,
    indicator_of,
    make_list,
    rename_term,
    resolve_term,
)
from ..wam.arith import _ARITH_CONSTANTS, _ARITH_FUNCTIONS, COMPARISONS
from ..wam.compiler import split_clause

_CUT = Atom("!")
_TRUE = Atom("true")
_FAIL = Atom("fail")


class Interpreter:
    """Resolution interpreter with a main-memory clause database."""

    def __init__(self, load_library: bool = True):
        self.reader = Reader()
        self.database: Dict[Tuple[str, int], List[Term]] = {}
        # Hook called on unknown predicates; returns a clause list to use
        # for this call only (the Educe EDB trap), or None.
        self.fetch_hook: Optional[Callable] = None
        self.inferences = 0
        self.unifications = 0
        self.clause_scans = 0
        self.asserts = 0
        self.erases = 0
        #: declared ``dynamic``/``discontiguous``: calling one that has
        #: no clauses (here or behind the fetch hook) fails, not raises
        self.declared: set = set()
        if load_library:
            from ..wam.prelude import library
            for (name, arity), clauses in library().items():
                self.define(name, arity, clauses)

    # ------------------------------------------------------------- database

    def consult(self, text: str, define: Optional[Callable] = None) -> None:
        """Assert a program text, read section by section
        (:mod:`repro.lang.program`): ``op/3`` extends this reader,
        declarations are noted, any other ``:- Goal`` is solved once the
        clauses before it are in.  *define(name, arity, clauses)*
        receives each clause group in place of :meth:`define` — the
        Educe baseline stores them (``EduceBaseline.store_program``)."""
        load_program(text, self.reader, define or self.define,
                     define or self.define,
                     lambda name, arity: self.declared.add((name, arity)),
                     self.solve_once)

    def define(self, name: str, arity: int, clauses) -> None:
        """Append *clauses* to ``name/arity``."""
        self.database.setdefault((name, arity), []).extend(clauses)
        self.asserts += len(clauses)

    def assertz(self, clause: Term) -> None:
        self.define(*indicator_of(split_clause(clause)[0]), [clause])

    def asserta(self, clause: Term) -> None:
        key = indicator_of(split_clause(clause)[0])
        self.database.setdefault(key, []).insert(0, clause)
        self.asserts += 1

    # ---------------------------------------------------------------- query

    def solve(self, goal, limit: Optional[int] = None) -> Iterator[dict]:
        """Solve a goal (text or term); yields binding dicts."""
        if isinstance(goal, str):
            term, varmap = self.reader.read_term_with_vars(goal)
        else:
            term = goal
            from ..terms import term_variables
            varmap = {v.name: v for v in term_variables(term)}
        count = 0
        trail: List[Var] = []
        mark = len(trail)
        for _ in self._solve(term, trail, [False]):
            yield {
                name: resolve_term(var)
                for name, var in varmap.items()
            }
            count += 1
            if limit is not None and count >= limit:
                break
        _undo(trail, mark)

    def solve_once(self, goal) -> Optional[dict]:
        for bindings in self.solve(goal, limit=1):
            return bindings
        return None

    def count_solutions(self, goal) -> int:
        return sum(1 for _ in self.solve(goal))

    # ------------------------------------------------------------ resolution

    def _solve(self, goal: Term, trail: List[Var],
               cut_parent: List[bool]) -> Iterator[bool]:
        goal = deref(goal)
        self.inferences += 1

        if isinstance(goal, Var):
            raise InstantiationError("call of unbound goal")
        if goal is _TRUE:
            yield True
            return
        if goal is _FAIL or goal is Atom("false"):
            return
        if goal is _CUT:
            yield True
            cut_parent[0] = True
            return

        if isinstance(goal, Struct):
            ind = goal.indicator
            if ind == (",", 2):
                yield from self._solve_conj(
                    goal.args[0], goal.args[1], trail, cut_parent)
                return
            if ind == (";", 2):
                yield from self._solve_disj(goal, trail, cut_parent)
                return
            if ind == ("->", 2):
                yield from self._solve_disj(
                    Struct(";", (goal, _FAIL)), trail, cut_parent)
                return
            if ind in (("\\+", 1), ("not", 1)):
                mark = len(trail)
                for _ in self._solve(goal.args[0], trail, [False]):
                    _undo(trail, mark)
                    return
                _undo(trail, mark)
                yield True
                return
            if ind[0] == "call":
                target = deref(goal.args[0])
                extra = goal.args[1:]
                if extra:
                    target = _extend(target, extra)
                yield from self._solve(target, trail, [False])
                return

        builtin = _BUILTINS.get(indicator_of(goal))
        if builtin is not None:
            yield from builtin(self, goal, trail)
            return

        yield from self._call_user(goal, trail)

    def _solve_conj(self, a: Term, b: Term, trail: List[Var],
                    cut_parent: List[bool]) -> Iterator[bool]:
        for _ in self._solve(a, trail, cut_parent):
            yield from self._solve(b, trail, cut_parent)
            if cut_parent[0]:
                return
        # also stop retrying `a` once a cut fired inside it
        return

    def _solve_disj(self, goal: Struct, trail: List[Var],
                    cut_parent: List[bool]) -> Iterator[bool]:
        left = deref(goal.args[0])
        right = goal.args[1]
        if isinstance(left, Struct) and left.indicator == ("->", 2):
            cond, then = left.args
            mark = len(trail)
            for _ in self._solve(cond, trail, [False]):
                yield from self._solve(then, trail, cut_parent)
                _undo(trail, mark)
                return
            _undo(trail, mark)
            yield from self._solve(right, trail, cut_parent)
            return
        mark = len(trail)
        yield from self._solve(left, trail, cut_parent)
        if cut_parent[0]:
            return
        _undo(trail, mark)
        yield from self._solve(right, trail, cut_parent)

    def _call_user(self, goal: Term, trail: List[Var]) -> Iterator[bool]:
        key = indicator_of(goal)
        clauses = self.database.get(key)
        transient = False
        if clauses is None and self.fetch_hook is not None:
            clauses = self.fetch_hook(self, key[0], key[1], goal)
            transient = clauses is not None
        if clauses is None:
            if key in self.declared:
                return
            raise ExistenceError("procedure", f"{key[0]}/{key[1]}")
        # A constant first argument rejects a clause whose first head
        # argument cannot match before the clause is copied; the scan
        # and the failed unification are still counted.
        first = deref(goal.args[0]) if isinstance(goal, Struct) else None
        if isinstance(first, (Var, Struct)):
            first = None
        try:
            my_cut = [False]
            for clause in list(clauses):
                self.clause_scans += 1
                if my_cut[0]:
                    break
                if first is not None and _clashes(first, clause):
                    self.unifications += 1
                    continue
                mark = len(trail)
                fresh = rename_term(clause)
                head, body = split_clause(fresh)
                if not self._unify(goal, head, trail):
                    _undo(trail, mark)
                    continue
                if not body:
                    yield True
                else:
                    goal_body = body[0]
                    for extra_goal in body[1:]:
                        goal_body = Struct(",", (goal_body, extra_goal))
                    yield from self._solve(goal_body, trail, my_cut)
                _undo(trail, mark)
        finally:
            if transient:
                # The Educe erase step: transient clauses leave memory as
                # soon as the call completes (§2, factor 3).
                self.erases += len(clauses)

    # ----------------------------------------------------------- unification

    def _unify(self, a: Term, b: Term, trail: List[Var]) -> bool:
        self.unifications += 1
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x = deref(x)
            y = deref(y)
            if x is y:
                continue
            if isinstance(x, Var):
                x.ref = y
                trail.append(x)
                continue
            if isinstance(y, Var):
                y.ref = x
                trail.append(y)
                continue
            if isinstance(x, Atom) or isinstance(y, Atom):
                if x is not y:
                    return False
                continue
            if isinstance(x, (int, float)):
                if not isinstance(y, (int, float)) or x != y \
                        or isinstance(x, float) != isinstance(y, float):
                    return False
                continue
            if isinstance(x, Struct) and isinstance(y, Struct):
                if x.name != y.name or x.arity != y.arity:
                    return False
                stack.extend(zip(x.args, y.args))
                continue
            return False
        return True

    def counters(self) -> dict:
        return {
            "inferences": self.inferences,
            "unifications": self.unifications,
            "clause_scans": self.clause_scans,
            "asserts": self.asserts,
            "erases": self.erases,
        }


# ====================================================================
# interpreter built-ins
# ====================================================================

def _clashes(first, clause: Term) -> bool:
    """Would :meth:`Interpreter._unify` fail on *clause*'s first head
    argument against the constant *first*?"""
    head = clause.args[0] if clause.indicator == (":-", 2) else clause
    arg = deref(head.args[0])
    return not (isinstance(arg, Var)
                or type(arg) is type(first) and arg == first)


def _undo(trail: List[Var], mark: int) -> None:
    while len(trail) > mark:
        trail.pop().ref = None


def _extend(goal: Term, extra) -> Term:
    goal = deref(goal)
    if isinstance(goal, Atom):
        return Struct(goal.name, tuple(extra))
    if isinstance(goal, Struct):
        return Struct(goal.name, goal.args + tuple(extra))
    raise TypeError_("callable", goal)


def _eval(term: Term):
    term = deref(term)
    if isinstance(term, bool):
        raise TypeError_("evaluable", term)
    if isinstance(term, (int, float)):
        return term
    if isinstance(term, Var):
        raise InstantiationError("arithmetic")
    if isinstance(term, Struct):
        fn = _ARITH_FUNCTIONS.get((term.name, term.arity))
        if fn is None:
            raise TypeError_("evaluable", f"{term.name}/{term.arity}")
        return fn(*[_eval(a) for a in term.args])
    if isinstance(term, Atom):
        value = _ARITH_CONSTANTS.get(term.name)
        if value is None:
            raise TypeError_("evaluable", f"{term.name}/0")
        return value
    raise TypeError_("evaluable", term)


_BUILTINS: Dict[Tuple[str, int], Callable] = {}


def _ibuiltin(name: str, arity: int):
    def wrap(fn):
        _BUILTINS[(name, arity)] = fn
        return fn
    return wrap


@_ibuiltin("is", 2)
def _bi_is(interp, goal, trail):
    value = _eval(goal.args[1])
    if interp._unify(goal.args[0], value, trail):
        yield True


def _arith_cmp(test):
    def fn(interp, goal, trail):
        if test(_eval(goal.args[0]), _eval(goal.args[1])):
            yield True
    return fn


for _name, _test in COMPARISONS.items():
    _ibuiltin(_name, 2)(_arith_cmp(_test))


@_ibuiltin("=", 2)
def _bi_unify(interp, goal, trail):
    mark = len(trail)
    if interp._unify(goal.args[0], goal.args[1], trail):
        yield True
    else:
        _undo(trail, mark)


@_ibuiltin("\\=", 2)
def _bi_nunify(interp, goal, trail):
    mark = len(trail)
    ok = interp._unify(goal.args[0], goal.args[1], trail)
    _undo(trail, mark)
    if not ok:
        yield True


def _cmp_builtin(name, test):
    def fn(interp, goal, trail):
        if test(compare_terms(goal.args[0], goal.args[1])):
            yield True
    _ibuiltin(name, 2)(fn)


_cmp_builtin("==", lambda c: c == 0)
_cmp_builtin("\\==", lambda c: c != 0)
_cmp_builtin("@<", lambda c: c < 0)
_cmp_builtin("@>", lambda c: c > 0)
_cmp_builtin("@=<", lambda c: c <= 0)
_cmp_builtin("@>=", lambda c: c >= 0)


def _type_builtin(name, test):
    def fn(interp, goal, trail):
        if test(deref(goal.args[0])):
            yield True
    _ibuiltin(name, 1)(fn)


_type_builtin("var", lambda t: isinstance(t, Var))
_type_builtin("nonvar", lambda t: not isinstance(t, Var))
_type_builtin("atom", lambda t: isinstance(t, Atom))
_type_builtin("number", lambda t: isinstance(t, (int, float))
              and not isinstance(t, bool))
_type_builtin("integer", lambda t: isinstance(t, int)
              and not isinstance(t, bool))
_type_builtin("float", lambda t: isinstance(t, float))
_type_builtin("atomic", lambda t: isinstance(t, (Atom, int, float)))
_type_builtin("compound", lambda t: isinstance(t, Struct))
_type_builtin("callable", lambda t: isinstance(t, (Atom, Struct)))


@_ibuiltin("functor", 3)
def _bi_functor(interp, goal, trail):
    t = deref(goal.args[0])
    if not isinstance(t, Var):
        if isinstance(t, Struct):
            name, arity = Atom(t.name), t.arity
        elif isinstance(t, Atom):
            name, arity = t, 0
        else:
            name, arity = t, 0
        if interp._unify(goal.args[1], name, trail) and \
                interp._unify(goal.args[2], arity, trail):
            yield True
        return
    name = deref(goal.args[1])
    arity = deref(goal.args[2])
    if isinstance(name, Var) or not isinstance(arity, int):
        raise InstantiationError("functor/3")
    if arity == 0:
        if interp._unify(goal.args[0], name, trail):
            yield True
        return
    if not isinstance(name, Atom):
        raise TypeError_("atom", name)
    built = Struct(name.name, tuple(Var() for _ in range(arity)))
    if interp._unify(goal.args[0], built, trail):
        yield True


@_ibuiltin("arg", 3)
def _bi_arg(interp, goal, trail):
    n = deref(goal.args[0])
    t = deref(goal.args[1])
    if not isinstance(n, int) or not isinstance(t, Struct):
        raise TypeError_("arg/3 arguments", goal)
    if 1 <= n <= t.arity:
        if interp._unify(goal.args[2], t.args[n - 1], trail):
            yield True


@_ibuiltin("=..", 2)
def _bi_univ(interp, goal, trail):
    t = deref(goal.args[0])
    if not isinstance(t, Var):
        if isinstance(t, Struct):
            items = [Atom(t.name)] + list(t.args)
        else:
            items = [t]
        if interp._unify(goal.args[1], make_list(items), trail):
            yield True
        return
    from ..terms import list_to_python
    items = list_to_python(goal.args[1])
    head = deref(items[0])
    if len(items) == 1:
        if interp._unify(goal.args[0], head, trail):
            yield True
        return
    if not isinstance(head, Atom):
        raise TypeError_("atom", head)
    built = Struct(head.name, tuple(items[1:]))
    if interp._unify(goal.args[0], built, trail):
        yield True


@_ibuiltin("copy_term", 2)
def _bi_copy(interp, goal, trail):
    if interp._unify(goal.args[1], rename_term(goal.args[0]), trail):
        yield True


@_ibuiltin("findall", 3)
def _bi_findall(interp, goal, trail):
    template, inner, out = goal.args
    solutions = []
    mark = len(trail)
    for _ in interp._solve(inner, trail, [False]):
        solutions.append(rename_term(resolve_term(template)))
    _undo(trail, mark)
    if interp._unify(out, make_list(solutions), trail):
        yield True


@_ibuiltin("between", 3)
def _bi_between(interp, goal, trail):
    low = deref(goal.args[0])
    high = deref(goal.args[1])
    x = deref(goal.args[2])
    if not isinstance(low, int) or not isinstance(high, int):
        raise InstantiationError("between/3")
    if isinstance(x, int):
        if low <= x <= high:
            yield True
        return
    for v in range(low, high + 1):
        mark = len(trail)
        if interp._unify(goal.args[2], v, trail):
            yield True
        _undo(trail, mark)


@_ibuiltin("assert", 1)
def _bi_assert(interp, goal, trail):
    interp.assertz(rename_term(resolve_term(goal.args[0])))
    yield True


@_ibuiltin("assertz", 1)
def _bi_assertz(interp, goal, trail):
    interp.assertz(rename_term(resolve_term(goal.args[0])))
    yield True


@_ibuiltin("asserta", 1)
def _bi_asserta(interp, goal, trail):
    interp.asserta(rename_term(resolve_term(goal.args[0])))
    yield True


@_ibuiltin("retract", 1)
def _bi_retract(interp, goal, trail):
    pattern = _clause_form(goal.args[0])
    clauses = interp.database.get(indicator_of(deref(pattern.args[0])), [])
    for i, clause in enumerate(list(clauses)):
        mark = len(trail)
        if interp._unify(pattern, _clause_form(rename_term(clause)), trail):
            clauses.pop(i)
            interp.erases += 1
            yield True
            return
        _undo(trail, mark)


def _clause_form(clause: Term) -> Term:
    """*clause* as ``Head :- Body`` with its body as written; a fact's
    body is ``true``."""
    clause = deref(clause)
    if isinstance(clause, Struct) and clause.indicator == (":-", 2):
        return clause
    return Struct(":-", (clause, _TRUE))


@_ibuiltin("length", 2)
def _bi_length(interp, goal, trail):
    from ..terms import is_proper_list, list_to_python
    t = deref(goal.args[0])
    if is_proper_list(t):
        if interp._unify(goal.args[1], len(list_to_python(t)), trail):
            yield True
        return
    n = deref(goal.args[1])
    if isinstance(n, int):
        fresh = make_list([Var() for _ in range(n)])
        if interp._unify(goal.args[0], fresh, trail):
            yield True
        return
    raise InstantiationError("length/2")


@_ibuiltin("msort", 2)
def _bi_msort(interp, goal, trail):
    from ..terms import list_to_python
    items = [resolve_term(t) for t in list_to_python(goal.args[0])]
    import functools
    items.sort(key=functools.cmp_to_key(compare_terms))
    if interp._unify(goal.args[1], make_list(items), trail):
        yield True


@_ibuiltin("sort", 2)
def _bi_sort(interp, goal, trail):
    from ..terms import list_to_python
    items = [resolve_term(t) for t in list_to_python(goal.args[0])]
    import functools
    items.sort(key=functools.cmp_to_key(compare_terms))
    unique: List[Term] = []
    for t in items:
        if not unique or compare_terms(unique[-1], t) != 0:
            unique.append(t)
    if interp._unify(goal.args[1], make_list(unique), trail):
        yield True


@_ibuiltin("once", 1)
def _bi_once(interp, goal, trail):
    for _ in interp._solve(goal.args[0], trail, [False]):
        yield True
        return


@_ibuiltin("forall", 2)
def _bi_forall(interp, goal, trail):
    cond, action = goal.args
    mark = len(trail)
    for _ in interp._solve(cond, trail, [False]):
        ok = False
        for _ in interp._solve(action, trail, [False]):
            ok = True
            break
        if not ok:
            _undo(trail, mark)
            return
    _undo(trail, mark)
    yield True


@_ibuiltin("succ", 2)
def _bi_succ(interp, goal, trail):
    a = deref(goal.args[0])
    b = deref(goal.args[1])
    if isinstance(a, int):
        if a < 0:
            raise TypeError_("not_less_than_zero", a)
        if interp._unify(goal.args[1], a + 1, trail):
            yield True
        return
    if isinstance(b, int):
        if b > 0 and interp._unify(goal.args[0], b - 1, trail):
            yield True
        return
    raise InstantiationError("succ/2")


@_ibuiltin("ground", 1)
def _bi_ground(interp, goal, trail):
    from ..terms import ground as is_ground
    if is_ground(goal.args[0]):
        yield True


@_ibuiltin("atom_codes", 2)
def _bi_atom_codes(interp, goal, trail):
    from ..terms import list_to_python
    t = deref(goal.args[0])
    if isinstance(t, Atom):
        codes = make_list([ord(c) for c in t.name])
        if interp._unify(goal.args[1], codes, trail):
            yield True
        return
    if isinstance(t, (int, float)):
        from ..lang.writer import term_to_text
        codes = make_list([ord(c) for c in term_to_text(t)])
        if interp._unify(goal.args[1], codes, trail):
            yield True
        return
    items = list_to_python(goal.args[1])
    name = "".join(chr(deref(i)) for i in items)
    if interp._unify(goal.args[0], Atom(name), trail):
        yield True


@_ibuiltin("atom_length", 2)
def _bi_atom_length(interp, goal, trail):
    t = deref(goal.args[0])
    if not isinstance(t, Atom):
        raise TypeError_("atom", t)
    if interp._unify(goal.args[1], len(t.name), trail):
        yield True


@_ibuiltin("write", 1)
def _bi_write(interp, goal, trail):
    yield True


@_ibuiltin("nl", 0)
def _bi_nl(interp, goal, trail):
    yield True
