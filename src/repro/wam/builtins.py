"""Built-in predicates, invoked via the ``escape`` instruction.

Each built-in is ``fn(machine, arg_cells) -> result`` where the result is

* ``True`` / ``False`` — deterministic success/failure;
* ``"dispatched"``      — the built-in transferred control (``call/N``);
* a generator           — a non-deterministic built-in; the machine parks
  it in a generator choice point and pulls one solution per backtrack.

Arithmetic the compiler could not compile, term inspection, comparison,
atom manipulation, findall and friends, dynamic clause management and
output all live here.  The module registers every indicator with the
compiler so goals are routed through ``escape`` rather than ``call``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..errors import (
    InstantiationError,
    PermissionError_,
    PrologError,
    TypeError_,
)
from ..lang.program import indicator_list
from ..lang.writer import term_to_text
from ..terms import Atom, Struct, Term, compare_terms
from .arith import COMPARISONS, eval_arith, num_cell
from .compiler import register_builtin_indicator, split_clause

BUILTINS: Dict[Tuple[str, int], Callable] = {}


def builtin(name: str, arity: int):
    def wrap(fn):
        BUILTINS[(name, arity)] = fn
        register_builtin_indicator(name, arity)
        return fn
    return wrap


# ====================================================================
# helpers
# ====================================================================

def _undo(m, trail_mark: int) -> None:
    m._unwind_trail(trail_mark)


def _unify_or_undo(m, a, b) -> bool:
    mark = len(m.trail)
    if m.unify(a, b):
        return True
    _undo(m, mark)
    return False


def _cells_to_list(m, cell) -> List:
    """Proper-list cell → list of element cells; raises on bad lists."""
    out = []
    cell = m.deref_cell(cell)
    while True:
        if cell[0] == "CON" and cell[1] == m._nil_id:
            return out
        if cell[0] != "LIS":
            raise TypeError_("list", m.extract(cell))
        a = cell[1]
        out.append(m.heap[a])
        cell = m.deref_cell(m.heap[a + 1])


def _list_to_cells(m, items: List) -> tuple:
    """Build a heap list from element cells."""
    tail = ("CON", m._nil_id)
    for item in reversed(items):
        a = len(m.heap)
        m.heap.append(item)
        m.heap.append(tail)
        tail = ("LIS", a)
    return tail


def _build_term(m, term: Term) -> tuple:
    return m._build_cell(term, {})


# ====================================================================
# arithmetic
# ====================================================================

@builtin("is", 2)
def bi_is(m, args):
    return m.unify(args[0], num_cell(eval_arith(m, args[1])))


for _name, _test in COMPARISONS.items():
    builtin(_name, 2)(lambda m, args, test=_test: test(
        eval_arith(m, args[0]), eval_arith(m, args[1])))


@builtin("succ", 2)
def bi_succ(m, args):
    a = m.deref_cell(args[0])
    b = m.deref_cell(args[1])
    if a[0] == "INT":
        if a[1] < 0:
            raise TypeError_("not_less_than_zero", a[1])
        return m.unify(args[1], ("INT", a[1] + 1))
    if b[0] == "INT":
        if b[1] <= 0:
            return False
        return m.unify(args[0], ("INT", b[1] - 1))
    raise InstantiationError("succ/2")


@builtin("plus", 3)
def bi_plus(m, args):
    a, b, c = (m.deref_cell(x) for x in args)
    known = [x for x in (a, b, c) if x[0] == "INT"]
    if len(known) < 2:
        raise InstantiationError("plus/3")
    if a[0] == "INT" and b[0] == "INT":
        return m.unify(args[2], ("INT", a[1] + b[1]))
    if a[0] == "INT":
        return m.unify(args[1], ("INT", c[1] - a[1]))
    return m.unify(args[0], ("INT", c[1] - b[1]))


# ====================================================================
# unification & comparison
# ====================================================================

@builtin("=", 2)
def bi_unify(m, args):
    return _unify_or_undo(m, args[0], args[1])


@builtin("\\=", 2)
def bi_not_unify(m, args):
    mark = len(m.trail)
    ok = m.unify(args[0], args[1])
    _undo(m, mark)
    return not ok


def compare_cells(m, a, b) -> int:
    """Standard order of terms over heap cells."""
    a = m.deref_cell(a)
    b = m.deref_cell(b)
    ra = _order_rank(a)
    rb = _order_rank(b)
    if ra != rb:
        return -1 if ra < rb else 1
    ta = a[0]
    if ta == "REF" and b[0] == "REF":
        return (a[1] > b[1]) - (a[1] < b[1])
    if ra == 1:  # numbers
        av = a[1]
        bv = b[1]
        if av == bv:
            if a[0] == "FLT" and b[0] == "INT":
                return -1
            if a[0] == "INT" and b[0] == "FLT":
                return 1
            return 0
        return -1 if av < bv else 1
    if ta == "CON":
        na = m.dictionary.name(a[1])
        nb = m.dictionary.name(b[1])
        return (na > nb) - (na < nb)
    # compound: arity, then name, then args
    na, aa, argsa = _compound_parts(m, a)
    nb, ab, argsb = _compound_parts(m, b)
    if aa != ab:
        return -1 if aa < ab else 1
    if na != nb:
        return -1 if na < nb else 1
    for x, y in zip(argsa, argsb):
        c = compare_cells(m, x, y)
        if c:
            return c
    return 0


def _order_rank(cell) -> int:
    tag = cell[0]
    if tag == "REF":
        return 0
    if tag == "INT" or tag == "FLT":
        return 1
    if tag == "CON":
        return 2
    return 3


def _compound_parts(m, cell):
    if cell[0] == "LIS":
        a = cell[1]
        return ".", 2, [m.heap[a], m.heap[a + 1]]
    a = cell[1]
    fid = m.heap[a][1]
    name, arity = m.dictionary.functor(fid)
    return name, arity, [m.heap[a + k] for k in range(1, arity + 1)]


builtin("==", 2)(lambda m, a: compare_cells(m, a[0], a[1]) == 0)
builtin("\\==", 2)(lambda m, a: compare_cells(m, a[0], a[1]) != 0)
builtin("@<", 2)(lambda m, a: compare_cells(m, a[0], a[1]) < 0)
builtin("@>", 2)(lambda m, a: compare_cells(m, a[0], a[1]) > 0)
builtin("@=<", 2)(lambda m, a: compare_cells(m, a[0], a[1]) <= 0)
builtin("@>=", 2)(lambda m, a: compare_cells(m, a[0], a[1]) >= 0)


@builtin("compare", 3)
def bi_compare(m, args):
    c = compare_cells(m, args[1], args[2])
    name = "<" if c < 0 else (">" if c > 0 else "=")
    return m.unify(args[0], ("CON", m.dictionary.intern(name, 0)))


# ====================================================================
# type tests
# ====================================================================

def _tag_test(*tags):
    def fn(m, args):
        return m.deref_cell(args[0])[0] in tags
    return fn


builtin("var", 1)(_tag_test("REF"))
builtin("nonvar", 1)(lambda m, a: m.deref_cell(a[0])[0] != "REF")
builtin("atom", 1)(_tag_test("CON"))
builtin("number", 1)(_tag_test("INT", "FLT"))
builtin("integer", 1)(_tag_test("INT"))
builtin("float", 1)(_tag_test("FLT"))
builtin("atomic", 1)(_tag_test("CON", "INT", "FLT"))
builtin("compound", 1)(_tag_test("STR", "LIS"))
builtin("callable", 1)(_tag_test("CON", "STR", "LIS"))


@builtin("is_list", 1)
def bi_is_list(m, args):
    cell = m.deref_cell(args[0])
    while True:
        if cell[0] == "CON" and cell[1] == m._nil_id:
            return True
        if cell[0] != "LIS":
            return False
        cell = m.deref_cell(m.heap[cell[1] + 1])


@builtin("ground", 1)
def bi_ground(m, args):
    stack = [args[0]]
    while stack:
        cell = m.deref_cell(stack.pop())
        tag = cell[0]
        if tag == "REF":
            return False
        if tag == "LIS":
            a = cell[1]
            stack.append(m.heap[a])
            stack.append(m.heap[a + 1])
        elif tag == "STR":
            a = cell[1]
            arity = m.dictionary.arity(m.heap[a][1])
            for k in range(1, arity + 1):
                stack.append(m.heap[a + k])
    return True


# ====================================================================
# term construction & inspection
# ====================================================================

@builtin("functor", 3)
def bi_functor(m, args):
    cell = m.deref_cell(args[0])
    tag = cell[0]
    if tag != "REF":
        if tag == "CON":
            name_cell = cell
            arity = 0
        elif tag == "INT" or tag == "FLT":
            name_cell = cell
            arity = 0
        elif tag == "LIS":
            name_cell = ("CON", m.dictionary.intern(".", 0))
            arity = 2
        else:
            fid = m.heap[cell[1]][1]
            name, arity = m.dictionary.functor(fid)
            name_cell = ("CON", m.dictionary.intern(name, 0))
        return (m.unify(args[1], name_cell)
                and m.unify(args[2], ("INT", arity)))
    # Construction mode.
    name = m.deref_cell(args[1])
    arity = m.deref_cell(args[2])
    if name[0] == "REF" or arity[0] == "REF":
        raise InstantiationError("functor/3")
    if arity[0] != "INT":
        raise TypeError_("integer", m.extract(arity))
    n = arity[1]
    if n == 0:
        return m.unify(args[0], name)
    if name[0] != "CON":
        raise TypeError_("atom", m.extract(name))
    fname = m.dictionary.name(name[1])
    if fname == "." and n == 2:
        a = len(m.heap)
        m.heap.append(("REF", a))
        m.heap.append(("REF", a + 1))
        return m.unify(args[0], ("LIS", a))
    fid = m.dictionary.intern(fname, n)
    a = len(m.heap)
    m.heap.append(("FUN", fid))
    for k in range(n):
        m.heap.append(("REF", a + 1 + k))
    return m.unify(args[0], ("STR", a))


@builtin("arg", 3)
def bi_arg(m, args):
    n = m.deref_cell(args[0])
    cell = m.deref_cell(args[1])
    if n[0] == "REF":
        raise InstantiationError("arg/3")
    if n[0] != "INT":
        raise TypeError_("integer", m.extract(n))
    idx = n[1]
    if cell[0] == "LIS":
        if idx == 1:
            return m.unify(args[2], m.heap[cell[1]])
        if idx == 2:
            return m.unify(args[2], m.heap[cell[1] + 1])
        return False
    if cell[0] != "STR":
        raise TypeError_("compound", m.extract(cell))
    a = cell[1]
    arity = m.dictionary.arity(m.heap[a][1])
    if not 1 <= idx <= arity:
        return False
    return m.unify(args[2], m.heap[a + idx])


@builtin("=..", 2)
def bi_univ(m, args):
    cell = m.deref_cell(args[0])
    tag = cell[0]
    if tag != "REF":
        if tag in ("CON", "INT", "FLT"):
            items = [cell]
        else:
            name, arity, sub = _compound_parts(m, cell)
            items = [("CON", m.dictionary.intern(name, 0))] + sub
        return m.unify(args[1], _list_to_cells(m, items))
    items = _cells_to_list(m, args[1])
    if not items:
        raise PrologError("=../2: empty list")
    head = m.deref_cell(items[0])
    rest = items[1:]
    if not rest:
        return m.unify(args[0], head)
    if head[0] != "CON":
        raise TypeError_("atom", m.extract(head))
    name = m.dictionary.name(head[1])
    if name == "." and len(rest) == 2:
        a = len(m.heap)
        m.heap.append(rest[0])
        m.heap.append(rest[1])
        return m.unify(args[0], ("LIS", a))
    fid = m.dictionary.intern(name, len(rest))
    a = len(m.heap)
    m.heap.append(("FUN", fid))
    for item in rest:
        m.heap.append(item)
    return m.unify(args[0], ("STR", a))


@builtin("copy_term", 2)
def bi_copy_term(m, args):
    term = m.extract(args[0])  # fresh Vars, sharing preserved via memo
    return m.unify(args[1], _build_term(m, term))


@builtin("acyclic_term", 1)
def bi_acyclic_term(m, args):
    """Cyclic-data detection (paper §1: Educe* provides "facilities to
    help ... in the detection of cyclic data").  WAM unification omits
    the occurs check, so rational trees can arise; this test finds
    them without looping."""
    on_path: set = set()
    done: set = set()

    def walk(cell) -> bool:
        stack = [("enter", cell)]
        while stack:
            action, cur = stack.pop()
            cur = m.deref_cell(cur)
            tag = cur[0]
            if tag not in ("STR", "LIS"):
                continue
            addr = cur[1]
            if action == "leave":
                on_path.discard(addr)
                done.add(addr)
                continue
            if addr in done:
                continue
            if addr in on_path:
                return False  # back edge: cycle
            on_path.add(addr)
            stack.append(("leave", cur))
            if tag == "LIS":
                stack.append(("enter", m.heap[addr]))
                stack.append(("enter", m.heap[addr + 1]))
            else:
                arity = m.dictionary.arity(m.heap[addr][1])
                for k in range(1, arity + 1):
                    stack.append(("enter", m.heap[addr + k]))
        return True

    return walk(args[0])


@builtin("cyclic_term", 1)
def bi_cyclic_term(m, args):
    return not bi_acyclic_term(m, args)


@builtin("unify_with_occurs_check", 2)
def bi_unify_occurs(m, args):
    """Sound unification: fails where plain unification would create a
    cyclic term."""
    mark = len(m.trail)
    if not m.unify(args[0], args[1]):
        _undo(m, mark)
        return False
    if bi_acyclic_term(m, [args[0]]):
        return True
    _undo(m, mark)
    return False


# ====================================================================
# atoms & strings
# ====================================================================

def _atom_name(m, cell) -> str:
    cell = m.deref_cell(cell)
    if cell[0] == "CON":
        return m.dictionary.name(cell[1])
    if cell[0] == "INT" or cell[0] == "FLT":
        return term_to_text(cell[1])
    raise TypeError_("atom", m.extract(cell))


@builtin("atom_codes", 2)
def bi_atom_codes(m, args):
    cell = m.deref_cell(args[0])
    if cell[0] != "REF":
        text = _atom_name(m, cell)
        codes = [("INT", ord(c)) for c in text]
        return m.unify(args[1], _list_to_cells(m, codes))
    items = _cells_to_list(m, args[1])
    chars = []
    for item in items:
        c = m.deref_cell(item)
        if c[0] != "INT":
            raise TypeError_("character_code", m.extract(c))
        chars.append(chr(c[1]))
    name = "".join(chars)
    return m.unify(args[0], ("CON", m.dictionary.intern(name, 0)))


@builtin("atom_chars", 2)
def bi_atom_chars(m, args):
    cell = m.deref_cell(args[0])
    if cell[0] != "REF":
        text = _atom_name(m, cell)
        chars = [("CON", m.dictionary.intern(c, 0)) for c in text]
        return m.unify(args[1], _list_to_cells(m, chars))
    items = _cells_to_list(m, args[1])
    chars = []
    for item in items:
        c = m.deref_cell(item)
        if c[0] != "CON":
            raise TypeError_("character", m.extract(c))
        chars.append(m.dictionary.name(c[1]))
    return m.unify(args[0], ("CON", m.dictionary.intern("".join(chars), 0)))


@builtin("char_code", 2)
def bi_char_code(m, args):
    a = m.deref_cell(args[0])
    if a[0] == "CON":
        name = m.dictionary.name(a[1])
        if len(name) != 1:
            raise TypeError_("character", name)
        return m.unify(args[1], ("INT", ord(name)))
    b = m.deref_cell(args[1])
    if b[0] != "INT":
        raise InstantiationError("char_code/2")
    return m.unify(args[0], ("CON", m.dictionary.intern(chr(b[1]), 0)))


@builtin("atom_length", 2)
def bi_atom_length(m, args):
    return m.unify(args[1], ("INT", len(_atom_name(m, args[0]))))


@builtin("atom_concat", 3)
def bi_atom_concat(m, args):
    a = m.deref_cell(args[0])
    b = m.deref_cell(args[1])
    if a[0] != "REF" and b[0] != "REF":
        joined = _atom_name(m, a) + _atom_name(m, b)
        return m.unify(args[2], ("CON", m.dictionary.intern(joined, 0)))
    whole = _atom_name(m, args[2])

    def splits():
        for i in range(len(whole) + 1):
            mark = len(m.trail)
            left = ("CON", m.dictionary.intern(whole[:i], 0))
            right = ("CON", m.dictionary.intern(whole[i:], 0))
            if m.unify(args[0], left) and m.unify(args[1], right):
                yield True
                _undo(m, mark)
            else:
                _undo(m, mark)
    return splits()


@builtin("number_codes", 2)
def bi_number_codes(m, args):
    cell = m.deref_cell(args[0])
    if cell[0] in ("INT", "FLT"):
        text = term_to_text(cell[1])
        return m.unify(
            args[1], _list_to_cells(m, [("INT", ord(c)) for c in text]))
    items = _cells_to_list(m, args[1])
    text = "".join(chr(m.deref_cell(i)[1]) for i in items)
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise PrologError(f"number_codes/2: bad number {text!r}")
    return m.unify(args[0], num_cell(value))


@builtin("atom_number", 2)
def bi_atom_number(m, args):
    cell = m.deref_cell(args[0])
    if cell[0] == "CON":
        text = m.dictionary.name(cell[1])
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                return False
        return m.unify(args[1], num_cell(value))
    num = m.deref_cell(args[1])
    if num[0] not in ("INT", "FLT"):
        raise InstantiationError("atom_number/2")
    name = term_to_text(num[1])
    return m.unify(args[0], ("CON", m.dictionary.intern(name, 0)))


@builtin("term_to_atom", 2)
def bi_term_to_atom(m, args):
    cell = m.deref_cell(args[0])
    if cell[0] != "REF":
        text = term_to_text(m.extract(cell))
        return m.unify(args[1], ("CON", m.dictionary.intern(text, 0)))
    text = _atom_name(m, args[1])
    term = m.reader.read_term(text)
    return m.unify(args[0], _build_term(m, term))


# ====================================================================
# lists
# ====================================================================

@builtin("length", 2)
def bi_length(m, args):
    cell = m.deref_cell(args[0])
    n_cell = m.deref_cell(args[1])
    # Walk as far as the list is bound.
    count = 0
    cursor = cell
    while cursor[0] == "LIS":
        count += 1
        cursor = m.deref_cell(m.heap[cursor[1] + 1])
    if cursor[0] == "CON" and cursor[1] == m._nil_id:
        return m.unify(args[1], ("INT", count))
    if cursor[0] != "REF":
        raise TypeError_("list", m.extract(cell))
    if n_cell[0] == "INT":
        want = n_cell[1] - count
        if want < 0:
            return False
        items = []
        for _ in range(want):
            a = len(m.heap)
            m.heap.append(("REF", a))
            items.append(("REF", a))
        return m.unify(cursor, _list_to_cells(m, items))

    def lengths():
        k = 0
        while True:
            mark = len(m.trail)
            items = []
            for _ in range(k):
                a = len(m.heap)
                m.heap.append(("REF", a))
                items.append(("REF", a))
            ok = (m.unify(cursor, _list_to_cells(m, items))
                  and m.unify(args[1], ("INT", count + k)))
            if ok:
                yield True
            _undo(m, mark)
            k += 1
            if k > 10_000:  # safety net against runaway enumeration
                return
    return lengths()


@builtin("between", 3)
def bi_between(m, args):
    low = m.deref_cell(args[0])
    high = m.deref_cell(args[1])
    x = m.deref_cell(args[2])
    if low[0] != "INT" or high[0] != "INT":
        raise InstantiationError("between/3")
    if x[0] == "INT":
        return low[1] <= x[1] <= high[1]

    def values():
        for v in range(low[1], high[1] + 1):
            mark = len(m.trail)
            if m.unify(args[2], ("INT", v)):
                yield True
            _undo(m, mark)
    return values()


@builtin("msort", 2)
def bi_msort(m, args):
    items = [m.extract(c) for c in _cells_to_list(m, args[0])]
    items.sort(key=_StandardOrderKey)
    cells = [_build_term(m, t) for t in items]
    return m.unify(args[1], _list_to_cells(m, cells))


@builtin("sort", 2)
def bi_sort(m, args):
    items = [m.extract(c) for c in _cells_to_list(m, args[0])]
    items.sort(key=_StandardOrderKey)
    unique = []
    for t in items:
        if not unique or compare_terms(unique[-1], t) != 0:
            unique.append(t)
    cells = [_build_term(m, t) for t in unique]
    return m.unify(args[1], _list_to_cells(m, cells))


@builtin("keysort", 2)
def bi_keysort(m, args):
    items = [m.extract(c) for c in _cells_to_list(m, args[0])]
    for t in items:
        if not (isinstance(t, Struct) and t.indicator == ("-", 2)):
            raise TypeError_("pair", t)
    items.sort(key=lambda p: _StandardOrderKey(p.args[0]))
    cells = [_build_term(m, t) for t in items]
    return m.unify(args[1], _list_to_cells(m, cells))


class _StandardOrderKey:
    """functools.cmp_to_key equivalent over compare_terms."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term

    def __lt__(self, other):
        return compare_terms(self.term, other.term) < 0

    def __eq__(self, other):
        return compare_terms(self.term, other.term) == 0


# ====================================================================
# all-solutions predicates
# ====================================================================

def _strip_carets(m, goal_cell):
    """Remove ``Var^Goal`` wrappers (simplified bagof/setof)."""
    cell = m.deref_cell(goal_cell)
    while cell[0] == "STR":
        a = cell[1]
        fid = m.heap[a][1]
        if m.dictionary.functor(fid) != ("^", 2):
            break
        cell = m.deref_cell(m.heap[a + 2])
    return cell


@builtin("findall", 3)
def bi_findall(m, args):
    template, goal, out = args
    solutions: List[Term] = []
    for _ in m._solve_cell(goal):
        solutions.append(m.extract(template))
    cells = [_build_term(m, t) for t in solutions]
    return m.unify(out, _list_to_cells(m, cells))


@builtin("forall", 2)
def bi_forall(m, args):
    cond, action = args
    for _ in m._solve_cell(cond):
        ok = False
        for _ in m._solve_cell(action):
            ok = True
            break
        if not ok:
            return False
    return True


@builtin("aggregate_all", 3)
def bi_aggregate_all(m, args):
    spec = m.deref_cell(args[0])
    if spec[0] == "CON" and m.dictionary.name(spec[1]) == "count":
        count = sum(1 for _ in m._solve_cell(args[1]))
        return m.unify(args[2], ("INT", count))
    if spec[0] == "STR":
        a = spec[1]
        name, arity = m.dictionary.functor(m.heap[a][1])
        if arity == 1 and name in ("count", "sum", "max", "min", "bag"):
            template = m.heap[a + 1]
            values = []
            for _ in m._solve_cell(args[1]):
                values.append(m.extract(template))
            if name == "count":
                return m.unify(args[2], ("INT", len(values)))
            if name == "bag":
                cells = [_build_term(m, t) for t in values]
                return m.unify(args[2], _list_to_cells(m, cells))
            numbers = [v for v in values if isinstance(v, (int, float))]
            if len(numbers) != len(values):
                raise TypeError_("number", "aggregate_all template")
            if not numbers and name != "sum":
                return False
            if name == "sum":
                return m.unify(args[2], num_cell(sum(numbers)))
            if name == "max":
                return m.unify(args[2], num_cell(max(numbers)))
            return m.unify(args[2], num_cell(min(numbers)))
    raise TypeError_("aggregate_spec", m.extract(spec))


@builtin("bagof", 3)
def bi_bagof(m, args):
    goal = _strip_carets(m, args[1])
    solutions: List[Term] = []
    for _ in m._solve_cell(goal):
        solutions.append(m.extract(args[0]))
    if not solutions:
        return False
    cells = [_build_term(m, t) for t in solutions]
    return m.unify(args[2], _list_to_cells(m, cells))


@builtin("setof", 3)
def bi_setof(m, args):
    goal = _strip_carets(m, args[1])
    solutions: List[Term] = []
    for _ in m._solve_cell(goal):
        solutions.append(m.extract(args[0]))
    if not solutions:
        return False
    solutions.sort(key=_StandardOrderKey)
    unique = []
    for t in solutions:
        if not unique or compare_terms(unique[-1], t) != 0:
            unique.append(t)
    cells = [_build_term(m, t) for t in unique]
    return m.unify(args[2], _list_to_cells(m, cells))


# ====================================================================
# call/N
# ====================================================================

def _make_call(extra: int):
    def bi_call_n(m, args):
        goal = m.deref_cell(args[0])
        if extra:
            goal = _extend_goal(m, goal, args[1:1 + extra])
        # Continuation = the instruction following the escape.
        m.cp_code, m.cp_pc = m.code, m.pc
        status = m._metacall(goal)
        if status == "fail":
            return False
        return "dispatched"
    return bi_call_n


def _extend_goal(m, goal, extra_cells):
    if goal[0] == "CON":
        name = m.dictionary.name(goal[1])
        base_args: List = []
    elif goal[0] == "STR":
        a = goal[1]
        fid = m.heap[a][1]
        name, arity = m.dictionary.functor(fid)
        base_args = [m.heap[a + k] for k in range(1, arity + 1)]
    else:
        raise TypeError_("callable", m.extract(goal))
    all_args = base_args + list(extra_cells)
    fid = m.dictionary.intern(name, len(all_args))
    a = len(m.heap)
    m.heap.append(("FUN", fid))
    for c in all_args:
        m.heap.append(c)
    return ("STR", a)


for _n in range(1, 8):
    builtin("call", _n)(_make_call(_n - 1))


@builtin("ignore", 1)
def bi_ignore(m, args):
    m.solve_goal_once(args[0])
    return True


@builtin("once", 1)
def bi_once(m, args):
    return m.solve_goal_once(args[0])


# ====================================================================
# dynamic clauses
# ====================================================================

def _clause_indicator(m, clause: Term) -> Tuple[str, int]:
    head, _ = split_clause(clause)
    if isinstance(head, Struct):
        return (head.name, head.arity)
    return (head.name, 0)


def _dynamic_proc(m, name: str, arity: int, create: bool = True):
    proc = m.procedure(name, arity)
    if proc is None and m.unknown_handler is not None:
        proc = m.unknown_handler(m, name, arity)
    if proc is None:
        if not create:
            return None
        return m.define_procedure(name, arity, [], kind="dynamic")
    if proc.kind == "external":     # a main-memory copy would hide it
        raise PermissionError_(
            f"modify stored procedure {name}/{arity} "
            "(use assert_external / retract_clause)")
    if proc.kind == "static":
        raise PermissionError_(
            f"modify static procedure {name}/{arity}")
    return proc


def _do_assert(m, args, front: bool) -> bool:
    clause = m.extract(args[0])
    name, arity = _clause_indicator(m, clause)
    proc = _dynamic_proc(m, name, arity)
    if front:
        # Keep the per-clause code cache aligned: compile the new clause
        # now so the cached suffix invariant holds (incremental, §3.1).
        proc.clauses.insert(0, clause)
        proc.compiled.insert(0, m.compiler.compile_clause(clause))
        m.compile_count += 1
    else:
        proc.clauses.append(clause)
    proc.dirty = True
    return True


builtin("assert", 1)(lambda m, a: _do_assert(m, a, front=False))
builtin("assertz", 1)(lambda m, a: _do_assert(m, a, front=False))
builtin("asserta", 1)(lambda m, a: _do_assert(m, a, front=True))


@builtin("retract", 1)
def bi_retract(m, args):
    pattern = m.deref_cell(args[0])
    # Normalise the pattern into head/body cells (fact == body `true`).
    colon = m.dictionary.lookup(":-", 2)
    if (pattern[0] == "STR"
            and m.heap[pattern[1]][1] == colon):
        head_cell = m.heap[pattern[1] + 1]
        body_cell = m.heap[pattern[1] + 2]
    else:
        head_cell = pattern
        body_cell = ("CON", m.dictionary.intern("true", 0))
    surface_head = m.extract(head_cell)
    if isinstance(surface_head, Struct):
        name, arity = surface_head.name, surface_head.arity
    elif isinstance(surface_head, Atom):
        name, arity = surface_head.name, 0
    else:
        raise InstantiationError("retract/1")
    proc = _dynamic_proc(m, name, arity, create=False)
    if proc is None:
        return False
    for i, stored in enumerate(proc.clauses):
        mark = len(m.trail)
        built = _build_term(m, _normal_clause(stored))
        a = built[1]
        if (m.unify(head_cell, m.heap[a + 1])
                and m.unify(body_cell, m.heap[a + 2])):
            del proc.clauses[i]
            if i < len(proc.compiled):
                del proc.compiled[i]
            proc.dirty = True
            return True
        _undo(m, mark)
    return False


def _normal_clause(clause: Term) -> Term:
    """*clause* as ``Head :- Body`` with its body as written; a fact's
    body is ``true``."""
    if isinstance(clause, Struct) and clause.indicator == (":-", 2):
        return clause
    return Struct(":-", (clause, Atom("true")))


@builtin("retractall", 1)
def bi_retractall(m, args):
    head_cell = m.deref_cell(args[0])
    head = m.extract(head_cell)
    if isinstance(head, Struct):
        name, arity = head.name, head.arity
    elif isinstance(head, Atom):
        name, arity = head.name, 0
    else:
        raise TypeError_("callable", head)
    proc = _dynamic_proc(m, name, arity)
    kept = []
    for stored in proc.clauses:
        mark = len(m.trail)
        shead, _ = split_clause(stored)
        if not m.unify(_build_term(m, shead), _build_term(m, head)):
            kept.append(stored)
        _undo(m, mark)
    proc.clauses = kept
    proc.compiled = []  # cache no longer aligned: full (lazy) recompile
    proc.dirty = True
    return True


@builtin("abolish", 1)
def bi_abolish(m, args):
    spec = m.extract(args[0])
    if not (isinstance(spec, Struct) and spec.indicator == ("/", 2)):
        raise TypeError_("predicate_indicator", spec)
    name = spec.args[0]
    arity = spec.args[1]
    if not isinstance(name, Atom) or not isinstance(arity, int):
        raise TypeError_("predicate_indicator", spec)
    pid = m.dictionary.lookup(name.name, arity)
    if pid is not None:
        m.procedures.pop(pid, None)
    return True


@builtin("clause", 2)
def bi_clause(m, args):
    head_cell = m.deref_cell(args[0])
    head = m.extract(head_cell)
    if isinstance(head, Struct):
        name, arity = head.name, head.arity
    elif isinstance(head, Atom):
        name, arity = head.name, 0
    else:
        raise InstantiationError("clause/2")
    proc = m.procedure(name, arity)
    if proc is None or not proc.clauses:
        return False
    snapshot = list(proc.clauses)

    def matches():
        for stored in snapshot:
            mark = len(m.trail)
            normal = _normal_clause(stored)
            built = _build_term(m, normal)
            a = m.deref_cell(built)[1]
            shead = m.heap[a + 1]
            sbody = m.heap[a + 2]
            if m.unify(args[0], shead) and m.unify(args[1], sbody):
                yield True
            _undo(m, mark)
    return matches()


@builtin("dynamic", 1)
def bi_dynamic(m, args):
    for name, arity in indicator_list(m.extract(args[0])):
        m.declare_dynamic(name, arity)
    return True


# ====================================================================
# output & misc
# ====================================================================

@builtin("write", 1)
def bi_write(m, args):
    m.output.append(term_to_text(m.extract(args[0]), quoted=False))
    return True


@builtin("print", 1)
def bi_print(m, args):
    return bi_write(m, args)


@builtin("writeq", 1)
def bi_writeq(m, args):
    m.output.append(term_to_text(m.extract(args[0]), quoted=True))
    return True


@builtin("write_canonical", 1)
def bi_write_canonical(m, args):
    return bi_writeq(m, args)


@builtin("writeln", 1)
def bi_writeln(m, args):
    bi_write(m, args)
    m.output.append("\n")
    return True


@builtin("nl", 0)
def bi_nl(m, args):
    m.output.append("\n")
    return True


@builtin("tab", 1)
def bi_tab(m, args):
    n = eval_arith(m, args[0])
    m.output.append(" " * int(n))
    return True


@builtin("statistics", 2)
def bi_statistics(m, args):
    key_cell = m.deref_cell(args[0])
    if key_cell[0] != "CON":
        raise InstantiationError("statistics/2")
    key = m.dictionary.name(key_cell[1])
    counters = m.counters()
    if key == "inferences":
        return m.unify(args[1], ("INT", counters["calls"]))
    if key == "instructions":
        return m.unify(args[1], ("INT", counters["instr_count"]))
    if key in ("runtime", "cputime"):
        value = counters["instr_count"]
        pair = _list_to_cells(m, [("INT", value), ("INT", value)])
        return m.unify(args[1], pair)
    raise TypeError_("statistics_key", key)


@builtin("listing", 1)
def bi_listing(m, args):
    """Write a procedure's clauses (dynamic) or its disassembly (static)
    to the output stream."""
    spec = m.extract(args[0])
    if isinstance(spec, Struct) and spec.indicator == ("/", 2):
        name, arity = spec.args[0].name, spec.args[1]
    elif isinstance(spec, Atom):
        name, arity = spec.name, None
    else:
        raise TypeError_("predicate_indicator", spec)
    from ..lang.writer import format_clause
    shown = False
    for proc in list(m.procedures.values()):
        if proc.name != name or (arity is not None
                                 and proc.arity != arity):
            continue
        shown = True
        if proc.clauses:
            for clause in proc.clauses:
                m.output.append(format_clause(clause) + "\n")
        elif proc.code is not None:
            from .debugger import disassemble
            m.output.append(disassemble(m, proc.name, proc.arity) + "\n")
    return shown


@builtin("halt", 0)
def bi_halt(m, args):
    raise PrologError("halt/0 executed")


@builtin("true", 0)
def bi_true(m, args):
    return True


@builtin("fail", 0)
def bi_fail(m, args):
    return False


@builtin("false", 0)
def bi_false(m, args):
    return False
