"""The one table of evaluable functions, read by :func:`eval_arith`
(a heap cell: the ``escape`` built-ins, an ``arith`` operand bound to a
compound), :func:`closure` (an ``arith`` instruction) and the resolution
interpreter; its entries raise Prolog errors, never Python ones.

An ``arith`` tree is a register ``('x', n)``/``('y', n)``, a number
``('int', v)``/``('flt', v)`` or ``('fn', name, arg...)`` (an evaluable
function, or constant); ``is/2``'s target may be ``('set', reg)``, a
first occurrence, written.  No dictionary id: stored code relocates.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, List, Tuple

from ..errors import EvaluationError, InstantiationError, TypeError_


def _int_like(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def num_cell(value) -> tuple:
    """The heap cell of a number."""
    if value.__class__ is int:
        return ("INT", value)
    return ("FLT", float(value))


def _evaluable(fn: Callable, integers: bool = False) -> Callable:
    """*fn* raising ISO errors: ``type_error(integer, V)`` for a float
    (when *integers*), ``evaluation_error(...)`` for ZeroDivisionError,
    OverflowError, ValueError and a complex result (a negative root)."""
    def call(*args):
        for a in args if integers else ():
            if not _int_like(a):
                raise TypeError_("integer", a)
        try:
            result = fn(*args)
            if result.__class__ is complex:
                raise ValueError(result)
            return result
        except ZeroDivisionError:
            raise EvaluationError("zero_divisor") from None
        except OverflowError:
            raise EvaluationError("float_overflow") from None
        except ValueError:
            raise EvaluationError("undefined") from None
    return call


_ARITH_CONSTANTS = {
    "pi": math.pi,
    "e": math.e,
    "inf": math.inf,
    "infinite": math.inf,
    "nan": math.nan,
    "epsilon": 2.220446049250313e-16,
    "max_tagged_integer": (1 << 60) - 1,
    "random": 0.42,  # deterministic by design: see DESIGN.md
}


def _div(a, b):
    if b == 0:
        raise EvaluationError("zero_divisor")
    if _int_like(a) and _int_like(b):
        if a % b == 0:
            return a // b
        return a / b
    return a / b


def _intdiv(a, b):
    q = a // b
    # ISO (//)/2 truncates toward zero.
    if q < 0 and q * b != a:
        q += 1
    return q


def _power(a, b):
    if _int_like(a) and _int_like(b) and b >= 0:
        return a ** b
    return float(a) ** float(b)


def _round(a):                  # ISO: floor(a + 1/2)
    return a if _int_like(a) else int(math.floor(a + 0.5))


_ARITH_FUNCTIONS = {
    ("+", 2): lambda a, b: a + b,
    ("-", 2): lambda a, b: a - b,
    ("*", 2): lambda a, b: a * b,
    ("/", 2): _evaluable(_div),
    ("//", 2): _evaluable(_intdiv, integers=True),
    ("div", 2): _evaluable(operator.floordiv, integers=True),
    ("mod", 2): _evaluable(operator.mod, integers=True),
    ("rem", 2): _evaluable(lambda a, b: a - _intdiv(a, b) * b,
                           integers=True),
    ("+", 1): lambda a: a,
    ("-", 1): lambda a: -a,
    ("abs", 1): abs,
    ("sign", 1): lambda a: (a > 0) - (a < 0) if _int_like(a)
        else math.copysign(1.0, a) if a else 0.0,
    ("min", 2): min,
    ("max", 2): max,
    ("sqrt", 1): _evaluable(math.sqrt),
    ("sin", 1): _evaluable(math.sin),
    ("cos", 1): _evaluable(math.cos),
    ("tan", 1): _evaluable(math.tan),
    ("asin", 1): _evaluable(math.asin),
    ("acos", 1): _evaluable(math.acos),
    ("atan", 1): _evaluable(math.atan),
    ("atan2", 2): _evaluable(math.atan2),
    ("atan", 2): _evaluable(math.atan2),
    ("exp", 1): _evaluable(math.exp),
    ("log", 1): _evaluable(math.log),
    ("log", 2): _evaluable(lambda b, x: math.log(x) / math.log(b)),
    ("**", 2): _evaluable(lambda a, b: float(a) ** float(b)),
    ("^", 2): _evaluable(_power),
    ("float", 1): _evaluable(float),
    ("integer", 1): _evaluable(_round),
    ("truncate", 1): _evaluable(int),
    ("round", 1): _evaluable(_round),
    ("ceiling", 1): _evaluable(lambda a: int(math.ceil(a))),
    ("floor", 1): _evaluable(lambda a: int(math.floor(a))),
    ("float_integer_part", 1): _evaluable(lambda a: float(int(a))),
    ("float_fractional_part", 1): _evaluable(lambda a: a - float(int(a))),
    (">>", 2): _evaluable(operator.rshift, integers=True),
    ("<<", 2): _evaluable(operator.lshift, integers=True),
    ("/\\", 2): _evaluable(operator.and_, integers=True),
    ("\\/", 2): _evaluable(operator.or_, integers=True),
    ("xor", 2): _evaluable(operator.xor, integers=True),
    ("\\", 1): _evaluable(operator.invert, integers=True),
    ("gcd", 2): _evaluable(math.gcd, integers=True),
    ("succ", 1): lambda a: a + 1,
    ("plus", 2): lambda a, b: a + b,
}

#: the comparisons; with ``is/2``, the goals ``arith`` evaluates
COMPARISONS = {"=:=": operator.eq, "=\\=": operator.ne,
               "<": operator.lt, ">": operator.gt,
               "=<": operator.le, ">=": operator.ge}
GOALS = ("is",) + tuple(COMPARISONS)


def is_evaluable(name: str, arity: int) -> bool:
    """An evaluable function, or (arity 0) an evaluable constant."""
    return ((name, arity) in _ARITH_FUNCTIONS
            or (arity == 0 and name in _ARITH_CONSTANTS))


def eval_arith(m, cell):
    """Evaluate an arithmetic expression cell to a Python int/float."""
    cell = m.deref_cell(cell)
    tag = cell[0]
    if tag == "INT" or tag == "FLT":
        return cell[1]
    if tag == "REF":
        raise InstantiationError("arithmetic: unbound variable")
    if tag == "CON":
        name = m.dictionary.name(cell[1])
        const = _ARITH_CONSTANTS.get(name)
        if const is None:
            raise TypeError_("evaluable", f"{name}/0")
        return const
    if tag == "STR":
        a = cell[1]
        fid = m.heap[a][1]
        name, arity = m.dictionary.functor(fid)
        fn = _ARITH_FUNCTIONS.get((name, arity))
        if fn is None:
            raise TypeError_("evaluable", f"{name}/{arity}")
        args = [eval_arith(m, m.heap[a + k]) for k in range(1, arity + 1)]
        return fn(*args)
    raise TypeError_("evaluable", m.extract(cell))


# ====================================================================
# the arith instruction
# ====================================================================

def registers(instr: tuple) -> Tuple[List[tuple], List[tuple]]:
    """``(registers read, registers written)`` by an ``arith`` *instr*:
    a ``('set', reg)`` target is written, every other register in its
    trees read.  The block's register file and the verifier's dataflow
    and slot scan all read the trees through it."""
    lhs = instr[2]
    writes = [lhs[1]] if lhs[0] == "set" else []
    stack = [instr[3]] if writes else [instr[3], lhs]
    reads = []
    while stack:
        node = stack.pop()
        if node[0] == "x" or node[0] == "y":
            reads.append(node)
        elif node[0] == "fn":
            stack.extend(node[2:])
    return reads, writes


def _evaluator(node: tuple) -> Callable:
    """``fn(machine) -> number`` for one tree.  A register holding a
    number, or a variable bound to one, is read directly; anything else
    goes through :func:`eval_arith`, so the errors are the escape's."""
    kind = node[0]
    if kind == "x" or kind == "y":
        n = node[1]

        def read(m):
            cell = m.x[n] if kind == "x" else m.e.slots[n]
            if cell[0] == "REF":
                cell = m.deref_cell(cell)
            if cell[0] == "INT" or cell[0] == "FLT":
                return cell[1]
            return eval_arith(m, cell)
        return read
    if kind != "fn" or len(node) == 2:
        value = _ARITH_CONSTANTS[node[1]] if kind == "fn" else node[1]
        return lambda m: value
    fn = _ARITH_FUNCTIONS[(node[1], len(node) - 2)]
    args = [_evaluator(arg) for arg in node[2:]]
    a, b = args if len(args) == 2 else (args[0], None)
    return (lambda m: fn(a(m))) if b is None else (lambda m: fn(a(m), b(m)))


def closure(instr: tuple) -> Callable:
    """The ``arith`` *instr* as ``fn(machine) -> bool`` (False: the goal
    fails); it holds no machine, so a shared block stays shareable."""
    goal, lhs, rhs = instr[1], instr[2], instr[3]
    value = _evaluator(rhs)
    if goal != "is":
        left, test = _evaluator(lhs), COMPARISONS[goal]
        return lambda m: test(left(m), value(m))
    kind, n = lhs[1] if lhs[0] == "set" else lhs
    if lhs[0] == "set":
        def assign(m):
            (m.x if kind == "x" else m.e.slots)[n] = num_cell(value(m))
            return True
        return assign

    def unify(m):
        result = num_cell(value(m))
        if kind == "x" or kind == "y":
            cell = m.deref_cell(m.x[n] if kind == "x" else m.e.slots[n])
            if cell[0] == "REF":
                m.bind(cell[1], result)
                return True
        else:                           # a number: 3 is X * 1.5
            cell = num_cell(n)
        return cell[0] == result[0] and cell[1] == result[1]
    return unify
