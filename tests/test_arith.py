"""Arithmetic compiled with its clause: the ``arith`` instruction.

* a differential table: every evaluable function and constant, under
  ``is/2`` and each of the six comparisons, answers alike — the same
  values or the same error type — on every path an arithmetic goal can
  take: a consulted clause (``arith``), a stored clause (codec + gate),
  a goal built at run time and passed to ``call/1``, the ``escape``
  built-in itself and the resolution interpreter;
* every error is a Prolog error (ISO ``type_error``/``evaluation_error``),
  never a Python one;
* the gate refuses a crafted instruction.
"""

import pytest

from repro import EduceStar, term_to_text
from repro.analysis.verifier import check_code
from repro.edb import loader as loader_module
from repro.engine.interpreter import Interpreter
from repro.errors import (
    EvaluationError,
    InstantiationError,
    PrologError,
    TypeError_,
    VerifyError,
)
from repro.lang.reader import read_term
from repro.terms import Atom, Struct, Var, term_variables
from repro.wam import instructions as I
from repro.wam.arith import _ARITH_CONSTANTS, _ARITH_FUNCTIONS, GOALS
from repro.wam.machine import Machine

#: operand samples by arity: ints, floats, mixed, a zero divisor
SAMPLES = {
    0: [("1", "2")],
    1: [("4", "0"), ("2.5", "0"), ("-2.5", "0"), ("0", "0")],
    2: [("7", "2"), ("7.5", "2.0"), ("-7", "2.0"), ("1", "0"),
        ("4", "2")],
}


def _quoted(name):
    return "'" + name.replace("\\", "\\\\") + "'"


def _expression(name, arity):
    if arity == 0:
        return name
    return f"{_quoted(name)}({', '.join('AB'[:arity])})"


def _cases():
    """``(clause head name, clause, query)`` per (function, sample,
    goal) — the operands reach the goal in registers — then the cases
    the compiler cannot see; and how many come from the table."""
    out = []
    table = [(name, arity) for name, arity in _ARITH_FUNCTIONS] + \
        [(name, 0) for name in _ARITH_CONSTANTS]
    for name, arity in table:
        expr = _expression(name, arity)
        for a, b in SAMPLES[arity]:
            for goal in GOALS:
                head = f"c{len(out)}"
                if goal == "is":
                    body = f"R is {expr}"
                else:
                    body = f"{expr} {goal} A, R = yes"
                out.append((head, f"{head}(A, B, R) :- {body}.",
                            f"{head}({a}, {b}, R)"))
    table = len(out)
    # operands the compiler cannot see: bound at run time to a compound,
    # unbound, a non-evaluable atom, a number on the left of is/2
    for body, a, b in [
            ("E = A + 1, R is E * 2", "3", "0"),
            ("E = A + B, R is E * E", "3", "0.5"),
            ("E = A + 1, E > B, R = yes", "3", "1"),
            ("R is A + B", "1", "_"),
            ("R is A + C", "1", "2"),
            ("A < B, R = yes", "_", "2"),
            ("R is foo + A", "1", "2"),
            ("R is A + B", "foo", "2"),
            ("R is A + B", "f(1)", "2"),
            ("3 is A * B, R = yes", "1.5", "2"),
            ("6 is A * B, R = yes", "3", "2"),
            ("6.0 is A * B, R = yes", "3", "2.0"),
            ("A is B, R = yes", "1", "1.0"),
            ("A =:= B, R = yes", "1", "1.0"),
            ("R is A / B", "4", "2"),
            ("R is A / B", "3", "2"),
            ("R = B, R is A", "2", "_"),
            ("X is A + 1, Y is X * X, R is Y - B", "2", "1"),
    ]:
        head = f"c{len(out)}"
        out.append((head, f"{head}(A, B, R) :- {body}.",
                    f"{head}({a}, {b}, R)"))
    return out, table


CASES, TABLE_CASES = _cases()
PROGRAM = "\n".join(clause for _, clause, _ in CASES)


def _outcome(solve):
    """``('ok', [R...])`` or ``('error', class)``; an error that is not
    a Prolog error fails the test outright."""
    try:
        return ("ok", [term_to_text(r) for r in solve()])
    except PrologError as exc:
        return ("error", type(exc).__name__)


def _answers(engine, query):
    for sol in engine.solve(query):
        bindings = getattr(sol, "bindings", sol)
        yield bindings["R"]


def _escape(machine, clause, query):
    """The goal run by its ``escape`` built-in on heap cells — the path
    a goal the compiler cannot compile takes — when the clause body is
    one arithmetic goal over ``A``, ``B`` and ``R`` (then ``R = yes``);
    else None."""
    body = read_term(clause).args[1]
    goal = body.args[0] if body.name == "," else body
    if goal.name not in GOALS or not {
            v.name for v in term_variables(goal)} <= {"A", "B", "R"}:
        return None
    operands = dict(zip(("A", "B"), read_term(query).args))
    cells = [machine._build_cell(_substitute(a, operands), {})
             for a in goal.args]

    def run():
        if not machine.builtins[(goal.name, 2)](machine, cells):
            return []
        if goal is body:                # R is ...
            return [machine.extract(cells[0])]
        return [Atom("yes")]            # ..., R = yes
    return _outcome(run)


def _substitute(term, operands):
    """*term* with ``A``/``B`` replaced by the query's operands."""
    if isinstance(term, Var):
        value = operands.get(term.name)
        return term if value is None or isinstance(value, Var) else value
    if isinstance(term, Struct):
        return Struct(term.name, tuple(_substitute(a, operands)
                                       for a in term.args))
    return term


def _runtime(clause, query):
    """The clause body as a goal built at run time and ``call/1``ed."""
    body = clause.split(":-", 1)[1].rstrip(". ")
    binds = [f"{v} = {term_to_text(a)}"
             for v, a in zip("AB", read_term(query).args)
             if not isinstance(a, Var)]
    return ", ".join(binds + [f"G = ({body})", "call(G)"])


@pytest.fixture(scope="module")
def engines():
    consulted = Machine()
    consulted.consult(PROGRAM)
    stored = EduceStar()
    stored.store_program(PROGRAM)
    interpreter = Interpreter()
    interpreter.consult(PROGRAM)
    return consulted, stored, interpreter


def test_every_path_answers_alike(engines):
    consulted, stored, interpreter = engines
    called, escaped = Machine(), Machine()
    for head, clause, query in CASES:
        want = _outcome(lambda: _answers(consulted, query))
        paths = {
            "stored": _outcome(lambda: _answers(stored, query)),
            "interpreter": _outcome(lambda: _answers(interpreter, query)),
            "call/1": _outcome(lambda: _answers(
                called, _runtime(clause, query))),
            "escape": _escape(escaped, clause, query) or want,
        }
        for path, got in paths.items():
            assert got == want, (clause, query, path, got, want)


def test_the_table_compiles_to_the_instruction(engines):
    consulted = engines[0]
    for head, _, _ in CASES[:TABLE_CASES]:
        code = consulted.procedure(head, 3).code
        assert any(instr[0] == I.ARITH for instr in code), head
        assert not any(instr[0] == I.ESCAPE and instr[1] in GOALS
                       for instr in code), head


def test_stored_code_runs_the_instruction(engines):
    stored = engines[1]
    assert stored.solve_once("c0(7, 2, R)") is not None
    [(_, block)] = stored.loader.cached_blocks("c0", 3)
    assert any(instr[0] == I.ARITH for instr in block)
    assert stored.loader.verify_rejects == 0


# =====================================================================
# errors are Prolog errors
# =====================================================================

@pytest.mark.parametrize("expr,error,formal", [
    ("sqrt(-1)", EvaluationError, "undefined"),
    ("log(0)", EvaluationError, "undefined"),
    ("asin(2)", EvaluationError, "undefined"),
    ("(-8.0) ** 0.5", EvaluationError, "undefined"),
    ("1.0 >> 1", TypeError_, "type_error(integer, 1.0)"),
    ("1 /\\ 2.0", TypeError_, "type_error(integer, 2.0)"),
    ("gcd(4.0, 2)", TypeError_, "type_error(integer, 4.0)"),
    ("5.0 mod 2", TypeError_, "type_error(integer, 5.0)"),
    ("7.5 div 2", TypeError_, "type_error(integer, 7.5)"),
    ("0 ^ -1", EvaluationError, "zero_divisor"),
    ("1 div 0", EvaluationError, "zero_divisor"),
    ("10.0 ** 400", EvaluationError, "float_overflow"),
    ("truncate(inf)", EvaluationError, "float_overflow"),
    ("truncate(nan)", EvaluationError, "undefined"),
    ("1 << -1", EvaluationError, "undefined"),
])
def test_evaluation_errors_are_prolog_errors(expr, error, formal):
    machine, interpreter = Machine(), Interpreter()
    machine.consult(f"t(R) :- R is {expr}.")
    interpreter.consult(f"t(R) :- R is {expr}.")
    for engine, goal in [(machine, "t(R)"), (machine, f"X is {expr}"),
                         (interpreter, "t(R)")]:
        with pytest.raises(error) as excinfo:
            engine.solve_once(goal)
        assert str(excinfo.value) == formal


@pytest.mark.parametrize("value,rounded", [
    ("0.5", 1), ("1.5", 2), ("2.5", 3), ("-2.5", -2), ("7", 7)])
def test_integer_rounds_halves_like_round(machine, value, rounded):
    sol = machine.solve_once(f"I is integer({value}), R is round({value})")
    assert (sol["I"], sol["R"]) == (rounded, rounded)


def test_errors_unchanged_through_the_instruction(machine):
    machine.consult("add(A, B, R) :- R is A + B. "
                    "lt(A, B) :- A < B.")
    with pytest.raises(InstantiationError):
        machine.solve_once("add(1, _, R)")
    with pytest.raises(TypeError_):
        machine.solve_once("add(1, foo, R)")
    with pytest.raises(InstantiationError):
        machine.solve_once("lt(_, 1)")
    assert machine.solve_once("E = 2 * 3, add(E, 1, R)")["R"] == 7


# =====================================================================
# the gate
# =====================================================================

def _rules(code, arity=1):
    return {f.rule for f in check_code(code, arity=arity)}


@pytest.mark.parametrize("instr", [
    (I.ARITH, "is", ("x", 0), ("fn", "frobnicate", ("int", 1))),
    (I.ARITH, "is", ("x", 0), ("fn", "+", ("int", 1))),  # +/1 exists
    (I.ARITH, "<", ("x", 0), ("fn", "+", ("int", 1), ["int", 2])),
    (I.ARITH, "<", ("x", 0), ("atom", 3)),
    (I.ARITH, "<", ("set", ("x", 0)), ("int", 1)),
    (I.ARITH, "is", ("x", 0), ("set", ("x", 1))),
    (I.ARITH, "is", ("x", 0), ("fn", 7, ("int", 1))),
    (I.ARITH, "is", ("x", 0), ("fn",)),
    (I.ARITH, "plus", ("x", 0), ("int", 1)),
    (I.ARITH, "is", ("x", 0)),
])
def test_gate_refuses_a_malformed_instruction(instr):
    rules = _rules([instr, (I.PROCEED,)])
    if instr[3:] == (("fn", "+", ("int", 1)),):
        assert rules == set()      # well-formed: unary plus
    else:
        assert rules == {"V101"}


def test_gate_reads_and_writes_the_trees():
    x_read = [(I.ARITH, "<", ("x", 4), ("int", 1)), (I.PROCEED,)]
    assert _rules(x_read) == {"A201"}
    y_no_env = [(I.ARITH, "<", ("x", 0), ("fn", "-", ("y", 0))),
                (I.PROCEED,)]
    assert _rules(y_no_env) == {"A203"}
    y_unset = [(I.ALLOCATE, 1),
               (I.ARITH, "<", ("x", 0), ("fn", "-", ("y", 0))),
               (I.DEALLOCATE,), (I.PROCEED,)]
    assert _rules(y_unset) == {"A202"}
    # a first-occurrence target is a write: the later read is clean,
    # and the slot it names inside a tree counts as used (A205)
    written = [(I.ALLOCATE, 1),
               (I.ARITH, "is", ("set", ("y", 0)), ("fn", "+", ("x", 0),
                                                   ("int", 1))),
               (I.ARITH, ">", ("fn", "abs", ("y", 0)), ("int", 2)),
               (I.DEALLOCATE,), (I.PROCEED,)]
    assert _rules(written) == set()


def test_loader_refuses_a_crafted_stored_instruction(monkeypatch):
    session = EduceStar()
    session.store_program("inc(X, Y) :- Y is X + 1.")
    decode = loader_module.decode_code

    def crafted(*args):
        return [(I.ARITH, "is", ("x", 1), ("fn", "frob", ("x", 0)))
                if instr[0] == I.ARITH else instr
                for instr in decode(*args)]
    monkeypatch.setattr(loader_module, "decode_code", crafted)
    with pytest.raises(VerifyError) as excinfo:
        session.solve_once("inc(1, Y)")
    assert excinfo.value.rule == "V101"
    monkeypatch.setattr(loader_module, "decode_code", decode)
    assert session.solve_once("inc(1, Y)")["Y"] == 2


def test_explain_and_disassembly_render_the_instruction():
    from repro.wam.debugger import disassemble
    kb = EduceStar()
    kb.consult("hm(H, M, T) :- T is H * 60 + M.\n"
               "late(H, M) :- hm(H, M, T), X is T - 600, X > 0.")
    procedure = kb.explain("hm(1, 2, T)").root.find("procedure")
    assert procedure.attrs["arith_instrs"] == 1
    listing = disassemble(kb.machine, "hm", 3)
    assert "arith is, X5, +(*(X3, 60), X4)" in listing
    listing = disassemble(kb.machine, "late", 2)
    assert "arith is, new Y1, -(Y0, 600)" in listing
    assert "arith >, Y1, 0" in listing
