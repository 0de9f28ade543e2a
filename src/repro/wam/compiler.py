"""Term-oriented clause compiler (paper §2.1, §3.1).

Compiles surface clauses into WAM instruction tuples: one ``get``/``put``/
``unify`` instruction per Prolog term, plus control instructions for
procedure calls, backtracking and cut.

Design decisions (documented deviations from the letter of Warren's
machine, none observable in behaviour):

* ``put_variable`` always allocates the fresh variable **on the heap**,
  including for permanent (Y) variables.  This removes the entire
  unsafe-variable problem: ``put_unsafe_value`` and ``unify_local_value``
  degenerate to their plain ``value`` forms.  Several production systems
  make the same trade (slightly more heap, no dangling stack refs).
* Control constructs — ``;/2``, ``->/2``, ``\\+/1`` — are compiled by
  extraction into auxiliary procedures with the construct's variables as
  arguments, the classic source-to-source scheme; so is a literal goal
  argument of ``findall/3``, ``forall/2``, ``once/1``, ... that is a
  control construct or built-in call.  An aux of ``p/2`` is named
  ``$aux_p/2_k``, an aux of that ``$aux_p/2_k_j``.
* Cut: any clause containing ``!`` gets an environment with a reserved
  permanent slot holding the choice-point level saved by ``get_level``;
  each ``!`` becomes ``cut Yk``.
* ``is/2`` and the six comparisons compile to one ``arith`` instruction
  over expression trees (:mod:`repro.wam.arith`) when every operand
  variable has occurred already and everything is evaluable; ``is/2``
  writes a first-occurrence target, no heap variable and no unify.  Any
  other arithmetic goal escapes to the built-in, which raises its error.

A variable is *permanent* when it occurs in more than one body chunk
(head + first body goal form one chunk); permanents live in Y slots, all
other variables get a unique X register above the argument registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dictionary import SegmentedDictionary
from ..errors import TypeError_
from ..lang.program import META_GOAL_ARGS
from ..terms import NIL, Atom, Struct, Term, Var, deref, indicator_of
from . import arith, assembler
from . import instructions as I

# Predicates implemented by machine escapes; the compiler routes goals with
# these indicators through the ESCAPE instruction.  (Populated by
# machine.builtins at import time via register_builtin_indicator.)
_BUILTIN_INDICATORS: set = set()


def register_builtin_indicator(name: str, arity: int) -> None:
    _BUILTIN_INDICATORS.add((name, arity))


def is_builtin_indicator(name: str, arity: int) -> bool:
    return (name, arity) in _BUILTIN_INDICATORS


#: the control constructs compiled inline: cut, and the goal-argument
#: constructs extracted into aux procedures (the rest of META_GOAL_ARGS
#: are built-ins that call their goal arguments)
INLINE_CONTROL = frozenset({("!", 0), (",", 2), (";", 2), ("->", 2),
                            ("\\+", 1), ("not", 1)})


@dataclass
class CompiledClause:
    """One compiled clause plus the metadata indexing needs."""

    code: List[tuple]
    head_name: str
    arity: int
    first_arg_kind: str          # 'var' | 'constant' | 'list' | 'structure' | 'nil'
    first_arg_key: Optional[tuple]  # ('atom', id) | ('int', v) | ('flt', v) | fid
    nvars: int = 0


class CompileContext:
    """Shared compilation state: the dictionary and an aux-procedure sink.

    ``define_procedure(name, arity, clauses)`` is called for every
    auxiliary predicate the compiler synthesises for control constructs;
    the machine registers and compiles them like user procedures.
    ``taken(name, arity)`` says a name is already in use where the aux
    will live (an EDB store), so :meth:`fresh_aux_name` skips it.
    """

    def __init__(
        self,
        dictionary: SegmentedDictionary,
        define_procedure: Optional[Callable[[str, int, list], None]] = None,
        taken: Optional[Callable[[str, int], bool]] = None,
    ):
        self.dictionary = dictionary
        self.define_procedure = define_procedure or (lambda n, a, c: None)
        self.taken = taken or (lambda n, a: False)
        self._aux_count: Dict[str, int] = {}

    def fresh_aux_name(self, prefix: str, arity: int) -> str:
        """``<prefix>_<k>``, *prefix* naming the owning procedure: an aux
        name never depends on what else this process compiled."""
        k = self._aux_count.get(prefix, 0) + 1
        while self.taken(f"{prefix}_{k}", arity):
            k += 1
        self._aux_count[prefix] = k
        return f"{prefix}_{k}"

    def intern(self, name: str, arity: int) -> int:
        return self.dictionary.intern(name, arity)


def is_aux_name(name: str) -> bool:
    """A name :meth:`CompileContext.fresh_aux_name` made up: an owner's
    ``$aux_<name>/<arity>_<k>``, the metacall's ``$call_<k>``, and the
    auxes of either, which extend the name."""
    return name.startswith(("$aux_", "$call_"))


def split_clause(clause: Term) -> Tuple[Term, List[Term]]:
    """Split ``Head :- Body`` into (head, [goal...]); facts get []."""
    clause = deref(clause)
    if isinstance(clause, Struct) and clause.indicator == (":-", 2):
        head = deref(clause.args[0])
        body = _flatten_conj(clause.args[1])
    else:
        head = clause
        body = []
    if not isinstance(head, (Atom, Struct)):
        raise TypeError_("callable head", head)
    return head, body


def _flatten_conj(goal: Term) -> List[Term]:
    goal = deref(goal)
    if isinstance(goal, Struct) and goal.indicator == (",", 2):
        return _flatten_conj(goal.args[0]) + _flatten_conj(goal.args[1])
    if goal is Atom("true"):
        return []
    return [goal]


def _goal_vars(term: Term, acc: Optional[dict] = None) -> dict:
    """Ordered {id(var): var} of variables in *term*."""
    if acc is None:
        acc = {}
    term = deref(term)
    if isinstance(term, Var):
        acc.setdefault(id(term), term)
    elif isinstance(term, Struct):
        for a in term.args:
            _goal_vars(a, acc)
    return acc


class ClauseCompiler:
    """Compiles one clause at a time within a :class:`CompileContext`."""

    CUT_ATOM = Atom("!")

    def __init__(self, context: CompileContext):
        self.ctx = context

    # ------------------------------------------------------------- top level

    def compile_clause(self, clause: Term) -> CompiledClause:
        head, body = split_clause(clause)
        head_args: Sequence[Term] = head.args if isinstance(head, Struct) else ()
        arity = len(head_args)
        name = head.name
        # Aux names derive from the owning procedure; an aux's own auxes
        # extend its name.
        prefix = name if name.startswith("$") else f"$aux_{name}/{arity}"
        goals = [g for goal in body
                 for g in self._preprocess_goal(goal, prefix)]

        has_cut = any(deref(g) is self.CUT_ATOM for g in goals)
        perm_vars = self._permanent_vars(head_args, goals)

        # call/N transfers control from inside an escape by overwriting
        # the continuation register; the clause must have an environment
        # so deallocate restores the caller's continuation afterwards.
        has_transfer = any(
            isinstance(deref(g), Struct)
            and deref(g).name == "call"
            and is_builtin_indicator("call", deref(g).arity)
            for g in goals
        )

        # Environment needed for multi-goal bodies, permanents, or cut.
        needs_env = (len(goals) > 1 or bool(perm_vars) or has_cut
                     or has_transfer)

        state = _ClauseState(
            ctx=self.ctx,
            arity=arity,
            goals=goals,
            perm_index={vid: i for i, vid in enumerate(perm_vars)},
            cut_slot=len(perm_vars) if has_cut else None,
            temp_base=self._temp_base(arity, goals),
        )

        code: List[tuple] = []
        nperm = len(perm_vars) + (1 if has_cut else 0)
        if needs_env:
            code.append((I.ALLOCATE, nperm))
            if has_cut:
                code.append((I.GET_LEVEL, ("y", state.cut_slot)))

        # Head argument unification: one instruction per term (§2.1).
        for i, arg in enumerate(head_args):
            self._compile_head_arg(state, code, arg, i)

        # Body.
        if not goals:
            code.append((I.PROCEED,))
        else:
            for pos, goal in enumerate(goals):
                last = pos == len(goals) - 1
                self._compile_goal(state, code, goal, last, needs_env)

        first_kind, first_key = (self._arg_index_key(head_args[0])
                                 if head_args else ("var", None))
        compiled = CompiledClause(
            code=code,
            head_name=name,
            arity=arity,
            first_arg_kind=first_kind,
            first_arg_key=first_key,
            nvars=len(perm_vars) + len(state.temp_index),
        )
        if assembler.SELF_VERIFY:
            from ..analysis.verifier import verify_clause
            verify_clause(compiled, dictionary=self.ctx.dictionary,
                          procedure=f"{name}/{arity}")
        return compiled

    # ------------------------------------------------- control preprocessing

    def _preprocess_goal(self, goal: Term, prefix: str) -> List[Term]:
        goal = deref(goal)
        if isinstance(goal, Var):
            return [Struct("call", (goal,))]
        if isinstance(goal, Struct):
            ind = goal.indicator
            if ind == (",", 2):
                return (self._preprocess_goal(goal.args[0], prefix)
                        + self._preprocess_goal(goal.args[1], prefix))
            if ind == (";", 2):
                return [self._extract_disjunction(goal, prefix)]
            if ind == ("->", 2):
                # Bare if-then == (C -> T ; fail).
                return [self._extract_disjunction(
                    Struct(";", (goal, Atom("fail"))), prefix)]
            if ind in (("\\+", 1), ("not", 1)):
                return [self._extract_negation(goal.args[0], prefix)]
            meta = META_GOAL_ARGS.get(ind)
            if meta:
                return [Struct(goal.name, tuple(
                    self._meta_arg(arg, prefix) if i in meta else arg
                    for i, arg in enumerate(goal.args)))]
        return [goal]

    def _meta_arg(self, goal: Term, prefix: str) -> Term:
        """A goal argument of a built-in (``findall/3``, ``forall/2``,
        ``once/1``, ...): a literal control construct or built-in call,
        behind any ``V^`` prefix, is compiled with the clause (§3.1) into
        an aux procedure, so calling it never compiles at run time."""
        goal = deref(goal)
        if isinstance(goal, Struct) and goal.indicator == ("^", 2):
            return Struct("^", (goal.args[0],
                                self._meta_arg(goal.args[1], prefix)))
        ind = indicator_of(goal) if isinstance(goal, (Atom, Struct)) else None
        if ind not in INLINE_CONTROL and not (
                ind and is_builtin_indicator(*ind)):
            return goal
        name, args, head = self._new_aux(goal, prefix)
        self.ctx.define_procedure(name, len(args),
                                  [Struct(":-", (head, goal))])
        return head

    def _new_aux(self, construct: Term, prefix: str
                 ) -> Tuple[str, List[Var], Term]:
        """Name, parameters and head of an aux procedure for
        *construct*: the head carries the construct's variables."""
        args = list(_goal_vars(construct).values())
        name = self.ctx.fresh_aux_name(prefix, len(args))
        return name, args, self._make_goal(name, args)

    def _extract_disjunction(self, goal: Struct, prefix: str) -> Term:
        """(A ; B) [with -> arms] becomes a fresh auxiliary procedure."""
        name, args, head = self._new_aux(goal, prefix)
        clauses: List[Term] = []
        for branch in self._flatten_disj(goal):
            branch = deref(branch)
            if isinstance(branch, Struct) and branch.indicator == ("->", 2):
                cond, then = branch.args
                body = Struct(",", (cond, Struct(",", (Atom("!"), then))))
                clauses.append(Struct(":-", (head, body)))
            elif branch is Atom("fail"):
                continue
            else:
                clauses.append(Struct(":-", (head, branch)))
        if not clauses:  # e.g. (C -> T ; fail) with no else and fail arms
            clauses.append(Struct(":-", (head, Atom("fail"))))
        self.ctx.define_procedure(name, len(args), clauses)
        return head

    def _flatten_disj(self, goal: Term) -> List[Term]:
        goal = deref(goal)
        if isinstance(goal, Struct) and goal.indicator == (";", 2):
            left = deref(goal.args[0])
            # (C -> T ; E): the arrow binds to this disjunction only.
            if isinstance(left, Struct) and left.indicator == ("->", 2):
                return [left] + self._flatten_disj(goal.args[1])
            branches = self._flatten_disj(left)
            if any(isinstance(b, Struct) and b.indicator == ("->", 2)
                   for b in branches):
                # ((C -> T ; E) ; F): the arrow's cut must not reach F
                branches = [left]
            return branches + self._flatten_disj(goal.args[1])
        return [goal]

    def _extract_negation(self, inner: Term, prefix: str) -> Term:
        name, args, head = self._new_aux(inner, prefix)
        clauses = [
            Struct(":-", (head, Struct(",", (
                inner, Struct(",", (Atom("!"), Atom("fail"))))))),
            head if not args else Struct(
                name, tuple(Var() for _ in args)),
        ]
        self.ctx.define_procedure(name, len(args), clauses)
        return head

    @staticmethod
    def _make_goal(name: str, args: List[Var]) -> Term:
        if not args:
            return Atom(name)
        return Struct(name, tuple(args))

    # -------------------------------------------------------- var assignment

    def _permanent_vars(
        self, head_args: Sequence[Term], goals: List[Term]
    ) -> List[int]:
        """ids of variables occurring in >1 chunk (head+goal1 = chunk one)."""
        chunks: List[dict] = []
        first: dict = {}
        for arg in head_args:
            _goal_vars(arg, first)
        if goals:
            _goal_vars(goals[0], first)
        chunks.append(first)
        for goal in goals[1:]:
            chunks.append(_goal_vars(goal))
        counts: Dict[int, int] = {}
        order: List[int] = []
        for chunk in chunks:
            for vid in chunk:
                if vid not in counts:
                    counts[vid] = 0
                    order.append(vid)
                counts[vid] += 1
        return [vid for vid in order if counts[vid] > 1]

    @staticmethod
    def _temp_base(arity: int, goals: List[Term]) -> int:
        m = arity
        for goal in goals:
            goal = deref(goal)
            if isinstance(goal, Struct):
                m = max(m, goal.arity)
        return m

    # ----------------------------------------------------------- head codegen

    def _compile_head_arg(self, st: "_ClauseState", code: List[tuple],
                          arg: Term, position: int) -> None:
        arg = deref(arg)
        ai = ("x", position)
        if isinstance(arg, Var):
            reg, first = st.var_register(arg)
            code.append((I.GET_VARIABLE if first else I.GET_VALUE, reg, ai))
            return
        if isinstance(arg, Atom):
            if arg is NIL:
                code.append((I.GET_NIL, ai))
            else:
                code.append((I.GET_CONSTANT, st.const(arg), ai))
            return
        if isinstance(arg, (int, float)):
            code.append((I.GET_CONSTANT, st.const(arg), ai))
            return
        assert isinstance(arg, Struct)
        queue: List[Tuple[tuple, Struct]] = []
        self._head_structure(st, code, arg, ai, queue)
        while queue:
            reg, sub = queue.pop(0)
            self._head_structure(st, code, sub, reg, queue)

    def _head_structure(self, st: "_ClauseState", code: List[tuple],
                        term: Struct, reg: tuple,
                        queue: List[Tuple[tuple, Struct]]) -> None:
        if term.indicator == (".", 2):
            code.append((I.GET_LIST, reg))
        else:
            fid = st.functor(term)
            code.append((I.GET_STRUCTURE, fid, reg))
        for sub in term.args:
            sub = deref(sub)
            if isinstance(sub, Var):
                sreg, first = st.var_register(sub)
                code.append(
                    (I.UNIFY_VARIABLE if first else I.UNIFY_VALUE, sreg))
            elif isinstance(sub, Atom):
                if sub is NIL:
                    code.append((I.UNIFY_NIL,))
                else:
                    code.append((I.UNIFY_CONSTANT, st.const(sub)))
            elif isinstance(sub, (int, float)):
                code.append((I.UNIFY_CONSTANT, st.const(sub)))
            else:
                assert isinstance(sub, Struct)
                fresh = st.fresh_temp()
                code.append((I.UNIFY_VARIABLE, fresh))
                queue.append((fresh, sub))

    # ----------------------------------------------------------- body codegen

    def _compile_goal(self, st: "_ClauseState", code: List[tuple],
                      goal: Term, last: bool, has_env: bool) -> None:
        goal = deref(goal)

        if goal is self.CUT_ATOM:
            code.append((I.CUT, ("y", st.cut_slot)))
            if last:
                self._epilogue(code, has_env)
            return
        if goal is Atom("true"):
            if last:
                self._epilogue(code, has_env)
            return
        if goal is Atom("fail") or goal is Atom("false"):
            code.append((I.FAIL_OP,))
            return

        name, arity, args = self._goal_parts(goal)
        instr = (self._arith(st, name, args)
                 if arity == 2 and name in arith.GOALS else None)
        if instr is None:       # load argument registers
            for i, arg in enumerate(args):
                self._compile_put(st, code, arg, i)

        if instr or is_builtin_indicator(name, arity):
            code.append(instr or (I.ESCAPE, name, arity))
            if last:
                self._epilogue(code, has_env)
            return

        pid = self.ctx.intern(name, arity)
        if last:
            if has_env:
                code.append((I.DEALLOCATE,))
            code.append((I.EXECUTE, pid, arity))
        else:
            code.append((I.CALL, pid, arity))

    def _arith(self, st: "_ClauseState", name: str,
               args: Sequence[Term]) -> Optional[tuple]:
        """The ``arith`` instruction of an arithmetic goal, or None (it
        escapes): ``is/2``'s target must be a variable or a number."""
        rhs, lhs = self._expr(st, args[1]), deref(args[0])
        if rhs is None:
            return None
        if name != "is" or isinstance(lhs, (int, float)):
            lhs = self._expr(st, lhs)
        elif isinstance(lhs, Var):      # marks it seen: nothing fails after
            reg, first = st.var_register(lhs)
            lhs = ("set", reg) if first else reg
        else:
            return None
        return None if lhs is None else (I.ARITH, name, lhs, rhs)

    def _expr(self, st: "_ClauseState", term: Term) -> Optional[tuple]:
        """The expression tree of *term* (:mod:`repro.wam.arith`), or
        None when it holds a fresh variable or is not evaluable."""
        term = deref(term)
        if isinstance(term, Var):           # seen already, or None
            return (st.var_register(term)[0] if id(term) in st.temp_index
                    else None)
        if isinstance(term, (int, float)):
            return st.const(term)
        args = term.args if isinstance(term, Struct) else ()
        if not (isinstance(term, (Atom, Struct))
                and arith.is_evaluable(term.name, len(args))):
            return None
        trees = [self._expr(st, arg) for arg in args]
        return None if None in trees else ("fn", term.name, *trees)

    @staticmethod
    def _epilogue(code: List[tuple], has_env: bool) -> None:
        if has_env:
            code.append((I.DEALLOCATE,))
        code.append((I.PROCEED,))

    @staticmethod
    def _goal_parts(goal: Term) -> Tuple[str, int, Sequence[Term]]:
        if isinstance(goal, Atom):
            return goal.name, 0, ()
        if isinstance(goal, Struct):
            return goal.name, goal.arity, goal.args
        raise TypeError_("callable goal", goal)

    def _compile_put(self, st: "_ClauseState", code: List[tuple],
                     arg: Term, position: int) -> None:
        arg = deref(arg)
        ai = ("x", position)
        if isinstance(arg, Var):
            reg, first = st.var_register(arg)
            code.append((I.PUT_VARIABLE if first else I.PUT_VALUE, reg, ai))
            return
        if isinstance(arg, Atom):
            if arg is NIL:
                code.append((I.PUT_NIL, ai))
            else:
                code.append((I.PUT_CONSTANT, st.const(arg), ai))
            return
        if isinstance(arg, (int, float)):
            code.append((I.PUT_CONSTANT, st.const(arg), ai))
            return
        assert isinstance(arg, Struct)
        self._put_structure(st, code, arg, ai)

    def _put_structure(self, st: "_ClauseState", code: List[tuple],
                       term: Struct, target: tuple) -> None:
        """Bottom-up structure construction: children first."""
        child_regs: List[Optional[tuple]] = []
        for sub in term.args:
            sub = deref(sub)
            if isinstance(sub, Struct):
                fresh = st.fresh_temp()
                self._put_structure(st, code, sub, fresh)
                child_regs.append(fresh)
            else:
                child_regs.append(None)
        if term.indicator == (".", 2):
            code.append((I.PUT_LIST, target))
        else:
            code.append((I.PUT_STRUCTURE, st.functor(term), target))
        for sub, creg in zip(term.args, child_regs):
            sub = deref(sub)
            if creg is not None:
                code.append((I.UNIFY_VALUE, creg))
            elif isinstance(sub, Var):
                reg, first = st.var_register(sub)
                code.append(
                    (I.UNIFY_VARIABLE if first else I.UNIFY_VALUE, reg))
            elif isinstance(sub, Atom):
                if sub is NIL:
                    code.append((I.UNIFY_NIL,))
                else:
                    code.append((I.UNIFY_CONSTANT, st.const(sub)))
            else:
                code.append((I.UNIFY_CONSTANT, st.const(sub)))

    # -------------------------------------------------------------- indexing

    def _arg_index_key(self, arg: Term) -> Tuple[str, Optional[tuple]]:
        """(kind, key) of the first head argument, which drives the
        first-argument switch (§3.2.2)."""
        arg = deref(arg)
        if isinstance(arg, Var):
            return ("var", None)
        if arg is NIL:
            return ("nil", ("atom", self.ctx.intern("[]", 0)))
        if isinstance(arg, Atom):
            return ("constant", ("atom", self.ctx.intern(arg.name, 0)))
        if isinstance(arg, int):
            return ("constant", ("int", arg))
        if isinstance(arg, float):
            return ("constant", ("flt", arg))
        assert isinstance(arg, Struct)
        if arg.indicator == (".", 2):
            return ("list", None)
        return ("structure",
                ("fun", self.ctx.intern(arg.name, arg.arity)))


class _ClauseState:
    """Per-clause register-allocation state."""

    def __init__(self, ctx: CompileContext, arity: int, goals: list,
                 perm_index: Dict[int, int], cut_slot: Optional[int],
                 temp_base: int):
        self.ctx = ctx
        self.arity = arity
        self.goals = goals
        self.perm_index = perm_index
        self.cut_slot = cut_slot
        self.temp_index: Dict[int, int] = {}
        self._next_temp = temp_base

    def var_register(self, var: Var) -> Tuple[tuple, bool]:
        """(register, is_first_occurrence) for *var*."""
        vid = id(var)
        if vid in self.perm_index:
            slot = self.perm_index[vid]
            first = vid not in self.temp_index
            self.temp_index.setdefault(vid, -1)  # mark seen
            return (("y", slot), first)
        if vid in self.temp_index:
            return (("x", self.temp_index[vid]), False)
        reg = self._next_temp
        self._next_temp += 1
        self.temp_index[vid] = reg
        return (("x", reg), True)

    def fresh_temp(self) -> tuple:
        reg = self._next_temp
        self._next_temp += 1
        return ("x", reg)

    def const(self, value: Term) -> tuple:
        if isinstance(value, Atom):
            return ("atom", self.ctx.intern(value.name, 0))
        if isinstance(value, int):
            return ("int", value)
        if isinstance(value, float):
            return ("flt", value)
        raise TypeError_("constant", value)

    def functor(self, term: Struct) -> int:
        return self.ctx.intern(term.name, term.arity)


def compile_clause(clause: Term, context: CompileContext) -> CompiledClause:
    """Convenience wrapper: compile one clause in *context*."""
    return ClauseCompiler(context).compile_clause(clause)


def compile_procedure(clauses: List[Term], context: CompileContext,
                      index: bool = True) -> List[tuple]:
    """Compile a whole procedure: clause code + choice instructions +
    first-argument indexing (see :mod:`repro.wam.indexing`)."""
    from .indexing import build_procedure_code  # cycle-free late import

    compiled = [compile_clause(c, context) for c in clauses]
    return build_procedure_code(compiled, index=index)
