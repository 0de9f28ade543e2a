"""Groundness/mode abstract interpretation to a fixpoint.

The lattice per argument position is three-valued::

    ground  ⊑  nonvar  ⊑  any

``ground`` — on success the argument is a fully instantiated term;
``nonvar`` — at least the principal functor is known; ``any`` — no
information (the top element; an unbound variable is one of its
concretisations).  Two signatures are inferred per predicate:

* **call modes** (top-down): the join over every call site of the
  abstract argument values at the call — "how is this predicate
  called by the program itself".  Analysis entries (call-graph roots)
  seed at all-``any``: the analysis is closed-world over the program
  but a top-level query may call an entry with anything.
* **success modes** (bottom-up): the join over clauses of the head
  arguments' abstraction after abstractly executing the body — "what
  is guaranteed bound once the predicate succeeds".

The two propagate through one global worklist: call modes flow down
into clause entry environments, success modes flow up out of clause
exits, and both are join-monotone over a finite lattice so the
fixpoint terminates.  A pass budget proportional to program size backs
this with *sound widening*: any predicate still moving when the budget
runs out is widened to ⊤ (all ``any``), which is trivially sound
(docs/ANALYSIS.md, "mode lattice").

Builtin signatures seed the system: each entry records the success
modes the builtin guarantees, the argument positions it *demands*
ground (used by lint rule M201 — calling one with a provably fresh
variable there is a guaranteed instantiation error), and its
solution-count bounds (consumed by :mod:`.cardinality`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...lang.program import Indicator, split_clause_term
from ...terms import Atom, Struct, Term, Var
from .callgraph import (CONTROL_GOALS, CallGraph, Program,
                        build_call_graph)

__all__ = ["GROUND", "NONVAR", "ANY", "INF", "BuiltinSig", "ModeResult",
           "builtin_signature", "infer_modes", "join", "refine",
           "mode_string", "leq"]

GROUND = "ground"
NONVAR = "nonvar"
ANY = "any"

_RANK = {GROUND: 0, NONVAR: 1, ANY: 2}
_LETTER = {GROUND: "g", NONVAR: "n", ANY: "a"}

#: unbounded solution count (the cardinality lattice's ∞)
INF = float("inf")


def join(a: str, b: str) -> str:
    """Least upper bound: the weaker of two facts."""
    return a if _RANK[a] >= _RANK[b] else b


def refine(a: str, b: str) -> str:
    """Greatest lower bound: both facts hold, keep the stronger."""
    return a if _RANK[a] <= _RANK[b] else b


def leq(a: str, b: str) -> bool:
    """True when *a* is at least as strong as *b* (a ⊑ b)."""
    return _RANK[a] <= _RANK[b]


def mode_string(modes: Tuple[str, ...]) -> str:
    """Compact rendering: ``g``/``n``/``a`` per argument ("gna")."""
    return "".join(_LETTER[m] for m in modes)


@dataclass(frozen=True)
class BuiltinSig:
    """What a builtin guarantees and demands (docs/ANALYSIS.md).

    ``success`` — per-argument mode on success (None = all ``any``);
    ``demands`` — positions that must be ground at call time or the
    builtin raises an instantiation/type error; ``card`` — solution
    count bounds ``(min, max)`` with ``max`` in ``{0, 1, INF}``.
    """
    success: Optional[Tuple[str, ...]] = None
    demands: Tuple[int, ...] = ()
    card: Tuple[float, float] = (0, INF)


_DET = (1, 1)
_SEMIDET = (0, 1)
_FAILS = (0, 0)

#: builtin signature table, keyed by indicator.  Entries cover the
#: builtins the shipped corpus exercises; any unlisted builtin gets
#: the sound default ``BuiltinSig()`` (no guarantees, no demands,
#: 0..∞ solutions).
_SIGS: Dict[Indicator, BuiltinSig] = {
    ("true", 0): BuiltinSig(card=_DET),
    ("otherwise", 0): BuiltinSig(card=_DET),
    ("fail", 0): BuiltinSig(card=_FAILS),
    ("false", 0): BuiltinSig(card=_FAILS),
    ("!", 0): BuiltinSig(card=_DET),
    ("halt", 0): BuiltinSig(card=_DET),
    ("nl", 0): BuiltinSig(card=_DET),
    ("is", 2): BuiltinSig(success=(GROUND, GROUND), demands=(1,),
                          card=_SEMIDET),
    ("<", 2): BuiltinSig(success=(GROUND, GROUND), demands=(0, 1),
                         card=_SEMIDET),
    (">", 2): BuiltinSig(success=(GROUND, GROUND), demands=(0, 1),
                         card=_SEMIDET),
    ("=<", 2): BuiltinSig(success=(GROUND, GROUND), demands=(0, 1),
                          card=_SEMIDET),
    (">=", 2): BuiltinSig(success=(GROUND, GROUND), demands=(0, 1),
                          card=_SEMIDET),
    ("=:=", 2): BuiltinSig(success=(GROUND, GROUND), demands=(0, 1),
                           card=_SEMIDET),
    ("=\\=", 2): BuiltinSig(success=(GROUND, GROUND), demands=(0, 1),
                            card=_SEMIDET),
    ("=", 2): BuiltinSig(card=_SEMIDET),
    ("\\=", 2): BuiltinSig(card=_SEMIDET),
    ("==", 2): BuiltinSig(card=_SEMIDET),
    ("\\==", 2): BuiltinSig(card=_SEMIDET),
    ("@<", 2): BuiltinSig(card=_SEMIDET),
    ("@>", 2): BuiltinSig(card=_SEMIDET),
    ("@=<", 2): BuiltinSig(card=_SEMIDET),
    ("@>=", 2): BuiltinSig(card=_SEMIDET),
    ("compare", 3): BuiltinSig(success=(GROUND, ANY, ANY), card=_SEMIDET),
    ("unify_with_occurs_check", 2): BuiltinSig(card=_SEMIDET),
    ("var", 1): BuiltinSig(card=_SEMIDET),
    ("nonvar", 1): BuiltinSig(success=(NONVAR,), card=_SEMIDET),
    ("atom", 1): BuiltinSig(success=(GROUND,), card=_SEMIDET),
    ("atomic", 1): BuiltinSig(success=(GROUND,), card=_SEMIDET),
    ("number", 1): BuiltinSig(success=(GROUND,), card=_SEMIDET),
    ("integer", 1): BuiltinSig(success=(GROUND,), card=_SEMIDET),
    ("float", 1): BuiltinSig(success=(GROUND,), card=_SEMIDET),
    ("callable", 1): BuiltinSig(success=(NONVAR,), card=_SEMIDET),
    ("compound", 1): BuiltinSig(success=(NONVAR,), card=_SEMIDET),
    ("is_list", 1): BuiltinSig(success=(GROUND,), card=_SEMIDET),
    ("ground", 1): BuiltinSig(success=(GROUND,), card=_SEMIDET),
    ("acyclic_term", 1): BuiltinSig(card=_SEMIDET),
    ("cyclic_term", 1): BuiltinSig(card=_SEMIDET),
    ("functor", 3): BuiltinSig(success=(NONVAR, GROUND, GROUND),
                               card=_SEMIDET),
    ("arg", 3): BuiltinSig(success=(GROUND, NONVAR, ANY),
                           demands=(0,), card=_SEMIDET),
    ("=..", 2): BuiltinSig(success=(NONVAR, NONVAR), card=_SEMIDET),
    ("copy_term", 2): BuiltinSig(card=_DET),
    ("atom_codes", 2): BuiltinSig(success=(GROUND, GROUND),
                                  card=_SEMIDET),
    ("atom_chars", 2): BuiltinSig(success=(GROUND, GROUND),
                                  card=_SEMIDET),
    ("atom_length", 2): BuiltinSig(success=(GROUND, GROUND),
                                   demands=(0,), card=_SEMIDET),
    ("atom_number", 2): BuiltinSig(success=(GROUND, GROUND),
                                   card=_SEMIDET),
    ("atom_concat", 3): BuiltinSig(success=(GROUND, GROUND, GROUND)),
    ("char_code", 2): BuiltinSig(success=(GROUND, GROUND),
                                 card=_SEMIDET),
    ("number_codes", 2): BuiltinSig(success=(GROUND, GROUND),
                                    card=_SEMIDET),
    ("term_to_atom", 2): BuiltinSig(success=(ANY, GROUND),
                                    card=_SEMIDET),
    ("between", 3): BuiltinSig(success=(GROUND, GROUND, GROUND),
                               demands=(0, 1)),
    ("succ", 2): BuiltinSig(success=(GROUND, GROUND), card=_SEMIDET),
    ("plus", 3): BuiltinSig(success=(GROUND, GROUND, GROUND),
                            card=_SEMIDET),
    ("length", 2): BuiltinSig(success=(NONVAR, GROUND)),
    # sort/msort/keysort demand a proper list *spine*, not ground
    # elements — no `demands` entry (M201 would over-flag).
    ("sort", 2): BuiltinSig(success=(NONVAR, NONVAR), card=_SEMIDET),
    ("msort", 2): BuiltinSig(success=(NONVAR, NONVAR), card=_SEMIDET),
    ("keysort", 2): BuiltinSig(success=(NONVAR, NONVAR),
                               card=_SEMIDET),
    ("findall", 3): BuiltinSig(success=(ANY, ANY, NONVAR), card=_DET),
    ("bagof", 3): BuiltinSig(success=(ANY, ANY, NONVAR)),
    ("setof", 3): BuiltinSig(success=(ANY, ANY, NONVAR)),
    ("aggregate_all", 3): BuiltinSig(success=(ANY, ANY, ANY),
                                     card=_DET),
    ("forall", 2): BuiltinSig(card=_SEMIDET),
    ("\\+", 1): BuiltinSig(card=_SEMIDET),
    ("not", 1): BuiltinSig(card=_SEMIDET),
    ("once", 1): BuiltinSig(card=_SEMIDET),
    ("ignore", 1): BuiltinSig(card=_DET),
    ("write", 1): BuiltinSig(card=_DET),
    ("writeln", 1): BuiltinSig(card=_DET),
    ("writeq", 1): BuiltinSig(card=_DET),
    ("write_canonical", 1): BuiltinSig(card=_DET),
    ("print", 1): BuiltinSig(card=_DET),
    ("tab", 1): BuiltinSig(demands=(0,), card=_DET),
    ("assert", 1): BuiltinSig(card=_DET),
    ("asserta", 1): BuiltinSig(card=_DET),
    ("assertz", 1): BuiltinSig(card=_DET),
    ("retract", 1): BuiltinSig(),
    ("retractall", 1): BuiltinSig(card=_DET),
    ("statistics", 2): BuiltinSig(card=_SEMIDET),
}

_DEFAULT_SIG = BuiltinSig()


def builtin_signature(ind: Indicator) -> Optional[BuiltinSig]:
    """The signature of a registered builtin, the sound default for a
    registered-but-unlisted one, None for a non-builtin."""
    sig = _SIGS.get(ind)
    if sig is not None:
        return sig
    from ...wam.compiler import is_builtin_indicator
    if is_builtin_indicator(ind[0], ind[1]) or \
            (ind[0] == "call" and ind[1] >= 1):
        return _DEFAULT_SIG
    if ind in CONTROL_GOALS:
        return _SIGS.get(ind, _DEFAULT_SIG)
    return None


# =====================================================================
# The fixpoint
# =====================================================================

@dataclass
class ModeResult:
    """Inferred signatures for every analysed predicate."""
    call_modes: Dict[Indicator, Tuple[str, ...]]
    success_modes: Dict[Indicator, Tuple[str, ...]]
    #: predicates widened to ⊤ when the pass budget ran out
    widened: Set[Indicator] = field(default_factory=set)
    #: predicates with at least one analysed call site (call modes of
    #: a predicate without one describe nothing)
    called: Set[Indicator] = field(default_factory=set)


def _tops(arity: int) -> Tuple[str, ...]:
    return (ANY,) * arity


def _bottoms(arity: int) -> Tuple[str, ...]:
    return (GROUND,) * arity


def infer_modes(program: Program, graph: Optional[CallGraph] = None
                ) -> ModeResult:
    """Run the groundness fixpoint over *program*.

    Success modes start at ⊥ (all ``ground``) and only move up as
    clause bodies are abstractly executed under the current call
    modes; call modes start at the entry seeds and only move up as
    call sites are observed.  Both joins are monotone over a finite
    lattice, so the loop reaches a fixpoint; the pass budget widens
    anything still moving to ⊤ (sound: ⊤ claims nothing).
    """
    if graph is None:
        graph = build_call_graph(program)
    call_modes: Dict[Indicator, Tuple[str, ...]] = {}
    success_modes: Dict[Indicator, Tuple[str, ...]] = {}
    called: Set[Indicator] = set()

    for ind in program.clauses:
        call_modes[ind] = _bottoms(ind[1])
        success_modes[ind] = _bottoms(ind[1])
    for ind in program.entries:
        call_modes[ind] = _tops(ind[1])
    for ind in program.externals:
        success_modes[ind] = _tops(ind[1])

    def succ_of(ind: Indicator) -> Tuple[str, ...]:
        sig = builtin_signature(ind)
        if sig is not None:
            return sig.success if sig.success is not None \
                else _tops(ind[1])
        return success_modes.get(ind, _tops(ind[1]))

    budget = 4 * (len(program.clauses) + 4)
    widened: Set[Indicator] = set()
    iterations = 0
    changed = True
    while changed:
        if iterations >= budget:
            # Sound widening: anything we are still refining goes to ⊤.
            for ind in program.clauses:
                top = _tops(ind[1])
                if call_modes[ind] != top or success_modes[ind] != top:
                    widened.add(ind)
                call_modes[ind] = top
                success_modes[ind] = top
            break
        iterations += 1
        changed = False
        new_calls: Dict[Indicator, Tuple[str, ...]] = {}

        def record_call(callee: Indicator,
                        args: Optional[Tuple[str, ...]]) -> None:
            if callee not in program.clauses:
                return
            called.add(callee)
            if args is None or len(args) != callee[1]:
                args = _tops(callee[1])
            prev = new_calls.get(callee)
            if prev is None:
                new_calls[callee] = tuple(args)
            else:
                new_calls[callee] = tuple(
                    join(a, b) for a, b in zip(prev, args))

        for ind, clauses in program.clauses.items():
            succ = _tops(ind[1])
            contributions = []
            for clause in clauses:
                contributions.append(_clause_success(
                    clause, call_modes[ind], succ_of, record_call))
            if contributions:
                succ = tuple(
                    max(col, key=lambda m: _RANK[m])
                    for col in zip(*contributions)
                ) if ind[1] else ()
            new = tuple(join(a, b)
                        for a, b in zip(success_modes[ind], succ))
            if new != success_modes[ind]:
                success_modes[ind] = new
                changed = True

        for ind in program.clauses:
            seed = (_tops(ind[1]) if ind in program.entries
                    else call_modes[ind])
            site = new_calls.get(ind)
            if site is not None:
                seed = tuple(join(a, b) for a, b in zip(seed, site))
            if seed != call_modes[ind]:
                call_modes[ind] = seed
                changed = True

    return ModeResult(call_modes=call_modes,
                      success_modes=success_modes,
                      widened=widened, called=called)


# =====================================================================
# Abstract clause execution
# =====================================================================

def abstract_term(term: Term, env: Dict[int, str]) -> str:
    """The lattice value of *term* under the variable environment."""
    if isinstance(term, Var):
        return env.get(id(term), ANY)
    if isinstance(term, Struct):
        if all(abstract_term(a, env) == GROUND for a in term.args):
            return GROUND
        return NONVAR
    return GROUND  # atoms and numbers


def bind_term(term: Term, value: str, env: Dict[int, str]) -> None:
    """Propagate a success-mode fact about *term* into its variables.
    ``ground`` grounds every variable in the term; ``nonvar`` only
    informs a bare variable (a compound is already nonvar)."""
    if value == GROUND:
        for var in _term_vars(term):
            env[id(var)] = refine(env.get(id(var), ANY), GROUND)
    elif value == NONVAR and isinstance(term, Var):
        env[id(term)] = refine(env.get(id(term), ANY), NONVAR)


def _term_vars(term: Term) -> List[Var]:
    out: List[Var] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.append(t)
        elif isinstance(t, Struct):
            stack.extend(t.args)
    return out


def _join_envs(a: Dict[int, str], b: Dict[int, str]) -> Dict[int, str]:
    """Pointwise join: a fact survives only if both branches prove it
    (absence means ``any``)."""
    out: Dict[int, str] = {}
    for key in set(a) & set(b):
        v = join(a[key], b[key])
        if v != ANY:
            out[key] = v
    return out


def _clause_success(clause: Term, call_modes: Tuple[str, ...],
                    succ_of, record_call) -> Tuple[str, ...]:
    """Abstractly execute one clause under *call_modes*; return the
    head arguments' abstraction at the clause exit (this clause's
    contribution to the predicate's success modes)."""
    head, body = split_clause_term(clause)
    env: Dict[int, str] = {}
    if isinstance(head, Struct):
        for arg, mode in zip(head.args, call_modes):
            bind_term(arg, mode, env)
    if body is not None:
        _walk_goal(body, env, succ_of, record_call)
    if not isinstance(head, Struct):
        return ()
    return tuple(abstract_term(arg, env) for arg in head.args)


def _walk_goal(goal: Term, env: Dict[int, str], succ_of,
               record_call) -> None:
    """Abstract execution of one body goal, updating *env* in place."""
    if isinstance(goal, Var):
        return
    if isinstance(goal, Atom):
        record_call((goal.name, 0), ())
        return
    if not isinstance(goal, Struct):
        return
    ind = (goal.name, goal.arity)

    if ind == (",", 2):
        _walk_goal(goal.args[0], env, succ_of, record_call)
        _walk_goal(goal.args[1], env, succ_of, record_call)
        return
    if ind == (";", 2):
        left = goal.args[0]
        if isinstance(left, Struct) and left.indicator == ("->", 2):
            then_env = dict(env)
            _walk_goal(left.args[0], then_env, succ_of, record_call)
            _walk_goal(left.args[1], then_env, succ_of, record_call)
            else_env = dict(env)
            _walk_goal(goal.args[1], else_env, succ_of, record_call)
            merged = _join_envs(then_env, else_env)
        else:
            left_env = dict(env)
            _walk_goal(left, left_env, succ_of, record_call)
            right_env = dict(env)
            _walk_goal(goal.args[1], right_env, succ_of, record_call)
            merged = _join_envs(left_env, right_env)
        env.clear()
        env.update(merged)
        return
    if ind == ("->", 2):
        # bare if-then: both parts execute on the success path
        _walk_goal(goal.args[0], env, succ_of, record_call)
        _walk_goal(goal.args[1], env, succ_of, record_call)
        return
    if ind in (("\\+", 1), ("not", 1)):
        # bindings made inside a failed proof do not escape
        scratch = dict(env)
        _walk_goal(goal.args[0], scratch, succ_of, record_call)
        return
    if ind == ("once", 1) or ind == ("call", 1):
        _walk_goal(goal.args[0], env, succ_of, record_call)
        return
    if ind == ("ignore", 1):
        # ignore/1 succeeds whether or not the goal did: no guarantees
        scratch = dict(env)
        _walk_goal(goal.args[0], scratch, succ_of, record_call)
        return
    if ind == ("forall", 2):
        scratch = dict(env)
        _walk_goal(goal.args[0], scratch, succ_of, record_call)
        _walk_goal(goal.args[1], scratch, succ_of, record_call)
        return
    if ind in (("findall", 3), ("bagof", 3), ("setof", 3),
               ("aggregate_all", 3)):
        scratch = dict(env)
        _walk_goal(goal.args[1], scratch, succ_of, record_call)
        bind_term(goal.args[2], NONVAR, env)
        return
    if goal.name == "call" and goal.arity >= 2:
        target = goal.args[0]
        extra = goal.arity - 1
        if isinstance(target, Atom):
            record_call((target.name, extra), None)
        elif isinstance(target, Struct):
            record_call((target.name, target.arity + extra), None)
        return
    if ind == ("=", 2):
        left, right = goal.args
        value = refine(abstract_term(left, env),
                       abstract_term(right, env))
        bind_term(left, value, env)
        bind_term(right, value, env)
        return
    if ind in CONTROL_GOALS:
        return

    args_abs = tuple(abstract_term(a, env) for a in goal.args)
    record_call(ind, args_abs)
    for arg, mode in zip(goal.args, succ_of(ind)):
        bind_term(arg, mode, env)
