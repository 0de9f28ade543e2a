"""Determinism/cardinality inference (docs/ANALYSIS.md, "determinism").

Every predicate gets a solution-count abstraction ``(min, max)`` with
``min ∈ {0, 1}`` and ``max ∈ {0, 1, ∞}``, named by the usual classes::

    fails    (0, 0)   provably no solution
    det      (1, 1)   exactly one solution
    semidet  (0, 1)   at most one solution
    multi    (1, ∞)   at least one solution
    nondet   (0, ∞)   no information (the top element)

Composition is the obvious interval arithmetic: a clause body's
``max`` is the product of its goals' maxima (any ∞ dominates), its
``min`` the product of minima; a predicate's ``max`` is the capped sum
over its clauses and its ``min`` the best single clause's guaranteed
floor — but clauses *after* one containing a cut cannot contribute to
the guaranteed floor of calls the earlier clause committed, so the
``min`` sum stops at the first cut-bearing clause.  A clause
guarantees ``min ≥ 1`` only when its head cannot fail to unify for
*some* call — we require the conservative syntactic condition that
every head argument is a distinct fresh variable (linear variable
head) and the body's ``min ≥ 1``.

Recursive SCC members are widened to ``max = ∞`` (a recursive call
may multiply solutions without bound) while the ``min`` computation
stays (a recursive predicate can still be provably failing if every
base case is).  The companion refinement :func:`refine_with_modes`
re-examines ``max`` under the *inferred call modes*: when every call
site proves argument *k* ground and the clause heads carry pairwise
distinct constants there, at most one clause can match — "det under
inferred modes", the fact lint rule M203 consumes.

**Soundness contract**: the classes bound the solution counts of
calls that terminate without raising; a predicate classed ``det`` may
still loop or throw (termination is out of scope, as is every
abstract interpretation here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...lang.program import Indicator, split_clause_term
from ...terms import Atom, Struct, Term, Var
from .callgraph import CONTROL_GOALS, CallGraph, Program
from .modes import (GROUND, INF, ModeResult, builtin_signature)

__all__ = ["Card", "CardResult", "infer_cardinality", "class_name",
           "refine_with_modes"]

#: (min, max) solution bounds; max may be INF
Card = Tuple[float, float]

_TOP: Card = (0, INF)
_ONE: Card = (1, 1)


def class_name(card: Card) -> str:
    lo, hi = card
    if hi == 0:
        return "fails"
    if hi == 1:
        return "det" if lo >= 1 else "semidet"
    return "multi" if lo >= 1 else "nondet"


def _seq(a: Card, b: Card) -> Card:
    """Conjunction: counts multiply (0·∞ = 0 — a failing goal yields a
    failing conjunction no matter what follows), capped to the class
    granularity {0, 1, ∞}."""
    if a[1] == 0 or b[1] == 0:
        hi: float = 0
    else:
        hi = a[1] * b[1]
        if hi > 1:
            hi = INF
    return (min(1, a[0] * b[0]), hi)


def _alt(a: Card, b: Card) -> Card:
    """Disjunction: counts add (capped at ∞ / class granularity)."""
    lo = min(1, a[0] + b[0])
    hi = a[1] + b[1]
    return (lo, hi if hi <= 1 else INF)


@dataclass
class CardResult:
    """Inferred cardinality per predicate, plus the mode-refined view."""
    cards: Dict[Indicator, Card]
    #: predicates whose ``max`` dropped to 1 only thanks to inferred
    #: call modes, mapped to the discriminating argument position
    det_under_modes: Dict[Indicator, int]

    def class_of(self, ind: Indicator) -> Optional[str]:
        card = self.cards.get(ind)
        return None if card is None else class_name(card)


def infer_cardinality(program: Program, graph: CallGraph,
                      modes: Optional[ModeResult] = None) -> CardResult:
    """Bottom-up cardinality over the SCC condensation (callees first),
    with recursive SCC members widened to ``max = ∞``."""
    cards: Dict[Indicator, Card] = {}
    for ind in program.externals:
        cards.setdefault(ind, _TOP)

    def card_of(ind: Indicator) -> Card:
        sig = builtin_signature(ind)
        if sig is not None:
            return sig.card
        return cards.get(ind, _TOP)

    for scc in graph.sccs:
        members = [ind for ind in scc if ind in program.clauses]
        recursive = len(scc) > 1 or any(
            ind in graph.edges.get(ind, ()) for ind in scc)
        # Pessimistic seed for the members lets card_of answer
        # intra-SCC calls soundly while we compute the real bound.
        for ind in members:
            cards.setdefault(ind, _TOP)
        for ind in members:
            cards[ind] = _predicate_card(
                program.clauses[ind], card_of, recursive)

    result = CardResult(cards=cards, det_under_modes={})
    if modes is not None:
        refine_with_modes(result, program, modes)
    return result


def _predicate_card(clauses, card_of, recursive: bool) -> Card:
    total: Card = (0, 0)
    min_open = True  # clauses may still add to the guaranteed floor
    for clause in clauses:
        c = _clause_card(clause, card_of)
        hi = _alt(total, c)[1]
        lo = _alt(total, c)[0] if min_open else total[0]
        total = (lo, hi)
        if _clause_has_cut(clause):
            # a committed earlier clause hides later ones from the
            # calls it matched; stop accumulating the floor
            min_open = False
    if recursive:
        total = (total[0], INF if total[1] > 0 else 0)
    return total


def _clause_card(clause: Term, card_of) -> Card:
    head, body = split_clause_term(clause)
    body_card = _goal_card(body, card_of) if body is not None else _ONE
    if not _linear_var_head(head):
        # head unification can fail: no guaranteed floor
        body_card = (0, body_card[1])
    return body_card


def _goal_card(goal: Term, card_of) -> Card:
    if isinstance(goal, Var):
        return _TOP
    if isinstance(goal, Atom):
        ind = (goal.name, 0)
        if ind == ("!", 0):
            # within-clause commit: at most one continuation survives
            return _ONE
        if ind in CONTROL_GOALS:
            return (0, 0) if goal.name in ("fail", "false") else _ONE
        return card_of(ind)
    if not isinstance(goal, Struct):
        return _TOP
    ind = goal.indicator
    if ind == (",", 2):
        return _seq(_goal_card(goal.args[0], card_of),
                    _goal_card(goal.args[1], card_of))
    if ind == (";", 2):
        left = goal.args[0]
        if isinstance(left, Struct) and left.indicator == ("->", 2):
            then = _seq((0, 1), _goal_card(left.args[1], card_of))
            other = _goal_card(goal.args[1], card_of)
            # exactly one branch runs: join, not add
            return (min(then[0], other[0]), max(then[1], other[1]))
        return _alt(_goal_card(left, card_of),
                    _goal_card(goal.args[1], card_of))
    if ind == ("->", 2):
        return _seq((0, 1), _goal_card(goal.args[1], card_of))
    if ind in (("\\+", 1), ("not", 1)):
        return (0, 1)
    if ind == ("once", 1):
        inner = _goal_card(goal.args[0], card_of)
        return (inner[0] and 1, min(inner[1], 1))
    if ind == ("call", 1):
        return _goal_card(goal.args[0], card_of)
    if goal.name == "call" and goal.arity >= 2:
        return _TOP
    sig = builtin_signature(ind)
    if sig is not None:
        return sig.card
    return card_of(ind)


def _clause_has_cut(clause: Term) -> bool:
    _head, body = split_clause_term(clause)
    if body is None:
        return False
    stack = [body]
    while stack:
        goal = stack.pop()
        if isinstance(goal, Atom) and goal.name == "!":
            return True
        if isinstance(goal, Struct) and goal.indicator in (
                (",", 2), (";", 2), ("->", 2)):
            stack.extend(goal.args)
    return False


def _linear_var_head(head: Term) -> bool:
    """Every head argument a distinct fresh variable → unification
    with any call cannot fail."""
    if isinstance(head, Atom):
        return True
    if not isinstance(head, Struct):
        return False
    seen = set()
    for arg in head.args:
        if not isinstance(arg, Var) or id(arg) in seen:
            return False
        seen.add(id(arg))
    return True


# =====================================================================
# Mode-driven refinement
# =====================================================================

def refine_with_modes(result: CardResult, program: Program,
                      modes: ModeResult) -> None:
    """Drop ``max`` to 1 for predicates that are deterministic *under
    the inferred call modes*: some argument position is ground at
    every analysed call site, the clause heads carry pairwise-distinct
    atomic constants there, and each clause body is itself at most
    semidet.  A ground caller argument selects at most one clause, so
    at most one solution — the interprocedural fact a local analysis
    cannot see.  Only applies to predicates the program actually calls
    (entry predicates may be queried with anything)."""
    def card_of(ind: Indicator) -> Card:
        sig = builtin_signature(ind)
        if sig is not None:
            return sig.card
        return result.cards.get(ind, _TOP)

    for ind, clauses in program.clauses.items():
        card = result.cards.get(ind, _TOP)
        if card[1] <= 1 or len(clauses) < 2:
            continue
        if ind not in modes.called or ind in modes.widened:
            continue
        if ind in program.entries:
            continue
        call = modes.call_modes.get(ind)
        if call is None:
            continue
        pos = discriminating_position(clauses, call)
        if pos is None:
            continue
        if any(_clause_body_max(c, card_of) > 1 for c in clauses):
            continue
        result.cards[ind] = (card[0], 1)
        result.det_under_modes[ind] = pos


def _clause_body_max(clause: Term, card_of) -> float:
    _head, body = split_clause_term(clause)
    if body is None:
        return 1
    return _goal_card(body, card_of)[1]


def discriminating_position(clauses, call_modes: Tuple[str, ...]
                            ) -> Optional[int]:
    """The first argument position that is ground at every call site
    and carries pairwise-distinct atomic constants across all clause
    heads, or None."""
    for pos, mode in enumerate(call_modes):
        if mode != GROUND:
            continue
        keys = []
        ok = True
        for clause in clauses:
            head, _body = split_clause_term(clause)
            if not isinstance(head, Struct) or pos >= head.arity:
                ok = False
                break
            arg = head.args[pos]
            if isinstance(arg, Atom):
                keys.append(("atom", arg.name))
            elif isinstance(arg, (int, float, str)):
                keys.append((type(arg).__name__, arg))
            else:
                ok = False
                break
        if ok and len(keys) == len(set(keys)):
            return pos
    return None
