"""Magic-set rewriting: demand-driven bottom-up evaluation.

Pure semi-naive evaluation computes the *whole* least model — for a
bound-argument query like ``reach(a, X)`` over a large graph that means
deriving reachability from every vertex, then throwing almost all of it
away.  The magic-set transformation (Bancilhon/Beeri/Ramakrishnan/Ullman;
see Brass & Stephan in PAPERS.md) rewrites the program so bottom-up
derivation is restricted to facts *relevant to the query*:

* each IDB predicate is split per **adornment** — a b/f string recording
  which argument positions are bound at call time (``reach@bf``);
* a **magic predicate** per adornment (``magic$reach@bf``, arity =
  number of bound positions) collects the demanded bindings, seeded with
  the query's constants;
* every original rule gets a magic *guard* literal so it only fires for
  demanded bindings, and every IDB body literal spawns a magic rule that
  propagates demand using a left-to-right sideways information passing
  strategy (bindings flow through the body in clause order).

Negated body literals do not receive demand (they cannot bind variables
and their extent must be complete before the stratum runs): they are
rewritten to the all-free adornment, whose rules carry no guard — i.e.
their full extent is computed, exactly as without magic.

A **right-linear** query predicate is then *factored* (Naughton,
Ramakrishnan, Sagiv & Ullman, SIGMOD 1989): when it is alone in its SCC
and every rule is an exit rule or ends in the one recursive call, whose
free arguments are the head's own distinct free variables used nowhere
else, every demanded binding shares the query's answers.  The exit rules
then derive those answers directly (head bound positions replaced by
the query's constants) and the recursive rules keep only their demand
rules — one fact per answer instead of one per (demanded node, answer).

The rewrite can destroy stratifiability even when the source program is
stratified (a known failure mode — docs/DATALOG.md): the caller must
re-check the rewritten program and fall back to the unrewritten one when
:func:`rewrite` returns None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .rules import Indicator, Literal, Rule, V, stratify

__all__ = ["MagicProgram", "rewrite", "adornment_of", "adorned_name",
           "magic_name"]


def adornment_of(args: Tuple[object, ...],
                 bound_positions: Set[int]) -> str:
    return "".join("b" if (pos in bound_positions
                           or not isinstance(arg, V)) else "f"
                   for pos, arg in enumerate(args))


def adorned_name(ind: Indicator, adn: str) -> Indicator:
    return (f"{ind[0]}@{adn}", ind[1])


def magic_name(ind: Indicator, adn: str) -> Indicator:
    return (f"magic${ind[0]}@{adn}", adn.count("b"))


@dataclass
class MagicProgram:
    """A successfully rewritten (and still stratifiable) program."""

    rules: Dict[Indicator, List[Rule]]
    strata: Dict[Indicator, int]
    #: the adorned predicate holding the query's answers
    query_pred: Indicator
    #: the query's adornment string
    adornment: str
    #: magic predicates introduced by the rewrite
    magic_preds: Set[Indicator]
    #: right-linear recursion factored out of ``query_pred``
    factored: bool = False


def _safe_body(body: List[Literal]) -> Tuple[Literal, ...]:
    """Keep every positive literal; keep a negated literal only when
    its variables are bound by the kept positives."""
    positive_vars: Set[str] = set()
    for lit in body:
        if not lit.negated:
            positive_vars |= lit.var_names()
    return tuple(lit for lit in body
                 if not lit.negated or lit.var_names() <= positive_vars)


def _right_linear(rules: Dict[Indicator, List[Rule]], query: Indicator,
                  adn: str, adorned: List[Rule]) -> bool:
    """May *query*'s adorned rules be factored?  Alone in its SCC (no
    other rule uses it); each rule an exit rule or right-linear: one
    positive recursive call, last, adorned *adn*, whose free arguments
    are the head's free variables — distinct, same positions, nowhere
    else in the rule."""
    if any(lit.pred == query for ind, group in rules.items()
           if ind != query for rule in group for lit in rule.body):
        return False
    target = adorned_name(query, adn)
    for rule, new in zip(rules[query], adorned):
        calls = [lit for lit in rule.body if lit.pred == query]
        if not calls:
            continue
        last = rule.body[-1]
        free = [arg for arg, a in zip(rule.head.args, adn) if a == "f"]
        if (len(calls) > 1 or new.body[-1].pred != target
                or free != [arg for arg, a in zip(last.args, adn)
                            if a == "f"]
                or len(set(free)) < len(free)):
            return False
        elsewhere = {arg for arg, a in zip(rule.head.args + last.args,
                                           adn + adn) if a == "b"}
        elsewhere.update(arg for lit in rule.body[:-1] for arg in lit.args)
        if elsewhere.intersection(free):
            return False
    return True


def rewrite(rules: Dict[Indicator, List[Rule]], query: Indicator,
            bound_positions: Set[int],
            query_constants: Tuple[Tuple[int, object], ...]
            ) -> Optional[MagicProgram]:
    """Rewrite *rules* for a query on *query* with the given bound
    argument positions; *query_constants* are ``(position, value)``
    pairs seeding the demand.  Returns None when there is nothing to
    gain (no bound positions) or when the rewritten program is no
    longer stratifiable.
    """
    if not bound_positions or query not in rules:
        return None
    query_adn = "".join("b" if i in bound_positions else "f"
                        for i in range(query[1]))

    out: Dict[Indicator, List[Rule]] = {}
    magic_preds: Set[Indicator] = set()
    seen: Set[Tuple[Indicator, str]] = set()
    worklist: List[Tuple[Indicator, str]] = [(query, query_adn)]

    while worklist:
        ind, adn = worklist.pop()
        if (ind, adn) in seen:
            continue
        seen.add((ind, adn))
        guarded = adn.count("b") > 0
        new_head_pred = adorned_name(ind, adn)
        magic = magic_name(ind, adn)
        if guarded:
            magic_preds.add(magic)

        for rule in rules[ind]:
            bound_vars: Set[str] = set()
            for pos, arg in enumerate(rule.head.args):
                if adn[pos] == "b" and isinstance(arg, V):
                    bound_vars.add(arg.name)

            guard: List[Literal] = []
            if guarded:
                guard = [Literal(magic, tuple(
                    arg for pos, arg in enumerate(rule.head.args)
                    if adn[pos] == "b"))]

            new_body: List[Literal] = list(guard)
            for lit in rule.body:
                if lit.pred not in rules:
                    # EDB (base) literal: unchanged; it binds its
                    # variables for everything to its right.
                    new_body.append(lit)
                    if not lit.negated:
                        bound_vars |= lit.var_names()
                    continue
                if lit.negated:
                    # No demand into negation: all-free adornment, full
                    # extent, no guard on its rules.
                    free = "f" * lit.pred[1]
                    new_body.append(Literal(adorned_name(lit.pred, free),
                                            lit.args, negated=True))
                    worklist.append((lit.pred, free))
                    continue
                lit_adn = adornment_of(
                    lit.args, {pos for pos, arg in enumerate(lit.args)
                               if isinstance(arg, V)
                               and arg.name in bound_vars})
                if lit_adn.count("b"):
                    # Demand rule: the bindings reaching this literal —
                    # the guard plus everything already to its left —
                    # produce a magic fact for it.  Negated prefix
                    # literals whose variables are only bound *later*
                    # in the clause are dropped: demand may safely be a
                    # superset (the adorned rule still applies the full
                    # checks), but an unbound negation would make the
                    # magic rule unsafe.
                    lit_magic = magic_name(lit.pred, lit_adn)
                    magic_preds.add(lit_magic)
                    head = Literal(lit_magic, tuple(
                        arg for pos, arg in enumerate(lit.args)
                        if lit_adn[pos] == "b"))
                    out.setdefault(lit_magic, []).append(
                        Rule(head, _safe_body(new_body)))
                new_body.append(Literal(adorned_name(lit.pred, lit_adn),
                                        lit.args))
                bound_vars |= lit.var_names()
                worklist.append((lit.pred, lit_adn))

            out.setdefault(new_head_pred, []).append(Rule(
                Literal(new_head_pred, rule.head.args), tuple(new_body)))

    # Factoring: every demanded binding's answers are the query's, so
    # exit rules answer the query directly and right-linear rules keep
    # only the demand rule emitted above.
    query_pred = adorned_name(query, query_adn)
    adorned = out.setdefault(query_pred, [])
    factored = _right_linear(rules, query, query_adn, adorned)
    if factored:
        consts = dict(query_constants)
        out[query_pred] = [
            Rule(Literal(query_pred, tuple(
                consts.get(pos, arg)
                for pos, arg in enumerate(rule.head.args))), rule.body)
            for rule in adorned if rule.body[-1].pred != query_pred]

    # Seed: the query's constants are the initial demand.
    seed_magic = magic_name(query, query_adn)
    seed_args = tuple(value for _pos, value in sorted(query_constants))
    out.setdefault(seed_magic, []).append(
        Rule(Literal(seed_magic, seed_args)))

    strata, _recursive, _error = stratify(out)
    if strata is None:
        return None
    return MagicProgram(rules=out, strata=strata, query_pred=query_pred,
                        adornment=query_adn, magic_preds=magic_preds,
                        factored=factored)
