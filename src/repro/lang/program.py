"""The program front end: the one loop that reads a program text.

A program text is clauses interleaved with ``:- Directive`` terms.
:func:`read_sections` reads it with the caller's :class:`Reader` and
cuts it into :class:`Section` s — the clauses up to the next directive
that is a goal to run — so a consumer loads a section, runs its goal,
and the goal sees the clauses before it (paper §3.1: an incremental
compiler).  Declarations never reach the consumer as goals: ``op/3``
extends the reader on the spot, so the following clauses parse under it;
``dynamic`` / ``discontiguous`` are recorded on the section.

Every consumer goes through this loop: ``Machine.consult`` and
``Interpreter.consult`` (and, through their ``define`` sink, the two
``store_program`` s) by way of :func:`load_program`, and the linter
section by section — and through the term helpers below for what a
clause's head, body and reachable goals are (docs/ANALYSIS.md).
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from ..errors import PrologError, TypeError_
from ..terms import Atom, Struct, Term, Var, deref, indicator_of, iter_subterms
from .reader import Reader

__all__ = ["Indicator", "META_GOAL_ARGS", "Section", "bindable_args",
           "indicator_list", "iter_goals", "load_program", "read_sections",
           "split_clause_term"]

Indicator = Tuple[str, int]

#: meta-predicates: which argument positions are themselves goals
META_GOAL_ARGS: Dict[Indicator, Tuple[int, ...]] = {
    (",", 2): (0, 1), (";", 2): (0, 1), ("->", 2): (0, 1),
    ("\\+", 1): (0,), ("not", 1): (0,), ("once", 1): (0,),
    ("ignore", 1): (0,), ("call", 1): (0,), ("forall", 2): (0, 1),
    ("findall", 3): (1,), ("bagof", 3): (1,), ("setof", 3): (1,),
    ("aggregate_all", 3): (1,),
}


class Section(NamedTuple):
    """The clauses of a program text up to its next goal directive."""
    #: ``(head indicator, clause term)`` in source order
    clauses: List[Tuple[Indicator, Term]]
    #: indicators declared ``dynamic`` / ``discontiguous`` in between:
    #: callable even without clauses
    declared: List[Indicator]
    #: the directive that ends the section, to be run once the clauses
    #: are loaded; None at the end of the text
    goal: Optional[Term]

    def groups(self) -> Dict[Indicator, List[Term]]:
        """The clauses by indicator, in first-appearance order."""
        grouped: Dict[Indicator, List[Term]] = {}
        for ind, clause in self.clauses:
            grouped.setdefault(ind, []).append(clause)
        return grouped


def read_sections(text: str, reader: Reader) -> Iterator[Section]:
    """Read *text* with *reader*, one :class:`Section` at a time (the
    last one, possibly empty, has no goal).  Lazy: an ``op/3`` takes
    effect before the next clause is parsed."""
    clauses: List[Tuple[Indicator, Term]] = []
    declared: List[Indicator] = []
    for term in reader.read_terms(text):
        if isinstance(term, Struct) and term.indicator == (":-", 1):
            goal = term.args[0]
            ind = indicator_of(goal)  # a directive is a callable term
            if ind == ("op", 3):
                priority, type_, name = goal.args
                if not (isinstance(priority, int) and isinstance(type_, Atom)
                        and isinstance(name, Atom)):
                    raise TypeError_("op/3 directive", goal)
                reader.operators.add(priority, type_.name, name.name)
            elif ind in (("dynamic", 1), ("discontiguous", 1)):
                declared.extend(indicator_list(goal.args[0]))
            else:
                yield Section(clauses, declared, goal)
                clauses, declared = [], []
            continue
        clauses.append((indicator_of(split_clause_term(term)[0]), term))
    yield Section(clauses, declared, None)


def load_program(text: str, reader: Reader,
                 define: Callable[[str, int, List[Term]], object],
                 extend: Callable[[str, int, List[Term]], object],
                 declare: Callable[[str, int], object],
                 solve_once: Callable[[Term], object]) -> None:
    """Load *text* into an engine, section by section: each clause group
    goes to *define(name, arity, clauses)* — or, when an earlier section
    of the text defined or declared the procedure, to *extend*, which
    adds the clauses after the ones it has — each declared indicator to
    *declare(name, arity)*, and the section's goal to *solve_once* — a
    directive that fails (None) raises :class:`PrologError`."""
    seen: Set[Indicator] = set()
    for section in read_sections(text, reader):
        groups = section.groups()
        for (name, arity), clauses in groups.items():
            (extend if (name, arity) in seen else define)(
                name, arity, clauses)
        for name, arity in section.declared:
            declare(name, arity)
        seen.update(groups, section.declared)
        if section.goal is not None and solve_once(section.goal) is None:
            raise PrologError(f"directive failed: {section.goal!r}")


def indicator_list(spec: Term) -> List[Indicator]:
    """The indicators of ``a/1, b/2, ...`` (a ``dynamic/1`` argument)."""
    if isinstance(spec, Struct) and spec.indicator == (",", 2):
        return indicator_list(spec.args[0]) + indicator_list(spec.args[1])
    if isinstance(spec, Struct) and spec.indicator == ("/", 2):
        name, arity = spec.args
        if isinstance(name, Atom) and isinstance(arity, int):
            return [(name.name, arity)]
    raise TypeError_("predicate_indicator", spec)


def split_clause_term(clause: Term) -> Tuple[Term, Optional[Term]]:
    """``Head :- Body`` as ``(head, body)``; a fact has body None."""
    if isinstance(clause, Struct) and clause.indicator == (":-", 2):
        return clause.args[0], clause.args[1]
    return clause, None


def iter_goals(body: Term) -> Iterator[Tuple[Indicator, Tuple[Term, ...]]]:
    """Yield ``(indicator, args)`` for every goal reachable in *body*,
    descending control constructs and meta-predicate goal arguments.
    A ``call/N`` goal with an atom or compound closure yields the goal
    it calls: the closure's arguments, then the extra arguments."""
    goal = body
    while isinstance(goal, Struct) and goal.indicator == ("^", 2):
        goal = goal.args[1]
    if isinstance(goal, Atom):
        yield (goal.name, 0), ()
    if not isinstance(goal, Struct):
        # a metacall through a variable is not analysable; a number in
        # goal position is a runtime type error
        return
    meta = META_GOAL_ARGS.get(goal.indicator)
    if meta is not None:
        for pos in meta:
            yield from iter_goals(goal.args[pos])
    elif goal.name == "call" and goal.arity >= 2:
        target = goal.args[0]
        if isinstance(target, (Atom, Struct)):
            name, arity = indicator_of(target)
            closure = target.args if isinstance(target, Struct) else ()
            yield ((name, arity + goal.arity - 1),
                   tuple(closure) + tuple(goal.args[1:]))
    else:
        yield goal.indicator, tuple(goal.args)


def bindable_args(clauses: Iterable[Term]) -> Dict[Indicator, Set[int]]:
    """For each predicate *clauses* call, the argument positions a call
    site fills with anything but a variable occurring once in its clause
    (no modes needed: ``_`` is never bound)."""
    out: Dict[Indicator, Set[int]] = {}
    for clause in clauses:
        occurs = [id(t) for t in iter_subterms(clause) if isinstance(t, Var)]
        for ind, args in iter_goals(split_clause_term(clause)[1]):
            out.setdefault(ind, set()).update(
                pos for pos, arg in enumerate(args)
                if not (isinstance(deref(arg), Var)
                        and occurs.count(id(deref(arg))) == 1))
    return out
