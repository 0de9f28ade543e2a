"""The database integrity checking task (paper §5.3, Table 3).

The IC program — originally by F. Bry, measured by M. Dahmen — checks a
small personnel database against five integrity constraints "of very
different complexity".  Its three parts:

* **full test**  — naive: check every constraint against the database;
* **preprocess** — compute a *specialisation* of the constraints with
  respect to one update; "it does not require any access to the facts of
  the data base";
* **partial test** — use the specialisation to check only what the
  update can violate.

Table 3 times only the preprocess, because it "isolates the more
conventional use of a Prolog compiler": pure symbolic computation —
unification, term construction, rule unfolding, ground arithmetic
simplification.  We implement the specialiser as a Prolog meta-program
(a classic partial evaluator over denial-form constraints) so the
benchmark exercises the compiled engine exactly as the original did.

Database shape (§5.3):

* one relation with ~4000 tuples of seven fields
  (``employee(Id, Name, Dept, Salary, Grade, Mgr, Year)``);
* fifteen relations with up to 20 tuples, one or two fields;
* one relation with ~50 tuples, two fields (``project(Proj, Dept)``);
* seven rules; five integrity constraints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..engine.session import EduceStar
from ..wam.machine import Machine

N_EMPLOYEES = 4000
N_PROJECTS = 50

_FIRST = ["anna", "bernd", "clara", "dieter", "eva", "franz", "greta",
          "hans", "inge", "jurgen", "karin", "ludwig", "maria", "nils",
          "olga", "peter", "quirin", "rosa", "stefan", "tina"]

DEPTS = ["sales", "eng", "hr", "ops", "research", "finance", "legal",
         "support"]


# =====================================================================
# data generation
# =====================================================================

@dataclass
class ICData:
    employees: List[tuple]          # 4000 x 7
    projects: List[tuple]           # 50 x 2
    small_relations: Dict[str, List[tuple]]  # 15 relations

    def fact_text(self) -> str:
        """All facts as Prolog source (for main-memory engines)."""
        lines = []
        for row in self.employees:
            args = ",".join(_pl(v) for v in row)
            lines.append(f"employee({args}).")
        for row in self.projects:
            args = ",".join(_pl(v) for v in row)
            lines.append(f"project({args}).")
        for name, rows in self.small_relations.items():
            for row in rows:
                args = ",".join(_pl(v) for v in row)
                lines.append(f"{name}({args}).")
        return "\n".join(lines)


def _pl(v) -> str:
    return str(v) if not isinstance(v, str) else v


def generate(seed: int = 3, scale: float = 1.0) -> ICData:
    rng = random.Random(seed)
    n_emp = max(50, int(N_EMPLOYEES * scale))

    employees = []
    for i in range(1, n_emp + 1):
        name = f"{rng.choice(_FIRST)}_{i}"
        dept = DEPTS[i % len(DEPTS)]
        grade = 1 + i % 6
        salary = 20000 + grade * 8000 + rng.randrange(0, 7500)
        mgr = max(1, i - rng.randrange(1, 40))
        year = 1970 + i % 20
        employees.append((i, name, dept, salary, grade, mgr, year))

    projects = [(f"proj_{j:02d}", DEPTS[j % len(DEPTS)])
                for j in range(1, N_PROJECTS + 1)]

    small: Dict[str, List[tuple]] = {
        "dept": [(d,) for d in DEPTS],
        "grade_limit": [(g, 20000 + g * 8000 + 8000) for g in range(1, 7)],
        "grade_floor": [(g, 20000 + g * 8000) for g in range(1, 7)],
        "valid_year": [(y,) for y in range(1970, 1990)],
        "dept_head": [(d, 1 + i) for i, d in enumerate(DEPTS)],
        "dept_location": [(d, f"bldg_{i % 4}") for i, d in enumerate(DEPTS)],
        "exec_grade": [(g,) for g in (5, 6)],
        "junior_grade": [(g,) for g in (1, 2)],
        "holiday_class": [(g, 20 + 2 * g) for g in range(1, 7)],
        "bonus_rate": [(g, 5 * g) for g in range(1, 7)],
        "zone": [(i,) for i in range(1, 17)],
        "weekday": [(d,) for d in
                    ("mon", "tue", "wed", "thu", "fri")],
        "office": [(f"office_{i}",) for i in range(1, 13)],
        "budget_class": [(d, 1 + i % 3) for i, d in enumerate(DEPTS)],
        "review_cycle": [(g, 6 if g < 4 else 12) for g in range(1, 7)],
    }
    assert len(small) == 15
    for rows in small.values():
        assert len(rows) <= 20
    return ICData(employees, projects, small)


# =====================================================================
# rules, constraints and the specialiser (the Prolog program)
# =====================================================================

# Seven rules (views over the base relations).
RULES = r"""
% lint: disable=L103 rule/2
% lint: disable=L104 affected/3 resolves/2
% (rule/2 tables resume after the denial block — deliberate grouping by
% meaning, not by predicate; affected/resolves dispatch on literal
% *shape*, which first-argument indexing cannot see)

rule(emp_dept(I, D),      [employee(I, _, D, _, _, _, _)]).
rule(emp_salary(I, S),    [employee(I, _, _, S, _, _, _)]).
rule(emp_grade(I, G),     [employee(I, _, _, _, G, _, _)]).
rule(manager_of(I, M),    [employee(I, _, _, _, _, M, _)]).
rule(senior(I),           [employee(I, _, _, _, G, _, _), exec_grade(G)]).
rule(same_dept(I, J),     [employee(I, _, D, _, _, _, _),
                           employee(J, _, D, _, _, _, _)]).
rule(dept_of_project(P, D), [project(P, D)]).
"""

# Five constraints in denial form: `denial(Id, Literals)` is violated
# when Literals are jointly satisfiable.  Complexity increases with Id.
CONSTRAINTS = r"""
denial(1, [employee(_, _, D, _, _, _, _), not(dept(D))]).

denial(2, [employee(_, _, _, S, G, _, _), grade_limit(G, Max), S > Max]).

denial(3, [employee(_, _, _, S, G, _, _), grade_floor(G, Min), S < Min]).

denial(4, [manager_of(I, M), not(emp_exists(M)), I > 0]).

denial(5, [emp_dept(I, D), manager_of(I, M), emp_dept(M, DM),
           DM \== D, not(senior(M))]).

% Constraint 1 ("referenced departments exist") owns two denials: one
% per referencing relation.
denial(1, [project(_, D), not(dept(D))]).

rule(emp_exists(I), [employee(I, _, _, _, _, _, _)]).
"""

# The specialiser: a partial evaluator over denials.
SPECIALISER = r"""
% specialise(+Update, -Id, -Residual): for the given update, the residual
% literal list that must be UNsatisfiable after the update, per denial.
specialise(insert(Fact), Id, Residual) :-
    denial(Id, Lits),
    affected(Fact, Lits, Rest),
    simplify(Rest, Residual).

% affected(+Fact, +Lits, -Rest): unify Fact with one (possibly unfolded)
% positive literal; Rest is what remains to check.
affected(Fact, [L|Rest], Rest) :-
    \+ functor(L, not, 1),
    resolves(L, Fact).
affected(Fact, [L|Rest], [L|Out]) :-
    affected(Fact, Rest, Out).

% resolves(+Lit, +Fact): Lit matches Fact directly or through one level
% of rule unfolding.
resolves(L, Fact) :- L = Fact.
resolves(L, Fact) :-
    rule(L, Body),
    member(B, Body),
    B = Fact.

% simplify(+Lits, -Residual): evaluate ground comparisons, drop true
% literals, collapse to [fail] on a falsified ground literal, unfold
% view literals whose definition is a single rule.
simplify([], []).
simplify([L|Ls], Out) :-
    ground_comparison(L), !,
    ( holds(L) -> simplify(Ls, Out) ; Out = [fail] ).
simplify([not(L)|Ls], Out) :- !,
    simplify(Ls, Rest),
    Out = [not(L)|Rest].
simplify([L|Ls], Out) :-
    findall(B, rule(L, B), [Body]), !,
    append(Body, Ls, All),
    simplify(All, Out).
simplify([L|Ls], [L|Out]) :-
    simplify(Ls, Out).

ground_comparison(X > Y) :- number(X), number(Y).
ground_comparison(X < Y) :- number(X), number(Y).
ground_comparison(X >= Y) :- number(X), number(Y).
ground_comparison(X =< Y) :- number(X), number(Y).
ground_comparison(X \== Y) :- ground(X), ground(Y).
ground_comparison(X == Y) :- ground(X), ground(Y).

holds(X > Y) :- X > Y.
holds(X < Y) :- X < Y.
holds(X >= Y) :- X >= Y.
holds(X =< Y) :- X =< Y.
holds(X \== Y) :- X \== Y.
holds(X == Y) :- X == Y.

% preprocess(+Update, -Specialised): all residuals for the update.
preprocess(Update, Specialised) :-
    findall(Id-Residual, specialise(Update, Id, Residual), Specialised).

% preprocess_all(+Transaction, -Specialised): a transaction is a list of
% updates; residuals accumulate (Table 3's increasingly complex updates).
preprocess_all([], []).
preprocess_all([U|Us], All) :-
    preprocess(U, S1),
    preprocess_all(Us, Rest),
    append(S1, Rest, All).
"""

PROGRAM = RULES + CONSTRAINTS + SPECIALISER

# The five updates of Table 3 — transactions of increasing
# specialisation complexity (the paper's times grow monotonically).
UPDATES: List[str] = [
    # 1: one insert into a small relation — no denial resolves with it.
    "[insert(dept(marketing))]",
    # 2: a project insert — one simple denial.
    "[insert(project(proj_99, warehouse))]",
    # 3: an employee insert — denials 1-5, view unfolding included.
    "[insert(employee(9002, neu_2, eng, 99000, 2, 17, 1985))]",
    # 4: a two-insert transaction.
    "[insert(employee(9003, neu_3, hr, 46000, 4, 8999, 1986)),"
    " insert(project(proj_98, hr))]",
    # 5: a three-insert transaction, maximal unfolding work.
    "[insert(employee(9004, neu_4, sales, 61000, 5, 42, 1987)),"
    " insert(employee(9005, neu_5, legal, 30000, 1, 9004, 1988)),"
    " insert(project(proj_97, legal))]",
]


# =====================================================================
# engine loaders
# =====================================================================

def load_good_compiler(machine: Optional[Machine] = None) -> Machine:
    """'A Good Prolog Compiler' (Table 3's GC): the WAM, all in main
    memory, no EDB."""
    machine = machine or Machine()
    machine.consult(PROGRAM)
    return machine


def load_educestar(session: Optional[EduceStar] = None,
                   program_in_edb: bool = True) -> EduceStar:
    """Educe*: the specialiser stored in the EDB as compiled code (the
    configuration that makes Table 3 interesting)."""
    session = session or EduceStar()
    if program_in_edb:
        session.store_program(PROGRAM)
    else:
        session.consult(PROGRAM)
    return session


def load_database(engine, data: ICData) -> None:
    """Load the base facts (needed by full/partial test, NOT by
    preprocess)."""
    engine.consult(data.fact_text())


# =====================================================================
# the three test parts
# =====================================================================

def run_preprocess(engine, update: str):
    """One preprocess run over a transaction; returns the specialised
    constraint list."""
    goal = f"preprocess_all({update}, S)"
    solution = engine.solve_once(goal)
    if solution is None:
        raise RuntimeError(f"preprocess failed for {update}")
    return solution["S"]


CHECKER = r"""
violated(Id) :- denial(Id, Lits), sat(Lits).

sat([]).
sat([not(L)|Ls]) :- !, \+ sat_lit(L), sat(Ls).
sat([L|Ls]) :- sat_lit(L), sat(Ls).

sat_lit(X > Y) :- !, X > Y.
sat_lit(X < Y) :- !, X < Y.
sat_lit(X >= Y) :- !, X >= Y.
sat_lit(X =< Y) :- !, X =< Y.
sat_lit(X \== Y) :- !, X \== Y.
sat_lit(X == Y) :- !, X == Y.
sat_lit(fail) :- !, fail.
sat_lit(L) :- rule(L, Body), sat(Body).
sat_lit(L) :- \+ rule(L, _), call(L).
"""


def run_full_test(engine) -> List[int]:
    """Naive check of every constraint against the database (requires
    :func:`load_database` and :data:`CHECKER` consulted)."""
    out = []
    for sol in engine.solve("violated(Id)"):
        value = sol["Id"]
        if value not in out:
            out.append(value)
    return sorted(out)


def run_partial_test(engine, specialised) -> List[int]:
    """Check only the residual literals produced by preprocess."""
    from ..terms import Struct, list_to_python
    violated = []
    for pair in list_to_python(specialised):
        assert isinstance(pair, Struct) and pair.indicator == ("-", 2)
        cid, residual = pair.args
        items = list_to_python(residual)
        if not items:
            violated.append(cid)  # residual proved: outright violation
            continue
        from ..lang.writer import term_to_text
        goal = f"sat({term_to_text(residual)})"
        if engine.solve_once(goal) is not None:
            violated.append(cid)
    return violated
