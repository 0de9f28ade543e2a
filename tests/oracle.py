"""The differential oracle: one generator, one harness, one rule for
"the same answers".

Educe* answers a goal many ways — consulted or stored, at either
pre-unification depth, with the Datalog router off or sending a goal
bottom-up, over facts clustered by declared, derived or default keys,
through ``db_select``/``db_join``, on a follower, on the store reopened,
in a second process.  The paper's premise is that they are the same
program: compiled code means its source-level proof search (Cervesato,
PAPERS.md).  So every configuration is checked against
``engine/interpreter.py``, which resolves surface terms and compiles
nothing.

*Comparison rule.*  A goal's answers are a multiset of answer texts
(bindings by variable name, unbound variables renamed by first
occurrence; an error is one answer naming its type).  A goal the Datalog
engine answered bottom-up has set semantics: it is compared as a set and
must be duplicate-free.

*A case* is facts relations, stored rule procedures and rounds; each
round applies a mutation script, then asks its goals twice in one
session.  Stored configurations write through the store
(``assert_external``, ``retract_clause``, ``db_drop`` and re-store);
consulted ones and the interpreter use ``assertz``/``retract`` on
``dynamic`` procedures.

*Generator limits.*  Bodies use only built-ins the interpreter has (it
lacks ``setof``, ``bagof``, ``aggregate_all``, ``keysort``, ``compare``
and ``atom_chars``).  No head and no call repeats a variable, so no case
can build a cyclic term and no occurs check is needed.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest

from repro import EduceStar
from repro.engine.interpreter import Interpreter
from repro.errors import ExistenceError, ReproError
from repro.lang.reader import Reader
from repro.lang.writer import term_to_text
from repro.relational.datalog import strategy
from repro.terms import Atom, Struct, Var, deref, rename_term
from repro.workloads import graphs

Indicator = Tuple[str, int]
#: ``(goal, answer multiset, answered bottom-up)`` per goal asked
Results = List[Tuple[str, Counter, bool]]

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# =====================================================================
# Answers and the comparison rule
# =====================================================================


def answer_text(bindings) -> str:
    """One answer as text: ``Name=Value`` by variable name, each unbound
    variable named by its first occurrence."""
    names: Dict[int, Atom] = {}

    def canon(term):
        term = deref(term)
        if isinstance(term, Var):
            return names.setdefault(id(term), Atom(f"_{len(names)}"))
        if isinstance(term, Struct):
            return Struct(term.name, tuple(canon(a) for a in term.args))
        return term
    return ", ".join(f"{name}={term_to_text(canon(value))}"
                     for name, value in sorted(bindings.items())
                     if not name.startswith("_"))


def answers(engine, goal: str) -> Tuple[Counter, bool]:
    """*engine*'s answers to *goal* and whether the Datalog engine gave
    them bottom-up."""
    datalog = getattr(engine, "datalog", None)
    before = datalog.bottomup if datalog else 0
    try:
        found = Counter(answer_text(getattr(s, "bindings", s))
                        for s in engine.solve(goal))
    except ReproError as exc:
        found = Counter({f"error {type(exc).__name__}": 1})
    return found, bool(datalog and datalog.bottomup > before)


def disagreement(expected: Counter, got: Counter,
                 bottom_up: bool) -> Optional[str]:
    """None when *got* answers as *expected* does, else why not."""
    if bottom_up:
        if max(got.values(), default=1) > 1:
            return "bottom-up answers repeat"
        if set(got) != set(expected):
            return f"answer sets differ: {_diff(expected, got)}"
    elif got != expected:
        return f"answer multisets differ: {_diff(expected, got)}"
    return None


def _diff(expected: Counter, got: Counter) -> str:
    return (f"missing {sorted((expected - got).elements())[:5]}, "
            f"extra {sorted((got - expected).elements())[:5]}")


def assert_agree(expected: Results, got: Results, label: str) -> None:
    assert len(got) == len(expected), label
    for (goal, want, _), (_goal, found, bottom_up) in zip(expected, got):
        why = disagreement(want, found, bottom_up)
        assert why is None, f"{label}: {goal}: {why}"


# =====================================================================
# Cases
# =====================================================================

@dataclass
class Case:
    name: str
    #: facts relations: ``store_relation`` when stored, clauses when
    #: consulted
    relations: Dict[str, List[tuple]]
    #: the key dims of the ``declared`` layout
    key_dims: Dict[str, List[int]]
    #: rule procedures, each clause a text without its full stop
    rules: Dict[Indicator, List[str]]
    #: ``(mutation script, goals)`` per round
    rounds: List[Tuple[List[tuple], List[str]]]
    #: facts-only conjunctions phrased with ``db_select``/``db_join``
    phrasings: Dict[str, str] = field(default_factory=dict)
    #: how often a round asks each goal in one session
    repeats: int = 2
    #: the program text runs a goal directive between the first and
    #: the later clauses of each rule procedure
    split: bool = False

    def dynamic(self) -> List[Indicator]:
        """Every procedure a mutation script writes."""
        out = []
        for ops, _goals in self.rounds:
            for op in ops:
                if op[0] != "add_rules" and op[1] not in out:
                    out.append(op[1])
        return out

    def source(self, facts: bool = True) -> str:
        """The case as one program text to consult; without *facts*,
        the rule procedures that ``store_program`` stores (relations go
        through ``store_relation``: declaring one dynamic before it is
        stored would shadow it)."""
        declared = [f"{n}/{a}" for n, a in self.dynamic()
                    if facts or (n, a) in self.rules]
        lines = [f":- dynamic {', '.join(declared)}."] if declared else []
        if facts:
            lines += [_fact(name, row) for name, rows
                      in self.relations.items() for row in rows]
        for clauses in self.rules.values():
            lines += [f"{c}." for c in clauses]
            if self.split and len(clauses) > 1:
                lines.insert(len(lines) - len(clauses) + 1, ":- true.")
        return "\n".join(lines) + "\n"


def _fact(name: str, row: tuple) -> str:
    return f"{name}({', '.join(map(str, row))})."


def _split(clause: str) -> Tuple[str, str]:
    head, _, body = clause.partition(" :- ")
    return head, body or "true"


# =====================================================================
# Configurations
# =====================================================================

#: how a configuration differs from a live in-memory store at the
#: default depth and routing, facts stored before the rules
_DEFAULTS = {"load": "store", "preunify_depth": "full", "datalog": "auto",
             "bottom_up": False, "layout": "default", "where": "live",
             "db": False}

#: every way of answering a goal the oracle checks in process; the
#: interpreter is the reference, and :func:`second_process` answers
#: from the files a ``durable`` run leaves
CONFIGS = {
    "consulted": {"load": "consult"},
    "stored": {},
    "preunify-none": {"preunify_depth": "none", "layout": "derived"},
    "datalog-off": {"datalog": "off", "layout": "declared"},
    "bottom-up": {"bottom_up": True, "layout": "derived"},
    "bottom-up-declared": {"bottom_up": True, "layout": "declared"},
    "db-phrasing": {"db": True, "layout": "derived"},
    "follower": {"where": "follower", "bottom_up": True},
    "reopened": {"where": "reopened", "layout": "derived"},
    "durable": {"where": "durable"},
}


@dataclass
class Run:
    results: Results
    #: key origin of every facts relation, per round (stored configs)
    origins: List[Dict[str, str]] = field(default_factory=list)
    reclusters: int = 0
    #: merges of the store's clause relation (grid compaction)
    compactions: int = 0


def run(case: Case, name: str, workdir: Optional[str] = None) -> Run:
    """Play *case* in configuration *name* (``"interpreter"`` or a key
    of :data:`CONFIGS`); durable configurations keep their files under
    *workdir*."""
    if name == "interpreter":
        engine = Interpreter()
        engine.consult(case.source())
        return _play(case, _Source(engine), lambda _round: engine, {})
    config = {**_DEFAULTS, **CONFIGS[name]}
    with pytest.MonkeyPatch.context() as patch:
        if config["bottom_up"]:
            # test relations are far below DEFAULT_MIN_ROWS (256)
            patch.setattr(strategy, "DEFAULT_MIN_ROWS", 0)
        if config["load"] == "consult":
            kb = EduceStar()
            kb.consult(case.source())
            return _play(case, _Source(kb), lambda _round: kb, {})
        return _run_stored(case, config, workdir)


def _load(kb: EduceStar, case: Case, layout: str) -> None:
    if layout == "derived":
        kb.store_program(case.source(facts=False))
    for name, rows in case.relations.items():
        kb.store_relation(name, rows, key_dims=case.key_dims[name]
                          if layout == "declared" else None)
    if layout != "derived":
        kb.store_program(case.source(facts=False))


def _run_stored(case: Case, config: dict, workdir: Optional[str]) -> Run:
    kwargs = {"preunify_depth": config["preunify_depth"],
              "datalog": config["datalog"]}
    where = config["where"]
    path = os.path.join(workdir or "", "kb.edb")
    if where == "live":
        kb = EduceStar(**kwargs)
    else:
        os.makedirs(workdir, exist_ok=True)
        kb = EduceStar.create(path, **kwargs)
    _load(kb, case, config["layout"])
    writer = _Store(kb, case, config["layout"])
    replica = None
    if where == "follower":
        from repro.replication import Replica
        kb.save(path)                    # the bootstrap checkpoint
        replica = Replica("r0", path, os.path.join(workdir, "r0"),
                          workers=1, start=False)

    def reader(round_no: int) -> EduceStar:
        if where == "durable" and round_no == 1:
            writer.kb.save(path)     # later rounds stay in the log
        if where == "reopened":
            # odd rounds from a checkpoint, even ones by log replay
            if round_no % 2:
                writer.kb.save(path)
            writer.kb = EduceStar.open(path, **kwargs)
        elif where == "follower":
            if round_no == 1:
                writer.kb.save(path)     # the follower re-bootstraps
            _catch_up(replica, writer.kb)
            return EduceStar(store=replica.store, **kwargs)
        return writer.kb

    try:
        return _play(case, writer, reader,
                     case.phrasings if config["db"] else {})
    finally:
        if replica is not None:
            replica.shutdown()


def _catch_up(replica, primary: EduceStar, steps: int = 100) -> None:
    """Step *replica* until it has applied everything *primary* wrote."""
    for _ in range(steps):
        if (replica.applied_epoch == primary.store.mutation_epoch
                and not replica._superseded()):
            return
        replica._step(replica.poll_interval)
    raise AssertionError(
        f"follower stuck at epoch {replica.applied_epoch}, primary at "
        f"{primary.store.mutation_epoch}")


def _play(case: Case, writer, reader, phrase: Dict[str, str]) -> Run:
    """Run every round: *writer* applies the round's script, then the
    session ``reader(round)`` returns asks each goal (in its *phrase*,
    if it has one) ``case.repeats`` times."""
    out = Run([])
    for round_no, (ops, goals) in enumerate(case.rounds):
        for op in ops:
            writer.apply(op)
        engine = reader(round_no)
        for _repeat in range(case.repeats):
            for goal in goals:
                found, bottom_up = answers(engine, phrase.get(goal, goal))
                out.results.append((goal, found, bottom_up))
        store = getattr(getattr(writer, "kb", None), "store", None)
        if store is not None:
            out.origins.append({p.name: p.key_origin
                                for p in store.procedures()
                                if p.name in case.relations})
            out.reclusters = store.edb_reclusters
            out.compactions = store.clauses_relation.grid.merges
    return out


class _Source:
    """Mutations of a consulted program: ``assertz``/``retract`` on its
    dynamic procedures (the interpreter and a consulted session)."""

    def __init__(self, engine):
        self.engine = engine

    def apply(self, op: tuple) -> None:
        kind, ind = op[0], op[1]
        solve_once = self.engine.solve_once
        if kind == "add_rules":
            self.engine.consult(ind)
        elif kind == "assert":
            assert solve_once(f"assertz(({op[2]}))") is not None
        elif kind == "retract":
            head, body = _split(op[2])
            assert solve_once(f"retract(({head} :- {body}))") is not None
        # retract_missing: nothing is stored, so nothing is refused
        if kind in ("drop", "replace"):
            pattern = f"{ind[0]}({', '.join(['_'] * ind[1])})"
            while solve_once(f"retract(({pattern} :- _))") is not None:
                pass
        if kind in ("store", "replace"):
            for clause in _clauses(ind, op[2]):
                assert solve_once(f"assertz(({clause}))") is not None


def _clauses(ind: Indicator, content) -> List[str]:
    """A ``store`` or ``replace`` op's content as clause texts (a
    relation's rows become facts)."""
    return [_fact(ind[0], c)[:-1] if isinstance(c, tuple) else c
            for c in content]


class _Store:
    """Mutations of a store: ``assert_external``, ``retract_clause`` by
    clause id, ``db_drop`` and re-store."""

    def __init__(self, kb: EduceStar, case: Case, layout: str):
        self.kb = kb
        self.case = case
        self.layout = layout
        #: ``(clause id, text)`` of every stored rules procedure
        self.ids = {ind: list(enumerate(texts))
                    for ind, texts in case.rules.items()}

    def apply(self, op: tuple) -> None:
        kind, ind = op[0], op[1]
        kb = self.kb
        if kind == "add_rules":
            kb.store_program(ind)
        elif kind == "assert":
            kb.assert_external(op[2])
            if ind[0] not in self.case.relations:
                ids = self.ids[ind]
                ids.append((max((c for c, _ in ids), default=-1) + 1,
                            op[2]))
        elif kind == "retract":
            ids = self.ids[ind]
            at = next(i for i, (_c, text) in enumerate(ids)
                      if text == op[2])
            kb.store.retract_clause(*ind, ids.pop(at)[0])
        elif kind == "retract_missing":
            epoch = kb.store.mutation_epoch
            with pytest.raises(ExistenceError):
                kb.store.retract_clause(*ind, 10_000)
            assert kb.store.mutation_epoch == epoch
        if kind in ("drop", "replace"):
            assert kb.solve_once(f"db_drop({ind[0]}/{ind[1]})") is not None
        if kind in ("store", "replace"):
            if ind[0] in self.case.relations:
                kb.store_relation(ind[0], op[2], key_dims=(
                    self.case.key_dims[ind[0]]
                    if self.layout == "declared" else None))
            else:
                kb.store_program("".join(f"{c}.\n" for c in op[2]))
                self.ids[ind] = list(enumerate(op[2]))


# =====================================================================
# The oracle
# =====================================================================

def expected(case: Case) -> Results:
    """The interpreter's answers: what every configuration must give
    (kept per case name: a case is generated from its name)."""
    if case.name not in _EXPECTED:
        _EXPECTED[case.name] = run(case, "interpreter").results
    return _EXPECTED[case.name]


_EXPECTED: Dict[str, Results] = {}


def check(case: Case, configs, workdir: str) -> Dict[str, Run]:
    """Assert every configuration in *configs* answers *case* as the
    interpreter does; returns each configuration's run."""
    want = expected(case)
    runs = {}
    for name in configs:
        runs[name] = run(case, name, os.path.join(workdir, name))
        assert_agree(want, runs[name].results, f"{case.name} [{name}]")
    return runs


def check_text(program: str, goals: List[str]) -> None:
    """Assert that *program*, consulted and stored, answers each goal
    as the interpreter does — the oracle for a hand-written program."""
    reference = Interpreter()
    reference.consult(program)
    want = [(goal, *answers(reference, goal)) for goal in goals]
    for load in ("consult", "store_program"):
        kb = EduceStar()
        getattr(kb, load)(program)
        assert_agree(want, [(goal, *answers(kb, goal)) for goal in goals],
                     f"{load} {program!r}")


def second_process(jobs: List[Tuple[str, List[str]]]) -> List[Results]:
    """Answer each ``(store path, goals)`` job from a saved store in one
    fresh Python process (its own dictionary, library image and aux
    names)."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from oracle import answer_saved; "
         "json.dump(answer_saved(json.load(sys.stdin)), sys.stdout)"],
        input=json.dumps(jobs), capture_output=True, text=True,
        timeout=600, cwd=TESTS,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([SRC, TESTS])})
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [[(goal, Counter(found), bottom_up)
             for goal, found, bottom_up in job]
            for job in json.loads(proc.stdout)]


def answer_saved(jobs) -> list:
    """The child side of :func:`second_process`."""
    out = []
    for path, goals in jobs:
        kb = EduceStar.open(path)
        out.append([(goal, *answers(kb, goal)) for goal in goals])
    return out


# =====================================================================
# The generator
# =====================================================================

ATOMS = ("a", "b", "c")
COLOURS = ("red", "blue")
#: answers a generated goal may have; a goal above it is left out of
#: its case (runtime, not coverage: every shape stays in the mix)
ANSWER_CAP = 100


@functools.lru_cache(maxsize=None)
def generate(seed: int) -> Case:
    """A random case: a workload graph family with colours, weights and
    marks; rule procedures over it with nested heads and control
    constructs, in odd seeds cut by a goal directive after their first
    clause; three rounds with two mutation scripts between them."""
    rng = random.Random(seed)
    edges = _graph(rng, seed)
    nodes = graphs.nodes_of(edges)
    relations = {
        "edge": edges,
        "colour": [(v, rng.choice(COLOURS)) for v in nodes],
        "w": [(v, rng.randrange(4), rng.choice(ATOMS)) for v in nodes],
        "m": [(rng.choice(ATOMS), v)
              for v in rng.sample(nodes, min(4, len(nodes)))],
    }
    key_dims = {name: rng.sample(range(len(rows[0])),
                                 rng.randint(1, len(rows[0])))
                for name, rows in relations.items()}
    gen = _Generator(rng, nodes)
    # wv/2 binds w/3 on a proper subset (a derived layout); nothing
    # binds m/2 until probe/2 arrives in the last round (a re-cluster)
    rules = {("reach", 2): [line.rstrip(".") for line in
                            graphs.REACH_PROGRAM.splitlines()[2:]],
             ("wv", 2): ["wv(X, N) :- w(X, N, _)"]}
    for i in range(rng.randint(3, 5)):
        gen.procs.append((f"p{i}", rng.randint(1, 3)))
        rules[gen.procs[i]] = [gen.clause(i)
                               for _ in range(rng.randint(2, 5))]
    procs = gen.procs

    last = nodes[-1]
    goals = ["reach(n0, X)", "reach(X, Y)", f"reach(X, {last})",
             "wv(X, N)", "w(X, 1, Y)", "m(X, Y)", "colour(X, red)"]
    for name, arity in procs:
        goals.append(f"{name}({', '.join(f'X{k}' for k in range(arity))})")
        goals.append(gen.bound_goal(name, arity, rules[(name, arity)]))
    phrasings = {
        "edge(n0, Y), colour(Y, C)":
            "db_select(edge/2, edge(n0, _), oracle_s), "
            "db_join(oracle_s/2, 2, colour/2, 1, oracle_j), "
            "oracle_j(_, Y, _, C)",
        "edge(X, Y), w(Y, N, b)":
            "db_select(w/3, w(_, _, b), oracle_w), "
            "db_join(edge/2, 2, oracle_w/3, 1, oracle_k), "
            "oracle_k(X, Y, _, N, _)",
    }
    goals += list(phrasings)

    current = {ind: list(texts) for ind, texts in rules.items()}
    first = [("assert", ("edge", 2), f"edge({last}, z1)"),
             ("assert", ("w", 3), "w(z1, 2, c)")]
    target = rng.randrange(len(procs))
    first.append(("assert", procs[target],
                  gen.clause(target, control=True)))
    current[procs[target]].append(first[-1][2])
    first += gen.retracts(current)
    first.append(("retract_missing", rng.choice(procs)))

    index = rng.randrange(len(procs))
    replaced = procs[index]
    kept = rng.sample(current[replaced],
                      rng.randint(1, len(current[replaced])))
    kept.append(gen.clause(index, control=True))
    current[replaced] = kept
    second = [("add_rules", "probe(X, Y) :- m(_, X), w(_, _, Y).\n"),
              ("replace", replaced, list(kept)),
              ("replace", ("m", 2), [(rng.choice(ATOMS), v) for v in
                                     rng.sample(nodes, min(3, len(nodes)))]),
              ("assert", ("colour", 2), "colour(z1, red)")]
    second += gen.retracts(current)

    case = Case(f"seed{seed}", relations, key_dims, rules,
                [([], goals), (first, goals),
                 (second, goals + ["probe(X, Y)"])], phrasings,
                split=seed % 2 == 1)
    return _capped(case)


def _graph(rng, seed: int):
    family = rng.choice(["chain", "tree", "dag"])
    if family == "chain":
        return graphs.chain(rng.randrange(3, 10))
    if family == "tree":
        return graphs.k_ary_tree(rng.randrange(5, 14), rng.choice([2, 3]))
    nodes = rng.randrange(5, 9)
    return graphs.random_dag(nodes, rng.randrange(nodes, 2 * nodes), seed)


def _capped(case: Case) -> Case:
    """*case* without the goals that have more than :data:`ANSWER_CAP`
    answers in some round."""
    engine = Interpreter()
    engine.consult(case.source())
    source, heavy = _Source(engine), set()
    for ops, goals in case.rounds:
        for op in ops:
            source.apply(op)
        heavy.update(g for g in goals if g not in heavy
                     and _count(engine, g) > ANSWER_CAP)
    case.rounds = [(ops, [g for g in goals if g not in heavy])
                   for ops, goals in case.rounds]
    return case


def _count(engine, goal: str) -> int:
    """Answers to *goal*, up to one past the cap (an error is one)."""
    try:
        return sum(1 for _ in engine.solve(goal, limit=ANSWER_CAP + 1))
    except ReproError:
        return 1


class _Generator:
    """Clause texts: heads with nested structures and lists, bodies with
    calls, control constructs and meta-goals.  No head and no call
    repeats a variable; procedure ``p<i>`` calls only ``p<j>``, j < i,
    so every case terminates."""

    def __init__(self, rng, nodes):
        self.rng = rng
        self.nodes = nodes
        #: ``p<i>`` at index i
        self.procs: List[Indicator] = []
        #: the procedures the clause being generated may call
        self.lower: List[Indicator] = []
        self.nvars = 0

    # -------------------------------------------------------------- terms

    def _var(self) -> str:
        self.nvars += 1
        return f"V{self.nvars}"

    def _constant(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            return rng.choice(ATOMS)
        if roll < 0.7:
            return rng.choice(self.nodes[:4])
        return str(rng.randrange(4))

    def _head_arg(self, depth: int, pool: List[str]) -> str:
        """A head argument — the ``test_properties`` head shapes."""
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.35:
            var = self._var()
            pool.append(var)
            return var
        if roll < 0.6:
            return self._constant()
        if roll < 0.75:
            return f"f({self._head_arg(depth + 1, pool)})"
        if roll < 0.85:
            return (f"g({self._head_arg(depth + 1, pool)}, "
                    f"{self._head_arg(depth + 1, pool)})")
        items = [self._head_arg(depth + 1, pool)
                 for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5 or not items:
            return f"[{', '.join(items)}]"
        tail = self._var()
        pool.append(tail)
        return f"[{', '.join(items)}|{tail}]"

    def _ground(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.6:
            return self._constant()
        if roll < 0.75:
            return f"f({self._ground(depth + 1)})"
        if roll < 0.85:
            return f"g({self._ground(depth + 1)}, {self._ground(depth + 1)})"
        return f"[{', '.join(self._ground(depth + 1) for _ in range(2))}]"

    # -------------------------------------------------------------- goals

    def _pick(self, pool: List[str], used: List[str]) -> str:
        """A variable from *pool* not yet in this call, or a fresh one."""
        free = [v for v in pool if v not in used]
        var = (self.rng.choice(free) if free and self.rng.random() < 0.7
               else self._var())
        used.append(var)
        return var

    def _simple(self, pool: List[str]) -> Tuple[str, List[str]]:
        """One goal with no control construct, and the fresh variables
        it may bind."""
        rng = self.rng
        used: List[str] = []
        kind = rng.randrange(12 if self.lower else 11)
        if kind == 0:
            a = self._pick(pool, used) if rng.random() < 0.7 \
                else rng.choice(self.nodes)
            b = self._var()
            return f"edge({a}, {b})", [b]
        if kind == 1:
            a = self._pick(pool, used)
            c = self._var() if rng.random() < 0.6 else rng.choice(COLOURS)
            return f"colour({a}, {c})", [c] if c[0] == "V" else []
        if kind == 2:
            a, n = self._pick(pool, used), self._var()
            return f"wv({a}, {n})", [n]
        if kind == 3:
            a, b = self._pick(pool, used), self._var()
            return f"reach({a}, {b})", [b]
        if kind == 4:
            a = self._pick(pool, used)
            test = rng.choice(["{a} == {c}", "{a} \\== {c}", "{a} @< {c}",
                               "{a} \\= {c}", "atom({a})", "integer({a})",
                               "compound({a})", "nonvar({a})", "var({a})"])
            return test.format(a=a, c=self._constant()), []
        if kind == 5:
            a, f = self._pick(pool, used), self._var()
            return f"{a} = f({f})", [f]
        if kind == 6:
            m = self._var()
            return f"member({m}, [a, 1, f(b), {rng.choice(self.nodes)}])", [m]
        if kind == 7:
            a, b = self._pick(pool, used), self._var()
            return (f"(integer({a}) -> {b} is {a} + 1 ; {b} = none)", [b])
        if kind == 8:       # a comparison on a weight
            a, n = self._pick(pool, used), self._var()
            test = rng.choice(["=:=", "=\\=", "<", ">", "=<", ">="])
            return (f"(wv({a}, {n}), {n} {test} {rng.randrange(4)})", [n])
        if kind == 9:       # a fresh permanent target, used after a call
            a, n, t, b = (self._pick(pool, used), self._var(), self._var(),
                          self._var())
            return (f"(wv({a}, {n}), {t} is {n} * 2 + 1, edge({a}, {b}), "
                    f"{t} > {n})", [n, t, b])
        if kind == 10:      # an expression bound at run time
            a, n, e, r = (self._pick(pool, used), self._var(), self._var(),
                          self._var())
            return (f"(wv({a}, {n}), {e} = {n} - 2, {r} is abs({e}) * {e})",
                    [n, e, r])
        # a call to a lower procedure
        name, arity = rng.choice(self.lower)
        args, out = [], []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.4:
                args.append(self._pick(pool, used))
            elif roll < 0.7:
                var = self._var()
                args.append(var)
                out.append(var)
            else:
                args.append(self._ground(1))
        return f"{name}({', '.join(args)})", out

    def _goal(self, pool: List[str], control: bool) -> str:
        """One body goal; a control construct or meta-goal when
        *control* (these compile to aux procedures)."""
        rng = self.rng
        if not control and rng.random() < 0.6:
            goal, out = self._simple(pool)
            pool.extend(out)
            return goal
        kind = rng.randrange(8)
        inner, inner_out = self._simple(pool)
        if kind == 0:
            other, _ = self._simple(pool)
            return f"({inner} ; {other})"
        if kind == 1:
            then, _ = self._simple(pool)
            other, _ = self._simple(pool)
            return f"({inner} -> {then} ; {other})"
        if kind == 2:
            return f"\\+ {inner}"
        if kind == 3:
            result = self._var()
            template = inner_out[0] if inner_out else "t"
            lists = [f"length({result}, {self._var()})",
                     f"msort({result}, {self._var()})",
                     f"sort({result}, {self._var()})", "true"]
            pool.append(result)
            return (f"findall({template}, {inner}, {result}), "
                    f"{rng.choice(lists)}")
        if kind == 4:
            then, _ = self._simple(pool + inner_out)
            return f"forall({inner}, {then})"
        if kind == 5:
            pool.extend(inner_out)
            return f"once({inner})"
        if kind == 6:
            pool.extend(inner_out)
            return f"call({inner})"
        a = self._pick(pool, [])
        f, k = self._var(), self._var()
        pool.extend([f, k])
        return f"(nonvar({a}) -> functor({a}, {f}, {k}) ; {f} = v, {k} = 0)"

    def clause(self, index: int, control: bool = False) -> str:
        """A clause of procedure ``p<index>``; with *control* its first
        goal is a control construct or a meta-goal."""
        rng = self.rng
        name, arity = self.procs[index]
        self.nvars = 0
        self.lower = self.procs[:index]
        pool: List[str] = []
        args = [self._head_arg(0, pool) for _ in range(arity)]
        head = f"{name}({', '.join(args)})"
        body = [self._goal(pool, control and k == 0)
                for k in range(rng.randint(1 if control else 0, 3))]
        if body and rng.random() < 0.1:
            body.insert(rng.randrange(len(body) + 1), "!")
        return f"{head} :- {', '.join(body)}" if body else head

    def bound_goal(self, name: str, arity: int, clauses: List[str]) -> str:
        """A goal on ``name/arity`` with some arguments bound: one of
        its heads with each variable a constant or a query variable,
        or random ground terms and query variables."""
        rng = self.rng
        if rng.random() < 0.5:
            names = iter(range(100))
            head = _split(rng.choice(clauses))[0]
            return re.sub(r"\bV\d+\b", lambda _m: (
                f"Y{next(names)}" if rng.random() < 0.5
                else self._constant()), head)
        args = [f"Y{pos}" if rng.random() < 0.5 else self._ground()
                for pos in range(arity)]
        return f"{name}({', '.join(args)})"

    def retracts(self, current) -> List[tuple]:
        """Up to two ``retract`` ops, each removing from *current* a
        clause that ``retract/1``'s first-match rule removes too."""
        rng, ops = self.rng, []
        for ind in rng.sample(self.procs, min(2, len(self.procs))):
            clauses = current[ind]
            candidates = [k for k in range(len(clauses))
                          if _first_match(clauses, k)]
            if len(clauses) > 1 and candidates:
                text = clauses.pop(rng.choice(candidates))
                ops.append(("retract", ind, text))
        return ops


_READER = Reader()


def _clause_term(text: str):
    head, body = _split(text)
    return _READER.read_term(f"({head} :- {body})")


def _first_match(clauses: List[str], k: int) -> bool:
    """Is clause *k* the first clause ``retract`` of its own text
    would remove (up to an identical text)?"""
    unifier = Interpreter(load_library=False)
    pattern = _clause_term(clauses[k])
    for j, text in enumerate(clauses):
        trail: list = []
        hit = unifier._unify(pattern, rename_term(_clause_term(text)),
                             trail)
        for var in trail:
            var.ref = None
        if hit:
            return text == clauses[k]
    return False


# =====================================================================
# Fixed cases
# =====================================================================

def graph_case(case: dict, seed: int) -> Case:
    """A ``workloads.graphs.differential_cases`` case: its relations,
    its rule program and one round of its goals, each asked once."""
    rules: Dict[Indicator, List[str]] = {}
    for line in case["program"].splitlines():
        if line.strip() and not line.startswith("%"):
            head = _READER.read_term(line.split(" :- ")[0])
            rules.setdefault((head.name, head.arity), []).append(
                line.strip().rstrip("."))
    return Case(f"{case['name']}-s{seed}", case["relations"], {}, rules,
                [([], case["goals"])], repeats=1)


@functools.lru_cache(maxsize=None)
def compaction_case(procs: int = 30, clauses: int = 20) -> Case:
    """Enough stored clauses that dropping and re-storing 60 % of the
    procedures crosses ``BangGrid.compact_every`` (256) deletes in the
    store's clause relation — the schedule that once lost re-stored
    clauses to the grid's region pruning."""
    rng = random.Random(procs * clauses)
    rules = {}
    shapes = ["f(V, [a|T])", "g(k{j}, V)", "[V]", "h(k{j})"]
    for i in range(procs):
        rules[(f"c{i}", 2)] = [
            f"c{i}(k{j}, {rng.choice(shapes).format(j=j)})"
            for j in range(clauses)]
    goals = [f"c{i}(X, Y)" for i in range(procs)] + \
        [f"c{i}(k{i % clauses}, Y)" for i in range(0, procs, 5)]
    dropped = sorted(rng.sample(sorted(rules), procs * 3 // 5))
    ops = [("drop", ind) for ind in dropped] + \
        [("store", ind, rules[ind]) for ind in dropped]
    return Case("compaction", {}, {}, rules, [([], goals), (ops, goals)])
