"""repro — a reproduction of Educe* (Bocca, ICDE 1990).

"Compilation of Logic Programs to Implement Very Large Knowledge Base
Systems — A Case Study: Educe*" couples a WAM-based Prolog compiler with
a relational storage engine, storing rules as *compiled code* in the
External Data Base instead of source text.

Quickstart
----------
>>> from repro import EduceStar
>>> kb = EduceStar()
>>> kb.store_relation("parent", [("tom", "bob"), ("bob", "ann")])
>>> kb.store_program("anc(X,Y) :- parent(X,Y). "
...                  "anc(X,Y) :- parent(X,Z), anc(Z,Y).")
>>> [str(s["Y"]) for s in kb.solve("anc(tom, Y)")]
['bob', 'ann']

Layers (bottom-up)
------------------
``repro.lang``        Prolog reader/writer
``repro.dictionary``  segmented closed-hash functor dictionary (§3.3.1)
``repro.wam``         compiler + emulator + GC (§2.1, §3.2, §3.3.2)
``repro.bang``        BANG-style paged multidimensional storage (§2.2, §4)
``repro.edb``         compiled code in secondary storage, pre-unification,
                      the dynamic loader (§3.1, §4)
``repro.relational``  goal-oriented set-at-a-time engine (§2.2)
``repro.engine``      EduceStar (the system) and EduceBaseline (Educe)
``repro.service``     the multi-user kernel: concurrent query service (§3.3)
``repro.workloads``   MVV, Wisconsin, integrity checking (§5)
"""

from .engine.educe_baseline import EduceBaseline
from .engine.interpreter import Interpreter
from .engine.session import EduceStar
from .engine.stats import CostModel, Measurement, QueryProfile, measure
from .errors import PrologError, ReproError, ServiceError, StorageError
from .service import QueryService, QueryTicket
from .lang.reader import read_program, read_term
from .lang.writer import term_to_text
from .terms import Atom, Struct, Term, Var
from .wam.machine import Machine, Solution

__version__ = "1.0.0"

__all__ = [
    "EduceStar",
    "EduceBaseline",
    "Machine",
    "Interpreter",
    "Solution",
    "CostModel",
    "Measurement",
    "QueryProfile",
    "measure",
    "Atom",
    "Var",
    "Struct",
    "Term",
    "read_term",
    "read_program",
    "term_to_text",
    "QueryService",
    "QueryTicket",
    "ReproError",
    "PrologError",
    "ServiceError",
    "StorageError",
    "__version__",
]
