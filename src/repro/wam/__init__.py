"""A Warren Abstract Machine in Python (paper §2.1, §3.2).

The WAM is the compilation model of Educe*: the incremental compiler
(:mod:`repro.wam.compiler`) produces term-oriented instructions — one
instruction per Prolog term — and the emulator (:mod:`repro.wam.machine`)
executes them over a tagged-cell heap with choice points, a trail and
environments.  First-argument indexing on *type and value*
(:mod:`repro.wam.indexing`) turns non-deterministic procedures into
deterministic ones, which the paper identifies as the key lever on
choice-point traffic (§3.2.1/§3.2.2).
"""

from .compiler import ClauseCompiler, compile_clause, compile_procedure
from .machine import Machine, Procedure, Solution
from . import builtins as _builtins  # noqa: F401  (registers builtin indicators)

__all__ = [
    "Machine",
    "Procedure",
    "Solution",
    "ClauseCompiler",
    "compile_clause",
    "compile_procedure",
]
