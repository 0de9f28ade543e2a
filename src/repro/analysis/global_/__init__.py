"""Whole-program analysis: call graph, groundness/mode fixpoint,
determinism/cardinality classes (docs/ANALYSIS.md, "Whole-program
analysis").

A static lint pass over program text; the runtime never reads it.
The package is named ``global_`` because ``global`` is a Python
keyword.  Entry points:

* :func:`program_from_text` — build the :class:`Program` view the
  pass runs over;
* :func:`analyze_program` — run everything, get a
  :class:`GlobalReport`;
* the report's :meth:`~GlobalReport.mode_findings` — the linter's M
  rules, its one product.
"""

from .callgraph import (CallGraph, CallSite, Program, build_call_graph,
                        program_from_sections, program_from_text)
from .cardinality import (CardResult, class_name, infer_cardinality)
from .modes import (ANY, GROUND, NONVAR, BuiltinSig, ModeResult,
                    builtin_signature, infer_modes, join, leq,
                    mode_string, refine)
from .report import GlobalReport, PredicateInfo, analyze_program

__all__ = [
    "ANY", "GROUND", "NONVAR", "BuiltinSig", "CallGraph", "CallSite",
    "CardResult", "GlobalReport", "ModeResult", "PredicateInfo",
    "Program", "analyze_program", "build_call_graph",
    "builtin_signature", "class_name", "infer_cardinality",
    "infer_modes", "join", "leq", "mode_string",
    "program_from_sections", "program_from_text", "refine",
]
