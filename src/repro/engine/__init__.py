"""Top-level engines.

* :class:`~repro.engine.session.EduceStar` — the paper's system: a WAM
  with compiled code in the EDB, pre-unification, dynamic loading.
* :class:`~repro.engine.educe_baseline.EduceBaseline` — the predecessor
  (Educe): an interpreter with rules stored in source form, paying the
  retrieve → parse → assert → execute → erase cycle of §2.
* :mod:`~repro.engine.stats` — the 1990-hardware cost model, the run
  record every measured run fills in, and :func:`measure`.
"""

from .educe_baseline import EduceBaseline
from .interpreter import Interpreter
from .session import EduceStar
from .stats import CostModel, Measurement, QueryProfile, measure

__all__ = [
    "EduceStar",
    "EduceBaseline",
    "Interpreter",
    "CostModel",
    "Measurement",
    "QueryProfile",
    "measure",
]
