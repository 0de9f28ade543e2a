"""The Educe* dictionary subsystem (paper §3.3.1).

Atoms and functors are interned into a *segmented closed-hash* dictionary
that hands out stable unique identifiers — the identifiers alone are used
for unification, which the paper notes is "several orders of magnitude
faster than using string comparisons".

The design reconciles the paper's eight (partially conflicting)
principles:

* unique, never-relocated identifiers (compiled code embeds them);
* extensibility without rehashing (segments are chained on demand);
* garbage collection by slot reuse, not relocation;
* fast exact-match search, short probe chains.
"""

from .segmented import DictionaryStats, SegmentedDictionary, fnv1a

__all__ = ["SegmentedDictionary", "DictionaryStats", "fnv1a"]
