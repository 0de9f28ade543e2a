"""The metrics registry: one namespace for every work counter.

Counters are kept where the work happens: the WAM keeps instruction
and data-reference tallies (§3.2.1), the dynamic loader counts fetches
and cache hits (§3.1), the pager counts page transfers (§2.2).  The
registry is the one place that sums those sources and subtracts two
snapshots — ``measure`` blocks, profiles, ANALYZE and span deltas all
go through it:

* **sources** — any object with ``counters()`` and/or ``io_counters()``
  (machines, loaders, pagers, sessions, baselines) can be attached; its
  counters appear in every snapshot under their existing names, so all
  call sites and the :class:`~repro.engine.stats.CostModel` pricing keep
  working unchanged;
* **snapshot / diff** — ``snapshot()`` returns one merged dict;
  ``diff(after, before)`` is counter/gauge aware: monotonic counters
  that shrank are treated as *reset* (the delta is what accumulated
  after the reset), while gauges (levels such as ``buffer_resident``)
  report their current value, since "delta of a level" is meaningless.

Every counter name that can appear in a snapshot is documented in
``docs/OBSERVABILITY.md``; ``tests/test_docs.py`` enforces that the
glossary cannot rot.

This module is stdlib-only (no repro imports) so any layer may use it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Gauge keys exposed by the built-in sources (levels, not event counts).
#: Attach-time ``gauges=`` extends this per source; see the glossary.
DEFAULT_GAUGE_KEYS = frozenset({
    "pages", "buffer_resident", "heap_high_water", "pages_quarantined",
    "loader_cache_entries", "store_mutations",
    "service_queue_depth", "service_queue_depth_peak", "service_inflight",
    "service_workers", "datalog_index_rows",
})

#: Default bucket boundaries for duration histograms, in milliseconds —
#: a geometric ladder from 50 µs to 10 s.  Observations above the last
#: boundary land in the implicit ``+Inf`` bucket.
DEFAULT_BOUNDARIES: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Percentiles every histogram reports (``.p50``/``.p90``/``.p99``).
PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)


class Histogram:
    """Fixed-boundary bucket histogram (count/sum/min/max + percentiles).

    Observations are tallied into buckets delimited by *boundaries*
    (ascending; an implicit ``+Inf`` bucket catches the overflow), so
    percentile estimates survive merging: two snapshots merge by adding
    bucket counts, never by averaging quantiles — the tails stay tails.
    A percentile estimate is the upper boundary of the bucket holding
    that rank, clamped into ``[min, max]``.
    """

    __slots__ = ("count", "total", "min", "max", "boundaries", "buckets")

    def __init__(self, boundaries: Optional[Sequence[float]] = None):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.boundaries: Tuple[float, ...] = tuple(
            DEFAULT_BOUNDARIES if boundaries is None else boundaries)
        #: per-bucket observation counts; ``buckets[-1]`` is ``+Inf``
        self.buckets: List[int] = [0] * (len(self.boundaries) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.buckets[bisect_left(self.boundaries, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (0 < q <= 1) from the bucket counts."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank and n:
                upper = (self.boundaries[i] if i < len(self.boundaries)
                         else self.max)
                return _clamp(upper, self.min, self.max)
        return self.max  # pragma: no cover - defensive

    def merge_from(self, other: "Histogram") -> None:
        """Fold *other*'s observations into this histogram (same
        boundary ladder required for exact bucket merging)."""
        self.count += other.count
        self.total += other.total
        self.min = _opt_min(self.min, other.min)
        self.max = _opt_max(self.max, other.max)
        if self.boundaries == other.boundaries:
            for i, n in enumerate(other.buckets):
                self.buckets[i] += n
        else:  # mismatched ladders: conservative — overflow bucket
            self.buckets[-1] += other.count

    def copy(self) -> "Histogram":
        dup = Histogram(self.boundaries)
        dup.count, dup.total = self.count, self.total
        dup.min, dup.max = self.min, self.max
        dup.buckets = list(self.buckets)
        return dup

    def as_dict(self, prefix: str) -> Dict[str, float]:
        """Snapshot keys: ``.count``/``.sum`` always; ``.min``/``.max``,
        percentiles and cumulative ``.bucket.le_*`` keys once non-empty
        (the bucket keys are what make merged snapshots re-derivable)."""
        out = {f"{prefix}.count": self.count, f"{prefix}.sum": self.total}
        if self.count:
            out[f"{prefix}.min"] = self.min
            out[f"{prefix}.max"] = self.max
            for label, q in PERCENTILES:
                out[f"{prefix}.{label}"] = self.percentile(q)
            cumulative = 0
            for i, bound in enumerate(self.boundaries):
                cumulative += self.buckets[i]
                out[f"{prefix}.bucket.le_{bound:g}"] = cumulative
            out[f"{prefix}.bucket.le_inf"] = cumulative + self.buckets[-1]
        return out


class MetricsRegistry:
    """One snapshot over attached counter (and histogram) sources."""

    def __init__(self):
        self._sources: List[Any] = []
        self._gauge_keys = set(DEFAULT_GAUGE_KEYS)

    # -------------------------------------------------------------- sources

    def attach(self, source: Any,
               gauges: Iterable[str] = ()) -> Any:
        """Register a counter source (``counters()``/``io_counters()``).

        *gauges* names keys of this source that are levels rather than
        monotonic counters, so :meth:`diff` reports them correctly.
        Returns *source* for chaining.
        """
        if source not in self._sources:
            self._sources.append(source)
        self._gauge_keys.update(gauges)
        return source

    # ------------------------------------------------------- snapshot/diff

    def snapshot(self) -> Dict[str, float]:
        """Every metric this registry can see, merged into one dict.

        Source counters are *summed* when two sources emit the same key
        (non-numeric values are skipped).  A source may also expose
        ``histograms()`` (name → :class:`Histogram`); same-named
        histograms from different sources merge bucket-wise, so
        percentiles in the snapshot are computed over the union of
        observations, never averaged.
        """
        merged: Dict[str, float] = {}
        hist_maps: List[Dict[str, Histogram]] = []
        for source in self._sources:
            if hasattr(source, "counters"):
                _merge_into(merged, source.counters())
            if hasattr(source, "io_counters"):
                _merge_into(merged, source.io_counters())
            if hasattr(source, "histograms"):
                hist_maps.append(source.histograms())
        for name, hist in merge_histogram_maps(*hist_maps).items():
            if hist.count:
                merged.update(hist.as_dict(name))
        return merged

    def diff(self, after: Dict[str, float],
             before: Dict[str, float]) -> Dict[str, float]:
        """Counter-aware delta between two snapshots.

        * monotonic counter, grew: ordinary difference;
        * monotonic counter, shrank: it was **reset** between the
          snapshots — report its post-reset accumulation (``after``);
        * gauge (a default gauge key or named at :meth:`attach`): report
          the ``after`` level;
        * key only in *before* (source detached / disappeared): omitted;
        * histogram family (``X.count``/``X.sum``/``X.bucket.le_*``...):
          counts, sums and buckets diff like counters, percentiles are
          **recomputed from the bucket deltas** (the distribution of
          observations made between the snapshots), and a family with
          no new observations is dropped entirely.
        """
        out: Dict[str, float] = {}
        for key, value in after.items():
            if not isinstance(value, (int, float)):
                continue
            if key in self._gauge_keys:
                out[key] = value
                continue
            prev = before.get(key, 0)
            if not isinstance(prev, (int, float)):
                prev = 0
            delta = value - prev
            out[key] = value if delta < 0 else delta
        _fix_histogram_families(out, minmax_from=after)
        return out

    @staticmethod
    def merge(*snapshots: Dict[str, float]) -> Dict[str, float]:
        """Sum several snapshots key-wise (non-numeric values are
        skipped).  Histogram families
        are merged structurally: bucket counts and sums add, ``.min``/
        ``.max`` take the extremes across the snapshots, and the
        percentile keys are recomputed from the merged buckets — the
        tails of the distribution are preserved, not averaged away."""
        merged: Dict[str, float] = {}
        for snap in snapshots:
            _merge_into(merged, snap)
        for base in _histogram_families(merged):
            mins = [s[f"{base}.min"] for s in snapshots
                    if isinstance(s.get(f"{base}.min"), (int, float))]
            maxes = [s[f"{base}.max"] for s in snapshots
                     if isinstance(s.get(f"{base}.max"), (int, float))]
            if mins:
                merged[f"{base}.min"] = min(mins)
            if maxes:
                merged[f"{base}.max"] = max(maxes)
            _recompute_percentiles(merged, base)
        return merged

    # --------------------------------------------------------------exports

    def gauge_keys(self) -> Tuple[str, ...]:
        return tuple(sorted(self._gauge_keys))


def _merge_into(target: Dict[str, float], source: Dict[str, Any]) -> None:
    for key, value in source.items():
        if isinstance(value, (int, float)):
            target[key] = target.get(key, 0) + value


# ------------------------------------------------- histogram-family helpers

def merge_histogram_maps(
        *maps: Dict[str, Histogram]) -> Dict[str, Histogram]:
    """Merge ``{name: Histogram}`` maps; same-named histograms are
    folded together bucket-wise.  Histograms unique to one map are
    returned as-is (no copy) — callers must not mutate the result."""
    if len(maps) == 1:
        return maps[0]
    out: Dict[str, Histogram] = {}
    for hist_map in maps:
        for name, hist in hist_map.items():
            seen = out.get(name)
            if seen is None:
                out[name] = hist
            else:
                merged = seen.copy()
                merged.merge_from(hist)
                out[name] = merged
    return out


def _histogram_families(snapshot: Dict[str, Any]) -> List[str]:
    """Base names ``X`` whose snapshot keys form a histogram family
    (both ``X.count`` and ``X.sum`` present)."""
    return [key[:-6] for key in snapshot
            if key.endswith(".count") and f"{key[:-6]}.sum" in snapshot]


_FAMILY_SUFFIXES = (".count", ".sum", ".min", ".max",
                    ".p50", ".p90", ".p99")


def _family_keys(snapshot: Dict[str, Any], base: str) -> List[str]:
    keys = [f"{base}{suffix}" for suffix in _FAMILY_SUFFIXES
            if f"{base}{suffix}" in snapshot]
    bucket_prefix = f"{base}.bucket.le_"
    keys.extend(k for k in snapshot if k.startswith(bucket_prefix))
    return keys


def _recompute_percentiles(snapshot: Dict[str, float], base: str) -> None:
    """Overwrite ``base.p50/.p90/.p99`` from the family's cumulative
    bucket counts (no-op when the family carries no buckets)."""
    bucket_prefix = f"{base}.bucket.le_"
    pairs: List[Tuple[float, float]] = []
    for key, value in snapshot.items():
        if key.startswith(bucket_prefix):
            label = key[len(bucket_prefix):]
            bound = float("inf") if label == "inf" else float(label)
            pairs.append((bound, value))
    if not pairs:
        return
    pairs.sort()
    total = pairs[-1][1]
    if total <= 0:
        return
    lo = snapshot.get(f"{base}.min")
    hi = snapshot.get(f"{base}.max")
    for label, q in PERCENTILES:
        rank = q * total
        estimate = hi
        for bound, cumulative in pairs:
            if cumulative >= rank:
                estimate = hi if bound == float("inf") else bound
                break
        if estimate is not None:
            snapshot[f"{base}.{label}"] = _clamp(estimate, lo, hi)


def _fix_histogram_families(out: Dict[str, float],
                            minmax_from: Dict[str, Any]) -> None:
    """Post-pass for :meth:`MetricsRegistry.diff`: drop families with no
    new observations, otherwise take min/max from the *after* snapshot
    and recompute percentiles from the bucket deltas."""
    for base in _histogram_families(out):
        if not out.get(f"{base}.count"):
            for key in _family_keys(out, base):
                out.pop(key, None)
            continue
        for suffix in (".min", ".max"):
            value = minmax_from.get(f"{base}{suffix}")
            if isinstance(value, (int, float)):
                out[f"{base}{suffix}"] = value
        _recompute_percentiles(out, base)


def _clamp(value: float, lo: Optional[float], hi: Optional[float]) -> float:
    if lo is not None and value < lo:
        return lo
    if hi is not None and value > hi:
        return hi
    return value


def _opt_min(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
