"""repro.obs — the unified observability layer.

Three pieces, designed to be threaded through every layer of Educe*:

* :class:`~repro.obs.registry.MetricsRegistry` — one namespace for every
  work counter in the system, and the only code that merges counter
  sources or subtracts two snapshots (it understands counter resets,
  gauges and histogram families).
* :class:`~repro.obs.tracing.Tracer` / :class:`~repro.obs.tracing.Span`
  — nested spans (query → loader fetch → pre-unify → codec resolve)
  with wall time and page-I/O events (:func:`~repro.obs.tracing.event`
  attaches to the span open on the calling thread); zero cost when
  disabled (:data:`~repro.obs.tracing.NULL_TRACER`).
* the run record (``QueryProfile`` / ``Measurement``: counter delta +
  span tree + simulated-1990-ms breakdown) lives next to the cost model
  in :mod:`repro.engine.stats`; :func:`~repro.obs.tracing.write_json_lines`
  exports records and spans alike.
* :class:`~repro.obs.explain.ExplainPlan` /
  :class:`~repro.obs.explain.PlanNode` — EXPLAIN/ANALYZE plan trees
  (strategy decision, magic adornment, strata/rules, code shape)
  rendered as text and JSON.
* :class:`~repro.obs.profiler.WamProfiler` — sampled instruction-poll
  profiler attributing instructions/data_refs/simulated-ms to predicate
  indicators, with folded-stack (flamegraph) export.

The counter glossary, span taxonomy and a worked profile-reading
example live in ``docs/OBSERVABILITY.md``; ``tests/test_docs.py`` keeps
that document in sync with the code.

This package never imports ``repro.engine`` at module level (the
session imports us), so any layer — ``wam``, ``bang``, ``edb``,
``relational`` — may depend on it without cycles.
"""

from .registry import (DEFAULT_BOUNDARIES, DEFAULT_GAUGE_KEYS, Histogram,
                       MetricsRegistry, merge_histogram_maps)
from .tracing import (NULL_TRACER, NullTracer, Span, Tracer,
                      write_json_lines)
from .events import NULL_EVENTS, EventRing
from .explain import ExplainPlan, PlanNode, attach_fixpoint, code_shape
from .exposition import render_prometheus
from .profiler import WamProfiler

__all__ = [
    "DEFAULT_BOUNDARIES",
    "DEFAULT_GAUGE_KEYS",
    "EventRing",
    "ExplainPlan",
    "Histogram",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_TRACER",
    "NullTracer",
    "PlanNode",
    "Span",
    "Tracer",
    "WamProfiler",
    "attach_fixpoint",
    "code_shape",
    "merge_histogram_maps",
    "render_prometheus",
    "write_json_lines",
]
