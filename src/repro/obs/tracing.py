"""Lightweight tracing spans for the Educe* runtime.

The paper's evaluation (§3.2.1, §5) is entirely counter-driven: WAM
instructions, data references, page transfers.  Counters answer *how
much* work a query did; spans answer *where* — which loader fetch, which
pre-unification pass, which page reads.  A :class:`Tracer` records a
tree of :class:`Span` objects per query:

    query
    ├─ loader.fetch            (one per cache-missed procedure load)
    │  ├─ codec.resolve        (external → internal identifier mapping)
    │  └─ preunify.filter      (head-code execution filter)
    └─ relational.execute      (set-at-a-time plans, §4)

A span times its region and nothing else: the counter delta of a
query is taken once, by its run record (:mod:`repro.engine.stats`).
Page-level I/O is recorded as *events*, not spans (a page access is
well under a microsecond of real work), and :func:`event` needs no
tracer: it attaches to the innermost span open on the calling thread,
so the storage stack, which several sessions share, reports each page
transfer to the span of the session whose thread caused it.

Design constraints:

* **Zero cost when disabled.**  Components call ``tracer.span(...)``
  unconditionally; a disabled tracer yields ``None`` without
  allocating a :class:`Span`, and :func:`event` outside every span
  returns at once.
* **Bounded memory.**  A tracer retains at most :data:`MAX_SPANS`
  spans and a span at most :data:`MAX_EVENTS_PER_SPAN` events;
  overflow is counted in ``dropped_spans`` / ``Span.events_dropped``,
  never silently ignored.
* **No repro imports.**  This module is stdlib-only so every layer
  (``wam``, ``bang``, ``edb``, ``relational``) can import it freely.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: spans one tracer retains, and events one span retains
MAX_SPANS = 100_000
MAX_EVENTS_PER_SPAN = 256


class Span:
    """One traced region: name, wall time, attributes, events."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "children",
                 "events", "events_dropped", "start_s", "wall_s")

    def __init__(self, name: str, span_id: int,
                 parent_id: Optional[int] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.children: List["Span"] = []
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self.start_s = 0.0
        self.wall_s = 0.0

    # ------------------------------------------------------------- traversal

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant span (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    # ---------------------------------------------------------------- export

    def to_dict(self) -> Dict[str, Any]:
        """This span alone (children referenced by id, not inlined)."""
        out: Dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_ms": round(self.wall_s * 1000.0, 6),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.events:
            out["events"] = self.events
        if self.events_dropped:
            out["events_dropped"] = self.events_dropped
        return out

    def to_json_lines(self) -> List[str]:
        """One JSON object per span in the subtree, pre-order."""
        return [json.dumps(s.to_dict(), sort_keys=True, default=str)
                for s in self.walk()]

    def format_tree(self, indent: str = "") -> str:
        """Human-readable tree with wall time and attributes."""
        attr_bits = [f"{k}={v}" for k, v in self.attrs.items()]
        line = f"{indent}{self.name}  [{self.wall_s * 1000.0:.3f} ms]" + \
            (("  " + " ".join(attr_bits)) if attr_bits else "")
        lines = [line]
        if self.events:
            lines.append(f"{indent}  · {len(self.events)} events"
                         + (f" (+{self.events_dropped} dropped)"
                            if self.events_dropped else ""))
        for child in self.children:
            lines.append(child.format_tree(indent + "  "))
        return "\n".join(lines)


class _OpenSpans(threading.local):
    """The spans open on one thread, innermost last."""

    def __init__(self) -> None:
        self.spans: List[Span] = []


_open = _OpenSpans()


def event(name: str, **attrs) -> None:
    """Attach a point event to the innermost span open on the calling
    thread, whichever tracer opened it (no-op outside every span)."""
    spans = _open.spans
    if not spans:
        return
    span = spans[-1]
    if len(span.events) >= MAX_EVENTS_PER_SPAN:
        span.events_dropped += 1
        return
    span.events.append({"event": name, **attrs})


class Tracer:
    """Records nested spans; shared by every component of one session."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._stack: List[Span] = []
        self.roots: List[Span] = []
        self.dropped_spans = 0
        self._next_id = 1
        #: current trace identity.  The query service mints a trace id
        #: per ticket at ``submit()`` and installs it here for the
        #: extent of the ticket's execution, so every span the session
        #: records while the ticket runs is stamped with it — one id
        #: connects the service-side ticket trace to the session-side
        #: query spans.  Stamping *every* span (not just roots) keeps
        #: spans exported standalone — JSONL lines, ``datalog.evaluate``
        #: roots drained by a replica's service — attributable to their
        #: owning ticket.
        self.trace_id: Optional[str] = None

    # ------------------------------------------------------------------ API

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Span]]:
        """Open a child span of the current span (or a new root).

        Yields the :class:`Span` (mutate ``.attrs`` freely) or ``None``
        when the tracer is disabled or over budget.
        """
        if not self.enabled:
            yield None
            return
        if self._spans_recorded() >= MAX_SPANS:
            self.dropped_spans += 1
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._next_id,
                    parent.span_id if parent else None, attrs)
        if self.trace_id is not None:
            span.attrs.setdefault("trace_id", self.trace_id)
        self._next_id += 1
        thread_spans = _open.spans
        span.start_s = time.perf_counter()
        self._stack.append(span)
        thread_spans.append(span)
        try:
            yield span
        finally:
            span.wall_s = time.perf_counter() - span.start_s
            # Pop *this* span even if an inner span leaked (generator
            # abandoned mid-consumption): discard anything above it.
            _pop_through(self._stack, span)
            _pop_through(thread_spans, span)
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    def take_roots(self) -> List[Span]:
        """Drain and return the finished root spans (oldest first)."""
        roots, self.roots = self.roots, []
        return roots

    def to_json_lines(self) -> List[str]:
        """JSON-lines export of every finished root span (not drained)."""
        lines: List[str] = []
        for root in self.roots:
            lines.extend(root.to_json_lines())
        return lines

    # ------------------------------------------------------------ internals

    def _spans_recorded(self) -> int:
        return self._next_id - 1 - self.dropped_spans


def _pop_through(stack: List[Span], span: Span) -> None:
    """Remove *span* and every span above it; a span closed already
    (a leaked inner span finalised late) leaves *stack* as it is."""
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] is span:
            del stack[i:]
            return


class NullTracer(Tracer):
    """The default tracer: permanently disabled, shared singleton."""

    def __init__(self):
        super().__init__(enabled=False)

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value) -> None:
        if value:
            raise ValueError(
                "NULL_TRACER cannot be enabled; construct a Tracer")


NULL_TRACER = NullTracer()


def write_json_lines(path: str, records: List[Any]) -> int:
    """Append the JSON lines of every record (run records, spans —
    anything with ``to_json_lines()``) to *path*; returns lines written."""
    lines: List[str] = []
    for record in records:
        lines.extend(record.to_json_lines())
    with open(path, "a", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")
    return len(lines)
