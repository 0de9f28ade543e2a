"""The flight recorder: a bounded ring of runtime events.

Counters say how much work happened and spans say where a single query
spent its time, but neither answers the operator's question after an
incident: *what happened, in order, just before things went wrong?*
The :class:`EventRing` is that answer — a fixed-size ring of small
structured events (ticket admissions and terminal states, deadline
expiries, cancellations, buffer evictions, WAL poisoning, recovery,
slow queries) that every layer can append to cheaply and the service's
``telemetry()`` aggregate exposes as a tail.

Design constraints, mirroring :mod:`repro.obs.tracing`:

* **Bounded memory** — one deque with ``maxlen=capacity`` holds the
  ring.  Overflow drops the *oldest* events (that is what a flight
  recorder is) and counts the drops in ``events_dropped``.
* **Thread-safe without a lock** — a monotone sequence number
  (``itertools.count``) is drawn and the event appended inside one
  ``deque.extend`` call, which runs no Python code and so cannot be
  interleaved with another thread's under the interpreter lock.  The
  ring is therefore in ``seq`` order, and it holds the ``capacity``
  newest events whichever threads recorded them.
* **Near-free when disabled** — :data:`NULL_EVENTS` answers
  ``enabled = False`` and its :meth:`record` returns immediately; hot
  paths guard with ``if events.enabled``.
* **No repro imports** — stdlib-only, importable from any layer.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["EventRing", "NULL_EVENTS"]


class EventRing:
    """Bounded ring buffer of structured events, oldest first."""

    def __init__(self, capacity: int = 1024, enabled: bool = True):
        if capacity < 1:
            raise ValueError("event ring needs a positive capacity")
        self.capacity = capacity
        self.enabled = enabled
        self._seq = itertools.count(1)
        #: ``(event, seq)`` pairs in ``seq`` order
        self._events: Deque[Tuple[Dict[str, Any], int]] = deque(
            maxlen=capacity)
        # Newest seq and drops so far when :meth:`clear` last ran: the
        # counters are derived from the newest seq, so a clear must not
        # read as drops.
        self._cleared_seq = 0
        self._cleared_dropped = 0

    # ------------------------------------------------------------- recording

    def record(self, kind: str, **attrs: Any) -> None:
        """Append one event; *attrs* must be small, plain values."""
        if not self.enabled:
            return
        event: Dict[str, Any] = {"ts": time.time(), "kind": kind}
        if attrs:
            event.update(attrs)
        # The 1-tuple goes first: zip stops on it without drawing a
        # second sequence number.
        self._events.extend(zip((event,), self._seq))

    # --------------------------------------------------------------- reading

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent *n* events (all retained events when None),
        oldest first, totally ordered by sequence number."""
        pairs = list(self._events)
        if n is not None and n >= 0:
            pairs = pairs[len(pairs) - min(n, len(pairs)):]
        return [{"seq": seq, **event} for event, seq in pairs]

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        counters = self.counters()
        self._cleared_seq = counters["events_recorded"]
        self._cleared_dropped = counters["events_dropped"]
        self._events.clear()

    # -------------------------------------------------------------- counters

    def counters(self) -> Dict[str, int]:
        events = self._events
        recorded = events[-1][1] if events else self._cleared_seq
        since_clear = recorded - self._cleared_seq
        return {
            "events_recorded": recorded,
            "events_dropped": self._cleared_dropped
            + max(0, since_clear - self.capacity),
        }


class _NullEventRing(EventRing):
    """Permanently disabled shared singleton (cannot be enabled)."""

    def __init__(self):
        super().__init__(capacity=1, enabled=False)

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value) -> None:
        if value:
            raise ValueError(
                "NULL_EVENTS cannot be enabled; construct an EventRing")


NULL_EVENTS = _NullEventRing()
