"""Thread-local counter cells for the concurrent query service.

The observability layer's counters are plain ``int`` attributes bumped
on hot paths; under the service (:mod:`repro.service`) many worker
threads bump the *service's* counters concurrently.  Guarding every
``+= 1`` with a lock would put a latch on the hottest path in the
system, so :class:`ThreadLocalCounters` gives each thread its own
private cell (a plain dict) and merges the cells only when somebody
*reads* the counters — exactly the classic striped-counter design.

The only lock is taken once per thread lifetime, when the thread's
cell is registered; increments afterwards touch thread-private state
only.  Merging reads other threads' cells without locking: dict reads
and integer loads are atomic under the interpreter, and counters are
monotone, so a racy read can only be *slightly stale*, never corrupt —
the same guarantee a relaxed atomic load gives.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from .registry import MetricsRegistry


class ThreadLocalCounters:
    """Per-thread counter cells, merged on read.

    >>> c = ThreadLocalCounters()
    >>> c.add("service_submitted")
    >>> c.add("service_completed", 2)
    >>> c.counters()
    {'service_completed': 2, 'service_submitted': 1}
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._register = threading.Lock()
        # Every cell ever created, including cells of threads that have
        # exited — their totals must survive the thread.
        self._cells: List[Dict[str, int]] = []

    def _cell(self) -> Dict[str, int]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = {}
            with self._register:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def add(self, key: str, amount: int = 1) -> None:
        """Bump *key* in the calling thread's private cell (lock-free
        after the first call per thread)."""
        cell = self._cell()
        cell[key] = cell.get(key, 0) + amount

    def counters(self) -> Dict[str, int]:
        """Merged view over every thread's cell, keys sorted."""
        with self._register:
            cells = [dict(cell) for cell in self._cells]
        return dict(sorted(MetricsRegistry.merge(*cells).items()))
