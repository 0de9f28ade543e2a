"""Latches and read-write locks for the concurrent query service.

Educe* is a *multi-user* KBMS kernel (paper §3.1, §3.3): compiled code
lives in the EDB precisely so many sessions can share one external
database.  When those sessions are threads of one server process
(:mod:`repro.service`), the shared substrate — buffer pool, procedure
store, loader caches — needs synchronisation.  Two primitives cover all
of it, mirroring the classic DBMS distinction:

* **Latch** — a short-term mutex protecting an in-memory structure for
  a handful of instructions (a buffer-pool frame table, a loader cache
  dict).  Held across no I/O and no other lock acquisition except the
  disc store's own I/O lock.
* **ReadWriteLock** — a long-term lock with shared/exclusive modes,
  serialising EDB *updates* against in-flight *queries*.  Held across
  whole operations (a query execution, a checkpoint).

Both count their traffic (``latch_*`` counters, see
``docs/OBSERVABILITY.md``), so contention is observable rather than
guessed at — and both time their *waits*: a contended acquisition
records the blocked duration in a wait histogram
(``latch_wait_ms`` / ``lock_read_wait_ms`` / ``lock_write_wait_ms``),
so tail contention is measurable, not just countable.  The uncontended
fast path takes no clock reading.  Neither is picklable: both are
runtime state, and their holders (the buffer pool, the store) are
rebuilt or drop the lock when a checkpoint loads — an EDB checkpoint
never carries a lock.

The locking order is documented in ``docs/CONCURRENCY.md``:
store ReadWriteLock → loader latch → buffer latch → disc I/O lock.
This module is stdlib-only so every layer may import it freely.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from .errors import LockOrderError
from .obs.registry import Histogram

__all__ = ["Latch", "LockOrderError", "ReadWriteLock"]


class Latch:
    """Short-term mutex with acquisition/contention counters.

    Counter updates happen while the latch is held, so they are exact —
    the differential concurrency suite asserts on them.
    """

    def __init__(self, name: str = "latch"):
        self.name = name
        self._lock = threading.Lock()
        self.acquisitions = 0
        self.contentions = 0
        self.wait_hist = Histogram()

    def acquire(self) -> None:
        contended = not self._lock.acquire(blocking=False)
        if contended:
            blocked = time.perf_counter()
            self._lock.acquire()
            waited_ms = (time.perf_counter() - blocked) * 1000.0
        self.acquisitions += 1
        if contended:
            self.contentions += 1
            # Recorded while the latch is held, so the histogram's
            # internal updates are exact, like the counters.
            self.wait_hist.observe(waited_ms)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "Latch":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def counters(self) -> dict:
        return {
            "latch_acquisitions": self.acquisitions,
            "latch_contentions": self.contentions,
        }

    def histograms(self) -> Dict[str, Histogram]:
        return {"latch_wait_ms": self.wait_hist}


class ReadWriteLock:
    """Writer-preference readers/writer lock, reentrant on both sides.

    * Any number of threads may hold the lock in *read* mode; a thread
      already reading may re-enter read mode freely (nested store
      lookups inside a query) without queueing behind waiting writers —
      queueing there would deadlock against the writer waiting for the
      very reader to drain.
    * One thread holds *write* mode exclusively and may re-enter both
      write and read mode (recovery admitting records inside its
      loop-wide hold; mutators reading the procedures table).
    * Fresh readers queue behind waiting writers, so a stream of
      queries cannot starve an update.
    * Releasing the write hold while a writer-nested read is still
      held is a **write→read downgrade**: the residual read becomes a
      real shared hold, so a queued writer waits for its release
      instead of sneaking past an unregistered reader.
    * A read→write upgrade raises :class:`LockOrderError` — two
      upgrading readers would deadlock each other, so the attempt is a
      bug, not a wait.
    """

    def __init__(self, name: str = "rwlock"):
        self.name = name
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._active_readers = 0
        self._writer: Optional[int] = None      # thread ident
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.read_waits = 0
        self.write_waits = 0
        self.read_wait_hist = Histogram()
        self.write_wait_hist = Histogram()

    # ------------------------------------------------------------ internals

    def _read_depth(self) -> int:
        return getattr(self._local, "read_depth", 0)

    # ----------------------------------------------------------------- read

    def acquire_read(self) -> None:
        me = threading.get_ident()
        depth = self._read_depth()
        if depth > 0:
            # Reentrant: no queueing, no fresh registration.
            self._local.read_depth = depth + 1
            return
        if self._writer == me:
            # Writer reading its own store: the hold is never counted
            # in _active_readers, and the thread-local flag remembers
            # that so a non-LIFO release (write dropped before the
            # read) cannot decrement the reader count it never bumped.
            self._local.read_depth = 1
            self._local.read_counted = False
            return
        with self._cond:
            self.read_acquisitions += 1
            if self._writer is not None or self._writers_waiting:
                self.read_waits += 1
                blocked = time.perf_counter()
                while self._writer is not None or self._writers_waiting:
                    self._cond.wait()
                # Observed under the condition's mutex: exact updates.
                self.read_wait_hist.observe(
                    (time.perf_counter() - blocked) * 1000.0)
            self._active_readers += 1
        self._local.read_depth = 1
        self._local.read_counted = True

    def release_read(self) -> None:
        depth = self._read_depth()
        if depth <= 0:
            raise RuntimeError(f"{self.name}: release_read without "
                               "a matching acquire_read")
        self._local.read_depth = depth - 1
        if depth > 1:
            return
        if not getattr(self._local, "read_counted", False):
            # Writer-nested hold: was never registered as a reader.
            return
        self._local.read_counted = False
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    # ---------------------------------------------------------------- write

    def acquire_write(self) -> None:
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            return
        if self._read_depth() > 0:
            raise LockOrderError(
                f"{self.name}: read→write upgrade would deadlock; "
                "release the read lock before mutating")
        with self._cond:
            self.write_acquisitions += 1
            waited = self._active_readers or self._writer is not None
            if waited:
                self.write_waits += 1
                blocked = time.perf_counter()
            self._writers_waiting += 1
            try:
                while self._active_readers or self._writer is not None:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            if waited:
                self.write_wait_hist.observe(
                    (time.perf_counter() - blocked) * 1000.0)
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        if self._writer != threading.get_ident():
            raise RuntimeError(f"{self.name}: release_write by a thread "
                               "that does not hold the write lock")
        self._writer_depth -= 1
        if self._writer_depth > 0:
            return
        downgrade = self._read_depth() > 0
        with self._cond:
            self._writer = None
            if downgrade:
                # Write→read downgrade: the thread still holds a
                # writer-nested (uncounted) read, so register it as a
                # real shared hold before waking anyone — a queued
                # writer must wait for this thread's release_read.
                self._active_readers += 1
                self._local.read_counted = True
            self._cond.notify_all()

    # ------------------------------------------------------------ counters

    def counters(self) -> Dict[str, int]:
        return {
            "latch_read_acquisitions": self.read_acquisitions,
            "latch_write_acquisitions": self.write_acquisitions,
            "latch_read_waits": self.read_waits,
            "latch_write_waits": self.write_waits,
        }

    def histograms(self) -> Dict[str, Histogram]:
        return {
            "lock_read_wait_ms": self.read_wait_hist,
            "lock_write_wait_ms": self.write_wait_hist,
        }
