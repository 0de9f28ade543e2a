"""LRU buffer pool.

§2.2 of the paper: "in the time it takes to read a block of data
containing several tuples, the previous block can be processed" — the
relational engine's whole strategy assumes block-at-a-time transfer with
buffering.  The pool counts hits/misses/evictions so the benchmarks can
report buffer behaviour (Table 2b's "buffer read/write" row).

Concurrency (docs/CONCURRENCY.md)
---------------------------------

The pool is shared by every worker of a :class:`repro.service`
query service, so it is a proper latched buffer manager:

* one :class:`~repro.locks.Latch` protects the frame table, the dirty
  set and the counters;
* **frames, not readers** — a frame holds an immutable payload that
  every write replaces, so the payload a reader got from :meth:`get`
  stays valid in the reader's hands however soon its frame is evicted:
  eviction is plain LRU and the pool never holds more frames than its
  capacity (a failed write-back re-admits its victim, the one brief
  excess);
* **decode memo** — a miss admits the page with its records block
  still encoded; the reader that decodes it hands the decoded payload
  to :meth:`memo`, which installs it in one latched section if the
  frame still holds what was read (a racing ``put`` wins), without
  dirtying the frame;
* **miss de-duplication** — concurrent misses on the same page
  coalesce: the reading thread holds a plain in-flight lock until the
  frame is admitted (or the read fails); the others acquire and release
  it, then retry.  The latch is *released* around the disc read, so
  simulated (or real) disc latency overlaps across threads instead of
  serialising behind the latch;
* **write-backs outside the latch** — dirty-victim eviction and
  :meth:`flush` snapshot what must be written under the latch and
  perform the disc writes after releasing it, so a checkpoint flush
  (real fsync-backed writes under ``FileDiskStore``) never stalls
  every reader's page access.  An in-flight write-back holds a lock in
  the same in-flight table as a miss read, so a concurrent fetch of
  the victim waits for the write to land instead of reading a stale
  disc image.  Only these dirty evictions reach the flight recorder
  (``page.evict``); clean ones are span events only, so a cold scan
  cannot flush the ring.

The pool is runtime state: a checkpoint carries the disc, and the
:class:`~repro.bang.pager.Pager` that owns the pool builds a fresh,
empty one on load.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict

from ..locks import Latch
from ..obs.events import NULL_EVENTS
from ..obs.registry import Histogram
from ..obs.tracing import event
from .pager import DiskStore


class BufferPool:
    """Fixed-capacity latched LRU cache of page payloads over a DiskStore.

    The pool does not look inside a payload: it holds what the disc
    read returned, what a writer put, or a reader's decode memo."""

    def __init__(self, disk: DiskStore, capacity: int = 128):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.events = NULL_EVENTS  # threaded in via Pager.events
        self._latch = Latch("buffer")
        #: wall time a miss spends in the (latch-released) disc read —
        #: the stall concurrent workers overlap; and the duration of
        #: each dirty write-back (eviction or flush)
        self.miss_stall_hist = Histogram()
        self.writeback_hist = Histogram()
        self._frames: "OrderedDict[int, Any]" = OrderedDict()
        self._dirty: set = set()
        #: page id → lock held while a disc *read* or an eviction
        #: *write-back* of the page is in flight; fetches and installs
        #: of such a page acquire and release it, then retry
        self._loading: Dict[int, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------------ API

    def get(self, page_id: int) -> Any:
        """Page payload, reading from disc on a miss."""
        while True:
            with self._latch:
                if page_id in self._frames:
                    self.hits += 1
                    self._frames.move_to_end(page_id)
                    return self._frames[page_id]
                in_flight = self._loading.get(page_id)
                if in_flight is None:
                    # This thread performs the read, holding the
                    # in-flight lock until the frame is admitted.
                    in_flight = threading.Lock()
                    in_flight.acquire()
                    self._loading[page_id] = in_flight
                    self.misses += 1
                    break
            in_flight.acquire()
            in_flight.release()
        # Latch released: the disc read (and any simulated latency)
        # overlaps with other threads' work.
        started = time.perf_counter()
        try:
            payload = self.disk.read(page_id)
        except BaseException:
            with self._latch:
                del self._loading[page_id]
                in_flight.release()
            raise
        stalled_ms = (time.perf_counter() - started) * 1000.0
        with self._latch:
            self.miss_stall_hist.observe(stalled_ms)
            del self._loading[page_id]
            in_flight.release()
            writebacks = []
            if page_id in self._frames:
                # A put/install raced ahead of the read; its payload is
                # the newer one.
                payload = self._frames[page_id]
                self._frames.move_to_end(page_id)
            else:
                writebacks = self._admit_locked(page_id, payload)
        self._complete_writebacks(writebacks)
        return payload

    def memo(self, page_id: int, read: Any, decoded: Any) -> None:
        """Install *decoded*, a reader's decoded form of the payload
        *read* that :meth:`get` returned, if the frame still holds
        *read* — a ``put`` that landed meanwhile is newer and wins, and
        an evicted frame stays evicted.  The memo is the same page, so
        it never dirties the frame."""
        with self._latch:
            if self._frames.get(page_id) is read:
                self._frames[page_id] = decoded

    def put(self, page_id: int, payload: Any) -> None:
        """Install a new payload for the page and mark it dirty."""
        self._install_dirty(page_id, payload)

    def install(self, page_id: int, payload: Any) -> None:
        """Admit a freshly allocated page (dirty, no disc read)."""
        self._install_dirty(page_id, payload)

    def _install_dirty(self, page_id: int, payload: Any) -> None:
        while True:
            with self._latch:
                if page_id not in self._loading:
                    if page_id in self._frames:
                        self._frames[page_id] = payload
                        self._frames.move_to_end(page_id)
                        writebacks = []
                    else:
                        writebacks = self._admit_locked(page_id, payload)
                    self._dirty.add(page_id)
                    break
                # An in-flight read or write-back of this page: wait it
                # out so our payload cannot be clobbered by an older
                # image landing afterwards.
                in_flight = self._loading[page_id]
            in_flight.acquire()
            in_flight.release()
        self._complete_writebacks(writebacks)

    def flush(self) -> None:
        """Write back every dirty frame.

        Pages are written in ascending page-id order so the physical
        write sequence is deterministic — fault-injection plans
        ("fail the Nth write", "tear the Nth write") stay reproducible
        run over run instead of depending on set iteration order.  The
        dirty set is snapshotted under the latch but the disc writes
        happen outside it, so a checkpoint's fsync-backed flush does
        not stall concurrent page access; a page dirtied again while
        the flush runs simply stays dirty for the next flush.
        """
        with self._latch:
            pending = [(pid, self._frames.get(pid))
                       for pid in sorted(self._dirty)]
            self._dirty.clear()
        for i, (page_id, payload) in enumerate(pending):
            started = time.perf_counter()
            try:
                self.disk.write(page_id, payload)
            except BaseException:
                # Failed and not-yet-attempted pages stay dirty so a
                # later flush (or eviction) retries them.
                with self._latch:
                    self._dirty.update(pid for pid, _ in pending[i:])
                raise
            with self._latch:
                self.writebacks += 1
                self.writeback_hist.observe(
                    (time.perf_counter() - started) * 1000.0)

    def discard(self, page_id: int) -> None:
        """Drop a page from the pool without write-back (page freed)."""
        with self._latch:
            self._frames.pop(page_id, None)
            self._dirty.discard(page_id)

    # ------------------------------------------------------------ internals

    def _admit_locked(self, page_id: int, payload: Any) -> list:
        """Admit a frame, evicting LRU victims as needed.  Called with
        the latch held.  Dirty victims are *not* written here: each is
        registered in the in-flight table (so concurrent fetches wait
        instead of reading the stale disc image) and returned; the
        caller MUST pass the list to :meth:`_complete_writebacks` after
        releasing the latch."""
        writebacks = []
        frames = self._frames
        while len(frames) >= self.capacity:
            victim, victim_payload = frames.popitem(last=False)
            self.evictions += 1
            dirty = victim in self._dirty
            event("page.evict", page=victim, dirty=dirty)
            if dirty:
                if self.events.enabled:
                    self.events.record("page.evict", page=victim,
                                       dirty=True)
                self._dirty.discard(victim)
                marker = threading.Lock()
                marker.acquire()
                self._loading[victim] = marker
                writebacks.append((victim, victim_payload, marker))
        self._frames[page_id] = payload
        return writebacks

    def _complete_writebacks(self, writebacks: list) -> None:
        """Perform deferred dirty-victim writes outside the latch."""
        error = None
        for victim, payload, marker in writebacks:
            started = time.perf_counter()
            try:
                self.disk.write(victim, payload)
            except BaseException as exc:
                with self._latch:
                    # The evicted payload was the only copy: re-admit
                    # the frame dirty rather than lose the page.  (The
                    # pool may briefly exceed capacity.)
                    self._frames[victim] = payload
                    self._dirty.add(victim)
                    self._loading.pop(victim, None)
                    marker.release()
                if error is None:
                    error = exc
                continue
            with self._latch:
                self.writebacks += 1
                self.writeback_hist.observe(
                    (time.perf_counter() - started) * 1000.0)
                self._loading.pop(victim, None)
                marker.release()
        if error is not None:
            raise error

    # ------------------------------------------------------------- counters

    def counters(self) -> dict:
        counters = {
            "buffer_hits": self.hits,
            "buffer_misses": self.misses,
            "buffer_evictions": self.evictions,
            "buffer_writebacks": self.writebacks,
            "buffer_resident": len(self._frames),
        }
        counters.update(self._latch.counters())
        return counters

    def histograms(self) -> Dict[str, Histogram]:
        hists = {
            "buffer_miss_stall_ms": self.miss_stall_hist,
            "buffer_writeback_ms": self.writeback_hist,
        }
        hists.update(self._latch.histograms())
        return hists
