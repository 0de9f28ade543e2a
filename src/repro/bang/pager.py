"""Paged storage with I/O accounting.

The "disc" is a byte store keyed by page id.  Every page holds one
image format, owned by this module: a ``struct`` header (key block
length, records block length), the key block (the leaf's packed
float64 key vectors, see :mod:`repro.bang.grid`), then the records
block (a pickle of the leaf's record list).  :meth:`DiskStore.read`
checks the header and splits the image without decoding the records:
it returns ``(keys, block)``, and :meth:`Pager.decode` turns a block
into its record list only when a reader needs the records.  A page
fetch therefore still does real (de)serialisation work — the CPU/IO
split the paper measures (§2.2, §5.4) stays observable — but a leaf
whose keys all miss the query box is never unpickled.

Two disc implementations share the :class:`DiskStore` interface:

* :class:`DiskStore` — page images in a dict, the default for
  throw-away sessions and benchmarks;
* :class:`FileDiskStore` — page images laid out in a real file, one
  framed record per page write with a ``(magic, page id, length,
  CRC32)`` header, so torn writes and bit-rot are *detected* at read
  time rather than surfacing as garbage query answers.

Corruption handling is uniform: a page whose image cannot be validated,
or whose records block cannot be decoded, raises a typed
:class:`~repro.errors.PageError` and is **quarantined** — subsequent
reads fail fast with a clear message, the ``pages_quarantined`` gauge
reflects it, and the rest of the database stays queryable.  Recovery
(:meth:`repro.edb.store.ExternalStore.open`) runs
:meth:`DiskStore.verify_all`, which splits every image and decodes
every records block, to sweep for damage up front.

Counters:

* ``reads`` / ``writes`` — page transfers to/from the disc store, the
  quantity Table 2b reports as "read and write pages";
* ``bytes_read`` / ``bytes_written`` — transfer volume for the cost
  model's transfer-time term;
* ``page_corruptions`` — corrupt page images detected at read/verify
  time (bad frame, CRC mismatch, mis-sized image, undecodable records
  block);
* ``pages_quarantined`` — gauge: pages currently quarantined.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import PageError
from ..obs.tracing import event
from .faults import NULL_FAULTS, FaultInjector

DEFAULT_PAGE_SIZE = 4096

#: Leaf image header: key block length u32 | records block length u32.
_LEAF = struct.Struct("<II")


class DiskStore:
    """The simulated disc: page id → leaf image.

    A page payload is a ``(keys, records)`` pair: ``keys`` the packed
    key block, ``records`` the record list.  :meth:`read` returns the
    records still encoded, as the block :meth:`decode` takes.

    Thread safety: page table, counters and (for the file-backed
    subclass) the shared file handle are guarded by one internal I/O
    lock, so concurrent buffer-pool misses from different service
    workers never interleave a seek with another thread's read.
    ``read_latency_s`` optionally simulates disc access latency with a
    real sleep *outside* the lock — concurrent readers overlap their
    stalls exactly as a multi-user KBMS overlaps real disc arms, which
    is what ``benchmarks/bench_concurrency.py`` measures.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = page_size
        self._pages: Dict[int, bytes] = {}
        self._next_id = 0
        self._io_lock = threading.Lock()
        self.read_latency_s = 0.0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.page_corruptions = 0
        self.quarantined: Set[int] = set()

    def allocate(self) -> int:
        """Reserve a fresh page id (no I/O)."""
        with self._io_lock:
            pid = self._next_id
            self._next_id += 1
            self._register_page(pid)
            return pid

    # The I/O lock and simulated latency are runtime state.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_io_lock"] = None
        state["read_latency_s"] = 0.0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._io_lock = threading.Lock()
        # Counters are session-scoped: a loaded disc reports the work
        # of the session that loaded it, not of the one that saved it.
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = 0
        self.page_corruptions = 0

    def read(self, page_id: int) -> Optional[Tuple[bytes, bytes]]:
        """``(keys, block)`` of the page's image, the records block still
        encoded; ``None`` for a page never written."""
        if self.read_latency_s:
            time.sleep(self.read_latency_s)
        with self._io_lock:
            if page_id in self.quarantined:
                raise PageError(
                    f"page {page_id} is quarantined (corrupt image detected)")
            image = self._load_image(page_id)
            self.reads += 1
            self.bytes_read += self.page_size
            # Page transfers are *events* on the span open on this
            # thread (span-per-page would be far too fine-grained).
            event("page.read", page=page_id, bytes=self.page_size)
            if not image:
                return None
            return self._split(page_id, image)

    def write(self, page_id: int, payload: Tuple[bytes, list]) -> None:
        keys, records = payload
        block = pickle.dumps(records, protocol=4)
        image = _LEAF.pack(len(keys), len(block)) + keys + block
        with self._io_lock:
            if not self._page_exists(page_id):
                raise PageError(f"page {page_id} does not exist")
            self.writes += 1
            self.bytes_written += self.page_size
            event("page.write", page=page_id, bytes=self.page_size)
            self._store_image(page_id, image)
            # A full rewrite replaces the damaged image: lift the
            # quarantine.
            self.quarantined.discard(page_id)

    def free(self, page_id: int) -> None:
        with self._io_lock:
            self._pages.pop(page_id, None)
            self.quarantined.discard(page_id)

    def decode(self, page_id: int, block: bytes) -> list:
        """The record list a records block encodes; an undecodable block
        quarantines the page."""
        try:
            records = pickle.loads(block)
        except Exception as exc:
            reason = (f"undecodable records block "
                      f"({type(exc).__name__}: {exc})")
        else:
            if type(records) is list:
                return records
            reason = f"records block holds a {type(records).__name__}"
        with self._io_lock:
            raise self._corrupt(page_id, reason)

    def verify_all(self) -> List[int]:
        """Validate every page image — header, key block and the decoded
        records block; quarantine and return the corrupt ones (sorted).
        Bypasses the read counters: verification is a recovery sweep,
        not simulated query I/O."""
        bad: List[int] = []
        for pid in sorted(self._page_ids()):
            if pid in self.quarantined:
                bad.append(pid)
                continue
            try:
                image = self._load_image(pid)
                if image:
                    self.decode(pid, self._split(pid, image)[1])
            except PageError:
                bad.append(pid)
        return bad

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def io_counters(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "pages": self.page_count,
            "page_corruptions": self.page_corruptions,
            "pages_quarantined": len(self.quarantined),
        }

    # ---------------------------------------------------- storage internals

    def _register_page(self, pid: int) -> None:
        self._pages[pid] = b""

    def _page_exists(self, pid: int) -> bool:
        return pid in self._pages

    def _page_ids(self):
        return self._pages.keys()

    def _load_image(self, pid: int) -> bytes:
        image = self._pages.get(pid)
        if image is None:
            raise PageError(f"page {pid} does not exist")
        return image

    def _store_image(self, pid: int, image: bytes) -> None:
        self._pages[pid] = image

    def _split(self, pid: int, image: bytes) -> Tuple[bytes, bytes]:
        """The key block and the (encoded) records block of *image*."""
        if len(image) >= _LEAF.size:
            nkeys, nblock = _LEAF.unpack_from(image)
            end = _LEAF.size + nkeys
            if end + nblock == len(image) and not nkeys % 8:
                return image[_LEAF.size:end], image[end:]
        raise self._corrupt(pid, f"not a leaf image ({len(image)} bytes, "
                            f"header and blocks disagree)")

    def _corrupt(self, pid: int, reason: str) -> PageError:
        """Record a corrupt page: count it, quarantine it, and build the
        typed error for the caller to raise."""
        self.page_corruptions += 1
        self.quarantined.add(pid)
        return PageError(f"page {pid}: {reason}")


# Per-page record framing for FileDiskStore:
#   magic "PG" (2) | page id u64 | payload length u32 | crc32 u32 | payload
PAGE_MAGIC = b"PG"
_PAGE_FRAME = struct.Struct(">2sQII")


class FileDiskStore(DiskStore):
    """A disc whose pages live in a real file, one framed record each.

    The file is append-only within an *epoch*: a page write appends a
    fresh record and repoints the in-memory index ``{page id →
    (offset, frame length)}``; superseded records become dead space that
    :meth:`compact_to` reclaims by copying live records into a new
    epoch file (done by every checkpoint).  Because records are never
    overwritten in place, a checkpoint taken earlier in the epoch keeps
    referencing valid offsets no matter what is appended afterwards —
    the property crash recovery relies on.

    Every read re-validates the record frame: magic, the page id echoed
    in the header, the payload length, and the payload CRC32.  Torn
    appends (crash mid-write) and flipped bits are therefore *detected*
    and reported as :class:`~repro.errors.PageError`, never returned as
    silently wrong data.

    Pickling (inside an EDB checkpoint) captures the index and epoch but
    not the file handle; :meth:`reattach` reopens the epoch file, which
    :meth:`repro.edb.store.ExternalStore.load` derives from the
    checkpoint path — the checkpoint and its sidecars relocate together.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE,
                 faults: Optional[FaultInjector] = None, epoch: int = 1):
        super().__init__(page_size)
        self.path = path
        self.epoch = epoch
        self.faults = faults or NULL_FAULTS
        # page id -> (offset, frame length); None = allocated, unwritten
        self._index: Dict[int, Optional[Tuple[int, int]]] = {}
        self._f = open(path, "a+b", buffering=0)
        self._end = os.path.getsize(path)

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_f"] = None
        state["faults"] = None
        # The path is derived from the checkpoint location at load time,
        # so a checkpoint + sidecar file set can be moved wholesale.
        state["path"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self.faults = NULL_FAULTS

    def reattach(self, path: str) -> None:
        """Reopen the pages file after unpickling (or relocation)."""
        if not os.path.exists(path):
            raise PageError(f"pages file {path} does not exist")
        self.path = path
        self._f = open(path, "a+b", buffering=0)
        self._end = os.path.getsize(path)

    def _require_file(self):
        if self._f is None:
            raise PageError(
                "FileDiskStore is detached from its pages file; "
                "open the EDB via ExternalStore.load/open")
        return self._f

    # ---------------------------------------------------- storage internals

    def _register_page(self, pid: int) -> None:
        self._index[pid] = None

    def _page_exists(self, pid: int) -> bool:
        return pid in self._index

    def _page_ids(self):
        return self._index.keys()

    def _load_image(self, pid: int) -> bytes:
        if pid not in self._index:
            raise PageError(f"page {pid} does not exist")
        entry = self._index[pid]
        if entry is None:
            return b""      # allocated but never flushed: empty page
        offset, frame_len = entry
        f = self._require_file()
        f.seek(offset)
        frame = self.faults.read(f, frame_len)
        if len(frame) < _PAGE_FRAME.size:
            raise self._corrupt(pid, "short page frame (torn write?)")
        magic, stored_pid, length, crc = _PAGE_FRAME.unpack(
            frame[:_PAGE_FRAME.size])
        payload = frame[_PAGE_FRAME.size:]
        if magic != PAGE_MAGIC:
            raise self._corrupt(pid, f"bad page frame magic {magic!r}")
        if stored_pid != pid:
            raise self._corrupt(
                pid, f"frame belongs to page {stored_pid} "
                f"(directory corruption)")
        if length != len(payload):
            raise self._corrupt(
                pid, f"torn page frame ({len(payload)} of {length} "
                f"payload bytes)")
        if zlib.crc32(payload) != crc:
            raise self._corrupt(
                pid, f"CRC mismatch (stored {crc:#010x}, computed "
                f"{zlib.crc32(payload):#010x})")
        return payload

    def _store_image(self, pid: int, image: bytes) -> None:
        f = self._require_file()
        frame = _PAGE_FRAME.pack(PAGE_MAGIC, pid, len(image),
                                 zlib.crc32(image)) + image
        offset = self._end
        self.faults.crash_point("pages.append.before")
        self.faults.write(f, frame)
        self._end = offset + len(frame)
        self._index[pid] = (offset, len(frame))

    def free(self, page_id: int) -> None:
        with self._io_lock:
            self._index.pop(page_id, None)
            self.quarantined.discard(page_id)

    @property
    def page_count(self) -> int:
        return len(self._index)

    # ----------------------------------------------------------- durability

    def sync(self) -> None:
        """fsync the pages file (called at checkpoint barriers)."""
        os.fsync(self._require_file().fileno())

    def compact_to(self, new_path: str, new_epoch: int) -> None:
        """Copy live page records into a fresh epoch file and switch to
        it.  The old file is left untouched on disc (an older checkpoint
        may still reference it); the caller removes it once the new
        checkpoint is durable.  Quarantined pages keep their quarantine
        but carry no image into the new epoch — they stay typed errors,
        never silent data loss dressed as an empty page.
        """
        new_index: Dict[int, Optional[Tuple[int, int]]] = {}
        with open(new_path, "wb", buffering=0) as out:
            end = 0
            for pid in sorted(self._index):
                if pid in self.quarantined:
                    new_index[pid] = None
                    continue
                try:
                    image = self._load_image(pid)
                except PageError:
                    new_index[pid] = None   # just self-quarantined
                    continue
                if not image:
                    new_index[pid] = None
                    continue
                frame = _PAGE_FRAME.pack(PAGE_MAGIC, pid, len(image),
                                         zlib.crc32(image)) + image
                self.faults.write(out, frame)
                new_index[pid] = (end, len(frame))
                end += len(frame)
            out.flush()
            os.fsync(out.fileno())
        if self._f is not None:
            self._f.close()
        self.path = new_path
        self.epoch = new_epoch
        self._index = new_index
        self._f = open(new_path, "a+b", buffering=0)
        self._end = os.path.getsize(new_path)


class Pager:
    """Page allocation + access through a buffer pool.

    All page traffic goes through :class:`~repro.bang.buffer.BufferPool`;
    the pager is the single facade storage clients use.  A frame holds
    a ``(keys, records)`` payload whose records are a list, or — read
    from disc and not yet needed — the encoded block: a reader decodes
    it with :meth:`decode` and hands the decoded payload to the pool's
    :meth:`~repro.bang.buffer.BufferPool.memo`, so a buffer hit never
    decodes twice.

    A checkpoint pickles the disc and the pool's capacity; the pool is
    runtime state, rebuilt empty on load.
    """

    def __init__(self, disk: Optional[DiskStore] = None,
                 buffer_pages: int = 128):
        from .buffer import BufferPool  # local import to avoid cycle
        self.disk = disk or DiskStore()
        self.buffer = BufferPool(self.disk, capacity=buffer_pages)

    def __reduce__(self):
        return Pager, (self.disk, self.buffer.capacity)

    def allocate(self, initial: Tuple[bytes, list]) -> int:
        pid = self.disk.allocate()
        self.buffer.install(pid, initial)
        return pid

    def get(self, page_id: int) -> Any:
        return self.buffer.get(page_id)

    def decode(self, page_id: int, block: bytes) -> list:
        """The record list of a page's records block; an undecodable
        block drops the frame and quarantines the page."""
        try:
            return self.disk.decode(page_id, block)
        except PageError:
            self.buffer.discard(page_id)
            raise

    def put(self, page_id: int, payload: Any) -> None:
        self.buffer.put(page_id, payload)

    def quarantine(self, page_id: int, reason: str) -> PageError:
        """Drop a page its owner found malformed and quarantine its disc
        image, like a corrupt read; returns the typed error to raise."""
        self.buffer.discard(page_id)
        with self.disk._io_lock:
            return self.disk._corrupt(page_id, reason)

    def flush(self) -> None:
        self.buffer.flush()

    def free(self, page_id: int) -> None:
        """Release a page entirely (buffer frame + disc image)."""
        self.buffer.discard(page_id)
        self.disk.free(page_id)

    def io_counters(self) -> dict:
        counters = self.disk.io_counters()
        counters.update(self.buffer.counters())
        return counters

    def histograms(self) -> dict:
        """Duration histograms of the storage stack (buffer latch
        waits, miss stalls, write-backs); see docs/OBSERVABILITY.md."""
        return self.buffer.histograms()

    @property
    def events(self):
        return self.buffer.events

    @events.setter
    def events(self, ring) -> None:
        """Thread a flight-recorder ring through the storage stack
        (currently: buffer eviction events)."""
        self.buffer.events = ring
