"""Write-ahead log for the durable EDB.

Between checkpoints, every committed EDB mutation (``store_rules``,
``assert_clause``, ``retract_clause``, ...) appends one *redo record* to
this log; :meth:`repro.edb.store.ExternalStore.open` replays the
committed records on top of the last checkpoint to reconstruct the
pre-crash state.  The log knows nothing about record *contents* — it is
a byte-payload journal with crash-safe framing:

.. code-block:: text

    frame := magic "WA" (2) | lsn u64 | length u32 | crc32 u32 | payload

All integers are big-endian.  A record is **committed** iff its frame is
complete and its CRC matches; a scan stops at the first torn or
corrupt frame (a crash mid-append) and reports the byte offset of the
last good frame so recovery can truncate the garbage tail.  LSNs are
sequential from 0 within one log generation; a gap or repeat is treated
the same as corruption (the log cannot be trusted past it).

Appends are written through an unbuffered file descriptor and fsynced
before :meth:`append` returns — when the caller regains control, the
record is durable.  All physical I/O goes through the pluggable
:class:`~repro.bang.faults.FaultInjector` so tests can tear frames and
kill the process mid-append deterministically.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Dict, Optional, Tuple

from ..errors import WalError
from ..obs.registry import Histogram
from .faults import NULL_FAULTS, FaultInjector

WAL_MAGIC = b"WA"
_FRAME = struct.Struct(">2sQII")  # magic, lsn, payload length, crc32

#: Refuse to trust absurd lengths (a corrupt frame could otherwise ask
#: recovery to allocate gigabytes).
MAX_RECORD_BYTES = 64 * 1024 * 1024


def read_frame(f, faults: FaultInjector, offset: int, size: int,
               expected_lsn: int) -> Tuple[str, bytes]:
    """Read the frame starting at *offset* from a file positioned there.

    Returns ``(status, payload)``:

    * ``"ok"`` — a committed frame; *payload* holds its bytes.
    * ``"torn"`` — the frame extends past *size* (an append in
      progress, or a crash mid-append).  Recovery truncates here; a
      live tailer must wait and retry, **never** truncate.
    * ``"corrupt"`` — a complete frame whose magic, LSN sequence or
      CRC is wrong.  The log cannot be trusted past this point.

    The distinction matters because the writer emits each frame in two
    physical writes (header split, then the rest) followed by fsync: a
    racing reader can only ever observe a short prefix of an
    in-progress frame, so complete-but-CRC-bad bytes are genuine
    corruption, not a race.
    """
    if offset + _FRAME.size > size:
        return "torn", b""
    header = faults.read(f, _FRAME.size)
    if len(header) < _FRAME.size:
        return "torn", b""
    magic, lsn, length, crc = _FRAME.unpack(header)
    if (magic != WAL_MAGIC or lsn != expected_lsn
            or length > MAX_RECORD_BYTES):
        return "corrupt", b""
    if offset + _FRAME.size + length > size:
        return "torn", b""
    payload = faults.read(f, length)
    if len(payload) < length:
        return "torn", b""
    if zlib.crc32(payload) != crc:
        return "corrupt", b""
    return "ok", payload


class WalScan:
    """Incremental iterator over the committed frames of a WAL file.

    Yields one payload at a time so recovery and replica tailing stay
    memory-bounded regardless of log size.  After exhaustion:

    * :attr:`offset` — file offset just past the last committed frame
      (the *good end*; recovery truncates trailing garbage to here),
    * :attr:`next_lsn` — the LSN the next committed frame would carry,
    * :attr:`status` — ``"ok"`` (clean end of log), ``"torn"`` or
      ``"corrupt"`` (see :func:`read_frame`),
    * :attr:`torn` — true when any trailing bytes follow the committed
      prefix (either torn or corrupt end).

    The file *size* is sampled once at construction: frames appended
    after the cursor was created are not visited (the tailer simply
    creates a fresh cursor per poll).  Every step re-seeks to its own
    offset, so interleaved appends through the same handle cannot
    derail the cursor.
    """

    def __init__(self, f, faults: FaultInjector, size: int,
                 offset: int = 0, expected_lsn: int = 0):
        self._f = f
        self._faults = faults
        self.size = size
        self.offset = offset
        self.next_lsn = expected_lsn
        self.status = "ok"
        self._done = False

    @property
    def torn(self) -> bool:
        return self.status != "ok"

    def __iter__(self) -> "WalScan":
        return self

    def __next__(self) -> bytes:
        if self._done:
            raise StopIteration
        if self.offset >= self.size:
            self._done = True
            raise StopIteration
        self._f.seek(self.offset)
        status, payload = read_frame(self._f, self._faults, self.offset,
                                     self.size, self.next_lsn)
        if status != "ok":
            self.status = status
            self._done = True
            raise StopIteration
        self.offset += _FRAME.size + len(payload)
        self.next_lsn += 1
        return payload


class WriteAheadLog:
    """Append-only, CRC-framed record log over one file."""

    def __init__(self, path: str, faults: Optional[FaultInjector] = None):
        self.path = path
        self.faults = faults or NULL_FAULTS
        self._f = open(path, "a+b", buffering=0)
        self._end = os.path.getsize(path)
        self.next_lsn = 0          # fixed up by recovery / truncate()
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0
        self.truncations = 0
        #: wall time of each append (writes + fsync) and of the fsync
        #: alone — the fsync dominates, and its tail is what a stalled
        #: mutator is actually waiting on
        self.append_hist = Histogram()
        self.fsync_hist = Histogram()

    def _require_file(self):
        """The open log file, or a typed error after :meth:`close`
        (e.g. a handle retained across a save-as that re-homed the
        store's WAL)."""
        if self._f is None:
            raise WalError(
                f"{self.path}: write-ahead log is closed (detached file)")
        return self._f

    # ----------------------------------------------------------------- write

    def append(self, payload: bytes) -> int:
        """Durably append one record; returns its LSN.

        The frame is written in two physical writes with the
        ``wal.append.mid`` crash point between them, so a fault plan can
        leave a genuinely torn frame on disc.  The file is fsynced
        before returning (``wal.append.synced`` fires after the sync).
        """
        f = self._require_file()
        if len(payload) > MAX_RECORD_BYTES:
            raise WalError(
                f"{self.path}: record of {len(payload)} bytes exceeds "
                f"MAX_RECORD_BYTES ({MAX_RECORD_BYTES})")
        lsn = self.next_lsn
        frame = _FRAME.pack(WAL_MAGIC, lsn, len(payload),
                            zlib.crc32(payload)) + payload
        started = time.perf_counter()
        self.faults.crash_point("wal.append.before")
        split = _FRAME.size // 2
        self.faults.write(f, frame[:split])
        self.faults.crash_point("wal.append.mid")
        self.faults.write(f, frame[split:])
        sync_started = time.perf_counter()
        os.fsync(f.fileno())
        finished = time.perf_counter()
        # Appends are serialized by the store's write lock, so the
        # histogram updates need no further synchronisation.
        self.fsync_hist.observe((finished - sync_started) * 1000.0)
        self.append_hist.observe((finished - started) * 1000.0)
        self.syncs += 1
        self.faults.crash_point("wal.append.synced")
        self._end += len(frame)
        self.next_lsn = lsn + 1
        self.records_appended += 1
        self.bytes_appended += len(frame)
        return lsn

    # ------------------------------------------------------------------ read

    def scan_from(self, offset: int = 0,
                  expected_lsn: int = 0) -> WalScan:
        """Incremental committed-frame cursor starting at *offset*.

        Recovery iterates it instead of materialising every payload at
        once; a replica tailer resumes from its last good end by
        passing the offset/LSN pair it remembered.  The cursor borrows
        this log's file handle, so consume it before interleaving other
        scans.  It does **not** reposition :attr:`next_lsn` — the
        caller decides what the cursor's end means.
        """
        f = self._require_file()
        size = os.path.getsize(self.path)
        return WalScan(f, self.faults, size, offset, expected_lsn)

    # ----------------------------------------------------------- maintenance

    def truncate_to(self, offset: int) -> None:
        """Physically drop everything past *offset* (torn-tail repair),
        so later appends never sit behind unreadable garbage."""
        f = self._require_file()
        f.truncate(offset)
        os.fsync(f.fileno())
        self.syncs += 1
        self._end = offset

    def truncate(self) -> None:
        """Reset the log to empty (after a successful checkpoint)."""
        f = self._require_file()
        f.truncate(0)
        os.fsync(f.fileno())
        self.syncs += 1
        self._end = 0
        self.next_lsn = 0
        self.truncations += 1

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None

    def counters(self) -> dict:
        return {
            "wal_records_appended": self.records_appended,
            "wal_bytes_appended": self.bytes_appended,
            "wal_truncations": self.truncations,
        }

    def histograms(self) -> Dict[str, Histogram]:
        return {
            "wal_append_ms": self.append_hist,
            "wal_fsync_ms": self.fsync_hist,
        }
