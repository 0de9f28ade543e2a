"""Incremental, read-only tailing of a primary's live WAL file.

The tailer never writes: it opens its own handle, remembers the byte
offset and LSN of the last committed frame it shipped, and re-examines
the file on every :meth:`WalTailer.poll`.  The frame format, the
parsing policy and the frame loop are shared with recovery: each poll
reads through a fresh :class:`repro.bang.wal.WalScan`.  What differs
is what the *end* of the log means:

========== ========================= ===========================
observed    crashed owner (recovery)  live tailer (this module)
========== ========================= ===========================
torn tail   truncate the garbage      an append in flight —
                                      **wait and retry**
corrupt     truncate (same)           real corruption — quarantine
frame                                 and re-bootstrap, never apply
log shrank  n/a (owner did it)        the primary checkpointed past
                                      us — re-bootstrap
========== ========================= ===========================

The two-physical-write append discipline of
:class:`~repro.bang.wal.WriteAheadLog` is what makes the middle row
sound: a reader racing an in-progress append can only ever see a short
prefix of the new frame, so a *complete* frame that fails its CRC was
not torn by timing — its bytes are wrong.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..bang.faults import NULL_FAULTS, FaultInjector
from ..bang.wal import _FRAME, WalScan

__all__ = ["WalTailer"]

#: poll() statuses
OK = "ok"            # clean end (records may still have been returned)
WAIT = "wait"        # torn tail / file not there yet: retry later
RESET = "reset"      # log shrank below our offset: re-bootstrap
CORRUPT = "corrupt"  # complete-but-bad frame: quarantine, re-bootstrap

#: how a scan's end maps to a poll status: a torn tail is an append
#: still in flight, never garbage to truncate
_END_STATUS = {"ok": OK, "torn": WAIT, "corrupt": CORRUPT}


class WalTailer:
    """A read-only cursor over one WAL file, resumable across polls."""

    def __init__(self, path: str,
                 faults: Optional[FaultInjector] = None):
        self.path = path
        self.faults = faults or NULL_FAULTS
        self._f = None
        #: byte offset just past the last committed frame shipped
        self.offset = 0
        #: LSN the next committed frame must carry
        self.next_lsn = 0
        self.records_streamed = 0
        self.bytes_streamed = 0
        #: header bytes of the frame at offset 0, captured when it was
        #: first shipped.  A *size* check alone cannot detect a log
        #: that was truncated (owner checkpoint) and then regrew to
        #: near our old offset — but the new generation's first frame
        #: carries a different CRC, so a changed anchor means RESET.
        self._anchor: Optional[bytes] = None

    # ------------------------------------------------------------------ poll

    def poll(self, max_records: Optional[int] = 64
             ) -> Tuple[str, List[Tuple[int, bytes]]]:
        """Ship the next batch of committed frames.

        Returns ``(status, records)`` where *records* is a list of
        ``(lsn, payload)`` pairs — possibly non-empty even for a
        non-``"ok"`` status (the committed prefix read before the
        stream ended).  Statuses:

        * ``"ok"`` — clean stop: either *max_records* was reached or
          the committed end of the log (an empty list means caught up);
        * ``"wait"`` — the log ends in an incomplete frame (append in
          flight / crash tail) or does not exist yet: retry later;
        * ``"reset"`` — the file shrank below our offset (the primary
          checkpointed and truncated the log): the caller must
          re-bootstrap from the checkpoint;
        * ``"corrupt"`` — a complete frame failed magic/LSN/CRC: the
          stream cannot be trusted, quarantine and re-bootstrap.

        Transient I/O errors (:class:`OSError`) propagate — the caller
        retries with backoff; the cursor position is unchanged.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return WAIT, []
        if size < self.offset:
            self._reset()
            return RESET, []
        if self._f is None:
            try:
                # Unbuffered: a BufferedReader seek within its own
                # buffer serves *stale* bytes after the owner truncates
                # and rewrites the file under us — every tailer read
                # must hit the OS.
                self._f = open(self.path, "rb", buffering=0)
            except OSError:
                return WAIT, []
        if self._generation_changed(size):
            self._reset()
            return RESET, []
        records: List[Tuple[int, bytes]] = []
        scan = WalScan(self._f, self.faults, size, self.offset,
                       self.next_lsn)
        for payload in scan:
            if self.offset == 0:
                self._f.seek(0)
                self._anchor = self._f.read(_FRAME.size)
            records.append((self.next_lsn, payload))
            self.records_streamed += 1
            self.bytes_streamed += scan.offset - self.offset
            self.offset, self.next_lsn = scan.offset, scan.next_lsn
            if len(records) == max_records:
                return OK, records
        return _END_STATUS[scan.status], records

    def _generation_changed(self, size: int) -> bool:
        """True when the frame at offset 0 is no longer the one we
        shipped — the owner truncated the log (checkpoint) and a new
        generation regrew under the same name, possibly past our
        offset, so the size test alone would miss it."""
        if self._anchor is None or size < _FRAME.size:
            return False
        self._f.seek(0)
        return self._f.read(_FRAME.size) != self._anchor

    def _reset(self) -> None:
        self.close()
        self.offset = 0
        self.next_lsn = 0
        self._anchor = None

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        if self._f is not None:
            try:
                self._f.close()
            finally:
                self._f = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WalTailer({self.path!r}, offset={self.offset}, "
                f"next_lsn={self.next_lsn})")
