"""One read replica: snapshot bootstrap, continuous replay, promote.

A :class:`Replica` owns a *private copy* of the primary's EDB.
Bootstrap copies the primary's checkpoint file and pages sidecar into
the replica's directory and loads the copy — the replica's pager then
reads and writes its own files only; the primary's checkpoint and WAL
are only ever *read* (the WAL via
:class:`~repro.replication.stream.WalTailer`).

The replica keeps the header (length and CRC of the payload) of the
checkpoint it loaded.  Every checkpoint carries a bumped WAL era, so
its header differs from its predecessor's: each apply step first reads
the primary checkpoint's header, and a different one means
re-bootstrap.  A failed re-bootstrap keeps the old header, so the next
step tries again.  Otherwise the step polls the tailer and feeds
committed records through :meth:`~repro.edb.store.ExternalStore.admit`
— the admission function crash recovery uses, so fencing and apply
are the same code:

* a stale record is already in the checkpoint → skipped; when nothing
  but stale records lies before the log's end, the primary has renamed
  its checkpoint and not yet truncated the log → read it again from
  the start, so the next generation is never entered mid-frame;
* a record *ahead* of the checkpoint (one written after the header
  was read) → re-bootstrap;
* a torn tail is an append in flight → wait and retry (never
  truncate someone else's log);
* a transient stream break (``OSError``) → capped exponential
  backoff, then retry from the same position;
* a corrupt frame or an undecodable record → the replica
  **quarantines** (never applies suspect bytes) and re-bootstraps.

Throughout, a read-only :class:`~repro.service.query_service.
QueryService` over the replica store keeps answering queries;
re-bootstrap swaps in a fresh store + service and then drains the old
one, so readers never observe a half-rebuilt database.

:meth:`Replica.promote` is the failover path: stop the loop, drain
every committed record still in the primary's log (acknowledged = WAL
fsynced, so this is exactly the zero-loss set), lift the store's
read-only fence (the service's update path reads the same fence), and
checkpoint to the replica's own home — which bumps the checkpoint era
and starts a fresh WAL generation the ex-replica now owns.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from ..bang.faults import NULL_FAULTS, FaultInjector
from ..edb.store import _CKPT_HEADER, ExternalStore
from ..errors import PromotionError, ReplicationError
from ..obs.events import EventRing
from ..service import QueryService
from .stream import CORRUPT, OK, WAIT, WalTailer

__all__ = ["Replica"]

#: ceiling of the stream-retry exponential backoff, in seconds
_BACKOFF_CAP = 0.5
#: records fetched from the tailer per apply step
_BATCH = 64

#: primary-state probe: () -> (mutation_epoch, wal_next_lsn) | None
PrimaryState = Callable[[], Optional[Tuple[int, int]]]


def _checkpoint_header(path: str) -> bytes:
    """The header of the checkpoint at *path* — its identity."""
    with open(path, "rb") as f:
        return f.read(_CKPT_HEADER.size)


class Replica:
    """A WAL-shipping follower of one primary EDB."""

    def __init__(self, name: str, primary_path: str, directory: str,
                 *, workers: int = 2, queue_size: int = 64,
                 poll_interval: float = 0.005,
                 faults: Optional[FaultInjector] = None,
                 primary_state: Optional[PrimaryState] = None,
                 start: bool = True,
                 **service_kwargs):
        self.name = name
        self.primary_path = primary_path
        self.directory = directory
        #: where this replica checkpoints if promoted
        self.home_path = os.path.join(directory, f"{name}.edb")
        self.workers = workers
        self.queue_size = queue_size
        self.poll_interval = poll_interval
        self.faults = faults or NULL_FAULTS
        self._primary_state = primary_state
        self._service_kwargs = service_kwargs

        #: lifecycle flight recorder — owned by the replica, so it
        #: survives re-bootstraps (store rings are per-store)
        self.events = EventRing()

        # cumulative counters (docs/OBSERVABILITY.md, replica_*)
        self.records_applied = 0
        self.records_stale = 0
        self.bootstraps = 0
        self.rebootstraps = 0
        self.quarantines = 0
        self.stream_retries = 0
        self.torn_tail_waits = 0
        self.promotions = 0

        #: mutation epoch of the last applied record (starts at the
        #: bootstrap checkpoint's epoch)
        self.applied_epoch = 0
        self.quarantined = False
        self.promoted = False
        #: the injected/real crash that killed the apply loop, if any
        self.crashed: Optional[BaseException] = None
        self._last_lag: Tuple[int, int] = (0, 0)
        #: header of the checkpoint copy this replica loaded
        self._checkpoint = b""

        self._service_lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

        os.makedirs(directory, exist_ok=True)
        self.store: Optional[ExternalStore] = None
        self.service: Optional[QueryService] = None
        self.tailer = WalTailer(primary_path + ".wal", faults=self.faults)
        self._bootstrap(initial=True)
        if start:
            self.start()

    # ------------------------------------------------------------ bootstrap

    def _snapshot_paths(self) -> Tuple[str, str]:
        ckpt = os.path.join(self.directory, f"{self.name}.snapshot.edb")
        return ckpt, os.path.basename(self.primary_path)

    def _bootstrap(self, initial: bool = False) -> None:
        """Copy the primary's checkpoint (+ pages sidecars) into this
        replica's directory and load the copy; reset the tailer to the
        head of the primary's current log generation."""
        self.faults.crash_point("replica.bootstrap.before")
        ckpt_copy, primary_base = self._snapshot_paths()
        try:
            shutil.copyfile(self.primary_path, ckpt_copy)
            # Copy every pages sidecar of the primary base; load()
            # binds to the one matching the checkpoint's epoch.  (A
            # concurrent primary checkpoint can remove a sidecar under
            # us — the caller retries.)
            primary_dir = os.path.dirname(
                os.path.abspath(self.primary_path)) or "."
            prefix = primary_base + ".pages."
            copy_base = os.path.basename(ckpt_copy)
            for entry in os.listdir(primary_dir):
                if entry.startswith(prefix):
                    shutil.copyfile(
                        os.path.join(primary_dir, entry),
                        os.path.join(self.directory,
                                     copy_base + entry[len(primary_base):]))
            store = ExternalStore.load(ckpt_copy)
            header = _checkpoint_header(ckpt_copy)
        except OSError as exc:
            raise ReplicationError(
                f"replica {self.name}: bootstrap copy failed "
                f"({type(exc).__name__}: {exc})") from exc
        store.freeze(f"replica {self.name!r} of {self.primary_path}")
        service = QueryService(store=store, workers=self.workers,
                               queue_size=self.queue_size,
                               **self._service_kwargs)
        # A fresh tailer before the new header: lag() never pairs the
        # new checkpoint with an offset into the log it superseded.
        self.tailer.close()
        self.tailer = WalTailer(self.primary_path + ".wal",
                                faults=self.faults)
        with self._service_lock:
            old_service = self.service
            self.store = store
            self.service = service
            self.applied_epoch = store.checkpoint_epoch
            self.quarantined = False
            self._checkpoint = header
        self.bootstraps += 1
        if not initial:
            self.rebootstraps += 1
        if self.events.enabled:
            self.events.record("replica.bootstrap", replica=self.name,
                               primary=self.primary_path,
                               checkpoint_epoch=store.checkpoint_epoch,
                               era=store.wal_era, initial=initial)
        if old_service is not None:
            old_service.shutdown(drain=True, timeout=5.0)

    # ------------------------------------------------------------ apply loop

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"replica-{self.name}", daemon=True)
        self._thread.start()

    @property
    def alive(self) -> bool:
        return (self._thread is not None and self._thread.is_alive()
                and self.crashed is None)

    def _loop(self) -> None:
        backoff = self.poll_interval
        try:
            while not self._stop.is_set():
                advanced, backoff = self._step(backoff)
                if not advanced:
                    self._stop.wait(backoff)
        except BaseException as exc:  # noqa: BLE001 - simulated kill
            # An injected crash "kills the follower process": the loop
            # is dead, the object is inert until a fresh Replica is
            # built (exactly like a real process restart).
            self.crashed = exc

    def _step(self, backoff: float) -> Tuple[bool, float]:
        """One check/poll/apply round.  Returns ``(made_progress,
        next_backoff)``; the loop sleeps *next_backoff* when no
        progress was made."""
        try:
            if self._superseded():
                return self._try_rebootstrap("new checkpoint", backoff)
            status, records = self.tailer.poll(_BATCH)
        except OSError as exc:
            self.stream_retries += 1
            if self.events.enabled:
                self.events.record("replica.stream_retry",
                                   replica=self.name, error=str(exc),
                                   backoff_s=round(backoff, 4))
            return False, min(backoff * 2, _BACKOFF_CAP)

        fate = self._apply_batch(records)
        if fate == "quarantine" or status == CORRUPT:
            self.quarantined = True
            self.quarantines += 1
            if self.events.enabled:
                self.events.record("replica.quarantine",
                                   replica=self.name,
                                   offset=self.tailer.offset)
            return self._try_rebootstrap("corrupt stream", backoff)
        if fate == "rebootstrap":
            return self._try_rebootstrap("record ahead of checkpoint",
                                         backoff)
        if (len(records) < _BATCH and self.tailer.offset
                and self.applied_epoch == self.store.checkpoint_epoch):
            # Only stale records since the bootstrap: the log is not
            # yet truncated.  Reread it from the start.
            self.tailer.offset = self.tailer.next_lsn = 0
            return False, min(max(backoff, self.poll_interval) * 2,
                              _BACKOFF_CAP)
        if records:
            self._update_lag()
            return True, self.poll_interval
        if status == WAIT:
            self.torn_tail_waits += 1
            # Never truncate, never re-bootstrap: an incomplete tail
            # frame is the primary's append in flight (or its crashed
            # tail, which its own recovery will clean up).
            return False, min(max(backoff, self.poll_interval) * 2,
                              _BACKOFF_CAP)
        self._update_lag()
        return False, self.poll_interval

    def _superseded(self) -> bool:
        """True when the primary's checkpoint is no longer the one this
        replica loaded.  Raises :class:`OSError` when it cannot be
        read."""
        return _checkpoint_header(self.primary_path) != self._checkpoint

    def _apply_batch(self, records) -> str:
        """Admit shipped records into the store.  Returns ``"ok"``,
        ``"rebootstrap"`` (a record ahead of our checkpoint — a newer
        checkpoint generation exists) or ``"quarantine"`` (a record
        the store cannot apply)."""
        store = self.store
        for _lsn, payload in records:
            self.faults.crash_point("replica.apply.before")
            verdict, _detail = store.admit(payload)
            if verdict == "undecodable":
                return "quarantine"
            if verdict == "ahead":
                return "rebootstrap"
            if verdict == "stale":
                self.records_stale += 1
                continue
            self.records_applied += 1
            self.applied_epoch = store.mutation_epoch
        return "ok"

    def _try_rebootstrap(self, reason: str,
                         backoff: float) -> Tuple[bool, float]:
        if self.events.enabled:
            self.events.record("replica.rebootstrap", replica=self.name,
                               reason=reason)
        try:
            self._bootstrap()
        except ReplicationError:
            # Transient (primary mid-checkpoint): stay on the old
            # snapshot and its header — the next step checks again.
            self.stream_retries += 1
            return False, min(backoff * 2, _BACKOFF_CAP)
        return True, self.poll_interval

    # ------------------------------------------------------------------ lag

    def lag(self) -> Tuple[Optional[int], Optional[int]]:
        """(lag in mutation epochs, lag in WAL records) against the
        live primary, or the last known values when the primary is
        unreachable (both ``None`` if it never was reachable).  Until
        this replica has loaded the primary's checkpoint, every record
        of the primary's log is unread.  The state is read before the
        header: the primary renames its checkpoint before it truncates
        the log, so the lag can be overstated, never hidden."""
        if self.promoted:
            return (0, 0)   # this replica IS the primary now
        state = self._primary_state() if self._primary_state else None
        if state is None:
            return self._last_lag
        primary_epoch, primary_lsn = state
        try:
            read = 0 if self._superseded() else self.tailer.next_lsn
        except OSError:
            return self._last_lag
        lag = (max(0, primary_epoch - self.applied_epoch),
               max(0, primary_lsn - read))
        self._last_lag = lag
        return lag

    def _update_lag(self) -> None:
        self.lag()

    # ---------------------------------------------------------------- reads

    def submit(self, goal, limit=None, timeout=None):
        with self._service_lock:
            service = self.service
        return service.submit(goal, limit=limit, timeout=timeout)

    def execute(self, goal, limit=None, timeout=None):
        return self.submit(goal, limit=limit, timeout=timeout).result()

    # -------------------------------------------------------------- promote

    def promote(self, timeout: float = 10.0) -> str:
        """Promote this replica to primary; returns its new home path.

        Stops the apply loop, drains every committed record remaining
        in the (dead) primary's log — acknowledged writes are exactly
        the WAL-fsynced ones, so a complete drain is the zero-loss
        guarantee — then lifts the read-only fence and checkpoints to
        :attr:`home_path` (era bump, fresh WAL owned by this store).
        """
        self.faults.crash_point("replica.promote.before")
        self.stop_apply()
        deadline = time.monotonic() + timeout
        while True:
            try:
                superseded = self._superseded()
                status, records = ((OK, []) if superseded
                                   else self.tailer.poll(None))
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise PromotionError(
                        f"replica {self.name}: drain kept failing "
                        f"({exc})") from exc
                time.sleep(self.poll_interval)
                continue
            fate = self._apply_batch(records)
            if fate == "quarantine" or status == CORRUPT:
                raise PromotionError(
                    f"replica {self.name}: corrupt stream during the "
                    "catch-up drain; promote a different replica")
            if superseded or fate == "rebootstrap":
                # A newer checkpoint exists (the primary checkpointed
                # just before dying): re-bootstrap from it — the
                # checkpoint contains every record it truncated — then
                # drain whatever log remains.
                if time.monotonic() >= deadline:
                    raise PromotionError(
                        f"replica {self.name}: drain kept restarting")
                try:
                    self._bootstrap()
                except ReplicationError:
                    time.sleep(self.poll_interval)
                continue
            if status == OK and not records:
                break
            if status == WAIT and not records:
                # An incomplete tail frame was never fsynced, so it was
                # never acknowledged: not part of the zero-loss set.
                break
            if time.monotonic() >= deadline:
                raise PromotionError(
                    f"replica {self.name}: catch-up drain did not "
                    f"complete within {timeout}s")
        self.tailer.close()
        self.faults.crash_point("replica.promote.pre_save")
        self.store.promote(self.home_path)
        self.promoted = True
        self.promotions += 1
        if self.events.enabled:
            self.events.record("replica.promote", replica=self.name,
                               home=self.home_path,
                               era=self.store.wal_era,
                               applied_epoch=self.applied_epoch,
                               records_applied=self.records_applied)
        return self.home_path

    def reattach(self, primary_path: str,
                 primary_state: Optional[PrimaryState] = None) -> None:
        """Follow a new primary (after a failover this replica lost):
        re-bootstrap from the new checkpoint and resume the loop."""
        self.stop_apply()
        self.primary_path = primary_path
        if primary_state is not None:
            self._primary_state = primary_state
        self._bootstrap()
        self.crashed = None
        if self.events.enabled:
            self.events.record("replica.reattach", replica=self.name,
                               primary=primary_path)
        self.start()

    # ------------------------------------------------------------ lifecycle

    def stop_apply(self, timeout: float = 5.0) -> None:
        """Stop the background apply loop (reads keep working)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the loop and the read service.  Idempotent."""
        self.stop_apply(timeout)
        self.tailer.close()
        with self._service_lock:
            service = self.service
        if service is not None:
            service.shutdown(drain=True, timeout=timeout)

    # ------------------------------------------------------------ telemetry

    def gauge_keys(self) -> Tuple[str, ...]:
        return ("replica_lag_epochs", "replica_lag_records",
                f"replica_lag_epochs.{self.name}",
                f"replica_lag_records.{self.name}")

    def counters(self) -> Dict[str, int]:
        lag_epochs, lag_records = self.lag()
        counters = {
            "replica_records_applied": self.records_applied,
            "replica_records_stale": self.records_stale,
            "replica_bootstraps": self.bootstraps,
            "replica_rebootstraps": self.rebootstraps,
            "replica_quarantines": self.quarantines,
            "replica_stream_retries": self.stream_retries,
            "replica_torn_tail_waits": self.torn_tail_waits,
            "replica_promotions": self.promotions,
        }
        counters["replica_lag_epochs"] = lag_epochs or 0
        counters["replica_lag_records"] = lag_records or 0
        counters[f"replica_lag_epochs.{self.name}"] = lag_epochs or 0
        counters[f"replica_lag_records.{self.name}"] = lag_records or 0
        return counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Replica({self.name!r}, applied_epoch="
                f"{self.applied_epoch}, lsn={self.tailer.next_lsn})")
