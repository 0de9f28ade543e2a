"""A primary plus N read replicas behind one façade.

:class:`ReplicaSet` wires the pieces together the way a deployment
would: one writable :class:`~repro.service.query_service.QueryService`
over the durable primary store, N :class:`~repro.replication.replica.
Replica` followers tailing its WAL, and routing policy on top:

* **writes** (``store_program`` / ``store_relation`` /
  ``assert_external`` / ``execute_admin``) go to the primary;
* **reads** (:meth:`ReplicaSet.submit_read`) go to the freshest
  admissible replica.  A per-query staleness bound ``max_lag`` (in
  mutation epochs) rejects the read with
  :class:`~repro.errors.ReplicaLagExceeded` when no replica satisfies
  it — the caller can widen the bound, wait, or read the primary;
* **failover** (:meth:`ReplicaSet.failover`): when the primary's WAL
  poisons (PR 2 semantics) or its process dies, the freshest replica
  drains the durable log tail and is promoted — era bump, writers
  redirected, stale replicas re-attached to the new primary — with
  zero acknowledged-write loss (acknowledged = WAL-fsynced).

Replica lag gauges and counters are attached to the primary service's
:class:`~repro.obs.registry.MetricsRegistry`, so one
``QueryService.exposition()`` scrape shows the whole cluster:
``replica_lag_epochs`` / ``replica_lag_records`` (summed across
replicas, plus per-replica dotted keys like
``replica_lag_records.r0``), the ``replica_*`` counters, and the
flight-recorder events on each replica's ring.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..bang.faults import NULL_FAULTS, FaultInjector
from ..edb.store import ExternalStore
from ..errors import PromotionError, ReplicaLagExceeded, ReplicationError
from ..obs import MetricsRegistry
from ..service import QueryService
from .replica import Replica

__all__ = ["ReplicaSet"]


class ReplicaSet:
    """One writable primary + N read-only WAL-shipping replicas."""

    def __init__(self, path: str, *, replicas: int = 2,
                 directory: Optional[str] = None,
                 primary_workers: int = 2, replica_workers: int = 2,
                 queue_size: int = 64,
                 poll_interval: float = 0.005,
                 faults: Optional[FaultInjector] = None,
                 replica_faults: Optional[Dict[str, FaultInjector]] = None,
                 **service_kwargs):
        self.primary_path = path
        self.directory = directory or (path + ".replicas")
        os.makedirs(self.directory, exist_ok=True)
        self.primary_store = ExternalStore.open(
            path, faults=faults or NULL_FAULTS)
        self.primary = QueryService(store=self.primary_store,
                                    workers=primary_workers,
                                    queue_size=queue_size,
                                    **service_kwargs)
        #: service configuration (tracing, session knobs) is
        #: cluster-wide: replicas attached now or later get the same
        #: kwargs as the primary, so e.g. replica-drained spans carry
        #: trace ids exactly like primary ones.
        self._service_kwargs = dict(service_kwargs)
        self.primary_dead = False
        self._rr = itertools.count()
        self._lock = threading.RLock()
        self._closed = False

        self.replicas: List[Replica] = []
        replica_faults = replica_faults or {}
        for i in range(replicas):
            name = f"r{i}"
            self.attach_replica(name,
                                faults=replica_faults.get(name),
                                workers=replica_workers,
                                poll_interval=poll_interval,
                                queue_size=queue_size)

    # ------------------------------------------------------------- topology

    def _primary_state(self) -> Optional[Tuple[int, int]]:
        if self.primary_dead:
            return None
        store = self.primary_store
        wal = store.wal
        return (store.mutation_epoch, wal.next_lsn if wal else 0)

    def attach_replica(self, name: str,
                       faults: Optional[FaultInjector] = None,
                       **replica_kwargs) -> Replica:
        """Bootstrap a new follower of the current primary and wire its
        metrics into the primary service's registry."""
        kwargs = dict(self._service_kwargs)
        kwargs.update(replica_kwargs)
        replica = Replica(name, self.primary_path,
                          os.path.join(self.directory, name),
                          faults=faults,
                          primary_state=self._primary_state,
                          **kwargs)
        with self._lock:
            self.replicas.append(replica)
        self.primary.metrics.attach(replica, gauges=replica.gauge_keys())
        if self.primary.events.enabled:
            self.primary.events.record("replica.attach", replica=name,
                                       primary=self.primary_path)
        return replica

    # ---------------------------------------------------------------- reads

    def submit_read(self, goal, limit: Optional[int] = None,
                    timeout: Optional[float] = None,
                    max_lag: Optional[int] = None):
        """Enqueue a read on the freshest admissible replica.

        *max_lag* bounds staleness in **mutation epochs** (0 = only a
        fully caught-up replica may answer).  With no admissible
        replica the read is rejected with
        :class:`~repro.errors.ReplicaLagExceeded`; with no replicas at
        all it falls through to the primary (when alive).
        """
        candidates: List[Tuple[int, Replica]] = []
        best: Optional[int] = None
        with self._lock:
            configured = len(self.replicas)
            pool = [r for r in self.replicas
                    if r.alive and not r.quarantined]
        for replica in pool:
            lag_epochs, _lag_records = replica.lag()
            lag = 0 if lag_epochs is None else lag_epochs
            best = lag if best is None else min(best, lag)
            if max_lag is None or lag <= max_lag:
                candidates.append((lag, replica))
        if not candidates:
            # Fall through to the primary only when the cluster has no
            # replicas at all; configured-but-unhealthy replicas fail
            # the read *typed* rather than silently loading the writer.
            if configured or self.primary_dead:
                raise ReplicaLagExceeded(
                    -1 if max_lag is None else max_lag,
                    best if best is not None else "no live replica")
            return self.primary.submit(goal, limit=limit, timeout=timeout)
        freshest = min(lag for lag, _ in candidates)
        freshest_pool = [r for lag, r in candidates if lag == freshest]
        chosen = freshest_pool[next(self._rr) % len(freshest_pool)]
        return chosen.submit(goal, limit=limit, timeout=timeout)

    def execute_read(self, goal, limit: Optional[int] = None,
                     timeout: Optional[float] = None,
                     max_lag: Optional[int] = None):
        return self.submit_read(goal, limit=limit, timeout=timeout,
                                max_lag=max_lag).result()

    def wait_for_catch_up(self, timeout: float = 10.0,
                          poll: float = 0.002) -> bool:
        """Block until every live replica has applied all of the
        primary's mutations (lag 0).  Returns False on timeout."""
        import time as _time
        deadline = _time.monotonic() + timeout
        target = self.primary_store.mutation_epoch
        while _time.monotonic() < deadline:
            with self._lock:
                pool = [r for r in self.replicas if r.alive]
            if pool and all(r.applied_epoch >= target for r in pool):
                return True
            _time.sleep(poll)
        return False

    # --------------------------------------------------------------- writes

    def store_program(self, text: str) -> None:
        self.primary.store_program(text)

    def store_relation(self, name: str, rows, **kwargs) -> None:
        self.primary.store_relation(name, rows, **kwargs)

    def assert_external(self, clause_text: str) -> None:
        self.primary.assert_external(clause_text)

    def execute_admin(self, goal, limit: Optional[int] = None):
        return self.primary.execute_admin(goal, limit=limit)

    def execute(self, goal, limit: Optional[int] = None,
                timeout: Optional[float] = None):
        """Run a read on the primary (the linearizable path)."""
        return self.primary.execute(goal, limit=limit, timeout=timeout)

    def checkpoint(self) -> None:
        """Checkpoint the primary (truncates its WAL — replicas behind
        the truncation horizon re-bootstrap automatically)."""
        self.primary_store.save(self.primary_path)

    # ------------------------------------------------------------- failover

    def kill_primary(self) -> None:
        """Simulate abrupt primary process death: the service stops
        accepting work and the store object is abandoned.  Durable
        state (checkpoint + fsynced WAL) stays on disc — that is
        exactly the acknowledged-write set a promoted replica must
        serve."""
        with self._lock:
            self.primary_dead = True
        self.primary.shutdown(drain=False, timeout=5.0)
        if self.primary.events.enabled:
            self.primary.events.record("replica.primary_lost",
                                       primary=self.primary_path)

    def poisoned(self) -> Optional[str]:
        """The primary's WAL-poison reason, if its log failed."""
        return self.primary_store._poisoned

    def failover(self, timeout: float = 10.0) -> str:
        """Supervised promote drill; returns the new primary's name.

        Picks the freshest live replica (max applied epoch, then max
        shipped LSN), drains + promotes it, redirects writes to its
        now-writable service, and re-attaches the remaining replicas
        to the new primary's home.  If the freshest candidate fails to
        promote, the next one is tried.
        """
        with self._lock:
            if not self.primary_dead:
                self.kill_primary()
            candidates = sorted(
                (r for r in self.replicas if r.crashed is None),
                key=lambda r: (r.applied_epoch, r.tailer.next_lsn),
                reverse=True)
        if not candidates:
            raise PromotionError("no live replica to promote")
        winner: Optional[Replica] = None
        last_error: Optional[Exception] = None
        for candidate in candidates:
            try:
                candidate.promote(timeout=timeout)
                winner = candidate
                break
            except (PromotionError, ReplicationError) as exc:
                last_error = exc
        if winner is None:
            raise PromotionError(
                f"no replica could be promoted ({last_error})")

        with self._lock:
            self.replicas.remove(winner)
            self.primary_path = winner.home_path
            self.primary_store = winner.store
            self.primary = winner.service
            self.primary_dead = False
            stale = list(self.replicas)
        # The new primary's exposition must show the whole cluster,
        # like the old one's did — the winner's own lifetime counters
        # (promotions, bootstraps, records applied) included.
        self.primary.metrics.attach(winner, gauges=winner.gauge_keys())
        for replica in stale:
            self.primary.metrics.attach(replica,
                                        gauges=replica.gauge_keys())
            replica.reattach(self.primary_path, self._primary_state)
        if self.primary.events.enabled:
            self.primary.events.record("replica.promote",
                                       replica=winner.name,
                                       home=winner.home_path,
                                       era=winner.store.wal_era)
        return winner.name

    # ------------------------------------------------------------ telemetry

    def counters(self) -> Dict[str, int]:
        with self._lock:
            pool = list(self.replicas)
        return MetricsRegistry.merge(
            *(replica.counters() for replica in pool))

    def telemetry(self, events: Optional[int] = 200) -> Dict[str, Any]:
        """Cluster-wide aggregate: the primary service's telemetry plus
        per-replica summaries and each replica's lifecycle events."""
        with self._lock:
            pool = list(self.replicas)
        summary = []
        for replica in pool:
            lag_epochs, lag_records = replica.lag()
            summary.append({
                "name": replica.name, "alive": replica.alive,
                "quarantined": replica.quarantined,
                "applied_epoch": replica.applied_epoch,
                "lag_epochs": lag_epochs, "lag_records": lag_records,
                "events": replica.events.tail(events),
            })
        telemetry = self.primary.telemetry(events)
        telemetry["replicas"] = summary
        return telemetry

    def exposition(self) -> str:
        """Prometheus text for the whole cluster (the primary service's
        registry, which carries every replica's counters and gauges)."""
        return self.primary.exposition()

    # ------------------------------------------------------------ lifecycle

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop replicas, then the primary.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool = list(self.replicas)
        for replica in pool:
            replica.shutdown(timeout)
        self.primary.shutdown(drain=True, timeout=timeout)

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
