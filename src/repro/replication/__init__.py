"""repro.replication — WAL-shipping read replicas (docs/REPLICATION.md).

ROADMAP item: turn the single-node durability layer (checkpoint +
logical-redo WAL, PR 2) and the concurrent kernel (PR 3) into a
horizontal read-scaling and fault-tolerance story.  A **primary**
:class:`~repro.edb.store.ExternalStore` keeps writing its CRC-framed
WAL exactly as before; each **replica** bootstraps from the primary's
checkpoint, then tails the log and replays committed records
continuously under the existing era-fencing rules, serving read-only
:class:`~repro.service.query_service.QueryService` traffic the whole
time.

The three moving parts:

* :class:`~repro.replication.stream.WalTailer` — an incremental,
  read-only cursor over the primary's live WAL file.  It distinguishes
  a *torn tail* (an append in flight: wait and retry, **never**
  truncate) from *corruption* (a complete frame with a bad CRC:
  quarantine) from *truncation* (the primary checkpointed past us:
  re-bootstrap).
* :class:`~repro.replication.replica.Replica` — snapshot bootstrap, a
  background apply loop with capped exponential backoff on stream
  breaks, lag gauges, and :meth:`~repro.replication.replica.Replica.
  promote` (drain the durable tail, lift the read-only fence,
  checkpoint as the new primary — era bump included).
* :class:`~repro.replication.cluster.ReplicaSet` — one primary plus N
  replicas behind a single façade: writes go to the primary,
  staleness-bounded reads (``max_lag``) are routed to the freshest
  admissible replica, and :meth:`~repro.replication.cluster.
  ReplicaSet.failover` runs the supervised promote drill with zero
  acknowledged-write loss.
"""

from .cluster import ReplicaSet
from .replica import Replica
from .stream import WalTailer

__all__ = ["Replica", "ReplicaSet", "WalTailer"]
