"""repro.service — the multi-user Educe* kernel (paper §3.1, §3.3).

The paper's Educe* is "a multi-user system: the EDB is shared and the
compiled clause code stored in it is executed by every session".  This
package supplies that kernel for the reproduction: a
:class:`~repro.service.query_service.QueryService` runs N worker
threads, each owning an independent WAM machine (its own heap, stack,
dictionary and loader cache), all reading one shared
:class:`~repro.edb.store.ExternalStore`.

Concurrency control follows the classic DBMS split (documented in
``docs/CONCURRENCY.md``):

* short-term **latches** protect in-memory structures — the buffer
  pool's frame table and the loader cache;
* one long-term **read-write lock** on the store serializes updates
  against in-flight queries: queries run under the shared read lock,
  mutators take the exclusive write lock and bump the store's
  ``mutation_epoch``, which readers capture to linearize results.

Queries are submitted to a bounded work queue as tickets carrying an
optional deadline; a running query is interrupted cooperatively via the
WAM's instruction-poll hook (:exc:`~repro.errors.QueryInterrupted`).
"""

from .query_service import QueryService, QueryTicket

__all__ = ["QueryService", "QueryTicket"]
