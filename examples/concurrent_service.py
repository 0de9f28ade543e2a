#!/usr/bin/env python3
"""The multi-user kernel: concurrent queries over one shared EDB (§3.3).

Educe* "is a multi-user system": compiled clause code stored in the EDB
is executed by every session.  This example runs a `QueryService` with
four worker sessions over one shared store and walks through the whole
surface:

* concurrent read queries that overlap their simulated disc stalls
  (the buffer pool releases its latch around page reads);
* an interleaved update — it takes the store's exclusive write lock
  and moves the mutation epoch; each worker's loader cache drops the
  affected procedure's blocks at its next call to it;
* a deadline interrupting a runaway query, and a cancelled ticket;
* the post-run accounting: the buffer within capacity, epochs monotone;
* service telemetry: latency histograms, the flight recorder's event
  tail, and one slow query's full ticket trace
  (admit → queue_wait → execute → engine spans).

Run:  python examples/concurrent_service.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro import QueryService                         # noqa: E402
from repro.bang.pager import Pager                     # noqa: E402
from repro.edb.store import ExternalStore              # noqa: E402
from repro.errors import QueryInterrupted              # noqa: E402


def main() -> None:
    # A small buffer pool plus simulated disc latency makes the
    # workload I/O-bound — the regime where worker concurrency pays.
    store = ExternalStore(pager=Pager(buffer_pages=8))
    # ``slow_query_ms`` arms the flight recorder's slow-query capture:
    # any ticket slower than the threshold keeps its full span tree.
    svc = QueryService(store=store, workers=4, queue_size=32,
                       slow_query_ms=5.0)

    print("Loading the family KB into the shared EDB ...")
    svc.store_relation("parent", [
        ("terach", "abraham"), ("terach", "nachor"), ("terach", "haran"),
        ("abraham", "isaac"), ("haran", "lot"), ("haran", "milcah"),
        ("haran", "yiscah"), ("isaac", "esau"), ("isaac", "jacob"),
    ])
    svc.store_program(
        "% lint: external parent/2\n"
        "% lint: disable=L104 anc/2\n"
        "anc(X, Y) :- parent(X, Y). "
        "anc(X, Z) :- parent(X, Y), anc(Y, Z).")
    store.pager.disk.read_latency_s = 0.002

    print("\n-- 1. a batch of concurrent queries (submit_many) --")
    goals = [f"anc({p}, D)" for p in
             ("terach", "abraham", "haran", "isaac")] * 2
    start = time.perf_counter()
    tickets = svc.submit_many(goals)
    for goal, ticket in zip(goals, tickets):
        solutions = ticket.result(timeout=30)
        print(f"  {goal:<18} -> {len(solutions):>2} solutions  "
              f"(epoch {ticket.store_epoch}, {ticket.worker})")
    print(f"  batch wall time: {time.perf_counter() - start:.3f} s "
          f"(4 workers overlapping page stalls)")

    print("\n-- 2. an update serializes against in-flight queries --")
    before = svc.submit("anc(terach, D)")
    n_before = len(before.result(timeout=30))
    svc.assert_external("parent(jacob, joseph).")
    after = svc.submit("anc(terach, D)")
    n_after = len(after.result(timeout=30))
    print(f"  epoch {before.store_epoch}: {n_before} descendants of "
          f"terach")
    print(f"  epoch {after.store_epoch}: {n_after} descendants "
          f"(joseph arrived with mutation "
          f"{after.store_epoch})")

    print("\n-- 3. deadlines and cancellation --")
    svc.store_program("spin :- spin.")
    runaway = svc.submit("spin", timeout=0.05)
    try:
        runaway.result(timeout=30)
    except QueryInterrupted as err:
        print(f"  runaway query: {err}")
    doomed = svc.submit("spin")
    time.sleep(0.02)
    doomed.cancel()
    try:
        doomed.result(timeout=30)
    except QueryInterrupted as err:
        print(f"  cancelled query: {err}")

    print("\n-- 4. the books balance --")
    svc.shutdown()
    telemetry = svc.final_telemetry   # captured by shutdown()
    snap = telemetry["counters"]
    for key in ("service_submitted", "service_completed",
                "service_timeouts", "service_cancelled",
                "service_queue_depth_peak",
                "buffer_resident", "buffer_evictions",
                "store_mutations", "latch_contentions"):
        print(f"  {key:<24} {snap[key]}")
    assert snap["buffer_resident"] <= svc.store.pager.buffer.capacity
    print("  the buffer within its capacity; "
          "mutation epoch = committed updates.")

    print("\n-- 5. what the service saw (telemetry) --")
    for base in ("service_queue_wait_ms", "service_ticket_ms",
                 "buffer_miss_stall_ms", "lock_read_wait_ms"):
        if f"{base}.count" not in snap:
            continue
        print(f"  {base:<24} count={snap[f'{base}.count']:g}  "
              f"p50={snap[f'{base}.p50']:.3f}  "
              f"p99={snap[f'{base}.p99']:.3f}  "
              f"max={snap[f'{base}.max']:.3f}  (ms)")
    print("  flight recorder tail:")
    for event in telemetry["events"][-6:]:
        attrs = "  ".join(f"{k}={v}" for k, v in event.items()
                          if k not in ("seq", "ts", "kind"))
        print(f"    #{event['seq']:<4} {event['kind']:<16} {attrs}")
    slow = telemetry["slow_queries"]
    print(f"  slow queries (> {svc.slow_query_ms:g} ms): {len(slow)}")
    if slow:
        capture = slow[0]
        print(f"  slowest capture — ticket {capture['ticket']} "
              f"({capture['state']}, {capture['total_ms']:.1f} ms), "
              f"trace {capture['trace_id']}:")
        for line in capture["trace"].format_tree().splitlines():
            print("    " + line)


if __name__ == "__main__":
    main()
