"""Concurrent query throughput: N workers over one shared EDB.

Closed-loop benchmark for `repro.service.QueryService` (paper §3.3, the
multi-user kernel): L client threads each submit a read-only Wisconsin
point-select, wait for its result, and immediately submit the next —
the classic closed loop, so offered load tracks service capacity and
the queue never grows unboundedly.

The workload is **I/O-bound by construction**, which is what makes
worker concurrency pay on a GIL runtime: the disc store simulates
per-page read latency (released outside every latch), the buffer pool
is far smaller than the working set, and the pool's miss path performs
the disc read outside its latch — so K in-flight queries overlap K
page stalls, exactly the effect a 1990 multi-user KBMS got from
overlapping real disc arms.

Run:  PYTHONPATH=src python benchmarks/bench_concurrency.py
      [--queries 200] [--latency-ms 2.0] [--buffer-pages 8]
      [--workers 1,2,4,8,16] [--scale 0.2] [--seed 7]
      [--exposition PATH]

Reports per worker count: throughput (queries/s), mean / p50 / p95
latency, speedup vs. 1 worker.  The acceptance bar recorded in
EXPERIMENTS.md: >= 3x throughput at 8 workers vs. 1.

``--exposition PATH`` merges every worker level's service snapshot
(counters + latency histograms: queue waits, ticket latency, lock and
latch waits, buffer miss stalls) and writes it in Prometheus text
format — the CI telemetry job validates this output parses.
"""

import argparse
import os
import random
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro.bang.pager import Pager                     # noqa: E402
from repro.edb.store import ExternalStore              # noqa: E402
from repro.service import QueryService                 # noqa: E402
from repro.workloads.wisconsin import UNIQUE1, WisconsinDB  # noqa: E402


def build_store(scale: float, buffer_pages: int, latency_ms: float,
                seed: int):
    """A Wisconsin EDB behind a small buffer and a slow simulated disc."""
    store = ExternalStore(pager=Pager(buffer_pages=buffer_pages))
    svc = QueryService(store=store, workers=1, queue_size=4)
    try:
        db = WisconsinDB.build(session=svc.admin, seed=seed, scale=scale)
    finally:
        svc.shutdown()
    # latency armed only after the load phase (loading is write-heavy)
    store.pager.disk.read_latency_s = latency_ms / 1000.0
    return store, db.sizes["tenk1"]


def point_select(key: int):
    """A read-only point probe on tenk1's clustered grid (Wisconsin Q3
    shape) — resolves through the BANG grid's buffered leaf reads."""
    def goal(session):
        relation = session.relation("tenk1", 16)
        return list(relation.query({UNIQUE1: key}))
    return goal


def run_level(store, n_rows: int, workers: int, queries: int, seed: int):
    """Closed loop: `workers` clients, one in-flight query each."""
    svc = QueryService(store=store, workers=workers,
                      queue_size=2 * workers + 4)
    # The store (and its counters) is shared across levels; exporting
    # per-level *deltas* lets the final merge sum to true run totals
    # instead of double-counting earlier levels' storage work.
    baseline = svc.metrics.snapshot()
    latencies = []
    lock = threading.Lock()
    per_client = queries // workers

    def client(client_id: int):
        rng = random.Random(seed * 1000 + client_id)
        mine = []
        for _ in range(per_client):
            key = rng.randrange(n_rows)
            start = time.perf_counter()
            rows = svc.execute(point_select(key))
            mine.append(time.perf_counter() - start)
            assert len(rows) == 1, f"point select returned {len(rows)}"
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(workers)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    svc.shutdown()

    snapshot = svc.metrics.snapshot()
    done = per_client * workers
    latencies.sort()
    return {
        "workers": workers,
        "queries": done,
        "elapsed_s": elapsed,
        "throughput_qps": done / elapsed,
        "mean_ms": statistics.mean(latencies) * 1000,
        "p50_ms": latencies[len(latencies) // 2] * 1000,
        "p95_ms": latencies[int(len(latencies) * 0.95) - 1] * 1000,
        "buffer_misses": snapshot["buffer_misses"],
        "buffer_hits": snapshot["buffer_hits"],
        "snapshot": svc.metrics.diff(snapshot, baseline),
        "gauge_keys": svc.metrics.gauge_keys(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=200,
                        help="total queries per worker level")
    parser.add_argument("--latency-ms", type=float, default=2.0,
                        help="simulated per-page disc read latency")
    parser.add_argument("--buffer-pages", type=int, default=8)
    parser.add_argument("--workers", default="1,2,4,8,16")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="Wisconsin scale factor (1.0 = 10k rows)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--exposition", metavar="PATH", default=None,
                        help="write the merged run telemetry as "
                             "Prometheus text format to PATH")
    args = parser.parse_args(argv)
    levels = [int(w) for w in args.workers.split(",")]

    store, n_rows = build_store(args.scale, args.buffer_pages,
                                args.latency_ms, args.seed)
    pages = store.pager.io_counters()["pages"]
    print(f"tenk1: {n_rows} rows, {pages} pages total; "
          f"buffer {args.buffer_pages} pages; "
          f"disc latency {args.latency_ms} ms/page")
    print(f"{'workers':>7} {'qps':>8} {'mean ms':>8} {'p50 ms':>8} "
          f"{'p95 ms':>8} {'speedup':>8}")

    base_qps = None
    results = []
    for workers in levels:
        row = run_level(store, n_rows, workers, args.queries, args.seed)
        if base_qps is None:
            base_qps = row["throughput_qps"]
        row["speedup"] = row["throughput_qps"] / base_qps
        results.append(row)
        print(f"{row['workers']:>7} {row['throughput_qps']:>8.1f} "
              f"{row['mean_ms']:>8.2f} {row['p50_ms']:>8.2f} "
              f"{row['p95_ms']:>8.2f} {row['speedup']:>7.2f}x")

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        merged = MetricsRegistry.merge(*[r["snapshot"] for r in results])
        text = render_prometheus(merged,
                                 gauge_keys=results[0]["gauge_keys"])
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nmerged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    by_workers = {r["workers"]: r for r in results}
    if 1 in by_workers and 8 in by_workers:
        speedup8 = by_workers[8]["speedup"]
        verdict = "PASS" if speedup8 >= 3.0 else "FAIL"
        print(f"\n8-worker speedup: {speedup8:.2f}x "
              f"(acceptance: >= 3x) {verdict}")
        return 0 if speedup8 >= 3.0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
