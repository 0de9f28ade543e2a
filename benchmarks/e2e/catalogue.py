"""The benchmark's metrics: names, units, direction, and — for per-layer
metrics — whether the count repeats exactly and which end-to-end metric
on which workload it is expected to move.

``BENCHMARK.json`` carries name/unit/better (and the bound) only, because
its schema is fixed; ``exact`` and ``moves`` live here and in the README.
``tests/test_catalogue.py`` keeps the two files in step.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

WORKLOADS = [
    ("mvv_warm",
     "Table 1 second run: rules in memory, buffer holds every page; the "
     "WAM emulator does the work and storage changes must show nothing"),
    ("mvv_cold",
     "Table 1 first run: rules in the EDB, 64-page buffer, fresh session "
     "per goal; loader, codec, pre-unification and page misses dominate"),
    ("wisconsin_mix",
     "Tables 2a/2b: planner-chosen selects, range scans and joins over "
     "the BANG grid, data six times the buffer, WAM bypassed"),
    ("reach_datalog",
     "semi-naive fixpoint with magic sets, repeated goals and leaf "
     "inserts: caching or view maintenance shows read gain and write cost"),
    ("service_closed_read",
     "two clients, two workers, warm in-memory store: CPU-bound capacity "
     "of one process under the interpreter lock, queue empty"),
    ("service_open_mixed",
     "open loop: scheduled reads and fsynced writes on a durable store, "
     "latency from due time, then the store is abandoned and reopened"),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: ``bound``: share of the parent's median by which the metric may get
#: worse.  Calibrated on the seed commit from sets of ten runs (ten seeds
#: each) per workload, some in quiet hours of the sandbox's host and some
#: in hours when it ran at half speed: at least three times the
#: inter-quartile distance ÷ median a workload typically showed (the
#: widest seen in any set is in brackets), capped at the contract's 25 %.
#: All times are at reference machine speed (``harness.SpeedProbe``).
END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25,                      # [0.18]
             "generate + store + load rules + warm-up; median of the "
             "run's set-ups"),
    EndToEnd("throughput_qps", "1/s", "higher", 0.20,            # [0.05]
             "correct reads completed ÷ the window's time"),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25,                # [0.09]
             "read: goal submitted → all answers materialised "
             "(open loop: from the due time)"),
    EndToEnd("query_p95_ms", "ms", "lower", 0.25,                # [0.10]
             "same, 95th percentile (open loop: of an undisturbed "
             "second)"),
    EndToEnd("first_answer_p50_ms", "ms", "lower", 0.25,         # [0.09]
             "read: goal submitted → first answer in the client's hands"),
    EndToEnd("write_p50_ms", "ms", "lower", 0.25,                # [0.09]
             "update call → acknowledged (durable store: without the "
             "log append's own time)"),
    EndToEnd("recovery_s", "s", "lower", 0.25,                   # [0.09]
             "reopen the store from its files until the first query has "
             "answered; median of the reopenings"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,                # [0.03]
             "ru_maxrss of the workload's process"),
]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool
    moves: str


def _m(name, unit, better="lower", exact=False, moves=""):
    return Layer(name, unit, better, exact, moves)


_SETUP = "setup_s everywhere"
_WAM = "throughput_qps, query_p50_ms on mvv_warm, service_closed_read"
_COLD = "query_p50_ms, first_answer_p50_ms on mvv_cold"
_BUF = "query_p50_ms on mvv_cold, wisconsin_mix"
_WAL = "write_p50_ms, recovery_s on service_open_mixed"
_REL = "throughput_qps, query_p95_ms on wisconsin_mix"
_DL = "query_p50_ms, first_answer_p50_ms, throughput_qps on reach_datalog"
_QUEUE = "query_p95_ms on service_open_mixed"
_CAP = "throughput_qps on service_closed_read"

PER_LAYER: List[Layer] = [
    # lang
    _m("lang.parse_s", "s", moves=_SETUP + "; query_p50_ms on "
       "service_closed_read"),
    _m("lang.parsed_chars", "count", exact=True, moves=_SETUP),
    _m("lang.chars_per_s", "1/s", "higher", moves=_SETUP),
    # dictionary
    _m("dictionary.intern_s", "s", moves="query_p50_ms on mvv_cold"),
    _m("dictionary.entries", "count", exact=True,
       moves="peak_rss_mb; query_p50_ms on mvv_cold"),
    # wam
    _m("wam.instr_count", "count", exact=True, moves=_WAM),
    _m("wam.data_refs", "count", exact=True, moves=_WAM),
    _m("wam.cp_refs", "count", exact=True, moves=_WAM),
    _m("wam.cp_created", "count", exact=True, moves=_WAM),
    _m("wam.backtracks", "count", exact=True, moves=_WAM),
    _m("wam.calls", "count", exact=True, moves=_WAM),
    _m("wam.unify_ops", "count", exact=True, moves=_WAM),
    _m("wam.instr_per_s", "1/s", "higher", moves=_WAM),
    _m("wam.solve_self_s", "s", moves=_WAM),
    _m("wam.compile_count", "count", exact=True,
       moves=_SETUP + "; must stay ~0 per goal on mvv_cold"),
    _m("wam.compile_s", "s", moves=_SETUP),
    _m("wam.gc_runs", "count", moves="query_p95_ms on mvv_warm"),
    _m("wam.gc_cells_recovered", "count", "higher",
       moves="peak_rss_mb on mvv_warm"),
    _m("wam.heap_high_water", "count", moves="peak_rss_mb on mvv_warm"),
    _m("wam.opt_blocks", "count", "higher", moves=_SETUP),
    _m("wam.opt_fusions", "count", "higher", moves=_WAM),
    _m("wam.opt_mode_guards", "count", "higher", moves=_WAM),
    _m("wam.opt_chains_demoted", "count", moves=_WAM),
    _m("wam.opt_rejects", "count", moves=_SETUP + " (wasted optimizer work)"),
    # edb
    _m("edb.loads", "count", moves=_COLD + "; 0 on mvv_warm"),
    _m("edb.cache_hits", "count", "higher", moves=_WAM),
    _m("edb.cache_hit_ratio", "ratio", "higher", moves=_COLD),
    _m("edb.loader_cache_entries", "count", moves="peak_rss_mb"),
    _m("edb.cache_invalidated_entries", "count", moves=_QUEUE),
    _m("edb.clauses_fetched", "count", moves=_COLD),
    _m("edb.clauses_delivered", "count", moves=_COLD),
    _m("edb.delivered_per_fetched", "ratio", "higher", moves=_COLD),
    _m("edb.preunify_executions", "count", moves=_COLD),
    _m("edb.preunify_rejections", "count", "higher", moves=_COLD),
    _m("edb.verify_checks", "count", moves=_COLD),
    _m("edb.verify_rejects", "count", exact=True, moves="correctness"),
    _m("edb.verify_ms_sum", "ms", moves=_COLD),
    _m("edb.load_s", "s", moves=_COLD),
    _m("edb.codec_decode_s", "s", moves=_COLD),
    _m("edb.preunify_s", "s", moves=_COLD),
    _m("edb.assert_s", "s", moves="write_p50_ms on service_open_mixed, "
       "reach_datalog"),
    _m("edb.store_mutations", "count", exact=True, moves="write_p50_ms"),
    _m("edb.recovery_records_replayed", "count", exact=True,
       moves="recovery_s on service_open_mixed"),
    # bang
    _m("bang.buffer_hits", "count", "higher", moves=_BUF),
    _m("bang.buffer_misses", "count", moves=_BUF),
    _m("bang.buffer_hit_ratio", "ratio", "higher", moves=_BUF),
    _m("bang.buffer_evictions", "count", moves=_BUF),
    _m("bang.buffer_writebacks", "count", moves=_BUF),
    _m("bang.page_reads", "count", moves=_BUF),
    _m("bang.page_writes", "count", moves=_BUF),
    _m("bang.bytes_read", "count", moves=_BUF),
    _m("bang.bytes_written", "count", moves=_WAL),
    _m("bang.pages", "count", exact=True, moves="peak_rss_mb, recovery_s"),
    _m("bang.buffer_miss_stall_ms_sum", "ms", moves=_BUF),
    _m("bang.pages_per_lookup", "ratio", moves=_BUF),
    _m("bang.point_query_s", "s", moves=_BUF),
    _m("bang.range_query_s", "s", moves=_REL),
    _m("bang.insert_s", "s", moves="write_p50_ms on wisconsin_mix"),
    _m("bang.wal_records", "count", exact=True, moves=_WAL),
    _m("bang.wal_bytes", "count", exact=True, moves=_WAL),
    _m("bang.wal_append_ms_p50", "ms", moves=_WAL),
    _m("bang.wal_fsync_ms_p50", "ms", moves=_WAL),
    _m("bang.wal_fsync_ms_sum", "ms", moves=_WAL),
    _m("bang.wal_bytes_per_user_byte", "ratio", moves=_WAL),
    _m("bang.store_bytes_per_user_byte", "ratio", moves="recovery_s"),
    _m("bang.checkpoints_written", "count", moves=_WAL),
    _m("bang.latch_acquisitions", "count", moves=_CAP),
    _m("bang.latch_contentions", "count", moves=_CAP),
    _m("bang.latch_wait_ms_sum", "ms", moves=_CAP),
    # relational
    _m("relational.plan_s", "s", moves=_REL),
    _m("relational.execute_s", "s", moves=_REL + "; also reach_datalog"),
    _m("relational.tuple_ops", "count", exact=True, moves=_REL),
    _m("relational.rows_examined_per_row_returned", "ratio", moves=_REL),
    # datalog
    _m("datalog.queries", "count", exact=True, moves=_DL),
    _m("datalog.bottomup", "count", exact=True,
       moves=_DL + "; 0 on every other workload"),
    _m("datalog.topdown", "count", exact=True, moves=_DL),
    _m("datalog.iterations", "count", exact=True, moves=_DL),
    _m("datalog.facts_derived", "count", exact=True, moves=_DL),
    _m("datalog.edb_rows", "count", exact=True, moves=_DL),
    _m("datalog.magic_rewrites", "count", exact=True, moves=_DL),
    _m("datalog.magic_fallbacks", "count", exact=True, moves=_DL),
    _m("datalog.magic_facts", "count", exact=True, moves=_DL),
    _m("datalog.mode_shortcuts", "count", exact=True, moves=_DL),
    _m("datalog.derived_per_answer", "ratio", moves=_DL + " (wasted work)"),
    _m("datalog.evaluate_s", "s", moves=_DL),
    _m("datalog.plan_s", "s", moves=_DL),
    # service
    _m("service.submitted", "count", "higher", moves=_CAP),
    _m("service.completed", "count", "higher", moves=_CAP),
    _m("service.failed", "count", moves="failed"),
    _m("service.timeouts", "count", moves="failed"),
    _m("service.rejected", "count", moves="failed"),
    _m("service.cancelled", "count", moves="failed"),
    _m("service.queue_wait_ms_p50", "ms", moves=_QUEUE),
    _m("service.queue_wait_ms_p99", "ms", moves=_QUEUE),
    _m("service.queue_depth_peak", "count", moves=_QUEUE),
    _m("service.ticket_ms_p50", "ms", moves=_QUEUE),
    _m("service.ticket_ms_p99", "ms", moves=_QUEUE + " (the p99 is "
       "per-layer only)"),
    _m("service.worker_busy_share", "ratio", moves=_CAP),
    _m("service.submit_s", "s", moves=_CAP),
    _m("service.lock_read_wait_ms_sum", "ms", moves=_CAP),
    _m("service.lock_write_wait_ms_sum", "ms", moves=_QUEUE),
    # engine
    _m("engine.sim_ms_per_query", "ms", moves="cross-check with Tables 1-2"),
    _m("engine.sim_cpu_ms", "ms", moves="cross-check with Tables 1-2"),
    _m("engine.sim_io_ms", "ms", moves="cross-check with Tables 1-2"),
    _m("engine.session_open_s", "s", moves="query_p50_ms on mvv_cold"),
    # bench (validity of the run, not the program)
    _m("bench.ops_attempted", "count", "higher", moves="-"),
    _m("bench.read_samples", "count", "higher", moves="-"),
    _m("bench.write_samples", "count", "higher", moves="-"),
    _m("bench.generator_late_p95_ms", "ms", moves="-"),
    _m("bench.trace_overhead_ratio", "ratio", moves="-"),
    _m("bench.write_p95_ms", "ms", moves="- (too unsteady to gate: see "
       "README)"),
    _m("bench.failed_share", "ratio", moves="-"),
    _m("bench.lost_acked_writes", "count", moves="-"),
]

#: span name → layer, for the self-time share table.  Page traffic has
#: no span of its own in the program: it is inside whichever ``edb`` or
#: ``relational`` span caused it (``bang`` gets its own time from probes).
SPAN_LAYER = {
    "query": "wam", "wam.compile": "wam",
    "loader.fetch": "edb+bang", "codec.resolve": "edb+bang",
    "preunify.filter": "edb+bang", "edb.assert": "edb+bang",
    "relational.plan": "relational", "relational.execute": "relational",
    "datalog.evaluate": "datalog", "datalog.plan": "datalog",
    "engine.session_open": "engine",
    "service.submit": "service", "ticket": "service",
    "queue_wait": "service", "execute": "service",
    "lang.parse": "lang", "dictionary.intern": "dictionary",
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class TraceContext(NamedTuple):
    """Everything the traced run observed, for :func:`layer_metrics`."""
    before: Dict[str, float]          # registry snapshot before the window
    after: Dict[str, float]           # ... and after it
    delta: Dict[str, float]           # registry.diff(after, before)
    self_s: Dict[str, float]          # span name → summed self time
    extras: Dict[str, float]          # workload-side counts
    recover: Dict[str, float]
    wall_s: float
    workers: int
    attempted: int
    failed: int
    read_samples: int
    write_samples: int
    traced_p50_ms: float              # all three at reference machine speed
    untraced_p50_ms: float
    write_p95_ms: float
    sim: Callable[[Dict[str, float]], Dict[str, float]]


def layer_metrics(ctx: TraceContext) -> Dict[str, float]:
    d = ctx.delta.get
    s = ctx.self_s.get
    x = ctx.extras.get
    level = ctx.after.get       # gauges: the level when the window ended

    def grew(key: str) -> float:
        return ctx.after.get(key, 0) - ctx.before.get(key, 0)

    priced = dict(ctx.delta)
    priced["tuple_ops"] = x("tuple_ops", 0)
    sim = ctx.sim(priced)
    reads = ctx.read_samples
    out = {
        "lang.parse_s": s("lang.parse", 0.0),
        "lang.parsed_chars": d("parsed_chars", 0),
        "lang.chars_per_s": ratio(x("probe_parsed_chars", 0),
                                  s("lang.parse", 0.0)),
        "dictionary.intern_s": s("dictionary.intern", 0.0),
        "dictionary.entries": x("dictionary_entries", 0),
        "wam.instr_per_s": ratio(d("instr_count", 0), s("query", 0.0)),
        "wam.solve_self_s": s("query", 0.0),
        "wam.compile_s": s("wam.compile", 0.0),
        "wam.heap_high_water": level("heap_high_water", 0),
        "edb.cache_hit_ratio": ratio(d("cache_hits", 0),
                                     d("cache_hits", 0) + d("loads", 0)),
        "edb.loader_cache_entries": level("loader_cache_entries", 0),
        "edb.delivered_per_fetched": ratio(d("clauses_delivered", 0),
                                           d("clauses_fetched", 0)),
        "edb.verify_ms_sum": d("verify_ms.sum", 0.0),
        "edb.load_s": s("loader.fetch", 0.0),
        "edb.codec_decode_s": s("codec.resolve", 0.0),
        "edb.preunify_s": s("preunify.filter", 0.0),
        "edb.assert_s": s("edb.assert", 0.0),
        "edb.store_mutations": grew("store_mutations"),
        "edb.recovery_records_replayed": ctx.recover["records_replayed"],
        "bang.buffer_hit_ratio": ratio(
            d("buffer_hits", 0), d("buffer_hits", 0) + d("buffer_misses", 0)),
        "bang.page_reads": d("reads", 0),
        "bang.page_writes": d("writes", 0),
        "bang.pages": level("pages", 0),
        "bang.buffer_miss_stall_ms_sum": d("buffer_miss_stall_ms.sum", 0.0),
        "bang.pages_per_lookup": ratio(x("probe_lookup_pages", 0),
                                       x("probe_lookups", 0)),
        "bang.point_query_s": s("bang.point_query", 0.0),
        "bang.range_query_s": s("bang.range_query", 0.0),
        "bang.insert_s": s("bang.insert", 0.0),
        "bang.wal_records": d("wal_records_appended", 0),
        "bang.wal_bytes": d("wal_bytes_appended", 0),
        "bang.wal_append_ms_p50": d("wal_append_ms.p50", 0.0),
        "bang.wal_fsync_ms_p50": d("wal_fsync_ms.p50", 0.0),
        "bang.wal_fsync_ms_sum": d("wal_fsync_ms.sum", 0.0),
        "bang.wal_bytes_per_user_byte": ratio(
            d("wal_bytes_appended", 0), x("written_user_bytes", 0)),
        "bang.store_bytes_per_user_byte": ratio(x("store_bytes", 0),
                                                x("user_bytes", 0)),
        "bang.latch_wait_ms_sum": d("latch_wait_ms.sum", 0.0),
        "relational.plan_s": s("relational.plan", 0.0),
        "relational.execute_s": s("relational.execute", 0.0),
        "relational.tuple_ops": x("tuple_ops", 0),
        "relational.rows_examined_per_row_returned": ratio(
            x("tuple_ops", 0), x("rows_returned", 0)),
        "datalog.derived_per_answer": ratio(d("datalog_facts_derived", 0),
                                            x("answers", 0)),
        "datalog.evaluate_s": s("datalog.evaluate", 0.0),
        "datalog.plan_s": s("datalog.plan", 0.0),
        "service.queue_wait_ms_p50": d("service_queue_wait_ms.p50", 0.0),
        "service.queue_wait_ms_p99": d("service_queue_wait_ms.p99", 0.0),
        "service.queue_depth_peak": level("service_queue_depth_peak", 0),
        "service.ticket_ms_p50": d("service_ticket_ms.p50", 0.0),
        "service.ticket_ms_p99": d("service_ticket_ms.p99", 0.0),
        "service.worker_busy_share": ratio(
            x("execute_ms_sum", 0.0) / 1000.0, ctx.workers * ctx.wall_s),
        "service.submit_s": s("service.submit", 0.0),
        "service.lock_read_wait_ms_sum": d("lock_read_wait_ms.sum", 0.0),
        "service.lock_write_wait_ms_sum": d("lock_write_wait_ms.sum", 0.0),
        "engine.sim_ms_per_query": ratio(sim["total_ms"], reads),
        "engine.sim_cpu_ms": sim["cpu_ms"],
        "engine.sim_io_ms": sim["io_ms"],
        "engine.session_open_s": s("engine.session_open", 0.0),
        "bench.ops_attempted": ctx.attempted,
        "bench.read_samples": reads,
        "bench.write_samples": ctx.write_samples,
        "bench.generator_late_p95_ms": x("late_p95_ms", 0.0),
        "bench.trace_overhead_ratio": ratio(ctx.traced_p50_ms,
                                            ctx.untraced_p50_ms),
        "bench.write_p95_ms": ctx.write_p95_ms,
        "bench.failed_share": ratio(ctx.failed, ctx.attempted),
        "bench.lost_acked_writes": ctx.recover["lost_acked_writes"],
    }
    # the rest are plain counter deltas: <layer>.<x> ← <prefix><x>
    for prefix, layer, keys in (
            ("", "wam", ("instr_count", "data_refs", "cp_refs",
                         "cp_created", "backtracks", "calls", "unify_ops",
                         "compile_count", "gc_runs", "gc_cells_recovered")),
            ("wam_", "wam", ("opt_blocks", "opt_fusions", "opt_mode_guards",
                             "opt_chains_demoted", "opt_rejects")),
            ("", "edb", ("loads", "cache_hits", "cache_invalidated_entries",
                         "clauses_fetched", "clauses_delivered",
                         "preunify_executions", "preunify_rejections",
                         "verify_checks", "verify_rejects")),
            ("", "bang", ("buffer_hits", "buffer_misses", "buffer_evictions",
                          "buffer_writebacks", "bytes_read", "bytes_written",
                          "checkpoints_written", "latch_acquisitions",
                          "latch_contentions")),
            ("datalog_", "datalog", ("queries", "bottomup", "topdown",
                                     "iterations", "facts_derived",
                                     "edb_rows", "magic_rewrites",
                                     "magic_fallbacks", "magic_facts",
                                     "mode_shortcuts")),
            ("service_", "service", ("submitted", "completed", "failed",
                                     "timeouts", "rejected", "cancelled"))):
        for key in keys:
            out[f"{layer}.{key}"] = d(prefix + key, 0)
    return out


def layer_shares(spans) -> Dict[str, float]:
    """Share of the operations' program time each layer's spans hold as
    self time.  Only spans inside an operation count (probes do not),
    and the operation span's own self time — the harness checking the
    answer against its oracle — is left out."""
    own = spans.self_times()
    totals: Dict[str, float] = {}
    for span in spans.spans:
        if span.op_id is None or span.name in ("op.read", "op.write"):
            continue
        layer = SPAN_LAYER.get(span.name, "other")
        totals[layer] = totals.get(layer, 0.0) + own[span.span_id]
    whole = sum(totals.values())
    return {layer: ratio(value, whole) for layer, value in totals.items()}
