"""Prometheus text exposition: format validity and round-tripping.

A small, strict parser for the Prometheus text format lives here (no
dependency — the point of `repro.obs.exposition` is stdlib-only
exposition), and every surface that renders a snapshot is validated
through it:

* direct rendering of live / merged `MetricsRegistry` snapshots;
* `QueryService.exposition()`;
* `benchmarks/bench_concurrency.py --exposition PATH` (the CI
  telemetry job runs exactly this, briefly).
"""

import math
import os
import re
import subprocess
import sys

import pytest

from repro.obs import MetricsRegistry, render_prometheus
from repro.service import QueryService

REPO = os.path.join(os.path.dirname(__file__), os.pardir)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"$')


def parse_prometheus(text):
    """Strict parse of Prometheus text format.

    Returns ``(samples, types)`` where samples maps
    ``(name, labels_tuple)`` → float value and types maps metric name
    → declared type.  Raises AssertionError on any malformed line,
    undeclared sample, duplicate series, or non-cumulative histogram.
    """
    samples = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            assert parts[:2] == ["#", "TYPE"], \
                f"line {lineno}: unexpected comment {line!r}"
            assert len(parts) == 4, f"line {lineno}: bad TYPE {line!r}"
            name, mtype = parts[2], parts[3]
            assert _NAME_RE.match(name), f"line {lineno}: name {name!r}"
            assert mtype in ("counter", "gauge", "histogram"), mtype
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = mtype
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"line {lineno}: malformed sample {line!r}"
        name = m.group("name")
        labels = ()
        if m.group("labels"):
            pairs = []
            for part in m.group("labels").split(","):
                lm = _LABEL_RE.match(part)
                assert lm, f"line {lineno}: malformed label {part!r}"
                pairs.append((lm.group("key"), lm.group("val")))
            labels = tuple(pairs)
        raw = m.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        assert not math.isnan(value), f"line {lineno}: NaN sample"
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in types or base in types, \
            f"line {lineno}: sample {name!r} has no TYPE declaration"
        key = (name, labels)
        assert key not in samples, f"line {lineno}: duplicate {key}"
        samples[key] = value
    _check_histograms(samples, types)
    return samples, types


def _check_histograms(samples, types):
    for name, mtype in types.items():
        if mtype != "histogram":
            continue
        buckets = [(lbls, v) for (n, lbls), v in samples.items()
                   if n == f"{name}_bucket"]
        assert buckets, f"histogram {name} has no buckets"
        count = samples[(f"{name}_count", ())]
        assert (f"{name}_sum", ()) in samples
        les = []
        for lbls, value in buckets:
            assert len(lbls) == 1 and lbls[0][0] == "le"
            le = lbls[0][1]
            les.append((float("inf") if le == "+Inf" else float(le),
                        value))
        les.sort()
        assert les[-1][0] == float("inf"), f"{name}: no +Inf bucket"
        assert les[-1][1] == count, f"{name}: +Inf bucket != count"
        cumulative = [v for _, v in les]
        assert cumulative == sorted(cumulative), \
            f"{name}: buckets not cumulative"


def sanitize(name):
    """Independent re-implementation of the exposition name mangling
    (kept deliberately separate from the production code)."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if out[0].isdigit():
        out = "_" + out
    return "educe_" + out


def service_snapshot(**kwargs):
    svc = QueryService(workers=2, queue_size=8, **kwargs)
    try:
        svc.store_relation("edge", [(1, 2), (2, 3), (3, 4)])
        for t in svc.submit_many(["edge(X, Y)"] * 4):
            t.result(timeout=30)
    finally:
        svc.shutdown()
    return svc


class TestRenderValidity:
    def test_empty_snapshot(self):
        samples, types = parse_prometheus(render_prometheus({}))
        assert samples == {} and types == {}

    def test_plain_counters_and_gauges(self):
        text = render_prometheus({"reads": 7, "pages": 3},
                                 gauge_keys=("pages",))
        samples, types = parse_prometheus(text)
        assert types["educe_reads"] == "counter"
        assert types["educe_pages"] == "gauge"
        assert samples[("educe_reads", ())] == 7

    def test_name_sanitization(self):
        text = render_prometheus({"weird-name.p99": 1.5,
                                  "weird-name.count": 2,
                                  "weird-name.sum": 3.0})
        samples, _ = parse_prometheus(text)
        assert all(_NAME_RE.match(n) for n, _ in samples)

    def test_service_snapshot_parses(self):
        svc = service_snapshot()
        snap = svc.final_telemetry["counters"]
        samples, types = parse_prometheus(
            render_prometheus(snap, gauge_keys=svc.metrics.gauge_keys()))
        assert types["educe_service_ticket_ms"] == "histogram"
        assert types["educe_service_inflight"] == "gauge"
        assert samples[("educe_service_completed", ())] == 4


class TestRoundTrip:
    def test_merged_service_snapshot_round_trips_every_counter(self):
        """The acceptance differential: merge two services' snapshots,
        render, parse, and verify every glossary counter (every plain
        key of the merged snapshot) comes back with its exact value —
        histogram families included."""
        a = service_snapshot().final_telemetry["counters"]
        svc = service_snapshot()
        b = svc.final_telemetry["counters"]
        merged = MetricsRegistry.merge(a, b)
        text = render_prometheus(merged,
                                 gauge_keys=svc.metrics.gauge_keys())
        samples, types = parse_prometheus(text)

        for key, value in merged.items():
            if not isinstance(value, (int, float)):
                continue
            if "." in key:
                base, suffix = key.split(".", 1)
                name = sanitize(base)
                if suffix in ("count", "sum"):
                    got = samples[(f"{name}_{suffix}", ())]
                elif suffix in ("min", "max", "p50", "p90", "p99"):
                    got = samples[(f"{name}_{suffix}", ())]
                elif suffix.startswith("bucket.le_"):
                    le = suffix[len("bucket.le_"):]
                    le = "+Inf" if le == "inf" else le
                    got = samples[(f"{name}_bucket", (("le", le),))]
                else:  # pragma: no cover - new suffixes must be added
                    pytest.fail(f"unknown histogram suffix {key}")
            else:
                got = samples[(sanitize(key), ())]
            assert got == pytest.approx(value), key
        # and the merged families stayed structurally valid histograms
        assert types[sanitize("service_ticket_ms")] == "histogram"
        assert samples[(sanitize("service_ticket_ms") + "_count", ())] \
            == 8

    def test_service_exposition_method(self):
        svc = QueryService(workers=1, queue_size=4)
        try:
            svc.store_relation("edge", [(1, 2)])
            svc.submit("edge(X, Y)").result(timeout=30)
            samples, types = parse_prometheus(svc.exposition())
            assert ("educe_service_submitted", ()) in samples
        finally:
            svc.shutdown()


class TestObservabilityCounters:
    def test_profiler_and_explain_counters_render(self):
        """The profiler/explain counters introduced for EXPLAIN/ANALYZE
        and sampled profiling survive the strict parser as ordinary
        counters with their exact values."""
        svc = QueryService(workers=1, queue_size=8)
        svc.enable_profiling(64)
        try:
            svc.store_relation("edge", [(i, i + 1) for i in range(40)])
            for _ in range(4):
                svc.submit(lambda s: (s.explain("edge(X, Y)"),
                                      list(s.solve("edge(X, Y)")))
                           ).result(timeout=30)
            report = svc.profile_report()
            samples, types = parse_prometheus(svc.exposition())
            for key in ("profiler_samples", "profiler_sampled_instr",
                        "profiler_sampled_data_refs",
                        "profiler_truncated_stacks",
                        "profiler_unknown_blocks"):
                name = sanitize(key)
                assert types[name] == "counter", key
                assert samples[(name, ())] == report["counters"][key]
            assert samples[(sanitize("profiler_samples"), ())] > 0
            assert types[sanitize("explain_queries")] == "counter"
            assert samples[(sanitize("explain_queries"), ())] >= 4
        finally:
            svc.shutdown()

    def test_per_replica_dotted_gauges_round_trip(self, tmp_path):
        """Per-replica dotted keys (``replica_lag_epochs.r0``) must
        come out of the cluster exposition as per-replica gauges — the
        dot mangled to an underscore, typed gauge not counter, and the
        value intact."""
        from repro.replication import ReplicaSet
        cluster = ReplicaSet(str(tmp_path / "db.edb"), replicas=2,
                             primary_workers=1, replica_workers=1)
        try:
            cluster.store_relation("edge", [(1, 2), (2, 3)])
            assert cluster.wait_for_catch_up(timeout=15)
            counters = cluster.counters()
            samples, types = parse_prometheus(cluster.exposition())
            for replica in ("r0", "r1"):
                for family in ("replica_lag_epochs",
                               "replica_lag_records"):
                    dotted = f"{family}.{replica}"
                    name = sanitize(dotted)
                    assert name.endswith(f"_{replica}")
                    assert types[name] == "gauge", dotted
                    assert samples[(name, ())] == counters[dotted]
            # The summed family keys stay gauges too.
            assert types[sanitize("replica_lag_epochs")] == "gauge"
        finally:
            cluster.shutdown()


class TestBenchmarkExposition:
    def test_bench_concurrency_emits_valid_exposition(self, tmp_path):
        """The CI telemetry job in miniature: a very brief benchmark
        run must produce parseable Prometheus text containing the
        service latency histograms."""
        out = tmp_path / "bench.prom"
        proc = subprocess.run(
            [sys.executable,
             os.path.join(REPO, "benchmarks", "bench_concurrency.py"),
             "--queries", "8", "--workers", "1", "--scale", "0.02",
             "--latency-ms", "0.1", "--exposition", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")})
        assert proc.returncode == 0, proc.stderr[-2000:]
        samples, types = parse_prometheus(out.read_text())
        assert types["educe_service_ticket_ms"] == "histogram"
        assert types["educe_service_queue_wait_ms"] == "histogram"
        assert samples[("educe_service_completed", ())] == 8
        assert samples[
            ("educe_service_ticket_ms_count", ())] == 8
