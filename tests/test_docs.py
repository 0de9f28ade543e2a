"""Doc-sync tests: the observability glossary and doc links cannot rot.

Every counter key a live session can emit must be documented (backtick
quoted) in docs/OBSERVABILITY.md, and every path mentioned as inline
code in README.md / DESIGN.md must exist in the repository.
"""

import os
import re

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def read_doc(name: str) -> str:
    with open(os.path.join(REPO, name), "r", encoding="utf-8") as f:
        return f.read()


@pytest.fixture(scope="module")
def glossary() -> str:
    return read_doc(os.path.join("docs", "OBSERVABILITY.md"))


@pytest.fixture(scope="module")
def analysis_glossary() -> str:
    return read_doc(os.path.join("docs", "ANALYSIS.md"))


@pytest.fixture(scope="module")
def datalog_doc() -> str:
    return read_doc(os.path.join("docs", "DATALOG.md"))


@pytest.fixture(scope="module")
def replication_doc() -> str:
    return read_doc(os.path.join("docs", "REPLICATION.md"))


def documented(glossary: str) -> set:
    """Every backtick-quoted token in the glossary."""
    return set(re.findall(r"`([^`\s]+)`", glossary))


def canonical(key: str) -> str:
    """Snapshot key → the name the glossary documents.

    Histogram families appear in snapshots as dotted keys
    (``latch_wait_ms.p99``, ``latch_wait_ms.bucket.le_0.5``); the
    glossary documents the family base name once plus the shared
    suffix vocabulary, not every combination."""
    return key.split(".", 1)[0]


# =====================================================================
# Counter glossary coverage
# =====================================================================

class TestCounterGlossary:
    def test_educestar_counters_documented(self, glossary):
        from repro import EduceStar
        kb = EduceStar()
        kb.store_program("p(1). p(2). q(X) :- p(X).")
        for _ in kb.solve("q(X)"):
            pass
        names = documented(glossary)
        snapshot = kb.metrics.snapshot()
        missing = sorted(k for k in snapshot if canonical(k) not in names)
        assert not missing, (
            f"counters emitted but not in docs/OBSERVABILITY.md: {missing}")

    def test_component_counters_documented(self, glossary):
        from repro import EduceStar
        kb = EduceStar()
        names = documented(glossary)
        for source in (kb.machine.counters(), kb.loader.counters(),
                       kb.store.pager.io_counters(), kb.counters()):
            for key in source:
                assert canonical(key) in names, key

    def test_service_telemetry_documented(self, glossary):
        """Service counters, histogram families and ring event kinds
        are all in the glossary — including keys only a live service
        emits (queue waits, ticket latency, lifecycle events)."""
        from repro.service import QueryService
        names = documented(glossary)
        svc = QueryService(workers=1, queue_size=4, tracing=True)
        try:
            svc.store_relation("edge", [(1, 2), (2, 3)])
            svc.submit("edge(X, Y)").result(timeout=30)
        finally:
            svc.shutdown()
        telemetry = svc.final_telemetry
        missing = sorted(k for k in telemetry["counters"]
                         if canonical(k) not in names)
        assert not missing, (
            f"service snapshot keys not in docs/OBSERVABILITY.md: "
            f"{missing}")
        for event in telemetry["events"]:
            assert event["kind"] in names, event["kind"]

    def test_histogram_suffix_vocabulary_documented(self, glossary):
        """The shared dotted-suffix vocabulary itself is spelled out."""
        names = documented(glossary)
        for token in (".count", ".sum", ".min", ".max",
                      ".p50", ".p90", ".p99"):
            assert token.lstrip(".") in names or token in names or \
                f"name{token}" in names or f"X{token}" in names, token

    def test_event_kinds_documented(self, glossary):
        """The full flight-recorder taxonomy, including kinds the tiny
        service run above never triggers."""
        names = documented(glossary)
        for kind in ("ticket.admit", "ticket.done", "ticket.deadline",
                     "ticket.cancelled", "ticket.failed", "query.slow",
                     "page.evict", "wal.poison", "store.recovery",
                     "verify.reject"):
            assert kind in names, kind

    def test_loader_verify_telemetry_documented(self, glossary):
        """The loader's verification counters and histogram family."""
        names = documented(glossary)
        for key in ("verify_checks", "verify_rejects", "verify_ms"):
            assert key in names, key

    def test_histogram_families_documented(self, glossary):
        names = documented(glossary)
        for base in ("latch_wait_ms", "lock_read_wait_ms",
                     "lock_write_wait_ms", "buffer_miss_stall_ms",
                     "buffer_writeback_ms", "wal_append_ms",
                     "wal_fsync_ms", "service_queue_wait_ms",
                     "service_ticket_ms"):
            assert base in names, base

    def test_baseline_counters_documented(self, glossary):
        from repro.engine.educe_baseline import EduceBaseline
        names = documented(glossary)
        for key in EduceBaseline().counters():
            assert key in names, key

    def test_relational_work_unit_documented(self, glossary):
        assert "tuple_ops" in documented(glossary)

    def test_cost_model_terms_documented(self, glossary):
        from repro.engine.stats import CostModel
        sim = CostModel().breakdown({})
        names = documented(glossary)
        for term in list(sim["cpu"]) + list(sim["io"]):
            assert term in names, term

    def test_cost_model_constants_documented(self, glossary):
        import dataclasses
        from repro.engine.stats import CostModel
        names = documented(glossary)
        priced = [f.name for f in dataclasses.fields(CostModel)
                  if f.name.startswith(("native_per_", "disc_"))]
        missing = sorted(c for c in priced if c not in names)
        assert not missing, (
            f"CostModel constants not in the glossary: {missing}")

    def test_gauges_flagged(self, glossary):
        from repro.obs import DEFAULT_GAUGE_KEYS
        names = documented(glossary)
        for key in DEFAULT_GAUGE_KEYS:
            assert key in names, key

    def test_span_taxonomy_documented(self, glossary):
        from repro import EduceStar
        kb = EduceStar()
        kb.store_program("p(1). p(2). q(X) :- p(X).")
        prof = kb.profile("q(X)")
        names = documented(glossary)
        for span in prof.root.walk():
            assert span.name in names, span.name
            for event in span.events:
                assert event["event"] in names, event["event"]
        # the full taxonomy, including spans this tiny query never opened
        for span_name in ("query", "loader.fetch", "codec.resolve",
                          "preunify.filter", "relational.execute"):
            assert span_name in names, span_name
        for event_name in ("page.read", "page.write", "page.evict",
                           "loader.cache_hit"):
            assert event_name in names, event_name


# =====================================================================
# Datalog doc coverage
# =====================================================================

class TestDatalogDoc:
    def test_engine_counters_documented(self, glossary, datalog_doc):
        """Every datalog_* counter is in both the observability
        glossary and the subsystem's own doc."""
        from repro import EduceStar
        counters = EduceStar().datalog.counters()
        assert counters, "DatalogEngine.counters() is empty"
        obs_names = documented(glossary)
        doc_names = documented(datalog_doc)
        for key in counters:
            assert key in obs_names, f"{key} not in docs/OBSERVABILITY.md"
            assert key in doc_names, f"{key} not in docs/DATALOG.md"

    def test_fixpoint_histogram_documented(self, glossary, datalog_doc):
        from repro import EduceStar
        families = EduceStar().datalog.histograms()
        assert "datalog_fixpoint_iterations" in families
        for name in families:
            assert name in documented(glossary), name
            assert name in documented(datalog_doc), name

    @pytest.mark.usefixtures("bottom_up")
    def test_evaluate_span_documented(self, glossary, datalog_doc):
        """The datalog.evaluate span, as actually recorded under
        tracing, is in both docs with all its attribute names."""
        from repro import EduceStar
        kb = EduceStar()
        kb.store_relation("edge", [("a", "b"), ("b", "c")])
        kb.store_program(
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Z) :- edge(X, Y), reach(Y, Z).\n")
        prof = kb.profile("reach(a, X)")
        spans = [s for s in prof.root.walk()
                 if s.name == "datalog.evaluate"]
        assert spans, "bottom-up query recorded no datalog.evaluate span"
        for names in (documented(glossary), documented(datalog_doc)):
            assert "datalog.evaluate" in names
            for attr in spans[0].attrs:
                assert attr in names, f"span attribute {attr}"

    def test_planner_modes_documented(self, datalog_doc):
        names = documented(datalog_doc)
        for mode in ('"auto"', '"off"'):
            assert mode in names, mode
        assert "DEFAULT_MIN_ROWS" in names


# =====================================================================
# Replication doc coverage
# =====================================================================

class TestReplicationDoc:
    def test_replica_counters_documented(self, glossary, tmp_path):
        """Every counter and gauge a Replica registers (per-replica
        dotted keys included) is in the observability glossary."""
        from repro.edb.store import ExternalStore
        from repro.replication.replica import Replica
        path = str(tmp_path / "p.edb")
        ExternalStore.open(path).save(path)
        replica = Replica("r0", path, str(tmp_path / "r0"), start=False)
        try:
            counters = replica.counters()
        finally:
            replica.shutdown()
        assert counters, "Replica.counters() is empty"
        names = documented(glossary)
        missing = sorted(k for k in counters
                         if canonical(k) not in names)
        assert not missing, (
            f"replica counters not in docs/OBSERVABILITY.md: {missing}")

    def test_lag_gauges_flagged(self, glossary):
        """The lag gauges are marked *gauge* in their glossary rows,
        like every other point-in-time key."""
        for key in ("replica_lag_epochs", "replica_lag_records"):
            row = next(line for line in glossary.splitlines()
                       if line.startswith(f"| `{key}`"))
            assert "*gauge*" in row, key

    def test_replication_event_kinds_documented(self, glossary):
        """The replica lifecycle events are in the event-kind
        glossary."""
        names = documented(glossary)
        for kind in ("replica.attach", "replica.bootstrap",
                     "replica.rebootstrap", "replica.quarantine",
                     "replica.stream_retry", "replica.promote",
                     "replica.reattach", "replica.primary_lost"):
            assert kind in names, kind

    def test_tailer_statuses_documented(self, replication_doc):
        """docs/REPLICATION.md spells out the poll statuses and the
        read-routing vocabulary."""
        names = documented(replication_doc)
        for token in ("WalTailer", '"ok"', '"wait"',
                      '"corrupt"', "max_lag", "ReplicaLagExceeded"):
            assert token in names, token

    def test_replica_crash_points_documented(self):
        """The replica.* crash points are in the durability doc's
        registered-crash-point table."""
        durability = read_doc(os.path.join("docs", "DURABILITY.md"))
        names = documented(durability)
        for point in ("replica.bootstrap.before", "replica.apply.before",
                      "replica.promote.before",
                      "replica.promote.pre_save"):
            assert point in names, point
        for knob in ("arm_short_read", "arm_fail_read"):
            assert f"`{knob}" in durability, knob


# =====================================================================
# Analysis rule glossary coverage
# =====================================================================

class TestAnalysisGlossary:
    def test_verifier_rules_documented(self, analysis_glossary):
        from repro.analysis import verifier
        names = documented(analysis_glossary)
        for rule in verifier.RULES:
            assert rule in names, rule

    def test_determinism_rules_documented(self, analysis_glossary):
        from repro.analysis import determinism
        names = documented(analysis_glossary)
        for rule in determinism.RULES:
            assert rule in names, rule

    def test_lint_rules_documented(self, analysis_glossary):
        from repro.analysis import lint
        names = documented(analysis_glossary)
        for rule in lint.RULES:
            assert rule in names, rule

    def test_no_phantom_rules(self, analysis_glossary):
        """Every V/A/D/L/M id the glossary mentions exists in the code —
        the doc cannot document rules that were renamed or removed."""
        import re as _re
        from repro.analysis import determinism, lint, verifier
        known = (set(verifier.RULES) | set(determinism.RULES)
                 | set(lint.RULES))
        mentioned = set(_re.findall(r"`([VADLM]\d{3})`",
                                    analysis_glossary))
        assert mentioned <= known, sorted(mentioned - known)

    def test_analysis_counters_cross_referenced(self, analysis_glossary,
                                                glossary):
        """The analysis counters — the loader gate's — exist in both
        glossaries."""
        names = documented(glossary)
        for key in ("verify_checks", "verify_rejects"):
            assert key in names, key
            assert key in documented(analysis_glossary), key

    def test_loader_gate_documented(self, analysis_glossary):
        """The loader's one gate and the rule level it runs."""
        names = documented(analysis_glossary)
        for token in ('"structural"', "verify_checks", "verify.reject"):
            assert token in names, token


# =====================================================================
# Doc links
# =====================================================================

# Directories a bare inline-code path may live under.
_SEARCH_ROOTS = ("", "src", "src/repro", "benchmarks", "examples",
                 "tests", "docs")

_PATH_RE = re.compile(r"`([A-Za-z0-9_./-]+\.(?:py|md|pl|txt|json))`")


def _exists(path: str) -> bool:
    return any(os.path.exists(os.path.join(REPO, root, path))
               for root in _SEARCH_ROOTS)


class TestDocLinks:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md",
                                     "docs/OBSERVABILITY.md",
                                     "docs/CONCURRENCY.md",
                                     "docs/ANALYSIS.md",
                                     "docs/DURABILITY.md",
                                     "docs/DATALOG.md",
                                     "docs/REPLICATION.md",
                                     "EXPERIMENTS.md"])
    def test_inline_code_paths_exist(self, doc):
        text = read_doc(doc)
        missing = sorted({p for p in _PATH_RE.findall(text)
                          if not _exists(p)})
        assert not missing, f"{doc} references missing paths: {missing}"

    def test_readme_test_count_is_current(self):
        """README's advertised test count must match reality (±5%)."""
        text = read_doc("README.md")
        m = re.search(r"~?(\d{3,})\s+(?:unit[\w/-]*\s+)?tests", text)
        assert m, "README.md no longer states a test count"
        claimed = int(m.group(1))
        import subprocess
        import sys
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q"],
            capture_output=True, text=True, cwd=REPO,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO, "src")}).stdout
        m2 = re.search(r"(\d+) tests collected", out)
        assert m2, f"could not collect tests: {out[-400:]}"
        actual = int(m2.group(1))
        assert abs(actual - claimed) <= actual * 0.05, (
            f"README claims ~{claimed} tests, but {actual} collect; "
            "update the README")
