"""Sampled WAM profiler (repro/obs/profiler.py, docs/OBSERVABILITY.md).

Attribution correctness is checked against workloads whose cost
structure is known by construction (nrev's work lives in append; a
driver rule has inclusive but no exclusive cost), plus the structural
invariants: inclusive ≥ exclusive everywhere, folded-stack lines are
well-formed and root-first, the off path leaves the machine untouched,
and sampling composes with the service's deadline poll hook instead of
displacing it.
"""

import re

import pytest

from repro import EduceStar
from repro.obs.profiler import DEFAULT_INTERVAL, WamProfiler
from repro.wam.machine import Machine

NREV = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
drive(L) :- nrev(L, _).
"""

LIST20 = "[" + ",".join(str(i) for i in range(20)) + "]"


def nrev_session(interval=512):
    kb = EduceStar()
    kb.consult(NREV)
    profiler = kb.enable_profiling(interval=interval)
    for _ in range(10):
        kb.solve_once(f"drive({LIST20}).")
    return kb, profiler


# =====================================================================
# Attribution correctness
# =====================================================================

class TestAttribution:
    def test_known_workload_shape(self):
        kb, profiler = nrev_session()
        assert profiler.samples > 0
        rows = {r["predicate"]: r for r in profiler.attribution()}
        # nrev's quadratic work is in app/3: it must lead exclusively.
        assert rows["app/3"]["excl_instr"] == max(
            r["excl_instr"] for r in rows.values())
        # The driver only calls: inclusive cost, no exclusive samples.
        if "drive/1" in rows:
            drive = rows["drive/1"]
            assert drive["incl_samples"] >= drive["excl_samples"]

    def test_inclusive_dominates_exclusive(self):
        _, profiler = nrev_session()
        for rec in profiler.attribution():
            assert rec["incl_instr"] >= rec["excl_instr"], rec
            assert rec["incl_samples"] >= rec["excl_samples"], rec
            assert rec["incl_ms"] >= rec["excl_ms"], rec

    def test_sampled_totals_balance(self):
        """Exclusive attribution is a partition of the sampled work."""
        _, profiler = nrev_session()
        assert sum(r["excl_instr"] for r in profiler.attribution()) \
            == profiler.sampled_instr
        assert sum(r["excl_samples"] for r in profiler.attribution()) \
            == profiler.samples

    def test_attribution_sorted_heaviest_first(self):
        _, profiler = nrev_session()
        rows = profiler.attribution()
        assert rows == sorted(
            rows, key=lambda r: (-r["excl_instr"], -r["incl_instr"],
                                 r["predicate"]))

    def test_edb_predicate_attributed(self):
        """Loader-fetched blocks are labelled via note_code, so stored
        predicates are attributed like main-memory ones."""
        kb = EduceStar()
        kb.store_relation("edge", [(i, i + 1) for i in range(200)])
        kb.store_program(
            "hop(X, Z) :- edge(X, Y), edge(Y, Z).")
        profiler = kb.enable_profiling(interval=64)
        for _ in kb.solve("hop(X, Z)"):
            pass
        preds = {r["predicate"] for r in profiler.attribution()}
        assert "edge/2" in preds or "hop/2" in preds, preds
        assert profiler.counters()["profiler_unknown_blocks"] == 0


# =====================================================================
# Folded stacks
# =====================================================================

class TestFolded:
    def test_folded_format(self):
        _, profiler = nrev_session()
        lines = profiler.folded()
        assert lines
        for line in lines:
            assert re.fullmatch(r"[^ ;]+(;[^ ;]+)* \d+", line), line
        # Root-first: app/3 runs under nrev/2, never the other way.
        assert any(line.startswith("nrev/2;app/3 ")
                   or ";nrev/2;app/3 " in line for line in lines)
        assert not any("app/3;nrev/2" in line for line in lines)

    def test_folded_counts_sum_to_samples(self):
        _, profiler = nrev_session()
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in profiler.folded())
        assert total == profiler.samples


# =====================================================================
# Lifecycle and the off path
# =====================================================================

class TestLifecycle:
    def test_no_profiler_no_counters(self):
        machine = Machine()
        machine.consult("p(a).")
        machine.solve_once("p(X)")
        assert not any(k.startswith("profiler_")
                       for k in machine.counters())

    def test_installed_but_disabled_never_samples(self):
        kb = EduceStar()
        kb.consult(NREV)
        profiler = kb.enable_profiling(interval=64)
        kb.disable_profiling()
        kb.solve_once(f"drive({LIST20}).")
        assert profiler.samples == 0
        # Counters are merged (all zero) while installed.
        assert kb.machine.counters()["profiler_samples"] == 0

    def test_reset_clears_attribution(self):
        kb, profiler = nrev_session()
        assert profiler.samples
        profiler.reset()
        assert profiler.samples == 0
        assert profiler.attribution() == []
        assert profiler.folded() == []
        kb.solve_once(f"drive({LIST20}).")
        assert profiler.samples > 0   # still enabled after reset

    def test_one_machine_per_profiler(self):
        m1, m2 = Machine(), Machine()
        profiler = WamProfiler().install(m1)
        with pytest.raises(ValueError):
            profiler.install(m2)
        with pytest.raises(ValueError):
            WamProfiler().install(m1)
        profiler.uninstall()
        assert m1.profiler is None
        WamProfiler().install(m1)   # slot freed

    def test_enable_requires_install(self):
        with pytest.raises(ValueError):
            WamProfiler().enable()

    def test_session_enable_is_idempotent(self):
        kb = EduceStar()
        first = kb.enable_profiling(interval=128)
        second = kb.enable_profiling(interval=256)
        assert first is second
        assert second.interval == 256
        assert kb.enable_profiling().interval == 256

    def test_default_interval(self):
        kb = EduceStar()
        assert kb.enable_profiling().interval == DEFAULT_INTERVAL


# =====================================================================
# Sampling mechanics
# =====================================================================

class TestSampling:
    def test_phase_carries_across_short_queries(self):
        """Queries shorter than one interval still get sampled once
        enough of them accumulate — the phase is machine-wide, not
        per-query."""
        kb = EduceStar()
        kb.consult("p(a). p(b). q(X) :- p(X).")
        profiler = kb.enable_profiling(interval=1024)
        for _ in range(400):
            kb.solve_once("q(X).")
        assert profiler.samples > 0

    def test_composes_with_deadline_poll_hook(self):
        """A poll hook (the service's deadline machinery) keeps firing
        and the profiler samples through it."""
        kb = EduceStar()
        kb.consult(NREV)
        polls = []
        kb.machine.poll_hook = polls.append
        kb.machine.poll_interval = 256
        profiler = kb.enable_profiling(interval=512)
        kb.solve_once(f"drive({LIST20}).")
        assert polls, "inner poll hook was displaced"
        assert profiler.samples > 0

    def test_tight_poll_does_not_force_samples(self):
        """A poll boundary tighter than the sampling interval must not
        inflate the sample rate past instr/interval."""
        kb = EduceStar()
        kb.consult(NREV)
        kb.machine.poll_hook = lambda m: None
        kb.machine.poll_interval = 64
        profiler = kb.enable_profiling(interval=2048)
        before = kb.machine.instr_count
        for _ in range(5):
            kb.solve_once(f"drive({LIST20}).")
        executed = kb.machine.instr_count - before
        assert profiler.samples <= executed // 2048 + 1

    def test_truncated_stacks_counted(self):
        kb = EduceStar()
        kb.consult(NREV)
        profiler = kb.enable_profiling(interval=64)
        profiler.max_depth = 2
        kb.solve_once(f"drive({LIST20}).")
        assert profiler.counters()["profiler_truncated_stacks"] > 0

    def test_counters_merge_into_snapshot(self):
        kb, profiler = nrev_session()
        snapshot = kb.metrics.snapshot()
        for key, value in profiler.counters().items():
            assert snapshot[key] == value


# =====================================================================
# Reports
# =====================================================================

class TestReports:
    def test_report_shape(self):
        _, profiler = nrev_session()
        report = profiler.report()
        assert report["kind"] == "wam_profile"
        assert report["interval"] == profiler.interval
        assert report["predicates"] and report["folded"]

    def test_json_lines(self):
        import json
        _, profiler = nrev_session()
        lines = profiler.to_json_lines()
        header = json.loads(lines[0])
        assert header["kind"] == "wam_profile"
        for line in lines[1:]:
            rec = json.loads(line)
            assert rec["kind"] == "wam_profile_pred"
            assert rec["predicate"]

    def test_format_table(self):
        kb, profiler = nrev_session()
        text = profiler.format(cost_model=kb.cost_model)
        assert "app/3" in text
        assert "samples:" in text
        empty = WamProfiler()
        assert "no samples" in empty.format()


# =====================================================================
# Service integration
# =====================================================================

class TestService:
    def test_service_profiling_and_merged_report(self):
        from repro.service import QueryService
        svc = QueryService(workers=2, queue_size=16)
        svc.enable_profiling(64)
        try:
            svc.store_relation("edge", [(i, i + 1) for i in range(60)])
            svc.store_program(
                "hop(X, Z) :- edge(X, Y), edge(Y, Z).")
            tickets = [svc.submit("hop(X, Z)") for _ in range(6)]
            for ticket in tickets:
                ticket.result(timeout=30)
            report = svc.profile_report()
            assert report["kind"] == "wam_profile"
            assert report["counters"]["profiler_samples"] > 0
            preds = {r["predicate"] for r in report["predicates"]}
            assert preds & {"hop/2", "edge/2"}, preds
            # Counters reach the Prometheus exposition.
            text = svc.exposition()
            assert "educe_profiler_samples" in text
            svc.disable_profiling()
        finally:
            svc.shutdown()

    def test_service_toggle_off_by_default(self):
        from repro.service import QueryService
        svc = QueryService(workers=1, queue_size=4)
        try:
            svc.store_relation("edge", [(1, 2)])
            svc.submit("edge(X, Y)").result(timeout=30)
            assert "educe_profiler_samples" not in svc.exposition()
            svc.enable_profiling(interval=64)
            svc.submit("edge(X, Y)").result(timeout=30)
            assert "educe_profiler_samples" in svc.exposition()
        finally:
            svc.shutdown()
