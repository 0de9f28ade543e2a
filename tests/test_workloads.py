"""Tests for the three workload generators (paper §5)."""

import pytest

from repro.engine.stats import measure
from repro.lang.writer import term_to_text
from repro.workloads import integrity as ic
from repro.workloads import mvv, wisconsin


# =====================================================================
# MVV (§5.1)
# =====================================================================

@pytest.fixture(scope="module")
def mvv_small():
    return mvv.generate(seed=11, scale=0.12)


@pytest.fixture(scope="module")
def mvv_session(mvv_small):
    return mvv.load_educestar(mvv_small)


class TestMVVGenerator:
    def test_paper_cardinalities_at_full_scale(self):
        data = mvv.generate(scale=1.0)
        assert len(data.location2) == mvv.N_STOPS == 2307
        assert len(data.schedule3) == mvv.N_SCHEDULE3 == 8776
        assert len(data.schedule2) == mvv.N_SCHEDULE2 == 7260

    def test_arities_match_paper(self):
        data = mvv.generate(scale=0.1)
        assert len(data.location2[0]) == 2
        assert len(data.schedule3[0]) == 11
        assert len(data.schedule2[0]) == 5

    def test_deterministic_by_seed(self):
        a = mvv.generate(seed=4, scale=0.1)
        b = mvv.generate(seed=4, scale=0.1)
        assert a.schedule3 == b.schedule3
        assert a.schedule2 == b.schedule2

    def test_different_seed_differs(self):
        a = mvv.generate(seed=4, scale=0.1)
        b = mvv.generate(seed=5, scale=0.1)
        assert a.schedule3 != b.schedule3

    def test_lines_form_network_with_hubs(self, mvv_small):
        assert mvv_small.hubs
        hub_lines = set()
        for line in mvv_small.lines:
            if mvv_small.hubs[0] in line.stops:
                hub_lines.add(line.name)
        assert len(hub_lines) >= 2  # a hub is on several lines

    def test_all_transport_types_present(self, mvv_small):
        assert {l.type for l in mvv_small.lines} == \
            {"ubahn", "sbahn", "tram", "bus"}


class TestMVVQueries:
    def test_class1_queries_have_answers(self, mvv_small, mvv_session):
        for q in mvv.class1_queries(mvv_small, 5):
            assert mvv_session.solve_once(q) is not None, q

    def test_class1_plan_shape(self, mvv_small, mvv_session):
        q = mvv.class1_queries(mvv_small, 1)[0]
        plan = mvv_session.solve_once(q)["Plan"]
        assert plan.indicator == ("journey", 4)

    def test_class2_queries_have_answers(self, mvv_small, mvv_session):
        for q in mvv.class2_queries(mvv_small, 3):
            assert mvv_session.solve_once(q) is not None, q

    def test_best_route_picks_min_arrival(self, mvv_small, mvv_session):
        q = mvv.class2_queries(mvv_small, 1)[0]
        inner = q[len("route("):-1]
        a, b, t0, _ = [s.strip() for s in inner.split(",", 3)]
        sol = mvv_session.solve_once(
            f"best_route({a}, {b}, {t0}, Plan, Arr)")
        assert sol is not None
        arrivals = [
            s2["A"] for s2 in mvv_session.solve(
                f"plan_of({a}, {b}, {t0}, _, A)")
        ]
        assert sol["Arr"] == min(arrivals)

    def test_baseline_agrees_with_educestar(self, mvv_small):
        session = mvv.load_educestar(mvv_small)
        baseline = mvv.load_baseline(mvv_small)
        for q in mvv.class1_queries(mvv_small, 2):
            star = sorted(term_to_text(s["Plan"])
                          for s in session.solve(q))
            base = sorted(term_to_text(b["Plan"])
                          for b in baseline.solve(q))
            assert star == base, q


# =====================================================================
# Wisconsin (§5.2)
# =====================================================================

@pytest.fixture(scope="module")
def wdb():
    return wisconsin.WisconsinDB.build(scale=0.1)


class TestWisconsinGenerator:
    def test_unique_attributes(self):
        rows = wisconsin.generate_rows(200, seed=2)
        assert sorted(r[wisconsin.UNIQUE1] for r in rows) == \
            list(range(200))
        assert [r[wisconsin.UNIQUE2] for r in rows] == list(range(200))

    def test_modulo_attributes(self):
        rows = wisconsin.generate_rows(50, seed=2)
        for r in rows:
            u1 = r[wisconsin.UNIQUE1]
            assert r[2] == u1 % 2
            assert r[wisconsin.ONEPERCENT] == u1 % 100

    def test_deterministic(self):
        assert wisconsin.generate_rows(100, 7) == \
            wisconsin.generate_rows(100, 7)

    def test_strings_well_formed(self):
        rows = wisconsin.generate_rows(30, seed=1)
        assert all(len(r[wisconsin.STRINGU1]) == 7 for r in rows)


class TestWisconsinQueries:
    def test_selectivities(self, wdb):
        n = wdb.sizes["tenk1"]
        results = {}
        for qc in wisconsin.query_classes():
            for variant in qc.variants:
                r = wisconsin.run_query(wdb, qc, variant)
                results.setdefault(qc.number, []).append(r.rows)
        assert results[1][0] == int(n * 0.01)
        assert results[2][0] == int(n * 0.10)
        assert results[3][0] == 1

    def test_variants_agree_on_cardinality(self, wdb):
        for qc in wisconsin.query_classes():
            rows = {wisconsin.run_query(wdb, qc, v).rows
                    for v in qc.variants}
            assert len(rows) == 1, f"Q{qc.number} variants disagree"

    def test_join_results_match_reference(self, wdb):
        qc = wisconsin.query_classes()[3]  # two-way join
        r = wisconsin.run_query(wdb, qc, qc.variants[0])
        n = wdb.sizes["tenk1"]
        assert r.rows == int(n * 0.10)

    def test_measurements_capture_tuple_ops(self, wdb):
        qc = wisconsin.query_classes()[0]
        r = wisconsin.run_query(wdb, qc, qc.variants[0])
        assert r.measurement.counters.get("tuple_ops", 0) > 0


# =====================================================================
# Integrity checking (§5.3)
# =====================================================================

class TestICGenerator:
    def test_shape_matches_paper(self):
        data = ic.generate(scale=1.0)
        assert len(data.employees) == 4000
        assert len(data.employees[0]) == 7
        assert len(data.projects) == 50
        assert len(data.small_relations) == 15
        assert all(len(rows) <= 20
                   for rows in data.small_relations.values())

    def test_deterministic(self):
        assert ic.generate(seed=9, scale=0.02).employees == \
            ic.generate(seed=9, scale=0.02).employees


class TestPreprocess:
    @pytest.fixture(scope="class")
    def gc_engine(self):
        return ic.load_good_compiler()

    def test_all_updates_specialise(self, gc_engine):
        for update in ic.UPDATES:
            spec = ic.run_preprocess(gc_engine, update)
            assert spec is not None

    def test_no_fact_access_needed(self):
        """Preprocess runs without the database loaded (§5.3)."""
        engine = ic.load_good_compiler()  # facts NOT loaded
        spec = ic.run_preprocess(engine, ic.UPDATES[2])
        assert spec is not None

    def test_residual_references_violated_constraint(self, gc_engine):
        spec = ic.run_preprocess(gc_engine, ic.UPDATES[2])
        text = term_to_text(spec)
        # update 3 inserts a salary over the grade limit: denial 2 must
        # appear with the ground salary propagated in
        assert "grade_limit(2," in text
        assert "99000" in text

    def test_work_grows_with_update_complexity(self, gc_engine):
        costs = []
        for update in ic.UPDATES:
            with measure(gc_engine) as run:
                ic.run_preprocess(gc_engine, update)
            costs.append(run["instr_count"])
        assert costs[0] < costs[2] < costs[4]

    def test_educestar_gets_same_residuals(self, gc_engine):
        es = ic.load_educestar()
        for update in ic.UPDATES[:3]:
            a = term_to_text(ic.run_preprocess(gc_engine, update))
            b = term_to_text(ic.run_preprocess(es, update))
            assert a == b


class TestFullAndPartial:
    @pytest.fixture(scope="class")
    def loaded(self):
        engine = ic.load_good_compiler()
        engine.consult(ic.CHECKER)
        ic.load_database(engine, ic.generate(scale=0.02))
        return engine

    def test_full_test_runs(self, loaded):
        violated = ic.run_full_test(loaded)
        assert isinstance(violated, list)

    def test_partial_consistent_with_update_semantics(self, loaded):
        # update 3 inserts an over-limit salary: partial test over the
        # specialised residual must flag constraint 2
        spec = ic.run_preprocess(loaded, ic.UPDATES[2])
        assert 2 in ic.run_partial_test(loaded, spec)

    def test_benign_update_passes_partial(self, loaded):
        spec = ic.run_preprocess(
            loaded,
            "[insert(employee(9100, ok_1, eng, 44000, 3, 1, 1980))]")
        violated = ic.run_partial_test(loaded, spec)
        assert 2 not in violated and 3 not in violated
