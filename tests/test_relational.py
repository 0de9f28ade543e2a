"""Tests for the goal-oriented relational engine (algebra + planner)."""

import pytest

from repro.bang.catalog import Catalog
from repro.bang.pager import Pager
from repro.relational.algebra import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    IndexJoin,
    Project,
    RangeSelect,
    Scan,
    Select,
    execute,
)
from repro.relational.planner import (
    best_access_path,
    estimate_rows,
    plan_join,
)

EMP = [(i, f"name{i}", ["sales", "eng", "hr"][i % 3], 100 * (i % 7))
       for i in range(60)]
DEPT = [("sales", "london"), ("eng", "munich"), ("hr", "paris")]


@pytest.fixture
def db():
    catalog = Catalog(Pager(buffer_pages=16), bucket_capacity=8)
    emp = catalog.create_simple(
        "emp", [("id", "int"), ("name", "atom"),
                ("dept", "atom"), ("sal", "int")])
    emp.insert_many(EMP)
    dept = catalog.create_simple(
        "dept", [("dname", "atom"), ("city", "atom")])
    dept.insert_many(DEPT)
    return emp, dept


class TestLeafNodes:
    def test_scan_returns_everything(self, db):
        emp, _ = db
        assert sorted(execute(Scan(emp))) == sorted(EMP)

    def test_select_exact(self, db):
        emp, _ = db
        rows = execute(Select(emp, {2: "eng"}))
        assert sorted(rows) == sorted(r for r in EMP if r[2] == "eng")

    def test_range_select(self, db):
        emp, _ = db
        rows = execute(RangeSelect(emp, 0, 10, 19))
        assert sorted(r[0] for r in rows) == list(range(10, 20))

    def test_rows_out_counted(self, db):
        emp, _ = db
        plan = Scan(emp)
        execute(plan)
        assert plan.rows_out == len(EMP)


class TestUnaryNodes:
    def test_filter(self, db):
        emp, _ = db
        rows = execute(Filter(Scan(emp), lambda r: r[3] > 400))
        assert all(r[3] > 400 for r in rows)
        assert len(rows) == len([r for r in EMP if r[3] > 400])

    def test_project(self, db):
        emp, _ = db
        rows = execute(Project(Scan(emp), [2, 0]))
        assert set(rows) == {(r[2], r[0]) for r in EMP}

    def test_distinct(self, db):
        emp, _ = db
        rows = execute(Distinct(Project(Scan(emp), [2])))
        assert sorted(rows) == [("eng",), ("hr",), ("sales",)]


class TestJoins:
    def reference_join(self):
        return sorted(
            e + d for e in EMP for d in DEPT if e[2] == d[0])

    def test_hash_join(self, db):
        emp, dept = db
        rows = execute(HashJoin(Scan(emp), Scan(dept), 2, 0))
        assert sorted(rows) == self.reference_join()

    def test_index_join(self, db):
        emp, dept = db
        rows = execute(IndexJoin(Scan(emp), dept, 2, 0))
        assert sorted(rows) == self.reference_join()

    def test_join_methods_agree(self, db):
        emp, dept = db
        h = execute(HashJoin(Scan(dept), Scan(emp), 0, 2))
        i = execute(IndexJoin(Scan(dept), emp, 0, 2))
        assert sorted(h) == sorted(i)

    def test_empty_join(self, db):
        emp, dept = db
        rows = execute(HashJoin(Select(emp, {2: "nothing"}),
                                Scan(dept), 2, 0))
        assert rows == []


class TestAggregates:
    def test_count(self, db):
        emp, _ = db
        assert execute(Aggregate(Scan(emp), "count")) == [(60,)]

    def test_sum_min_max_avg(self, db):
        emp, _ = db
        sals = [r[3] for r in EMP]
        assert execute(Aggregate(Scan(emp), "sum", 3)) == [(sum(sals),)]
        assert execute(Aggregate(Scan(emp), "min", 3)) == [(min(sals),)]
        assert execute(Aggregate(Scan(emp), "max", 3)) == [(max(sals),)]
        avg = execute(Aggregate(Scan(emp), "avg", 3))[0][0]
        assert abs(avg - sum(sals) / 60) < 1e-9

    def test_empty_aggregate(self, db):
        emp, _ = db
        empty = Select(emp, {2: "none"})
        assert execute(Aggregate(empty, "count")) == [(0,)]
        empty2 = Select(emp, {2: "none"})
        assert execute(Aggregate(empty2, "max", 3)) == [(None,)]

    def test_unknown_aggregate(self, db):
        emp, _ = db
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            Aggregate(Scan(emp), "median")


class TestPlanner:
    def test_point_assignment_picks_select(self, db):
        emp, _ = db
        plan = best_access_path(emp, {0: 5})
        assert isinstance(plan, Select)

    def test_empty_assignment_picks_scan(self, db):
        emp, _ = db
        assert isinstance(best_access_path(emp, {}), Scan)

    def test_unselective_assignment_scans_and_still_selects(self, db):
        # One leaf: probing cannot beat the scan, but the plan must
        # still yield only the matching rows.
        _, dept = db
        plan = best_access_path(dept, {1: "paris"})
        assert not isinstance(plan, Select)
        assert execute(plan) == [("hr", "paris")]

    def test_estimate_rows_sane(self, db):
        emp, _ = db
        full = estimate_rows(emp, {})
        point = estimate_rows(emp, {0: 5})
        assert point <= full
        assert abs(full - len(EMP)) < len(EMP)  # right ballpark

    def test_plan_join_small_outer_selective_probe_prefers_index(self, db):
        emp, dept = db
        # Probing emp's highly selective id attribute: 1 outer row x 1-2
        # pages per probe beats a full hash-join pass.
        plan = plan_join(Scan(dept), 1.0, emp, 0, 0)
        assert isinstance(plan, IndexJoin)

    def test_plan_join_large_outer_prefers_hash(self, db):
        emp, dept = db
        plan = plan_join(Scan(emp), 1e6, dept, 2, 0)
        assert isinstance(plan, HashJoin)

    def test_planner_plans_execute_correctly(self, db):
        emp, dept = db
        plan = plan_join(Scan(dept), 3.0, emp, 0, 2)
        rows = execute(plan)
        want = sorted(d + e for d in DEPT for e in EMP if d[0] == e[2])
        assert sorted(rows) == want
