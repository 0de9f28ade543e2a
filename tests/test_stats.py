"""Tests for counters and the 1990-hardware cost model."""


from repro.engine.stats import (
    SUN_3_60_MIPS,
    SUN_3_280S_MIPS,
    CostModel,
    Measurement,
    measure,
)


class TestCostModel:
    def test_cpu_scales_inversely_with_mips(self):
        counters = {"instr_count": 1_000_000}
        fast = CostModel(mips=4.0).cpu_ms(counters)
        slow = CostModel(mips=3.0).cpu_ms(counters)
        assert abs(slow / fast - 4.0 / 3.0) < 1e-9

    def test_io_independent_of_mips(self):
        counters = {"reads": 10, "bytes_read": 40960}
        assert CostModel(mips=4.0).io_ms(counters) == \
            CostModel(mips=1.0).io_ms(counters)

    def test_total_is_sum(self):
        m = CostModel()
        counters = {"instr_count": 1000, "reads": 2}
        assert m.total_ms(counters) == \
            m.cpu_ms(counters) + m.io_ms(counters)

    def test_at_mips_clone(self):
        base = CostModel(mips=SUN_3_280S_MIPS)
        client = base.at_mips(SUN_3_60_MIPS)
        assert client.mips == 3.0
        assert base.mips == 4.0
        assert client.disc_access_ms == base.disc_access_ms

    def test_at_mips_preserves_non_default_fields(self):
        # Regression: at_mips used CostModel(**self.__dict__), which
        # breaks as soon as the clone path and the field list drift;
        # it must be a dataclasses.replace so every customised field
        # (here a non-default disc) survives the re-pricing.
        base = CostModel(disc_access_ms=50.0, native_per_wam_instr=99)
        client = base.at_mips(2.0)
        assert isinstance(client, CostModel)
        assert client.mips == 2.0
        assert client.disc_access_ms == 50.0
        assert client.native_per_wam_instr == 99
        assert base.mips != 2.0  # original untouched

    def test_every_counter_kind_priced(self):
        m = CostModel()
        for key in ("instr_count", "data_refs", "parsed_chars",
                    "compile_count", "resolutions", "tuple_ops",
                    "inferences"):
            assert m.cpu_ms({key: 1000}) > 0

    def test_zero_counters_cost_zero(self):
        assert CostModel().total_ms({}) == 0.0


class TestMeasurement:
    def test_simulated_ms_default_model(self):
        meas = Measurement(counters={"instr_count": 4000})
        assert meas.simulated_ms() > 0

    def test_getitem_default_zero(self):
        assert Measurement()["anything"] == 0


class TestMeasureContext:
    class FakeSource:
        def __init__(self):
            self.n = 0

        def counters(self):
            return {"n": self.n}

    def test_captures_delta(self):
        src = self.FakeSource()
        src.n = 10
        with measure(src) as m:
            src.n = 25
        assert m.counters == {"n": 15}
        assert m.wall_s >= 0

    def test_multiple_sources_merged(self):
        a, b = self.FakeSource(), self.FakeSource()
        with measure(a, b) as m:
            a.n = 1
            b.n = 2
        assert m.counters == {"n": 3}

    def test_nested_measure_blocks(self):
        # Inner deltas must not leak into or steal from the outer
        # measurement: the outer block sees the whole accumulation,
        # the inner block only its own extent.
        src = self.FakeSource()
        with measure(src) as outer:
            src.n += 2
            with measure(src) as inner:
                src.n += 5
            src.n += 1
        assert inner.counters == {"n": 5}
        assert outer.counters == {"n": 8}

    def test_nested_measure_sibling_blocks(self):
        src = self.FakeSource()
        with measure(src) as outer:
            with measure(src) as first:
                src.n += 3
            with measure(src) as second:
                src.n += 4
        assert first.counters == {"n": 3}
        assert second.counters == {"n": 4}
        assert outer.counters == {"n": 7}

    def test_reset_inside_block_reports_post_reset_work(self):
        # A counter that shrank was reset: the block's delta is what
        # accumulated since, never a negative number.
        src = self.FakeSource()
        src.n = 100
        with measure(src) as m:
            src.n = 0
            src.n += 3
        assert m.counters == {"n": 3}
