"""The ``compare`` verdicts: better / same / worse / unresolved."""

from catalogue import END_TO_END
from compare import compare, judge, render

P50 = next(m for m in END_TO_END if m.name == "query_p50_ms")       # lower
QPS = next(m for m in END_TO_END if m.name == "throughput_qps")     # higher


def test_worse_needs_more_than_the_bound():
    base = [10.0, 10.1, 9.9, 10.0]
    assert judge(P50, base, [v * 1.05 for v in base])["verdict"] == "same"
    assert judge(P50, base, [v * 1.30 for v in base])["verdict"] == "worse"
    # higher-is-better: a drop is what is worse
    assert judge(QPS, base, [v * 0.70 for v in base])["verdict"] == "worse"
    assert judge(QPS, base, [v * 1.30 for v in base])["verdict"] == "same"


def test_wide_base_spread_is_unresolved_not_unchanged():
    base = [10.0, 14.0, 7.0, 12.0, 9.0]
    row = judge(P50, base, [9.0, 9.0, 9.0, 9.0, 9.0])
    assert row["spread"] > P50.bound
    assert row["verdict"] == "unresolved"


def test_gain_needs_ten_pairs_and_nine_tenths_of_them():
    base = [10.0 + 0.01 * i for i in range(10)]
    change = [v * 0.8 for v in base]
    assert judge(P50, base[:5], change[:5])["verdict"] == "same"
    assert judge(P50, base, change)["verdict"] == "better"
    # two losses out of ten: 8 wins < 9
    change[0], change[1] = 11.0, 11.0
    row = judge(P50, base, change)
    assert (row["wins"], row["losses"]) == (8, 2)
    assert row["verdict"] == "same"
    # a win smaller than the base's own spread is no gain either
    noisy = [10.0, 10.4, 9.6, 10.2, 9.8, 10.3, 9.7, 10.1, 9.9, 10.0]
    assert judge(P50, noisy, [v - 0.05 for v in noisy])["verdict"] == "same"


def test_rows_cover_every_workload_and_metric_with_the_base_shown():
    def run(factor):
        return {"workloads": {w: {"end_to_end": {
            m.name: 10.0 * factor for m in END_TO_END}}
            for w in ("mvv_warm", "mvv_cold")}}

    rows = compare([run(1.0), run(1.0)], [run(1.0), run(1.0)])
    assert len(rows) == 2 * len(END_TO_END)
    assert {r["verdict"] for r in rows} == {"same"}
    text = render(rows)
    assert "1.000 of 10" in text and "mvv_cold" in text
