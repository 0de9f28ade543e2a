"""``BENCHMARK.json`` and the catalogue say the same thing, inside the
limits the benchmark contract sets."""

import json
import os
import re

from catalogue import END_TO_END, PER_LAYER, SPAN_LAYER, WORKLOADS
from sizes import RUN_SECONDS, SIZES

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_catalogue():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == RUN_SECONDS
    assert bench["workloads"] == [{"name": n, "why": w}
                                  for n, w in WORKLOADS]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_contract_limits():
    names = ([n for n, _ in WORKLOADS] + [m.name for m in END_TO_END]
             + [m.name for m in PER_LAYER])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(m.better in ("lower", "higher")
               for m in END_TO_END + PER_LAYER)
    assert 2 <= len(WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why for _, why in WORKLOADS)
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    setup = [m for m in END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert setup[0].bound == max(m.bound for m in END_TO_END)
    assert 1 <= RUN_SECONDS <= 60


def test_every_workload_has_both_sizes_and_every_layer_a_metric():
    for size in SIZES.values():
        assert list(size) == [n for n, _ in WORKLOADS]
    layers = {m.name.split(".")[0] for m in PER_LAYER}
    assert layers == {"lang", "dictionary", "wam", "edb", "bang",
                      "relational", "datalog", "service", "engine", "bench"}
    assert any(m.exact for m in PER_LAYER)
    assert all(m.moves for m in PER_LAYER)
    assert set(SPAN_LAYER.values()) <= {
        "wam", "edb+bang", "relational", "datalog", "engine", "service",
        "lang", "dictionary", "bench"}
