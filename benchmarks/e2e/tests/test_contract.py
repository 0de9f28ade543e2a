"""The command ``BENCHMARK.json`` names, run the way the driver runs
it (small and short): the last line of standard output is one JSON
object with exactly the promised keys and metrics."""

import json
import os
import subprocess
import sys

import pytest

from catalogue import END_TO_END, PER_LAYER

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def _run(*extra):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    done = subprocess.run(
        [sys.executable] + command[1:] + list(extra), cwd=REPO,
        stdout=subprocess.PIPE, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,expected", [
    ("0", END_TO_END), ("1", PER_LAYER)])
def test_result_line(trace, expected):
    code, lines = _run("--workload", "wisconsin_mix", "--seed", "5",
                       "--seconds", "0.3", "--trace", trace,
                       "--size", "smoke")
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in expected]
    for metric in expected:
        entry = result["metrics"][metric.name]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # every metric is also printed by name with its unit
    printed = {line.split()[0] for line in lines[:-1] if line[:1] != "#"}
    assert printed == {m.name for m in expected}
    assert not os.path.exists(os.path.join(REPO, "benchmarks", "e2e", ".work"))
