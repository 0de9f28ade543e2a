"""``run.py compare``: two commits, one row per (workload, end-to-end
metric).

    python3 benchmarks/e2e/run.py compare BASE1.json CHANGE1.json \\
        [BASE2.json CHANGE2.json ...]

The files are ``result.json`` files of full runs, given as alternating
pairs in the order they were run (base, change, base, change, ...).  A
row shows both medians with their quartiles, the change as a ratio of
its base, the bound from the catalogue, how many pairs the change won,
and a verdict:

``worse``       the change's median is worse than the base's by more than
                the bound;
``unresolved``  the base's own runs spread (q3 − q1 over the median) wider
                than the bound, so the bound cannot be checked;
``better``      at least ten pairs, the change won nine tenths of them
                (ties count for neither side) and the medians differ by
                more than the base's own spread;
``same``        everything else — including an apparent gain on fewer
                than ten pairs, which may not be claimed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from catalogue import END_TO_END, EndToEnd

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); with one value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric: EndToEnd, base: float, change: float) -> float:
    """How much worse *change* is, as a share of *base* (negative =
    better)."""
    if base == 0:
        return 0.0
    delta = (change - base) / base
    return delta if metric.better == "lower" else -delta


def judge(metric: EndToEnd, base: Sequence[float],
          change: Sequence[float]) -> Dict[str, object]:
    """The verdict for one (workload, metric) from paired runs."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    worse = worse_by(metric, b_med, c_med)
    pairs = min(len(base), len(change))
    wins = sum(worse_by(metric, b, c) < 0
               for b, c in zip(base, change))
    losses = sum(worse_by(metric, b, c) > 0
                 for b, c in zip(base, change))
    if len(base) >= 2 and spread > metric.bound:
        verdict = "unresolved"
    elif worse > metric.bound:
        verdict = "worse"
    elif (pairs >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE * pairs
          and abs(c_med - b_med) > (b_q3 - b_q1) and worse < 0):
        verdict = "better"
    else:
        verdict = "same"
    return {"base": (b_q1, b_med, b_q3), "change": (c_q1, c_med, c_q3),
            "ratio": c_med / b_med if b_med else 0.0, "spread": spread,
            "pairs": pairs, "wins": wins, "losses": losses,
            "verdict": verdict}


def load(paths: Sequence[str]) -> Tuple[List[dict], List[dict]]:
    if len(paths) < 2 or len(paths) % 2:
        raise SystemExit("compare: give result files in pairs: "
                         "BASE.json CHANGE.json [BASE2.json CHANGE2.json ...]")
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs[0::2], runs[1::2]


def compare(base_runs: List[dict], change_runs: List[dict]) -> List[dict]:
    rows = []
    workloads = [w for w in base_runs[0]["workloads"]
                 if all(w in run["workloads"]
                        for run in base_runs + change_runs)]
    for workload in workloads:
        for metric in END_TO_END:
            def values(runs):
                return [run["workloads"][workload]["end_to_end"][metric.name]
                        for run in runs]
            row = judge(metric, values(base_runs), values(change_runs))
            row.update(workload=workload, metric=metric)
            rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    def cell(triple, unit):
        q1, med, q3 = triple
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}] {unit}"

    lines = [f"{'workload':<20} {'metric':<20} {'base median [q1, q3]':<38} "
             f"{'change median [q1, q3]':<38} {'change/base':<24} "
             f"{'bound':>6} {'won':>7}  verdict"]
    for row in rows:
        metric = row["metric"]
        base_med = row["base"][1]
        lines.append(
            f"{row['workload']:<20} {metric.name:<20} "
            f"{cell(row['base'], metric.unit):<38} "
            f"{cell(row['change'], metric.unit):<38} "
            f"{row['ratio']:.3f} of {base_med:<14.5g} "
            f"{metric.bound:>6.0%} {row['wins']:>3}/{row['pairs']:<3}  "
            f"{row['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    rows = compare(*load(argv))
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
