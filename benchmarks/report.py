#!/usr/bin/env python3
"""Regenerate the paper's tables in the paper's shape.

Runs every experiment and prints Tables 1, 2a, 2b and 3 (plus the §5.4
diskless-workstation comparison) formatted like the originals, with the
paper's numbers alongside where the text preserves them.

    python benchmarks/report.py [--scale S] [--jsonl PATH] [--prom PATH]
    python benchmarks/report.py --diff a.jsonl b.jsonl

Scale 1.0 (default) uses the paper's exact cardinalities; the full run
takes a couple of minutes.  ``--jsonl PATH`` additionally runs a sample
of MVV queries under per-query tracing and appends their observability
profiles (span trees + counter deltas + simulated-ms breakdowns, one
JSON object per line — see docs/OBSERVABILITY.md) to PATH.
``--prom PATH`` writes the sample session's full metrics snapshot —
counters plus latency histograms (latch waits, buffer miss stalls, WAL
appends, ...) — in Prometheus text format to PATH.

``--diff a.jsonl b.jsonl`` runs no experiments: it compares two JSONL
exports record by record — ``query_profile`` lines keyed by goal,
``wam_profile_pred`` lines (the sampled profiler's per-predicate
attribution) keyed by predicate, ``wam_profile`` headers as totals —
and prints every numeric metric that moved between the two runs.
"""

import argparse
import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.engine.stats import (  # noqa: E402
    SUN_3_60_MIPS,
    SUN_3_280S_MIPS,
    CostModel,
    measure,
)


def hr(width: int = 72) -> None:
    print("-" * width)


# =====================================================================
# Table 1 — MVV
# =====================================================================

def table1(scale: float) -> None:
    from repro.workloads import mvv

    print("\nTable 1 — Educe* / Educe: MVV times "
          "(simulated seconds per 10-query sample)")
    hr()
    data = mvv.generate(seed=11, scale=scale)
    star = mvv.load_educestar(data)
    base = mvv.load_baseline(data)
    queries = {
        1: mvv.class1_queries(data, 10),
        2: mvv.class2_queries(data, 10),
    }
    base_queries = {
        1: queries[1][:4],
        2: queries[2][:2],
    }

    print(f"{'Query class':<14}{'E* first':>10}{'E* second':>11}"
          f"{'Educe':>12}")
    for klass in (1, 2):
        star.loader.invalidate()
        with measure(star) as m_first:
            for q in queries[klass]:
                for _ in star.solve(q):
                    pass
        with measure(star) as m_second:
            for q in queries[klass]:
                for _ in star.solve(q):
                    pass
        with measure(base) as m_base:
            for q in base_queries[klass]:
                for _ in base.solve(q):
                    pass
        scale_up = len(queries[klass]) / len(base_queries[klass])
        print(f"{'Class ' + str(klass):<14}"
              f"{m_first.simulated_ms() / 1000:>10.2f}"
              f"{m_second.simulated_ms() / 1000:>11.2f}"
              f"{m_base.simulated_ms() * scale_up / 1000:>12.2f}")
    print("(first run = cold loader & buffers; Educe column scaled to "
          "10 queries)")


# =====================================================================
# Tables 2a / 2b — Wisconsin
# =====================================================================

def table2(scale: float) -> None:
    """Table 2a rows follow the paper: Preprocess / CPU / Buffer
    read-write / Total I/O / Average time, one column per query class."""
    from repro.workloads import wisconsin

    db = wisconsin.WisconsinDB.build(scale=scale)
    model = CostModel()
    columns = []
    for qc in wisconsin.query_classes():
        best = None
        for variant in qc.variants:
            r = wisconsin.run_query(db, qc, variant)
            if best is None or r.measurement.simulated_ms() \
                    < best.measurement.simulated_ms():
                best = r
        c = best.measurement.counters
        columns.append({
            "n": qc.number,
            "preprocess": 0.0,  # planning is negligible in this engine
            "cpu": best.measurement.cpu_ms(model),
            "buffer_rw": (c.get("buffer_hits", 0)
                          + c.get("buffer_misses", 0)),
            "io_pages": c.get("reads", 0) + c.get("writes", 0),
            "io_ms": best.measurement.io_ms(model),
            "avg": best.measurement.simulated_ms(model),
            "rows": best.rows,
        })

    print("\nTable 2a — Educe* Wisconsin times (simulated ms per row "
          "kind, best plan variant)")
    hr()
    header = f"{'Query':>22}" + "".join(
        f"({col['n']})".rjust(10) for col in columns)
    print(header)
    for label, key, fmt in (
        ("Preprocess", "preprocess", "{:>10.1f}"),
        ("CPU", "cpu", "{:>10.1f}"),
        ("Buffer read/write", "buffer_rw", "{:>10d}"),
        ("Total I/O (ms)", "io_ms", "{:>10.1f}"),
        ("Average time", "avg", "{:>10.1f}"),
    ):
        row = f"{label:>22}" + "".join(
            fmt.format(col[key]) for col in columns)
        print(row)
    print(f"{'result rows':>22}" + "".join(
        f"{col['rows']:>10d}" for col in columns))

    print("\nTable 2b — Wisconsin I/O frequencies")
    hr()
    print(f"{'Query':>22}" + "".join(
        f"({col['n']})".rjust(10) for col in columns))
    print(f"{'buffer accesses':>22}" + "".join(
        f"{col['buffer_rw']:>10d}" for col in columns))
    print(f"{'pages read+written':>22}" + "".join(
        f"{col['io_pages']:>10d}" for col in columns))


# =====================================================================
# Per-query observability profiles (--jsonl)
# =====================================================================

def profiles(scale: float, path: "str | None",
             prom: "str | None" = None) -> None:
    """Trace a sample of MVV queries; append their profiles to *path*
    (JSON lines) and/or the session's merged metrics snapshot to
    *prom* (Prometheus text format)."""
    from repro.obs import write_json_lines
    from repro.workloads import mvv

    data = mvv.generate(seed=11, scale=scale)
    star = mvv.load_educestar(data)
    sample = mvv.class1_queries(data, 3) + mvv.class2_queries(data, 2)
    collected = [star.profile(q) for q in sample]
    if path:
        print(f"\nPer-query profiles → {path}")
        hr()
        lines = write_json_lines(path, collected)
        for prof in collected:
            sim = prof.breakdown()
            spans = sum(1 for _ in prof.root.walk()) if prof.root else 0
            print(f"  {prof.goal[:46]:<46} {sim['total_ms']:>9.2f} ms "
                  f"({spans} spans, {prof.solutions} solutions)")
        print(f"({len(collected)} query profiles, {lines} JSON lines; "
              "counter glossary in docs/OBSERVABILITY.md)")
    if prom:
        from repro.obs import render_prometheus
        text = render_prometheus(star.metrics.snapshot(),
                                 gauge_keys=star.metrics.gauge_keys())
        with open(prom, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nPrometheus exposition ({len(text.splitlines())} "
              f"lines) → {prom}")


# =====================================================================
# JSONL diffs (--diff)
# =====================================================================

#: diffable record kinds: (kind, key field, section title)
_DIFF_KINDS = (
    ("query_profile", "goal", "query profiles (by goal)"),
    ("wam_profile_pred", "predicate",
     "sampled profiler attribution (by predicate)"),
    ("wam_profile", "kind", "sampled profiler totals"),
)


def _load_records(path: str):
    import json
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict):
                records.append(obj)
    return records


def _flatten_numeric(obj: dict, prefix: str = "") -> dict:
    """Numeric leaves of a JSON object, dotted-key flattened."""
    out = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten_numeric(value, name + "."))
        elif isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            out[name] = value
    return out


def diff_jsonl(path_a: str, path_b: str) -> int:
    """Per-key numeric diff of two JSONL exports; returns the number
    of changed metrics (the CLI exit status stays 0 either way —
    a diff is information, not a failure)."""
    recs_a, recs_b = _load_records(path_a), _load_records(path_b)
    print(f"Diff {path_a} -> {path_b}")
    changed = 0
    for kind, key_field, title in _DIFF_KINDS:
        # Last record wins per key: reruns append, and the latest
        # export of a goal/predicate is the one being compared.
        by_a = {r.get(key_field, "?"): r for r in recs_a
                if r.get("kind") == kind}
        by_b = {r.get(key_field, "?"): r for r in recs_b
                if r.get("kind") == kind}
        if not by_a and not by_b:
            continue
        print(f"\n== {title} ==")
        hr()
        for key in sorted(set(by_a) | set(by_b)):
            a, b = by_a.get(key), by_b.get(key)
            if a is None or b is None:
                side = "only in " + (path_b if a is None else path_a)
                print(f"  {key}  ({side})")
                changed += 1
                continue
            flat_a = _flatten_numeric(a)
            flat_b = _flatten_numeric(b)
            rows = []
            for metric in sorted(set(flat_a) | set(flat_b)):
                va, vb = flat_a.get(metric, 0), flat_b.get(metric, 0)
                if va == vb:
                    continue
                delta = vb - va
                pct = f" ({delta / va:+.1%})" if va else ""
                rows.append(f"    {metric:<28} {va:>12g} -> "
                            f"{vb:>12g}  {delta:+g}{pct}")
            if rows:
                print(f"  {key}")
                print("\n".join(rows))
                changed += len(rows)
        if not (set(by_a) | set(by_b)):
            print("  (no records)")
    if not changed:
        print("\nno numeric differences")
    else:
        print(f"\n{changed} metric(s) changed")
    return changed


# =====================================================================
# Table 3 — integrity checking
# =====================================================================

def table3() -> None:
    from repro.workloads import integrity as ic

    print("\nTable 3 — Integrity-constraint preprocess (ms)")
    hr()
    gc_engine = ic.load_good_compiler()
    estar = ic.load_educestar()
    server = CostModel(mips=SUN_3_280S_MIPS)
    client = CostModel(mips=SUN_3_60_MIPS)

    paper_gc = [724, 1079, 2803, 3483, 4258]
    paper_es = [380, 575, 1420, 2890, 2140]

    print(f"{'':<8}{'-- Sun server (4 MIPS) --':^26}"
          f"{'-- Sun client (3 MIPS) --':^26}")
    print(f"{'Update':<8}{'GC':>8}{'E*':>8}{'paper GC/E*':>14}"
          f"{'GC':>8}{'E*':>8}")
    for i, update in enumerate(ic.UPDATES):
        with measure(gc_engine) as m_gc:
            ic.run_preprocess(gc_engine, update)
        with measure(estar) as m_es:
            ic.run_preprocess(estar, update)
        print(f"{i + 1:<8}"
              f"{m_gc.simulated_ms(server):>8.1f}"
              f"{m_es.simulated_ms(server):>8.1f}"
              f"{f'{paper_gc[i]}/{paper_es[i]}':>14}"
              f"{m_gc.simulated_ms(client):>8.1f}"
              f"{m_es.simulated_ms(client):>8.1f}")
    print("(GC = 'A Good Prolog Compiler': the same WAM, all in main "
          "memory; E* = specialiser stored in the EDB)")


# =====================================================================
# §5.4 — diskless workstation
# =====================================================================

def section54(scale: float) -> None:
    from repro.workloads import mvv

    print("\n§5.4 — diskless workstation (same counters, re-priced)")
    hr()
    data = mvv.generate(seed=11, scale=scale)
    star = mvv.load_educestar(data)
    for klass, queries in ((1, mvv.class1_queries(data, 5)),
                           (2, mvv.class2_queries(data, 3))):
        for q in queries:  # warm
            for _ in star.solve(q):
                pass
        with measure(star) as m:
            for q in queries:
                for _ in star.solve(q):
                    pass
        t_server = m.simulated_ms(CostModel(mips=SUN_3_280S_MIPS))
        t_client = m.simulated_ms(CostModel(mips=SUN_3_60_MIPS))
        print(f"Class {klass}: server {t_server:8.1f} ms   "
              f"client {t_client:8.1f} ms   "
              f"deterioration x{t_client / max(t_server, 1e-9):.3f} "
              f"(CPU ratio x{SUN_3_280S_MIPS / SUN_3_60_MIPS:.3f})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (1.0 = paper cardinalities)")
    parser.add_argument("--jsonl", metavar="PATH", default=None,
                        help="also write per-query observability "
                             "profiles to PATH (JSON lines)")
    parser.add_argument("--prom", metavar="PATH", default=None,
                        help="also write the sample session's metrics "
                             "snapshot to PATH (Prometheus text format)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        default=None,
                        help="compare two JSONL exports per goal/"
                             "predicate and exit (no experiments run)")
    args = parser.parse_args()
    if args.diff:
        diff_jsonl(args.diff[0], args.diff[1])
        return
    for probe in (args.jsonl, args.prom):
        if probe:
            # Fail on an unwritable path now, not after the full run.
            with open(probe, "a", encoding="utf-8"):
                pass

    print("Reproduction of Bocca, 'Compilation of Logic Programs to "
          "Implement Very Large\nKnowledge Base Systems — A Case Study: "
          f"Educe*' (ICDE 1990) — scale {args.scale}")
    table1(args.scale)
    table2(args.scale)
    table3()
    section54(args.scale)
    if args.jsonl or args.prom:
        profiles(args.scale, args.jsonl, args.prom)
    print("\nSee EXPERIMENTS.md for the paper-vs-measured analysis.")


if __name__ == "__main__":
    main()
