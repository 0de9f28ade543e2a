"""The repo's one benchmark: six workloads over the whole KBMS.

One workload, as ``BENCHMARK.json``'s command runs it::

    python3 benchmarks/e2e/run.py --workload mvv_warm --seed 7 \\
        --seconds 10 --trace 0

sets up three times, measures for ``--seconds``, checks every answer
against an independent oracle, and prints every metric by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, each in its own fresh subprocess::

    python3 benchmarks/e2e/run.py [--seed N] [--workloads a,b] [--smoke]
        [--trace] [--out DIR] [--check-determinism]
    python3 benchmarks/e2e/run.py compare BASE.json CHANGE.json ...

See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
DEFAULT_OUT = os.path.join(HERE, "out")
WORK_ROOT = os.path.join(HERE, ".work")


def _import_program() -> None:
    """The benchmark measures the checkout it sits in, from source."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


# ------------------------------------------------------------ one workload

def _workload_classes() -> Dict[str, Any]:
    from wl_mvv import MvvCold, MvvWarm
    from wl_reach import ReachDatalog
    from wl_service import ServiceClosedRead, ServiceOpenMixed
    from wl_wisconsin import WisconsinMix
    return {cls.name: cls for cls in (
        MvvWarm, MvvCold, WisconsinMix, ReachDatalog, ServiceClosedRead,
        ServiceOpenMixed)}


def _verdict(log, recover, problems: List[str]) -> Dict[str, Any]:
    """Failure accounting for the whole run: operations that failed, the
    restart check's first query, and the run-level checks."""
    attempted = log.attempted + 1
    failed = log.failed + (0 if recover["first_query_right"] else 1)
    problems = list(problems)
    if recover["lost_acked_writes"]:
        problems.append(f"{recover['lost_acked_writes']} acknowledged "
                        "writes unreadable after reopening")
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and not problems,
            "problems": problems + log.failure_notes,
            "failures": dict(log.failures)}


def timed_run(wl, size: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric.  Times are scaled to
    the reference machine speed by the probes taken around them (see
    ``harness.SpeedProbe``); the unscaled figures are kept as ``raw``."""
    from catalogue import END_TO_END
    from harness import samples_beyond, speed_factor
    from sizes import SETUP_REPEATS
    setup_s, setup_raw_s = [], []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            wl.close()
        before = wl.speed_probe()
        start = time.perf_counter()
        wl.setup()
        setup_raw_s.append(time.perf_counter() - start)
        setup_s.append(setup_raw_s[-1] * speed_factor(before,
                                                        wl.speed_probe()))
    problems = [f"set-up answer wrong: {p}" for p in wl.setup_failures]
    problems += [f"baseline disagrees: {p}"
                 for p in wl.check_oracle_sample()]

    window = wl.run_window(seconds=seconds)
    log = window.everything()
    wl.verify_writes(log)
    recover = wl.recover()

    try:
        figures = window.latency_figures()
    except ValueError as exc:
        raise SystemExit(f"run.py: {exc}; nothing to report")
    gated = {m.name for m in END_TO_END}
    metrics = {"setup_s": statistics.median(setup_s),
               "throughput_qps": window.reads_per_second(),
               "recovery_s": recover["recovery_s"],
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    metrics.update((k, v) for k, v in figures.items() if k in gated)
    raw = {"setup_s": statistics.median(setup_raw_s),
           "throughput_qps": window.reads_per_second(scaled=False),
           "recovery_s": recover["recovery_raw_s"]}
    raw.update((k, v) for k, v in
               window.latency_figures(scaled=False).items() if k in gated)
    detail = _verdict(log, recover, problems)
    detail.update(
        metrics=metrics, raw=raw, window_s=window.wall_s,
        segments=len(window.segments), speed_factor=window.mean_factor(),
        read_samples=len(log.read_ms), write_samples=len(log.write_ms),
        beyond_p95={"read": samples_beyond(len(log.read_ms), 0.95),
                    "write": samples_beyond(len(log.write_ms), 0.95)},
        failed_share=detail["failed"] / detail["attempted"],
        lost_acked_writes=recover["lost_acked_writes"])
    return detail


def _p50(samples: List[float]) -> float:
    from harness import percentile
    return percentile(samples, 0.5) if samples else 0.0


def traced_run(wl, size: Dict[str, Any]) -> Dict[str, Any]:
    """The traced run: a fixed operation count (so counts repeat), spans
    around every call the benchmark makes, the program's own opt-in spans
    nested below them, layer probes, and every per-layer metric."""
    from catalogue import TraceContext, layer_metrics, layer_shares
    from repro import CostModel
    window = size["trace_window"]
    with wl.spans.span("setup"):
        wl.setup()
    problems = [f"set-up answer wrong: {p}" for p in wl.setup_failures]

    # the same operations untraced first: the ratio of the two per-op
    # medians is what tracing costs
    wl.set_tracing(False)
    untraced = wl.run_window(**window)
    reference = untraced.everything()
    wl.set_tracing(True)

    extras_before = dict(wl.extras)
    before = wl.registry.snapshot()
    traced = wl.run_window(**window)
    after = wl.registry.snapshot()
    log, wall = traced.everything(), traced.wall_s
    delta = wl.registry.diff(after, before)
    extras = {key: value - extras_before.get(key, 0)
              for key, value in wl.extras.items()
              if isinstance(value, (int, float))}
    window_writes = len(log.write_ms)

    wl.verify_writes(log)
    recover = wl.recover()
    wl.probes()
    # written after the window: sizes on disc, probe counts, lateness
    for key in ("store_bytes", "user_bytes", "probe_parsed_chars",
                "dictionary_entries", "probe_lookups", "probe_lookup_pages",
                "late_p95_ms"):
        if key in wl.extras:
            extras[key] = wl.extras[key]

    model = CostModel()
    ctx = TraceContext(
        before=before, after=after, delta=delta,
        self_s=wl.spans.self_time_by_name(), extras=extras,
        recover=recover, wall_s=wall, workers=wl.clients,
        attempted=log.attempted, failed=log.failed,
        read_samples=len(log.read_ms),
        write_samples=window_writes,
        traced_p50_ms=_p50(traced.at_reference_speed().read_ms),
        untraced_p50_ms=_p50(untraced.at_reference_speed().read_ms),
        write_p95_ms=traced.latency_figures()["write_p95_ms"],
        sim=lambda counters: model.breakdown(counters))
    metrics = layer_metrics(ctx)
    log.merge(reference)        # the reference window's failures count too
    detail = _verdict(log, recover, problems)
    detail.update(metrics=metrics, window_s=wall,
                  layer_shares=layer_shares(wl.spans),
                  span_count=len(wl.spans.spans))
    return detail


def run_one(name: str, seed: int, seconds: float, trace: int,
            size_name: str, out: Optional[str]) -> Dict[str, Any]:
    from harness import SpanRecorder
    from sizes import SIZES
    size = SIZES[size_name][name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    spans = SpanRecorder(enabled=bool(trace))
    wl = _workload_classes()[name](seed, size, workdir, spans)
    try:
        detail = (traced_run(wl, size) if trace
                  else timed_run(wl, size, seconds))
        detail.update(workload=name, seed=seed, size=size_name,
                      trace=trace, settings=wl.describe(),
                      answer_digests=getattr(getattr(wl, "mvv", None),
                                             "digests", {}))
        if out:
            os.makedirs(out, exist_ok=True)
            suffix = "-trace" if trace else ""
            _write_json(os.path.join(out, f"{name}{suffix}.json"), detail)
            _write_json(os.path.join(out, f"inputs-{name}.json"),
                        wl.inputs())
            if trace:
                spans.write_jsonl(os.path.join(out, f"trace-{name}.jsonl"))
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return detail


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def _units(trace: int) -> Dict[str, str]:
    from catalogue import END_TO_END, PER_LAYER
    return {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}


def report_one(detail: Dict[str, Any]) -> int:
    """Print every metric by name with its unit, then the result line."""
    from harness import MIN_BEYOND, supported
    units = _units(detail["trace"])
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"size={detail['size']} trace={detail['trace']} "
          f"window={detail['window_s']:.2f}s")
    if not detail["trace"]:
        print(f"# {detail['segments']} segments; times x "
              f"{detail['speed_factor']:.3f} on average to reference "
              "machine speed (raw figures in brackets)")
        print(f"# samples: {detail['read_samples']} reads "
              f"({detail['beyond_p95']['read']} beyond p95), "
              f"{detail['write_samples']} writes "
              f"({detail['beyond_p95']['write']} beyond p95); "
              f"failed_share={detail['failed_share']:.4f} "
              f"lost_acked_writes={detail['lost_acked_writes']}")
        if "device_append_ms_p50" in detail["settings"]:
            print("# write latencies leave out the log append (writes + "
                  "sync), median "
                  f"{detail['settings']['device_append_ms_p50']:.3f} ms here")
        thin = [kind for kind in ("read", "write")
                if not supported(detail[f"{kind}_samples"], 0.95)]
        if thin:
            print(f"# note: fewer than {MIN_BEYOND} samples beyond p95 for "
                  + " and ".join(f"{kind}s" for kind in thin))
    else:
        shares = ", ".join(f"{layer} {share:.0%}" for layer, share in sorted(
            detail["layer_shares"].items(), key=lambda kv: -kv[1]))
        print(f"# self-time shares inside operations: {shares}")
    raw = detail.get("raw", {})
    for name, unit in units.items():
        aside = f"   [{raw[name]:.6g}]" if name in raw else ""
        print(f"{name:<44} {detail['metrics'][name]:>16.6g} {unit}{aside}")
    for problem in detail["problems"]:
        print(f"# PROBLEM: {problem}")
    print(json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": detail["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if detail["correct"] else 1


# ------------------------------------------------------------ every workload

def _child(name: str, args, trace: int, out: str) -> Dict[str, Any]:
    """One workload in its own fresh process; its detail file is read
    back from *out*."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--size", args.size, "--out", out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    suffix = "-trace" if trace else ""
    path = os.path.join(out, f"{name}{suffix}.json")
    if not os.path.exists(path):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"run.py: {name} (trace {trace}) wrote no result "
                         f"(exit code {done.returncode})")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    from catalogue import END_TO_END
    out = args.out or DEFAULT_OUT
    os.makedirs(out, exist_ok=True)
    result: Dict[str, Any] = {
        "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "workloads": {}}
    status = 0
    for name in args.workloads:
        detail = _child(name, args, 0, out)
        entry = {"end_to_end": detail["metrics"],
                 "correct": detail["correct"], "failed": detail["failed"],
                 "attempted": detail["attempted"],
                 "failed_share": detail["failed_share"],
                 "lost_acked_writes": detail["lost_acked_writes"],
                 "read_samples": detail["read_samples"],
                 "write_samples": detail["write_samples"],
                 "settings": detail["settings"],
                 "problems": detail["problems"],
                 "answer_digests": detail["answer_digests"]}
        if args.trace:
            traced = _child(name, args, 1, out)
            entry["per_layer"] = traced["metrics"]
            entry["layer_shares"] = traced["layer_shares"]
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["problems"] += traced["problems"]
        result["workloads"][name] = entry
        status |= 0 if entry["correct"] else 1

    # different code paths, same answers
    both = result["workloads"]
    if "mvv_warm" in both and "mvv_cold" in both:
        warm = both["mvv_warm"]["answer_digests"]
        cold = both["mvv_cold"]["answer_digests"]
        differ = [g for g in warm if g in cold and warm[g] != cold[g]]
        result["warm_cold_digests_agree"] = not differ
        if differ:
            print(f"PROBLEM: mvv_warm and mvv_cold answer {len(differ)} "
                  "goals differently")
            status = 1

    units = {m.name: m.unit for m in END_TO_END}
    print(f"{'workload':<20} " + " ".join(f"{n:>19}" for n in units))
    print(f"{'':<20} " + " ".join(f"{u:>19}" for u in units.values()))
    for name, entry in both.items():
        print(f"{name:<20} " + " ".join(
            f"{entry['end_to_end'][n]:>19.6g}" for n in units))
        flag = "ok" if entry["correct"] else "WRONG"
        print(f"{'':<20} {flag}: {entry['read_samples']} reads, "
              f"{entry['write_samples']} writes, "
              f"failed_share={entry['failed_share']:.4f}, "
              f"lost_acked_writes={entry['lost_acked_writes']}")
        if "layer_shares" in entry:
            print(f"{'':<20} self-time shares: " + ", ".join(
                f"{layer} {share:.0%}" for layer, share in sorted(
                    entry["layer_shares"].items(), key=lambda kv: -kv[1])))
        for problem in entry["problems"]:
            print(f"{'':<20} PROBLEM: {problem}")
    path = os.path.join(out, "result.json")
    _write_json(path, result)
    print(f"result -> {path}")
    return status


def check_determinism(args) -> int:
    """The single-client workloads twice, traced: every metric marked
    exact in the catalogue must come out identical."""
    from catalogue import PER_LAYER
    exact = [m.name for m in PER_LAYER if m.exact]
    classes = _workload_classes()
    out = args.out or DEFAULT_OUT
    status = 0
    for name in args.workloads:
        if not classes[name].deterministic:
            continue
        first = _child(name, args, 1, os.path.join(out, "determinism-a"))
        second = _child(name, args, 1, os.path.join(out, "determinism-b"))
        differ = [m for m in exact
                  if first["metrics"][m] != second["metrics"][m]]
        print(f"{name}: {len(exact) - len(differ)}/{len(exact)} exact "
              "metrics identical")
        for metric in differ:
            print(f"  {metric}: {first['metrics'][metric]} != "
                  f"{second['metrics'][metric]}")
            status = 1
    return status


# ----------------------------------------------------------------------- CLI

def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _import_program()
    if argv and argv[0] == "compare":
        import compare
        return compare.main(argv[1:])
    from catalogue import WORKLOADS
    from sizes import RUN_SECONDS
    names = [name for name, _why in WORKLOADS]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run this one workload in this process")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset for the full run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window (default {RUN_SECONDS}; "
                             "1 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 1/20 size")
    parser.add_argument("--size", choices=("full", "smoke"), default=None)
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="result JSON, generated inputs, trace JSON-lines"
                             f" (full run default: {DEFAULT_OUT})")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    args.size = args.size or ("smoke" if args.smoke else "full")
    if args.seconds is None:
        args.seconds = 1.0 if args.size == "smoke" else float(RUN_SECONDS)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in args.workloads if w not in names]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    if args.workload:
        return report_one(run_one(args.workload, args.seed, args.seconds,
                                  args.trace, args.size, args.out))
    if args.check_determinism:
        return check_determinism(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
