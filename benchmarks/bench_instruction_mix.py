"""Ablation — WAM instruction mix (paper §2.1, §3.2).

The WAM's term-oriented compilation determines a characteristic opcode
distribution: get/unify head traffic dominates data movement, and the
choice instructions' share tracks procedure determinism.  This bench
records the opcode histogram for three classic program shapes —
deterministic recursion, list processing, and non-deterministic search —
as the raw data behind the paper's architectural arguments.

Script mode prints the table: per shape, the executed instructions,
data and choice-point references, the wall time per goal (median of
five timed slices) and the most executed opcodes.

Run:  PYTHONPATH=src python benchmarks/bench_instruction_mix.py
      [--exposition PATH] [--smoke] [--profile | --timing]

``--smoke`` is the CI entry point: non-zero exit when a shape has no
answer or its opcode mix breaks the expectation the pytest bench
asserts (head traffic dominates list processing, deterministic
recursion creates few choice points, search does create them).

``--profile`` switches to the sampled-profiler overhead contract (E15
in EXPERIMENTS.md): each shape runs bare, with a profiler installed
but disabled (the off path), and with sampling enabled, toggling one
machine through the three configurations in rotated interleaved
trials (overhead = median of within-trial ratios to bare).  With
``--smoke`` the run fails when the off path costs more than 1 % or
sampling more than 2 %, when any configuration changes the executed
instruction count, or when the profiler's per-predicate attribution
misses the workload's own predicates.

``--timing`` switches to the per-opcode wall-time table (E14b in
EXPERIMENTS.md): the three shapes and a pool of ``mvv.RULES`` class-1
and class-2 goals (facts in the EDB, rules in memory, caches warm —
the ``mvv_warm`` setup) run once untimed and once with every entry of
the machine's dispatch table wrapped in a timer, from this script, with
no code in the emulator.  Per opcode it prints the handler's exclusive
wall time per executed instruction (nested runs inside a built-in and
the timer's own cost subtracted) and its share of the solve time
(``wam.solve_self_s``); what no handler accounts for is the dispatch
loop and everything else the emulator does between handlers.
With ``--smoke`` (a tenth of the MVV data) the run fails when a shape's
answers or executed-instruction counts differ between the timed and the
untimed run.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest                                          # noqa: E402

from repro import measure                              # noqa: E402
from repro.wam.debugger import instruction_profile     # noqa: E402
from repro.wam.machine import Machine                  # noqa: E402

PROGRAMS = {
    "deterministic-recursion": (
        "count(N, N) :- !. "
        "count(I, N) :- I < N, I1 is I + 1, count(I1, N).",
        "count(0, 2000)",
    ),
    "list-processing": (
        "nrev([], []). "
        "nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).",
        "nrev([a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p], _)",
    ),
    "nondeterministic-search": (
        "d(X) :- member(X, [1,2,3,4,5,6,7,8]). "
        "pair(X, Y) :- d(X), d(Y), X + Y =:= 9.",
        "findall(X-Y, pair(X, Y), _)",
    ),
}


@pytest.mark.parametrize("shape", sorted(PROGRAMS))
def test_instruction_mix(benchmark, shape):
    program, goal = PROGRAMS[shape]
    machine = Machine()
    machine.consult(program)

    state = {}

    def run():
        state["profile"] = instruction_profile(machine, goal)

    benchmark.pedantic(run, rounds=3, iterations=1)
    profile = state["profile"]
    total = sum(profile.values())
    top = sorted(profile.items(), key=lambda kv: -kv[1])[:6]
    benchmark.extra_info["total_instructions"] = total
    benchmark.extra_info["top_opcodes"] = {
        op: round(n / total, 3) for op, n in top}
    assert _mix_holds(shape, profile)


def _mix_holds(shape: str, profile: dict) -> bool:
    """The structural expectation for *shape*'s opcode histogram."""
    total = sum(profile.values())
    if shape == "deterministic-recursion":
        choice = sum(profile.get(op, 0) for op in
                     ("try_me_else", "retry_me_else", "try", "retry"))
        return choice / total < 0.25
    if shape == "list-processing":
        head = sum(n for op, n in profile.items()
                   if op.startswith(("get_", "unify_")))
        return head / total > 0.3  # data movement dominates
    return profile.get("try_me_else", 0) + profile.get("try", 0) > 0


# ------------------------------------------------------ script mode (table)

def _run_shape(shape: str) -> dict:
    from repro import term_to_text

    program, goal = PROGRAMS[shape]
    machine = Machine()
    machine.consult(program)
    with measure(machine) as meas:
        answers = [
            tuple(sorted((name, term_to_text(value))
                         for name, value in sol.bindings.items()))
            for sol in machine.solve(goal)]
    repeats = _TIMING_REPEATS[shape]
    wall = _median([_timed_run(machine, goal, repeats) / repeats
                    for _ in range(5)])
    return {
        "answers": answers,
        "instr_count": meas["instr_count"],
        "data_refs": meas["data_refs"],
        "cp_refs": meas["cp_refs"],
        "wall_ms": wall * 1000,
        "profile": instruction_profile(machine, goal),
        "snapshot": machine.counters(),
    }


# ------------------------------------------------- profiler overhead (E15)

#: per-timing-slice goal repeats, sized so one slice is long enough to
#: dwarf the timer resolution but short enough that many interleaved
#: slices fit in a CI run
_PROFILE_REPEATS = {
    "deterministic-recursion": 1,
    "list-processing": 8,
    "nondeterministic-search": 10,
}

#: the overhead contract (docs/OBSERVABILITY.md, EXPERIMENTS.md E15)
_OFF_PATH_BUDGET = 0.01
_SAMPLING_BUDGET = 0.02


def _timed_run(machine, goal: str, repeats: int) -> float:
    import time
    start = time.perf_counter()
    for _ in range(repeats):
        for _ in machine.solve(goal):
            pass
    return time.perf_counter() - start


def _median(values):
    values = sorted(values)
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def _measure_overhead(benches, trials, ratios):
    """One measurement pass: for every shape, *trials* adjacent
    base/config slice pairs per configuration, with the order inside
    each pair alternating (base-first on even trials, config-first on
    odd) so slow drift and position bias cancel.  Appends the paired
    ratios to *ratios* and returns per-shape base medians."""
    import gc

    base_ms = {}
    gc.disable()
    try:
        for shape, (machine, sampler, set_config) in benches.items():
            goal = PROGRAMS[shape][1]
            repeats = _PROFILE_REPEATS[shape]
            base_times = []
            for trial in range(trials):
                for config in ("off", "on"):
                    pair = (("base", config) if trial % 2
                            else (config, "base"))
                    set_config(pair[0])
                    t1 = _timed_run(machine, goal, repeats)
                    set_config(pair[1])
                    t2 = _timed_run(machine, goal, repeats)
                    t_cfg, t_base = (t2, t1) if pair[0] == "base" \
                        else (t1, t2)
                    ratios[shape][config].append(t_cfg / t_base)
                    base_times.append(t_base)
            base_ms[shape] = _median(base_times) * 1000
    finally:
        gc.enable()
    return base_ms


def _pooled(ratios, config):
    pool = [r for per_shape in ratios.values()
            for r in per_shape[config]]
    return _median(pool) - 1.0


def profile_mode(args) -> int:
    """Measure the sampled profiler's overhead and show its
    attribution.

    One machine per shape; the three configurations — bare, installed-
    but-disabled (the off path), and sampling — toggle the *same*
    machine, so code-layout and allocator effects cancel (separate
    Machine instances differ by several percent on their own).  Each
    overhead is the median over adjacent order-alternating slice pairs
    of the config/base wall-time ratio, pooled across shapes; Python's
    gc is parked during timing.  In ``--smoke`` mode a verdict over
    budget triggers one automatic remeasure with more trials (the
    pools merge) before failing — the contract gates the profiler's
    cost, not the host's scheduler."""
    from repro.obs.profiler import WamProfiler

    trials = 20 if args.smoke else 10
    failures = 0
    ratios = {shape: {"off": [], "on": []} for shape in PROGRAMS}
    snapshots = []
    sampler = None
    benches = {}
    for shape in sorted(PROGRAMS):
        program, goal = PROGRAMS[shape]
        machine = Machine()
        machine.consult(program)
        sampler = WamProfiler(interval=2048).install(machine)

        def set_config(config, machine=machine, sampler=sampler):
            machine.profiler = sampler if config != "base" else None
            if config == "on":
                sampler.active or sampler.enable()
            else:
                sampler.disable()

        # Differential check first (also warms the machine): neither
        # configuration may change what executes.
        counts = {}
        for config in ("base", "off", "on"):
            set_config(config)
            before = machine.instr_count
            answers = [tuple(sorted(s.bindings.items()))
                       for s in machine.solve(goal)]
            counts[config] = (machine.instr_count - before,
                              len(answers))
        if len(set(counts.values())) != 1:
            print(f"FAIL {shape}: profiler changed execution {counts}")
            failures += 1
        benches[shape] = (machine, sampler, set_config)

    base_ms = _measure_overhead(benches, trials, ratios)
    off_pct = _pooled(ratios, "off")
    on_pct = _pooled(ratios, "on")
    if args.smoke and (off_pct > _OFF_PATH_BUDGET
                       or on_pct > _SAMPLING_BUDGET):
        print(f"over budget on first pass (off {off_pct:+.2%}, "
              f"on {on_pct:+.2%}); remeasuring with {2 * trials} "
              f"trials")
        base_ms = _measure_overhead(benches, 2 * trials, ratios)
        off_pct = _pooled(ratios, "off")
        on_pct = _pooled(ratios, "on")

    print(f"{'shape':<28} {'base ms':>9} {'off %':>8} {'on %':>8} "
          f"{'samples':>8}")
    for shape in sorted(PROGRAMS):
        machine, sampler, set_config = benches[shape]
        set_config("on")
        print(f"{shape:<28} {base_ms[shape]:>9.2f} "
              f"{_median(ratios[shape]['off']) - 1.0:>8.2%} "
              f"{_median(ratios[shape]['on']) - 1.0:>8.2%} "
              f"{sampler.samples:>8}")
        snapshots.append(machine.counters())

        # Attribution sanity: the workload's own predicates must be
        # where the samples land.
        predicates = {rec["predicate"] for rec in sampler.attribution()}
        expected = {"deterministic-recursion": "count/2",
                    "list-processing": "nrev/2",
                    "nondeterministic-search": "pair/2"}[shape]
        if sampler.samples and expected not in predicates:
            print(f"FAIL {shape}: {expected} missing from "
                  f"attribution {sorted(predicates)}")
            failures += 1

    print(f"\noff-path overhead (installed, disabled): {off_pct:+.2%} "
          f"(budget {_OFF_PATH_BUDGET:.0%})")
    print(f"sampling overhead (interval 2048):        {on_pct:+.2%} "
          f"(budget {_SAMPLING_BUDGET:.0%})")
    if args.smoke and off_pct > _OFF_PATH_BUDGET:
        print("FAIL: off-path overhead exceeds budget")
        failures += 1
    if args.smoke and on_pct > _SAMPLING_BUDGET:
        print("FAIL: sampling overhead exceeds budget")
        failures += 1

    if sampler is not None:
        print("\nlast shape's attribution:")
        print(sampler.format())
        folded = sampler.folded()
        print(f"folded stacks ({len(folded)}):")
        for line in folded[:6]:
            print(f"  {line}")

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        text = render_prometheus(MetricsRegistry.merge(*snapshots))
        assert "educe_profiler_samples" in text
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nmerged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    print(f"\n{'PASS' if not failures else 'FAIL'}: sampled profiler "
          f"overhead contract; see EXPERIMENTS.md E15")
    return 1 if failures else 0


# ----------------------------------------------- per-opcode wall time (E14b)

#: goal repeats per timed slice, per shape (the MVV pool runs once)
_TIMING_REPEATS = {
    "deterministic-recursion": 5,
    "list-processing": 40,
    "nondeterministic-search": 40,
}


class _OpcodeTimer:
    """Wraps a machine's dispatch table (and its ``_run``, so a built-in
    that runs a nested goal is not charged for the handlers inside it)
    and accumulates exclusive wall time per opcode."""

    def __init__(self, machine):
        import time
        self.machine = machine
        self.clock = time.perf_counter_ns
        self.ns = {}
        self.count = {}
        self.frames = 0    # wrapped calls of any kind, _run included
        self.stack = [0]   # per open frame: inclusive ns of its children
        self.inner_ns = 0.0   # timer cost inside a measured interval
        self.call_ns = 0.0    # timer cost per wrapped call, all of it

    def _wrap(self, op, handler):
        clock, stack = self.clock, self.stack
        ns, count = self.ns, self.count
        ns.setdefault(op, 0)
        count.setdefault(op, 0)

        def timed(arg):
            # no try/finally: a handler that raises leaves this table
            # unbalanced, and none of the timed goals raises
            stack.append(0)
            start = clock()
            result = handler(arg)
            spent = clock() - start
            children = stack.pop()
            stack[-1] += spent
            ns[op] += spent - children
            count[op] += 1
            return result
        return timed

    def calibrate(self, calls: int = 20000) -> None:
        """The timer's own cost per call: inside the measured interval
        (charged to the handler) and in all (charged to the run)."""
        import time

        def bare(instr):
            return None
        probe = self._wrap("$probe", bare)
        inner, whole = [], []
        for _ in range(7):
            self.ns["$probe"] = 0
            start = time.perf_counter_ns()
            for _ in range(calls):
                probe(None)
            timed = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for _ in range(calls):
                bare(None)
            untimed = time.perf_counter_ns() - start
            inner.append(self.ns["$probe"] / calls)
            whole.append((timed - untimed) / calls)
        self.inner_ns, self.call_ns = _median(inner), _median(whole)
        del self.ns["$probe"], self.count["$probe"]

    def __enter__(self):
        machine = self.machine
        self.saved = machine._dispatch
        machine._dispatch = {op: self._wrap(op, handler)
                             for op, handler in self.saved.items()}
        machine._run = self._wrap("$run", machine._run)
        return self

    def __exit__(self, *exc):
        self.machine._dispatch = self.saved
        del self.machine._run
        self.frames = sum(self.count.values())
        del self.ns["$run"], self.count["$run"]


def _timing_workloads(smoke: bool):
    """(label, solver, goals, repeats): the three shapes on a bare
    machine, then the MVV pool on a session set up like mvv_warm."""
    from repro import EduceStar
    from repro.workloads import mvv

    for shape in sorted(PROGRAMS):
        program, goal = PROGRAMS[shape]
        machine = Machine()
        machine.consult(program)
        yield shape, machine, [goal], _TIMING_REPEATS[shape]
    data = mvv.generate(seed=11, scale=0.1 if smoke else 1.0)
    session = mvv.load_educestar(data)
    goals = (mvv.class1_queries(data, 4 if smoke else 20)
             + mvv.class2_queries(data, 1 if smoke else 5))
    yield "mvv class-1/class-2 pool", session, goals, 1


def _timed_solve(solver, goals, repeats):
    """(answers, instructions executed, wall seconds)."""
    import time
    from repro import term_to_text

    machine = solver.machine if hasattr(solver, "machine") else solver
    solutions = []
    before = machine.instr_count
    start = time.perf_counter()
    for _ in range(repeats):
        for goal in goals:
            solutions.append(list(solver.solve(goal)))
    seconds = time.perf_counter() - start
    answers = [sorted(tuple(sorted((name, term_to_text(value))
                                   for name, value in sol.bindings.items()))
                      for sol in solved)
               for solved in solutions]
    return answers, machine.instr_count - before, seconds


def timing_mode(args) -> int:
    """ns per executed instruction and share of solve time, per opcode:
    handler work against what the dispatch loop costs around it."""
    import gc

    failures = 0
    for label, solver, goals, repeats in _timing_workloads(args.smoke):
        machine = solver.machine if hasattr(solver, "machine") else solver
        _timed_solve(solver, goals, repeats)          # warm caches
        # Untimed and timed runs alternate; each figure below is the
        # median over the timed runs (one in --smoke).
        bare, timers = [], []
        gc.disable()
        try:
            for _ in range(1 if args.smoke else 5):
                bare.append(_timed_solve(solver, goals, repeats))
                timer = _OpcodeTimer(machine)
                timer.calibrate()
                with timer:
                    timed = _timed_solve(solver, goals, repeats)
                timers.append((timer, timed))
        finally:
            gc.enable()
        bare_answers, bare_executed, _ = bare[0]
        for _timer, (answers, executed, _) in timers:
            if answers != bare_answers or executed != bare_executed:
                print(f"FAIL {label}: a timed run differs from the untimed "
                      f"one ({executed} vs {bare_executed} instructions)")
                failures += 1
        untimed_ns = _median([seconds for _, _, seconds in bare]) * 1e9
        # A timed run less the timer's calibrated cost still differs from
        # an untimed one (the wrappers disturb caches and branch
        # prediction); shares are of that total and ns are scaled back
        # to the untimed run, assuming the disturbance is uniform.
        solve_ns = _median([timed[2] * 1e9 - timer.frames * timer.call_ns
                            for timer, timed in timers])
        scale = untimed_ns / solve_ns
        timer = timers[0][0]
        handler_ns = {op: _median([max(0.0, t.ns[op]
                                       - t.inner_ns * t.count[op])
                                   for t, _ in timers])
                      for op in timer.ns if timer.count[op]}
        print(f"\n{label}: {bare_executed} instructions, "
              f"{untimed_ns / 1e6:.2f} ms untimed "
              f"({untimed_ns / bare_executed:.0f} ns/instruction); timed "
              f"less the timer's cost: {solve_ns / 1e6:.2f} ms")
        print(f"  {'opcode':<20} {'executed':>9} {'ns/instr':>9} "
              f"{'share':>7}")
        for op in sorted(handler_ns, key=lambda o: -handler_ns[o]):
            print(f"  {op:<20} {timer.count[op]:>9} "
                  f"{handler_ns[op] * scale / timer.count[op]:>9.0f} "
                  f"{handler_ns[op] / solve_ns:>7.1%}")
        rest = solve_ns - sum(handler_ns.values())
        print(f"  {'dispatch + rest':<20} {bare_executed:>9} "
              f"{rest * scale / bare_executed:>9.0f} "
              f"{rest / solve_ns:>7.1%}")
    print(f"\n{'PASS' if not failures else 'FAIL'}: timed runs match "
          f"the untimed ones; see EXPERIMENTS.md E14b")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exposition", metavar="PATH", default=None,
                        help="write the merged wam counters as "
                             "Prometheus text format")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: require answers and the expected "
                             "opcode mix per shape")
    parser.add_argument("--profile", action="store_true",
                        help="measure sampled-profiler overhead (E15) "
                             "instead of the instruction-mix table")
    parser.add_argument("--timing", action="store_true",
                        help="print the per-opcode wall-time table "
                             "(E14b) instead of the instruction-mix table")
    args = parser.parse_args(argv)
    if args.profile:
        return profile_mode(args)
    if args.timing:
        return timing_mode(args)

    failures = 0
    snapshots = []
    print(f"{'shape':<28} {'instr':>9} {'data refs':>10} {'cp share':>9} "
          f"{'wall ms':>8}  top opcodes")
    for shape in sorted(PROGRAMS):
        r = _run_shape(shape)
        snapshots.append(r["snapshot"])
        profile = r["profile"]
        total = sum(profile.values())
        top = ", ".join(f"{op} {n / total:.0%}" for op, n in sorted(
            profile.items(), key=lambda kv: -kv[1])[:3])
        print(f"{shape:<28} {r['instr_count']:>9} {r['data_refs']:>10} "
              f"{r['cp_refs'] / max(r['data_refs'], 1):>9.1%} "
              f"{r['wall_ms']:>8.3f}  {top}")
        if args.smoke and not r["answers"]:
            print(f"FAIL {shape}: no answer")
            failures += 1
        if args.smoke and not _mix_holds(shape, profile):
            print(f"FAIL {shape}: opcode mix breaks its expectation")
            failures += 1

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        text = render_prometheus(MetricsRegistry.merge(*snapshots))
        assert "educe_instr_count" in text
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nmerged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    print(f"\n{'PASS' if not failures else 'FAIL'}: instruction mix "
          f"per program shape (paper §2.1, §3.2)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
