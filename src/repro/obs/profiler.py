"""Sampled WAM profiler with per-predicate cost attribution.

A :class:`WamProfiler` installed on a machine samples at the machine's
one due-check — call/execute dispatch and backtracking, the safe point
the deadline/cancel poll hook shares (``Machine._due``).  Once at least
``interval`` instructions have elapsed since the previous sample it:

* charges the instructions and data references executed since the last
  sample to the predicate whose code is running (**exclusive** cost),
* reconstructs the call stack from the machine's continuation chain
  (``cp_code`` plus the environment chain's saved continuations) and
  charges the same delta to every predicate on it (**inclusive** cost),
* folds the stack into a flamegraph line (root;...;leaf).

Costs are attributed to predicate indicators (``name/arity``) by
mapping code-block identities to the procedures that own them; blocks
fetched from the EDB are registered at dispatch time
(:meth:`note_code`), so stored predicates are attributed like
main-memory ones.  Metacall scaffolding compiles into real (aux-named)
procedures and needs no special casing; the query driver's halt block
is recognised structurally and skipped.

Overhead contract (E15 in EXPERIMENTS.md, enforced by
``bench_instruction_mix.py --profile --smoke``):

* **off path** (no profiler, or installed-but-disabled): nothing the
  bare machine does not do — its due-check runs every poll interval
  with or without a profiler — so overhead is ≤ 1 %;
* **sampling** (enabled): the due-check comes at least once per
  ``interval`` instructions, plus one stack walk per sample, ≤ 2 % at
  the default interval.

Like the rest of :mod:`repro.obs`, this module has no repro imports
(simulated-ms pricing lazily borrows the session's CostModel only when
a report asks for it).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["WamProfiler"]

#: sample after at least this many executed instructions (checked at
#: the machine's due-check: call dispatch and backtracking); sized with
#: the stack-walk cost so default sampling stays within the 2 % overhead
#: budget (EXPERIMENTS.md E15)
DEFAULT_INTERVAL = 8192

#: continuation frames walked per sample before truncating
DEFAULT_MAX_DEPTH = 32

#: label cache sentinel for driver blocks that should not appear in
#: stacks (the machine's halt block)
_SKIP = ""

#: ``next_due`` value while disabled — a huge *int* (never a float: the
#: machine's ``next_due`` is the minimum of this and its poll due, and
#: its compare against ``instr_count`` stays int-int, which CPython
#: resolves about twice as fast as int-float)
_NEVER = 1 << 62


def _is_driver(code: list) -> bool:
    """The query driver's halt block (and nothing else) is skippable."""
    return len(code) == 1 and code[0][0] == "halt_success"


class WamProfiler:
    """Low-overhead sampling profiler for one WAM machine."""

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = int(interval)
        self.max_depth = int(max_depth)
        self.active = False
        #: instruction count at which the next sample is due; _NEVER
        #: while disabled, so the machine's due-check needs no
        #: ``active`` load
        self.next_due: int = _NEVER
        self.machine: Optional[Any] = None

        # id(code block) -> "name/arity" (or _SKIP); the pins keep the
        # labelled blocks alive so ids cannot be recycled mid-window.
        self._labels: Dict[int, str] = {}
        self._pins: List[list] = []
        self._last: Tuple[int, int] = (0, 0)

        # accumulators --------------------------------------------------
        self.samples = 0
        self.sampled_instr = 0
        self.sampled_data_refs = 0
        self.truncated_stacks = 0
        self.unknown_blocks = 0
        #: indicator -> [excl_instr, excl_data, leaf_samples]
        self._excl: Dict[str, List[int]] = {}
        #: indicator -> [incl_instr, incl_data, stack_samples]
        self._incl: Dict[str, List[int]] = {}
        #: (root, ..., leaf) -> [samples, instr]
        self._folded: Dict[Tuple[str, ...], List[int]] = {}

    # ------------------------------------------------------------ lifecycle

    def install(self, machine) -> "WamProfiler":
        """Attach to *machine* (one machine per profiler — per-worker
        instances keep merged service snapshots double-count-free)."""
        if self.machine is not None and self.machine is not machine:
            raise ValueError("profiler is already installed on another "
                             "machine")
        if machine.profiler is not None and machine.profiler is not self:
            raise ValueError("machine already has a profiler installed")
        self.machine = machine
        machine.profiler = self
        self._last = (machine.instr_count, machine.data_refs)
        return self

    def uninstall(self) -> None:
        if self.machine is not None and self.machine.profiler is self:
            self.machine.profiler = None
        self.machine = None
        self.active = False
        self.next_due = _NEVER

    def enable(self) -> None:
        if self.machine is None:
            raise ValueError("profiler is not installed on a machine")
        self._last = (self.machine.instr_count, self.machine.data_refs)
        self.active = True
        self._schedule()

    def disable(self) -> None:
        self.active = False
        self.next_due = _NEVER

    def reset(self) -> None:
        """Drop all attribution (counters restart; the label cache and
        pins are released too)."""
        self.samples = 0
        self.sampled_instr = 0
        self.sampled_data_refs = 0
        self.truncated_stacks = 0
        self.unknown_blocks = 0
        self._excl.clear()
        self._incl.clear()
        self._folded.clear()
        self._labels.clear()
        del self._pins[:]
        if self.machine is not None:
            self._last = (self.machine.instr_count,
                          self.machine.data_refs)
            if self.active:
                self._schedule()

    def _schedule(self) -> None:
        """Due one interval from now — and no later at the machine's
        due-check, which otherwise looks only every poll interval."""
        machine = self.machine
        self.next_due = machine.instr_count + self.interval
        machine.next_due = min(machine.next_due, self.next_due)

    # ------------------------------------------------------------- sampling

    def sample(self, machine) -> None:
        """Attribute the instructions executed since the last sample to
        the currently running predicate stack."""
        di = machine.instr_count - self._last[0]
        dd = machine.data_refs - self._last[1]
        self._last = (machine.instr_count, machine.data_refs)
        self.next_due = machine.instr_count + self.interval
        if di < 0:          # counters were reset mid-window
            di, dd = 0, 0

        # Reconstruct the stack, leaf first: the running block, the
        # current continuation, then each environment's saved
        # continuation (the caller chain).
        labels = self._labels
        stack: List[str] = []
        prev = None
        frames = 2
        code = machine.code
        cont = machine.cp_code
        env = machine.e

        label = labels.get(id(code))
        if label is None:
            label = self._relabel(machine, code)
        if label is not _SKIP:
            stack.append(label)
            prev = label

        while True:
            label = labels.get(id(cont))
            if label is None:
                label = self._relabel(machine, cont)
            if label is not _SKIP and label != prev:
                stack.append(label)
                prev = label
            if env is None:
                break
            if frames >= self.max_depth:
                self.truncated_stacks += 1
                break
            cont = env.cp_code
            env = env.prev
            frames += 1

        self.samples += 1
        self.sampled_instr += di
        self.sampled_data_refs += dd
        if not stack:
            return

        leaf = stack[0]
        cell = self._excl.get(leaf)
        if cell is None:
            cell = self._excl[leaf] = [0, 0, 0]
        cell[0] += di
        cell[1] += dd
        cell[2] += 1
        for label in set(stack):
            cell = self._incl.get(label)
            if cell is None:
                cell = self._incl[label] = [0, 0, 0]
            cell[0] += di
            cell[1] += dd
            cell[2] += 1
        key = tuple(reversed(stack))
        cell = self._folded.get(key)
        if cell is None:
            self._folded[key] = [1, di]
        else:
            cell[0] += 1
            cell[1] += di

    def note_code(self, code: list, name: str, arity: int) -> None:
        """Register an externally fetched block (the machine calls this
        from the EDB dispatch path while a profiler is installed)."""
        cid = id(code)
        if cid not in self._labels:
            self._labels[cid] = f"{name}/{arity}"
            self._pins.append(code)

    def _relabel(self, machine, code: list) -> str:
        """Resolve an unseen block: index every procedure body we have
        not labelled yet, then cache the outcome (hits and misses both,
        so each block is scanned for at most once)."""
        labels = self._labels
        for proc in machine.procedures.values():
            body = proc.code
            if body is not None and id(body) not in labels:
                labels[id(body)] = f"{proc.name}/{proc.arity}"
                self._pins.append(body)
        label = labels.get(id(code))
        if label is None:
            label = _SKIP if _is_driver(code) else "?"
            if label == "?":
                self.unknown_blocks += 1
            labels[id(code)] = label
            self._pins.append(code)
        return label

    # ------------------------------------------------------------- reports

    def counters(self) -> Dict[str, int]:
        """``profiler_*`` counters (merged into the owning machine's
        snapshot; docs/OBSERVABILITY.md glossary)."""
        return {
            "profiler_samples": self.samples,
            "profiler_sampled_instr": self.sampled_instr,
            "profiler_sampled_data_refs": self.sampled_data_refs,
            "profiler_truncated_stacks": self.truncated_stacks,
            "profiler_unknown_blocks": self.unknown_blocks,
        }

    def attribution(self, cost_model=None) -> List[Dict[str, Any]]:
        """Per-predicate costs, heaviest exclusive first.

        Each record carries exclusive/inclusive instructions, data
        references and sample counts, plus simulated milliseconds
        priced by *cost_model* (default: the stock CostModel)."""
        model = cost_model or _default_cost_model()
        out = []
        for pred, excl in self._excl.items():
            incl = self._incl.get(pred, [0, 0, 0])
            out.append({
                "predicate": pred,
                "excl_instr": excl[0], "excl_data_refs": excl[1],
                "excl_samples": excl[2],
                "incl_instr": incl[0], "incl_data_refs": incl[1],
                "incl_samples": incl[2],
                "excl_ms": model.cpu_ms({"instr_count": excl[0],
                                         "data_refs": excl[1]}),
                "incl_ms": model.cpu_ms({"instr_count": incl[0],
                                         "data_refs": incl[1]}),
            })
        # inclusive-only predicates (never sampled as the leaf)
        for pred, incl in self._incl.items():
            if pred not in self._excl:
                out.append({
                    "predicate": pred,
                    "excl_instr": 0, "excl_data_refs": 0,
                    "excl_samples": 0,
                    "incl_instr": incl[0], "incl_data_refs": incl[1],
                    "incl_samples": incl[2],
                    "excl_ms": 0.0,
                    "incl_ms": model.cpu_ms({"instr_count": incl[0],
                                             "data_refs": incl[1]}),
                })
        out.sort(key=lambda r: (-r["excl_instr"], -r["incl_instr"],
                                r["predicate"]))
        return out

    def folded(self) -> List[str]:
        """Folded-stack (flamegraph) lines: ``root;...;leaf N`` where N
        is the sample count — ``flamegraph.pl``-compatible."""
        return [f"{';'.join(stack)} {cell[0]}"
                for stack, cell in sorted(self._folded.items())]

    def report(self, cost_model=None) -> Dict[str, Any]:
        """JSON-able report: attribution + folded stacks + counters."""
        return {
            "kind": "wam_profile",
            "interval": self.interval,
            "predicates": self.attribution(cost_model),
            "folded": self.folded(),
            "counters": self.counters(),
        }

    def to_json_lines(self) -> List[str]:
        """One header line plus one line per predicate — the shape
        ``benchmarks/report.py --diff`` consumes."""
        import json
        report = self.report()
        preds = report.pop("predicates")
        lines = [json.dumps(report, sort_keys=True)]
        for rec in preds:
            rec = dict(rec, kind="wam_profile_pred")
            lines.append(json.dumps(rec, sort_keys=True))
        return lines

    def format(self, top: int = 10, cost_model=None) -> str:
        """Human-readable attribution table (the REPL's ``:profile``)."""
        rows = self.attribution(cost_model)
        lines = [f"samples: {self.samples}  "
                 f"instr: {self.sampled_instr}  "
                 f"data refs: {self.sampled_data_refs}  "
                 f"interval: {self.interval}"]
        if not rows:
            lines.append("(no samples attributed — run a longer query "
                         "or lower the interval)")
            return "\n".join(lines)
        lines.append(f"{'predicate':<24} {'excl instr':>10} "
                     f"{'excl %':>7} {'incl instr':>10} "
                     f"{'excl ms':>9} {'samples':>8}")
        total = self.sampled_instr or 1
        for rec in rows[:top]:
            lines.append(
                f"{rec['predicate']:<24} {rec['excl_instr']:>10} "
                f"{rec['excl_instr'] / total:>7.1%} "
                f"{rec['incl_instr']:>10} {rec['excl_ms']:>9.3f} "
                f"{rec['excl_samples']:>8}")
        if len(rows) > top:
            lines.append(f"... {len(rows) - top} more predicates")
        return "\n".join(lines)


def _default_cost_model():
    from ..engine.stats import CostModel
    return CostModel()
