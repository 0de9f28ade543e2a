"""The hardware cost model, the run record and :func:`measure`.

The paper's numbers come from a Sun 3/280S — a 25 MHz MC68020 the paper
rates at 4 MIPS — with a Hitachi disc.  Our substrate is a Python
simulator whose wall-clock time is not representative (repro band note),
so every experiment reports **two** figures:

* wall-clock seconds on the machine running the reproduction, and
* *simulated 1990 milliseconds* derived from deterministic work
  counters: WAM instructions, data references, compiled characters,
  page reads/writes.

The conversion constants are explicit and configurable; the diskless
workstation experiment (§5.4) is reproduced exactly by re-pricing the
same counters at 3 MIPS instead of 4.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, Iterator, List, Optional

from ..obs.registry import MetricsRegistry
from ..obs.tracing import Span

SUN_3_280S_MIPS = 4.0   # 25 MHz MC68020 (paper §5.4)
SUN_3_60_MIPS = 3.0     # 20 MHz diskless client (paper §5.4)


@dataclass
class CostModel:
    """Converts work counters into simulated 1990 milliseconds."""

    mips: float = SUN_3_280S_MIPS
    native_per_wam_instr: float = 12.0   # native instrs per WAM instr
    native_per_data_ref: float = 2.0     # memory-system overhead
    native_per_parsed_char: float = 60.0  # lexing/parsing cost (§3.1)
    native_per_compiled_clause: float = 4000.0
    native_per_resolution: float = 40.0  # loader address resolution
    native_per_tuple_op: float = 150.0   # relational-engine row handling
    native_per_inference: float = 600.0  # interpreter LI (baseline engine)
    disc_access_ms: float = 28.0         # avg seek+rotate, 1990 Hitachi
    disc_transfer_ms_per_kb: float = 0.8

    def cpu_breakdown(self, counters: Dict[str, int]) -> Dict[str, float]:
        """CPU milliseconds per cost-model term.

        The term names are part of the observability contract: each one
        is documented in docs/OBSERVABILITY.md next to the counter keys
        it prices (enforced by tests/test_docs.py).
        """
        ms = 1.0 / (self.mips * 1000.0)
        return {
            "wam_instructions": counters.get("instr_count", 0)
            * self.native_per_wam_instr * ms,
            "data_references": counters.get("data_refs", 0)
            * self.native_per_data_ref * ms,
            "parsing": counters.get("parsed_chars", 0)
            * self.native_per_parsed_char * ms,
            "compilation": counters.get("compile_count", 0)
            * self.native_per_compiled_clause * ms,
            "resolution": counters.get("resolutions", 0)
            * self.native_per_resolution * ms,
            "tuple_ops": counters.get("tuple_ops", 0)
            * self.native_per_tuple_op * ms,
            "inference": counters.get("inferences", 0)
            * self.native_per_inference * ms,
            "unification": counters.get("unifications", 0)
            * self.native_per_data_ref * 8 * ms,
        }

    def io_breakdown(self, counters: Dict[str, int]) -> Dict[str, float]:
        """I/O milliseconds per cost-model term (access vs transfer)."""
        accesses = counters.get("reads", 0) + counters.get("writes", 0)
        kb = (counters.get("bytes_read", 0)
              + counters.get("bytes_written", 0)) / 1024.0
        return {
            "disc_access": accesses * self.disc_access_ms,
            "disc_transfer": kb * self.disc_transfer_ms_per_kb,
        }

    def cpu_ms(self, counters: Dict[str, int]) -> float:
        return sum(self.cpu_breakdown(counters).values())

    def io_ms(self, counters: Dict[str, int]) -> float:
        return sum(self.io_breakdown(counters).values())

    def total_ms(self, counters: Dict[str, int]) -> float:
        return self.cpu_ms(counters) + self.io_ms(counters)

    def breakdown(self, counters: Dict[str, int]) -> Dict[str, object]:
        """Full simulated-ms breakdown for a counter delta."""
        cpu = self.cpu_breakdown(counters)
        io = self.io_breakdown(counters)
        cpu_ms = sum(cpu.values())
        io_ms = sum(io.values())
        return {
            "cpu_ms": cpu_ms,
            "io_ms": io_ms,
            "total_ms": cpu_ms + io_ms,
            "cpu": cpu,
            "io": io,
            "mips": self.mips,
        }

    def at_mips(self, mips: float) -> "CostModel":
        """Same model on a different CPU (the diskless-client experiment)."""
        return dataclasses.replace(self, mips=mips)


class Measurement:
    """The run record: what one measured extent of work cost.

    Every way of measuring a run — :func:`measure` blocks (the paper
    tables E1–E16), ``EduceStar.profile`` / ``solve(profile=True)`` and
    ``EduceStar.analyze`` — fills in one of these: the counter delta
    :meth:`MetricsRegistry.diff` reported across the extent, its wall
    time, and — for a goal — its label, answer count and (when tracing
    was asked for) the root of its span tree.  The pricing methods take
    an optional :class:`CostModel`; the default is the record's own.
    ``QueryProfile`` is the same class under the name the observability
    surfaces use.
    """

    def __init__(self, goal: str = "",
                 counters: Optional[Dict[str, float]] = None,
                 root: Optional[Span] = None,
                 solutions: int = 0,
                 wall_s: float = 0.0,
                 cost_model: Optional[CostModel] = None,
                 trace_id: Optional[str] = None):
        self.goal = goal
        self.counters: Dict[str, float] = dict(counters or {})
        self.root = root
        self.solutions = solutions
        self.wall_s = wall_s
        self.cost_model = cost_model or CostModel()
        #: service-minted trace id when the query ran as a ticket
        #: (None for standalone sessions); joins this record to the
        #: service's ticket trace and flight-recorder events.
        self.trace_id = trace_id

    def __getitem__(self, key: str) -> float:
        return self.counters.get(key, 0)

    # ------------------------------------------------------------- pricing

    def cpu_ms(self, model: Optional[CostModel] = None) -> float:
        return (model or self.cost_model).cpu_ms(self.counters)

    def io_ms(self, model: Optional[CostModel] = None) -> float:
        return (model or self.cost_model).io_ms(self.counters)

    def total_ms(self, model: Optional[CostModel] = None) -> float:
        return (model or self.cost_model).total_ms(self.counters)

    #: the name the paper-table scripts use for :meth:`total_ms`
    simulated_ms = total_ms

    def breakdown(self, model: Optional[CostModel] = None) -> Dict[str, Any]:
        """Simulated-ms breakdown, per cost-model term (see the
        "Cost-model terms" table in docs/OBSERVABILITY.md)."""
        return (model or self.cost_model).breakdown(self.counters)

    # -------------------------------------------------------------- export

    def to_dict(self) -> Dict[str, Any]:
        """The record header (span tree exported separately)."""
        out = {
            "kind": "query_profile",
            "goal": self.goal,
            "solutions": self.solutions,
            "wall_s": round(self.wall_s, 6),
            "counters": self.counters,
            "simulated": self.breakdown(),
            "spans": sum(1 for _ in self.root.walk()) if self.root else 0,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    def to_json_lines(self) -> List[str]:
        """One header line, then one line per span (pre-order)."""
        lines = [json.dumps(self.to_dict(), sort_keys=True, default=str)]
        if self.root is not None:
            lines.extend(self.root.to_json_lines())
        return lines

    def format(self, top: int = 8) -> str:
        """Human-readable block: headline, cost breakdown, span tree."""
        sim = self.breakdown()
        lines = [
            f"goal: {self.goal}",
            f"  solutions: {self.solutions}   wall: {self.wall_s:.4f} s   "
            f"simulated 1990: {sim['total_ms']:.2f} ms "
            f"(cpu {sim['cpu_ms']:.2f} + io {sim['io_ms']:.2f})",
        ]
        cpu_terms = [(k, v) for k, v in sim["cpu"].items() if v]
        io_terms = [(k, v) for k, v in sim["io"].items() if v]
        for label, terms in (("cpu", cpu_terms), ("io", io_terms)):
            if terms:
                body = "  ".join(f"{k}={v:.2f}" for k, v in terms)
                lines.append(f"  {label} ms: {body}")
        hot = sorted(((k, v) for k, v in self.counters.items() if v),
                     key=lambda kv: -abs(kv[1]))[:top]
        if hot:
            lines.append("  counters: " + "  ".join(
                f"{k}={v:g}" for k, v in hot))
        if self.root is not None:
            lines.append("  spans:")
            for line in self.root.format_tree().splitlines():
                lines.append("    " + line)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Measurement(goal={self.goal!r}, "
                f"solutions={self.solutions}, "
                f"total_ms={self.total_ms():.2f})")


QueryProfile = Measurement


@contextmanager
def measuring(registry: MetricsRegistry,
              record: Measurement) -> Iterator[Measurement]:
    """Fill *record* with the wall time and *registry*'s counter delta
    across the block — the one snapshot → run → diff loop behind
    :func:`measure` and the session's profile/ANALYZE runs."""
    before = registry.snapshot()
    start = time.perf_counter()
    try:
        yield record
    finally:
        record.wall_s = time.perf_counter() - start
        record.counters = registry.diff(registry.snapshot(), before)


def measure(*counter_sources) -> ContextManager[Measurement]:
    """Collect wall time + counter deltas across a block.

    Each *counter_source* is an object with a ``counters()`` and/or
    ``io_counters()`` method (machines, pagers, loaders, sessions,
    baselines).  The sources are attached to a throw-away
    :class:`~repro.obs.registry.MetricsRegistry`, so the delta reads
    exactly like a profile's: a counter reset inside the
    block reports the work done since the reset, a gauge its level.
    """
    registry = MetricsRegistry()
    for source in counter_sources:
        registry.attach(source)
    return measuring(registry, Measurement())
