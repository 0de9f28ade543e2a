"""Independent oracles: what every answer is checked against.

None of these runs the engine under test.  The MVV oracle re-derives the
journey rules of ``repro.workloads.mvv.RULES`` as plain loops over the
generated tuples; the reachability oracle is a breadth-first search over
the edge list; Wisconsin answers have closed-form row counts.  (The
``EduceBaseline`` interpreter — a second, independent *engine* — is
consulted on a seeded sample of MVV goals at set-up, see
``wl_mvv.MvvInputs.check_against_baseline``.)
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Dict, List, Optional, Tuple


class MvvOracle:
    """Answers of ``class1/4`` and ``route/4`` as sorted term texts."""

    def __init__(self, schedule3: List[tuple], schedule2: List[tuple]):
        #: stop → [(line, direction, seq)] for every schedule3 row
        self.visits: Dict[str, List[Tuple[str, int, int]]] = {}
        #: (line, direction) → [(seq, stop)]
        self.path: Dict[Tuple[str, int], List[Tuple[int, str]]] = {}
        for row in schedule3:
            line, direction, seq, stop = row[0], row[1], row[2], row[3]
            self.visits.setdefault(stop, []).append((line, direction, seq))
            self.path.setdefault((line, direction), []).append((seq, stop))
        #: (line, direction) → sorted departure minutes
        self.departures: Dict[Tuple[str, int], List[int]] = {}
        for line, direction, hh, mm, _service in schedule2:
            self.departures.setdefault((line, direction), []).append(
                hh * 60 + mm)
        for minutes in self.departures.values():
            minutes.sort()

    def next_departure(self, line: str, direction: int,
                       t0: int) -> Optional[int]:
        minutes = self.departures.get((line, direction), ())
        i = bisect_left(minutes, t0)
        return minutes[i] if i < len(minutes) else None

    def change_points(self, a: str) -> int:
        """How many distinct stops lie after *a* on a line through it —
        where a one-change route from *a* can change."""
        return len({stop
                    for line, direction, qa in self.visits.get(a, ())
                    for seq, stop in self.path[(line, direction)]
                    if seq > qa})

    def _same_line(self, a: str, b: str):
        """(line, direction, qa, qb) with a before b on one line."""
        for line, direction, qa in self.visits.get(a, ()):
            for seq, stop in self.path[(line, direction)]:
                if stop == b and qa < seq:
                    yield line, direction, qa, seq

    def class1(self, a: str, b: str, t0: int) -> List[str]:
        out = []
        for line, direction, qa in self.visits.get(a, ()):
            for seq, stop in self.path[(line, direction)]:
                if seq == qa + 1 and stop == b:
                    dep = self.next_departure(line, direction, t0)
                    if dep is not None:
                        out.append(f"journey({line},{direction},"
                                   f"{dep},{dep + 2})")
        return sorted(out)

    def route(self, a: str, b: str, t0: int) -> List[str]:
        out = []
        for line, direction, qa, qb in self._same_line(a, b):
            dep = self.next_departure(line, direction, t0)
            if dep is not None:
                out.append(f"direct({line},{dep},{dep + (qb - qa) * 2})")
        for l1, d1, qa in self.visits.get(a, ()):
            dep1 = self.next_departure(l1, d1, t0)
            if dep1 is None:
                continue
            for qc, c in self.path[(l1, d1)]:
                if qc <= qa:
                    continue
                arr1 = dep1 + (qc - qa) * 2 + 3
                for l2, d2, qc2, qb in self._same_line(c, b):
                    if l1 == l2:
                        continue
                    dep2 = self.next_departure(l2, d2, arr1)
                    if dep2 is not None:
                        out.append(f"change({l1},{c},{l2},{dep1},"
                                   f"{dep2 + (qb - qc2) * 2})")
        return sorted(out)


class ReachOracle:
    """Descendant sets by breadth-first search; grows with the graph."""

    def __init__(self, edges: List[Tuple[str, str]]):
        self.children: Dict[str, List[str]] = {}
        for a, b in edges:
            self.children.setdefault(a, []).append(b)

    def add_edge(self, a: str, b: str) -> None:
        self.children.setdefault(a, []).append(b)

    def reach(self, source: str) -> List[str]:
        seen = set()
        queue = deque(self.children.get(source, ()))
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(self.children.get(node, ()))
        return sorted(seen)
