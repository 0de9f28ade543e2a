"""Segmented closed-hash dictionary for atoms and functors (paper §3.3.1).

Each *segment* is a fixed-capacity closed (open-addressing) hash table.
A functor's unique identifier is ``segment_index * capacity + slot`` — a
"concatenation of the segment number and the index", exactly as the paper
describes.  Once allocated, an identifier never moves: compiled code in
the EDB embeds these identifiers, so relocation would invalidate stored
code (principle 4).

Growth policy (from the paper):

* a fresh dictionary has one segment;
* when **all** live segments exceed the high-water mark (default 70 %),
  a new segment is allocated and chained;
* the segment with the lowest occupancy is the **hot segment**; all new
  insertions go there, gradually balancing occupancy and keeping probe
  chains short;
* deleted slots become tombstones that are reused by later insertions
  (garbage collection without relocation, principles 3+4);
* a segment whose live occupancy drops to zero is reclaimed wholesale
  (its storage freed, the segment index kept reserved).

Lookups must probe every live segment because an entry may have been
inserted while any segment was hot; segments are probed hot-first since
recent entries are the most likely targets.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

from ..errors import ResourceError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a(name: str, arity: int = 0) -> int:
    """Deterministic 64-bit FNV-1a hash of (name, arity).

    Stable across runs and platforms — required because the *external*
    dictionary stores these hash values on disk (§4) and pre-unification
    compares them against freshly computed ones.
    """
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    h = ((h ^ (arity & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((arity >> 8) & 0xFF)) * _FNV_PRIME) & _MASK64
    return h


@dataclass
class DictionaryStats:
    """Operation counters, used by the dictionary benchmarks."""

    lookups: int = 0
    insertions: int = 0
    deletions: int = 0
    probes: int = 0
    collisions: int = 0
    segments_allocated: int = 0
    segments_reclaimed: int = 0

    def snapshot(self) -> dict:
        return {
            "lookups": self.lookups,
            "insertions": self.insertions,
            "deletions": self.deletions,
            "probes": self.probes,
            "collisions": self.collisions,
            "segments_allocated": self.segments_allocated,
            "segments_reclaimed": self.segments_reclaimed,
        }


_EMPTY = None
_TOMBSTONE = ("<deleted>", -1, 0)


class _Segment:
    """One closed-hash segment with linear probing."""

    __slots__ = ("capacity", "slots", "live", "tombstones")

    def __init__(self, capacity: int):
        self.capacity = capacity
        # slot := None | _TOMBSTONE | (name, arity, hash)
        self.slots: List[Optional[Tuple[str, int, int]]] = [_EMPTY] * capacity
        self.live = 0
        self.tombstones = 0

    def copy(self) -> "_Segment":
        clone = copy.copy(self)
        clone.slots = self.slots[:]
        return clone

    @property
    def occupancy(self) -> float:
        return self.live / self.capacity

    def find(self, name: str, arity: int, h: int, stats: DictionaryStats
             ) -> Optional[int]:
        """Slot index of (name, arity) in this segment, or None."""
        cap = self.capacity
        idx = h % cap
        for step in range(cap):
            slot = self.slots[idx]
            stats.probes += 1
            if slot is _EMPTY:
                return None
            if slot is not _TOMBSTONE and slot[0] == name and slot[1] == arity:
                return idx
            idx = (idx + 1) % cap
        return None

    def insert(self, name: str, arity: int, h: int, stats: DictionaryStats
               ) -> Optional[int]:
        """Insert, reusing tombstones; return the slot or None if full."""
        cap = self.capacity
        idx = h % cap
        first_tombstone = -1
        for step in range(cap):
            slot = self.slots[idx]
            stats.probes += 1
            if slot is _EMPTY:
                target = first_tombstone if first_tombstone >= 0 else idx
                if step > 0 or first_tombstone >= 0:
                    stats.collisions += 1
                self._fill(target, (name, arity, h))
                return target
            if slot is _TOMBSTONE and first_tombstone < 0:
                first_tombstone = idx
            idx = (idx + 1) % cap
        if first_tombstone >= 0:
            stats.collisions += 1
            self._fill(first_tombstone, (name, arity, h))
            return first_tombstone
        return None

    def _fill(self, idx: int, entry: Tuple[str, int, int]) -> None:
        if self.slots[idx] is _TOMBSTONE:
            self.tombstones -= 1
        self.slots[idx] = entry
        self.live += 1

    def delete(self, idx: int) -> None:
        self.slots[idx] = _TOMBSTONE
        self.live -= 1
        self.tombstones += 1


class SegmentedDictionary:
    """The internal dictionary: interning, lookup, deletion, reclamation.

    Identifiers returned by :meth:`intern` are dense non-negative ints
    suitable for embedding in WAM code.
    """

    def __init__(self, segment_capacity: int = 32000,
                 high_water: float = 0.70):
        if segment_capacity < 8:
            raise ResourceError("segment capacity too small")
        self.segment_capacity = segment_capacity
        self.high_water = high_water
        self.stats = DictionaryStats()
        self._segments: List[Optional[_Segment]] = [_Segment(segment_capacity)]
        self.stats.segments_allocated = 1

    def copy(self) -> "SegmentedDictionary":
        """An independent dictionary holding the same identifiers: each
        segment's slot list is copied, so interning into or deleting
        from either never reaches the other."""
        clone = copy.copy(self)
        clone.stats = replace(self.stats)
        clone._segments = [None if seg is None else seg.copy()
                           for seg in self._segments]
        return clone

    # ------------------------------------------------------------- interning

    def intern(self, name: str, arity: int = 0) -> int:
        """Return the stable unique identifier for (name, arity),
        inserting it if absent."""
        h = fnv1a(name, arity)
        found = self._find(name, arity, h)
        if found is not None:
            return found
        return self._insert(name, arity, h)

    def lookup(self, name: str, arity: int = 0) -> Optional[int]:
        """Identifier for (name, arity) if present, else None."""
        return self._find(name, arity, fnv1a(name, arity))

    def _find(self, name: str, arity: int, h: int) -> Optional[int]:
        self.stats.lookups += 1
        # Probe hot-first: recently inserted entries live in low-occupancy
        # segments, and lookups of fresh functors dominate compilation.
        for seg_index in self._probe_order():
            seg = self._segments[seg_index]
            assert seg is not None
            slot = seg.find(name, arity, h, self.stats)
            if slot is not None:
                return seg_index * self.segment_capacity + slot
        return None

    def _probe_order(self) -> List[int]:
        live = [
            (seg.occupancy, i)
            for i, seg in enumerate(self._segments)
            if seg is not None
        ]
        live.sort()
        return [i for _, i in live]

    def _insert(self, name: str, arity: int, h: int) -> int:
        self.stats.insertions += 1
        seg_index = self._hot_segment()
        seg = self._segments[seg_index]
        assert seg is not None
        slot = seg.insert(name, arity, h, self.stats)
        if slot is None:  # hot segment unexpectedly full: force growth
            seg_index = self._allocate_segment()
            seg = self._segments[seg_index]
            assert seg is not None
            slot = seg.insert(name, arity, h, self.stats)
            if slot is None:
                raise ResourceError("dictionary segment overflow")
        return seg_index * self.segment_capacity + slot

    def _hot_segment(self) -> int:
        """Lowest-occupancy live segment; allocate when all are past the
        high-water mark."""
        best: Optional[int] = None
        best_occ = 2.0
        all_high = True
        for i, seg in enumerate(self._segments):
            if seg is None:
                continue
            occ = seg.occupancy
            if occ < best_occ:
                best_occ = occ
                best = i
            if occ < self.high_water:
                all_high = False
        if best is None or all_high:
            return self._allocate_segment()
        return best

    def _allocate_segment(self) -> int:
        # Reuse a reclaimed segment index if one exists so identifiers stay
        # small; otherwise chain a new segment.
        for i, seg in enumerate(self._segments):
            if seg is None:
                self._segments[i] = _Segment(self.segment_capacity)
                self.stats.segments_allocated += 1
                return i
        self._segments.append(_Segment(self.segment_capacity))
        self.stats.segments_allocated += 1
        return len(self._segments) - 1

    # ------------------------------------------------------------- accessors

    def _locate(self, ident: int) -> Tuple[_Segment, int]:
        seg_index, slot = divmod(ident, self.segment_capacity)
        if not 0 <= seg_index < len(self._segments):
            raise ResourceError(f"dictionary identifier {ident} out of range")
        seg = self._segments[seg_index]
        if seg is None or seg.slots[slot] in (_EMPTY, _TOMBSTONE):
            raise ResourceError(f"dictionary identifier {ident} is dead")
        return seg, slot

    def name(self, ident: int) -> str:
        seg, slot = self._locate(ident)
        return seg.slots[slot][0]  # type: ignore[index]

    def arity(self, ident: int) -> int:
        seg, slot = self._locate(ident)
        return seg.slots[slot][1]  # type: ignore[index]

    def functor(self, ident: int) -> Tuple[str, int]:
        seg, slot = self._locate(ident)
        entry = seg.slots[slot]
        return (entry[0], entry[1])  # type: ignore[index]

    def hash_of(self, ident: int) -> int:
        seg, slot = self._locate(ident)
        return seg.slots[slot][2]  # type: ignore[index]

    def is_live(self, ident: int) -> bool:
        try:
            self._locate(ident)
            return True
        except ResourceError:
            return False

    # -------------------------------------------------------------- deletion

    def delete(self, ident: int) -> None:
        """Tombstone an entry; its slot becomes reusable but other
        identifiers are untouched (principles 3+4)."""
        seg, slot = self._locate(ident)
        seg.delete(slot)
        self.stats.deletions += 1
        if seg.live == 0:
            self._reclaim_empty_segments()

    def _reclaim_empty_segments(self) -> None:
        # Never reclaim the last remaining segment.
        live_count = sum(1 for s in self._segments if s is not None)
        for i, seg in enumerate(self._segments):
            if seg is not None and seg.live == 0 and live_count > 1:
                self._segments[i] = None
                live_count -= 1
                self.stats.segments_reclaimed += 1

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return sum(seg.live for seg in self._segments if seg is not None)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return self.lookup(key[0], key[1]) is not None

    def entries(self) -> Iterator[Tuple[int, str, int]]:
        """Yield (identifier, name, arity) for every live entry."""
        for seg_index, seg in enumerate(self._segments):
            if seg is None:
                continue
            base = seg_index * self.segment_capacity
            for slot, entry in enumerate(seg.slots):
                if entry is not _EMPTY and entry is not _TOMBSTONE:
                    yield (base + slot, entry[0], entry[1])

    def segment_occupancies(self) -> List[float]:
        """Occupancy per live segment (reclaimed ones reported as 0.0)."""
        return [
            seg.occupancy if seg is not None else 0.0
            for seg in self._segments
        ]

    @property
    def segment_count(self) -> int:
        return sum(1 for seg in self._segments if seg is not None)
