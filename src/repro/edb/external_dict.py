"""The external dictionary (paper §4, structure 2).

"A table managed by Bang to keep information about atoms and functors in
external storage.  An entry here has the string of characters making the
name of an atom or functor, its arity and a computed hash value.  The
hash value is computed by applying the hash function of the internal
dictionary, without clash resolution."

The external identifier of a functor is therefore its raw 64-bit FNV-1a
hash — stable across sessions, independent of the internal dictionary's
slot allocation.  Compiled code stored in the EDB references functors by
these identifiers; the dynamic loader resolves them back to internal
identifiers at load time.

Entries live in a BANG relation keyed by ``(hash_band, name)`` so both
hash probes (loader resolution) and name-range queries (the paper notes
"the strings of characters are used in range queries") are clustered.
A write-through cache keeps resolution cheap within a session.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bang.catalog import AttributeSpec, Catalog, RelationSchema
from ..dictionary import fnv1a
from ..errors import ExistenceError


class ExternalDictionary:
    """Functor names/arities ↔ stable external hash identifiers."""

    RELATION_NAME = "$ext_dict"

    def __init__(self, catalog: Catalog):
        existing = catalog.lookup(self.RELATION_NAME)
        if existing is not None:
            self.relation = existing
        else:
            schema = RelationSchema(
                self.RELATION_NAME,
                [
                    AttributeSpec("hash", "int"),
                    AttributeSpec("name", "atom"),
                    AttributeSpec("arity", "int"),
                ],
                key_dims=[0, 1],
            )
            self.relation = catalog.create(schema)
        self._by_hash: Dict[int, Tuple[str, int]] = {}
        self._by_functor: Dict[Tuple[str, int], int] = {}
        self.misses = 0  # cache misses that went to storage

    # ------------------------------------------------------------------ API

    def intern(self, name: str, arity: int = 0) -> int:
        """External identifier for (name, arity), storing it if new."""
        key = (name, arity)
        cached = self._by_functor.get(key)
        if cached is not None:
            return cached
        ext_id = fnv1a(name, arity)
        if not self._probe(ext_id):
            self.relation.insert((ext_id, name, arity))
            self._admit(ext_id, name, arity)
        return ext_id

    def resolve(self, ext_id: int) -> Tuple[str, int]:
        """(name, arity) for an external identifier."""
        cached = self._by_hash.get(ext_id)
        if cached is not None:
            return cached
        if self._probe(ext_id):
            return self._by_hash[ext_id]
        raise ExistenceError("external functor", hex(ext_id))

    def lookup(self, name: str, arity: int = 0) -> Optional[int]:
        key = (name, arity)
        cached = self._by_functor.get(key)
        if cached is not None:
            return cached
        ext_id = fnv1a(name, arity)
        if self._probe(ext_id):
            return ext_id
        return None

    def name_range(self, low: str, high: str) -> List[tuple]:
        """All entries whose name lies in [low, high] — the range-query
        facility the paper calls out."""
        rows: List[tuple] = []
        for batch in self.relation.range_query(1, low, high):
            rows += batch
        return rows

    def __len__(self) -> int:
        return len(self.relation)

    # ------------------------------------------------------------ internals

    def _probe(self, ext_id: int) -> bool:
        """Check storage for *ext_id*, admitting hits to the cache."""
        if ext_id in self._by_hash:
            return True
        self.misses += 1
        found = False
        for batch in self.relation.query({0: ext_id}):
            for row in batch:
                self._admit(row[0], row[1], row[2])
            found = True
        return found

    def _admit(self, ext_id: int, name: str, arity: int) -> None:
        self._by_hash[ext_id] = (name, arity)
        self._by_functor[(name, arity)] = ext_id
