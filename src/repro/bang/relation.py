"""Typed relations over the BANG grid.

Each relation is one :class:`~repro.bang.grid.BangGrid` whose dimensions
are the relation's key attributes; a tuple's key vector is computed by
*order-preserving* transforms into ``[0, 1)`` so that both exact and
range partial-match queries cluster (§2.2: indices make the relation
look like "a sequential file" on the probed attributes).

Reads yield one list per grid leaf — the leaf's matching tuples — as
the grid does: a leaf, not a row, crosses each layer above it, and a
leaf with no match yields nothing.

``term`` attributes implement the paper's §3.2.2/§4 scheme — *indexing
on type and value*:

* the dimension is split into type bands (int / real / atom / list /
  structure / var);
* within a band, the value's order-preserving fraction (integers, atom
  names) or functor hash (structures) positions the key;
* clause head arguments that are **variables** occupy their own band,
  and every bound query adds the var band to its search region — a
  variable head argument matches any query value.

Stored values at the Python level: ``int``, ``float``, ``str`` (atoms),
and for ``term`` columns a tagged tuple such as ``('atom', 'foo')``,
``('int', 3)``, ``('struct', 'f', 2)``, ``('list',)`` or ``('var',)``.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..dictionary import fnv1a
from ..errors import CatalogError, TypeError_
from .catalog import RelationSchema
from .grid import BangGrid, Box
from .pager import Pager

# Type bands for `term` dimensions: [band/NBANDS, (band+1)/NBANDS).
_BANDS = {"int": 0, "real": 1, "atom": 2, "list": 3, "struct": 4, "var": 5}
_NBANDS = 6
_EPS = 1e-9


def squash_number(x: float) -> float:
    """Strictly monotonic map of any real to (0, 1) (past ±2**128, out).

    Log-scaled so that values of every magnitude (small domain keys and
    64-bit hash identifiers alike) keep usable spread; the grid's median
    splits adapt to whatever distribution results and reads follow them,
    so only monotonicity matters for correctness.
    """
    x = float(x)
    magnitude = math.log2(1.0 + abs(x)) / 256.0
    if x < 0:
        return 0.5 - magnitude
    return 0.5 + magnitude


def string_fraction(text: str) -> float:
    """Non-strictly monotonic map of a string to [0, 1): a float64 of
    its first 7 UTF-8 bytes, which keeps only about 6-7 of them.
    Strings that share that prefix share a key — MVV's 1 924
    ``stop_NNNN`` names land on 8 keys — and the post-filter tells
    them apart."""
    data = text.encode("utf-8")[:7]
    value = 0.0
    scale = 1.0
    for byte in data:
        scale /= 256.0
        value += byte * scale
    return min(value, 1.0 - _EPS)


def functor_fraction(name: str, arity: int) -> float:
    """Hash-based fraction for structure functors (exact match only)."""
    return (fnv1a(name, arity) % (1 << 30)) / float(1 << 30)


def _band_value(band: str, frac: float) -> float:
    base = _BANDS[band] / _NBANDS
    return base + max(0.0, min(frac, 1.0 - _EPS)) / _NBANDS


def _band_range(band: str) -> Tuple[float, float]:
    lo = _BANDS[band] / _NBANDS
    return (lo, lo + 1.0 / _NBANDS - _EPS)


#: Every stored value is checked against its attribute's type, key or
#: not: a value of these classes encodes, any other one is encoded to
#: see.  Outside the key a ``term`` is a payload (a clause reference).
_ENCODES = {"int": int, "real": (int, float), "atom": (str, int, float),
            "tagged": (str, int, float), "term": object}


def encode_value(attr_type: str, value: Any) -> float:
    """Key fraction of a stored attribute value."""
    if attr_type == "int":
        if not isinstance(value, int):
            raise TypeError_("integer", value)
        return squash_number(value)
    if attr_type == "real":
        return squash_number(float(value))
    if attr_type in ("atom", "tagged"):
        if isinstance(value, str):
            return string_fraction(value)
        if isinstance(value, (int, float)):
            # tagged numeric values share the numeric transform
            return squash_number(float(value))
        raise TypeError_(attr_type, value)
    # term column: tagged tuples
    if not isinstance(value, tuple) or not value:
        raise TypeError_("term summary", value)
    kind = value[0]
    if kind == "int":
        return _band_value("int", squash_number(value[1]))
    if kind == "real":
        return _band_value("real", squash_number(value[1]))
    if kind == "atom":
        return _band_value("atom", string_fraction(value[1]))
    if kind == "list":
        return _band_value("list", 0.5)
    if kind == "struct":
        return _band_value("struct", functor_fraction(value[1], value[2]))
    if kind == "var":
        return _band_value("var", 0.5)
    raise TypeError_("term summary", value)


class BangRelation:
    """A stored relation with clustered multidimensional access."""

    def __init__(self, schema: RelationSchema, pager: Pager,
                 bucket_capacity: int = 50):
        self.schema = schema
        self.key_dims = schema.keys()
        if not self.key_dims:
            raise CatalogError(f"{schema.name}: empty key")
        self.grid = BangGrid(len(self.key_dims), pager, bucket_capacity)
        self._types = [a.type for a in schema.attributes]
        self._classes = [_ENCODES[t] for t in self._types]

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def arity(self) -> int:
        return self.schema.arity

    def __len__(self) -> int:
        return self.grid.size

    # ----------------------------------------------------------------- write

    def insert(self, values: Sequence[Any]) -> None:
        if len(values) != self.arity:
            raise CatalogError(
                f"{self.name}: arity {self.arity}, got {len(values)}")
        self.grid.insert(self._key_of(values), tuple(values))

    def insert_many(self, rows) -> int:
        """Fill the new relation with *rows* (:meth:`BangGrid.insert_many`)."""
        rows, columns = self._columns(rows, self.key_dims)
        self.grid.insert_many(columns, rows)
        return len(rows)

    def load(self, rows) -> int:
        """Fill the new relation in one pass (:meth:`BangGrid.load`)."""
        rows, columns = self._columns(rows, self.key_dims)
        self.grid.load(columns, rows)
        return len(rows)

    def _columns(self, rows, key_dims: Sequence[int]
                 ) -> Tuple[List[tuple], List[array]]:
        """*rows* as tuples, and their key column per dim of *key_dims*;
        every value is checked as :data:`_ENCODES` says."""
        rows = [tuple(row) for row in rows]
        if any(len(row) != self.arity for row in rows):
            raise CatalogError(f"{self.name}: a row not of arity {self.arity}")
        columns: Dict[int, array] = {}
        for attr, attr_type in enumerate(self._types):
            if attr in key_dims:
                columns[attr] = array("d", [encode_value(attr_type, row[attr])
                                            for row in rows])
            elif not all(map(isinstance, map(itemgetter(attr), rows),
                             repeat(self._classes[attr]))):
                for row in rows:
                    encode_value(attr_type, row[attr])
        return rows, [columns[d] for d in key_dims]

    def recluster(self, key_dims: Sequence[int],
                  rows: Sequence[tuple]) -> int:
        """Move *rows*, all it holds, to a grid keyed on *key_dims*; the
        old grid stays in place until the new one is built."""
        rows, columns = self._columns(rows, key_dims)
        grid = BangGrid(len(key_dims), self.grid.pager,
                        self.grid.bucket_capacity)
        grid.load(columns, rows)
        self.grid.free_pages()
        self.grid = grid
        self.key_dims = self.schema.key_dims = list(key_dims)
        return len(rows)

    def delete(self, values: Sequence[Any]) -> int:
        """Delete exact tuples equal to *values*."""
        target = tuple(values)
        return self.grid.delete(self._key_of(values),
                                lambda rec: rec == target)

    def delete_where(self, assignment: Dict[int, Any]) -> int:
        """Delete every tuple matching the partial assignment."""
        victims: List[tuple] = []
        for batch in self.query(assignment):
            victims += batch
        removed = 0
        for row in victims:
            removed += self.delete(row)
        return removed

    def _key_of(self, values: Sequence[Any]) -> List[float]:
        """The key of *values*, each value checked as :data:`_ENCODES`
        says."""
        if not all(map(isinstance, values, self._classes)):
            for attr_type, value in zip(self._types, values):
                if attr_type != "term":
                    encode_value(attr_type, value)
        return [encode_value(self._types[d], values[d]) for d in self.key_dims]

    # ------------------------------------------------------------------ read

    def scan(self) -> Iterator[List[tuple]]:
        return self.grid.scan()

    def query(self, assignment: Dict[int, Any]) -> Iterator[List[tuple]]:
        """Exact partial-match: ``{attr_index: value}``, one list per
        leaf.

        ``term`` dimensions automatically include the var band (a stored
        variable head argument matches any query value).  Results are
        post-filtered so callers get exact matches only.
        """
        keep = self._exact(assignment)
        for batch in self.grid.query(*self._boxes_for(assignment)):
            batch = keep(batch)
            if batch:
                yield batch

    def _exact(self, assignment: Dict[int, Any]
               ) -> Callable[[List[tuple]], List[tuple]]:
        """A batch filter to the rows :meth:`row_matches` accepts: the
        grid's key test is not exact (string keys keep a prefix)."""
        if not assignment:
            return lambda batch: batch
        if any(self._types[attr] == "term" for attr in assignment):
            matches = self.row_matches
            return lambda batch: [row for row in batch
                                  if matches(row, assignment)]
        get = itemgetter(*assignment)
        want = get(assignment)
        return lambda batch: [row for row in batch if get(row) == want]

    def row_matches(self, row: tuple, assignment: Dict[int, Any]) -> bool:
        """Does *row* satisfy the exact partial-match *assignment*?"""
        for idx, want in assignment.items():
            have = row[idx]
            if self._types[idx] == "term":
                if isinstance(have, tuple) and have and have[0] == "var":
                    continue
            if have != want:
                return False
        return True

    def range_query(self, attr: int, low: Any, high: Any,
                    extra: Optional[Dict[int, Any]] = None
                    ) -> Iterator[List[tuple]]:
        """Tuples with ``low <= row[attr] <= high`` (plus exact *extra*),
        one list per leaf.

        Only meaningful on ``int``/``real``/``atom`` attributes, whose key
        transforms preserve order."""
        attr_type = self._types[attr]
        if attr_type == "term":
            raise TypeError_("orderable attribute", self.schema.name)
        extra = extra or {}
        ranges: Dict[int, Tuple[float, float]] = {
            attr: (encode_value(attr_type, low),
                   encode_value(attr_type, high))
        }
        keep = self._exact(extra)
        for batch in self.grid.query(*self._boxes_for(extra, ranges)):
            batch = keep([row for row in batch if low <= row[attr] <= high])
            if batch:
                yield batch

    def type_query(self, attr: int, band: str,
                   extra: Optional[Dict[int, Any]] = None
                   ) -> Iterator[List[tuple]]:
        """Tuples whose ``term`` attribute has the given type band — the
        paper's "indexing over the type of the term" (§3.2.2) — one list
        per leaf."""
        if self._types[attr] != "term":
            raise TypeError_("term attribute", self.schema.name)
        if band not in _BANDS:
            raise TypeError_("type band", band)
        extra = extra or {}
        ranges = {attr: _band_range(band)}
        keep = self._exact(extra)
        for batch in self.grid.query(*self._boxes_for(extra, ranges)):
            batch = keep([row for row in batch
                          if isinstance(row[attr], tuple) and row[attr]
                          and row[attr][0] == band])
            if batch:
                yield batch

    # ------------------------------------------------------------- planning

    def pages_for(self, assignment: Dict[int, Any]) -> int:
        return self.grid.leaves_for(*self._boxes_for(assignment))

    def _boxes_for(self, assignment: Dict[int, Any],
                   ranges: Optional[Dict[int, Tuple[float, float]]] = None
                   ) -> List[Box]:
        """Search boxes for a partial match.  Bound ``term`` dimensions
        double the box count (value band + var band), capped at 8
        disjoint boxes — further term dims stay unconstrained and rely
        on the post-filter.  The grid reads each leaf they reach once."""
        ranges = ranges or {}
        dims: List[List[Tuple[float, float]]] = []
        boxes = 1
        for pos, attr in enumerate(self.key_dims):
            if attr in ranges:
                dims.append([ranges[attr]])
                continue
            if attr not in assignment:
                dims.append([(0.0, 1.0)])
                continue
            value = assignment[attr]
            frac = encode_value(self._types[attr], value)
            point = (frac, frac)
            if self._types[attr] == "term" and boxes < 8:
                dims.append([point, _band_range("var")])
                boxes *= 2
            elif self._types[attr] == "term":
                dims.append([(0.0, 1.0)])
            else:
                dims.append([point])

        out: List[Box] = [()]
        for options in dims:
            out = [box + (opt,) for box in out for opt in options]
        return out
