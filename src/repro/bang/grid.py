"""BANG-style multidimensional partition index.

Freeston's BANG file [13, 14] partitions a multidimensional key space
into nested block regions so that tuples are *clustered* by the values of
all key attributes simultaneously, giving efficient partial-match and
range retrieval on any attribute combination — which is exactly the
access pattern Educe*'s pre-unification needs (filter stored clauses by
whichever head arguments the query binds, §4).

We implement the load-bearing behaviour with a recursive binary
partition (k-d style, cyclic dimensions, median splits for balance under
skew): every leaf is one disc page.  Reads follow the split planes
inserts descend by — a key goes to one side of each plane, a query box
to every side it reaches — so a query reads exactly the leaves its box
can route a key to and tests entries only on the dimensions the box
constrains.  A node's ``region`` is split bookkeeping (which dimension
to cut next, where a cut may fall); no read consults it.  BANG's
distinctive nested ("hole-y") regions improve worst-case occupancy but
do not change the complexity class of partial-match search; DESIGN.md
records the substitution.

Keys are vectors in ``[0, 1)^k`` (numbers past ±2**128 leave it)
produced by the order-preserving transforms in :mod:`repro.bang.relation`.

A leaf page is ``(keys, records)``: the records, and their key vectors
packed into one ``bytes`` of little-endian float64, ``ndims`` per entry.
On disc the two are separate blocks of one image (:mod:`repro.bang.pager`
owns the format): a miss admits the key block and the records block
still encoded.  A read tests keys through a float view and asks the
pager to decode the records only when some key passes (or the box is
full); the decoded list goes back into the buffer frame, so a later hit
does not decode again.  A leaf of any other shape, or whose records do
not match its keys, is a typed :class:`~repro.errors.PageError`, and the
page is quarantined.

A read yields one list per leaf — the leaf's passing records, a new
list — so a consumer that stops half-way (an open cursor, an abandoned
generator) holds no frame: the buffer may evict the leaf at once, and
the payload the read already holds stays valid, because every write
replaces a leaf's pair instead of changing it.
"""

from __future__ import annotations

import struct
import sys
from itertools import compress
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import PageError
from .pager import Pager

Box = Tuple[Tuple[float, float], ...]  # query: [lo, hi]; region: [lo, hi)


class _KeyStructs(dict):
    def __missing__(self, ndims: int) -> struct.Struct:
        """The packed layout of a key vector, compiled once per arity."""
        layout = self[ndims] = struct.Struct(f"<{ndims}d")
        return layout


_KEY_STRUCTS = _KeyStructs()


def full_box(ndims: int) -> Box:
    return tuple((0.0, 1.0) for _ in range(ndims))


class _Node:
    __slots__ = ("region", "dim", "split", "left", "right", "page_id",
                 "count")

    def __init__(self, region: Box, page_id: Optional[int]):
        self.region = region
        self.dim: Optional[int] = None
        self.split: Optional[float] = None
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.page_id = page_id
        self.count = 0

    @property
    def is_leaf(self) -> bool:
        return self.page_id is not None


class BangGrid:
    """The index proper: a partition tree whose leaves are disc pages.

    Each page payload is a packed ``(keys, records)`` pair, copied on
    write: a reader keeps the pair it read while an insert installs a
    new one.  Its records may still be the encoded block a miss read;
    :meth:`_records` decodes them.
    """

    def __init__(self, ndims: int, pager: Pager, bucket_capacity: int = 50):
        if ndims < 1:
            raise ValueError("grid needs at least one dimension")
        self.ndims = ndims
        self.pager = pager
        self.bucket_capacity = bucket_capacity
        self.root = _Node(full_box(ndims), pager.allocate((b"", [])))
        self.size = 0
        self.leaf_count = 1
        self.splits = 0
        self.merges = 0

    # ----------------------------------------------------------------- write

    def insert(self, key: Sequence[float], record: Any) -> None:
        if len(key) != self.ndims:
            raise ValueError(f"key arity {len(key)} != {self.ndims}")
        leaf = self._descend(self.root, key)
        keys, records = self._leaf(leaf.page_id)
        keys += _KEY_STRUCTS[self.ndims].pack(*key)
        records = records + [record]
        if len(records) > self.bucket_capacity:
            columns = list(zip(*_KEY_STRUCTS[self.ndims].iter_unpack(keys)))
            parts = {leaf: range(len(records))}
            self.size -= leaf.count
            self._split(parts, leaf, columns)
            self._write(parts, columns, records)
        else:
            self.pager.put(leaf.page_id, (keys, records))
            leaf.count = len(records)
            self.size += 1

    def insert_many(self, columns: Sequence[Sequence[float]],
                    records: Sequence[Any]) -> None:
        """Fill a new grid with ``records[i]`` under the key ``(columns[0]
        [i], ...)``, one column per dimension, as :meth:`insert` would one
        by one — but each leaf page is written once, at the end."""
        if self.size or not self.root.is_leaf:
            raise ValueError("a bulk insert fills a new grid")
        parts: Dict[_Node, list] = {self.root: []}
        for i in range(len(records)):
            node = self._descend(self.root, [column[i] for column in columns])
            parts[node].append(i)
            self._split(parts, node, columns)
        self._write(parts, columns, records)

    def load(self, columns: Sequence[Sequence[float]],
             records: Sequence[Any]) -> None:
        """:meth:`insert_many`, but divided by medians whatever the order."""
        if self.size or not self.root.is_leaf:
            raise ValueError("a bulk insert fills a new grid")
        parts, todo = {self.root: range(len(records))}, [self.root]
        while todo:
            node = todo.pop()
            if self._split(parts, node, columns):
                todo += (node.right, node.left)
        self._write(parts, columns, records)

    def _split(self, parts: dict, node: _Node,
               columns: Sequence[Sequence[float]]) -> bool:
        """The split rule, of an insert and a load alike: split leaf
        *node*, whose rows are ``parts[node]``, if they overfill a bucket
        — at the median on the cyclic next dimension (BANG balance
        approximation), else on another that separates them; duplicate
        keys stay an oversized bucket.  The left child keeps the page."""
        rows = parts[node]
        if len(rows) <= self.bucket_capacity:
            return False
        depth = self._region_depth(node.region)
        for attempt in range(self.ndims):
            dim = (depth + attempt) % self.ndims
            column = columns[dim]
            split = sorted([column[i] for i in rows])[len(rows) // 2]
            lo, hi = node.region[dim]
            if lo < split < hi:
                left = [i for i in rows if column[i] < split]
                if 0 < len(left) < len(rows):
                    break
        else:
            return False
        node.left = _Node(_replace_dim(node.region, dim, (lo, split)),
                          node.page_id)
        node.right = _Node(_replace_dim(node.region, dim, (split, hi)), None)
        node.dim, node.split, node.page_id = dim, split, None
        self.leaf_count += 1
        self.splits += 1
        del parts[node]
        parts[node.left] = left
        parts[node.right] = [i for i in rows if column[i] >= split]
        return True

    def _write(self, parts: dict, columns: Sequence[Sequence[float]],
               records: Sequence[Any]) -> None:
        """Write each leaf of *parts* once, the one that kept a page first."""
        pack = _KEY_STRUCTS[self.ndims].pack
        for node, rows in sorted(parts.items(),
                                 key=lambda part: part[0].page_id is None):
            page = (b"".join(pack(*[column[i] for column in columns])
                             for i in rows), [records[i] for i in rows])
            if node.page_id is None:
                node.page_id = self.pager.allocate(page)
            else:
                self.pager.put(node.page_id, page)
            node.count = len(rows)
            self.size += len(rows)

    def free_pages(self) -> None:
        """Release every leaf page (the grid is being replaced)."""
        for leaf in self._leaves((full_box(self.ndims),)):
            self.pager.free(leaf.page_id)

    def delete(self, key: Sequence[float], match) -> int:
        """Delete entries under *key* for which ``match(record)``; returns
        the number removed.  Every ``compact_every`` deletions, underfull
        sibling leaves are merged and their pages freed (dynamic-file
        space reclamation, the analogue of the dictionary's "space should
        not be wasted" principle)."""
        leaf = self._descend(self.root, key)
        entries = self._entries(*self._leaf(leaf.page_id))
        kept = [(k, r) for (k, r) in entries
                if not (k == tuple(key) and match(r))]
        removed = len(entries) - len(kept)
        if removed:
            pack = _KEY_STRUCTS[self.ndims].pack
            self.pager.put(leaf.page_id, (b"".join(pack(*k) for k, _ in kept),
                                          [r for _, r in kept]))
            leaf.count = len(kept)
            self.size -= removed
            self._deletes_since_compact += removed
            if self._deletes_since_compact >= self.compact_every:
                self.compact()
        return removed

    # ------------------------------------------------------------ compaction

    compact_every = 256
    _deletes_since_compact = 0

    def compact(self) -> int:
        """Merge sibling leaves whose combined occupancy fits one bucket
        and splice out empty leaves; freed pages are released back to the
        pager.  Runs to a fixpoint.  Returns the number of merges."""
        total = 0
        while True:
            merges = self._compact_node(self.root)
            if merges == 0:
                break
            total += merges
        self.merges += total
        self.leaf_count -= total
        self._deletes_since_compact = 0
        return total

    def _compact_node(self, node: _Node) -> int:
        if node.is_leaf:
            return 0
        merges = self._compact_node(node.left)   # type: ignore[arg-type]
        merges += self._compact_node(node.right)  # type: ignore[arg-type]
        left, right = node.left, node.right
        assert left is not None and right is not None
        if (left.is_leaf and right.is_leaf
                and left.count + right.count <= self.bucket_capacity):
            # Merge two underfull sibling leaves into one bucket.
            left_keys, left_records = self._leaf(left.page_id)
            right_keys, right_records = self._leaf(right.page_id)
            records = left_records + right_records
            self.pager.put(left.page_id, (left_keys + right_keys, records))
            self.pager.free(right.page_id)
            left.count = len(records)
            self._adopt(node, left)
            return merges + 1
        for empty, survivor in ((left, right), (right, left)):
            if empty.is_leaf and empty.count == 0:
                # Splice out an empty leaf: the node adopts the surviving
                # child's split planes, so keys from the empty side now
                # descend into the survivor's subtree — reads follow the
                # same planes and find them there.
                self.pager.free(empty.page_id)
                self._adopt(node, survivor)
                return merges + 1
        return merges

    @staticmethod
    def _adopt(node: _Node, child: _Node) -> None:
        """*node* takes *child*'s place: its page, or its split and
        subtree, whose regions widen to the node's own."""
        node.page_id = child.page_id
        node.count = child.count
        node.dim = child.dim
        node.split = child.split
        node.left = child.left
        node.right = child.right
        stack = [node]
        while stack:
            parent = stack.pop()
            if parent.is_leaf:
                continue
            dim, split = parent.dim, parent.split
            lo, hi = parent.region[dim]
            parent.left.region = _replace_dim(parent.region, dim, (lo, split))
            parent.right.region = _replace_dim(parent.region, dim,
                                               (split, hi))
            stack += (parent.left, parent.right)

    def _descend(self, node: _Node, key: Sequence[float]) -> _Node:
        while node.left is not None:    # a bulk insert's leaf has no page
            if key[node.dim] < node.split:  # type: ignore[index,operator]
                node = node.left  # type: ignore[assignment]
            else:
                node = node.right  # type: ignore[assignment]
        return node

    # ----------------------------------------------------------------- pages

    def _page(self, page_id: int, page: Any) -> Tuple[bytes, Any]:
        """*page* checked against the packed layout (a damaged one is
        quarantined): keys, and the record list or its encoded block;
        ``None``, a page never written, is an empty leaf."""
        if page is None:
            return b"", []
        step = 8 * self.ndims
        if (type(page) is tuple and len(page) == 2
                and type(page[0]) is bytes and not len(page[0]) % step
                and (type(page[1]) is bytes or (
                    type(page[1]) is list
                    and len(page[0]) == step * len(page[1])))):
            return page
        raise self.pager.quarantine(
            page_id, f"not a {self.ndims}-d leaf (keys, records) pair")

    def _records(self, page_id: int, keys: bytes, records: Any) -> list:
        """The record list of a checked leaf, decoding its block if a
        miss left it encoded; one record per key vector."""
        if type(records) is list:
            return records
        records = self.pager.decode(page_id, records)
        if len(keys) != 8 * self.ndims * len(records):
            raise self.pager.quarantine(
                page_id, f"records block of {len(records)} records "
                f"beside {len(keys) // (8 * self.ndims)} key vectors")
        return records

    def _leaf(self, page_id: int) -> Tuple[bytes, list]:
        """``(keys, records)`` of a leaf, decoded (the write paths)."""
        keys, records = self._page(page_id, self.pager.get(page_id))
        return keys, self._records(page_id, keys, records)

    def _entries(self, keys: bytes, records: list) -> List[tuple]:
        """The ``(key_vector, record)`` entries of a leaf (rare paths)."""
        return list(zip(_KEY_STRUCTS[self.ndims].iter_unpack(keys), records))

    @staticmethod
    def _region_depth(region: Box) -> int:
        """How many halvings produced this region (for cyclic dims).

        Median splits are not halvings, so this does not split the
        dimensions evenly.  Textbook depth cycling (each child tries
        ``(dim + 1) % ndims`` first) does, but on rows inserted in key
        order it scatters the first key: of 500 ``(i, i*7 % 100)`` rows
        at bucket capacity 8, a first-key point probe reads 44 leaves
        instead of 1 (a second-key probe 7 instead of all 124).
        A derived layout puts the bindable position with the most
        distinct values first, so the first key wins and this rule
        stays."""
        depth = 0
        for lo, hi in region:
            width = hi - lo
            while width < 0.999999:
                depth += 1
                width *= 2
        return depth

    # ------------------------------------------------------------------ read

    def _leaves(self, boxes: Sequence[Box]) -> Iterator[_Node]:
        """The leaves the boxes reach by the split planes, each once, box
        by box in scan order: left of a plane when ``lo < split``, right
        when ``hi >= split`` (the side a key equal to the split descends
        to)."""
        seen = set()
        for box in boxes:
            stack = [self.root]
            while stack:
                node = stack.pop()
                if node.page_id is not None:
                    if node.page_id not in seen:
                        seen.add(node.page_id)
                        yield node
                    continue
                lo, hi = box[node.dim]  # type: ignore[index]
                if lo < node.split:  # type: ignore[operator]
                    stack.append(node.left)   # type: ignore[arg-type]
                if hi >= node.split:  # type: ignore[operator]
                    stack.append(node.right)  # type: ignore[arg-type]

    def query(self, *boxes: Box) -> Iterator[list]:
        """Yield, leaf by leaf, the list of records whose key lies inside
        any of *boxes* (closed intervals; point dims use ``lo == hi``);
        a leaf with none yields nothing.  Every leaf a box reaches is
        read once: entries are tested on the dimensions a box
        constrains, the records block is decoded only when a key passes
        (the decoded payload goes back to the buffer as a memo), and a
        full box takes every record without reading keys."""
        tests = [[(d, lo, hi) for d, (lo, hi) in enumerate(box)
                  if (lo, hi) != (0.0, 1.0)] for box in boxes]
        full = not all(tests)
        if not full and sys.byteorder != "little":  # the cast reads native
            raise PageError("little-endian page keys, big host")
        pager = self.pager
        for leaf in self._leaves(boxes):
            page_id = leaf.page_id
            page = pager.get(page_id)
            keys, records = self._page(page_id, page)
            passed = None if full else self._passed(keys, tests)
            if passed is None or True in passed:
                decoded = self._records(page_id, keys, records)
                if decoded is not records:
                    pager.buffer.memo(page_id, page, (keys, decoded))
                batch = (list(decoded) if passed is None
                         else list(compress(decoded, passed)))
                if batch:
                    yield batch

    def _passed(self, keys: bytes, tests: List[list]) -> List[bool]:
        """Per entry, whether its key passes any box's tests."""
        ndims = self.ndims
        flat = memoryview(keys).cast("d")
        if len(tests) > 1:      # the value and var bands of terms
            return [any(all(lo <= flat[i * ndims + d] <= hi
                            for d, lo, hi in bounds) for bounds in tests)
                    for i in range(len(flat) // ndims)]
        (d, lo, hi), *rest = tests[0]
        passed = [lo <= value <= hi for value in flat[d::ndims]]
        for d, lo, hi in rest:
            passed = [ok and lo <= value <= hi
                      for ok, value in zip(passed, flat[d::ndims])]
        return passed

    def scan(self) -> Iterator[list]:
        """Full scan in leaf order (clustered), one list per leaf."""
        return self.query(full_box(self.ndims))

    def leaves_for(self, *boxes: Box) -> int:
        """Number of leaves — pages — a query for *boxes* reads (planner
        aid)."""
        return sum(1 for _ in self._leaves(boxes))

    def stats(self) -> dict:
        return {
            "size": self.size,
            "leaves": self.leaf_count,
            "splits": self.splits,
            "merges": self.merges,
            "bucket_capacity": self.bucket_capacity,
        }


def _replace_dim(region: Box, dim: int, bounds: Tuple[float, float]) -> Box:
    return tuple(
        bounds if i == dim else r for i, r in enumerate(region)
    )
