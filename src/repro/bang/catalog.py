"""Schema catalog for BANG relations.

Relational systems implement type checking "by means of a separate
catalog ... which at run time is used to interpret the data values
brought from disc" (§2.2).  The catalog holds every relation's schema
(attribute names and formats) plus the live :class:`BangRelation`
handles; attribute formats follow §4: ``integer``, ``real``, ``atom``,
``tagged`` and ``term`` (lists/structures/clause references).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import CatalogError
from .pager import Pager

VALID_TYPES = ("int", "real", "atom", "tagged", "term")


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute: name + storage format."""

    name: str
    type: str = "term"

    def __post_init__(self):
        if self.type not in VALID_TYPES:
            raise CatalogError(f"unknown attribute type {self.type!r}")


@dataclass
class RelationSchema:
    """A relation's schema: name, attributes, key dimensions."""

    name: str
    attributes: List[AttributeSpec]
    key_dims: Optional[List[int]] = None  # default: every attribute

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def keys(self) -> List[int]:
        if self.key_dims is None:
            return list(range(self.arity))
        return list(self.key_dims)


class Catalog:
    """All relations known to one EDB instance."""

    def __init__(self, pager: Pager, bucket_capacity: int = 50):
        self.pager = pager
        self.bucket_capacity = bucket_capacity
        self._relations: Dict[str, "BangRelation"] = {}

    def create(self, schema: RelationSchema,
               bucket_capacity: Optional[int] = None) -> "BangRelation":
        from .relation import BangRelation  # late import: cycle
        if schema.name in self._relations:
            raise CatalogError(f"relation {schema.name!r} already exists")
        relation = BangRelation(
            schema, self.pager,
            bucket_capacity or self.bucket_capacity)
        self._relations[schema.name] = relation
        return relation

    def create_simple(self, name: str, attr_specs: Sequence[tuple]
                      ) -> "BangRelation":
        """Shorthand: ``create_simple('r', [('a', 'int'), ('b', 'atom')])``."""
        schema = RelationSchema(
            name, [AttributeSpec(n, t) for n, t in attr_specs])
        return self.create(schema)

    def get(self, name: str) -> "BangRelation":
        relation = self._relations.get(name)
        if relation is None:
            raise CatalogError(f"no relation {name!r}")
        return relation

    def lookup(self, name: str) -> Optional["BangRelation"]:
        return self._relations.get(name)

    def drop(self, name: str) -> None:
        if name not in self._relations:
            raise CatalogError(f"no relation {name!r}")
        del self._relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> List[str]:
        return sorted(self._relations)
