"""Class taxonomy: semantic classes (thing/stuff) and part classes.

Semantic ids and part ids live in two disjoint id spaces; id 0 is
reserved for void/background in both.  Part classes point at their
parent semantic class, and ``parts_of`` enumerates them in file order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ValidationError
from .jsonio import decode, read_json

VOID_ID = 0
MAX_ID = 65535  # label maps are 16-bit


def _check_id(value: int, what: str) -> None:
    if value == VOID_ID:
        raise ValidationError(f"{what} id 0 is reserved for void")
    if value < 0 or value > MAX_ID:
        raise ValidationError(f"{what} id {value} outside [1, {MAX_ID}]")


def _by_id(classes, what: str) -> dict:
    by_id = {}
    for c in classes:
        if c.id in by_id:
            raise ValidationError(f"duplicate {what} id {c.id}")
        by_id[c.id] = c
    return by_id


@dataclass(frozen=True)
class SemanticClass:
    id: int
    name: str
    is_thing: bool

    def __post_init__(self):
        _check_id(self.id, "semantic class")


@dataclass(frozen=True)
class PartClass:
    id: int
    name: str
    parent_semantic_id: int

    def __post_init__(self):
        _check_id(self.id, "part class")


@dataclass(frozen=True)
class ClassTaxonomy:
    """Validated label vocabulary. Instances are immutable.

    Raises ValidationError on an empty semantic class list, duplicate
    ids, use of the reserved id 0 or unknown parent ids.
    """

    semantic_classes: tuple[SemanticClass, ...]
    part_classes: tuple[PartClass, ...] = ()

    @property
    def void_id(self) -> int:
        return VOID_ID

    @property
    def semantic_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.semantic_classes)

    @property
    def part_ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.part_classes)

    @property
    def thing_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.semantic_classes if c.is_thing)

    @property
    def stuff_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.semantic_classes if not c.is_thing)

    def semantic_class(self, class_id: int) -> SemanticClass:
        try:
            return self._sem_by_id[class_id]
        except KeyError:
            raise ValidationError(f"unknown semantic class id {class_id}") from None

    def part_class(self, part_id: int) -> PartClass:
        try:
            return self._part_by_id[part_id]
        except KeyError:
            raise ValidationError(f"unknown part class id {part_id}") from None

    def is_thing(self, class_id: int) -> bool:
        return self.semantic_class(class_id).is_thing

    def has_semantic(self, class_id: int) -> bool:
        return class_id in self._sem_by_id

    def has_part(self, part_id: int) -> bool:
        return part_id in self._part_by_id

    def parts_of(self, semantic_id: int) -> tuple[PartClass, ...]:
        """Parts of a semantic class, in taxonomy file order (may be empty)."""
        self.semantic_class(semantic_id)
        return self._parts_by_parent.get(semantic_id, ())

    def parent_of(self, part_id: int) -> int:
        return self.part_class(part_id).parent_semantic_id

    def __post_init__(self):
        if not self.semantic_classes:
            raise ValidationError("semantic class list is empty")
        sem_by_id = _by_id(self.semantic_classes, "semantic class")
        by_parent: dict[int, list[PartClass]] = {}
        for p in self.part_classes:
            if p.parent_semantic_id not in sem_by_id:
                raise ValidationError(
                    f"part class {p.id} references unknown parent_semantic_id "
                    f"{p.parent_semantic_id}"
                )
            by_parent.setdefault(p.parent_semantic_id, []).append(p)
        object.__setattr__(self, "_sem_by_id", sem_by_id)
        object.__setattr__(self, "_part_by_id", _by_id(self.part_classes, "part class"))
        object.__setattr__(
            self, "_parts_by_parent", {k: tuple(v) for k, v in by_parent.items()}
        )

def validate_taxonomy(raw: Mapping) -> ClassTaxonomy:
    """Build a ClassTaxonomy from a parsed taxonomy description."""
    return decode(ClassTaxonomy, raw, "taxonomy")


def load_taxonomy(path: str | Path) -> ClassTaxonomy:
    """Read and validate a JSON taxonomy file."""
    return decode(ClassTaxonomy, read_json(path, dict), f"taxonomy {path}")
