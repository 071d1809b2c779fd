"""Class taxonomy: semantic classes (thing/stuff) and part classes.

Semantic ids and part ids live in two disjoint id spaces; id 0 is
reserved for void/background in both.  Part classes point at their
parent semantic class, and ``parts_of`` enumerates them in file order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ValidationError

VOID_ID = 0
MAX_ID = 65535  # label maps are 16-bit


@dataclass(frozen=True)
class SemanticClass:
    id: int
    name: str
    is_thing: bool


@dataclass(frozen=True)
class PartClass:
    id: int
    name: str
    parent_semantic_id: int


@dataclass(frozen=True)
class ClassTaxonomy:
    """Validated label vocabulary. Instances are immutable."""

    semantic_classes: tuple[SemanticClass, ...]
    part_classes: tuple[PartClass, ...]
    _parts_by_parent: Mapping[int, tuple[PartClass, ...]] = field(
        repr=False, compare=False, default_factory=dict
    )

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
        object.__setattr__(
            self, "_sem_by_id", {c.id: c for c in self.semantic_classes}
        )
        object.__setattr__(
            self, "_part_by_id", {p.id: p for p in self.part_classes}
        )
        by_parent: dict[int, list[PartClass]] = {}
        for p in self.part_classes:
            by_parent.setdefault(p.parent_semantic_id, []).append(p)
        object.__setattr__(
            self,
            "_parts_by_parent",
            {k: tuple(v) for k, v in by_parent.items()},
        )


def validate_taxonomy(raw: Mapping) -> ClassTaxonomy:
    """Build a ClassTaxonomy from a parsed taxonomy description.

    Raises ValidationError on duplicate ids, use of the reserved id 0,
    unknown parent ids, or an empty semantic class list.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError("taxonomy description must be a JSON object")
    sem_raw = raw.get("semantic_classes")
    part_raw = raw.get("part_classes", [])
    if not isinstance(sem_raw, Sequence) or isinstance(sem_raw, (str, bytes)):
        raise ValidationError("taxonomy is missing a semantic_classes array")
    if not sem_raw:
        raise ValidationError("semantic class list is empty")

    semantics: list[SemanticClass] = []
    seen_sem: set[int] = set()
    for entry in sem_raw:
        cid = _require_id(entry, "id", "semantic class")
        if cid in seen_sem:
            raise ValidationError(f"duplicate semantic class id {cid}")
        seen_sem.add(cid)
        semantics.append(
            SemanticClass(
                id=cid,
                name=str(entry["name"]),
                is_thing=bool(entry["is_thing"]),
            )
        )

    parts: list[PartClass] = []
    seen_part: set[int] = set()
    for entry in part_raw:
        pid = _require_id(entry, "id", "part class")
        if pid in seen_part:
            raise ValidationError(f"duplicate part class id {pid}")
        seen_part.add(pid)
        parent = entry.get("parent_semantic_id")
        if parent not in seen_sem:
            raise ValidationError(
                f"part class {pid} references unknown parent_semantic_id {parent}"
            )
        parts.append(
            PartClass(id=pid, name=str(entry["name"]), parent_semantic_id=parent)
        )

    return ClassTaxonomy(tuple(semantics), tuple(parts))


def load_taxonomy(path: str | Path) -> ClassTaxonomy:
    """Read and validate a JSON taxonomy file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"taxonomy file is not valid JSON: {exc}") from exc
    return validate_taxonomy(raw)


def _require_id(entry: Mapping, key: str, what: str) -> int:
    try:
        value = entry[key]
    except (KeyError, TypeError):
        raise ValidationError(f"{what} entry is missing '{key}'") from None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} {key} must be an integer, got {value!r}")
    if value == VOID_ID:
        raise ValidationError(f"{what} id 0 is reserved for void")
    if value < 0 or value > MAX_ID:
        raise ValidationError(f"{what} id {value} outside [1, {MAX_ID}]")
    return value
