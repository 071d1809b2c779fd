"""Label and logit containers shared by fusion, metrics and labelling.

A LabelTriple carries the three per-pixel label maps (semantic class,
instance id, part class) as 16-bit grids; a LogitStack carries the raw
per-pixel class scores plus per-instance mask proposals that fusion
consumes.  Containers are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ValidationError
from .taxonomy import ClassTaxonomy, VOID_ID

LABEL_DTYPE = np.uint16


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabelTriple:
    """Per-pixel (semantic, instance, part) label maps of one image."""

    semantic_map: np.ndarray
    instance_map: np.ndarray
    part_map: np.ndarray

    def __post_init__(self):
        maps = (self.semantic_map, self.instance_map, self.part_map)
        shapes = {m.shape for m in maps}
        if len(shapes) != 1 or maps[0].ndim != 2:
            raise ValidationError(f"label maps must share one 2-D shape, got {shapes}")
        for name, m in zip(("semantic", "instance", "part"), maps):
            if m.dtype != LABEL_DTYPE:
                raise ValidationError(f"{name} map must be uint16, got {m.dtype}")
            _freeze(m)

    @property
    def height(self) -> int:
        return self.semantic_map.shape[0]

    @property
    def width(self) -> int:
        return self.semantic_map.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.semantic_map.shape

    def validate(self, taxonomy: ClassTaxonomy) -> None:
        """Check domain invariants on loaded data (not assumed by readers).

        Raises ValidationError if instance ids appear outside thing-class
        pixels, if one instance id spans two semantic classes, or if a map
        uses ids missing from the taxonomy.
        """
        sem_ids = np.flatnonzero(np.bincount(self.semantic_map.ravel()))
        for sid in sem_ids:
            if sid != VOID_ID and not taxonomy.has_semantic(int(sid)):
                raise ValidationError(f"semantic map uses unknown class id {sid}")
        part_ids = np.flatnonzero(np.bincount(self.part_map.ravel()))
        for pid in part_ids:
            if pid != VOID_ID and not taxonomy.has_part(int(pid)):
                raise ValidationError(f"part map uses unknown part id {pid}")

        inst = self.instance_map
        sem = self.semantic_map
        nonzero = inst != 0
        if nonzero.any():
            thing_lut = np.zeros(int(sem_ids[-1]) + 1, dtype=bool)
            for sid in sem_ids:
                if sid != VOID_ID and taxonomy.is_thing(int(sid)):
                    thing_lut[sid] = True
            inst_ids, classes = inst[nonzero], sem[nonzero]
            if not thing_lut[classes].all():
                raise ValidationError(
                    "instance ids present on non-thing pixels"
                )
            # one semantic class per instance id: every pixel must carry
            # the class that one of its instance's pixels was seen with
            seen = np.zeros(int(inst_ids.max()) + 1, dtype=LABEL_DTYPE)
            seen[inst_ids] = classes
            spanning = inst_ids[seen[inst_ids] != classes]
            if spanning.size:
                raise ValidationError(
                    f"instance id {int(spanning.min())} spans more than one semantic class"
                )

    @staticmethod
    def from_arrays(semantic, instance, part) -> "LabelTriple":
        return LabelTriple(
            np.ascontiguousarray(semantic, dtype=LABEL_DTYPE),
            np.ascontiguousarray(instance, dtype=LABEL_DTYPE),
            np.ascontiguousarray(part, dtype=LABEL_DTYPE),
        )


@dataclass(frozen=True)
class InstanceProposal:
    """A candidate instance: thing class, confidence, full-frame mask logits."""

    class_id: int
    confidence: float
    mask_logits: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(
                f"proposal confidence {self.confidence} outside [0, 1]"
            )
        if self.mask_logits.ndim != 2:
            raise ValidationError("proposal mask logits must be a 2-D tensor")
        if not np.isfinite(self.mask_logits).all():
            raise ValidationError("proposal mask logits contain non-finite values")
        _freeze(self.mask_logits)


@dataclass(frozen=True)
class LogitStack:
    """Per-pixel semantic and part logits plus instance mask proposals.

    ``semantic_channel_ids`` / ``part_channel_ids`` give the explicit
    channel-index -> class-id mapping for the two logit tensors.
    """

    semantic_logits: np.ndarray  # [C_sem, H, W]
    part_logits: np.ndarray  # [C_part, H, W]
    semantic_channel_ids: tuple[int, ...]
    part_channel_ids: tuple[int, ...]
    instance_proposals: tuple[InstanceProposal, ...] = ()

    def __post_init__(self):
        if self.semantic_logits.ndim != 3 or self.part_logits.ndim != 3:
            raise ValidationError("logit tensors must have shape [C, H, W]")
        h, w = self.semantic_logits.shape[1:]
        if self.part_logits.shape[1:] != (h, w):
            raise ValidationError("semantic and part logits disagree on H, W")
        if len(self.semantic_channel_ids) != self.semantic_logits.shape[0]:
            raise ValidationError("semantic channel mapping length mismatch")
        if len(self.part_channel_ids) != self.part_logits.shape[0]:
            raise ValidationError("part channel mapping length mismatch")
        if len(set(self.semantic_channel_ids)) != len(self.semantic_channel_ids):
            raise ValidationError("duplicate semantic channel ids")
        if len(set(self.part_channel_ids)) != len(self.part_channel_ids):
            raise ValidationError("duplicate part channel ids")
        for t in (self.semantic_logits, self.part_logits):
            if not np.isfinite(t).all():
                raise ValidationError("logit tensor contains non-finite values")
            _freeze(t)
        for p in self.instance_proposals:
            if p.mask_logits.shape != (h, w):
                raise ValidationError("proposal mask dimensions disagree with stack")
        object.__setattr__(
            self, "instance_proposals", tuple(self.instance_proposals)
        )

    @property
    def height(self) -> int:
        return self.semantic_logits.shape[1]

    @property
    def width(self) -> int:
        return self.semantic_logits.shape[2]

    def validate(self, taxonomy: ClassTaxonomy) -> None:
        """Check the stack against a taxonomy: complete channel coverage of
        both id spaces and thing-class proposals only."""
        if sorted(self.semantic_channel_ids) != sorted(taxonomy.semantic_ids):
            raise ValidationError(
                "semantic channels do not cover the taxonomy's semantic classes"
            )
        if sorted(self.part_channel_ids) != sorted(taxonomy.part_ids):
            raise ValidationError(
                "part channels do not cover the taxonomy's part classes"
            )
        for p in self.instance_proposals:
            if not taxonomy.has_semantic(p.class_id) or not taxonomy.is_thing(
                p.class_id
            ):
                raise ValidationError(
                    f"proposal class {p.class_id} is not a thing class"
                )

    def semantic_channel(self, class_id: int) -> int:
        try:
            return self.semantic_channel_ids.index(class_id)
        except ValueError:
            raise ValidationError(
                f"no semantic channel for class id {class_id}"
            ) from None

    def part_channel(self, part_id: int) -> int:
        try:
            return self.part_channel_ids.index(part_id)
        except ValueError:
            raise ValidationError(f"no part channel for part id {part_id}") from None


@dataclass(frozen=True)
class PanopticSegment:
    """One (class, instance) region of a label triple; stuff has instance 0."""

    class_id: int
    instance_id: int
    pixel_count: int

    def __post_init__(self):
        if self.pixel_count <= 0:
            raise ValidationError("segment pixel_count must be positive")

    @property
    def key(self) -> int:
        """The segment's key in ``segment_keys``."""
        return (self.class_id << 16) | self.instance_id


def segment_keys(triple: LabelTriple) -> np.ndarray:
    """Per-pixel segment key ``(class_id << 16) | instance_id`` as a flat
    uint32 array; void pixels carry key 0 whatever their instance bits."""
    sem = triple.semantic_map.ravel().astype(np.uint32)
    keys = sem << np.uint32(16)
    keys |= triple.instance_map.ravel()
    keys[sem == VOID_ID] = 0
    return keys


def derive_segments(
    triple: LabelTriple, taxonomy: ClassTaxonomy, keys: np.ndarray | None = None
) -> list[PanopticSegment]:
    """Split a triple into panoptic segments, ordered by (class, instance).

    One segment per distinct (class_id, instance_id) pair with a non-void
    class.  Stuff segments are per class (instance 0), never split by
    connectivity.  The segments partition the non-void pixels.  ``keys``
    is the triple's ``segment_keys`` when the caller already has them.
    """
    keys = segment_keys(triple) if keys is None else keys
    keys, counts = np.unique(keys, return_counts=True)
    segments: list[PanopticSegment] = []
    for key, count in zip(keys.tolist(), counts.tolist()):
        if key == 0:
            continue
        taxonomy.semantic_class(key >> 16)
        segments.append(PanopticSegment(key >> 16, key & 0xFFFF, count))
    return segments
