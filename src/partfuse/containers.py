"""Label and logit containers shared by fusion, metrics and labelling.

A LabelTriple carries the three per-pixel label maps (semantic class,
instance id, part class) as 16-bit grids; a LogitStack carries the raw
per-pixel class scores plus per-instance mask proposals that fusion
consumes.  Containers are immutable after construction.
A triple is checked from its histogram of segment keys and the part ids
it uses (``check_labels``), which ``LabelTriple.validate`` collects in
one walk and ``derive_segments`` splits into segments.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ValidationError
from .taxonomy import MAX_ID, VOID_ID, ClassTaxonomy

LABEL_DTYPE = np.uint16

# fusion and eval work on row tiles of about this many pixels (16 rows
# of a 1024-wide frame), so no stage builds a full-frame float64 tensor
# with a channel axis or a full-frame key array; see tile_rows
TILE_PIXELS = 2**14


def tile_rows(width: int) -> int:
    """Rows of one tile in a frame ``width`` pixels wide."""
    return max(1, TILE_PIXELS // max(width, 1))


def row_tiles(shape: tuple[int, int]) -> list[slice]:
    """The row slices of a frame's tiles, top to bottom; a frame without
    rows has one empty tile."""
    height, width = shape
    step = tile_rows(width)
    return [slice(top, min(top + step, height)) for top in range(0, max(height, 1), step)]


def read_rows(tensor, rows: slice, channel: int | None = None) -> np.ndarray:
    """``tensor[..., rows, :]``, or ``tensor[channel, rows, :]``: a view of
    an in-memory array, or a new array read from a formats file handle."""
    if isinstance(tensor, np.ndarray):
        return tensor[..., rows, :] if channel is None else tensor[channel, rows, :]
    return tensor.read(rows, channel)


def merge_histograms(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys`` and the summed ``counts`` of each: the
    per-tile histograms of one quantity, concatenated, merged into one."""
    keys, where = np.unique(keys, return_inverse=True)
    return keys, np.bincount(where, weights=counts).astype(np.int64)


def _freeze(arr):
    if isinstance(arr, np.ndarray):  # a formats file handle has no write path
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabelTriple:
    """Per-pixel (semantic, instance, part) label maps of one image, each
    a uint16 array or a formats.open_pgm16 handle, read through read_rows."""

    semantic_map: np.ndarray
    instance_map: np.ndarray
    part_map: np.ndarray

    def __post_init__(self):
        shapes = {m.shape for m in self.maps}
        if len(shapes) != 1 or self.semantic_map.ndim != 2:
            raise ValidationError(f"label maps must share one 2-D shape, got {shapes}")
        for name, m in zip(("semantic", "instance", "part"), self.maps):
            if m.dtype != LABEL_DTYPE:
                raise ValidationError(f"{name} map must be uint16, got {m.dtype}")
            _freeze(m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.semantic_map.shape

    @property
    def maps(self) -> tuple:
        return self.semantic_map, self.instance_map, self.part_map

    def validate(self, taxonomy: ClassTaxonomy) -> tuple[np.ndarray, np.ndarray]:
        """Check domain invariants on loaded data (not assumed by readers)
        with ``check_labels`` and return the triple's histogram of
        ``segment_keys``: the sorted distinct keys and each one's pixel
        count, merged once from the histograms of its row tiles."""
        part_seen = np.zeros(MAX_ID + 1, dtype=bool)
        tiles = []
        for rows in row_tiles(self.shape):
            sem, inst = read_rows(self.semantic_map, rows), read_rows(self.instance_map, rows)
            tiles.append(np.unique(segment_keys(sem, inst), return_counts=True))
            part_seen[read_rows(self.part_map, rows)] = True
        keys, counts = merge_histograms(*map(np.concatenate, zip(*tiles)))
        check_labels(keys, part_seen, taxonomy)
        return keys, counts

    @staticmethod
    def from_arrays(semantic, instance, part) -> "LabelTriple":
        """A triple of the three maps as uint16; an id outside 0..65535
        raises ValidationError instead of wrapping."""
        return LabelTriple(*(
            _label_map(values, name)
            for name, values in zip(("semantic", "instance", "part"), (semantic, instance, part))
        ))


def _label_map(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    # uint16 input holds only valid ids, so fusion and the flips skip the scan
    if arr.dtype != LABEL_DTYPE and arr.size and (arr.min() < 0 or arr.max() > MAX_ID):
        raise ValidationError(f"{name} map ids must be in 0..{MAX_ID}")
    return np.ascontiguousarray(arr, dtype=LABEL_DTYPE)


@dataclass(frozen=True)
class InstanceProposal:
    """A candidate instance: thing class, confidence, full-frame mask logits
    (an array, or a formats.read_tensor handle, open or closed).

    Fusion checks the mask for non-finite values as it reads it."""

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
        _freeze(self.mask_logits)


@dataclass(frozen=True)
class LogitStack:
    """Per-pixel semantic and part logits plus instance mask proposals.

    ``semantic_channel_ids`` / ``part_channel_ids`` give the explicit
    channel-index -> class-id mapping for the two logit tensors, each an
    array or a formats.read_tensor handle.  The logits are not scanned
    here: fusion checks them for non-finite values tile by tile as it
    reads them.
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
        _freeze(self.semantic_logits)
        _freeze(self.part_logits)
        for p in self.instance_proposals:
            if p.mask_logits.shape != (h, w):
                raise ValidationError("proposal mask dimensions disagree with stack")
        object.__setattr__(
            self, "instance_proposals", tuple(self.instance_proposals)
        )

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
        check_proposal_classes(self.instance_proposals, taxonomy)


def check_proposal_classes(proposals, taxonomy: ClassTaxonomy) -> None:
    """Raise ValidationError naming the first proposal whose class is not
    a thing class of ``taxonomy``."""
    for p in proposals:
        if not taxonomy.has_semantic(p.class_id) or not taxonomy.is_thing(p.class_id):
            raise ValidationError(f"proposal class {p.class_id} is not a thing class")


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


def segment_keys(semantic: np.ndarray, instance: np.ndarray) -> np.ndarray:
    """Per-pixel segment key ``(class_id << 16) | instance_id`` of a tile
    of the semantic and instance maps, as a flat uint32 array; void pixels
    carry key 0 in a valid triple, which has no instance on void."""
    keys = semantic.ravel().astype(np.uint32)
    keys <<= np.uint32(16)
    keys |= instance.ravel()
    return keys


def check_labels(keys: np.ndarray, part_seen: np.ndarray, taxonomy: ClassTaxonomy) -> None:
    """Check a triple from its sorted distinct ``segment_keys`` and a bool
    array that marks the part ids present.

    Raises ValidationError if a map uses ids missing from the taxonomy
    (the smallest is named), if instance ids appear outside thing-class
    pixels, void included, or if an instance id spans two semantic
    classes (the smallest such id is named), checked in that order.
    """
    # sets, not a bare np.unique, which loads numpy.ma (about 1 MB) on NumPy 2.4
    classes, instances = keys >> 16, keys & 0xFFFF
    for sid in sorted(set(classes.tolist()) - {VOID_ID}):
        if not taxonomy.has_semantic(sid):
            raise ValidationError(f"semantic map uses unknown class id {sid}")
    for pid in np.flatnonzero(part_seen).tolist():
        if pid != VOID_ID and not taxonomy.has_part(pid):
            raise ValidationError(f"part map uses unknown part id {pid}")
    owned = instances != 0
    if not all(c != VOID_ID and taxonomy.is_thing(c) for c in set(classes[owned].tolist())):
        raise ValidationError("instance ids present on non-thing pixels")
    # the keys are distinct, so an id listed twice has two classes
    ids, counts = np.unique(instances[owned], return_counts=True)
    if (counts > 1).any():
        raise ValidationError(
            f"instance id {int(ids[counts > 1][0])} spans more than one semantic class")


def segments_from_counts(keys: np.ndarray, counts: np.ndarray) -> list[PanopticSegment]:
    """The panoptic segments of a checked ``segment_keys`` histogram,
    ordered by (class, instance); key 0 (void) makes none."""
    return [PanopticSegment(key >> 16, key & 0xFFFF, count)
            for key, count in zip(keys.tolist(), counts.tolist()) if key != 0]


def derive_segments(triple: LabelTriple, taxonomy: ClassTaxonomy) -> list[PanopticSegment]:
    """Split a triple into panoptic segments, ordered by (class, instance),
    from the histogram ``triple.validate`` checks and returns; an invalid
    triple raises its ValidationError.

    One segment per distinct (class_id, instance_id) pair with a non-void
    class.  Stuff segments are per class (instance 0), never split by
    connectivity.  The segments partition the non-void pixels.
    """
    return segments_from_counts(*triple.validate(taxonomy))
