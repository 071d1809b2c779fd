"""Training-label generation from blue-/black-background image pairs.

A reference segmentation is computed once per scene from two captures of
the same static arrangement: the blue background separates the object
outline, the black background recovers the object's own colours for part
thresholding.  The resulting reference labels transfer unchanged to any
number of further captures of the same scene (random monitor
backgrounds), and ``composite_synthetic`` splices object pixels over a
background image to fabricate such captures for tests and augmentation.

Scenes must contain non-overlapping objects: instance ids come from
connected components of the object mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .containers import LabelTriple
from .errors import ValidationError
from .imaging import (
    BitMask,
    HsvRange,
    Image,
    connected_components,
    fill_holes,
    morphological_close,
    quantize_colors,
    threshold_hsv,
)
from .autolabel_rgbd import PartColorRule, ordered_part_rules
from .jsonio import decode
from .taxonomy import ClassTaxonomy


@dataclass(frozen=True)
class MonitorLabelConfig:
    object_class_id: int
    background_class_id: int = 0
    closing_window: int = 5
    quantize_levels: int = 8
    blue_range: HsvRange = field(
        default_factory=lambda: HsvRange(h_min=200.0, h_max=260.0, s_min=0.35, v_min=0.2)
    )
    black_range: HsvRange = field(default_factory=lambda: HsvRange(v_max=0.2))
    part_rules: tuple[PartColorRule, ...] = ()
    catchall_part_id: int = 0
    min_component_area: int = 100

    def __post_init__(self):
        if self.closing_window < 1 or self.closing_window % 2 == 0:
            raise ValidationError("closing_window must be odd and >= 1")
        if self.min_component_area <= 0:
            raise ValidationError("min_component_area must be positive")
        object.__setattr__(self, "part_rules", tuple(self.part_rules))


@dataclass(frozen=True)
class ReferenceLabel:
    """Scene reference: object mask, per-part masks, instance grid."""

    object_mask: BitMask
    part_masks: dict[int, BitMask]  # part id -> mask, rule order then catch-all
    instance_grid: np.ndarray  # (H, W) uint16
    object_class_id: int
    background_class_id: int

    def __post_init__(self):
        obj = self.object_mask.bits
        if self.instance_grid.shape != obj.shape:
            raise ValidationError("instance grid dimensions disagree with mask")
        covered = np.zeros_like(obj)
        for part_id, mask in self.part_masks.items():
            if mask.bits.shape != obj.shape:
                raise ValidationError(f"part mask {part_id} dimension mismatch")
            if (mask.bits & ~obj).any():
                raise ValidationError(f"part mask {part_id} leaks outside the object")
            if (mask.bits & covered).any():
                raise ValidationError("part masks overlap")
            covered |= mask.bits
        self.instance_grid.setflags(write=False)

    @property
    def height(self) -> int:
        return self.object_mask.height

    @property
    def width(self) -> int:
        return self.object_mask.width

    def triple(self) -> LabelTriple:
        obj = self.object_mask.bits
        sem = np.where(obj, self.object_class_id, self.background_class_id)
        part = np.zeros(obj.shape, dtype=np.uint16)
        for part_id, mask in self.part_masks.items():
            part[mask.bits] = part_id
        return LabelTriple.from_arrays(sem, self.instance_grid, part)


def _not_in_range(image: Image, config: MonitorLabelConfig, rng: HsvRange) -> BitMask:
    closed = morphological_close(image, config.closing_window)
    quantized = quantize_colors(closed, config.quantize_levels)
    return BitMask(~threshold_hsv(quantized, rng).bits)


def extract_reference_mask(
    img_blue: Image, img_black: Image, config: MonitorLabelConfig
) -> BitMask:
    """Object mask from the blue/black capture pair.

    The blue capture yields a hole-filled candidate outline; the black
    capture, masked to the candidate, strips residual background and
    small debris below ``min_component_area``.
    """
    if img_blue.pixels.shape != img_black.pixels.shape:
        raise ValidationError("blue and black captures differ in size")
    if img_blue.channels != 3:
        raise ValidationError("reference extraction needs 3-channel captures")

    candidates = _not_in_range(img_blue, config, config.blue_range)
    blue_mask = fill_holes(candidates)

    masked_black = Image(
        np.where(blue_mask.bits[..., None], img_black.pixels, 0).astype(np.uint8)
    )
    survivors = _not_in_range(masked_black, config, config.black_range)
    survivors = BitMask(survivors.bits & blue_mask.bits)
    filled = fill_holes(survivors)

    labels, sizes = connected_components(filled)
    keep = np.nonzero(sizes[1:] >= config.min_component_area)[0] + 1
    result = np.isin(labels, keep)
    if not result.any():
        raise ValidationError("no object contour found in the capture pair")
    return BitMask(result)


def extract_part_masks(
    img_blue: Image,
    img_black: Image,
    object_mask: BitMask,
    config: MonitorLabelConfig,
    taxonomy: ClassTaxonomy | None = None,
) -> ReferenceLabel:
    """Split the object mask into part masks and an instance grid.

    Part rules threshold the processed (closed + quantized) black capture
    inside the object mask, higher priority first; leftover object pixels
    take the catch-all part.  Instances are the connected components of
    the object mask.
    """
    if img_black.pixels.shape[:2] != object_mask.bits.shape:
        raise ValidationError("object mask dimensions disagree with captures")
    rules = ordered_part_rules(config.part_rules, taxonomy, config.catchall_part_id)
    masked_black = Image(
        np.where(object_mask.bits[..., None], img_black.pixels, 0).astype(np.uint8)
    )
    processed = quantize_colors(
        morphological_close(masked_black, config.closing_window),
        config.quantize_levels,
    )

    remaining = object_mask.bits.copy()
    part_masks: dict[int, BitMask] = {}
    for rule in rules:
        hit = threshold_hsv(processed, rule.hsv_range).bits & remaining
        prior = part_masks.get(rule.part_id)
        if prior is not None:
            hit = hit | prior.bits
        part_masks[rule.part_id] = BitMask(hit)
        remaining &= ~hit
    if config.catchall_part_id:
        prior = part_masks.get(config.catchall_part_id)
        leftover = remaining | (prior.bits if prior is not None else False)
        part_masks[config.catchall_part_id] = BitMask(leftover)

    labels, _ = connected_components(object_mask)
    return ReferenceLabel(
        object_mask=object_mask,
        part_masks=part_masks,
        instance_grid=labels.astype(np.uint16),
        object_class_id=config.object_class_id,
        background_class_id=config.background_class_id,
    )


def transfer_labels(
    reference: ReferenceLabel, target: Image, taxonomy: ClassTaxonomy
) -> tuple[Image, LabelTriple]:
    """Attach the scene's reference labels to another capture of it."""
    if (target.height, target.width) != (reference.height, reference.width):
        raise ValidationError("target dimensions disagree with the reference")
    taxonomy.semantic_class(reference.object_class_id)
    if reference.background_class_id:
        taxonomy.semantic_class(reference.background_class_id)
    return target, reference.triple()


def composite_synthetic(
    object_image: Image, reference: ReferenceLabel, background: Image
) -> tuple[Image, LabelTriple]:
    """Splice object pixels over a background image; labels follow the
    reference exactly."""
    if object_image.pixels.shape != background.pixels.shape:
        raise ValidationError("object and background images differ in shape")
    if (object_image.height, object_image.width) != (
        reference.height,
        reference.width,
    ):
        raise ValidationError("reference dimensions disagree with the images")
    mask = reference.object_mask.bits
    if object_image.channels == 3:
        sel = mask[..., None]
    else:
        sel = mask
    out = np.where(sel, object_image.pixels, background.pixels).astype(np.uint8)
    return Image(out), reference.triple()


_FLIP_SUFFIXES = ("_id", "_rot180", "_vflip", "_hflip")


def augment_flips(
    image: Image, triple: LabelTriple
) -> list[tuple[str, Image, LabelTriple]]:
    """The four flip variants: identity, 180-degree rotation, vertical
    flip, horizontal flip; labels transform exactly like pixels."""
    if (image.height, image.width) != triple.shape:
        raise ValidationError("image and label dimensions disagree")

    def xform(op) -> tuple[Image, LabelTriple]:
        return (
            Image(np.ascontiguousarray(op(image.pixels))),
            LabelTriple.from_arrays(
                op(triple.semantic_map), op(triple.instance_map), op(triple.part_map)
            ),
        )

    variants = [
        xform(lambda a: a),
        xform(lambda a: a[::-1, ::-1]),
        xform(lambda a: a[::-1, :]),
        xform(lambda a: a[:, ::-1]),
    ]
    return [
        (suffix, img, trip)
        for suffix, (img, trip) in zip(_FLIP_SUFFIXES, variants)
    ]


def load_monitor_config(raw: dict) -> MonitorLabelConfig:
    """Build a MonitorLabelConfig from a config file's parsed JSON object."""
    return decode(MonitorLabelConfig, raw, "monitor config")
