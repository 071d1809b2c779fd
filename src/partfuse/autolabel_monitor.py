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
from functools import cached_property

import numpy as np

from .containers import LABEL_DTYPE, LabelTriple
from .errors import ValidationError
from . import imaging
from .imaging import HsvRange
from .autolabel_rgbd import PartColorRule, rule_part_ids
from .jsonio import decode


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
        if not 1 <= self.quantize_levels <= 256:
            raise ValidationError("quantize_levels must be in [1, 256]")
        if self.min_component_area <= 0:
            raise ValidationError("min_component_area must be positive")
        object.__setattr__(self, "part_rules", tuple(self.part_rules))


@dataclass(frozen=True)
class ReferenceLabel:
    """Scene reference: object mask, part grid, instance grid."""

    object_mask: np.ndarray  # (H, W) bool
    part_grid: np.ndarray  # (H, W) uint16, 0 outside the object
    instance_grid: np.ndarray  # (H, W) uint16
    object_class_id: int
    background_class_id: int

    def __post_init__(self):
        obj = self.object_mask
        if self.part_grid.shape != obj.shape or self.instance_grid.shape != obj.shape:
            raise ValidationError("part or instance grid dimensions disagree with mask")
        if self.part_grid[~obj].any():
            raise ValidationError("part grid leaks outside the object")
        obj.setflags(write=False)
        self.part_grid.setflags(write=False)
        self.instance_grid.setflags(write=False)

    @cached_property
    def triple(self) -> LabelTriple:
        """The scene's labels, built on first use; every sample shares them."""
        sem = np.where(self.object_mask, self.object_class_id, self.background_class_id)
        return LabelTriple.from_arrays(sem, self.instance_grid, self.part_grid)


def _not_in_range(image: np.ndarray, config: MonitorLabelConfig, rng: HsvRange) -> np.ndarray:
    closed = imaging.morphological_close(image, config.closing_window)
    quantized = imaging.quantize_colors(closed, config.quantize_levels)
    return ~imaging.threshold_hsv(quantized, rng)


def extract_reference_mask(
    img_blue: np.ndarray, img_black: np.ndarray, config: MonitorLabelConfig
) -> np.ndarray:
    """Object mask from the blue/black capture pair.

    The blue capture yields a hole-filled candidate outline; the black
    capture, masked to the candidate, strips residual background and
    small debris below ``min_component_area``.
    """
    if img_blue.shape != img_black.shape:
        raise ValidationError("blue and black captures differ in size")
    if img_blue.ndim != 3:
        raise ValidationError("reference extraction needs 3-channel captures")

    candidates = _not_in_range(img_blue, config, config.blue_range)
    blue_mask = imaging.fill_holes(candidates)

    masked_black = np.where(blue_mask[..., None], img_black, np.uint8(0))
    survivors = _not_in_range(masked_black, config, config.black_range) & blue_mask
    filled = imaging.fill_holes(survivors)

    labels, sizes = imaging.connected_components(filled)
    keep = np.nonzero(sizes[1:] >= config.min_component_area)[0] + 1
    result = np.isin(labels, keep)
    if not result.any():
        raise ValidationError("no object contour found in the capture pair")
    return result


def extract_part_masks(
    img_black: np.ndarray, object_mask: np.ndarray, config: MonitorLabelConfig
) -> ReferenceLabel:
    """Give the object's pixels part ids and an instance grid.

    Each object pixel of the processed (closed + quantized) black capture
    takes the part id of the first rule, by descending priority, whose
    range holds its colour; the others take the catch-all part.  Instances
    are the connected components of the object mask, and more than
    65,535 of them raise ValidationError.
    """
    if img_black.shape[:2] != object_mask.shape:
        raise ValidationError("object mask dimensions disagree with captures")
    masked_black = np.where(object_mask[..., None], img_black, np.uint8(0))
    processed = imaging.quantize_colors(
        imaging.morphological_close(masked_black, config.closing_window),
        config.quantize_levels,
    )
    part_grid = np.zeros(object_mask.shape, dtype=np.uint16)
    part_grid[object_mask] = rule_part_ids(
        processed[object_mask], config.part_rules, config.catchall_part_id
    )

    labels, sizes = imaging.connected_components(object_mask)
    if sizes.size - 1 > np.iinfo(LABEL_DTYPE).max:  # components are numbered 1..N
        raise ValidationError("label ids must fit in 16 bits")
    return ReferenceLabel(
        object_mask=object_mask,
        part_grid=part_grid,
        instance_grid=labels.astype(LABEL_DTYPE),
        object_class_id=config.object_class_id,
        background_class_id=config.background_class_id,
    )


def transfer_labels(
    reference: ReferenceLabel, target: np.ndarray
) -> tuple[np.ndarray, LabelTriple]:
    """Attach the scene's reference labels to another capture of it."""
    if target.shape[:2] != reference.object_mask.shape:
        raise ValidationError("target dimensions disagree with the reference")
    return target, reference.triple


def composite_synthetic(
    object_image: np.ndarray, reference: ReferenceLabel, background: np.ndarray
) -> tuple[np.ndarray, LabelTriple]:
    """Splice object pixels over a background image; labels follow the
    reference exactly."""
    if object_image.shape != background.shape:
        raise ValidationError("object and background images differ in shape")
    if object_image.shape[:2] != reference.object_mask.shape:
        raise ValidationError("reference dimensions disagree with the images")
    mask = reference.object_mask
    sel = mask[..., None] if object_image.ndim == 3 else mask
    return np.where(sel, object_image, background), reference.triple


_FLIP_SUFFIXES = ("_id", "_rot180", "_vflip", "_hflip")


def augment_flips(
    image: np.ndarray, triple: LabelTriple
) -> list[tuple[str, np.ndarray, LabelTriple]]:
    """The four flip variants: identity, 180-degree rotation, vertical
    flip, horizontal flip; labels transform exactly like pixels.  The
    images and label maps are views of ``image`` and ``triple``'s maps,
    which the writers copy once, as they swap the byte order."""
    if image.shape[:2] != triple.shape:
        raise ValidationError("image and label dimensions disagree")

    def xform(op) -> tuple[np.ndarray, LabelTriple]:
        return (
            op(image),
            LabelTriple(*map(op, triple.maps)),
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


_PROVENANCE_PARAMS = ("closing_window", "quantize_levels", "min_component_area")


def provenance_record(
    scene: str, seed: int, reference: ReferenceLabel, samples: list[str],
    config: MonitorLabelConfig,
) -> dict:
    """What ``label monitor`` records beside a scene's samples."""
    return {
        "variant": "monitor",
        "scene": scene,
        "seed": seed,
        "instances": int(reference.instance_grid.max()),
        "object_pixels": int(reference.object_mask.sum()),
        "samples": samples,
        "params": {name: getattr(config, name) for name in _PROVENANCE_PARAMS},
    }


def load_monitor_config(raw: dict) -> MonitorLabelConfig:
    """Build a MonitorLabelConfig from a config file's parsed JSON object."""
    return decode(MonitorLabelConfig, raw, "monitor config")
