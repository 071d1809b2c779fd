"""Colour-overlay rendering of label triples.

Semantic regions are alpha-blended with per-class colours, each instance
gets an axis-aligned bounding box in its class colour, and part regions
are outlined with 1-px contours in per-part colours.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .containers import LabelTriple
from .errors import ValidationError
from .imaging import boundary_mask
from .jsonio import read_json


def golden_color(index: int, saturation: float = 0.75, value: float = 1.0) -> tuple[int, int, int]:
    """Deterministic, well-spread palette entry for a label id."""
    hue = (index * 137.50776405003785) % 360.0
    r, g, b = colorsys.hsv_to_rgb(hue / 360.0, saturation, value)
    return int(round(r * 255)), int(round(g * 255)), int(round(b * 255))


@dataclass(frozen=True)
class OverlaySpec:
    """Rendering options; colour tables must be distinct per id."""

    class_colors: dict[int, tuple[int, int, int]]
    part_colors: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    draw_boxes: bool = True
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must be in [0, 1]")
        for table_name, table in (
            ("class", self.class_colors),
            ("part", self.part_colors),
        ):
            if len(set(table.values())) != len(table):
                raise ValidationError(f"{table_name} colours are not distinct")


def default_overlay_spec(taxonomy, alpha: float = 0.5, draw_boxes: bool = True) -> OverlaySpec:
    class_colors = {
        cid: golden_color(i + 1) for i, cid in enumerate(taxonomy.semantic_ids)
    }
    part_colors = {
        pid: golden_color(i + 1, saturation=1.0, value=0.85)
        for i, pid in enumerate(taxonomy.part_ids)
    }
    return OverlaySpec(
        class_colors=class_colors,
        part_colors=part_colors,
        draw_boxes=draw_boxes,
        alpha=alpha,
    )


def load_colors(path: str | Path, spec: OverlaySpec) -> OverlaySpec:
    """``spec`` with the JSON colour table at ``path`` laid over its
    palettes: an object with optional ``class_colors`` and ``part_colors``
    tables, each mapping an integer id to 3 integer samples in 0..255."""
    path = Path(path)
    raw = read_json(path, dict)
    return replace(
        spec,
        class_colors={**spec.class_colors, **_color_table(raw, "class_colors", path)},
        part_colors={**spec.part_colors, **_color_table(raw, "part_colors", path)},
    )


def _color_table(raw: dict, name: str, path: Path) -> dict[int, tuple[int, int, int]]:
    table = raw.get(name, {})
    try:
        colors = {int(key): tuple(value) for key, value in table.items()}
    except (AttributeError, TypeError, ValueError):
        raise ValidationError(f"{path}: {name} must map integer ids to colours") from None
    for ident, color in colors.items():
        if len(color) != 3 or not all(type(c) is int and 0 <= c <= 255 for c in color):
            raise ValidationError(f"{path}: {name}[{ident}] must be 3 integers in 0..255")
    return colors


def instance_boxes(triple: LabelTriple) -> dict[int, tuple[int, int, int, int]]:
    """(row_min, col_min, row_max, col_max) per instance id, inclusive."""
    from scipy import ndimage

    return {
        inst: (box[0].start, box[1].start, box[0].stop - 1, box[1].stop - 1)
        for inst, box in enumerate(ndimage.find_objects(triple.instance_map), start=1)
        if box is not None  # no pixel holds this id
    }


def render_overlay(image: np.ndarray, triple: LabelTriple, spec: OverlaySpec) -> np.ndarray:
    """Blend class colours into the image and draw instance boxes and part
    contours; void pixels pass through untouched."""
    if image.shape[:2] != triple.shape:
        raise ValidationError("image and label dimensions disagree")
    if image.ndim != 3:
        raise ValidationError("overlay rendering needs a 3-channel image")

    out = image.astype(np.float64)
    sem = triple.semantic_map
    for class_id, color in spec.class_colors.items():
        region = sem == class_id
        if not region.any():
            continue
        out[region] = (1.0 - spec.alpha) * out[region] + spec.alpha * np.array(
            color, dtype=np.float64
        )

    rendered = np.rint(out).clip(0, 255).astype(np.uint8)

    for part_id, color in spec.part_colors.items():
        region = triple.part_map == part_id
        if not region.any():
            continue
        rendered[boundary_mask(region)] = color

    if spec.draw_boxes:
        for inst, (r0, c0, r1, c1) in instance_boxes(triple).items():
            box = (slice(r0, r1 + 1), slice(c0, c1 + 1))
            class_id = int(sem[box][triple.instance_map[box] == inst][0])
            color = spec.class_colors.get(class_id, (255, 255, 255))
            rendered[r0, c0 : c1 + 1] = color
            rendered[r1, c0 : c1 + 1] = color
            rendered[r0 : r1 + 1, c0] = color
            rendered[r0 : r1 + 1, c1] = color

    return rendered
