import numpy as np
import pytest

from partfuse.errors import ValidationError
from partfuse.overlay import (
    OverlaySpec,
    default_overlay_spec,
    golden_color,
    instance_boxes,
    render_overlay,
)

from conftest import BAG, BOTTLE, TABLE, make_triple


def base_image(h=12, w=12):
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, (h, w, 3)).astype(np.uint8)


def test_all_void_passthrough(taxonomy):
    img = base_image()
    triple = make_triple(np.zeros((12, 12), dtype=np.uint16))
    out = render_overlay(img, triple, default_overlay_spec(taxonomy))
    assert np.array_equal(out, img)


def test_instance_box_matches_extents(taxonomy):
    sem = np.zeros((12, 12), dtype=np.uint16)
    inst = np.zeros_like(sem)
    sem[3:7, 2:9] = BAG
    inst[3:7, 2:9] = 1
    triple = make_triple(sem, inst)
    boxes = instance_boxes(triple)
    assert boxes == {1: (3, 2, 6, 8)}
    spec = default_overlay_spec(taxonomy)
    out = render_overlay(base_image(), triple, spec)
    color = spec.class_colors[BAG]
    assert tuple(out[3, 2]) == color
    assert tuple(out[6, 8]) == color
    assert tuple(out[3, 5]) == color  # top edge


def nonzero_boxes(instance_map):
    """Oracle: the inclusive box of each id's np.nonzero pixels."""
    boxes = {}
    for inst in np.unique(instance_map[instance_map != 0]):
        rows, cols = np.nonzero(instance_map == inst)
        boxes[int(inst)] = (rows.min(), cols.min(), rows.max(), cols.max())
    return boxes


def test_instance_boxes_match_nonzero_oracle(taxonomy):
    """Sparse ids up to 65535, single-pixel instances and ids below the
    maximum that no pixel holds; the drawn boxes take the class of each
    instance's first pixel in raster order."""
    rng = np.random.default_rng(5)
    spec = default_overlay_spec(taxonomy, alpha=0.0)
    classes = np.array([0, BAG, BOTTLE, TABLE, 99], dtype=np.uint16)  # 99: no colour
    for _ in range(40):
        h, w = rng.integers(2, 20, size=2)
        pool = np.concatenate([[1], rng.choice(np.arange(2, 65535), 5, replace=False)])
        inst = np.where(rng.random((h, w)) < 0.3, rng.choice(pool, (h, w)), 0)
        one, top = rng.choice(h * w, 2, replace=False)
        inst.flat[one] = 1
        inst.flat[top] = 65535  # a single pixel
        sem = rng.choice(classes, (h, w))
        triple = make_triple(sem, inst)
        want = nonzero_boxes(triple.instance_map)
        assert instance_boxes(triple) == want

        image = base_image(h, w)
        expected = image.copy()
        for i, (r0, c0, r1, c1) in want.items():
            rows, cols = np.nonzero(triple.instance_map == i)
            color = spec.class_colors.get(int(sem[rows[0], cols[0]]), (255, 255, 255))
            outline = np.zeros((h, w), dtype=bool)
            outline[r0 : r1 + 1, c0 : c1 + 1] = True
            outline[r0 + 1 : r1, c0 + 1 : c1] = False
            expected[outline] = color
        assert np.array_equal(render_overlay(image, triple, spec), expected)


def test_alpha_one_fills_segments(taxonomy):
    sem = np.full((6, 6), TABLE, dtype=np.uint16)
    triple = make_triple(sem)
    spec = default_overlay_spec(taxonomy, alpha=1.0, draw_boxes=False)
    out = render_overlay(base_image(6, 6), triple, spec)
    assert (out == np.array(spec.class_colors[TABLE])).all()


def test_part_contours_drawn(taxonomy):
    sem = np.zeros((10, 10), dtype=np.uint16)
    sem[2:8, 2:8] = BAG
    inst = (sem == BAG).astype(np.uint16)
    part = np.zeros_like(sem)
    part[2:8, 2:8] = 11
    triple = make_triple(sem, inst, part)
    spec = default_overlay_spec(taxonomy, draw_boxes=False)
    out = render_overlay(base_image(10, 10), triple, spec)
    assert tuple(out[2, 2]) == spec.part_colors[11]
    # interior pixels are blended, not painted with the part colour
    assert tuple(out[5, 5]) != spec.part_colors[11]


def test_distinct_colors_enforced():
    with pytest.raises(ValidationError, match="distinct"):
        OverlaySpec(class_colors={1: (1, 2, 3), 2: (1, 2, 3)})


def test_dimension_mismatch(taxonomy):
    triple = make_triple(np.zeros((4, 4), dtype=np.uint16))
    with pytest.raises(ValidationError, match="dimensions"):
        render_overlay(base_image(8, 8), triple, default_overlay_spec(taxonomy))


def test_golden_palette_distinct():
    colors = [golden_color(i) for i in range(1, 30)]
    assert len(set(colors)) == len(colors)
