import numpy as np
import pytest

from partfuse.autolabel_monitor import (
    MonitorLabelConfig,
    augment_flips,
    composite_synthetic,
    extract_part_masks,
    extract_reference_mask,
    transfer_labels,
)
from partfuse.autolabel_rgbd import PartColorRule
from partfuse.errors import ValidationError
from partfuse.imaging import (
    HsvRange,
    fill_holes,
    morphological_close,
    quantize_colors,
    threshold_hsv,
)

from conftest import BAG, OTHER, SEAL, make_triple
from scenes import RED, SEAL_RANGE, WHITE

BLUE_BG = (0, 0, 255)
BLACK_BG = (0, 0, 0)


def disk_scene(size=128, radius=40, hole=None):
    """Blue and black captures of a disk whose top half is red.

    Returns (img_blue, img_black, mask, top_mask)."""
    yy, xx = np.mgrid[:size, :size]
    c = size // 2
    disk = (xx - c) ** 2 + (yy - c) ** 2 <= radius * radius
    if hole is not None:
        hr, hc, hrad = hole
        disk_hole = (xx - hc) ** 2 + (yy - hr) ** 2 <= hrad * hrad
    else:
        disk_hole = np.zeros_like(disk)
    visible = disk & ~disk_hole
    top = visible & (yy < c)

    def render(background):
        px = np.zeros((size, size, 3), dtype=np.uint8)
        px[:, :] = background
        px[visible] = WHITE
        px[top] = RED
        return px

    return render(BLUE_BG), render(BLACK_BG), disk, top


def monitor_config():
    return MonitorLabelConfig(
        object_class_id=BAG,
        background_class_id=0,
        part_rules=(PartColorRule(part_id=SEAL, hsv_range=SEAL_RANGE, priority=1),),
        catchall_part_id=OTHER,
    )


def iou(a, b):
    inter = (a & b).sum()
    union = (a | b).sum()
    return inter / union


def test_reference_mask_recovers_disk():
    img_blue, img_black, disk, _ = disk_scene()
    mask = extract_reference_mask(img_blue, img_black, monitor_config())
    assert iou(mask, disk) >= 0.99


def test_reference_mask_exact_on_clean_render():
    # no anti-aliasing, object colours outside both background ranges,
    # component above the area floor: recovery is exact
    img_blue, img_black, disk, _ = disk_scene()
    mask = extract_reference_mask(img_blue, img_black, monitor_config())
    assert np.array_equal(mask, disk)


def test_reference_mask_empty_scene_rejected():
    size = 64
    blue = np.tile(np.array(BLUE_BG, dtype=np.uint8), (size, size, 1))
    black = np.zeros((size, size, 3), dtype=np.uint8)
    with pytest.raises(ValidationError, match="no object"):
        extract_reference_mask(blue, black, monitor_config())


def test_reference_mask_dim_mismatch():
    img_blue, _, _, _ = disk_scene(size=64)
    _, img_black, _, _ = disk_scene(size=32)
    with pytest.raises(ValidationError, match="size"):
        extract_reference_mask(img_blue, img_black, monitor_config())


def test_reference_mask_fills_holes():
    # a small background-coloured hole inside the disk gets closed
    img_blue, img_black, disk, _ = disk_scene(hole=(50, 64, 3))
    mask = extract_reference_mask(img_blue, img_black, monitor_config())
    assert mask[50, 64]
    assert iou(mask, disk) >= 0.99


def test_remask_is_idempotent():
    """Re-running the black-image stage on an extracted mask changes nothing."""
    img_blue, img_black, _, _ = disk_scene()
    config = monitor_config()
    mask = extract_reference_mask(img_blue, img_black, config)

    masked_black = np.where(mask[..., None], img_black, 0).astype(np.uint8)
    processed = quantize_colors(
        morphological_close(masked_black, config.closing_window),
        config.quantize_levels,
    )
    survivors = ~threshold_hsv(processed, config.black_range) & mask
    refilled = fill_holes(survivors)
    assert np.array_equal(refilled, mask)


def test_part_masks_partition_disk(taxonomy):
    img_blue, img_black, disk, top = disk_scene()
    config = monitor_config()
    mask = extract_reference_mask(img_blue, img_black, config)
    reference = extract_part_masks(img_black, mask, config, taxonomy)
    seal = reference.part_grid == SEAL
    other = reference.part_grid == OTHER
    assert np.array_equal(seal | other, mask)
    assert iou(seal, top & mask) >= 0.97
    assert reference.instance_grid.max() == 1
    assert not reference.object_mask.flags.writeable


def test_part_masks_no_rules_catchall(taxonomy):
    img_blue, img_black, _, _ = disk_scene()
    config = MonitorLabelConfig(
        object_class_id=BAG, catchall_part_id=OTHER, part_rules=()
    )
    mask = extract_reference_mask(img_blue, img_black, config)
    reference = extract_part_masks(img_black, mask, config, taxonomy)
    assert np.array_equal(reference.part_grid, np.where(mask, OTHER, 0))


def test_two_disks_two_instances(taxonomy):
    size = 128
    yy, xx = np.mgrid[:size, :size]
    d1 = (xx - 32) ** 2 + (yy - 32) ** 2 <= 20 * 20
    d2 = (xx - 96) ** 2 + (yy - 96) ** 2 <= 20 * 20

    def render(bg):
        px = np.zeros((size, size, 3), dtype=np.uint8)
        px[:, :] = bg
        px[d1 | d2] = WHITE
        return px

    config = monitor_config()
    mask = extract_reference_mask(render(BLUE_BG), render(BLACK_BG), config)
    ref = extract_part_masks(render(BLACK_BG), mask, config, taxonomy)
    assert ref.instance_grid.max() == 2
    # scan order: d1's top pixel comes first
    assert ref.instance_grid[32, 32] == 1
    assert ref.instance_grid[96, 96] == 2


def test_extract_part_masks_refuses_instance_ids_past_16_bits():
    mask = np.zeros((600, 480), dtype=bool)
    mask[::2, ::2] = True  # 72,000 pixels with no 8-neighbour: one instance each
    black = np.zeros((600, 480, 3), dtype=np.uint8)
    with pytest.raises(ValidationError, match="16 bits"):
        extract_part_masks(black, mask, monitor_config())


def test_transfer_labels_copies_reference(taxonomy):
    img_blue, img_black, _, _ = disk_scene()
    config = monitor_config()
    mask = extract_reference_mask(img_blue, img_black, config)
    reference = extract_part_masks(img_black, mask, config, taxonomy)
    rng = np.random.default_rng(0)
    t1 = rng.integers(0, 256, (128, 128, 3)).astype(np.uint8)
    t2 = rng.integers(0, 256, (128, 128, 3)).astype(np.uint8)
    out1, triple1 = transfer_labels(reference, t1)
    out2, triple2 = transfer_labels(reference, t2)
    assert out1 is t1  # image passes through
    assert np.array_equal(triple1.semantic_map, triple2.semantic_map)
    assert np.array_equal(triple1.part_map, triple2.part_map)
    assert (triple1.semantic_map[mask] == BAG).all()
    assert (triple1.semantic_map[~mask] == 0).all()
    # the scene's triple is built once: targets and composites share it
    assert triple2 is triple1
    assert composite_synthetic(t1, reference, t2)[1] is triple1


def test_transfer_labels_dim_mismatch(taxonomy):
    img_blue, img_black, _, _ = disk_scene()
    config = monitor_config()
    mask = extract_reference_mask(img_blue, img_black, config)
    reference = extract_part_masks(img_black, mask, config, taxonomy)
    small = np.zeros((16, 16, 3), dtype=np.uint8)
    with pytest.raises(ValidationError, match="dimensions"):
        transfer_labels(reference, small)


def reference_with_mask(bits, taxonomy):
    from partfuse.autolabel_monitor import ReferenceLabel

    return ReferenceLabel(
        object_mask=bits,
        part_grid=np.where(bits, OTHER, 0).astype(np.uint16),
        instance_grid=bits.astype(np.uint16),
        object_class_id=BAG,
        background_class_id=0,
    )


def test_composite_empty_and_full_mask(taxonomy):
    rng = np.random.default_rng(1)
    obj = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    bg = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    empty_ref = reference_with_mask(np.zeros((8, 8), dtype=bool), taxonomy)
    out, _ = composite_synthetic(obj, empty_ref, bg)
    assert np.array_equal(out, bg)
    full_ref = reference_with_mask(np.ones((8, 8), dtype=bool), taxonomy)
    out, _ = composite_synthetic(obj, full_ref, bg)
    assert np.array_equal(out, obj)


def test_composite_half_mask_splice(taxonomy):
    rng = np.random.default_rng(2)
    obj = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    bg = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    bits = np.zeros((8, 8), dtype=bool)
    bits[:, :4] = True
    ref = reference_with_mask(bits, taxonomy)
    out, triple = composite_synthetic(obj, ref, bg)
    assert np.array_equal(out[:, :4], obj[:, :4])
    assert np.array_equal(out[:, 4:], bg[:, 4:])
    assert (triple.semantic_map[:, :4] == BAG).all()


def test_reference_label_rejects_leaky_parts():
    from partfuse.autolabel_monitor import ReferenceLabel

    obj = np.zeros((4, 4), dtype=bool)
    obj[0, 0] = True
    leak = np.zeros((4, 4), dtype=bool)
    leak[1, 1] = True
    with pytest.raises(ValidationError, match="outside"):
        ReferenceLabel(
            object_mask=obj,
            part_grid=np.where(leak, SEAL, 0).astype(np.uint16),
            instance_grid=obj.astype(np.uint16),
            object_class_id=BAG,
            background_class_id=0,
        )


def test_reference_label_triple_rejects_a_class_id_beyond_16_bits():
    from partfuse.autolabel_monitor import ReferenceLabel

    obj = np.zeros((4, 4), dtype=bool)
    obj[0, 0] = True
    reference = ReferenceLabel(
        object_mask=obj,
        part_grid=np.zeros((4, 4), dtype=np.uint16),
        instance_grid=obj.astype(np.uint16),
        object_class_id=70000,
        background_class_id=0,
    )
    with pytest.raises(ValidationError, match="semantic map ids"):
        reference.triple


# ------------------------------------------------------------ flips


def sample_pair():
    rng = np.random.default_rng(3)
    image = rng.integers(0, 256, (6, 8, 3)).astype(np.uint8)
    triple = make_triple(
        rng.integers(0, 4, (6, 8)),
        np.zeros((6, 8), dtype=np.uint16),
        rng.integers(0, 3, (6, 8)),
    )
    return image, triple


def test_flip_suffixes_and_count():
    image, triple = sample_pair()
    variants = augment_flips(image, triple)
    assert [s for s, _, _ in variants] == ["_id", "_rot180", "_vflip", "_hflip"]


def test_vflip_is_involution():
    image, triple = sample_pair()
    _, v_img, v_trip = augment_flips(image, triple)[2]
    _, vv_img, vv_trip = augment_flips(v_img, v_trip)[2]
    assert np.array_equal(vv_img, image)
    assert np.array_equal(vv_trip.semantic_map, triple.semantic_map)


def test_rot180_equals_vflip_of_hflip():
    image, triple = sample_pair()
    variants = augment_flips(image, triple)
    _, rot_img, rot_trip = variants[1]
    _, h_img, h_trip = variants[3]
    _, vh_img, vh_trip = augment_flips(h_img, h_trip)[2]
    assert np.array_equal(rot_img, vh_img)
    assert np.array_equal(rot_trip.part_map, vh_trip.part_map)


def test_rot180_swaps_asymmetric_pixels():
    image = np.array([[[1, 1, 1], [2, 2, 2]]], dtype=np.uint8)  # 1x2
    triple = make_triple(np.array([[1, 2]]), np.array([[1, 2]]), np.array([[0, 11]]))
    _, rot_img, rot_trip = augment_flips(image, triple)[1]
    assert rot_img[0, 0, 0] == 2 and rot_img[0, 1, 0] == 1
    assert rot_trip.semantic_map.tolist() == [[2, 1]]
    assert rot_trip.instance_map.tolist() == [[2, 1]]
    assert rot_trip.part_map.tolist() == [[11, 0]]


def test_flip_labels_follow_pixels():
    image, triple = sample_pair()
    ops = {
        "_id": lambda a: a,
        "_rot180": lambda a: a[::-1, ::-1],
        "_vflip": lambda a: a[::-1, :],
        "_hflip": lambda a: a[:, ::-1],
    }
    for suffix, img, trip in augment_flips(image, triple):
        op = ops[suffix]
        assert np.array_equal(img, op(image))
        assert np.array_equal(trip.semantic_map, op(triple.semantic_map))
        assert np.array_equal(trip.instance_map, op(triple.instance_map))
        assert np.array_equal(trip.part_map, op(triple.part_map))
