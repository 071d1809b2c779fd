import colorsys
import tracemalloc

import numpy as np
import pytest

from partfuse.errors import FormatError, ValidationError
from partfuse.imaging import (
    HsvRange,
    boundary_mask,
    connected_components,
    fill_holes,
    first_hsv_range,
    morphological_close,
    quantize_colors,
    read_pnm,
    rgb_to_hsv,
    threshold_hsv,
    write_pgm16,
    write_pnm,
)

from conftest import BAG, SEAL, TABLE


# ------------------------------------------------------------------- PNM


def test_ppm_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (2, 2, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    write_pnm(img, path)
    first = path.read_bytes()
    write_pnm(read_pnm(path), path)
    assert path.read_bytes() == first


def test_pgm_reads_single_channel(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    write_pnm(img, path)
    back = read_pnm(path)
    assert back.ndim == 2
    assert np.array_equal(back, img)


def test_pnm_truncated(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))  # needs 12 bytes
    with pytest.raises(FormatError, match="truncated"):
        read_pnm(path)


def test_pnm_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError, match="maxval"):
        read_pnm(path)


def test_pnm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="magic"):
        read_pnm(path)


def test_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    img = read_pnm(path)
    assert img.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("shape", [(6, 8), (6, 8, 3)], ids=["grey", "colour"])
def test_images_are_uint8_arrays_of_the_input_shape(tmp_path, taxonomy, shape):
    from partfuse.autolabel_monitor import ReferenceLabel, augment_flips, composite_synthetic
    from partfuse.overlay import default_overlay_spec, render_overlay

    image = np.random.default_rng(7).integers(0, 256, shape).astype(np.uint8)
    write_pnm(image, tmp_path / "i.pnm")
    mask = np.zeros((6, 8), dtype=bool)
    mask[1:4, 2:6] = True
    grid = mask.astype(np.uint16)
    reference = ReferenceLabel(mask, grid * SEAL, grid, BAG, TABLE)
    outputs = [
        read_pnm(tmp_path / "i.pnm"),
        morphological_close(image, 3),
        quantize_colors(image),
        composite_synthetic(image, reference, image[::-1])[0],
        *(flipped for _, flipped, _ in augment_flips(image, reference.triple)),
    ]
    if len(shape) == 3:
        spec = default_overlay_spec(taxonomy)
        outputs.append(render_overlay(image, reference.triple, spec))
    for out in outputs:
        assert type(out) is np.ndarray and out.dtype == np.uint8 and out.shape == shape


def test_pnm_writers_refuse_samples_they_would_wrap(tmp_path):
    with pytest.raises(FormatError, match="int64"):
        write_pnm(np.array([[300, 0]], dtype=np.int64), tmp_path / "i.pgm")
    with pytest.raises(FormatError, match="int64"):
        write_pgm16(np.array([[70000, 0]], dtype=np.int64), tmp_path / "l.pgm")
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------ morphology


def test_close_window_one_is_identity():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    closed = morphological_close(img, 1)
    assert np.array_equal(closed, img)


def test_close_fills_interior_hole():
    bits = np.zeros((7, 7), dtype=bool)
    bits[1:6, 1:6] = True
    bits[3, 3] = False
    closed = morphological_close(bits.astype(np.uint8), 3).astype(bool)
    assert closed[3, 3]
    assert closed[1:6, 1:6].all()


def test_close_is_extensive_and_idempotent_on_masks():
    rng = np.random.default_rng(2)
    for _ in range(20):
        bits = rng.random((16, 16)) < 0.4
        once = morphological_close(bits.astype(np.uint8), 3)
        closed = once.astype(bool)
        assert (closed | bits).sum() == closed.sum()  # extensive
        twice = morphological_close(once, 3)
        assert np.array_equal(closed, twice.astype(bool))  # idempotent


def test_close_is_extensive_and_idempotent_on_images():
    rng = np.random.default_rng(3)
    for _ in range(10):
        img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        once = morphological_close(img, 5)
        assert (once >= img).all()
        twice = morphological_close(once, 5)
        assert np.array_equal(once, twice)


@pytest.mark.parametrize("shape", [(5, 9), (5, 9, 3), (1, 1)])
def test_close_window_beyond_the_image_matches_unclipped_filter(shape):
    """The window is clamped to 2n - 1 per axis; scipy with the full
    window is the oracle."""
    from scipy import ndimage

    img = np.random.default_rng(4).integers(0, 256, shape).astype(np.uint8)
    for window in (1, 3, 9, 17, 19, 41):
        size = (window, window, 1)[: img.ndim]
        dilated = ndimage.maximum_filter(img, size=size, mode="constant", cval=0)
        expected = ndimage.minimum_filter(dilated, size=size, mode="constant", cval=255)
        assert np.array_equal(morphological_close(img, window), expected)


def test_close_rejects_even_window():
    with pytest.raises(ValidationError, match="odd"):
        morphological_close(np.zeros((4, 4), dtype=np.uint8), 2)


# ----------------------------------------------------------- quantization


def test_quantize_identity_at_256_levels():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (6, 6, 3)).astype(np.uint8)
    assert np.array_equal(quantize_colors(img, 256), img)


def test_quantize_reference_values():
    img = np.array([[100]], dtype=np.uint8)
    assert quantize_colors(img, 8)[0, 0] == 112
    img2 = np.array([[0, 255]], dtype=np.uint8)
    assert quantize_colors(img2, 2).tolist() == [[64, 192]]


def test_quantize_idempotent():
    rng = np.random.default_rng(5)
    for levels in (2, 3, 8, 17, 64):
        img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        once = quantize_colors(img, levels)
        twice = quantize_colors(once, levels)
        assert np.array_equal(once, twice)


def test_quantize_range_check():
    img = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValidationError, match="levels"):
        quantize_colors(img, 0)
    with pytest.raises(ValidationError, match="levels"):
        quantize_colors(img, 257)


# -------------------------------------------------------------------- HSV


def test_rgb_to_hsv_primaries():
    h, s, v = rgb_to_hsv(np.array([[255, 0, 0], [0, 0, 255], [128, 128, 128]], np.uint8))
    assert h[:2] == pytest.approx([0.0, 240.0])
    assert s[:2] == pytest.approx([1.0, 1.0])
    assert v[:2] == pytest.approx([1.0, 1.0])
    assert (h[2], s[2]) == (0.0, 0.0)
    assert v[2] == pytest.approx(128 / 255, abs=1e-9)


def test_rgb_to_hsv_matches_colorsys_reference():
    def hue_delta(a, b):
        d = abs(a - b) % 360.0
        return min(d, 360.0 - d)

    levels = range(0, 256, 17)
    rgb = np.array([(r, g, b) for r in levels for g in levels for b in levels], np.uint8)
    for (r, g, b), h, s, v in zip(rgb.tolist(), *rgb_to_hsv(rgb)):
        rh, rs, rv = colorsys.rgb_to_hsv(r / 255, g / 255, b / 255)
        assert hue_delta(h, rh * 360.0) < 1e-9
        assert abs(s - rs) < 1e-9
        assert abs(v - rv) < 1e-9


def test_threshold_blue_image():
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    img[:, :] = (0, 0, 255)
    blue = HsvRange(h_min=200, h_max=260, s_min=0.5, v_min=0.2)
    assert threshold_hsv(img, blue).all()
    red_wrap = HsvRange(h_min=350, h_max=10, s_min=0.5, v_min=0.2)
    assert not threshold_hsv(img, red_wrap).any()


def test_threshold_wrapping_catches_red():
    px = np.zeros((2, 2, 3), dtype=np.uint8)
    px[:, :] = (255, 10, 10)
    red_wrap = HsvRange(h_min=350, h_max=10, s_min=0.5, v_min=0.2)
    assert threshold_hsv(px, red_wrap).all()


def test_threshold_universal_range():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (5, 5, 3)).astype(np.uint8)
    assert threshold_hsv(img, HsvRange()).all()


def random_ranges(rng, h, s, v):
    """HSV boxes with random bounds, some of them exactly on a present
    hue, saturation or value, about half of them wrapping through 0."""
    ranges = []
    for _ in range(8):
        pick = rng.integers(0, h.size, 4)
        h_lo, h_hi = h.flat[pick[0]], h.flat[pick[1]]
        if rng.random() < 0.3:
            h_lo, h_hi = rng.uniform(0, 360, 2)
        s_lo, v_lo = s.flat[pick[2]], v.flat[pick[3]]
        ranges.append(HsvRange(h_min=h_lo, h_max=h_hi, s_min=s_lo, v_min=v_lo))
        ranges.append(HsvRange(h_min=h_hi, h_max=h_lo, s_max=s_lo, v_max=v_lo))
    return ranges


@pytest.mark.parametrize(
    "shape, colours",
    [((96, 128), None), ((40, 50), 1), ((40, 50), 2), ((40, 50), 3), ((1, 1), None),
     ((1, 37), None), ((37, 1), 2), ((64, 64), 512)],
    ids=["full-colour", "1-colour", "2-colours", "3-colours", "1x1", "1xN", "Nx1", "512-colours"],
)
def test_threshold_matches_per_pixel_oracle(shape, colours):
    rng = np.random.default_rng(sum(shape) * 10 + (colours or 0))
    if colours is None:  # full colour: about 10^4 distinct colours on 96x128
        px = rng.integers(0, 256, (*shape, 3)).astype(np.uint8)
    else:
        palette = rng.integers(0, 256, (colours, 3)).astype(np.uint8)
        px = palette[rng.integers(0, colours, shape)]
    h, s, v = rgb_to_hsv(px)
    for hsv_range in random_ranges(rng, h, s, v) + [HsvRange()]:
        expected = hsv_range.contains(h, s, v)
        assert np.array_equal(threshold_hsv(px, hsv_range), expected)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_threshold_peak_memory_below_third_of_per_pixel_path():
    rng = np.random.default_rng(11)
    image = quantize_colors(rng.integers(0, 256, (480, 640, 3)).astype(np.uint8))
    blue = HsvRange(h_min=200.0, h_max=260.0, s_min=0.35, v_min=0.2)
    per_pixel = traced_peak(lambda: blue.contains(*rgb_to_hsv(image)))
    per_colour = traced_peak(lambda: threshold_hsv(image, blue))
    assert per_colour < per_pixel / 3


def test_threshold_rejects_single_channel():
    with pytest.raises(ValidationError, match="3-channel"):
        threshold_hsv(np.zeros((2, 2), dtype=np.uint8), HsvRange())
    for grey in (np.zeros((2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8)):
        with pytest.raises(ValidationError, match="triples"):
            first_hsv_range(grey, [HsvRange()])


def test_hsv_range_validation():
    with pytest.raises(ValidationError):
        HsvRange(s_min=0.9, s_max=0.1)
    with pytest.raises(ValidationError):
        HsvRange(h_min=360.0)


# ------------------------------------------------- connected components


def test_components_empty_mask():
    labels, sizes = connected_components(np.zeros((4, 4), dtype=bool))
    assert labels.max() == 0
    assert sizes.tolist() == [16]


def test_components_diagonal_connectivity():
    bits = np.zeros((3, 3), dtype=bool)
    bits[0, 0] = bits[1, 1] = True
    labels8, _ = connected_components(bits, connectivity=8)
    assert labels8.max() == 1
    labels4, _ = connected_components(bits, connectivity=4)
    assert labels4.max() == 2


def test_components_full_mask():
    labels, sizes = connected_components(np.ones((4, 5), dtype=bool))
    assert labels.max() == 1
    assert sizes[1] == 20


def test_components_scan_order_numbering():
    bits = np.zeros((4, 8), dtype=bool)
    bits[3, 0:2] = True  # lower-left blob
    bits[0, 6:8] = True  # upper-right blob: first in raster order
    labels, _ = connected_components(bits)
    assert labels[0, 6] == 1
    assert labels[3, 0] == 2


def union_find_labels(bits, connectivity):
    h, w = bits.shape
    parent = {}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(a, b):
        parent[find(a)] = find(b)

    offsets = [(-1, 0), (0, -1), (1, 0), (0, 1)]
    if connectivity == 8:
        offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for r in range(h):
        for c in range(w):
            if bits[r, c]:
                parent.setdefault((r, c), (r, c))
                for dr, dc in offsets:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and bits[rr, cc]:
                        parent.setdefault((rr, cc), (rr, cc))
                        union((r, c), (rr, cc))
    groups = {}
    for p in parent:
        groups.setdefault(find(p), []).append(p)
    labels = np.zeros((h, w), dtype=np.int32)
    ordered = sorted(groups.values(), key=lambda px: min(px))
    for i, pixels in enumerate(ordered, start=1):
        for r, c in pixels:
            labels[r, c] = i
    return labels


@pytest.mark.parametrize("connectivity", [4, 8])
def test_components_agree_with_union_find(connectivity):
    rng = np.random.default_rng(7)
    for _ in range(10):
        bits = rng.random((32, 32)) < 0.45
        got, _ = connected_components(bits, connectivity)
        want = union_find_labels(bits, connectivity)
        assert np.array_equal(got, want)


# ------------------------------------------------------------ hole filling


def disk_mask(n=21, r=8):
    yy, xx = np.mgrid[:n, :n]
    return (xx - n // 2) ** 2 + (yy - n // 2) ** 2 <= r * r


def test_fill_holes_solid_disk_unchanged():
    mask = disk_mask()
    assert np.array_equal(fill_holes(mask), mask)


def test_fill_holes_ring_becomes_disk():
    outer = disk_mask(r=8)
    inner = disk_mask(r=4)
    ring = outer & ~inner
    filled = fill_holes(ring)
    assert np.array_equal(filled, outer)


def test_fill_holes_empty_mask():
    mask = np.zeros((5, 5), dtype=bool)
    assert not fill_holes(mask).any()


def test_fill_holes_extensive_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mask = rng.random((16, 16)) < 0.5
        once = fill_holes(mask)
        assert (once | mask).sum() == once.sum()
        assert np.array_equal(fill_holes(once), once)


def test_fill_holes_preserves_outer_contour():
    outer = disk_mask(r=8)
    inner = disk_mask(r=3)
    ring = outer & ~inner
    assert np.array_equal(fill_holes(ring), outer)


def test_boundary_mask_is_one_pixel_ring():
    bits = np.zeros((6, 6), dtype=bool)
    bits[1:5, 1:5] = True
    edge = boundary_mask(bits)
    assert edge[1, 1] and edge[1, 4] and edge[4, 4]
    assert not edge[2, 2] and not edge[3, 3]
