import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfuse import pointcloud
from partfuse.autolabel_rgbd import LabeledPointCloud, RgbdLabelConfig, project_labels
from partfuse.errors import FormatError, ValidationError
from partfuse.pointcloud import (
    CameraModel,
    Plane,
    PmfParams,
    PointCloud,
    Projection,
    euclidean_clusters,
    load_camera,
    progressive_morphological_filter,
    project,
    ransac_plane,
    read_ply,
    _windowed,
)

from scenes import back_project, save_camera, write_ply


def cloud_of(xyz, rgb=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    if rgb is None:
        rgb = np.zeros_like(xyz, dtype=np.uint8)
    return PointCloud(xyz, np.asarray(rgb, dtype=np.uint8))


# ------------------------------------------------------------------- PLY


def test_ply_round_trip(tmp_path):
    path = tmp_path / "c.ply"
    xyz = np.array([[0.1, -0.2, 0.3], [1.25, 2.5, -3.75], [1e-4, 2e-5, 3e-6]])
    rgb = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]], dtype=np.uint8)
    write_ply(cloud_of(xyz, rgb), path)
    back = read_ply(path)
    assert np.allclose(back.xyz, xyz, atol=1e-9)
    assert np.array_equal(back.rgb, rgb)


def test_ply_empty_round_trip(tmp_path):
    path = tmp_path / "empty.ply"
    write_ply(cloud_of(np.zeros((0, 3))), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_ply(path)
    assert len(back) == 0


def test_ply_count_mismatch(tmp_path):
    path = tmp_path / "bad.ply"
    write_ply(cloud_of(np.zeros((5, 3))), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one vertex row
    with pytest.raises(FormatError, match="5 vertices"):
        read_ply(path)


def test_ply_missing_property(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n"
    )
    with pytest.raises(FormatError, match="missing"):
        read_ply(path)


def test_ply_malformed_header(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat ascii 1.0\nwhatever\nend_header\n")
    with pytest.raises(FormatError, match="malformed|element"):
        read_ply(path)


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {n}\n"
    "property float x\nproperty float y\nproperty float z\n"
    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
    "end_header\n"
)


@pytest.mark.parametrize(
    "payload",
    [
        PLY_HEADER.format(n=1) + "0 0 0 300 0 0\n",  # colour above 255
        PLY_HEADER.format(n=1) + "0 0 0 -1 0 0\n",  # negative colour
        PLY_HEADER.format(n=1) + "0 0 0 1.5 0 0\n",  # fractional colour
        PLY_HEADER.format(n=1) + "0 0 0 nan 0 0\n",
        PLY_HEADER.format(n=1) + "x 0 0 1 2 3\n",  # non-numeric coordinate
        PLY_HEADER.format(n=1) + "0 0 0 1 2 3 # note\n",  # no comments in rows
        PLY_HEADER.format(n=2) + "0 0 0 1 2 3\n0 0 0 1 2\n",  # ragged rows
        PLY_HEADER.format(n=1) + "0 0 0 1 2 3 4\n",  # extra field
        PLY_HEADER.format(n=1),  # announced row missing
        PLY_HEADER.format(n="abc"),
        PLY_HEADER.format(n=1).replace("element vertex 1", "element") + "0 0 0 1 2 3\n",
        PLY_HEADER.format(n=1) + "0 0 0 1 2 3\n".replace("1", "\u00e9"),  # non-ASCII
        PLY_HEADER.format(n=1) + "0 0 0 1 2 3\n0 0 0 1 2 3\n",  # more rows than announced
        PLY_HEADER.format(n=0) + "\n0 0 0 1 2 3\n",
        PLY_HEADER.format(n=-1),
        PLY_HEADER.format(n=10**12) + "0 0 0 1 2 3\n",  # no room for the rows it announces
        PLY_HEADER.format(n="9" * 5000),  # more digits than int() converts
        # blank lines across the boundaries of 2-row chunks, then a row too many
        PLY_HEADER.format(n=4) + "0 0 0 1 2 3\n0 0 0 1 2 3\n\n \n" * 2 + "0 0 0 1 2 3\n",
        PLY_HEADER.format(n=3) + "0 0 0 1 2 3\n0 0 0 1 2 3\n\n0 0 0 1 2\n",  # ragged in chunk 2
        PLY_HEADER.format(n=3) + "0 0 0 1 2 3\n0 0 0 1 2 3\n0 0 0 1 2 3 4\n",
        PLY_HEADER.format(n=3) + "0 0 0 1 2 3\n0 0 0 1 2 3\n0 0 0 256 2 3\n",
        PLY_HEADER.format(n=5) + "0 0 0 1 2 3\n" * 4 + "\n" * 9,  # a row short, room to spare
    ],
)
@pytest.mark.parametrize("block", [2, pointcloud.POINT_BLOCK])
def test_ply_malformed_input_is_format_error(tmp_path, payload, block):
    path = tmp_path / "bad.ply"
    path.write_bytes(payload.encode("utf-8"))
    tracemalloc.start()
    try:
        with mock.patch.object(pointcloud, "POINT_BLOCK", block), pytest.raises(FormatError):
            read_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # nothing is allocated for rows the file cannot hold


def test_ply_body_across_chunks_parses_as_one_chunk(tmp_path):
    """Chunks of 1, 2 and 3 rows, with blank lines and whitespace-only
    lines at and between their boundaries, read what one chunk reads."""
    rng = np.random.default_rng(11)
    xyz = rng.normal(size=(7, 3))
    rgb = rng.integers(0, 256, (7, 3), dtype=np.uint8)
    path = tmp_path / "c.ply"
    write_ply(cloud_of(xyz, rgb), path)
    head, body = path.read_text().split("end_header\n")
    rows = body.splitlines(keepends=True)
    gaps = ["", "\n", " \t\n", "\n\n", "", "\n", "", "\n"]
    path.write_text(head + "end_header\n" + "".join(g + r for g, r in zip(gaps, rows)) + gaps[-1])
    whole = read_ply(path)
    assert np.array_equal(whole.rgb, rgb) and np.allclose(whole.xyz, xyz, atol=1e-8)
    for block in (1, 2, 3):
        with mock.patch.object(pointcloud, "POINT_BLOCK", block), warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of blank lines under max_rows
            chunked = read_ply(path)
        assert np.array_equal(chunked.xyz, whole.xyz) and np.array_equal(chunked.rgb, whole.rgb)


def test_read_ply_streams_its_body(tmp_path):
    """The traced peak of reading 100k points stays below 0.8 times the
    file's size: the cloud's arrays (0.57 times) and one block of rows,
    without the vertex table and its column copies (2.7 times) or the
    file's text held whole beside them (about 5 times)."""
    rng = np.random.default_rng(5)
    n = 100_000
    path = tmp_path / "big.ply"
    write_ply(PointCloud(rng.normal(size=(n, 3)), rng.integers(0, 256, (n, 3), dtype=np.uint8)),
              path)
    tracemalloc.start()
    try:
        cloud = read_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) == n
    assert peak < 0.8 * path.stat().st_size, f"peak {peak / path.stat().st_size:.2f} x the file"


# ------------------------------------------------------------------- PMF


def grid_plane(n=40, spacing=0.01, z=0.0):
    xs, ys = np.meshgrid(np.arange(n) * spacing, np.arange(n) * spacing)
    return np.stack([xs.ravel(), ys.ravel(), np.full(n * n, z)], axis=1)


def box_points(x0, y0, size=0.06, height=0.10, spacing=0.008, z_min=0.02):
    """Top face plus four side walls; side points start above z_min."""
    pts = []
    ticks = np.arange(0.0, size + 1e-9, spacing)
    for dx in ticks:
        for dy in ticks:
            pts.append((x0 + dx, y0 + dy, height))
    zs = np.arange(z_min, height, spacing)
    for t in ticks:
        for z in zs:
            pts.append((x0 + t, y0, z))
            pts.append((x0 + t, y0 + size, z))
            pts.append((x0, y0 + t, z))
            pts.append((x0 + size, y0 + t, z))
    return np.array(pts)


def test_pmf_flat_plane_all_ground():
    mask = progressive_morphological_filter(cloud_of(grid_plane()))
    assert mask.all()


def test_pmf_flat_plane_all_ground_other_params():
    for params in (
        PmfParams(cell_size=0.02, max_window=8),
        PmfParams(initial_window=2, slope=0.5),
        PmfParams(initial_height_threshold=0.002, max_height_threshold=0.02),
    ):
        mask = progressive_morphological_filter(cloud_of(grid_plane()), params)
        assert mask.all()


def test_pmf_tilted_plane_all_ground():
    pts = grid_plane()
    pts[:, 2] = 0.05 * pts[:, 0]  # gentle 5% slope
    mask = progressive_morphological_filter(cloud_of(pts))
    assert mask.all()


def test_pmf_separates_box_from_plane():
    plane = grid_plane()
    box = box_points(0.15, 0.15)
    pts = np.vstack([plane, box])
    mask = progressive_morphological_filter(cloud_of(pts))
    plane_part = mask[: len(plane)]
    box_part = mask[len(plane) :]
    assert plane_part.mean() >= 0.99
    assert (~box_part).mean() >= 0.99


def test_pmf_refuses_a_grid_beyond_its_bound_before_allocating():
    """1,000 points over 0.5 m at a cell of 1e-7 m would ask for 2.5e13
    float64 heights (181 TiB); a subnormal cell counts infinitely many."""
    rng = np.random.default_rng(4)
    cloud = cloud_of(np.column_stack([rng.uniform(0, 0.5, (1000, 2)), np.zeros(1000)]))
    for cell_size, cells in ((1e-7, r"2\.\d+e\+13"), (1e-320, "inf")):
        tracemalloc.start()
        try:
            message = rf"cell_size 1e-.*: {cells} grid cells, max 4194304"
            with pytest.raises(ValidationError, match=message):
                progressive_morphological_filter(cloud, PmfParams(cell_size=cell_size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # a grid of the bound's size is taken
    side = math.isqrt(pointcloud.MAX_PMF_CELLS) - 1
    params = PmfParams(cell_size=0.5 / side, max_window=1)
    assert progressive_morphological_filter(cloud, params).shape == (1000,)


@pytest.mark.parametrize("shape", [(4, 6), (1, 3), (1, 1)])
def test_pmf_window_matches_clipped_brute_force(shape):
    """The separable window, clamped to the grid, equals the min/max over
    the square neighbourhood intersected with the grid, at any radius."""
    surface = np.random.default_rng(2).normal(size=shape)
    h, w = shape
    for radius in (0, 1, 2, 5, 6, 40):
        for pad, op in ((np.inf, np.min), (-np.inf, np.max)):
            expected = [[op(surface[max(i - radius, 0) : i + radius + 1,
                                    max(j - radius, 0) : j + radius + 1])
                         for j in range(w)] for i in range(h)]
            assert np.array_equal(_windowed(surface, radius, pad, op), expected)


def test_pmf_single_point_is_ground():
    mask = progressive_morphological_filter(cloud_of([[0.0, 0.0, 5.0]]))
    assert mask.tolist() == [True]


def test_pmf_empty_cloud_rejected():
    with pytest.raises(ValidationError, match="empty"):
        progressive_morphological_filter(cloud_of(np.zeros((0, 3))))


# ---------------------------------------------------------------- RANSAC


def test_ransac_exact_plane():
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.uniform(0, 1, 100), rng.uniform(0, 1, 100), np.full(100, 0.02)]
    )
    plane, inliers = ransac_plane(pts, seed=7)
    assert inliers.all()
    assert abs(abs(plane.normal[2]) - 1.0) < 1e-6
    assert abs(abs(plane.offset) - 0.02) < 1e-6


def test_ransac_too_few_points():
    with pytest.raises(ValidationError, match=">= 3"):
        ransac_plane(np.zeros((2, 3)))


@pytest.mark.parametrize("settings", [{"n_iterations": 0}, {"distance_threshold": 0.0},
                                      {"distance_threshold": -1.0},
                                      {"distance_threshold": math.nan}])
def test_ransac_rejects_settings_that_fit_no_plane(settings):
    # a threshold of 0 would fit a plane to one point, and a negative one
    # would have no inliers to refit
    pts = np.column_stack([np.arange(9.0) % 3, np.arange(9.0) // 3, np.zeros(9)])
    with pytest.raises(ValidationError, match="n_iterations >= 1 and distance_threshold > 0"):
        ransac_plane(pts, **settings)


@pytest.mark.parametrize("normal, offset", [((1.0, 0.0, 0.0), math.nan),
                                            ((1.0, 0.0, 0.0), math.inf),
                                            ((math.nan, 0.0, 0.0), 0.0)])
def test_plane_rejects_nonfinite_values(normal, offset):
    with pytest.raises(ValidationError, match="plane (normal|offset)"):
        Plane(normal=np.array(normal), offset=offset)


def test_ransac_collinear_points():
    pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    with pytest.raises(ValidationError, match="collinear|degenerate"):
        ransac_plane(pts, n_iterations=50, seed=1)


def test_ransac_outliers_excluded():
    rng = np.random.default_rng(1)
    plane_pts = np.column_stack(
        [rng.uniform(0, 1, 80), rng.uniform(0, 1, 80), np.zeros(80)]
    )
    outliers = rng.uniform(0.5, 1.0, (20, 3))
    outliers[:, 2] += 0.5  # far above the plane
    pts = np.vstack([plane_pts, outliers])
    plane, inliers = ransac_plane(pts, seed=3)
    assert inliers[:80].all()
    assert not inliers[80:].any()


def test_ransac_deterministic_and_permutation_invariant():
    rng = np.random.default_rng(2)
    plane_pts = np.column_stack(
        [rng.uniform(0, 1, 60), rng.uniform(0, 1, 60), np.zeros(60)]
    )
    outliers = rng.uniform(0, 1, (15, 3)) + np.array([0, 0, 0.4])
    pts = np.vstack([plane_pts, outliers])
    plane_a, inl_a = ransac_plane(pts, seed=11)
    plane_b, inl_b = ransac_plane(pts, seed=11)
    assert np.array_equal(inl_a, inl_b)
    assert np.array_equal(plane_a.normal, plane_b.normal)

    perm = rng.permutation(len(pts))
    plane_c, inl_c = ransac_plane(pts[perm], seed=5)
    assert np.array_equal(inl_c, inl_a[perm])  # same inlier set after refit
    assert np.allclose(np.abs(plane_c.normal), np.abs(plane_a.normal), atol=1e-9)


# ------------------------------------------------------------- clustering


def test_clusters_empty_input():
    assert euclidean_clusters(np.zeros((0, 3))).size == 0


def test_clusters_two_blobs():
    rng = np.random.default_rng(4)
    blob1 = rng.normal(0.0, 0.002, (50, 3))
    blob2 = rng.normal(0.0, 0.002, (50, 3)) + np.array([0.5, 0, 0])
    pts = np.vstack([blob1, blob2])
    labels = euclidean_clusters(pts, radius=0.01, min_points=30)
    assert set(labels[:50]) == {1}
    assert set(labels[50:]) == {2}


def test_clusters_small_blob_discarded():
    rng = np.random.default_rng(5)
    pts = rng.normal(0.0, 0.001, (10, 3))
    labels = euclidean_clusters(pts, radius=0.01, min_points=30)
    assert (labels == 0).all()


def test_clusters_numbering_by_lowest_index():
    far = np.array([[1.0, 0, 0]])
    near = np.array([[0.0, 0, 0]])
    pts = np.vstack([far, near])  # index 0 is the "far" blob
    labels = euclidean_clusters(pts, radius=0.01, min_points=1)
    assert labels.tolist() == [1, 2]


def brute_force_clusters(pts, radius, min_points):
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pts[i] - pts[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    labels = np.zeros(n, dtype=np.int64)
    next_id = 1
    for _, members in sorted(groups.items(), key=lambda kv: min(kv[1])):
        if len(members) >= min_points:
            labels[members] = next_id
            next_id += 1
    return labels


def test_clusters_agree_with_union_find_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pts = rng.uniform(0, 0.2, (200, 3))
        got = euclidean_clusters(pts, radius=0.02, min_points=3)
        want = brute_force_clusters(pts, radius=0.02, min_points=3)
        assert np.array_equal(got, want)


def test_clusters_agree_with_union_find_oracle_across_point_blocks(monkeypatch):
    monkeypatch.setattr(pointcloud, "POINT_BLOCK", 7)
    pts = np.random.default_rng(7).uniform(0, 0.2, (200, 3))
    got = euclidean_clusters(pts, radius=0.02, min_points=3)
    assert np.array_equal(got, brute_force_clusters(pts, radius=0.02, min_points=3))


def query_pairs_clusters(pts, radius, min_points):
    """One-shot reference: every radius pair from one query, kept on its
    exact d2, and one component labelling of the whole graph."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    pairs = cKDTree(pts).query_pairs(radius * (1 + 1e-9), output_type="ndarray")
    diff = pts[pairs[:, 1]] - pts[pairs[:, 0]]
    pairs = pairs[np.einsum("ij,ij->i", diff, diff) <= radius * radius]
    n = len(pts)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    kept = np.bincount(comp) >= min_points
    return np.where(kept, np.cumsum(kept), 0)[comp]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chains=st.integers(1, 6), length=st.integers(1, 12),
       block=st.integers(1, 9), min_points=st.integers(1, 6), lattice=st.booleans())
def test_clusters_across_point_blocks_match_one_query(seed, chains, length, block, min_points,
                                                      lattice):
    """Chains of points closer than the radius, shuffled so that each chain
    crosses block boundaries, plus strays; on a lattice, the steps are
    exactly the radius."""
    rng = np.random.default_rng(seed)
    radius = 0.25 if lattice else 0.02
    if lattice:
        axes = np.eye(3)[rng.integers(0, 3, (chains, length))]
        steps = rng.integers(-1, 2, (chains, length, 3)) * axes * radius
        pts = rng.integers(0, 6, (chains, 1, 3)) * radius + np.cumsum(steps, axis=1)
    else:
        steps = rng.normal(size=(chains, length, 3))
        steps /= np.linalg.norm(steps, axis=2, keepdims=True)
        steps *= rng.uniform(0.2, 1.0, (chains, length, 1)) * radius
        pts = rng.uniform(0, 0.3, (chains, 1, 3)) + np.cumsum(steps, axis=1)
    pts = np.vstack([pts.reshape(-1, 3), rng.uniform(0, 1.5 if lattice else 0.3, (length, 3))])
    pts = pts[rng.permutation(len(pts))]
    with mock.patch.object(pointcloud, "POINT_BLOCK", block):
        got = euclidean_clusters(pts, radius=radius, min_points=min_points)
    assert np.array_equal(got, query_pairs_clusters(pts, radius, min_points))


def test_clusters_peak_is_bounded_by_the_pair_count():
    """The traced peak stays below 16 bytes per radius pair: one block's
    pairs and the graph folded to an edge per point, not every pair at
    once (74 bytes per pair when all pairs were filtered at once, 35 while
    every int32 edge was kept; 13 now)."""
    from scipy.spatial import cKDTree

    pts = np.random.default_rng(8).random((20_000, 3))
    pairs = len(cKDTree(pts).query_pairs(0.06, output_type="ndarray"))
    assert pairs > 10 * pointcloud.POINT_BLOCK
    euclidean_clusters(pts[:100], radius=0.06)  # scipy's first-call allocations
    tracemalloc.start()
    try:
        labels = euclidean_clusters(pts, radius=0.06, min_points=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.max() >= 1
    assert peak < 16 * pairs, f"peak {peak / pairs:.1f} bytes per pair"


# ------------------------------------------------------------- projection


def identity_camera(width=100, height=100, f=100.0, c=50.0):
    return CameraModel(
        width=width, height=height, fx=f, fy=f, cx=c, cy=c, extrinsic=np.eye(4)
    )


def test_project_center_point():
    cam = identity_camera()
    proj = project(cloud_of([[0.0, 0.0, 1.0]]), cam)
    assert proj.u[0] == pytest.approx(50.0)
    assert proj.v[0] == pytest.approx(50.0)
    assert proj.depth[0] == pytest.approx(1.0)
    assert proj.in_frame[0]


def test_projection_pins_no_homogeneous_product():
    # each array is its own, not a view that keeps the N x 4 product alive
    proj = project(cloud_of([[0.0, 0.0, 1.0], [0.5, 0.0, 2.0]]), identity_camera())
    assert proj.depth.tolist() == [1.0, 2.0]
    assert all(a.base is None for a in (proj.u, proj.v, proj.depth, proj.in_frame))


@pytest.mark.parametrize("block", [2, 3, 7])
def test_project_in_blocks_rounds_as_one_product(block):
    """Every block, the last one too, rounds as the whole cloud's
    homogeneous product does, whatever the remainder of the cloud's size
    (numpy multiplies a lone row another way, which differs in the last
    bit for about half of these points)."""
    rng = np.random.default_rng(block)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ext = np.eye(4)
    ext[:3, :3] = rot * np.sign(np.linalg.det(rot))
    ext[:3, 3] = rng.normal(size=3)
    cam = CameraModel(width=120, height=90, fx=80.0, fy=85.0, cx=0.0, cy=0.0, extrinsic=ext)
    for n in range(1, 23):
        pts = rng.normal(size=(n, 3))
        x, y, z = (np.hstack([pts, np.ones((n, 1))]) @ cam.extrinsic.T)[:, :3].T
        with mock.patch.object(pointcloud, "POINT_BLOCK", block):
            proj = project(cloud_of(pts), cam)
        assert np.array_equal(proj.u, cam.fx * x / z)
        assert np.array_equal(proj.v, cam.fy * y / z)
        assert np.array_equal(proj.depth, z)


def test_project_behind_camera():
    cam = identity_camera()
    proj = project(cloud_of([[0.0, 0.0, -1.0]]), cam)
    assert not proj.in_frame[0]


def test_project_off_axis():
    cam = identity_camera()
    proj = project(cloud_of([[0.5, 0.0, 1.0]]), cam)
    assert proj.u[0] == pytest.approx(100.0)
    # u == width falls outside the [0, width) frame
    assert not proj.in_frame[0]


def rotated_camera():
    angle = 0.3
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    ext = np.eye(4)
    ext[:3, :3] = rot
    ext[:3, 3] = [0.1, -0.2, 0.5]
    return CameraModel(
        width=120, height=90, fx=80.0, fy=85.0, cx=60.0, cy=45.0, extrinsic=ext
    )


def test_project_back_project_round_trip():
    cam = rotated_camera()
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, (200, 3)) + np.array([0, 0, 1.5])
    proj = project(cloud_of(pts), cam)
    world = back_project(cam, proj.u, proj.v, proj.depth)
    assert np.abs(world - pts).max() < 1e-9


def test_camera_json_round_trip(tmp_path):
    cam = rotated_camera()
    path = tmp_path / "camera.json"
    save_camera(cam, path)
    back = load_camera(path)
    assert back.width == cam.width and back.fy == cam.fy
    assert np.allclose(back.extrinsic, cam.extrinsic)


def test_camera_rejects_non_rotation():
    ext = np.eye(4)
    ext[0, 0] = 2.0
    with pytest.raises(ValidationError, match="orthonormal"):
        CameraModel(width=8, height=8, fx=1, fy=1, cx=4, cy=4, extrinsic=ext)


def test_camera_rejects_reflection():
    ext = np.eye(4)
    ext[0, 0] = -1.0  # det -1
    with pytest.raises(ValidationError, match="det"):
        CameraModel(width=8, height=8, fx=1, fy=1, cx=4, cy=4, extrinsic=ext)


# ------------------------------------------------- k-NN label projection


def plane_camera(width, height):
    """Camera that maps the point (x, y, 1) to the pixel position (x, y)."""
    return CameraModel(
        width=width, height=height, fx=1.0, fy=1.0, cx=0.0, cy=0.0, extrinsic=np.eye(4)
    )


def labeled_at(uv, rng):
    """Random labels for points at pixel positions ``uv``, depth 1."""
    n = len(uv)
    obj = rng.random(n) < 0.5
    return LabeledPointCloud(
        cloud=cloud_of(np.column_stack([uv, np.ones(n)])),
        object_flag=obj,
        instance_id=np.where(obj, rng.integers(1, 4, n), 0),
        part_id=np.where(obj, rng.integers(0, 3, n), 0),
        table_flag=~obj & (rng.random(n) < 0.7),
    )


def tie_heavy_scene(rng, width, height, n):
    """Points on the integer and half-integer grid, a quarter duplicated."""
    uv = rng.integers(0, 2 * width, (n, 2)) / 2.0
    uv[:, 1] %= height
    uv = np.vstack([uv, uv[rng.integers(0, n, n // 4)]])
    return labeled_at(uv, rng)


def projection_oracle(labeled, width, height, config):
    """Brute force: rank by (distance, point index), then vote per channel
    with ties going to the earliest-ranked supporter."""
    uv = labeled.cloud.xyz[:, :2]
    inside = (uv[:, 0] < width) & (uv[:, 1] < height)
    idx = np.nonzero(inside)[0]
    values = (
        np.where(
            labeled.object_flag,
            config.object_class_id,
            np.where(labeled.table_flag, config.background_class_id, 0),
        ),
        labeled.instance_id,
        labeled.part_id,
    )
    maps = np.zeros((3, height, width), dtype=np.uint16)
    for row in range(height):
        for col in range(width):
            d2 = ((uv[idx] - (col, row)) ** 2).sum(axis=1)
            ranked = sorted(range(len(idx)), key=lambda j: (d2[j], idx[j]))
            ranked = ranked[: config.knn_k]
            if not ranked or np.sqrt(d2[ranked[0]]) > config.max_pixel_radius:
                continue
            for channel, vals in enumerate(values):
                labels = [int(vals[idx[j]]) for j in ranked]
                best = max(labels.count(label) for label in labels)
                maps[channel, row, col] = next(
                    label for label in labels if labels.count(label) == best
                )
    return maps


def assert_matches_projection_oracle(labeled, width, height, config):
    triple = project_labels(labeled, plane_camera(width, height), config)
    want = projection_oracle(labeled, width, height, config)
    got = np.stack([triple.semantic_map, triple.instance_map, triple.part_map])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("knn_k", range(1, 8))
def test_project_labels_matches_oracle_on_ties(knn_k):
    rng = np.random.default_rng(100 + knn_k)
    for radius in (1.0, 1.5, 3.0):
        labeled = tie_heavy_scene(rng, 12, 9, int(rng.integers(3, 40)))
        config = RgbdLabelConfig(
            object_class_id=1, background_class_id=4, knn_k=knn_k, max_pixel_radius=radius
        )
        assert_matches_projection_oracle(labeled, 12, 9, config)


def test_project_labels_knn_k_above_point_count():
    rng = np.random.default_rng(11)
    uv = np.vstack([rng.integers(0, 16, (8, 2)) / 2.0, [[20.0, 3.0], [3.0, 20.0]]])
    labeled = labeled_at(uv, rng)  # 8 points in frame, 2 outside
    config = RgbdLabelConfig(
        object_class_id=1, background_class_id=4, knn_k=20, max_pixel_radius=4.0
    )
    assert_matches_projection_oracle(labeled, 10, 8, config)


def test_project_labels_knn_k_64():
    rng = np.random.default_rng(12)
    labeled = tie_heavy_scene(rng, 10, 8, 80)
    config = RgbdLabelConfig(
        object_class_id=1, background_class_id=4, knn_k=64, max_pixel_radius=2.0
    )
    assert_matches_projection_oracle(labeled, 10, 8, config)


def test_project_labels_rejects_ids_beyond_16_bits():
    labeled = labeled_at(np.array([[1.0, 1.0]]), np.random.default_rng(14))
    labeled = LabeledPointCloud(
        cloud=labeled.cloud,
        object_flag=np.array([True]),
        instance_id=np.array([70000]),
        part_id=np.array([0]),
        table_flag=np.array([False]),
    )
    config = RgbdLabelConfig(object_class_id=1, background_class_id=4)
    with pytest.raises(ValidationError, match="16 bits"):
        project_labels(labeled, plane_camera(4, 4), config)


def test_clusters_radius_is_inclusive_on_lattice():
    radius = 0.25
    rng = np.random.default_rng(13)
    # lattice points exactly ``radius`` apart, with holes and duplicates
    pts = rng.integers(0, 8, (60, 3)) * radius
    pts = np.vstack([pts, pts[:10]])
    got = euclidean_clusters(pts, radius=radius, min_points=2)
    assert np.array_equal(got, brute_force_clusters(pts, radius, 2))

    chain = np.column_stack([np.arange(5) * radius, np.zeros(5), np.zeros(5)])
    assert euclidean_clusters(chain, radius=radius, min_points=2).tolist() == [1] * 5
    below = np.nextafter(radius, 0.0)
    assert euclidean_clusters(chain, radius=below, min_points=2).tolist() == [0] * 5


@pytest.mark.parametrize("window", [{"initial_window": 1.5}, {"max_window": 16.0}])
def test_pmf_params_reject_non_integer_windows(window):
    with pytest.raises(ValidationError, match="integers"):
        PmfParams(**window)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy", "extrinsic"])
def test_camera_rejects_non_finite_intrinsics(name, value):
    ext = np.eye(4)
    ext[0, 3] = value
    fields = dict(width=8, height=8, fx=1.0, fy=1.0, cx=4.0, cy=4.0, extrinsic=np.eye(4))
    fields[name] = ext if name == "extrinsic" else value
    with pytest.raises(ValidationError, match="finite"):
        CameraModel(**fields)
