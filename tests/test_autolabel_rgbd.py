
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfuse.autolabel_monitor import MonitorLabelConfig, load_monitor_config
from partfuse.autolabel_rgbd import (
    LabeledPointCloud,
    PartColorRule,
    RgbdLabelConfig,
    _majority,
    generate_rgbd_sample,
    label_parts,
    load_rgbd_config,
    ordered_part_rules,
    project_labels,
    rule_part_ids,
    segment_objects,
)
from partfuse.errors import ValidationError
from partfuse.imaging import HsvRange, rgb_to_hsv
from partfuse.pointcloud import PointCloud, project
from partfuse.taxonomy import validate_taxonomy

from conftest import BAG, CENTER, HOSPITAL_TAXONOMY, OTHER, SEAL, TABLE
from scenes import (
    SEAL_RANGE,
    back_project,
    build_rgbd_scene,
    overhead_camera,
    plane_points,
    rgbd_config,
    scene_image,
)


def check_labeled_invariants(labeled: LabeledPointCloud):
    assert ((labeled.part_id != 0) <= labeled.object_flag).all()
    assert ((labeled.instance_id != 0) == labeled.object_flag).all()
    assert not (labeled.table_flag & labeled.object_flag).any()


def test_segment_objects_two_boxes():
    cloud, truth, _ = build_rgbd_scene(seed=1)
    labeled = segment_objects(cloud, rgbd_config(seed=1))
    check_labeled_invariants(labeled)
    assert labeled.instance_id.max() == 2
    # cluster ids follow the construction order (box1 indexed first)
    predicted = labeled.instance_id
    accuracy = (predicted == truth).mean()
    assert accuracy >= 0.99


def test_segment_objects_plane_only():
    cloud, _, _ = build_rgbd_scene(seed=2, with_boxes=False)
    labeled = segment_objects(cloud, rgbd_config(seed=2))
    check_labeled_invariants(labeled)
    assert labeled.instance_id.max() == 0
    assert labeled.table_flag.mean() > 0.999


def test_segment_objects_speck_discarded():
    plane = plane_points()
    speck = np.tile([[0.3, 0.3, 0.08]], (5, 1)) + np.random.default_rng(3).normal(
        0, 0.001, (5, 3)
    )
    xyz = np.vstack([plane, speck])
    cloud = PointCloud(xyz, np.zeros_like(xyz, dtype=np.uint8))
    labeled = segment_objects(cloud, rgbd_config())
    assert labeled.instance_id.max() == 0
    assert not labeled.object_flag[-5:].any()
    # the speck is background but not on the plane: it will vote void
    assert not labeled.table_flag[-5:].any()


def test_segment_objects_empty_cloud():
    cloud = PointCloud(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(ValidationError, match="empty"):
        segment_objects(cloud, rgbd_config())


def hand_labeled(colors, flags):
    n = len(colors)
    xyz = np.zeros((n, 3))
    xyz[:, 0] = np.arange(n)  # keep points distinct
    obj = np.asarray(flags, dtype=bool)
    inst = obj.astype(np.int64)
    return LabeledPointCloud(
        cloud=PointCloud(xyz, np.asarray(colors, dtype=np.uint8)),
        object_flag=obj,
        instance_id=inst,
        part_id=np.zeros(n, dtype=np.int64),
        table_flag=~obj,
    )


def test_label_parts_color_rule():
    labeled = hand_labeled(
        [(220, 30, 30), (235, 235, 235), (120, 120, 120)], [True, True, False]
    )
    rules = (PartColorRule(part_id=SEAL, hsv_range=SEAL_RANGE, priority=1),)
    out = label_parts(labeled, rules, catchall_part_id=OTHER)
    assert out.part_id.tolist() == [SEAL, OTHER, 0]
    check_labeled_invariants(out)


def test_label_parts_no_rules():
    labeled = hand_labeled([(220, 30, 30), (10, 10, 10)], [True, True])
    out = label_parts(labeled, ())
    assert out.part_id.tolist() == [0, 0]


def test_label_parts_priority_wins():
    wide = HsvRange()  # matches everything
    rules = (
        PartColorRule(part_id=CENTER, hsv_range=wide, priority=1),
        PartColorRule(part_id=SEAL, hsv_range=SEAL_RANGE, priority=2),
    )
    labeled = hand_labeled([(220, 30, 30), (235, 235, 235)], [True, True])
    out = label_parts(labeled, rules)
    assert out.part_id.tolist() == [SEAL, CENTER]


def label_parts_per_point(labeled, rules, catchall):
    """Reference: convert each object point's colour on its own and take
    the first matching rule in descending priority."""
    order = sorted(range(len(rules)), key=lambda i: (-rules[i].priority, i))
    parts = []
    for rgb, is_object in zip(labeled.cloud.rgb, labeled.object_flag):
        h, s, v = rgb_to_hsv(rgb)
        hits = (rules[i].part_id for i in order if rules[i].hsv_range.contains(h, s, v))
        parts.append(next(hits, catchall) if is_object else 0)
    return parts


@pytest.mark.parametrize("seed", range(4))
def test_label_parts_matches_per_point_oracle(seed):
    rng = np.random.default_rng(seed)
    palette = rng.integers(0, 256, (int(rng.integers(1, 40)), 3))
    colors = palette[rng.integers(0, len(palette), 300)]
    labeled = hand_labeled(colors, rng.random(300) < 0.8)
    h, s, v = rgb_to_hsv(labeled.cloud.rgb)
    rules = []
    for part_id in (SEAL, CENTER, OTHER, SEAL):
        pick = rng.integers(0, 300, 4)  # bounds on present values; may wrap
        hsv_range = HsvRange(h_min=h[pick[0]], h_max=h[pick[1]], s_min=s[pick[2]], v_max=v[pick[3]])
        rules.append(PartColorRule(part_id, hsv_range, priority=int(rng.integers(0, 3))))
    out = label_parts(labeled, rules, catchall_part_id=OTHER)
    assert out.part_id.tolist() == label_parts_per_point(labeled, rules, OTHER)
    check_labeled_invariants(out)


def rule_part_ids_per_colour(colors, rules, catchall):
    """Reference: convert each colour on its own and take the part id of
    the first rule that holds it, in ``ordered_part_rules`` order."""
    parts = []
    for rgb in colors:
        h, s, v = rgb_to_hsv(rgb)
        hits = (r.part_id for r in ordered_part_rules(rules) if r.hsv_range.contains(h, s, v))
        parts.append(next(hits, catchall))
    return parts


@st.composite
def colours_and_rules(draw):
    """uint8 colours, and 2-5 rules whose bounds are often the HSV of a
    drawn colour, so ranges overlap, wrap through hue 0 when h_min > h_max,
    and share priorities and part ids."""
    colors = np.array(
        draw(st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=1, max_size=64)),
        dtype=np.uint8,
    )
    present = [sorted(set(channel.tolist())) for channel in rgb_to_hsv(colors)]

    def bound(channel, top):
        seen = st.sampled_from(present[channel])
        return draw(seen | st.floats(0.0, top, exclude_max=channel == 0))

    rules = []
    for _ in range(draw(st.integers(2, 5))):
        s_lo, s_hi = sorted((bound(1, 1.0), bound(1, 1.0)))
        v_lo, v_hi = sorted((bound(2, 1.0), bound(2, 1.0)))
        hsv_range = HsvRange(h_min=bound(0, 360.0), h_max=bound(0, 360.0),
                             s_min=s_lo, s_max=s_hi, v_min=v_lo, v_max=v_hi)
        part_id = draw(st.sampled_from((SEAL, CENTER, OTHER)))
        rules.append(PartColorRule(part_id, hsv_range, priority=draw(st.integers(0, 2))))
    return colors, rules, draw(st.sampled_from((0, OTHER)))


@settings(max_examples=200, deadline=None)
@given(colours_and_rules())
def test_rule_part_ids_matches_per_colour_oracle(case):
    colors, rules, catchall = case
    expected = rule_part_ids_per_colour(colors, rules, catchall)
    got = rule_part_ids(colors, ordered_part_rules(rules), catchall)
    assert got.tolist() == expected
    # an image of the same colours gets the same ids, pixel by pixel
    image = rule_part_ids(colors[None, ::-1], ordered_part_rules(rules), catchall)
    assert image.tolist() == [expected[::-1]]


def test_rule_part_ids_rejects_ids_beyond_16_bits():
    colors = np.zeros((2, 3), dtype=np.uint8)
    with pytest.raises(ValidationError, match="16 bits"):
        rule_part_ids(colors, [PartColorRule(part_id=70000)])
    with pytest.raises(ValidationError, match="16 bits"):
        rule_part_ids(colors, [], catchall_part_id=-1)


def test_label_parts_unknown_part_rejected(taxonomy):
    labeled = hand_labeled([(220, 30, 30)], [True])
    rules = (PartColorRule(part_id=999, hsv_range=SEAL_RANGE),)
    with pytest.raises(ValidationError, match="unknown part"):
        label_parts(labeled, rules, taxonomy)


def single_point_labeled(u_target, v_target, camera):
    """One object point that projects exactly onto (u_target, v_target)."""
    z = 0.6
    x_cam = (u_target - camera.cx) / camera.fx * z
    y_cam = (v_target - camera.cy) / camera.fy * z
    world = back_project(camera, np.array([u_target]), np.array([v_target]), np.array([z]))
    cloud = PointCloud(world, np.full((1, 3), 200, dtype=np.uint8))
    return LabeledPointCloud(
        cloud=cloud,
        object_flag=np.array([True]),
        instance_id=np.array([1], dtype=np.int64),
        part_id=np.array([SEAL], dtype=np.int64),
        table_flag=np.array([False]),
    )


def test_project_labels_single_point(taxonomy):
    camera = overhead_camera(width=100, height=100)
    labeled = single_point_labeled(50.0, 50.0, camera)
    config = rgbd_config()
    config = RgbdLabelConfig(
        object_class_id=BAG,
        background_class_id=TABLE,
        knn_k=1,
        max_pixel_radius=3.0,
        part_rules=config.part_rules,
        catchall_part_id=OTHER,
    )
    triple = project_labels(labeled, camera, taxonomy, config)
    assert triple.semantic_map[50, 50] == BAG
    assert triple.instance_map[50, 50] == 1
    assert triple.part_map[50, 50] == SEAL
    # pixels farther than the radius stay void
    assert triple.semantic_map[60, 60] == 0
    non_void = np.nonzero(triple.semantic_map)
    assert (np.abs(non_void[0] - 50) <= 3).all()
    assert (np.abs(non_void[1] - 50) <= 3).all()


def labeled_from_rows(rows):
    """rows: list of (x, y, z, object_flag, instance, part, table)."""
    xyz = np.array([[r[0], r[1], r[2]] for r in rows])
    cloud = PointCloud(xyz, np.zeros_like(xyz, dtype=np.uint8))
    return LabeledPointCloud(
        cloud=cloud,
        object_flag=np.array([bool(r[3]) for r in rows]),
        instance_id=np.array([r[4] for r in rows], dtype=np.int64),
        part_id=np.array([r[5] for r in rows], dtype=np.int64),
        table_flag=np.array([bool(r[6]) for r in rows]),
    )


def test_project_labels_majority_vote(taxonomy):
    camera = overhead_camera(width=32, height=32, f=32.0)
    # five points projecting near one pixel: 4 table votes, 1 object vote
    base_u, base_v = 16.0, 16.0
    offsets = [(0.0, 0.0), (0.4, 0.0), (-0.4, 0.0), (0.0, 0.4), (0.0, -0.4)]
    us = np.array([base_u + du for du, _ in offsets])
    vs = np.array([base_v + dv for _, dv in offsets])
    world = back_project(camera, us, vs, np.full(5, 0.7))
    rows = []
    for i, w in enumerate(world):
        is_object = i == 0  # the nearest voter is the object point
        rows.append((w[0], w[1], w[2], is_object, 1 if is_object else 0, 0, not is_object))
    labeled = labeled_from_rows(rows)
    config = RgbdLabelConfig(
        object_class_id=BAG, background_class_id=TABLE, knn_k=5, max_pixel_radius=2.0
    )
    triple = project_labels(labeled, camera, taxonomy, config)
    assert triple.semantic_map[16, 16] == TABLE  # majority wins over nearest
    assert triple.instance_map[16, 16] == 0


def test_project_labels_tie_goes_to_nearest_supporter(taxonomy):
    camera = overhead_camera(width=32, height=32, f=32.0)
    # 2 object votes, 2 table votes, nearest is object
    offsets = [(0.1, 0.0), (0.6, 0.0), (-0.7, 0.0), (0.0, 0.8)]
    flags = [True, True, False, False]
    us = np.array([16.0 + du for du, _ in offsets])
    vs = np.array([16.0 + dv for _, dv in offsets])
    world = back_project(camera, us, vs, np.full(4, 0.7))
    rows = [
        (w[0], w[1], w[2], f, 1 if f else 0, 0, not f)
        for w, f in zip(world, flags)
    ]
    labeled = labeled_from_rows(rows)
    config = RgbdLabelConfig(
        object_class_id=BAG, background_class_id=TABLE, knn_k=4, max_pixel_radius=2.0
    )
    triple = project_labels(labeled, camera, taxonomy, config)
    assert triple.semantic_map[16, 16] == BAG
    assert triple.instance_map[16, 16] == 1


def test_project_labels_no_in_frame_points(taxonomy):
    camera = overhead_camera(width=16, height=16, f=16.0)
    rows = [(5.0, 5.0, 0.0, True, 1, SEAL, False)]  # far outside the view
    labeled = labeled_from_rows(rows)
    config = RgbdLabelConfig(object_class_id=BAG, background_class_id=TABLE)
    triple = project_labels(labeled, camera, taxonomy, config)
    assert (triple.semantic_map == 0).all()
    assert (triple.instance_map == 0).all()


def test_project_labels_point_order_invariant(taxonomy):
    cloud, _, camera = build_rgbd_scene(seed=5)
    config = rgbd_config(seed=5)
    labeled = segment_objects(cloud, config)
    labeled = label_parts(labeled, config.part_rules, taxonomy, config.catchall_part_id)
    triple = project_labels(labeled, camera, taxonomy, config)

    rng = np.random.default_rng(6)
    perm = rng.permutation(len(cloud))
    shuffled = LabeledPointCloud(
        cloud=PointCloud(np.asarray(cloud.xyz)[perm], np.asarray(cloud.rgb)[perm]),
        object_flag=labeled.object_flag[perm],
        instance_id=labeled.instance_id[perm],
        part_id=labeled.part_id[perm],
        table_flag=labeled.table_flag[perm],
    )
    shuffled_triple = project_labels(shuffled, camera, taxonomy, config)
    assert np.array_equal(triple.semantic_map, shuffled_triple.semantic_map)
    assert np.array_equal(triple.instance_map, shuffled_triple.instance_map)
    assert np.array_equal(triple.part_map, shuffled_triple.part_map)


def vote_oracle(labeled, camera, config) -> np.ndarray:
    """Brute force, pixel by pixel: rank every in-frame point by (squared
    distance, index), keep the first k and, unless the first lies beyond
    the radius, give each channel the label with the most votes, a tie
    going to the label whose first vote ranks earliest.  Returns the
    (semantic, instance, part) maps stacked."""
    proj = project(labeled.cloud, camera)
    idx = np.nonzero(proj.in_frame)[0]
    uv = np.stack([proj.u[idx], proj.v[idx]], axis=1)
    values = (
        np.where(
            labeled.object_flag[idx],
            config.object_class_id,
            np.where(labeled.table_flag[idx], config.background_class_id, 0),
        ),
        labeled.instance_id[idx],
        labeled.part_id[idx],
    )
    k = min(config.knn_k, len(idx))
    maps = np.zeros((3, camera.height, camera.width), dtype=np.uint16)
    cols = np.arange(camera.width, dtype=np.float64)
    for row in range(camera.height):
        diff = uv[None, :, :] - np.stack([cols, np.full_like(cols, row)], axis=1)[:, None, :]
        d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        for col in range(camera.width):
            # candidates in index order, so a stable sort ranks ties by index
            near = np.flatnonzero(d2[col] <= kth[col])
            voters = near[np.argsort(d2[col, near], kind="stable")][:k]
            if np.sqrt(d2[col, voters[0]]) > config.max_pixel_radius:
                continue
            for channel, vals in enumerate(values):
                labels, first, counts = np.unique(
                    vals[voters], return_index=True, return_counts=True
                )
                tied = counts == counts.max()
                maps[channel, row, col] = labels[tied][first[tied].argmin()]
    return maps


def stacked(triple) -> np.ndarray:
    return np.stack([triple.semantic_map, triple.instance_map, triple.part_map])


@pytest.fixture(scope="module")
def labeled_scene():
    """The seed-0 test scene, segmented and given parts."""
    cloud, _, camera = build_rgbd_scene(seed=0)
    config = rgbd_config(seed=0)
    labeled = label_parts(
        segment_objects(cloud, config), config.part_rules,
        validate_taxonomy(HOSPITAL_TAXONOMY), config.catchall_part_id,
    )
    return labeled, camera, config


def every_nth_point(labeled: LabeledPointCloud, n: int) -> LabeledPointCloud:
    keep = slice(None, None, n)
    return LabeledPointCloud(
        cloud=PointCloud(np.asarray(labeled.cloud.xyz)[keep], np.asarray(labeled.cloud.rgb)[keep]),
        object_flag=labeled.object_flag[keep],
        instance_id=labeled.instance_id[keep],
        part_id=labeled.part_id[keep],
        table_flag=labeled.table_flag[keep],
    )


# None: more votes than the scene (thinned to every 40th point) has points
@pytest.mark.parametrize("knn_k", [1, 2, 5, 40, None])
def test_project_labels_matches_vote_oracle(taxonomy, labeled_scene, knn_k):
    labeled, camera, config = labeled_scene
    if knn_k is None:
        labeled = every_nth_point(labeled, 40)
        knn_k = int(project(labeled.cloud, camera).in_frame.sum()) + 7
    config = replace(config, knn_k=knn_k)
    triple = project_labels(labeled, camera, taxonomy, config)
    assert (triple.semantic_map != 0).any()
    assert np.array_equal(stacked(triple), vote_oracle(labeled, camera, config))


def majority_by_pairs(labels: np.ndarray) -> np.ndarray:
    """The pairwise rule: count each rank's label over its row, and take
    the label of the first rank with the highest count."""
    counts = (labels[:, :, None] == labels[:, None, :]).sum(axis=2)
    return labels[np.arange(len(labels)), counts.argmax(axis=1)]


@st.composite
def tied_vote_rows(draw):
    """uint16 vote rows, each a shuffle of a few labels that all occur
    equally often; some rows then have one vote redrawn, so one label
    leads or trails by one."""
    labels = draw(st.lists(st.integers(0, 65535), min_size=1, max_size=5, unique=True))
    balanced = labels * draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.permutations(balanced))
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(labels))
        rows.append(row)
    return np.array(rows, dtype=np.uint16)


@settings(max_examples=300, deadline=None)
@given(tied_vote_rows())
def test_majority_matches_pairwise_count_rule(rows):
    assert np.array_equal(_majority(rows), majority_by_pairs(rows))


def test_generate_rgbd_sample_end_to_end(taxonomy):
    cloud, truth, camera = build_rgbd_scene(seed=0)
    config = rgbd_config(seed=0)
    image, triple = generate_rgbd_sample(
        scene_image(camera), cloud, camera, taxonomy, config
    )
    assert set(np.unique(triple.instance_map)) <= {0, 1, 2}
    assert triple.instance_map.max() == 2
    triple.validate(taxonomy)
    # labels consistent with configuration
    inst_pixels = triple.instance_map != 0
    assert (triple.semantic_map[inst_pixels] == BAG).all()
    non_void = triple.semantic_map != 0
    assert (
        np.isin(triple.semantic_map[non_void], (BAG, TABLE))
    ).all()

    labeled = segment_objects(cloud, config)
    labeled = label_parts(labeled, config.part_rules, taxonomy, config.catchall_part_id)
    # the votes themselves: test_project_labels_matches_vote_oracle

    # every emitted instance id is backed by an in-frame projected point
    proj = project(labeled.cloud, camera)
    backed = set(labeled.instance_id[proj.in_frame].tolist())
    emitted = {int(i) for i in np.unique(triple.instance_map) if i != 0}
    assert emitted <= backed


def test_generate_rgbd_sample_plane_only(taxonomy):
    cloud, _, camera = build_rgbd_scene(seed=7, with_boxes=False)
    _, triple = generate_rgbd_sample(
        scene_image(camera), cloud, camera, taxonomy, rgbd_config(seed=7)
    )
    assert (triple.instance_map == 0).all()
    assert set(np.unique(triple.semantic_map)) <= {0, TABLE}


def test_generate_rgbd_sample_dims_checked(taxonomy):
    cloud, _, camera = build_rgbd_scene(seed=8, with_boxes=False)
    wrong = np.zeros((10, 10, 3), dtype=np.uint8)
    with pytest.raises(ValidationError, match="camera"):
        generate_rgbd_sample(wrong, cloud, camera, taxonomy, rgbd_config())


@pytest.mark.parametrize("loader, config", [
    (load_rgbd_config, {"object_class_id": 1, "part_rules": [{"part_id": SEAL, "hsv_range": 5}]}),
    (load_rgbd_config, {"object_class_id": 1, "part_rules": [{"part_id": SEAL, "hsv_range": [0]}]}),
    (load_monitor_config, {"object_class_id": 1, "blue_range": [200, 260]}),
    (load_monitor_config, {"object_class_id": 1, "black_range": "dark"}),
])
def test_config_hsv_range_must_be_an_object(loader, config):
    with pytest.raises(ValidationError, match="HSV range must be a JSON object"):
        loader(config)


def test_config_hsv_range_defaults_fill_missing_bounds():
    (rule,) = load_rgbd_config({"object_class_id": 1, "part_rules": [
        {"part_id": SEAL, "hsv_range": {"h_min": 345, "h_max": 15, "s_min": 0.5, "v_min": 0.3}},
    ]}).part_rules
    assert rule.hsv_range == SEAL_RANGE


@pytest.mark.parametrize("loader, config, key", [
    (load_rgbd_config, {"part_rules": [
        {"part_id": SEAL, "hsv_range": {"h_min": 345, "note": "seal"}}]}, "note"),
    (load_rgbd_config, {"part_rules": [{"part_id": SEAL, "colour": "red"}]}, "colour"),
    (load_rgbd_config, {"pmf": {"cell": 0.01}}, "cell"),
    (load_monitor_config, {"blue_range": {"h_min": 200, "hue": 1}}, "hue"),
])
def test_config_rejects_unknown_nested_keys(loader, config, key):
    with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
        loader({"object_class_id": 1, **config})


@pytest.mark.parametrize("loader, config", [
    (load_rgbd_config, {"ransac_iterations": 500.0}),
    (load_rgbd_config, {"seed": True}),
    (load_rgbd_config, {"pmf": {"initial_window": 1.5}}),
    (load_rgbd_config, {"part_rules": {"part_id": SEAL}}),
    (load_monitor_config, {"closing_window": "5"}),
    (load_monitor_config, {"object_class_id": None}),
])
def test_config_values_take_their_json_type(loader, config):
    with pytest.raises(ValidationError, match="malformed"):
        loader({"object_class_id": 1, **config})


def test_config_loaders_take_the_dataclass_defaults():
    # top-level keys of other readers (run settings) are ignored
    raw = {"object_class_id": BAG, "taxonomy": "t.json", "jobs": 2}
    assert load_rgbd_config(raw) == RgbdLabelConfig(object_class_id=BAG)
    assert load_monitor_config(raw) == MonitorLabelConfig(object_class_id=BAG)
    (rule,) = load_rgbd_config({**raw, "part_rules": [{"part_id": SEAL}]}).part_rules
    assert rule == PartColorRule(part_id=SEAL, hsv_range=HsvRange())
