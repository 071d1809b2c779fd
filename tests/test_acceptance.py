"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from partfuse import formats
from partfuse.autolabel_monitor import (
    composite_synthetic,
    extract_part_masks,
    extract_reference_mask,
)
from partfuse.autolabel_rgbd import label_parts, project_labels, segment_objects
from partfuse.cli import main
from partfuse.containers import LogitStack
from partfuse.fusion import (
    FusionParams,
    agreement_part_sem,
    agreement_sem_inst,
    fuse,
    part_wise_fuse,
    semantic_wise_fuse,
    sigmoid_rescaled,
)
from partfuse.formats import read_pnm, write_pnm
from partfuse.metrics import aggregate_dataset, match_segments, part_pq
from partfuse.overlay import default_overlay_spec, instance_boxes, render_overlay
from partfuse.taxonomy import validate_taxonomy

from conftest import BAG, BOTTLE, OTHER, SEAL, TABLE, make_triple
from scenes import build_rgbd_scene, rgbd_config, write_fuse_sample, write_ply, write_tensor
from test_autolabel_monitor import disk_scene, monitor_config
from test_autolabel_rgbd import stacked, vote_oracle
from test_cli import (
    tree_bytes,
    write_augment_dataset,
    write_monitor_dataset,
    write_rgbd_config,
    write_rgbd_scene_dir,
)
from test_fusion_pipeline import conflict_fixture
from test_metrics import assert_report_matches_oracle, build_part_scene, random_triple


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_fusion_math():
    with criterion(1, "fusion math closed forms and identities"):
        started = time.perf_counter()
        xs = np.linspace(-20.0, 20.0, 1000)
        assert np.abs(sigmoid_rescaled(xs) - np.tanh(xs / 2.0)).max() < 1e-12

        rng = np.random.default_rng(12345)
        a = rng.normal(scale=5.0, size=10_000)
        b = rng.normal(scale=5.0, size=10_000)
        assert np.abs(agreement_part_sem(a, -a)).max() < 1e-9
        assert np.abs(
            agreement_part_sem(a, b) - agreement_part_sem(b, a)
        ).max() < 1e-12

        assert abs(agreement_part_sem(2.0, 2.0) - 6.0927534) < 1e-6
        assert abs(agreement_sem_inst(2.0, 2.0) - 7.0463766) < 1e-6
        assert time.perf_counter() - started < 1.0


def test_criterion_2_structural_identity():
    with criterion(2, "single-part taxonomy: enhanced semantic == enhanced part"):
        tax = validate_taxonomy(
            {
                "semantic_classes": [
                    {"id": 1, "name": "a", "is_thing": True},
                    {"id": 2, "name": "b", "is_thing": True},
                    {"id": 3, "name": "c", "is_thing": False},
                ],
                "part_classes": [
                    {"id": 11, "name": "pa", "parent_semantic_id": 1},
                    {"id": 12, "name": "pb", "parent_semantic_id": 2},
                    {"id": 13, "name": "pc", "parent_semantic_id": 3},
                ],
            }
        )
        rng = np.random.default_rng(77)
        for _ in range(100):
            stack = LogitStack(
                semantic_logits=rng.normal(size=(3, 8, 8)),
                part_logits=rng.normal(size=(3, 8, 8)),
                semantic_channel_ids=(1, 2, 3),
                part_channel_ids=(11, 12, 13),
            )
            # each semantic channel, enhanced by its one part, equals that
            # part enhanced by its parent, exactly
            semantic = dict(zip(stack.semantic_channel_ids, stack.semantic_logits))
            parts = dict(zip(stack.part_channel_ids, stack.part_logits))
            enhanced_sem = np.stack(
                [
                    semantic_wise_fuse(semantic[c], [parts[p.id] for p in tax.parts_of(c)])
                    for c in stack.semantic_channel_ids
                ]
            )
            enhanced_part = agreement_part_sem(stack.part_logits, stack.semantic_logits)
            assert np.array_equal(enhanced_sem, enhanced_part)  # exact
            part_map = part_wise_fuse(semantic, sorted(parts.items()), tax)
            assert np.array_equal(part_map, np.array([11, 12, 13])[enhanced_sem.argmax(axis=0)])


def test_criterion_3_ablation_contracts():
    with criterion(3, "ablation strategies resolve conflicts as specified"):
        tax, stack, conflict = conflict_fixture()
        params = FusionParams(min_instance_area=1)

        base = fuse(stack, tax, params, "none")
        assert (base.semantic_map[conflict] == BOTTLE).all()
        assert (base.part_map[conflict] == SEAL).all()
        assert (base.instance_map[conflict] != 0).all()

        consensus = fuse(stack, tax, params, "consensus")
        voided = (
            (consensus.semantic_map == 0)
            & (consensus.instance_map == 0)
            & (consensus.part_map == 0)
        )
        assert np.array_equal(voided, conflict)  # exactly the conflict pixels
        assert np.array_equal(consensus.semantic_map[~conflict], base.semantic_map[~conflict])

        top = fuse(stack, tax, params, "topdown")
        assert np.array_equal(top.semantic_map, base.semantic_map)
        assert np.array_equal(top.instance_map, base.instance_map)
        assert np.array_equal(top.part_map == 0, conflict)

        fused = fuse(stack, tax, params)
        fused.validate(tax)  # a structurally valid LabelTriple


def test_criterion_4_metrics_vs_oracle(taxonomy):
    with criterion(4, "PQ and PartPQ match the brute-force oracle"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            assert_report_matches_oracle(random_triple(rng), random_triple(rng), taxonomy)

        # exactness and definitional collapse
        gt = random_triple(rng)
        assert aggregate_dataset([match_segments(gt, gt, taxonomy)], taxonomy).mean_pq == 1.0
        partless = validate_taxonomy(
            {
                "semantic_classes": [
                    {"id": 1, "name": "a", "is_thing": True},
                    {"id": 4, "name": "floor", "is_thing": False},
                ]
            }
        )
        sem = (rng.random((16, 16)) < 0.5).astype(np.uint16)
        pred_t = make_triple(sem * 1, sem)
        gt_sem = (rng.random((16, 16)) < 0.5).astype(np.uint16) * 4
        gt_t = make_triple(gt_sem)
        report = part_pq(pred_t, gt_t, partless)
        for row in report.per_class.values():
            assert row.pq == row.part_pq

        # hand fixtures: 0.7143, 0.5333, 0.75
        sem_gt = np.zeros((10, 10), dtype=np.uint16)
        sem_gt[:6, :] = BAG
        sem_gt[6:, :] = TABLE
        inst_gt = (sem_gt == BAG).astype(np.uint16)
        sem_pr = np.zeros_like(sem_gt)
        sem_pr[1:7, :] = BAG
        inst_pr = (sem_pr == BAG).astype(np.uint16)
        match = match_segments(
            make_triple(sem_pr, inst_pr), make_triple(sem_gt, inst_gt), taxonomy
        )
        iou = match.per_class[BAG].tp[0].iou
        assert abs(iou - 50 / 70) < 1e-9
        assert abs(round(iou, 4) - 0.7143) < 1e-12

        pred, gt = build_part_scene()
        # add a second, missed bag instance for the 0.5333 recall case
        sem2 = np.asarray(gt.semantic_map).copy()
        inst2 = np.asarray(gt.instance_map).copy()
        sem2[1, :10] = BAG
        inst2[1, :10] = 3
        gt2 = make_triple(sem2, inst2, gt.part_map)
        bag_pq = part_pq(pred, gt2, taxonomy).per_class[BAG].pq
        assert abs(bag_pq - 0.8 / 1.5) < 1e-9
        assert abs(round(bag_pq, 4) - 0.5333) < 1e-12

        report = part_pq(pred, gt, taxonomy)
        assert abs(report.per_class[BAG].part_pq - 0.75) < 1e-9
        assert time.perf_counter() - started < 30.0


def test_criterion_5_variant_a_end_to_end():
    with criterion(5, "RGB-D labelling: points, instances, projected labels"):
        started = time.perf_counter()
        cloud, truth, camera = build_rgbd_scene(seed=0, noise=0.001)
        assert len(cloud) >= 5000
        config = rgbd_config(seed=0)
        labeled = segment_objects(cloud, config)
        accuracy = (labeled.instance_id == truth).mean()
        assert accuracy >= 0.99
        assert labeled.instance_id.max() == 2  # exactly two instances

        labeled = label_parts(labeled, config.part_rules, config.catchall_part_id)
        triple = project_labels(labeled, camera, config)
        assert (triple.semantic_map != 0).any()
        assert np.array_equal(stacked(triple), vote_oracle(labeled, camera, config))
        assert time.perf_counter() - started < 10.0


def test_criterion_6_variant_b_end_to_end():
    with criterion(6, "monitor labelling: mask IoU, part partition, composites"):
        started = time.perf_counter()
        img_blue, img_black, disk, _ = disk_scene()
        config = monitor_config()
        mask = extract_reference_mask(img_blue, img_black, config)
        inter = (mask & disk).sum()
        union = (mask | disk).sum()
        assert inter / union >= 0.99

        reference = extract_part_masks(img_black, mask, config)
        seal = reference.part_grid == SEAL
        other = reference.part_grid == OTHER
        assert np.array_equal(seal | other, mask)

        expected = reference.triple
        rng = np.random.default_rng(11)
        for _ in range(20):
            bg = rng.integers(0, 256, (128, 128, 3)).astype(np.uint8)
            _, triple = composite_synthetic(img_black, reference, bg)
            assert np.array_equal(triple.semantic_map, expected.semantic_map)
            assert np.array_equal(triple.instance_map, expected.instance_map)
            assert np.array_equal(triple.part_map, expected.part_map)
        assert time.perf_counter() - started < 10.0


def test_criterion_7_determinism_and_io(tmp_path, taxonomy_json):
    with criterion(7, "CLI reruns are byte-identical; formats round-trip"):
        # fuse: rerun and jobs sweep
        inputs = tmp_path / "fuse_in"
        inputs.mkdir()
        for i in range(3):
            write_fuse_sample(inputs, f"img{i}")
        fuse_outs = []
        for name, jobs in (("f1", "1"), ("f2", "1"), ("f8", "8")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "fuse",
                        "--taxonomy",
                        str(taxonomy_json),
                        "--out",
                        str(out),
                        "--jobs",
                        jobs,
                        "--min-instance-area",
                        "1",
                        str(inputs),
                    ]
                )
                == 0
            )
            fuse_outs.append(tree_bytes(out))
        assert fuse_outs[0] == fuse_outs[1] == fuse_outs[2]

        # eval: TSV written twice is identical
        tsvs = []
        for name in ("e1.tsv", "e2.tsv"):
            assert (
                main(
                    [
                        "eval",
                        "--taxonomy",
                        str(taxonomy_json),
                        "--gt",
                        str(tmp_path / "f1"),
                        "--tsv",
                        str(tmp_path / name),
                        str(tmp_path / "f8"),
                    ]
                )
                == 0
            )
            tsvs.append((tmp_path / name).read_bytes())
        assert tsvs[0] == tsvs[1]

        # label rgbd: jobs sweep
        scene = write_rgbd_scene_dir(tmp_path)
        config = write_rgbd_config(tmp_path)
        rgbd_outs = []
        for name, jobs in (("r1", "1"), ("r8", "8")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "label",
                        "rgbd",
                        "--taxonomy",
                        str(taxonomy_json),
                        "--config",
                        str(config),
                        "--out",
                        str(out),
                        "--jobs",
                        jobs,
                        str(scene),
                    ]
                )
                == 0
            )
            rgbd_outs.append(tree_bytes(out))
        assert rgbd_outs[0] == rgbd_outs[1]

        # label monitor: same seed twice
        root, backgrounds, mon_config = write_monitor_dataset(tmp_path)
        mon_outs = []
        for name, jobs in (("m1", "1"), ("m8", "8")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "label",
                        "monitor",
                        "--taxonomy",
                        str(taxonomy_json),
                        "--config",
                        str(mon_config),
                        "--out",
                        str(out),
                        "--backgrounds",
                        str(backgrounds),
                        "--composites",
                        "2",
                        "--seed",
                        "3",
                        "--jobs",
                        jobs,
                        str(root),
                    ]
                )
                == 0
            )
            mon_outs.append(tree_bytes(out))
        assert mon_outs[0] == mon_outs[1]

        # augment: rerun
        dataset = write_augment_dataset(tmp_path)
        aug_outs = []
        for name, jobs in (("a1", "1"), ("a8", "8")):
            out = tmp_path / name
            assert main(["augment", "--out", str(out), "--jobs", jobs, str(dataset)]) == 0
            aug_outs.append(tree_bytes(out))
        assert aug_outs[0] == aug_outs[1]

        # container formats round-trip bit-exactly
        rng = np.random.default_rng(5)
        t_path = tmp_path / "t.ppt1"
        write_tensor(rng.random((3, 4)).astype(np.float32), t_path)
        first = t_path.read_bytes()
        write_tensor(formats.read_tensor(t_path).read(), t_path)
        assert t_path.read_bytes() == first

        stem = tmp_path / "trip"
        formats.write_label_triple(
            make_triple(
                rng.integers(0, 4, (6, 6)),
                np.zeros((6, 6), dtype=np.uint16),
                rng.integers(0, 3, (6, 6)),
            ),
            stem,
        )
        trip_bytes = {
            s: (tmp_path / f"trip{s}").read_bytes()
            for s in (".sem.pgm", ".inst.pgm", ".part.pgm")
        }
        formats.write_label_triple(formats.read_label_triple(stem), stem)
        for s, data in trip_bytes.items():
            assert (tmp_path / f"trip{s}").read_bytes() == data

        from partfuse.pointcloud import read_ply

        cloud, _, camera = build_rgbd_scene(seed=1, with_boxes=False)
        ply_path = tmp_path / "c.ply"
        write_ply(cloud, ply_path)
        first_ply = ply_path.read_bytes()
        write_ply(read_ply(ply_path), ply_path)
        assert ply_path.read_bytes() == first_ply

        img_path = tmp_path / "i.ppm"
        img = rng.integers(0, 256, (5, 5, 3)).astype(np.uint8)
        write_pnm(img, img_path)
        first_img = img_path.read_bytes()
        write_pnm(read_pnm(img_path), img_path)
        assert img_path.read_bytes() == first_img


def test_criterion_8_flip_group_laws():
    with criterion(8, "flip augmentation group laws hold exactly"):
        from partfuse.autolabel_monitor import augment_flips

        rng = np.random.default_rng(6)
        image = rng.integers(0, 256, (7, 9, 3)).astype(np.uint8)
        triple = make_triple(
            rng.integers(0, 4, (7, 9)),
            np.zeros((7, 9), dtype=np.uint16),
            rng.integers(0, 3, (7, 9)),
        )
        variants = dict(
            (suffix, (img, trip)) for suffix, img, trip in augment_flips(image, triple)
        )
        v_img, v_trip = variants["_vflip"]
        vv = augment_flips(v_img, v_trip)
        assert np.array_equal(vv[2][1], image)  # vflip twice = id
        assert np.array_equal(vv[2][2].semantic_map, triple.semantic_map)

        h_img, h_trip = variants["_hflip"]
        vh = augment_flips(h_img, h_trip)[2]
        rot_img, rot_trip = variants["_rot180"]
        assert np.array_equal(rot_img, vh[1])  # rot180 = v of h
        assert np.array_equal(rot_trip.part_map, vh[2].part_map)

        for suffix, op in (
            ("_vflip", lambda a: a[::-1, :]),
            ("_hflip", lambda a: a[:, ::-1]),
            ("_rot180", lambda a: a[::-1, ::-1]),
        ):
            img_x, trip_x = variants[suffix]
            assert np.array_equal(img_x, op(image))
            assert np.array_equal(trip_x.semantic_map, op(triple.semantic_map))
            assert np.array_equal(trip_x.instance_map, op(triple.instance_map))
            assert np.array_equal(trip_x.part_map, op(triple.part_map))


def test_criterion_9_overlay_rendering(tmp_path, taxonomy):
    with criterion(9, "overlay boxes equal instance extents; output is valid P6"):
        img_blue, img_black, _, _ = disk_scene()
        config = monitor_config()
        mask = extract_reference_mask(img_blue, img_black, config)
        reference = extract_part_masks(img_black, mask, config)
        triple = reference.triple

        boxes = instance_boxes(triple)
        assert set(boxes) == {1}
        rows, cols = np.nonzero(np.asarray(triple.instance_map) == 1)
        assert boxes[1] == (rows.min(), cols.min(), rows.max(), cols.max())

        spec = default_overlay_spec(taxonomy)
        rendered = render_overlay(img_black, triple, spec)
        out_path = tmp_path / "overlay.ppm"
        write_pnm(rendered, out_path)
        raw = out_path.read_bytes()
        assert raw.startswith(b"P6\n")
        header, rest = raw.split(b"\n255\n", 1)
        dims = header.split(b"\n")[1].split()
        assert len(rest) == int(dims[0]) * int(dims[1]) * 3
        # box edges carry the instance's class colour
        color = spec.class_colors[BAG]
        r0, c0, r1, c1 = boxes[1]
        assert tuple(rendered[r0, c0]) == color
        assert tuple(rendered[r1, c1]) == color
