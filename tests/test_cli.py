"""End-to-end CLI tests: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partfuse

from partfuse import formats
from partfuse.cli import main
from partfuse.imaging import Image, write_pnm

from conftest import BAG, BOTTLE, CENTER, OTHER, SEAL, TABLE, make_triple
from scenes import build_rgbd_scene, rgbd_config, save_camera, scene_image, write_ply
from test_autolabel_monitor import BLUE_BG, disk_scene


def write_fuse_sample(directory, name, taxonomy_order=True):
    """Logits for an 8x8 frame: a bag proposal on the left half over a
    table background; the right half stays table."""
    h = w = 8
    sem = np.zeros((4, h, w), dtype=np.float32)
    sem[0, :, :4] = 4.0  # bag channel
    sem[3] = 1.0  # table
    part = np.zeros((3, h, w), dtype=np.float32)
    part[0] = 2.0  # seal
    formats.write_tensor(sem, directory / f"{name}.sem.ppt1")
    formats.write_tensor(part, directory / f"{name}.part.ppt1")
    mask = np.full((h, w), -8.0, dtype=np.float32)
    mask[:, :4] = 4.0
    formats.write_tensor(mask, directory / f"{name}_p0.ppt1")
    (directory / f"{name}.proposals.json").write_text(
        json.dumps(
            [
                {
                    "class_id": BAG,
                    "confidence": 0.9,
                    "mask_tensor_path": f"{name}_p0.ppt1",
                }
            ]
        )
    )


def read_triple_trio(stem):
    t = formats.read_label_triple(stem)
    return t.semantic_map, t.instance_map, t.part_map


def test_fuse_single_sample(tmp_path, taxonomy_json):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_fuse_sample(inputs, "img0")
    out = tmp_path / "out"
    code = main(
        [
            "fuse",
            "--taxonomy",
            str(taxonomy_json),
            "--out",
            str(out),
            "--min-instance-area",
            "1",
            str(inputs),
        ]
    )
    assert code == 0
    sem, inst, part = read_triple_trio(out / "img0")
    assert (sem[:, :4] == BAG).all()
    assert (inst[:, :4] == 1).all()
    assert (sem[:, 4:] == TABLE).all()
    assert (part == SEAL).all()


def test_fuse_missing_taxonomy(tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_fuse_sample(inputs, "img0")
    code = main(
        [
            "fuse",
            "--taxonomy",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "out"),
            str(inputs),
        ]
    )
    assert code == 3


def test_fuse_corrupt_tensor_is_io_error(tmp_path, taxonomy_json):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_fuse_sample(inputs, "img0")
    (inputs / "img0.sem.ppt1").write_bytes(b"XXXX garbage")
    code = main(
        [
            "fuse",
            "--taxonomy",
            str(taxonomy_json),
            "--out",
            str(tmp_path / "out"),
            str(inputs),
        ]
    )
    assert code == 2


def conflict_logits(tmp_path):
    """Bottle proposal on the left, bag on the right, seal part argmax
    everywhere: the left half conflicts."""
    h, w = 8, 16
    sem = np.zeros((4, h, w), dtype=np.float32)
    sem[0, :, 8:] = 4.0  # bag right
    sem[1, :, :8] = 4.0  # bottle left
    sem[3] = -10.0  # table never wins
    part = np.zeros((3, h, w), dtype=np.float32)
    part[0] = 3.0  # seal
    inputs = tmp_path / "conflict_in"
    inputs.mkdir()
    formats.write_tensor(sem, inputs / "c0.sem.ppt1")
    formats.write_tensor(part, inputs / "c0.part.ppt1")
    left = np.full((h, w), -8.0, dtype=np.float32)
    left[:, :8] = 4.0
    right = np.full((h, w), -8.0, dtype=np.float32)
    right[:, 8:] = 4.0
    formats.write_tensor(left, inputs / "c0_left.ppt1")
    formats.write_tensor(right, inputs / "c0_right.ppt1")
    (inputs / "c0.proposals.json").write_text(
        json.dumps(
            [
                {"class_id": BOTTLE, "confidence": 0.9, "mask_tensor_path": "c0_left.ppt1"},
                {"class_id": BAG, "confidence": 0.8, "mask_tensor_path": "c0_right.ppt1"},
            ]
        )
    )
    return inputs


def test_fuse_consensus_voids_conflicts(tmp_path, taxonomy_json):
    inputs = conflict_logits(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "fuse",
            "--taxonomy",
            str(taxonomy_json),
            "--strategy",
            "consensus",
            "--out",
            str(out),
            "--min-instance-area",
            "1",
            str(inputs),
        ]
    )
    assert code == 0
    sem, inst, part = read_triple_trio(out / "c0")
    assert (sem[:, :8] == 0).all()  # conflicting half voided
    assert (inst[:, :8] == 0).all()
    assert (part[:, :8] == 0).all()
    assert (sem[:, 8:] == BAG).all()  # consistent half kept


def make_eval_dirs(tmp_path):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    # matched bag pair: segment iou 0.8, part score 0.75 (no table in gt)
    h, w = 2, 50
    sem_gt = np.zeros((h, w), dtype=np.uint16)
    sem_gt[0, :45] = BAG
    sem_gt[0, 45:] = 3
    inst_gt = np.zeros_like(sem_gt)
    inst_gt[0, :45] = 1
    inst_gt[0, 45:] = 2
    part_gt = np.zeros_like(sem_gt)
    part_gt[0, 0:10] = SEAL
    part_gt[0, 10:40] = CENTER
    formats.write_label_triple(make_triple(sem_gt, inst_gt, part_gt), gt_dir / "a")

    sem_pr = np.zeros_like(sem_gt)
    sem_pr[0, 5:50] = BAG
    inst_pr = np.zeros_like(sem_gt)
    inst_pr[0, 5:50] = 1
    part_pr = np.zeros_like(sem_gt)
    part_pr[0, 0:10] = SEAL
    part_pr[0, 20:50] = CENTER
    formats.write_label_triple(make_triple(sem_pr, inst_pr, part_pr), pred_dir / "a")
    return gt_dir, pred_dir


def test_eval_perfect_prediction(tmp_path, taxonomy_json, capsys):
    gt_dir, _ = make_eval_dirs(tmp_path)
    code = main(
        ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), str(gt_dir)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "1.000" in printed
    assert "-" in printed  # table absent from gt


def test_eval_percent_display(tmp_path, taxonomy_json, capsys):
    gt_dir, _ = make_eval_dirs(tmp_path)
    code = main(
        [
            "eval",
            "--taxonomy",
            str(taxonomy_json),
            "--gt",
            str(gt_dir),
            "--percent",
            str(gt_dir),
        ]
    )
    assert code == 0
    assert "100.0" in capsys.readouterr().out


def test_eval_tsv_report(tmp_path, taxonomy_json, capsys):
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    tsv = tmp_path / "scores.tsv"
    code = main(
        [
            "eval",
            "--taxonomy",
            str(taxonomy_json),
            "--gt",
            str(gt_dir),
            "--tsv",
            str(tsv),
            str(pred_dir),
        ]
    )
    assert code == 0
    lines = tsv.read_text().splitlines()
    assert lines[0] == "class\tpq\tpart_pq\ttp\tfp\tfn"
    bag_row = [l for l in lines if l.startswith("transfusion_bag")][0]
    cells = bag_row.split("\t")
    assert abs(float(cells[1]) - 0.8) < 1e-9
    assert abs(float(cells[2]) - 0.75) < 1e-9
    table_row = [l for l in lines if l.startswith("table")][0]
    assert table_row.split("\t")[1] == "-"


def test_eval_multiple_strategies(tmp_path, taxonomy_json, capsys):
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    tsv = tmp_path / "scores.tsv"
    code = main(
        [
            "eval",
            "--taxonomy",
            str(taxonomy_json),
            "--gt",
            str(gt_dir),
            "--tsv",
            str(tsv),
            str(pred_dir),
            str(gt_dir),  # the gt itself as a second, perfect strategy
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    pq_block = out.split("PartPQ")[0]
    assert "pred" in pq_block and "gt" in pq_block  # one row per strategy
    assert (tmp_path / "scores_pred.tsv").exists()
    assert (tmp_path / "scores_gt.tsv").exists()


def test_overlay_alpha_and_boxes_flags(tmp_path, taxonomy_json):
    from partfuse.imaging import read_pnm
    from partfuse.overlay import default_overlay_spec
    from partfuse.taxonomy import load_taxonomy

    image = Image(np.zeros((6, 6, 3), dtype=np.uint8))
    write_pnm(image, tmp_path / "img.ppm")
    sem = np.full((6, 6), TABLE, dtype=np.uint16)
    formats.write_label_triple(make_triple(sem), tmp_path / "img")
    out_path = tmp_path / "o.ppm"
    code = main(
        [
            "overlay",
            "--taxonomy",
            str(taxonomy_json),
            "--alpha",
            "1.0",
            "--no-boxes",
            str(tmp_path / "img.ppm"),
            str(tmp_path / "img"),
            str(out_path),
        ]
    )
    assert code == 0
    spec = default_overlay_spec(load_taxonomy(taxonomy_json))
    rendered = read_pnm(out_path)
    assert (rendered.pixels == np.array(spec.class_colors[TABLE])).all()


def test_eval_dimension_mismatch_exit_code(tmp_path, taxonomy_json):
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    formats.write_label_triple(
        make_triple(np.zeros((4, 4), dtype=np.uint16)), pred_dir / "a"
    )
    code = main(
        ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), str(pred_dir)]
    )
    assert code == 3


def make_three_pred_dirs(tmp_path):
    """Ground truth plus three prediction directories (p1..p3) with two
    stems each, all copies of make_eval_dirs' triples."""
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    formats.write_label_triple(formats.read_label_triple(gt_dir / "a"), gt_dir / "b")
    preds = []
    for name in ("p1", "p2", "p3"):
        target = tmp_path / name
        target.mkdir()
        for stem in ("a", "b"):
            triple = formats.read_label_triple(pred_dir / "a")
            formats.write_label_triple(triple, target / stem)
        preds.append(target)
    return gt_dir, preds


def eval_three(taxonomy_json, gt_dir, preds):
    return main(
        ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir)]
        + [str(p) for p in preds]
    )


def truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


def test_eval_three_dirs_corrupt_ground_truth_exit_code(tmp_path, taxonomy_json):
    gt_dir, preds = make_three_pred_dirs(tmp_path)
    truncate(gt_dir / "b.inst.pgm")
    assert eval_three(taxonomy_json, gt_dir, preds) == 2


def test_eval_three_dirs_invalid_ground_truth_exit_code(tmp_path, taxonomy_json):
    gt_dir, preds = make_three_pred_dirs(tmp_path)
    triple = formats.read_label_triple(gt_dir / "b")
    inst = triple.instance_map.copy()
    inst[0, 45:] = 1  # instance 1 now spans two semantic classes
    formats.write_label_triple(
        make_triple(triple.semantic_map, inst, triple.part_map), gt_dir / "b"
    )
    assert eval_three(taxonomy_json, gt_dir, preds) == 3


def test_eval_errors_resolve_in_directory_order(tmp_path, taxonomy_json):
    # the first directory with a fault decides the exit code, as if the
    # directories were scored one after another
    gt_dir, preds = make_three_pred_dirs(tmp_path)
    truncate(preds[1] / "b.sem.pgm")  # corrupt: 2
    formats.write_label_triple(  # invalid: 3
        make_triple(np.full((2, 50), 99, dtype=np.uint16)), preds[2] / "a"
    )
    assert eval_three(taxonomy_json, gt_dir, preds) == 2
    missing = tmp_path / "absent"
    assert eval_three(taxonomy_json, gt_dir, [preds[0], preds[2], missing]) == 3
    assert eval_three(taxonomy_json, gt_dir, [preds[0], missing, preds[1]]) == 3
    # a corrupt prediction is read before the ground truth is validated
    triple = formats.read_label_triple(gt_dir / "a")
    formats.write_label_triple(
        make_triple(np.full((2, 50), 99, dtype=np.uint16)), gt_dir / "a"
    )
    assert eval_three(taxonomy_json, gt_dir, [preds[1]]) == 3
    truncate(preds[1] / "a.part.pgm")
    assert eval_three(taxonomy_json, gt_dir, [preds[1]]) == 2
    formats.write_label_triple(triple, gt_dir / "a")
    assert eval_three(taxonomy_json, gt_dir, [preds[0], preds[1]]) == 2


def test_report_renders_tsv(tmp_path, taxonomy_json, capsys):
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    tsv = tmp_path / "m_b.tsv"
    main(
        [
            "eval",
            "--taxonomy",
            str(taxonomy_json),
            "--gt",
            str(gt_dir),
            "--tsv",
            str(tsv),
            str(pred_dir),
        ]
    )
    capsys.readouterr()
    code = main(["report", "--taxonomy", str(taxonomy_json), "--percent", str(tsv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "m_b" in out
    assert "75.0" in out


def write_rgbd_scene_dir(tmp_path, name="scene_0", seed=0):
    scene = tmp_path / name
    scene.mkdir()
    cloud, _, camera = build_rgbd_scene(seed=seed)
    write_pnm(scene_image(camera), scene / "rgb.ppm")
    write_ply(cloud, scene / "cloud.ply")
    save_camera(camera, scene / "camera.json")
    return scene


def write_rgbd_config(tmp_path):
    cfg = rgbd_config()
    payload = {
        "object_class_id": cfg.object_class_id,
        "background_class_id": cfg.background_class_id,
        "seed": 0,
        "part_rules": [
            {
                "part_id": SEAL,
                "priority": 1,
                "hsv_range": {"h_min": 345.0, "h_max": 15.0, "s_min": 0.5, "v_min": 0.3},
            }
        ],
        "catchall_part_id": OTHER,
    }
    path = tmp_path / "rgbd_config.json"
    path.write_text(json.dumps(payload))
    return path


def tree_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


def test_label_rgbd_end_to_end(tmp_path, taxonomy_json):
    scene = write_rgbd_scene_dir(tmp_path)
    config = write_rgbd_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "label",
            "rgbd",
            "--taxonomy",
            str(taxonomy_json),
            "--config",
            str(config),
            "--out",
            str(out),
            str(scene),
        ]
    )
    assert code == 0
    assert (out / "scene_0.ppm").exists()
    assert (out / "scene_0.sem.pgm").exists()
    prov = json.loads((out / "scene_0.provenance.json").read_text())
    assert prov["variant"] == "rgbd"
    assert prov["instances"] == 2
    assert prov["params"]["knn_k"] == 5


def test_label_rgbd_deterministic_across_jobs(tmp_path, taxonomy_json):
    scene_a = write_rgbd_scene_dir(tmp_path, "scene_0")
    scene_b = write_rgbd_scene_dir(tmp_path, "scene_1", seed=4)
    config = write_rgbd_config(tmp_path)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    args = [
        "label",
        "rgbd",
        "--taxonomy",
        str(taxonomy_json),
        "--config",
        str(config),
    ]
    assert main(args + ["--out", str(out1), "--jobs", "1", str(scene_a), str(scene_b)]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "8", str(scene_a), str(scene_b)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_label_rgbd_malformed_ply_exit_code(tmp_path, taxonomy_json):
    scene = write_rgbd_scene_dir(tmp_path)
    ply = scene / "cloud.ply"
    lines = ply.read_text().splitlines()
    fields = lines[-1].split()
    lines[-1] = " ".join(fields[:3] + ["300"] + fields[4:])  # colour out of range
    ply.write_text("\n".join(lines) + "\n")
    config = write_rgbd_config(tmp_path)
    code = main(
        [
            "label",
            "rgbd",
            "--taxonomy",
            str(taxonomy_json),
            "--config",
            str(config),
            "--out",
            str(tmp_path / "out"),
            str(scene),
        ]
    )
    assert code == 2


def write_monitor_dataset(tmp_path):
    root = tmp_path / "dataset"
    root.mkdir()
    scene = root / "scene_0"
    scene.mkdir()
    img_blue, img_black, _, _ = disk_scene()
    write_pnm(img_blue, scene / "blue.ppm")
    write_pnm(img_black, scene / "black.ppm")
    rng = np.random.default_rng(5)
    for m in range(2):
        target = Image(rng.integers(0, 256, (128, 128, 3)).astype(np.uint8))
        write_pnm(target, scene / f"target_{m}.ppm")
    backgrounds = tmp_path / "backgrounds"
    backgrounds.mkdir()
    for b in range(3):
        bg = Image(rng.integers(0, 256, (128, 128, 3)).astype(np.uint8))
        write_pnm(bg, backgrounds / f"bg_{b}.ppm")
    config = {
        "object_class_id": BAG,
        "background_class_id": 0,
        "part_rules": [
            {
                "part_id": SEAL,
                "priority": 1,
                "hsv_range": {"h_min": 345.0, "h_max": 15.0, "s_min": 0.5, "v_min": 0.3},
            }
        ],
        "catchall_part_id": OTHER,
        "blue_range": {"h_min": 200.0, "h_max": 260.0, "s_min": 0.35, "v_min": 0.2},
        "black_range": {"v_max": 0.2},
    }
    config_path = tmp_path / "monitor_config.json"
    config_path.write_text(json.dumps(config))
    return root, backgrounds, config_path


def test_label_monitor_end_to_end(tmp_path, taxonomy_json):
    root, backgrounds, config = write_monitor_dataset(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "label",
            "monitor",
            "--taxonomy",
            str(taxonomy_json),
            "--config",
            str(config),
            "--out",
            str(out),
            "--backgrounds",
            str(backgrounds),
            "--composites",
            "2",
            "--seed",
            "9",
            str(root),
        ]
    )
    assert code == 0
    assert (out / "scene_0_target_0.sem.pgm").exists()
    assert (out / "scene_0_target_1.sem.pgm").exists()
    assert (out / "scene_0_synth_000.ppm").exists()
    assert (out / "scene_0_synth_001.ppm").exists()
    # target labels and composite labels are identical to the reference
    t0 = formats.read_label_triple(out / "scene_0_target_0")
    s0 = formats.read_label_triple(out / "scene_0_synth_000")
    assert np.array_equal(t0.semantic_map, s0.semantic_map)
    assert np.array_equal(t0.part_map, s0.part_map)


def test_label_monitor_same_seed_byte_identical(tmp_path, taxonomy_json):
    root, backgrounds, config = write_monitor_dataset(tmp_path)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        code = main(
            [
                "label",
                "monitor",
                "--taxonomy",
                str(taxonomy_json),
                "--config",
                str(config),
                "--out",
                str(out),
                "--backgrounds",
                str(backgrounds),
                "--composites",
                "3",
                "--seed",
                "42",
                str(root),
            ]
        )
        assert code == 0
        outs.append(tree_bytes(out))
    assert outs[0] == outs[1]


def test_label_monitor_empty_scene_needs_keep_going(tmp_path, taxonomy_json):
    root, backgrounds, config = write_monitor_dataset(tmp_path)
    empty = root / "scene_1"
    empty.mkdir()
    blue = Image(np.tile(np.array(BLUE_BG, dtype=np.uint8), (128, 128, 1)))
    black = Image(np.zeros((128, 128, 3), dtype=np.uint8))
    write_pnm(blue, empty / "blue.ppm")
    write_pnm(black, empty / "black.ppm")

    args = [
        "label",
        "monitor",
        "--taxonomy",
        str(taxonomy_json),
        "--config",
        str(config),
        str(root),
    ]
    strict = main(args[:2] + args[2:-1] + ["--out", str(tmp_path / "s")] + [str(root)])
    assert strict == 3
    lenient = main(
        args[:-1] + ["--out", str(tmp_path / "l"), "--keep-going", str(root)]
    )
    assert lenient == 0
    assert (tmp_path / "l" / "scene_0_target_0.ppm").exists()


def test_label_monitor_closing_window_beyond_the_image(tmp_path, taxonomy_json):
    """A window of 2n - 1 already covers an n-pixel axis at every pixel,
    so a far larger one must give the same labels and not exhaust memory."""
    root, _, config = write_monitor_dataset(tmp_path)
    runs = []
    for window in (255, 2147483649):  # the scenes are 128x128
        cfg = json.loads(config.read_text())
        cfg["closing_window"] = window
        config.write_text(json.dumps(cfg))
        out = tmp_path / f"out{window}"
        args = ["label", "monitor", "--taxonomy", str(taxonomy_json),
                "--config", str(config), "--out", str(out), str(root)]
        assert main(args) == 0
        tree = tree_bytes(out)
        provenance = json.loads(tree.pop("scene_0.provenance.json"))
        assert provenance["params"].pop("closing_window") == window
        runs.append((tree, provenance))
    assert runs[0] == runs[1]


def test_label_rgbd_pmf_window_beyond_the_grid(tmp_path, taxonomy_json):
    """Rounds whose window already covers the height grid change nothing,
    so a huge max_window must give the same bytes, quickly."""
    scene = write_rgbd_scene_dir(tmp_path)
    config = write_rgbd_config(tmp_path)
    trees = []
    for max_window in (1024, 1 << 40):  # the grid is under 100 cells a side
        cfg = json.loads(config.read_text())
        cfg["pmf"] = {"max_window": max_window}
        config.write_text(json.dumps(cfg))
        out = tmp_path / f"out{max_window}"
        args = ["label", "rgbd", "--taxonomy", str(taxonomy_json),
                "--config", str(config), "--out", str(out), str(scene)]
        assert main(args) == 0
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


def write_augment_dataset(tmp_path):
    dataset = tmp_path / "samples"
    dataset.mkdir()
    rng = np.random.default_rng(6)
    for name in ("s0", "s1"):
        image = Image(rng.integers(0, 256, (6, 8, 3)).astype(np.uint8))
        write_pnm(image, dataset / f"{name}.ppm")
        triple = make_triple(
            rng.integers(0, 4, (6, 8)),
            np.zeros((6, 8), dtype=np.uint16),
            rng.integers(0, 3, (6, 8)),
        )
        formats.write_label_triple(triple, dataset / name)
    return dataset


def test_augment_writes_four_variants(tmp_path):
    dataset = write_augment_dataset(tmp_path)
    out = tmp_path / "aug"
    code = main(["augment", "--out", str(out), str(dataset)])
    assert code == 0
    ppms = sorted(p.name for p in out.glob("*.ppm"))
    assert len(ppms) == 8  # 2 samples x 4 variants
    assert "s0_vflip.ppm" in ppms and "s1_rot180.ppm" in ppms
    # re-flipping the vflip output reproduces the original
    from partfuse.imaging import read_pnm

    original = read_pnm(dataset / "s0.ppm")
    vflip = read_pnm(out / "s0_vflip.ppm")
    assert np.array_equal(vflip.pixels[::-1, :], original.pixels)
    trip_orig = formats.read_label_triple(dataset / "s0")
    trip_v = formats.read_label_triple(out / "s0_vflip")
    assert np.array_equal(trip_v.semantic_map[::-1, :], trip_orig.semantic_map)


def test_augment_unreadable_sample_exit_code(tmp_path):
    dataset = write_augment_dataset(tmp_path)
    (dataset / "s0.sem.pgm").unlink()  # break one sample: an I/O error
    code = main(["augment", "--out", str(tmp_path / "aug"), str(dataset)])
    assert code == 2
    code = main(
        ["augment", "--out", str(tmp_path / "aug2"), "--keep-going", str(dataset)]
    )
    assert code == 0
    assert (tmp_path / "aug2" / "s1_id.ppm").exists()


def test_overlay_all_void_passthrough(tmp_path, taxonomy_json):
    rng = np.random.default_rng(7)
    image = Image(rng.integers(0, 256, (8, 8, 3)).astype(np.uint8))
    write_pnm(image, tmp_path / "img.ppm")
    formats.write_label_triple(
        make_triple(np.zeros((8, 8), dtype=np.uint16)), tmp_path / "img"
    )
    out_path = tmp_path / "overlay.ppm"
    code = main(
        [
            "overlay",
            "--taxonomy",
            str(taxonomy_json),
            str(tmp_path / "img.ppm"),
            str(tmp_path / "img"),
            str(out_path),
        ]
    )
    assert code == 0
    from partfuse.imaging import read_pnm

    assert np.array_equal(read_pnm(out_path).pixels, image.pixels)


def test_overlay_dimension_mismatch_exit(tmp_path, taxonomy_json):
    rng = np.random.default_rng(8)
    image = Image(rng.integers(0, 256, (8, 8, 3)).astype(np.uint8))
    write_pnm(image, tmp_path / "img.ppm")
    formats.write_label_triple(
        make_triple(np.zeros((4, 4), dtype=np.uint16)), tmp_path / "img"
    )
    code = main(
        [
            "overlay",
            "--taxonomy",
            str(taxonomy_json),
            str(tmp_path / "img.ppm"),
            str(tmp_path / "img"),
            str(tmp_path / "o.ppm"),
        ]
    )
    assert code == 3


def test_fuse_rerun_and_jobs_byte_identical(tmp_path, taxonomy_json):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(4):
        write_fuse_sample(inputs, f"img{i}")
    outs = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / name
        code = main(
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
        assert code == 0
        outs.append(tree_bytes(out))
    assert outs[0] == outs[1] == outs[2]


def test_config_file_flags_win(tmp_path, taxonomy_json):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_fuse_sample(inputs, "img0")
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "taxonomy": str(taxonomy_json),
                "strategy": "consensus",
                "min_instance_area": 1,
            }
        )
    )
    out = tmp_path / "out"
    # flag overrides the config's consensus strategy
    code = main(
        [
            "fuse",
            "--config",
            str(cfg),
            "--strategy",
            "none",
            "--out",
            str(out),
            str(inputs),
        ]
    )
    assert code == 0
    sem, _, part = read_triple_trio(out / "img0")
    assert (part == SEAL).all()  # "none" keeps the conflicting part labels


def fuse_args(taxonomy_json, out, inputs, *flags):
    return ["fuse", "--taxonomy", str(taxonomy_json), "--out", str(out),
            "--min-instance-area", "1", *flags, str(inputs)]


@pytest.mark.parametrize("broken", [0, 1])
def test_fuse_failure_commits_same_tree_for_any_jobs(tmp_path, taxonomy_json, broken):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(3):
        write_fuse_sample(inputs, f"img{i}")
    (inputs / f"img{broken}.sem.ppt1").write_bytes(b"XXXX garbage")
    for keep_going, code, kept in ((False, 2, range(broken)), (True, 0, (0, 1, 2))):
        flags = ["--keep-going"] if keep_going else []
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out_{keep_going}_{jobs}"
            argv = fuse_args(taxonomy_json, out, inputs, "--jobs", jobs, *flags)
            assert main(argv) == code
            assert not [p for p in out.iterdir() if not p.is_file()]  # no staging left
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]
        kinds = ("sem", "inst", "part")
        expected = {f"img{i}.{k}.pgm" for i in kept if i != broken for k in kinds}
        assert set(trees[0]) == expected


def test_fuse_failed_triple_write_leaves_no_file(tmp_path, taxonomy_json, monkeypatch):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_fuse_sample(inputs, "img0")
    write_pgm16 = formats.write_pgm16

    def failing(grid, path):
        if str(path).endswith(".inst.pgm"):
            raise OSError(f"{path}: no space left on device")
        write_pgm16(grid, path)

    # the binding write_label_triple calls
    monkeypatch.setattr(formats, "write_pgm16", failing)
    out = tmp_path / "out"
    assert main(fuse_args(taxonomy_json, out, inputs)) == 2
    assert list(out.iterdir()) == []


def write_many_proposals(directory, name, count, seed):
    """An 8x8 frame over the test taxonomy with ``count`` bag proposals."""
    rng = np.random.default_rng(seed)
    formats.write_tensor(rng.normal(size=(4, 8, 8)).astype(np.float32),
                         directory / f"{name}.sem.ppt1")
    formats.write_tensor(rng.normal(size=(3, 8, 8)).astype(np.float32),
                         directory / f"{name}.part.ppt1")
    entries = []
    for i in range(count):
        mask = f"{name}_p{i:03d}.ppt1"
        formats.write_tensor(4 * rng.normal(size=(8, 8)).astype(np.float32), directory / mask)
        entries.append({"class_id": BAG, "confidence": float(rng.uniform(0.5, 1.0)),
                        "mask_tensor_path": mask})
    (directory / f"{name}.proposals.json").write_text(json.dumps(entries))


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_NOFILE is POSIX")
def test_fuse_many_proposals_under_a_low_open_file_limit(tmp_path, taxonomy_json):
    """Every mapped tensor holds a descriptor while it lives: two frames of
    2 + 100 tensors on 2 jobs need more than a soft limit of 64, which
    ``main`` lifts towards the hard limit."""
    import resource

    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    if hard != resource.RLIM_INFINITY and hard < 1024:
        pytest.skip(f"hard open-file limit {hard} is too low")
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(2):
        write_many_proposals(inputs, f"img{i}", 100, seed=i)
    src = Path(partfuse.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    limited = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
        "from partfuse.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    args = fuse_args(taxonomy_json, tmp_path / "limited", inputs, "--jobs", "2")
    child = subprocess.run([sys.executable, "-c", limited, *args], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert main(fuse_args(taxonomy_json, tmp_path / "free", inputs, "--jobs", "2")) == 0
    limited_tree = tree_bytes(tmp_path / "limited")
    assert sorted(limited_tree) == [f"img{i}.{k}.pgm" for i in range(2)
                                    for k in ("inst", "part", "sem")]
    assert limited_tree == tree_bytes(tmp_path / "free")


def test_cli_import_leaves_out_scipy_ndimage():
    src = Path(partfuse.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    check = "import sys, partfuse.cli; assert 'scipy.ndimage' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)


def write_overlay_inputs(tmp_path):
    """A 6x6 black image under a triple that is all table."""
    write_pnm(Image(np.zeros((6, 6, 3), dtype=np.uint8)), tmp_path / "img.ppm")
    sem = np.full((6, 6), TABLE, dtype=np.uint16)
    formats.write_label_triple(make_triple(sem), tmp_path / "img")


def overlay_args(taxonomy_json, tmp_path, out_path, *extra):
    return ["overlay", "--taxonomy", str(taxonomy_json), *extra,
            str(tmp_path / "img.ppm"), str(tmp_path / "img"), str(out_path)]


def test_overlay_colors_table_overrides_class_colour(tmp_path, taxonomy_json):
    write_overlay_inputs(tmp_path)
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"class_colors": {str(TABLE): [10, 20, 30]}}))
    out_path = tmp_path / "o.ppm"
    args = overlay_args(taxonomy_json, tmp_path, out_path, "--alpha", "1.0", "--colors", str(colors))
    assert main(args) == 0
    from partfuse.imaging import read_pnm

    assert (read_pnm(out_path).pixels == (10, 20, 30)).all()


@pytest.mark.parametrize(
    "table",
    [
        "{not json",
        b'{"class_colors": {"1": [1, 2, 3]}}\xff',
        "[1, 2, 3]",
        '{"class_colors": [1, 2]}',
        '{"class_colors": {"bag": [1, 2, 3]}}',
        '{"part_colors": {"11": [1, 2]}}',
        '{"part_colors": {"11": [1.5, 2, 3]}}',
        '{"part_colors": {"11": ["1", 2, 3]}}',
        '{"class_colors": {"1": [1, 2, 256]}}',
        '{"class_colors": {"1": 7}}',
    ],
    ids=["not-json", "not-utf8", "array", "table-not-object", "key-not-int", "two-samples",
         "float-sample", "string-sample", "sample-256", "colour-not-list"],
)
def test_overlay_malformed_colors_exit_code(tmp_path, taxonomy_json, table):
    write_overlay_inputs(tmp_path)
    colors = tmp_path / "colors.json"
    colors.write_bytes(table if isinstance(table, bytes) else table.encode())
    out_path = tmp_path / "o.ppm"
    assert main(overlay_args(taxonomy_json, tmp_path, out_path, "--colors", str(colors))) == 3
    assert not out_path.exists()


@pytest.mark.parametrize(
    "row",
    [
        "transfusion_bag\t0.8",
        "transfusion_bag\t0.8\t0.75\t1\t0\t0\textra",
        "transfusion_bag\tgood\t0.75\t1\t0\t0",
        "transfusion_bag\t0.8\t0.75\tone\t0\t0",
        "total\t0.8\t0.75\t1\t0\t0.5",
    ],
    ids=["two-cells", "seven-cells", "text-ratio", "text-count", "fractional-count"],
)
def test_report_malformed_tsv_row_exit_code(tmp_path, taxonomy_json, caplog, row):
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    tsv = tmp_path / "m.tsv"
    eval_args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), "--tsv", str(tsv)]
    assert main([*eval_args, str(pred_dir)]) == 0
    lines = tsv.read_text().splitlines()
    bad = 1 + next(i for i, line in enumerate(lines) if line.startswith(row.split("\t")[0]))
    lines[bad - 1] = row
    tsv.write_text("\n".join(lines) + "\n")
    assert main(["report", "--taxonomy", str(taxonomy_json), str(tsv)]) == 3
    assert f"{tsv}: line {bad}:" in caplog.text


def test_overlay_failed_write_leaves_no_file(tmp_path, taxonomy_json, monkeypatch):
    import partfuse.imaging

    write_pnm8 = partfuse.imaging.write_pnm8

    def half_then_fail(arr, path):
        write_pnm8(arr, path)
        os.truncate(path, os.path.getsize(path) // 2)
        raise OSError(f"{path}: no space left on device")

    write_overlay_inputs(tmp_path)
    # the binding write_pnm calls
    monkeypatch.setattr(partfuse.imaging, "write_pnm8", half_then_fail)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(overlay_args(taxonomy_json, tmp_path, out_dir / "o.ppm")) == 2
    assert list(out_dir.iterdir()) == []


def test_eval_failed_tsv_write_leaves_no_file(tmp_path, taxonomy_json, monkeypatch):
    write_text = Path.write_text

    def half_then_fail(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(f"{self}: no space left on device")

    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setattr(Path, "write_text", half_then_fail)
    args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir),
            "--tsv", str(out_dir / "m.tsv"), str(pred_dir)]
    assert main(args) == 2
    assert list(out_dir.iterdir()) == []


def non_utf8_case(tmp_path, taxonomy_json, target):
    """Arguments of a command that succeeds, and the one text input it
    reads that the test then replaces or damages."""
    if target in ("fuse-taxonomy", "fuse-config", "proposals"):
        inputs = tmp_path / "in"
        inputs.mkdir()
        write_fuse_sample(inputs, "img0")
        config = tmp_path / "run.json"
        config.write_text("{}")
        args = fuse_args(taxonomy_json, tmp_path / "out", inputs, "--config", str(config))
        files = {"fuse-taxonomy": taxonomy_json, "fuse-config": config,
                 "proposals": inputs / "img0.proposals.json"}
    elif target in ("camera", "rgbd-config"):
        scene = write_rgbd_scene_dir(tmp_path)
        config = write_rgbd_config(tmp_path)
        args = ["label", "rgbd", "--taxonomy", str(taxonomy_json), "--config",
                str(config), "--out", str(tmp_path / "out"), str(scene)]
        files = {"camera": scene / "camera.json", "rgbd-config": config}
    elif target == "monitor-config":
        root, _, config = write_monitor_dataset(tmp_path)
        args = ["label", "monitor", "--taxonomy", str(taxonomy_json), "--config", str(config),
                "--out", str(tmp_path / "out"), str(root)]
        files = {"monitor-config": config}
    else:
        gt_dir, pred_dir = make_eval_dirs(tmp_path)
        tsv = tmp_path / "m.tsv"
        eval_args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), "--tsv", str(tsv)]
        assert main([*eval_args, str(pred_dir)]) == 0
        args = ["report", "--taxonomy", str(taxonomy_json), str(tsv)]
        files = {"tsv": tsv, "report-taxonomy": taxonomy_json}
    return args, files[target]


@pytest.mark.parametrize(
    "target, code",
    [("fuse-taxonomy", 3), ("fuse-config", 3), ("proposals", 3), ("camera", 3),
     ("tsv", 3), ("report-taxonomy", 3)],
)
def test_non_utf8_text_input_exit_code(tmp_path, taxonomy_json, caplog, target, code):
    args, path = non_utf8_case(tmp_path, taxonomy_json, target)
    assert main(args) == 0
    path.write_bytes(b'{"name": "\xff"}\n')
    assert main(args) == code
    assert caplog.records[-1].levelname == "ERROR"
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("variant", ["rgbd", "monitor"])
@pytest.mark.parametrize(
    "content, message",
    [(b'{"object_class_id": "\xff"}\n', "not valid JSON"),
     (b'{"object_class_id": "one"}\n', "malformed"),
     (b'{"seed": 1}\n', "malformed")],
)
def test_label_config_errors_exit_3(tmp_path, taxonomy_json, caplog, variant, content, message):
    # label --config is parsed once, as run settings; the labelling
    # settings are read from the same JSON object
    config = tmp_path / "config.json"
    config.write_bytes(content)
    args = ["label", variant, "--taxonomy", str(taxonomy_json), "--config", str(config),
            "--out", str(tmp_path / "out"), str(tmp_path)]
    assert main(args) == 3
    assert message in caplog.records[-1].getMessage()
    assert "Traceback" not in caplog.text


DROP = object()


@pytest.mark.parametrize(
    "target, where, value",
    [("fuse-config", ["jobs"], "<1e400>"),
     ("fuse-config", ["min_instance_area"], "<1e400>"),
     ("fuse-config", ["seed"], "3"),
     ("proposals", [0, "class_id"], "<1e400>"),
     ("rgbd-config", ["ransac_iterations"], "<1e400>"),
     ("rgbd-config", ["pmf"], {"initial_window": 1.5}),
     ("rgbd-config", ["part_rules", 0, "hsv_range", "note"], "seal"),
     ("monitor-config", ["closing_window"], "<1e400>"),
     ("camera", ["width"], "<1e400>"),
     ("camera", ["cx"], "<NaN>"),
     ("fuse-taxonomy", ["semantic_classes", 0, "name"], DROP),
     ("fuse-taxonomy", ["semantic_classes", 0, "is_thing"], DROP),
     ("fuse-taxonomy", ["part_classes"], 5),
     ("fuse-taxonomy", ["part_classes", 0, "parent_semantic_id"], [1])],
    ids=["jobs-1e400", "min-area-1e400", "seed-string", "class-id-1e400", "ransac-1e400",
         "pmf-window-1.5", "hsv-unknown-key", "closing-1e400", "width-1e400", "cx-nan",
         "no-name", "no-is-thing", "part-classes-5", "parent-list"],
)
def test_malformed_json_input_exit_code(tmp_path, taxonomy_json, caplog, target, where, value):
    args, path = non_utf8_case(tmp_path, taxonomy_json, target)
    assert main(args) == 0
    raw = json.loads(path.read_text())
    *parents, key = where
    node = raw
    for step in parents:
        node = node[step]
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    text = json.dumps(raw).replace('"<1e400>"', "1e400").replace('"<NaN>"', "NaN")
    path.write_text(text)
    caplog.clear()
    assert main(args) == 3
    (record,) = caplog.records
    assert record.levelname == "ERROR" and "\n" not in record.getMessage()
    assert "Traceback" not in caplog.text
