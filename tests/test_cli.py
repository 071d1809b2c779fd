"""End-to-end CLI tests: exit codes, file outputs, determinism."""

import concurrent.futures
import concurrent.futures.process
import concurrent.futures.thread
import errno
import functools
import json
import logging
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import partfuse

from partfuse import cli, formats, fusion
from partfuse.cli import main
from partfuse.containers import InstanceProposal, tile_rows
from partfuse.errors import FormatError, ValidationError
from partfuse.formats import read_pnm, write_pnm
from partfuse.params import STRATEGIES

from conftest import BAG, BOTTLE, CENTER, HOSPITAL_TAXONOMY, OTHER, SEAL, TABLE, make_triple
from scenes import (
    build_rgbd_scene,
    fresh_env,
    rgbd_config,
    save_camera,
    scene_image,
    write_fuse_sample,
    write_ply,
    write_proposals,
    write_tensor,
)
from test_autolabel_monitor import BLUE_BG, disk_scene


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
    # any of the stem's three files, or the bare stem, names the same stem
    for i, name in enumerate(["img0.sem.ppt1", "img0.part.ppt1", "img0.proposals.json", "img0"]):
        single = tmp_path / f"single{i}"
        assert main(fuse_args(taxonomy_json, single, inputs / name)) == 0
        assert tree_bytes(single) == tree_bytes(out)


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
    write_tensor(sem, inputs / "c0.sem.ppt1")
    write_tensor(part, inputs / "c0.part.ppt1")
    left = np.full((h, w), -8.0, dtype=np.float32)
    left[:, :8] = 4.0
    right = np.full((h, w), -8.0, dtype=np.float32)
    right[:, 8:] = 4.0
    write_tensor(left, inputs / "c0_left.ppt1")
    write_tensor(right, inputs / "c0_right.ppt1")
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
    from partfuse.overlay import default_overlay_spec
    from partfuse.taxonomy import load_taxonomy

    image = np.zeros((6, 6, 3), dtype=np.uint8)
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
    assert (rendered == np.array(spec.class_colors[TABLE])).all()


@pytest.mark.parametrize("removed", [("sem",), ("sem", "inst"), ("sem", "part")])
def test_eval_finds_ground_truth_stems_by_any_map(tmp_path, taxonomy_json, caplog, removed):
    """A ground-truth stem that lost its .sem.pgm is still scored, and so
    reported, rather than skipped."""
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    for directory in (gt_dir, pred_dir):
        formats.write_label_triple(formats.read_label_triple(directory / "a"), directory / "b")
    for kind in removed:
        (gt_dir / f"b.{kind}.pgm").unlink()
    args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), str(pred_dir)]
    assert main(args) == 3
    assert f"{gt_dir / 'b.sem.pgm'}: file not found" in caplog.text


def test_a_file_named_only_by_a_suffix_names_no_empty_stem(tmp_path, taxonomy_json, caplog):
    """Stripping the whole name would leave an empty stem, which pathlib
    refuses with ValueError (exit 1 and a traceback)."""
    (tmp_path / ".sem.ppt1").write_bytes(b"")
    fuse = ["fuse", "--taxonomy", str(taxonomy_json), "--out", str(tmp_path / "out")]
    assert main([*fuse, str(tmp_path / ".sem.ppt1")]) == 3
    assert f"{tmp_path / '.sem.ppt1.sem.ppt1'}: file not found" in caplog.text
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    (gt_dir / ".sem.pgm").write_bytes(b"")
    args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), str(pred_dir)]
    assert main(args) == 3
    assert "is missing predictions for ['.sem.pgm']" in caplog.text


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
    # a missing or incomplete directory, wherever it is listed, fails the
    # run (3) before any stem is scored; otherwise the first directory with
    # a faulty prediction decides the exit code, as if the directories were
    # scored one after another
    gt_dir, preds = make_three_pred_dirs(tmp_path)
    truncate(preds[1] / "b.sem.pgm")  # corrupt: 2
    formats.write_label_triple(  # invalid: 3
        make_triple(np.full((2, 50), 99, dtype=np.uint16)), preds[2] / "a"
    )
    assert eval_three(taxonomy_json, gt_dir, preds) == 2
    missing = tmp_path / "absent"
    assert eval_three(taxonomy_json, gt_dir, [preds[0], preds[2], missing]) == 3
    assert eval_three(taxonomy_json, gt_dir, [preds[0], missing, preds[1]]) == 3
    assert eval_three(taxonomy_json, gt_dir, [preds[1], missing]) == 3
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


def unknown_class(sem, inst, part):
    sem[1, 0] = 99


def unknown_part(sem, inst, part):
    part[1, 0] = 77


def instance_on_void(sem, inst, part):
    inst[1, 0] = 2


def spanning_instance(sem, inst, part):
    sem[1, :5], inst[1, :5] = BOTTLE, 1  # instance 1 is a bag in row 0


def wrong_size(sem, inst, part):
    return np.zeros((4, 4), dtype=np.uint16)


def wrong_size_and_unknown_class(sem, inst, part):
    sem = np.zeros((4, 4), dtype=np.uint16)
    sem[3, 3] = 99
    return sem


# fault of the ground truth (or None), fault of the prediction, the
# message eval logs; a fault edits make_eval_dirs' 2x50 maps in place, or
# returns the semantic map of an all-void triple of another size
EVAL_FAULTS = {
    "invalid-gt-first": (spanning_instance, unknown_class,
                         "instance id 1 spans more than one semantic class"),
    "invalid-gt-before-size": (spanning_instance, wrong_size,
                               "instance id 1 spans more than one semantic class"),
    "unknown-class": (None, unknown_class, "semantic map uses unknown class id 99"),
    "unknown-part": (None, unknown_part, "part map uses unknown part id 77"),
    "instance-on-void": (None, instance_on_void, "instance ids present on non-thing pixels"),
    "spanning-instance": (None, spanning_instance,
                          "instance id 1 spans more than one semantic class"),
    "wrong-size": (None, wrong_size,
                   "prediction and ground truth differ in size: (4, 4) vs (2, 50)"),
    "wrong-size-and-unknown-class": (None, wrong_size_and_unknown_class,
                                     "semantic map uses unknown class id 99"),
}


def write_fault(directory, fault):
    maps = [m.copy() for m in read_triple_trio(directory / "a")]
    sem = fault(*maps)
    if sem is not None:
        maps = [sem, np.zeros_like(sem), np.zeros_like(sem)]
    formats.write_label_triple(make_triple(*maps), directory / "a")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", list(EVAL_FAULTS))
def test_eval_error_precedence(tmp_path, taxonomy_json, caplog, case, jobs):
    """The first fault of a pair decides exit code and message, at any
    --jobs: the ground truth's, then the prediction's labels, then its
    size; stem b of each directory is valid."""
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    for directory in (gt_dir, pred_dir):
        formats.write_label_triple(formats.read_label_triple(directory / "a"), directory / "b")
    gt_fault, pred_fault, message = EVAL_FAULTS[case]
    if gt_fault is not None:
        write_fault(gt_dir, gt_fault)
    write_fault(pred_dir, pred_fault)
    args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), "--jobs", jobs,
            str(pred_dir)]
    assert main(args) == 3
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [message]


def test_eval_reads_each_prediction_once(tmp_path, taxonomy_json, monkeypatch):
    """Every payload byte of a prediction's three maps is read exactly
    once per pair, for two directories of two stems of three row tiles."""
    h, w = 2 * tile_rows(1024) + 5, 1024
    sem = np.full((h, w), TABLE, dtype=np.uint16)
    inst = np.zeros_like(sem)
    part = np.zeros_like(sem)
    sem[: h // 2, 100:300], inst[: h // 2, 100:300], part[: h // 2, 100:200] = BAG, 1, SEAL
    dirs = [tmp_path / name for name in ("gt", "p1", "p2")]
    for directory in dirs:
        directory.mkdir()
        for stem in ("a", "b"):
            formats.write_label_triple(make_triple(sem, inst, part), directory / stem)
    read_bytes: dict[Path, int] = {}
    read = formats.TensorFile.read

    def counting(self, *args, **kwargs):
        out = read(self, *args, **kwargs)
        read_bytes[self.path] = read_bytes.get(self.path, 0) + out.nbytes
        return out

    monkeypatch.setattr(formats.TensorFile, "read", counting)
    args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(dirs[0]), "--jobs", "1",
            *map(str, dirs[1:])]
    assert main(args) == 0
    preds = [p for d in dirs[1:] for stem in ("a", "b") for p in formats.triple_paths(d / stem)]
    assert {p: n for p, n in read_bytes.items() if p.parent != dirs[0]} == dict.fromkeys(
        preds, h * w * 2)


@pytest.mark.parametrize("kind", [0, 2], ids=["sem", "part"])
def test_eval_of_a_prediction_that_shrinks_after_it_was_opened(tmp_path, taxonomy_json,
                                                               monkeypatch, caplog, kind):
    # a prediction is read in row tiles from the files it opened: one that
    # shrinks in between is a FormatError (exit 2), not a short read
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    opened = formats.open_label_triple

    def open_then_truncate(stem):
        triple = opened(stem)
        if Path(stem).parent == pred_dir:
            path = formats.triple_paths(stem)[kind]
            os.truncate(path, path.stat().st_size - 3)
        return triple

    monkeypatch.setattr(formats, "open_label_triple", open_then_truncate)
    args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), str(pred_dir)]
    assert main(args) == 2
    assert f"{formats.triple_paths(pred_dir / 'a')[kind]}: truncated" in caplog.text


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


def write_rgbd_scene_dir(tmp_path, name="scene_0", seed=0, density=1):
    scene = tmp_path / name
    scene.mkdir()
    cloud, _, camera = build_rgbd_scene(seed=seed, density=density)
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


def bad_config(field, value, message=None):
    """A config value the run rejects before any scene, and what the error
    says: by default, that the value is not a taxonomy class id."""
    return pytest.param(field, value, message or f"class id {value}", id=f"{field}-{value}")


# a config id that is not a taxonomy class, where ("part_rules", id) gives
# the first part rule that id
UNKNOWN_CONFIG_IDS = [bad_config(*case) for case in [
    ("object_class_id", 99), ("object_class_id", 70000), ("background_class_id", 99),
    ("part_rules", 99), ("catchall_part_id", 98)]]


def with_config_id(config: Path, field: str, value) -> None:
    raw = json.loads(config.read_text())
    if field == "part_rules":
        raw["part_rules"][0]["part_id"] = value
    else:
        raw[field] = value
    config.write_text(json.dumps(raw))


def refuse_scene_work(monkeypatch, module: str, stage: str) -> None:
    """Make the first stage of a scene's work fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{stage} ran")

    monkeypatch.setattr(f"partfuse.{module}.{stage}", refuse)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("field, value, message", UNKNOWN_CONFIG_IDS + [
    bad_config("ransac_iterations", 0, "ransac_iterations must be >= 1"),
    bad_config("ransac_threshold", 0, "ransac_threshold must be positive"),
    bad_config("ransac_threshold", -1, "ransac_threshold must be positive"),
    bad_config("cluster_radius", -0.01, "cluster_radius must be >= 0")])
def test_label_rgbd_checks_class_ids_before_any_scene(tmp_path, taxonomy_json, monkeypatch,
                                                      caplog, field, value, message, jobs):
    scenes = [write_rgbd_scene_dir(tmp_path, f"scene_{i}", seed=i) for i in range(2)]
    config = write_rgbd_config(tmp_path)
    with_config_id(config, field, value)
    refuse_scene_work(monkeypatch, "autolabel_rgbd", "segment_objects")
    for keep_going in ([], ["--keep-going"]):
        out = tmp_path / f"out{keep_going}"
        args = ["label", "rgbd", "--taxonomy", str(taxonomy_json), "--config", str(config),
                "--out", str(out), "--jobs", jobs, *keep_going, *map(str, scenes)]
        caplog.clear()
        assert main(args) == 3
        assert message in caplog.text
        assert not out.exists()


def write_monitor_dataset(tmp_path, seed=5):
    root = tmp_path / "dataset"
    root.mkdir()
    scene = root / "scene_0"
    scene.mkdir()
    img_blue, img_black, _, _ = disk_scene()
    write_pnm(img_blue, scene / "blue.ppm")
    write_pnm(img_black, scene / "black.ppm")
    rng = np.random.default_rng(seed)
    for m in range(2):
        target = rng.integers(0, 256, (128, 128, 3)).astype(np.uint8)
        write_pnm(target, scene / f"target_{m}.ppm")
    backgrounds = tmp_path / "backgrounds"
    backgrounds.mkdir()
    for b in range(3):
        bg = rng.integers(0, 256, (128, 128, 3)).astype(np.uint8)
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


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("field, value, message", UNKNOWN_CONFIG_IDS + [
    bad_config("quantize_levels", 0, "quantize_levels must be in [1, 256]"),
    bad_config("quantize_levels", 257, "quantize_levels must be in [1, 256]")])
def test_label_monitor_checks_class_ids_before_any_scene(tmp_path, taxonomy_json, monkeypatch,
                                                         caplog, field, value, message, jobs):
    root, backgrounds, config = write_monitor_dataset(tmp_path)
    for target in root.glob("*/target_*.ppm"):  # composites only
        target.unlink()
    shutil.copytree(root / "scene_0", root / "scene_1")  # an item for each worker
    with_config_id(config, field, value)
    refuse_scene_work(monkeypatch, "autolabel_monitor", "extract_reference_mask")
    for keep_going in ([], ["--keep-going"]):  # no scene runs, so none can be skipped
        out = tmp_path / f"out{keep_going}"
        args = ["label", "monitor", "--taxonomy", str(taxonomy_json), "--config", str(config),
                "--out", str(out), "--backgrounds", str(backgrounds), "--composites", "2",
                "--jobs", jobs, *keep_going, str(root)]
        caplog.clear()
        assert main(args) == 3
        assert message in caplog.text
        assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--composites", "-3", "--composites must be >= 0, got -3"),
    ("--jobs", "0", "jobs must be >= 1, got 0"),
    ("--jobs", "-3", "jobs must be >= 1, got -3"),
], ids=["composites--3", "jobs-0", "jobs--3"])
def test_label_monitor_rejects_bad_counts_before_any_scene(
    tmp_path, taxonomy_json, caplog, flag, value, message
):
    root, backgrounds, config = write_monitor_dataset(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    args = ["label", "monitor", "--taxonomy", str(taxonomy_json), "--config", str(config),
            "--out", str(out), "--backgrounds", str(backgrounds), flag, value,
            "--keep-going", str(root)]  # no scene runs, so none can be skipped
    assert main(args) == 3
    assert message in caplog.text
    assert not list(out.iterdir())


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
    blue = np.tile(np.array(BLUE_BG, dtype=np.uint8), (128, 128, 1))
    black = np.zeros((128, 128, 3), dtype=np.uint8)
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


def test_label_rgbd_pmf_grid_beyond_its_bound(tmp_path, taxonomy_json, caplog, capfd):
    scene = write_rgbd_scene_dir(tmp_path)
    config = write_rgbd_config(tmp_path)
    config.write_text(json.dumps({**json.loads(config.read_text()), "pmf": {"cell_size": 1e-7}}))
    args = ["label", "rgbd", "--taxonomy", str(taxonomy_json), "--config", str(config),
            "--out", str(tmp_path / "out"), str(scene)]
    assert main(args) == 3
    (error,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert "cell_size 1e-07" in error
    assert "Traceback" not in caplog.text + capfd.readouterr().err


def write_augment_dataset(tmp_path, seed=6):
    dataset = tmp_path / "samples"
    dataset.mkdir()
    rng = np.random.default_rng(seed)
    for name in ("s0", "s1"):
        image = rng.integers(0, 256, (6, 8, 3)).astype(np.uint8)
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
    original = read_pnm(dataset / "s0.ppm")
    vflip = read_pnm(out / "s0_vflip.ppm")
    assert np.array_equal(vflip[::-1, :], original)
    trip_orig = formats.read_label_triple(dataset / "s0")
    trip_v = formats.read_label_triple(out / "s0_vflip")
    assert np.array_equal(trip_v.semantic_map[::-1, :], trip_orig.semantic_map)


@pytest.mark.parametrize("command", ["rgbd", "monitor", "augment"])
def test_dotted_stems_write_their_own_files(tmp_path, taxonomy_json, command):
    # "scene.v1" and "scene.v2" name two outputs each, not one "scene.ppm"
    if command == "rgbd":
        scenes = [write_rgbd_scene_dir(tmp_path, name) for name in ("scene.v1", "scene.v2")]
        options = ["label", "rgbd", "--taxonomy", str(taxonomy_json),
                   "--config", str(write_rgbd_config(tmp_path))]
        inputs = [str(scene) for scene in scenes]
        names = ["scene.v1.ppm", "scene.v1.provenance.json", "scene.v2.ppm",
                 "scene.v2.provenance.json"]
    elif command == "monitor":
        root, _, config = write_monitor_dataset(tmp_path)
        for name in ("scene.v1", "scene.v2"):
            shutil.copytree(root / "scene_0", root / name)
        shutil.rmtree(root / "scene_0")
        options = ["label", "monitor", "--taxonomy", str(taxonomy_json), "--config", str(config)]
        inputs = [str(root)]
        names = ["scene.v1.provenance.json", "scene.v1_target_0.ppm", "scene.v1_target_1.ppm",
                 "scene.v2.provenance.json", "scene.v2_target_0.ppm", "scene.v2_target_1.ppm"]
    else:
        dataset = write_augment_dataset(tmp_path)
        for old, new in (("s0", "scene.v1"), ("s1", "scene.v2")):
            for path in dataset.glob(f"{old}.*"):
                path.rename(dataset / (new + path.name[len(old):]))
        options, inputs = ["augment"], [str(dataset)]
        names = [f"scene.v{i}_{flip}.ppm" for i in (1, 2)
                 for flip in ("hflip", "id", "rot180", "vflip")]
    out = tmp_path / "out"
    assert main(options + ["--out", str(out)] + inputs) == 0
    assert sorted(p.name for p in out.iterdir() if not p.name.endswith(".pgm")) == names
    for name in names:
        if name.endswith(".ppm"):
            assert formats.triple_paths(out / name[: -len(".ppm")])[0].exists()


def test_augment_unreadable_sample_exit_code(tmp_path):
    dataset = write_augment_dataset(tmp_path)
    (dataset / "s0.sem.pgm").unlink()  # break one sample: a missing input file
    code = main(["augment", "--out", str(tmp_path / "aug"), str(dataset)])
    assert code == 3
    code = main(
        ["augment", "--out", str(tmp_path / "aug2"), "--keep-going", str(dataset)]
    )
    assert code == 0
    assert (tmp_path / "aug2" / "s1_id.ppm").exists()


def test_overlay_all_void_passthrough(tmp_path, taxonomy_json):
    rng = np.random.default_rng(7)
    image = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
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
    assert np.array_equal(read_pnm(out_path), image)


def test_overlay_dimension_mismatch_exit(tmp_path, taxonomy_json):
    rng = np.random.default_rng(8)
    image = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
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


@pytest.mark.parametrize(
    "broken, damage, failure",
    [(0, "corrupt", 2), (1, "corrupt", 2), (1, "missing", 3), (1, "missing-sem", 3)],
)
def test_fuse_failure_commits_same_tree_for_any_jobs(
    tmp_path, taxonomy_json, caplog, broken, damage, failure
):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(3):
        write_fuse_sample(inputs, f"img{i}")
    if damage == "corrupt":
        (inputs / f"img{broken}.sem.ppt1").write_bytes(b"XXXX garbage")
    else:  # a missing file fails its own stem only, whichever file it is
        suffix = ".sem.ppt1" if damage == "missing-sem" else ".part.ppt1"
        (inputs / f"img{broken}{suffix}").unlink()
    for keep_going, code, kept in ((False, failure, range(broken)), (True, 0, (0, 1, 2))):
        flags = ["--keep-going"] if keep_going else []
        trees, logged = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"out_{keep_going}_{jobs}"
            argv = fuse_args(taxonomy_json, out, inputs, "--jobs", jobs, *flags)
            caplog.clear()
            assert main(argv) == code
            assert not [p for p in out.iterdir() if not p.is_file()]  # no staging left
            trees.append(tree_bytes(out))
            logged.append([(r.levelname, r.getMessage()) for r in caplog.records
                           if r.levelno >= logging.WARNING])
        assert trees[0] == trees[1]
        assert len(logged[0]) == 1 and logged[0] == logged[1]
        kinds = ("sem", "inst", "part")
        expected = {f"img{i}.{k}.pgm" for i in kept if i != broken for k in kinds}
        assert set(trees[0]) == expected


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fuse_checks_strategy_before_any_frame(tmp_path, monkeypatch, caplog, jobs):
    """Part-wise fusion needs part classes: with a taxonomy that has none,
    partpanoptic fails the run before any frame is read, and the baselines
    fuse the same frames."""
    taxonomy = tmp_path / "partless.json"
    taxonomy.write_text(json.dumps({**HOSPITAL_TAXONOMY, "part_classes": []}))
    inputs = write_fuse_inputs(tmp_path, 2)
    for stem in ("img0", "img1"):
        write_tensor(np.zeros((0, 8, 8), dtype=np.float32), inputs / f"{stem}.part.ppt1")
    assert main(fuse_args(taxonomy, tmp_path / "none", inputs, "--strategy", "none")) == 0
    assert len(list((tmp_path / "none").iterdir())) == 6

    def refuse(*args, **kwargs):
        raise AssertionError("a frame was read")

    monkeypatch.setattr(formats, "read_sample", refuse)
    for flags in ([], ["--keep-going"]):
        out = tmp_path / f"out{flags}"
        caplog.clear()
        assert main(fuse_args(taxonomy, out, inputs, "--jobs", jobs, *flags)) == 3
        assert "part-wise fusion requires at least one part class" in caplog.text
        assert not out.exists()


# a run that fails a check before its first item: (command line after
# --out, the exit code, what the error says); "{t}" is the taxonomy
# file, "{c}" a labelling config, "{d}" a directory with no inputs and
# "{m}" one that does not exist
FAILED_CHECKS = {
    "fuse-no-inputs": (["fuse", "--taxonomy", "{t}", "{d}"], 3, "no inputs found"),
    "augment-missing": (["augment", "{m}"], 3, "dataset directory not found"),
    "augment-empty": (["augment", "{d}"], 3, "no samples in"),
    "rgbd-no-config": (["label", "rgbd", "--taxonomy", "{t}", "{d}"], 2, "--config"),
    "rgbd-missing-scene": (["label", "rgbd", "--taxonomy", "{t}", "--config", "{c}", "{m}"], 3,
                           "scene directory not found"),
    "monitor-missing-root": (["label", "monitor", "--taxonomy", "{t}", "--config", "{c}", "{m}"],
                             3, "dataset root not found"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", list(FAILED_CHECKS))
def test_a_run_that_fails_a_check_creates_no_out(tmp_path, taxonomy_json, caplog, capsys,
                                                 case, jobs):
    (tmp_path / "empty").mkdir()
    (tmp_path / "config.json").write_text(json.dumps({"object_class_id": BAG}))
    command, code, message = FAILED_CHECKS[case]
    paths = {"{t}": str(taxonomy_json), "{c}": str(tmp_path / "config.json"),
             "{d}": str(tmp_path / "empty"), "{m}": str(tmp_path / "missing")}
    *options, inputs = [paths.get(word, word) for word in command]
    for keep_going in ([], ["--keep-going"]):
        out = tmp_path / "out" / "nested"
        args = [*options, "--out", str(out), "--jobs", jobs, *keep_going, inputs]
        caplog.clear()
        try:
            assert main(args) == code
        except SystemExit as usage:  # argparse reports a missing required flag
            assert usage.code == code
        assert message in caplog.text + capsys.readouterr().err
        assert not (tmp_path / "out").exists()


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="--jobs N forks its workers")


def write_fuse_inputs(tmp_path, count):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(count):
        write_fuse_sample(inputs, f"img{i}")
    return inputs


def test_jobs_1_runs_every_item_in_the_calling_thread(tmp_path, taxonomy_json, monkeypatch):
    """No executor at --jobs 1, nor for a single item at --jobs 2: the
    traced benchmark's one span stack needs every item in this thread."""

    def refuse(*args, **kwargs):
        raise AssertionError("an executor was created")

    for module, name in ((concurrent.futures.process, "ProcessPoolExecutor"),
                         (concurrent.futures.thread, "ThreadPoolExecutor"),
                         (concurrent.futures, "ProcessPoolExecutor"),
                         (concurrent.futures, "ThreadPoolExecutor")):
        monkeypatch.setattr(module, name, refuse)
    threads, fuse = [], fusion.fuse

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return fuse(*args, **kwargs)

    monkeypatch.setattr(fusion, "fuse", spy)
    inputs = write_fuse_inputs(tmp_path, 3)
    assert main(fuse_args(taxonomy_json, tmp_path / "one", inputs, "--jobs", "1")) == 0
    assert main(fuse_args(taxonomy_json, tmp_path / "two", inputs / "img0", "--jobs", "2")) == 0
    assert threads == [threading.get_ident()] * 4


class InlinePool:
    """ProcessPoolExecutor's stand-in: records its worker count in
    ``counts`` and runs each call at once, in this process."""

    def __init__(self, counts, max_workers, mp_context, initializer, initargs):
        counts.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, cancel_futures=False):
        pass


@needs_fork
def test_worker_count_is_jobs_capped_by_items(monkeypatch):
    counts = []
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        functools.partial(InlinePool, counts))
    monkeypatch.setattr(cli, "_adopted", None)
    for jobs, n, pools in ((1, 5, []), (2, 5, [2]), (8, 3, [3]), (3, 3, [3]), (8, 1, []),
                           (4, 0, [])):
        counts.clear()
        results, errors = cli._run_items(range(n), lambda item, stage: 10 * item, jobs)
        assert (results, errors) == ([10 * i for i in range(n)], [])
        assert counts == pools, (jobs, n)


@needs_fork
def test_worker_processes_return_results_and_errors_in_input_order():
    def work(item, stage):
        if item == 2:
            raise ValidationError(f"item {item} is bad")
        if item == 3:
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", f"/nowhere/{item}")
        return item, os.getpid()

    results, errors = cli._run_items(range(6), work, 2, keep_going=True)
    assert [item for item, _ in results] == [0, 1, 4, 5]
    workers = {pid for _, pid in results}
    assert os.getpid() not in workers and len(workers) <= 2
    assert [(type(e), str(e)) for e in errors] == [
        (ValidationError, "item 2 is bad"),
        (FileNotFoundError, "[Errno 2] No such file or directory: '/nowhere/3'"),
    ]
    with pytest.raises(ValidationError, match="^item 2 is bad$"):
        cli._run_items(range(6), work, 2)


@pytest.mark.parametrize("jobs", [1, 2])
def test_kept_errors_hold_no_traceback_cause_or_context(jobs):
    """A failed item's error is kept as a forked worker sends it back: its
    class and message, holding none of the frames that raised it."""
    def work(item, stage):
        try:
            raise KeyError(item)
        except KeyError as exc:
            raise ValidationError(f"item {item} is bad") from exc

    results, errors = cli._run_items(range(3), work, jobs, keep_going=True)
    assert results == []
    assert [(type(e), str(e)) for e in errors] == [
        (ValidationError, f"item {i} is bad") for i in range(3)]
    for error in errors:
        assert (error.__traceback__, error.__cause__, error.__context__) == (None, None, None)


@needs_fork
@pytest.mark.parametrize("flags", [[], ["--keep-going"]], ids=["stop", "keep-going"])
def test_a_dead_worker_is_one_logged_error_and_exit_2(tmp_path, taxonomy_json, caplog,
                                                     monkeypatch, flags):
    inputs = write_fuse_inputs(tmp_path, 3)
    # the workers are forked from this process, so they inherit the patch
    monkeypatch.setattr(fusion, "fuse", lambda *args, **kwargs: os._exit(1))
    out = tmp_path / "out"
    assert main(fuse_args(taxonomy_json, out, inputs, "--jobs", "2", *flags)) == 2
    (record,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert record.levelname == "ERROR"
    assert record.getMessage().startswith("a worker process died: ")
    assert "\n" not in record.getMessage() and "Traceback" not in caplog.text
    assert list(out.iterdir()) == []  # no .partfuse-stage-* directory left


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


def committed_stem(directory, stem):
    """The bytes of ``stem``'s files in ``directory``, its label triple and
    what else shares its name; None where read_label_triple reports a map
    missing."""
    try:
        formats.read_label_triple(directory / stem)
    except ValidationError as exc:
        assert str(exc).endswith("file not found")
        return None
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name.startswith(f"{stem}.")}


def commit_command(command, inputs, seed, taxonomy_json):
    """Write ``command``'s inputs for ``seed`` under ``inputs``; returns a
    function of the output directory that gives the command line."""
    taxonomy = ["--taxonomy", str(taxonomy_json)]
    if command == "fuse":
        for i in range(2):
            write_many_proposals(inputs, f"img{i}", 3, seed=seed + i)
        return lambda out: fuse_args(taxonomy_json, out, inputs)
    if command == "augment":
        dataset = write_augment_dataset(inputs, seed=seed)
        return lambda out: ["augment", "--out", str(out), str(dataset)]
    if command == "rgbd":
        scene = write_rgbd_scene_dir(inputs, seed=seed)
        config = write_rgbd_config(inputs)
        return lambda out: ["label", "rgbd", *taxonomy, "--config", str(config),
                            "--out", str(out), str(scene)]
    if command == "monitor":
        root, _, config = write_monitor_dataset(inputs, seed=seed)
        return lambda out: ["label", "monitor", *taxonomy, "--config", str(config),
                            "--out", str(out), str(root)]
    rng = np.random.default_rng(seed)
    if command == "eval":  # two prediction rows, so two TSV files
        dirs = [inputs / name for name in ("gt", "a", "b")]
        for directory in dirs:
            directory.mkdir()
            for stem in ("s0", "s1"):  # a bag of random width on a table
                sem = np.full((6, 8), TABLE)
                sem[:, : rng.integers(1, 8)] = BAG
                formats.write_label_triple(make_triple(sem, sem == BAG), directory / stem)
        return lambda out: ["eval", *taxonomy, "--gt", str(dirs[0]),
                            "--tsv", str(out / "scores.tsv"), *map(str, dirs[1:])]
    write_pnm(rng.integers(0, 256, (6, 6, 3)).astype(np.uint8), inputs / "img.ppm")
    formats.write_label_triple(make_triple(np.full((6, 6), TABLE)), inputs / "img")
    return lambda out: overlay_args(taxonomy_json, inputs, out / "overlay.ppm")


@pytest.mark.parametrize("command", ["fuse", "augment", "rgbd", "monitor", "eval", "overlay"])
def test_interrupted_commit_leaves_no_mixed_triple(tmp_path, taxonomy_json, monkeypatch, command):
    """A run over a previous run's output whose k-th rename fails, for
    every k, leaves each stem old, new, or reported missing, and each
    file old or new."""
    argv = {}
    for run, seed in (("old", 10), ("new", 0)):
        inputs = tmp_path / f"in_{run}"
        inputs.mkdir()
        argv[run] = commit_command(command, inputs, seed, taxonomy_json)
    replace, renames, fail_at = os.replace, [], [None]

    def failing_replace(src, dst):
        renames.append(dst)
        if len(renames) == fail_at[0]:
            raise OSError(f"{dst}: injected failure")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    for run in ("old", "new"):
        (tmp_path / run).mkdir()
        renames.clear()
        assert main(argv[run](tmp_path / run)) == 0
    total = len(renames)
    assert total > 0
    trees = {run: tree_bytes(tmp_path / run) for run in ("old", "new")}
    assert set(trees["old"]) == set(trees["new"])
    stems = sorted(p.name[: -len(".sem.pgm")] for p in (tmp_path / "new").glob("*.sem.pgm"))
    states = {
        run: {stem: committed_stem(tmp_path / run, stem) for stem in stems}
        for run in ("old", "new")
    }
    assert all(states["old"][stem] != states["new"][stem] for stem in stems)
    if not stems:  # eval's TSVs, overlay's image
        assert all(trees["old"][name] != trees["new"][name] for name in trees["new"])
    for k in range(1, total + 1):
        out = tmp_path / f"out_{k}"
        shutil.copytree(tmp_path / "old", out)
        renames.clear()
        fail_at[0] = k
        assert main(argv["new"](out)) == 2
        for stem in stems:
            state = committed_stem(out, stem)
            assert state in (None, states["old"][stem], states["new"][stem]), (
                f"rename {k} of {total} failed: {stem} mixes two runs")
        for name, data in tree_bytes(out).items():
            assert data in (trees["old"][name], trees["new"][name]), (
                f"rename {k} of {total} failed: {name} is from neither run")
        assert [p for p in out.iterdir() if not p.is_file()] == []  # no staging left


def write_nonfinite_sample(directory, name, places, value):
    """write_fuse_sample's frame plus a bottle proposal below the confidence
    floor, with ``value`` at one pixel of each of ``places``: the table
    (stuff) channel, the bottle channel (a thing without parts) outside
    every footprint, a part channel, or the low-confidence mask."""
    h = w = 8
    sem = np.zeros((4, h, w), dtype=np.float32)
    sem[0, :, :4] = 4.0  # bag channel
    sem[3] = 1.0  # table
    part = np.zeros((3, h, w), dtype=np.float32)
    part[0] = 2.0  # seal
    bag = np.full((h, w), -8.0, dtype=np.float32)
    bag[:, :4] = 4.0
    low = np.full((h, w), -8.0, dtype=np.float32)
    for place in places:
        target = {"stuff": sem[3], "thing": sem[1], "part": part[1], "mask": low}[place]
        target[2, 6] = value  # the right half, outside the bag's footprint
    write_tensor(sem, directory / f"{name}.sem.ppt1")
    write_tensor(part, directory / f"{name}.part.ppt1")
    write_proposals(
        [InstanceProposal(BAG, 0.9, bag), InstanceProposal(BOTTLE, 0.3, low)],
        directory / f"{name}.proposals.json",
        f"{name}_p{{}}.ppt1",
    )


@pytest.mark.parametrize("place", ["stuff", "thing", "part", "mask"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fuse_rejects_nonfinite_values_of_one_item(tmp_path, taxonomy_json, caplog, strategy,
                                                    place):
    message = ("proposal mask logits contain" if place == "mask" else "logit tensor contains")
    for value in (np.nan, np.inf, -np.inf):
        inputs = tmp_path / f"in_{value}"
        inputs.mkdir()
        write_fuse_sample(inputs, "a")
        write_nonfinite_sample(inputs, "b", (place,), value)
        write_fuse_sample(inputs, "c")
        for keep_going, code, kept in ((False, 3, "a"), (True, 0, "ac")):
            out = tmp_path / f"out_{value}_{keep_going}"
            flags = ["--strategy", strategy] + (["--keep-going"] if keep_going else [])
            caplog.clear()
            assert main(fuse_args(taxonomy_json, out, inputs, *flags)) == code, (value, keep_going)
            assert f"{message} non-finite values" in caplog.text
            assert ("WARNING" if keep_going else "ERROR") in caplog.text
            assert sorted(p.name for p in out.iterdir()) == [
                f"{stem}.{kind}.pgm" for stem in kept for kind in ("inst", "part", "sem")
            ]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fuse_reports_a_nonfinite_mask_before_a_nonfinite_logit(tmp_path, taxonomy_json, caplog,
                                                               strategy):
    # the masks are read, and so checked, before the logits
    for logit in ("stuff", "thing", "part"):
        inputs = tmp_path / f"in_{logit}"
        inputs.mkdir()
        write_nonfinite_sample(inputs, "b", ("mask", logit), np.nan)
        caplog.clear()
        out = tmp_path / f"out_{logit}"
        assert main(fuse_args(taxonomy_json, out, inputs, "--strategy", strategy)) == 3
        assert "proposal mask logits contain non-finite values" in caplog.text, logit
        assert "logit tensor contains" not in caplog.text, logit
        assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("channel", [BAG, BOTTLE], ids=["parent", "thing"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fuse_rejects_a_nonfinite_thing_logit_in_a_tile_without_its_instances(
        tmp_path, taxonomy_json, caplog, strategy, channel):
    # a bag and a bottle instance in the first row tile, a NaN in the last
    # tile of one of their channels: every tile of every channel is checked
    h, w = 3 * tile_rows(1024), 1024
    sem = np.zeros((4, h, w), dtype=np.float32)  # channels follow the ids 1..4
    sem[TABLE - 1] = 1.0
    part = np.zeros((3, h, w), dtype=np.float32)
    proposals = []
    for k, class_id in enumerate((BAG, BOTTLE)):
        mask = np.full((h, w), -8.0, dtype=np.float32)
        mask[:4, 100 * k : 100 * k + 50] = 4.0
        sem[class_id - 1, :4, 100 * k : 100 * k + 50] = 4.0
        proposals.append(InstanceProposal(class_id, 0.9, mask))
    for value in (None, np.nan):
        inputs, out = tmp_path / f"in_{value}", tmp_path / f"out_{value}"
        inputs.mkdir()
        if value is not None:
            sem[channel - 1, h - 1, w - 1] = value
        write_tensor(sem, inputs / "b.sem.ppt1")
        write_tensor(part, inputs / "b.part.ppt1")
        write_proposals(proposals, inputs / "b.proposals.json", "b_p{}.ppt1")
        caplog.clear()
        code = main(fuse_args(taxonomy_json, out, inputs, "--strategy", strategy))
        if value is None:  # both instances survive, but consensus voids the
            assert code == 0  # bottle, whose pixels carry a bag part
            instances = np.unique(formats.read_label_triple(out / "b").instance_map).tolist()
            assert instances == ([0, 1] if strategy == "consensus" else [0, 1, 2])
    assert code == 3
    assert "logit tensor contains non-finite values" in caplog.text
    assert not out.exists() or list(out.iterdir()) == []


def write_many_proposals(directory, name, count, seed):
    """An 8x8 frame over the test taxonomy with ``count`` bag proposals."""
    rng = np.random.default_rng(seed)
    write_tensor(rng.normal(size=(4, 8, 8)).astype(np.float32),
                         directory / f"{name}.sem.ppt1")
    write_tensor(rng.normal(size=(3, 8, 8)).astype(np.float32),
                         directory / f"{name}.part.ppt1")
    entries = []
    for i in range(count):
        mask = f"{name}_p{i:03d}.ppt1"
        write_tensor(4 * rng.normal(size=(8, 8)).astype(np.float32), directory / mask)
        entries.append({"class_id": BAG, "confidence": float(rng.uniform(0.5, 1.0)),
                        "mask_tensor_path": mask})
    (directory / f"{name}.proposals.json").write_text(json.dumps(entries))


def main_under_open_file_limit(args) -> subprocess.CompletedProcess:
    """Run ``main(args)`` in a fresh interpreter whose soft and hard
    open-file limits are 64."""
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (64, 64))\n"
        "from partfuse.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run([sys.executable, "-c", limited, *args], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_NOFILE is POSIX")
def test_fuse_many_proposals_under_a_low_open_file_limit(tmp_path, taxonomy_json):
    """A sample holds its two logit files open, and opens each proposal
    mask only while it reads it: two frames of 100 proposals on 2 jobs fuse
    under a soft and hard open-file limit of 64, to the same bytes."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(2):
        write_many_proposals(inputs, f"img{i}", 100, seed=i)
    child = main_under_open_file_limit(
        fuse_args(taxonomy_json, tmp_path / "limited", inputs, "--jobs", "2"))
    assert child.returncode == 0, child.stderr
    assert main(fuse_args(taxonomy_json, tmp_path / "free", inputs, "--jobs", "2")) == 0
    limited_tree = tree_bytes(tmp_path / "limited")
    assert sorted(limited_tree) == [f"img{i}.{k}.pgm" for i in range(2)
                                    for k in ("inst", "part", "sem")]
    assert limited_tree == tree_bytes(tmp_path / "free")


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_NOFILE is POSIX")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fuse_keep_going_over_more_failed_frames_than_open_files(tmp_path, taxonomy_json,
                                                                 jobs):
    """A failed frame holds none of its open logit files once it is
    logged: under an open-file limit of 64, each of 80 frames with a NaN
    logit logs its own error, at any --jobs."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(80):
        write_nonfinite_sample(inputs, f"img{i:02d}", ("stuff",), np.nan)
    child = main_under_open_file_limit(
        fuse_args(taxonomy_json, tmp_path / "out", inputs, "--jobs", jobs, "--keep-going"))
    assert child.returncode == 0, child.stderr
    failures = [line for line in child.stderr.splitlines() if "item failed" in line]
    assert len(failures) == 80, child.stderr
    assert all("logit tensor contains non-finite values" in line for line in failures), failures
    assert sorted((tmp_path / "out").iterdir()) == []


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_NOFILE is POSIX")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_of_many_invalid_predictions_under_a_low_open_file_limit(tmp_path, taxonomy_json,
                                                                      jobs):
    """A prediction that fails its check holds none of its three open
    label maps: under an open-file limit of 64, 60 stems whose second
    prediction uses an unknown class fail on that class, at any --jobs."""
    gt_dir, good, bad = (tmp_path / name for name in ("gt", "good", "bad"))
    for directory in (gt_dir, good, bad):
        directory.mkdir()
    table = make_triple(np.full((2, 8), TABLE))
    unknown = make_triple(np.where(np.arange(8) == 0, 99, np.full((2, 8), TABLE)))
    for k in range(60):
        for directory, triple in ((gt_dir, table), (good, table), (bad, unknown)):
            formats.write_label_triple(triple, directory / f"s{k:04d}")
    child = main_under_open_file_limit(["eval", "--taxonomy", str(taxonomy_json), "--gt",
                                        str(gt_dir), "--jobs", jobs, str(good), str(bad)])
    assert child.returncode == 3, child.stderr
    assert child.stderr.strip().endswith("semantic map uses unknown class id 99"), child.stderr


def test_fuse_of_a_mask_replaced_after_read_proposals(tmp_path, taxonomy_json,
                                                      monkeypatch, caplog):
    # a mask renamed over between its check in read_proposals and its read
    # in fuse fails its sample (exit 2), rather than fuse a file never checked
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_many_proposals(inputs, "img0", 3, seed=0)
    victim = inputs / "img0_p001.ppt1"
    read = formats.read_proposals

    def read_then_replace(path):
        proposals = read(path)
        write_tensor(np.zeros((8, 8), np.float32), tmp_path / "new.ppt1")
        os.replace(tmp_path / "new.ppt1", victim)
        return proposals

    monkeypatch.setattr(formats, "read_proposals", read_then_replace)
    assert main(fuse_args(taxonomy_json, tmp_path / "out", inputs, "--jobs", "1")) == 2
    assert f"{victim}: replaced since it was opened" in caplog.text


def test_fuse_of_a_mask_removed_after_read_proposals(tmp_path, taxonomy_json,
                                                     monkeypatch, caplog):
    # an input changed during the run (exit 2), not a missing input (exit 3)
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_many_proposals(inputs, "img0", 3, seed=0)
    victim = inputs / "img0_p001.ppt1"
    read = formats.read_proposals

    def read_then_remove(path):
        proposals = read(path)
        victim.unlink()
        return proposals

    monkeypatch.setattr(formats, "read_proposals", read_then_remove)
    assert main(fuse_args(taxonomy_json, tmp_path / "out", inputs, "--jobs", "1")) == 2
    assert f"No such file or directory: '{victim}'" in caplog.text


def test_cli_import_leaves_out_scipy_ndimage():
    check = "import sys, partfuse.cli; assert 'scipy.ndimage' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=fresh_env(), check=True, timeout=60)


# runs ``python -m partfuse <args>`` and reports, as JSON on stderr's last
# line, the numpy, scipy and partfuse modules it loaded and the
# OPENBLAS_NUM_THREADS it ended with
MODULE_GUARD = """
import atexit, json, os, runpy, sys
atexit.register(lambda: print(json.dumps({
    "modules": sorted(m for m in sys.modules
                      if m.partition(".")[0] in ("numpy", "scipy", "partfuse")),
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
}), file=sys.stderr))
runpy.run_module("partfuse", run_name="__main__", alter_sys=True)
"""


def fresh_run(args, env=None) -> dict:
    """The guard's report on a fresh ``partfuse <args>``, which must exit 0."""
    child = subprocess.run([sys.executable, "-c", MODULE_GUARD, *args], env=env or fresh_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stderr.splitlines()[-1])


def loaded(report: dict, *prefixes: str) -> list[str]:
    return [m for m in report["modules"] if m.startswith(prefixes)]


def write_fuse_eval_inputs(tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(2):
        write_fuse_sample(inputs, f"img{i}")
    return inputs, tmp_path / "out", tmp_path / "m.tsv"


def test_fuse_eval_and_report_load_no_scipy(tmp_path, taxonomy_json):
    inputs, out, tsv = write_fuse_eval_inputs(tmp_path)
    taxonomy = ["--taxonomy", str(taxonomy_json)]
    for args in (fuse_args(taxonomy_json, out, inputs),
                 ["eval", *taxonomy, "--gt", str(out), "--tsv", str(tsv), str(out)],
                 ["report", *taxonomy, str(tsv)]):
        report = fresh_run(args)
        assert loaded(report, "scipy") == [], args[0]
        # nor numpy.ma, which a bare np.unique loads on NumPy 2.4 (about 1 MB)
        assert "numpy.ma" not in report["modules"], args[0]


def test_help_and_report_load_no_numpy(tmp_path, taxonomy_json):
    inputs, out, tsv = write_fuse_eval_inputs(tmp_path)
    taxonomy = ["--taxonomy", str(taxonomy_json)]
    assert main(fuse_args(taxonomy_json, out, inputs)) == 0
    assert main(["eval", *taxonomy, "--gt", str(out), "--tsv", str(tsv), str(out)]) == 0
    for args in (["--help"], ["fuse", "--help"], ["report", *taxonomy, "--percent", str(tsv)]):
        report = fresh_run(args)
        assert loaded(report, "numpy", "scipy") == [], args
        assert "partfuse.cli" in report["modules"]


def test_fuse_and_eval_load_no_labelling_modules(tmp_path, taxonomy_json):
    inputs, out, tsv = write_fuse_eval_inputs(tmp_path)
    taxonomy = ["--taxonomy", str(taxonomy_json)]
    labelling = ("partfuse.autolabel_", "partfuse.pointcloud", "partfuse.overlay",
                 "partfuse.imaging")
    fuse = fresh_run(fuse_args(taxonomy_json, out, inputs))
    assert loaded(fuse, *labelling) == []
    assert "partfuse.fusion" in fuse["modules"]
    evaluate = fresh_run(["eval", *taxonomy, "--gt", str(out), "--tsv", str(tsv), str(out)])
    assert loaded(evaluate, *labelling, "partfuse.fusion") == []


def test_label_rgbd_loads_no_fusion(tmp_path, taxonomy_json):
    scene = write_rgbd_scene_dir(tmp_path)
    config = write_rgbd_config(tmp_path)
    report = fresh_run(["label", "rgbd", "--taxonomy", str(taxonomy_json), "--config", str(config),
                        "--out", str(tmp_path / "out"), str(scene)])
    assert "partfuse.pointcloud" in report["modules"]
    assert loaded(report, "partfuse.fusion", "partfuse.metrics") == []


def test_openblas_threads_default_to_one_and_keep_the_callers_value(tmp_path, taxonomy_json):
    # fuse loads numpy, and with it OpenBLAS, after main has set the default
    inputs, out, _ = write_fuse_eval_inputs(tmp_path)
    unset = fresh_run(fuse_args(taxonomy_json, out, inputs),
                      env=fresh_env(OPENBLAS_NUM_THREADS=None))
    assert unset["openblas"] == "1"
    assert "numpy" in unset["modules"]
    kept = fresh_run(["--help"], env=fresh_env(OPENBLAS_NUM_THREADS="3"))
    assert kept["openblas"] == "3"


LAZY_NAMES = """
import sys, partfuse
assert [m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")] == []
assert [m for m in sys.modules if m.startswith("partfuse.")] == []
for name in partfuse.__all__:
    getattr(partfuse, name)
"""


def test_public_names_resolve_lazily():
    subprocess.run([sys.executable, "-c", LAZY_NAMES], env=fresh_env(), check=True, timeout=60)
    for name in partfuse.__all__[:-1]:
        value = getattr(partfuse, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name not in vars(partfuse)  # no second binding a tracer could miss
    assert partfuse.__all__[-1] == "__version__"
    from partfuse.fusion import FusionParams

    assert FusionParams is partfuse.FusionParams
    with pytest.raises(AttributeError, match="no_such_name"):
        partfuse.no_such_name


def write_overlay_inputs(tmp_path):
    """A 6x6 black image under a triple that is all table."""
    write_pnm(np.zeros((6, 6, 3), dtype=np.uint8), tmp_path / "img.ppm")
    sem = np.full((6, 6), TABLE, dtype=np.uint16)
    formats.write_label_triple(make_triple(sem), tmp_path / "img")


def overlay_args(taxonomy_json, tmp_path, out_path, *extra):
    return ["overlay", "--taxonomy", str(taxonomy_json), *extra,
            str(tmp_path / "img.ppm"), str(tmp_path / "img"), str(out_path)]


def test_overlay_of_a_header_integer_of_5000_digits(tmp_path, taxonomy_json, caplog):
    write_overlay_inputs(tmp_path)
    (tmp_path / "img.ppm").write_bytes(b"P6\n" + b"9" * 5000 + b" 6\n255\n" + bytes(108))
    assert main(overlay_args(taxonomy_json, tmp_path, tmp_path / "o.ppm")) == 2
    assert "malformed header token" in caplog.records[-1].getMessage()


def test_overlay_colors_table_overrides_class_colour(tmp_path, taxonomy_json):
    write_overlay_inputs(tmp_path)
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"class_colors": {str(TABLE): [10, 20, 30]}}))
    out_path = tmp_path / "o.ppm"
    args = overlay_args(taxonomy_json, tmp_path, out_path, "--alpha", "1.0", "--colors", str(colors))
    assert main(args) == 0
    assert (read_pnm(out_path) == (10, 20, 30)).all()


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
        "transfusion_bag\tnan\t0.75\t1\t0\t0",
        "transfusion_bag\t0.8\tinf\t1\t0\t0",
        "total\t7.5\t0.75\t1\t0\t0",
        "transfusion_bag\t0.8\t0.75\t1\t-1\t0",
    ],
    ids=["two-cells", "seven-cells", "text-ratio", "text-count", "fractional-count",
         "nan-ratio", "inf-ratio", "ratio-above-one", "negative-count"],
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:2] + lines[1:], "line 3: a second row for 'transfusion_bag'"),
        (lambda lines: lines[:-1], "no total row"),
        (lambda lines: lines + lines[-1:], "line 7: a row after the total row"),
        (lambda lines: lines[:1] + lines[-1:] + lines[1:-1], "line 3: a row after the total row"),
    ],
    ids=["repeated-class-row", "no-total-row", "repeated-total-row", "total-row-first"],
)
def test_report_rejects_tsv_eval_never_writes(tmp_path, taxonomy_json, caplog, edit, message):
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    tsv = tmp_path / "m.tsv"
    eval_args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt_dir), "--tsv", str(tsv)]
    assert main([*eval_args, str(pred_dir)]) == 0
    lines = tsv.read_text().splitlines()
    assert len(lines) == 6  # header, four classes, total
    tsv.write_text("\n".join(edit(lines)) + "\n")
    assert main(["report", "--taxonomy", str(taxonomy_json), str(tsv)]) == 3
    assert f"{tsv}: {message}" in caplog.text


def test_overlay_into_a_new_directory_writes_its_image(tmp_path, taxonomy_json):
    write_overlay_inputs(tmp_path)
    out_path = tmp_path / "new" / "deeper" / "o.ppm"
    assert main(overlay_args(taxonomy_json, tmp_path, out_path)) == 0
    assert sorted(out_path.parent.iterdir()) == [out_path]
    assert main(overlay_args(taxonomy_json, tmp_path, tmp_path / "o.ppm")) == 0
    assert out_path.read_bytes() == (tmp_path / "o.ppm").read_bytes()


def test_overlay_failed_write_leaves_no_file(tmp_path, taxonomy_json, monkeypatch):
    write_raster = formats._write_raster

    def half_then_fail(arr, path, *args):
        write_raster(arr, path, *args)
        os.truncate(path, os.path.getsize(path) // 2)
        raise OSError(f"{path}: no space left on device")

    write_overlay_inputs(tmp_path)
    # the binding write_pnm calls
    monkeypatch.setattr(formats, "_write_raster", half_then_fail)
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


def missing_input_case(tmp_path, taxonomy_json, row):
    """The command line of a run that succeeds, as a function of its
    output directory, the input file ``row`` deletes from it and, for a
    batch command of two items, a file that the other item commits."""
    taxonomy = ["--taxonomy", str(taxonomy_json)]
    if row in ("fuse-part", "fuse-mask"):
        for i in range(2):
            write_many_proposals(tmp_path, f"img{i}", 2, seed=i)
        path = tmp_path / ("img0.part.ppt1" if row == "fuse-part" else "img0_p001.ppt1")
        return lambda out: fuse_args(taxonomy_json, out, tmp_path), path, "img1.sem.pgm"
    if row.startswith("rgbd"):
        scenes = [write_rgbd_scene_dir(tmp_path, f"scene_{i}") for i in range(2)]
        config = write_rgbd_config(tmp_path)
        path = scenes[0] / ("cloud.ply" if row == "rgbd-cloud" else "camera.json")
        return (lambda out: ["label", "rgbd", *taxonomy, "--config", str(config),
                             "--out", str(out), *map(str, scenes)]), path, "scene_1.sem.pgm"
    if row == "monitor-black":
        root, _, config = write_monitor_dataset(tmp_path)
        shutil.copytree(root / "scene_0", root / "scene_1")
        return (lambda out: ["label", "monitor", *taxonomy, "--config", str(config),
                             "--out", str(out), str(root)]), root / "scene_0" / "black.ppm", \
            "scene_1.provenance.json"
    if row == "augment-part":
        dataset = write_augment_dataset(tmp_path)
        return (lambda out: ["augment", "--out", str(out), str(dataset)]), \
            dataset / "s0.part.pgm", "s1_id.ppm"
    if row.startswith("eval"):
        gt_dir, pred_dir = make_eval_dirs(tmp_path)
        for directory in (gt_dir, pred_dir):  # two stems, so --jobs 2 forks
            formats.write_label_triple(formats.read_label_triple(directory / "a"), directory / "b")
        path = gt_dir / "a.inst.pgm" if row == "eval-gt-inst" else pred_dir / "a.part.pgm"
        return lambda out: ["eval", *taxonomy, "--gt", str(gt_dir), str(pred_dir)], path, None
    if row.startswith("overlay"):
        write_overlay_inputs(tmp_path)
        path = tmp_path / ("img.ppm" if row == "overlay-image" else "img.inst.pgm")
        return lambda out: overlay_args(taxonomy_json, tmp_path, out / "o.ppm"), path, None
    gt_dir, pred_dir = make_eval_dirs(tmp_path)
    tsv = tmp_path / "m.tsv"
    assert main(["eval", *taxonomy, "--gt", str(gt_dir), "--tsv", str(tsv), str(pred_dir)]) == 0
    return lambda out: ["report", *taxonomy, str(tsv)], tsv, None


@pytest.mark.parametrize("row", ["fuse-part", "fuse-mask", "eval-gt-inst", "eval-pred-part",
                                 "rgbd-cloud", "rgbd-camera", "monitor-black", "overlay-image",
                                 "overlay-inst", "augment-part", "report-tsv"])
def test_a_missing_input_file_is_one_validation_error(tmp_path, taxonomy_json, caplog, capfd,
                                                      row):
    """Whichever input names it, a missing file exits 3 with one error
    line, "<path>: file not found", at every --jobs; a batch run with
    --keep-going skips its item and commits the other."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    argv, path, committed = missing_input_case(inputs, taxonomy_json, row)
    path.unlink()
    takes_jobs = argv(tmp_path)[0] in ("fuse", "label", "augment", "eval")
    for jobs in ("1", "2") if takes_jobs else ("1",):
        caplog.clear()
        out = tmp_path / f"out{jobs}"
        assert main([*argv(out), *(["--jobs", jobs] if takes_jobs else [])]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"{path}: file not found"]
        assert "Traceback" not in caplog.text + capfd.readouterr().err
    if committed is not None:
        caplog.clear()
        out = tmp_path / "kept"
        assert main([*argv(out), "--jobs", "2", "--keep-going"]) == 0
        assert (out / committed).exists()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


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
     ("fuse-config", ["jobs"], 0),
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
    ids=["jobs-1e400", "jobs-0", "min-area-1e400", "seed-string", "class-id-1e400", "ransac-1e400",
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
