"""Output bytes of every subcommand, pinned on one small seeded corpus.

Behaviour is defined by output bytes: ``run_corpus`` runs each
subcommand through ``cli.main`` and hashes what it writes (files and
standard output) into one digest per subcommand.  A change that moves a
digest must say why and update ``PINNED``.  Both labelling configs carry
several overlapping part rules, a repeated part id and rules of equal
priority, so the rule order and the catch-all shape the bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partfuse
from partfuse.cli import main
from partfuse.fusion import STRATEGIES

from conftest import CENTER, HOSPITAL_TAXONOMY, SEAL
from scenes import write_fuse_sample, write_tensor
from test_cli import (
    conflict_logits,
    write_augment_dataset,
    write_many_proposals,
    write_monitor_dataset,
    write_rgbd_config,
    write_rgbd_scene_dir,
)

RED_WRAP = {"h_min": 345.0, "h_max": 15.0, "s_min": 0.5, "v_min": 0.3}

# red and white objects: red takes the seal rule by priority, white the
# first of two rules of equal priority that hold it
RGBD_RULES = [
    {"part_id": CENTER, "priority": 0, "hsv_range": {"v_min": 0.5}},
    {"part_id": SEAL, "priority": 2, "hsv_range": RED_WRAP},
    {"part_id": SEAL, "priority": 0, "hsv_range": {"s_max": 0.1, "v_min": 0.9}},
]

# on the closed, quantized black capture: red, (208, 16, 16), takes the
# first of two rules of priority 1, whose saturation bound is red's own;
# white takes no rule and so the catch-all
MONITOR_RULES = [
    {"part_id": CENTER, "priority": 0, "hsv_range": {"s_min": 0.5, "v_min": 0.5}},
    {"part_id": SEAL, "priority": 1, "hsv_range": {**RED_WRAP, "s_min": 192 / 208}},
    {"part_id": CENTER, "priority": 1, "hsv_range": {"h_min": 300.0, "h_max": 40.0, "s_min": 0.3}},
]

PINNED = {
    "fuse": "62be4d180542d4415d22eb1d6a44342d0f9c7521d02ce4572de68d53fb4756cd",
    "eval": "ca35a3e9e5cb82318b384b5e4260b56aaf9dadbb41b7ac3de11c3cd8c7bfe83b",
    "report": "06b3e660134ec8a6b0ff7d123890085e2eb8471e4fead90233d43d167e3403df",
    "label rgbd": "4300cc7e8aa9cca9a08141b29fa268ad95be116ac1c0ea531430ea5afa63d2f5",
    "label monitor": "edad8d2089ac77f69a4e857a6096bbcc2c38c2535b13a6834119e591ac21a23f",
    "overlay": "10567d0b6ae309b6fa58121e9cd25e710290486a6d7488b9c36207b1cc73dcf9",
    "augment": "c38464db62d726e0b85aa0176f66a1bbcfb134513eaeac17d6eeb34757899956",
}


def tree_digest(directory: Path, stdout: str = "") -> str:
    """sha256 over the relative names and bytes of every file under
    ``directory``, then ``stdout``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    digest.update(stdout.encode())
    return digest.hexdigest()


def cli(*argv) -> str:
    """Standard output of ``partfuse <argv>``, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def rewrite_rules(config: Path, rules: list) -> Path:
    raw = json.loads(config.read_text())
    raw["part_rules"] = rules
    config.write_text(json.dumps(raw))
    return config


def run_corpus(root: Path) -> dict[str, str]:
    """Build the corpus under ``root``, run every subcommand on it and
    return one digest per subcommand."""
    taxonomy = root / "taxonomy.json"
    taxonomy.write_text(json.dumps(HOSPITAL_TAXONOMY))
    tax = ["--taxonomy", taxonomy]
    digests = {}

    logits = root / "logits"
    logits.mkdir()
    for name in ("img0", "tie0"):
        write_fuse_sample(logits, name)
    # tie0: bag and bottle tie on every pixel, and so do all the parts
    sem = np.zeros((4, 8, 8), dtype=np.float32)
    sem[:2] = 2.0
    write_tensor(sem, logits / "tie0.sem.ppt1")
    write_tensor(np.zeros((3, 8, 8), dtype=np.float32), logits / "tie0.part.ppt1")
    for i in range(2):
        write_many_proposals(logits, f"many{i}", 6, seed=i)
    conflict = conflict_logits(root)
    fused = root / "fused"
    for strategy in STRATEGIES:
        cli("fuse", *tax, "--strategy", strategy, "--out", fused / strategy,
            "--min-instance-area", "2", "--jobs", "2", logits, conflict)
    # the ground truth for eval: more proposals, smaller footprints
    cli("fuse", *tax, "--out", fused / "truth", "--confidence-min", "0.2",
        "--min-instance-area", "1", "--mask-logit-threshold", "1.0", logits, conflict)
    digests["fuse"] = tree_digest(fused)

    scores = root / "scores"
    scores.mkdir()
    printed = cli("eval", *tax, "--gt", fused / "truth", "--tsv", scores / "m.tsv",
                  *(fused / s for s in STRATEGIES))
    digests["eval"] = tree_digest(scores, printed)
    printed = cli("report", *tax, "--percent", *sorted(scores.iterdir()))
    digests["report"] = hashlib.sha256(printed.encode()).hexdigest()

    scenes = [write_rgbd_scene_dir(root, f"scene_{i}", seed=4 * i) for i in range(2)]
    config = rewrite_rules(write_rgbd_config(root), RGBD_RULES)
    rgbd = root / "rgbd"
    cli("label", "rgbd", *tax, "--config", config, "--out", rgbd, "--jobs", "2", *scenes)
    digests["label rgbd"] = tree_digest(rgbd)

    dataset, backgrounds, config = write_monitor_dataset(root)
    rewrite_rules(config, MONITOR_RULES)
    monitor = root / "monitor"
    cli("label", "monitor", *tax, "--config", config, "--out", monitor,
        "--backgrounds", backgrounds, "--composites", "2", "--seed", "9", "--jobs", "2",
        dataset)
    digests["label monitor"] = tree_digest(monitor)

    overlay = root / "overlay"
    overlay.mkdir()
    cli("overlay", *tax, monitor / "scene_0_target_0.ppm", monitor / "scene_0_target_0",
        overlay / "target.ppm")
    cli("overlay", *tax, "--alpha", "0.8", "--no-boxes", monitor / "scene_0_synth_001.ppm",
        monitor / "scene_0_synth_001", overlay / "synth.ppm")
    digests["overlay"] = tree_digest(overlay)

    augmented = root / "augmented"
    cli("augment", "--out", augmented, write_augment_dataset(root))
    digests["augment"] = tree_digest(augmented)
    return digests


def test_output_bytes_pinned(tmp_path):
    assert run_corpus(tmp_path) == PINNED


@pytest.mark.parametrize(
    "disabled", ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"]
)
def test_output_bytes_pinned_without_wide_simd(tmp_path, disabled):
    # NumPy picks its kernels by CPU feature at import, so each SIMD level
    # needs its own interpreter
    paths = [Path(partfuse.__file__).resolve().parents[1], Path(__file__).parent]
    path = os.pathsep.join([*map(str, paths), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": disabled}
    run = ("import json, sys, pathlib, test_output_bytes as t; "
           "print(json.dumps(t.run_corpus(pathlib.Path(sys.argv[1]))))")
    child = subprocess.run([sys.executable, "-c", run, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == PINNED
