"""Seeded workloads of the partfuse benchmark.

Every generator builds its ground truth first and derives the program's
inputs from it (logits and proposals for fusion, perturbed predictions
for evaluation, point clouds and captures for labelling), so outputs can
be checked against what the generator knows.  Inputs are written by the
small writers below, not by partfuse, so a change to the program's
writers cannot change what the program is asked to read.

A workload is a list of CLI invocations (one "operation"), the number
of items one operation completes, and a check of its outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from partfuse.containers import LabelTriple
from partfuse.errors import ValidationError
from partfuse.formats import read_label_triple
from partfuse.metrics import aggregate_dataset, match_segments
from partfuse.pointcloud import load_camera, project, read_ply
from partfuse.taxonomy import validate_taxonomy

# bump when a generator changes, so cached inputs are rebuilt; a change
# of size rebuilds them anyway
GENERATOR_VERSION = 1

# ------------------------------------------------------------------ writers


def write_ppt1(path: Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = b"PPT1" + bytes([1, arr.ndim, 0, 0])
    path.write_bytes(header + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def write_pgm16(path: Path, grid: np.ndarray) -> None:
    h, w = grid.shape
    path.write_bytes(f"P5\n{w} {h}\n65535\n".encode() + grid.astype(">u2").tobytes())


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape[:2]
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes())


def write_triple(stem: Path, sem, inst, part) -> None:
    for suffix, grid in (("sem", sem), ("inst", inst), ("part", part)):
        write_pgm16(stem.with_name(f"{stem.name}.{suffix}.pgm"), grid)


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def tree_digest(root: Path) -> str:
    """sha256 over the relative names and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ------------------------------------------------------------------ taxonomies

CITY_STUFF = (
    "road", "sidewalk", "building", "wall", "fence", "pole",
    "traffic_light", "traffic_sign", "vegetation", "terrain", "sky",
)
CITY_THINGS = ("person", "rider", "car", "truck", "bus", "train", "motorcycle", "bicycle")
_VEHICLE = ("window", "wheel", "light", "license_plate", "chassis")
CITY_PARTS = {
    "person": ("torso", "head", "arm", "leg"),
    "rider": ("torso", "head", "arm", "leg"),
    "car": _VEHICLE,
    "truck": _VEHICLE,
    "bus": _VEHICLE + ("door",),
}
CITY_ID = {name: i for i, name in enumerate(CITY_STUFF + CITY_THINGS, start=1)}
CITY_PART_IDS: dict[str, tuple[int, ...]] = {}
_next = 1
for _cls, _names in CITY_PARTS.items():
    CITY_PART_IDS[_cls] = tuple(range(_next, _next + len(_names)))
    _next += len(_names)


def city_taxonomy() -> dict:
    return {
        "semantic_classes": [
            {"id": CITY_ID[n], "name": n, "is_thing": n in CITY_THINGS}
            for n in CITY_STUFF + CITY_THINGS
        ],
        "part_classes": [
            {"id": pid, "name": f"{cls}_{pname}", "parent_semantic_id": CITY_ID[cls]}
            for cls, names in CITY_PARTS.items()
            for pid, pname in zip(CITY_PART_IDS[cls], names)
        ],
    }


BAG, TABLE, SEAL, OTHER = 1, 4, 11, 13
SEAL_HSV = {"h_min": 345.0, "h_max": 15.0, "s_min": 0.5, "v_min": 0.3}


def hospital_taxonomy() -> dict:
    return {
        "semantic_classes": [
            {"id": BAG, "name": "transfusion_bag", "is_thing": True},
            {"id": 2, "name": "bottle", "is_thing": True},
            {"id": 3, "name": "medical_bag", "is_thing": True},
            {"id": TABLE, "name": "table", "is_thing": False},
        ],
        "part_classes": [
            {"id": SEAL, "name": "transfusion_bag_seal", "parent_semantic_id": BAG},
            {"id": 12, "name": "transfusion_bag_center", "parent_semantic_id": BAG},
            {"id": OTHER, "name": "transfusion_bag_other", "parent_semantic_id": BAG},
        ],
    }


# ------------------------------------------------------------------ city scenes


@dataclass
class CityScene:
    """Street layout: stuff rectangles painted in order, then thing boxes.

    A box is (class name, y0, y1, x0, x1, part order); part-bearing
    classes split their box into horizontal bands, one per part.
    """

    height: int
    width: int
    stuff: list[tuple[str, int, int, int, int]]
    things: list[tuple[str, int, int, int, int, tuple[int, ...]]]
    void_from: int  # rows from here down are void (ego vehicle)


def city_scene(rng: np.random.Generator, h: int, w: int, rows=3, cols=8) -> CityScene:
    def frac(lo, hi):
        return int(h * rng.uniform(lo, hi))

    sky, building, sidewalk, road_end = frac(0.15, 0.22), frac(0.38, 0.45), frac(0.55, 0.6), frac(0.93, 0.95)
    stuff = [
        ("sky", 0, sky, 0, w),
        ("building", sky, building, 0, w),
        ("sidewalk", building, sidewalk, 0, w),
        ("road", sidewalk, road_end, 0, w),
    ]
    for name, count, (hmin, hmax), (wmin, wmax) in (
        ("vegetation", 3, (0.08, 0.15), (0.06, 0.12)),
        ("wall", 2, (0.05, 0.1), (0.05, 0.1)),
        ("fence", 2, (0.03, 0.06), (0.08, 0.15)),
        ("terrain", 2, (0.03, 0.05), (0.05, 0.1)),
        ("pole", 4, (0.1, 0.2), (0.005, 0.01)),
        ("traffic_light", 2, (0.03, 0.05), (0.01, 0.02)),
        ("traffic_sign", 2, (0.02, 0.04), (0.02, 0.03)),
    ):
        for _ in range(count):
            bh, bw = max(2, int(h * rng.uniform(hmin, hmax))), max(2, int(w * rng.uniform(wmin, wmax)))
            y0 = int(rng.integers(sky // 2, max(sky // 2 + 1, sidewalk - bh)))
            x0 = int(rng.integers(0, w - bw))
            stuff.append((name, y0, y0 + bh, x0, x0 + bw))

    # things sit in a grid of cells below the skyline, so they never
    # occlude each other and the amount of work is the same for every seed
    things = []
    top, bottom = int(h * 0.3), road_end
    cell_h, cell_w = (bottom - top) // rows, w // cols
    for i in range(rows * cols):
        name = CITY_THINGS[i % len(CITY_THINGS)]
        cy, cx = top + (i // cols) * cell_h, (i % cols) * cell_w
        bh = int(cell_h * rng.uniform(0.4, 0.75))
        bw = int(cell_w * rng.uniform(0.4, 0.75))
        y0 = cy + int(rng.integers(0, cell_h - bh + 1))
        x0 = cx + int(rng.integers(0, cell_w - bw + 1))
        things.append((name, y0, y0 + bh, x0, x0 + bw, CITY_PART_IDS.get(name, ())))
    return CityScene(h, w, stuff, things, road_end)


def render_city(scene: CityScene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sem = np.zeros((scene.height, scene.width), dtype=np.uint16)
    inst = np.zeros_like(sem)
    part = np.zeros_like(sem)
    for name, y0, y1, x0, x1 in scene.stuff:
        sem[y0:y1, x0:x1] = CITY_ID[name]
    for seq, (name, y0, y1, x0, x1, parts) in enumerate(scene.things, start=1):
        sem[y0:y1, x0:x1] = CITY_ID[name]
        inst[y0:y1, x0:x1] = seq
        part[y0:y1, x0:x1] = 0
        if parts:
            edges = np.linspace(y0, y1, len(parts) + 1).astype(int)
            for pid, a, b in zip(parts, edges[:-1], edges[1:]):
                part[a:b, x0:x1] = pid
    sem[scene.void_from :] = 0
    inst[scene.void_from :] = 0
    part[scene.void_from :] = 0
    return sem, inst, part


def perturb_city(scene: CityScene, rng: np.random.Generator, level: float) -> CityScene:
    """A plausible prediction: shifted boxes and stuff edges, dropped and
    spurious instances, swapped part bands, and boxes on the void band."""
    h, w = scene.height, scene.width
    stuff = []
    for name, y0, y1, x0, x1 in scene.stuff:
        dy = int(rng.integers(-1, 2) * level * 0.02 * h)
        stuff.append((name, max(0, y0 + dy), max(0, y1 + dy), x0, x1))
    things = []
    for name, y0, y1, x0, x1, parts in scene.things:
        if rng.random() < 0.15 * level:
            continue  # missed instance: a false negative
        dy = int(rng.normal(0, level * 0.08) * (y1 - y0))
        dx = int(rng.normal(0, level * 0.08) * (x1 - x0))
        if parts and rng.random() < 0.3 * level:
            parts = parts[::-1]
        things.append((name, max(0, y0 + dy), min(h, y1 + dy), max(0, x0 + dx), min(w, x1 + dx), parts))
    for _ in range(int(round(4 * level))):  # spurious detections in the sky band
        bh, bw = int(h * 0.06), int(w * 0.04)
        y0, x0 = int(rng.integers(0, h // 8)), int(rng.integers(0, w - bw))
        name = CITY_THINGS[int(rng.integers(len(CITY_THINGS)))]
        things.append((name, y0, y0 + bh, x0, x0 + bw, CITY_PART_IDS.get(name, ())))
    for _ in range(2):  # detections on void ground truth, discarded by eval
        bw = int(w * 0.05)
        x0 = int(rng.integers(0, w - bw))
        things.append(("car", scene.void_from + 2, h, x0, x0 + bw, CITY_PART_IDS["car"]))
    return replace(scene, stuff=stuff, things=things, void_from=h)


def _lowres(rng: np.random.Generator, shape: tuple[int, ...], scale: int, sigma: float) -> np.ndarray:
    """Smooth-ish noise: a coarse grid repeated to full size."""
    *lead, h, w = shape
    coarse = rng.standard_normal((*lead, -(-h // scale), -(-w // scale)), dtype=np.float32)
    full = np.repeat(np.repeat(coarse, scale, axis=-2), scale, axis=-1)
    return sigma * full[..., :h, :w]


def one_hot_logits(rng, labels: np.ndarray, ids, on=3.0, off=-2.0) -> np.ndarray:
    h, w = labels.shape
    out = np.full((len(ids), h, w), off, dtype=np.float32)
    for ch, cid in enumerate(ids):
        out[ch][labels == cid] = on
    out += _lowres(rng, out.shape, 16, 0.8)
    out += rng.standard_normal(out.shape, dtype=np.float32) * np.float32(0.6)
    return out


# ------------------------------------------------------------------ workload specs


@dataclass(frozen=True)
class Workload:
    name: str
    size: dict
    generate: Callable[[int, Path, dict], dict]
    commands: Callable[[Path, Path, dict, int], list[list[str]]]
    check: Callable[[Path, Path, dict], tuple[list[str], float]]
    jobs: int = 1
    small: dict = field(default_factory=dict)  # tiny sizes for the benchmark's tests

    def sized(self, small: bool) -> dict:
        return {**self.size, **self.small} if small else dict(self.size)


def _triple_bytes(triple: LabelTriple) -> bytes:
    return triple.semantic_map.tobytes() + triple.instance_map.tobytes() + triple.part_map.tobytes()


def _score(pairs, taxonomy) -> tuple[list[str], float]:
    """Mean PartPQ of (prediction, ground truth) pairs, pooled over the
    dataset; also checks that the first ground truth scores 1.0 against
    itself.  Pairs with identical bytes are scored once."""
    problems = []
    first_gt = pairs[0][1]
    self_report = aggregate_dataset([match_segments(first_gt, first_gt, taxonomy)], taxonomy)
    if (self_report.mean_pq, self_report.mean_part_pq) != (1.0, 1.0):
        problems.append("ground truth does not score PQ = PartPQ = 1 against itself")
    seen: dict[bytes, object] = {}
    matches = []
    for pred, gt in pairs:
        key = hashlib.sha256(_triple_bytes(pred) + _triple_bytes(gt)).digest()
        if key not in seen:
            seen[key] = match_segments(pred, gt, taxonomy)
        matches.append(seen[key])
    report = aggregate_dataset(matches, taxonomy)
    return problems, float(report.mean_part_pq or 0.0)


def _validate(triples, taxonomy, problems: list[str]) -> None:
    for name, triple in triples:
        try:
            triple.validate(taxonomy)
        except ValidationError as exc:
            problems.append(f"{name}: {exc}")


# ------------------------------------------------------------------ fuse_eval

ABLATION_ROWS = (("oracle", 0.0), ("mild", 0.5), ("strong", 1.0))
EVAL_ROWS = ("fused",) + tuple(label for label, _ in ABLATION_ROWS)


def write_city_frame(rng: np.random.Generator, frames: Path, stem: str, scene: CityScene, size: dict) -> None:
    """Semantic and part logits for one frame, plus its proposals: one per
    ground-truth instance, shifted duplicates that the overlap rule
    discards, and low-confidence boxes that the confidence floor drops."""
    h, w = size["height"], size["width"]
    sem, inst, part = render_city(scene)
    sem_ids = [CITY_ID[n] for n in CITY_STUFF + CITY_THINGS]
    part_ids = [pid for cls in CITY_PARTS for pid in CITY_PART_IDS[cls]]
    write_ppt1(frames / f"{stem}.sem.ppt1", one_hot_logits(rng, sem, sem_ids))
    write_ppt1(frames / f"{stem}.part.ppt1", one_hot_logits(rng, part, part_ids))
    n_inst = len(scene.things)
    masks, entries = [], []
    for seq, (name, *_rest) in enumerate(scene.things, start=1):
        masks.append((CITY_ID[name], float(rng.uniform(0.6, 0.99)), inst == seq))
    n_dup = (size["proposals"] - n_inst) // 2
    for k in rng.choice(n_inst, n_dup, replace=False):
        name = scene.things[k][0]
        shifted = np.roll(inst == k + 1, (int(rng.integers(3, 8)), int(rng.integers(3, 8))), (0, 1))
        masks.append((CITY_ID[name], float(rng.uniform(0.5, 0.6)), shifted))
    while len(masks) < size["proposals"]:
        name = CITY_THINGS[int(rng.integers(len(CITY_THINGS)))]
        box = np.zeros((h, w), dtype=bool)
        y0, x0 = int(rng.integers(0, h - h // 8)), int(rng.integers(0, w - w // 16))
        box[y0 : y0 + h // 8, x0 : x0 + w // 16] = True
        masks.append((CITY_ID[name], float(rng.uniform(0.1, 0.45)), box))
    for i, (class_id, conf, footprint) in enumerate(masks):
        logits = np.where(footprint, np.float32(4.0), np.float32(-4.0))
        logits = logits + _lowres(rng, (h, w), 16, 1.0)
        mask_name = f"{stem}.prop_{i:02d}.ppt1"
        write_ppt1(frames / mask_name, logits)
        entries.append({"class_id": class_id, "confidence": conf, "mask_tensor_path": mask_name})
    write_json(frames / f"{stem}.proposals.json", entries)


def gen_fuse_eval(seed: int, dest: Path, size: dict) -> dict:
    """Per frame: a ground-truth street scene, the logits and proposals
    fusion reads, and the ablation rows eval scores (the ground truth
    itself, and mild and strong perturbations of it)."""
    rng, perturb_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2])
    write_json(dest / "taxonomy.json", city_taxonomy())
    for d in ("frames", "gt") + tuple(label for label, _ in ABLATION_ROWS):
        (dest / d).mkdir()
    stems = [f"frame_{f:03d}" for f in range(size["frames"])]
    gt_segments = 0
    for stem in stems:
        scene = city_scene(rng, size["height"], size["width"])
        sem, inst, part = render_city(scene)
        keys = np.unique((sem.astype(np.uint32) << 16) | inst)
        gt_segments += int(((keys >> 16) != 0).sum())
        write_triple(dest / "gt" / stem, sem, inst, part)
        write_city_frame(rng, dest / "frames", stem, scene, size)
        for label, level in ABLATION_ROWS:
            pred = perturb_city(scene, perturb_rng, level) if level else scene
            write_triple(dest / label / stem, *render_city(pred))
    return {"items": size["frames"], "stems": stems, "gt_segments": gt_segments}


def cmd_fuse_eval(inputs: Path, out: Path, meta: dict, jobs: int) -> list[list[str]]:
    tax = str(inputs / "taxonomy.json")
    return [
        ["fuse", "--taxonomy", tax, "--out", str(out / "fused"), "--strategy", "partpanoptic",
         "--jobs", str(jobs), str(inputs / "frames")],
        ["eval", "--taxonomy", tax, "--gt", str(inputs / "gt"), "--tsv", str(out / "eval.tsv"),
         "--jobs", str(jobs), str(out / "fused"), *(str(inputs / label) for label, _ in ABLATION_ROWS)],
        ["report", "--taxonomy", tax, *(str(out / f"eval_{row}.tsv") for row in EVAL_ROWS)],
    ]


def _tsv_total(path: Path) -> tuple[float, float, int, int, int]:
    for line in path.read_text(encoding="utf-8").splitlines():
        cells = line.split("\t")
        if cells[0] == "total":
            return float(cells[1]), float(cells[2]), int(cells[3]), int(cells[4]), int(cells[5])
    raise ValueError(f"{path} has no total row")


def check_fuse_eval(inputs: Path, out: Path, meta: dict) -> tuple[list[str], float]:
    """part_pq is the CLI's own PartPQ of the fused row."""
    taxonomy = validate_taxonomy(city_taxonomy())
    problems: list[str] = []
    produced = sorted(p.name for p in (out / "fused").glob("*.sem.pgm"))
    if produced != [f"{s}.sem.pgm" for s in meta["stems"]]:
        return [f"fuse wrote {produced}, expected one triple per frame"], 0.0
    _validate([(s, read_label_triple(out / "fused" / s)) for s in meta["stems"]], taxonomy, problems)
    totals = {}
    for row in EVAL_ROWS:
        path = out / f"eval_{row}.tsv"
        if not path.exists():
            return problems + [f"eval wrote no {path.name}"], 0.0
        totals[row] = _tsv_total(path)
    pq, ppq, tp, fp, fn = totals["oracle"]
    if (pq, ppq, fp, fn) != (1.0, 1.0, 0, 0) or tp != meta["gt_segments"]:
        problems.append(f"ground truth scored against itself gave {totals['oracle']}")
    for row, (_, _, tp, _, fn) in totals.items():
        if tp + fn != meta["gt_segments"]:
            problems.append(f"{row}: tp + fn = {tp + fn}, generator made {meta['gt_segments']} segments")
    report = (out / "cmd2.stdout").read_text(encoding="utf-8") if (out / "cmd2.stdout").exists() else ""
    if not all(f"eval_{row}" in report for row in EVAL_ROWS):
        problems.append("report does not list every eval row")
    return problems, totals["fused"][1]


# ------------------------------------------------------------------ autolabel: rgbd


def _box_points(x0, y0, size, height, spacing, z_min=0.02):
    ticks = np.arange(0.0, size + 1e-9, spacing)
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    top = np.stack([x0 + gx.ravel(), y0 + gy.ravel(), np.full(gx.size, height)], axis=1)
    zs = np.arange(z_min, height, spacing)
    t, z = np.meshgrid(ticks, zs, indexing="ij")
    t, z = t.ravel(), z.ravel()
    sides = [
        np.stack([x0 + t, np.full_like(t, y0), z], axis=1),
        np.stack([x0 + t, np.full_like(t, y0 + size), z], axis=1),
        np.stack([np.full_like(t, x0), y0 + t, z], axis=1),
        np.stack([np.full_like(t, x0 + size), y0 + t, z], axis=1),
    ]
    return np.vstack([top] + sides)


def overhead_camera(width: int, height: int, z=0.7) -> dict:
    f = 300.0 * width / 320.0
    rot = np.diag([1.0, -1.0, -1.0])
    ext = np.eye(4)
    ext[:3, :3] = rot
    ext[:3, 3] = -rot @ np.array([0.3, 0.3, z])
    return {"width": width, "height": height, "fx": f, "fy": f, "cx": width / 2.0,
            "cy": height / 2.0, "extrinsic": [float(x) for x in ext.ravel()]}


def rgbd_config() -> dict:
    return {
        "object_class_id": BAG,
        "background_class_id": TABLE,
        "seed": 0,
        "part_rules": [{"part_id": SEAL, "priority": 1, "hsv_range": SEAL_HSV}],
        "catchall_part_id": OTHER,
    }


def gen_label_rgbd(seed: int, dest: Path, size: dict) -> dict:
    """A gray table plane with boxes on a jittered grid; box tops are red
    (the seal part), box sides white, as in the test-suite scene."""
    rng = np.random.default_rng([seed, 3])
    n, spacing = size["plane_n"], 0.6 / size["plane_n"]
    gx, gy = np.meshgrid(np.arange(n) * spacing, np.arange(n) * spacing)
    plane = np.stack([gx.ravel(), gy.ravel(), np.zeros(n * n)], axis=1)
    occluded = np.zeros(len(plane), dtype=bool)
    parts, member = [], []
    cols = (size["boxes"] + 1) // 2
    for b in range(size["boxes"]):
        x0 = 0.06 + (b % cols) * (0.5 / cols) + rng.uniform(0, 0.04)
        y0 = 0.14 + (b // cols) * 0.2 + rng.uniform(0, 0.04)
        pts = _box_points(x0, y0, 0.06, 0.10, size["box_spacing"])
        parts.append(pts)
        member.append(np.full(len(pts), b + 1, dtype=np.int64))
        x, y = plane[:, 0], plane[:, 1]
        occluded |= (x >= x0) & (x <= x0 + 0.06) & (y >= y0) & (y <= y0 + 0.06)
    # a depth camera sees no table under a box
    parts.insert(0, plane[~occluded])
    member.insert(0, np.zeros(int((~occluded).sum()), dtype=np.int64))
    xyz = np.vstack(parts) + rng.normal(0.0, 0.001, (sum(map(len, parts)), 3))
    membership = np.concatenate(member)
    rgb = np.zeros(xyz.shape, dtype=np.uint8)
    rgb[membership == 0] = (120, 120, 120)
    rgb[membership > 0] = (235, 235, 235)
    rgb[(membership > 0) & (xyz[:, 2] > 0.095)] = (220, 30, 30)

    scene = dest / "scene_0"
    scene.mkdir()
    header = ("ply\nformat ascii 1.0\nelement vertex {}\nproperty float x\nproperty float y\n"
              "property float z\nproperty uchar red\nproperty uchar green\nproperty uchar blue\nend_header")
    body = "\n".join(f"{x:.9g} {y:.9g} {z:.9g} {r} {g} {b}" for (x, y, z), (r, g, b)
                     in zip(xyz.tolist(), rgb.tolist()))
    (scene / "cloud.ply").write_text(header.format(len(xyz)) + "\n" + body + "\n", encoding="ascii")
    camera = overhead_camera(size["width"], size["height"])
    write_json(scene / "camera.json", camera)
    write_ppm(scene / "rgb.ppm", rng.integers(0, 256, (size["height"], size["width"], 3)))
    write_json(dest / "taxonomy.json", hospital_taxonomy())
    write_json(dest / "config.json", rgbd_config())
    np.save(dest / "truth.npy", np.stack([
        membership, (membership > 0) & (xyz[:, 2] > 0.095)]).astype(np.int64))
    return {"items": 1, "points": int(len(xyz)), "boxes": size["boxes"]}


def cmd_label_rgbd(inputs: Path, out: Path, meta: dict, jobs: int) -> list[list[str]]:
    return [[
        "label", "rgbd", "--taxonomy", str(inputs / "taxonomy.json"), "--config",
        str(inputs / "config.json"), "--out", str(out / "labels"), "--jobs", str(jobs),
        str(inputs / "scene_0"),
    ]]


def rgbd_ground_truth(inputs: Path):
    """Nearest projected point (within the pipeline's 3-pixel radius) of
    the generator's per-point labels, rasterized to the camera."""
    cloud = read_ply(inputs / "scene_0" / "cloud.ply")
    camera = load_camera(inputs / "scene_0" / "camera.json")
    membership, top = np.load(inputs / "truth.npy")
    proj = project(cloud, camera)
    idx = np.nonzero(proj.in_frame)[0]
    sem_pt = np.where(membership > 0, BAG, TABLE)
    part_pt = np.where(membership > 0, np.where(top > 0, SEAL, OTHER), 0)
    rows, cols = np.mgrid[: camera.height, : camera.width]
    dist, near = cKDTree(np.stack([proj.u[idx], proj.v[idx]], axis=1)).query(
        np.stack([cols.ravel(), rows.ravel()], axis=1).astype(np.float64), k=1
    )
    hit = dist <= 3.0
    pick = idx[np.where(hit, near, 0)]
    shape = (camera.height, camera.width)
    grids = [np.where(hit, labels[pick], 0).reshape(shape) for labels in (sem_pt, membership, part_pt)]
    return LabelTriple.from_arrays(*grids)


def rgbd_pairs(inputs: Path, out: Path, meta: dict, problems: list[str]) -> list:
    """Checks label rgbd's outputs; returns its (prediction, ground truth) pair."""
    stem = out / "labels" / "scene_0"
    prov_path = stem.with_suffix(".provenance.json")
    if not prov_path.exists():
        problems.append("label rgbd wrote no provenance")
        return []
    prov = json.loads(prov_path.read_text(encoding="utf-8"))
    if (prov["points"], prov["instances"]) != (meta["points"], meta["boxes"]):
        problems.append(f"provenance counts {prov['points']} points / {prov['instances']} "
                        f"instances, generator made {meta['points']} / {meta['boxes']}")
    triple = read_label_triple(stem)
    _validate([("scene_0", triple)], validate_taxonomy(hospital_taxonomy()), problems)
    return [(triple, rgbd_ground_truth(inputs))]


# ------------------------------------------------------------------ autolabel: monitor

BLUE_BG, RED, WHITE = (0, 0, 255), (220, 30, 30), (235, 235, 235)


def monitor_config() -> dict:
    return {
        "object_class_id": BAG,
        "background_class_id": 0,
        "part_rules": [{"part_id": SEAL, "priority": 1, "hsv_range": SEAL_HSV}],
        "catchall_part_id": OTHER,
        "blue_range": {"h_min": 200.0, "h_max": 260.0, "s_min": 0.35, "v_min": 0.2},
        "black_range": {"v_max": 0.2},
    }


def monitor_objects(rng, h: int, w: int, n: int):
    """n disks, one per grid cell so they never touch; top halves red."""
    yy, xx = np.mgrid[:h, :w]
    cols = (n + 1) // 2
    cell_h, cell_w = h // 2, w // cols
    radius = int(min(cell_h, cell_w) * 0.3)
    obj = np.zeros((h, w), dtype=bool)
    top = np.zeros_like(obj)
    inst = np.zeros((h, w), dtype=np.uint16)
    for k in range(n):
        cy = (k // cols) * cell_h + cell_h // 2 + int(rng.integers(-cell_h // 8, cell_h // 8 + 1))
        cx = (k % cols) * cell_w + cell_w // 2 + int(rng.integers(-cell_w // 8, cell_w // 8 + 1))
        r = radius + int(rng.integers(-radius // 6, radius // 6 + 1))
        disk = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        obj |= disk
        top |= disk & (yy < cy)
        inst[disk] = k + 1
    return obj, top, inst


def gen_label_monitor(seed: int, dest: Path, size: dict) -> dict:
    rng = np.random.default_rng([seed, 4])
    h, w = size["height"], size["width"]
    root, backgrounds = dest / "dataset", dest / "backgrounds"
    root.mkdir()
    backgrounds.mkdir()
    for b in range(3):
        write_ppm(backgrounds / f"bg_{b}.ppm", rng.integers(0, 256, (h, w, 3)))
    for s in range(size["scenes"]):
        scene = root / f"scene_{s:02d}"
        scene.mkdir()
        obj, top, inst = monitor_objects(rng, h, w, size["objects"])

        def render(background):
            px = np.empty((h, w, 3), dtype=np.uint8)
            px[:] = background
            px[obj] = WHITE
            px[top] = RED
            return px

        write_ppm(scene / "blue.ppm", render(BLUE_BG))
        write_ppm(scene / "black.ppm", render((0, 0, 0)))
        for t in range(size["targets"]):
            write_ppm(scene / f"target_{t}.ppm", render(rng.integers(0, 256, (h, w, 3))))
        sem = np.where(obj, BAG, 0)
        part = np.where(obj, np.where(top, SEAL, OTHER), 0)
        write_triple(dest / f"gt_{scene.name}", sem, inst, part)
    write_json(dest / "taxonomy.json", hospital_taxonomy())
    write_json(dest / "config.json", monitor_config())
    per_scene = size["targets"] + size["composites"]
    labelled = size["scenes"] * per_scene
    return {"items": labelled * 5, "scenes": size["scenes"], "objects": size["objects"],
            "per_scene": per_scene, "composites": size["composites"]}


def cmd_label_monitor(inputs: Path, out: Path, meta: dict, jobs: int) -> list[list[str]]:
    return [
        ["label", "monitor", "--taxonomy", str(inputs / "taxonomy.json"), "--config",
         str(inputs / "config.json"), "--out", str(out / "labels"), "--backgrounds",
         str(inputs / "backgrounds"), "--composites", str(meta["composites"]), "--seed", "7",
         "--jobs", str(jobs), str(inputs / "dataset")],
        ["augment", "--out", str(out / "augmented"), "--jobs", str(jobs), str(out / "labels")],
    ]


def _sample_files(stem: Path) -> list[Path]:
    """An image plus its label triple."""
    triple = [stem.with_name(f"{stem.name}.{k}.pgm") for k in ("sem", "inst", "part")]
    return [stem.with_suffix(".ppm")] + triple


def monitor_pairs(inputs: Path, out: Path, meta: dict, problems: list[str]) -> list:
    """Checks label monitor's and augment's outputs; returns the
    (prediction, ground truth) pair of every sample."""
    pairs = []
    for s in range(meta["scenes"]):
        name = f"scene_{s:02d}"
        prov_path = out / "labels" / f"{name}.provenance.json"
        if not prov_path.exists():
            problems.append(f"label monitor wrote no provenance for {name}")
            return []
        prov = json.loads(prov_path.read_text(encoding="utf-8"))
        if prov["instances"] != meta["objects"] or len(prov["samples"]) != meta["per_scene"]:
            problems.append(f"{name}: {prov['instances']} instances / {len(prov['samples'])} samples, "
                            f"generator made {meta['objects']} / {meta['per_scene']}")
        gt = read_label_triple(inputs / f"gt_{name}")
        for sample in prov["samples"]:
            stem = out / "labels" / sample
            triple = read_label_triple(stem)
            pairs.append((triple, gt))
            files = _sample_files(stem)
            copies = _sample_files(out / "augmented" / f"{sample}_id")
            if not all(c.exists() and c.read_bytes() == f.read_bytes() for f, c in zip(files, copies)):
                problems.append(f"{sample}: identity flip differs from its source")
    written = len(list((out / "augmented").glob("*.ppm")))
    if written != 4 * len(pairs):
        problems.append(f"augment wrote {written} images for {len(pairs)} samples")
    unique = {hashlib.sha256(_triple_bytes(t)).digest(): t for t, _ in pairs}
    _validate(list(unique.items()), validate_taxonomy(hospital_taxonomy()), problems)
    return pairs


# ------------------------------------------------------------------ autolabel


def gen_autolabel(seed: int, dest: Path, size: dict) -> dict:
    (dest / "rgbd").mkdir()
    (dest / "monitor").mkdir()
    rgbd = gen_label_rgbd(seed, dest / "rgbd", size["rgbd"])
    monitor = gen_label_monitor(seed, dest / "monitor", size["monitor"])
    return {"items": rgbd["items"] + monitor["items"], "rgbd": rgbd, "monitor": monitor}


def cmd_autolabel(inputs: Path, out: Path, meta: dict, jobs: int) -> list[list[str]]:
    # one rgbd scene: a second worker would have nothing to do
    return (cmd_label_rgbd(inputs / "rgbd", out / "rgbd", meta["rgbd"], 1)
            + cmd_label_monitor(inputs / "monitor", out / "monitor", meta["monitor"], jobs))


def check_autolabel(inputs: Path, out: Path, meta: dict) -> tuple[list[str], float]:
    """part_pq pools every labelled sample of both labellers (they share a
    taxonomy) against the generator's ground truth."""
    problems: list[str] = []
    pairs = rgbd_pairs(inputs / "rgbd", out / "rgbd", meta["rgbd"], problems)
    pairs += monitor_pairs(inputs / "monitor", out / "monitor", meta["monitor"], problems)
    if not pairs:
        return problems, 0.0
    found, part_pq = _score(pairs, validate_taxonomy(hospital_taxonomy()))
    return problems + found, part_pq


# ------------------------------------------------------------------ registry

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuse_eval", {"frames": 3, "height": 512, "width": 1024, "proposals": 40},
                 gen_fuse_eval, cmd_fuse_eval, check_fuse_eval,
                 small={"frames": 2, "height": 128, "width": 256}),
        Workload("autolabel",
                 {"rgbd": {"width": 320, "height": 240, "plane_n": 165, "boxes": 6, "box_spacing": 0.005},
                  "monitor": {"scenes": 4, "height": 480, "width": 640, "objects": 4, "targets": 4,
                              "composites": 2}},
                 gen_autolabel, cmd_autolabel, check_autolabel, jobs=2,
                 small={"rgbd": {"width": 64, "height": 48, "plane_n": 67, "boxes": 2, "box_spacing": 0.008},
                        "monitor": {"scenes": 1, "height": 96, "width": 128, "objects": 4, "targets": 1,
                                    "composites": 1}}),
    )
}


def prepare(workload: Workload, seed: int, cache: Path, small: bool = False) -> tuple[Path, dict]:
    """Generate a workload's inputs for a seed, or reuse them.

    Inputs for other seeds of the same workload are removed first, so the
    cache holds one seed per workload (fuse_eval is ~170 MB per frame)."""
    size = workload.sized(small)
    key = hashlib.sha256(json.dumps([GENERATOR_VERSION, size], sort_keys=True).encode()).hexdigest()[:12]
    dest = cache / f"{workload.name}.seed{seed}.{key}"
    meta_path = dest / "meta.json"
    if meta_path.exists():
        return dest, json.loads(meta_path.read_text(encoding="utf-8"))
    if cache.exists():
        for stale in cache.glob(f"{workload.name}.seed*"):
            shutil.rmtree(stale)
    dest.mkdir(parents=True)
    meta = workload.generate(seed, dest, size)
    # flush now, so writing back the inputs does not slow the timed runs
    for path in dest.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    write_json(meta_path, meta)  # written last: marks the inputs complete
    return dest, meta
