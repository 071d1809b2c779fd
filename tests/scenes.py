"""Synthetic scenes, and the writers and inverse projection that only the
tests need: PPT1 tensors, PLY, camera, proposal sidecars and fuse inputs;
and the fresh interpreters that run the command line."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import partfuse
from partfuse.autolabel_rgbd import PartColorRule, RgbdLabelConfig
from partfuse.containers import InstanceProposal
from partfuse.errors import FormatError
from partfuse.imaging import HsvRange
from partfuse.pointcloud import CameraModel, PointCloud

from conftest import BAG, OTHER, SEAL, TABLE

RED = (220, 30, 30)
WHITE = (235, 235, 235)
GRAY = (120, 120, 120)

SEAL_RANGE = HsvRange(h_min=345.0, h_max=15.0, s_min=0.5, v_min=0.3)


def plane_points(n=67, spacing=0.009, z=0.0):
    xs, ys = np.meshgrid(np.arange(n) * spacing, np.arange(n) * spacing)
    pts = np.stack([xs.ravel(), ys.ravel(), np.full(n * n, z)], axis=1)
    return pts


def box_points(x0, y0, size=0.06, height=0.10, spacing=0.008, z_min=0.02):
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


def overhead_camera(width=128, height=96, f=120.0, z=0.7):
    # camera above the table centre looking straight down
    rot = np.diag([1.0, -1.0, -1.0])
    center = np.array([0.3, 0.3, z])
    ext = np.eye(4)
    ext[:3, :3] = rot
    ext[:3, 3] = -rot @ center
    return CameraModel(
        width=width,
        height=height,
        fx=f,
        fy=f,
        cx=width / 2.0,
        cy=height / 2.0,
        extrinsic=ext,
    )


def build_rgbd_scene(seed=0, noise=0.001, with_boxes=True, density=1):
    """Plane plus two boxes with known per-point membership.

    Returns (cloud, truth, camera) where truth is 0 for plane points and
    1/2 for the two boxes.  Box tops are red (seal part), everything else
    on the boxes is white; the plane is gray.  ``density`` divides the
    point spacing, so the same scene has ``density**2`` times the points.
    """
    rng = np.random.default_rng(seed)
    plane = plane_points(n=1 + 66 * density, spacing=0.009 / density)
    parts = [plane]
    truth = [np.zeros(len(plane), dtype=np.int64)]
    if with_boxes:
        box1 = box_points(0.10, 0.10, spacing=0.008 / density)
        box2 = box_points(0.40, 0.40, spacing=0.008 / density)
        parts += [box1, box2]
        truth += [
            np.full(len(box1), 1, dtype=np.int64),
            np.full(len(box2), 2, dtype=np.int64),
        ]
    xyz = np.vstack(parts)
    xyz = xyz + rng.normal(0.0, noise, xyz.shape)
    membership = np.concatenate(truth)

    rgb = np.zeros((len(xyz), 3), dtype=np.uint8)
    rgb[membership == 0] = GRAY
    on_box = membership > 0
    top = on_box & (xyz[:, 2] > 0.095)
    rgb[on_box] = WHITE
    rgb[top] = RED
    return PointCloud(xyz, rgb), membership, overhead_camera()


def rgbd_config(seed=0):
    return RgbdLabelConfig(
        object_class_id=BAG,
        background_class_id=TABLE,
        seed=seed,
        part_rules=(PartColorRule(part_id=SEAL, hsv_range=SEAL_RANGE, priority=1),),
        catchall_part_id=OTHER,
    )


def scene_image(camera) -> np.ndarray:
    return np.full((camera.height, camera.width, 3), 40, dtype=np.uint8)


_CODES = {np.dtype("float32"): 1, np.dtype("uint16"): 2, np.dtype("uint8"): 3}


def write_tensor(tensor: np.ndarray, path: str | Path) -> None:
    """Write a float32/uint16/uint8 tensor as PPT1 (layout in partfuse.formats)."""
    tensor = np.asarray(tensor)
    if tensor.ndim and not tensor.flags.c_contiguous:
        tensor = np.ascontiguousarray(tensor)
    code = _CODES.get(tensor.dtype)
    if code is None:
        raise FormatError(
            f"unsupported tensor dtype {tensor.dtype}; use float32, uint16 or uint8"
        )
    if tensor.ndim > 8:
        raise FormatError(f"rank {tensor.ndim} exceeds maximum 8")
    header = b"PPT1" + bytes([code, tensor.ndim, 0, 0])
    dims = struct.pack(f"<{tensor.ndim}I", *tensor.shape) if tensor.ndim else b""
    le = tensor.astype(tensor.dtype.newbyteorder("<"), copy=False)
    Path(path).write_bytes(header + dims + le.tobytes())


def write_ply(cloud: PointCloud, path: str | Path) -> None:
    """Write ASCII PLY; reals are printed with 9 significant digits."""
    out = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for (x, y, z), (r, g, b) in zip(cloud.xyz, cloud.rgb):
        out.append(f"{x:.9g} {y:.9g} {z:.9g} {r} {g} {b}")
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")


def save_camera(camera: CameraModel, path: str | Path) -> None:
    payload = {
        "width": camera.width,
        "height": camera.height,
        "fx": camera.fx,
        "fy": camera.fy,
        "cx": camera.cx,
        "cy": camera.cy,
        "extrinsic": [float(x) for x in camera.extrinsic.ravel()],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def back_project(
    camera: CameraModel, u: np.ndarray, v: np.ndarray, depth: np.ndarray
) -> np.ndarray:
    """Invert ``project`` for known depths; returns world coordinates (N, 3)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    x = (u - camera.cx) / camera.fx * depth
    y = (v - camera.cy) / camera.fy * depth
    cam = np.stack([x, y, depth], axis=-1)
    rot = camera.extrinsic[:3, :3]
    trans = camera.extrinsic[:3, 3]
    return (cam - trans) @ rot


def write_proposals(
    proposals, sidecar_path: str | Path, mask_name_fmt: str = "proposal_{:03d}.ppt1"
) -> None:
    """Write proposals as a sidecar plus one PPT1 mask file per proposal."""
    sidecar_path = Path(sidecar_path)
    entries = []
    for i, p in enumerate(proposals):
        name = mask_name_fmt.format(i)
        write_tensor(p.mask_logits.astype(np.float32), sidecar_path.parent / name)
        entries.append(
            {
                "class_id": p.class_id,
                "confidence": p.confidence,
                "mask_tensor_path": name,
            }
        )
    sidecar_path.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_fuse_sample(directory, name):
    """Logits for an 8x8 frame: a bag proposal on the left half over a
    table background; the right half stays table."""
    h = w = 8
    sem = np.zeros((4, h, w), dtype=np.float32)
    sem[0, :, :4] = 4.0  # bag channel
    sem[3] = 1.0  # table
    part = np.zeros((3, h, w), dtype=np.float32)
    part[0] = 2.0  # seal
    write_tensor(sem, directory / f"{name}.sem.ppt1")
    write_tensor(part, directory / f"{name}.part.ppt1")
    mask = np.full((h, w), -8.0, dtype=np.float32)
    mask[:, :4] = 4.0
    write_proposals(
        [InstanceProposal(BAG, 0.9, mask)],
        directory / f"{name}.proposals.json",
        f"{name}_p{{}}.ppt1",
    )


def fresh_env(**changes):
    """This process's environment with partfuse's sources on PYTHONPATH;
    a change to None removes that variable."""
    src = Path(partfuse.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


# runs ``python -m partfuse <args>`` and prints the process's peak resident
# set (VmHWM, kB) on stderr's last line; ru_maxrss of a child would also
# count the size of the process it was forked from
PEAK_GUARD = """
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")),
              file=sys.stderr)
atexit.register(peak)
runpy.run_module("partfuse", run_name="__main__", alter_sys=True)
"""


def peak_kb(args) -> int:
    """The peak resident set, in kB, of ``python -m partfuse <args>`` run
    in a fresh interpreter; the run must succeed."""
    child = subprocess.run([sys.executable, "-c", PEAK_GUARD, *args], env=fresh_env(),
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return int(child.stderr.splitlines()[-1])
