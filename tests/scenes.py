"""Synthetic scenes and the PLY and camera writers shared by the tests."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from partfuse.autolabel_rgbd import PartColorRule, RgbdLabelConfig
from partfuse.imaging import HsvRange, Image
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


def build_rgbd_scene(seed=0, noise=0.001, with_boxes=True):
    """Plane plus two boxes with known per-point membership.

    Returns (cloud, truth, camera) where truth is 0 for plane points and
    1/2 for the two boxes.  Box tops are red (seal part), everything else
    on the boxes is white; the plane is gray.
    """
    rng = np.random.default_rng(seed)
    plane = plane_points()
    parts = [plane]
    truth = [np.zeros(len(plane), dtype=np.int64)]
    if with_boxes:
        box1 = box_points(0.10, 0.10)
        box2 = box_points(0.40, 0.40)
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


def scene_image(camera) -> Image:
    return Image(
        np.full((camera.height, camera.width, 3), 40, dtype=np.uint8)
    )


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
