"""Point-cloud primitives: PLY reading, ground filtering, plane fitting,
clustering and pinhole projection.

The progressive morphological filter rasterizes the cloud's minimum
height per grid cell and repeatedly opens that surface (erosion then
dilation, square window) with the window doubling each round.  Points
rising above the opened surface by more than the round's height
threshold are flagged as objects; everything else is ground.  The height
threshold grows linearly with the window,

    t(w) = min(initial_height_threshold + slope * w * cell_size,
               max_height_threshold),

sized here for tabletop scenes rather than airborne scans.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ValidationError
from .jsonio import decode, read_json
from .rng import SplitMix64

_PLY_PROPERTIES = ("x", "y", "z", "red", "green", "blue")


@dataclass(frozen=True)
class PointCloud:
    """XYZ positions in meters plus 8-bit RGB colours."""

    xyz: np.ndarray  # (N, 3) float64
    rgb: np.ndarray  # (N, 3) uint8

    def __post_init__(self):
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float64)
        rgb = np.ascontiguousarray(self.rgb, dtype=np.uint8)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValidationError("xyz must have shape (N, 3)")
        if rgb.shape != xyz.shape:
            raise ValidationError("rgb must have the same shape as xyz")
        if xyz.size and not np.isfinite(xyz).all():
            raise ValidationError("point coordinates must be finite")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "rgb", rgb)
        xyz.setflags(write=False)
        rgb.setflags(write=False)

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclass(frozen=True)
class Plane:
    """Plane {p : normal . p = offset} with a unit normal."""

    normal: np.ndarray  # (3,)
    offset: float

    def __post_init__(self):
        normal = np.ascontiguousarray(self.normal, dtype=np.float64)
        if normal.shape != (3,):
            raise ValidationError("plane normal must be a 3-vector")
        if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
            raise ValidationError("plane normal must have unit length")
        object.__setattr__(self, "normal", normal)
        normal.setflags(write=False)

    def distance(self, points: np.ndarray) -> np.ndarray:
        return np.abs(points @ self.normal - self.offset)


@dataclass(frozen=True)
class PmfParams:
    cell_size: float = 0.01
    initial_window: int = 1
    max_window: int = 16
    slope: float = 0.3
    initial_height_threshold: float = 0.005
    max_height_threshold: float = 0.05

    def __post_init__(self):
        if min(
            self.cell_size,
            self.initial_window,
            self.max_window,
            self.slope,
            self.initial_height_threshold,
            self.max_height_threshold,
        ) <= 0:
            raise ValidationError("all filter parameters must be positive")
        windows = (self.initial_window, self.max_window)
        if not all(isinstance(w, numbers.Integral) for w in windows):
            raise ValidationError("initial_window and max_window must be integers")
        if self.initial_window > self.max_window:
            raise ValidationError("initial_window must not exceed max_window")
        if self.initial_height_threshold > self.max_height_threshold:
            raise ValidationError(
                "initial_height_threshold must not exceed max_height_threshold"
            )


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a rigid world-to-camera transform."""

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic: np.ndarray  # (4, 4) row-major, world -> camera

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("camera dimensions must be positive")
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValidationError("focal lengths and principal point must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError("focal lengths must be positive")
        try:  # 16 numbers in row-major order, flat or 4x4
            ext = np.array(self.extrinsic)
        except ValueError:  # ragged nesting
            ext = np.array(None)
        if ext.dtype.kind not in "iuf" or ext.size != 16 or not np.isfinite(ext).all():
            raise ValidationError("extrinsic must be a 4x4 matrix of finite numbers")
        ext = ext.astype(np.float64).reshape(4, 4)
        rot = ext[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6):
            raise ValidationError("extrinsic rotation block is not orthonormal")
        if not math.isclose(float(np.linalg.det(rot)), 1.0, abs_tol=1e-6):
            raise ValidationError("extrinsic rotation block must have det +1")
        if not np.allclose(ext[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
            raise ValidationError("extrinsic bottom row must be (0, 0, 0, 1)")
        object.__setattr__(self, "extrinsic", ext)
        ext.setflags(write=False)


class Projection(NamedTuple):
    u: np.ndarray
    v: np.ndarray
    depth: np.ndarray
    in_frame: np.ndarray


def read_ply(path: str | Path) -> PointCloud:
    """Read an ASCII PLY with float x,y,z and uchar red,green,blue.

    Every malformed input (bad header, non-numeric or missing fields,
    colours that are not integers in 0..255, non-ASCII bytes) raises
    FormatError.
    """
    path = Path(path)
    with open(path, encoding="ascii") as fh:
        try:
            if fh.readline().strip() != "ply":
                raise FormatError(f"{path}: not a PLY file")
            count = None
            props: list[str] = []
            saw_format = False
            for line in iter(fh.readline, ""):
                tokens = line.split()
                if not tokens or tokens[0] == "comment":
                    continue
                if tokens[0] == "format":
                    if tokens[1:] != ["ascii", "1.0"]:
                        raise FormatError(f"{path}: only 'format ascii 1.0' is supported")
                    saw_format = True
                elif tokens[0] == "element":
                    if len(tokens) != 3 or tokens[1] != "vertex":
                        raise FormatError(f"{path}: only a vertex element is supported")
                    try:
                        count = int(tokens[2])
                    except ValueError:
                        raise FormatError(f"{path}: bad vertex count {tokens[2]!r}") from None
                elif tokens[0] == "property":
                    if count is None:
                        raise FormatError(f"{path}: property before element")
                    if len(tokens) != 3 or tokens[2] not in _PLY_PROPERTIES:
                        raise FormatError(f"{path}: unsupported property {line.strip()!r}")
                    props.append(tokens[2])
                elif tokens[0] == "end_header":
                    break
                else:
                    raise FormatError(f"{path}: malformed header line {line.strip()!r}")
            else:
                count = None  # no end_header
            if count is None or not saw_format:
                raise FormatError(f"{path}: incomplete PLY header")
            missing = [p for p in _PLY_PROPERTIES if p not in props]
            if missing:
                raise FormatError(f"{path}: missing vertex properties {missing}")

            table = np.empty((0, len(props)))
            body = fh.tell()
            # streamed; loadtxt warns on a body without rows; blank lines are skipped
            if any(map(str.strip, fh)):
                fh.seek(body)
                try:
                    table = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
                except UnicodeDecodeError:  # a ValueError, reported below
                    raise
                except ValueError as exc:
                    raise FormatError(f"{path}: malformed vertex rows: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not an ASCII PLY file: {exc}") from exc
    if table.shape[0] != count:
        raise FormatError(
            f"{path}: header announces {count} vertices but file has {table.shape[0]}"
        )
    if table.shape[1] != len(props):
        raise FormatError(f"{path}: vertex rows have {table.shape[1]} fields")
    col = [props.index(name) for name in _PLY_PROPERTIES]
    rgb = table[:, col[3:]]
    if not ((rgb >= 0) & (rgb <= 255) & (rgb == np.floor(rgb))).all():
        raise FormatError(f"{path}: colours must be integers in 0..255")
    return PointCloud(table[:, col[:3]], rgb.astype(np.uint8))


def _windowed(surface: np.ndarray, radius: int, pad_value: float, op) -> np.ndarray:
    """Separable windowed min/max with constant padding (window = 2r + 1)."""
    out = surface
    for axis in range(2):
        r = min(radius, surface.shape[axis] - 1)  # r = n - 1 already covers an axis
        pad = [(0, 0), (0, 0)]
        pad[axis] = (r, r)
        padded = np.pad(out, pad, constant_values=pad_value)
        view = np.lib.stride_tricks.sliding_window_view(padded, 2 * r + 1, axis=axis)
        out = op(view, axis=-1)
    return out


def progressive_morphological_filter(
    cloud: PointCloud, params: PmfParams | None = None
) -> np.ndarray:
    """Ground mask (True = ground/background) via progressive opening."""
    params = params or PmfParams()
    if len(cloud) == 0:
        raise ValidationError("cannot filter an empty cloud")
    xyz = cloud.xyz
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    cell = params.cell_size
    ix = np.floor((x - x.min()) / cell).astype(np.int64)
    iy = np.floor((y - y.min()) / cell).astype(np.int64)

    grid = np.full((ix.max() + 1, iy.max() + 1), np.inf)
    np.minimum.at(grid, (ix, iy), z)

    windows = [params.initial_window]
    while windows[-1] < params.max_window:
        windows.append(min(windows[-1] * 2, params.max_window))

    surface = grid
    non_ground = np.zeros(len(cloud), dtype=bool)
    for w in windows:
        eroded = _windowed(surface, w, np.inf, np.min)
        eroded = np.where(np.isposinf(eroded), -np.inf, eroded)
        opened = _windowed(eroded, w, -np.inf, np.max)
        threshold = min(
            params.initial_height_threshold + params.slope * w * cell,
            params.max_height_threshold,
        )
        non_ground |= (z - opened[ix, iy]) > threshold
        surface = opened
    return ~non_ground


def ransac_plane(
    points: np.ndarray,
    n_iterations: int = 500,
    distance_threshold: float = 0.004,
    seed: int = 0,
) -> tuple[Plane, np.ndarray]:
    """Robust plane fit: best 3-point hypothesis by inlier count, then a
    least-squares refit (centroid plus smallest principal direction).

    Returns the refit plane and its inlier mask.  Sampling draws from a
    splitmix64 stream, so results are reproducible from the seed.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError("points must have shape (N, 3)")
    n = pts.shape[0]
    if n < 3:
        raise ValidationError(f"plane fitting needs >= 3 points, got {n}")

    rng = SplitMix64(seed)
    best_count = -1
    best_normal = None
    best_offset = 0.0
    for _ in range(n_iterations):
        i, j, k = rng.below(n), rng.below(n), rng.below(n)
        if i == j or j == k or i == k:
            continue
        v1 = pts[j] - pts[i]
        v2 = pts[k] - pts[i]
        normal = np.cross(v1, v2)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = float(normal @ pts[i])
        count = int((np.abs(pts @ normal - offset) <= distance_threshold).sum())
        if count > best_count:
            best_count = count
            best_normal = normal
            best_offset = offset
    if best_normal is None:
        raise ValidationError(
            "no valid plane hypothesis found (points collinear or degenerate)"
        )

    hypothesis_inliers = (
        np.abs(pts @ best_normal - best_offset) <= distance_threshold
    )
    plane = _least_squares_plane(pts[hypothesis_inliers])
    inliers = plane.distance(pts) <= distance_threshold
    return plane, inliers


def _least_squares_plane(points: np.ndarray) -> Plane:
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    normal = eigvecs[:, 0]
    # deterministic sign: largest-magnitude component positive
    lead = int(np.argmax(np.abs(normal)))
    if normal[lead] < 0:
        normal = -normal
    normal = normal / np.linalg.norm(normal)
    return Plane(normal=normal, offset=float(normal @ centroid))


def euclidean_clusters(
    points: np.ndarray, radius: float = 0.01, min_points: int = 30
) -> np.ndarray:
    """Cluster id per point: connected components of the fixed-radius
    neighbour graph, whose edges join points at distance <= ``radius``.
    Components smaller than ``min_points`` get id 0; survivors are
    numbered 1..N in order of their lowest point index."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    if radius < 0:
        raise ValidationError("radius must be >= 0")
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    n = pts.shape[0]
    # widen the query past rounding, then decide each edge on the exact d2
    pairs = cKDTree(pts).query_pairs(radius * (1 + 1e-9), output_type="ndarray")
    diff = pts[pairs[:, 1]] - pts[pairs[:, 0]]
    pairs = pairs[np.einsum("ij,ij->i", diff, diff) <= radius * radius]
    graph = coo_matrix(
        (np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    # csgraph numbers components in order of their lowest point index
    _, comp = connected_components(graph, directed=False)
    kept = np.bincount(comp) >= min_points
    return np.where(kept, np.cumsum(kept), 0)[comp]


def project(cloud: PointCloud, camera: CameraModel) -> Projection:
    """Project all points through the pinhole model.

    in_frame is True only for points in front of the camera whose
    projection lands inside the image rectangle.
    """
    xyz = cloud.xyz
    ones = np.ones((len(cloud), 1))
    cam = (np.hstack([xyz, ones]) @ camera.extrinsic.T)[:, :3]
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.fx * x / z + camera.cx
        v = camera.fy * y / z + camera.cy
    in_frame = (
        (z > 0)
        & (u >= 0)
        & (u < camera.width)
        & (v >= 0)
        & (v < camera.height)
    )
    return Projection(u=u, v=v, depth=z, in_frame=in_frame)


def load_camera(path: str | Path) -> CameraModel:
    """Read a camera JSON: {width, height, fx, fy, cx, cy, extrinsic: [16]}."""
    return decode(CameraModel, read_json(path, dict), f"camera model {path}")
