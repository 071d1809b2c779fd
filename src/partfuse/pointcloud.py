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

import itertools
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ValidationError, open_input
from .jsonio import decode, read_json
from .rng import SplitMix64

_PLY_PROPERTIES = ("x", "y", "z", "red", "green", "blue")
MAX_PMF_CELLS = 1 << 22  # the filter's height grid: 32 MB of float64


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
        if not abs(np.linalg.norm(normal) - 1.0) <= 1e-9:  # a NaN normal fails too
            raise ValidationError("plane normal must have unit length")
        if not np.isfinite(self.offset):
            raise ValidationError(f"plane offset must be finite, got {self.offset}")
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

    The body is parsed and checked in chunks of POINT_BLOCK rows, into
    arrays sized by the header's vertex count once the file's size shows
    room for that many rows.  Every malformed input (bad header, a vertex
    count the rows do not match, non-numeric or missing fields, colours
    that are not integers in 0..255, non-ASCII bytes) raises FormatError.
    """
    path = Path(path)
    with open_input(path, "r", encoding="ascii") as fh:
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
                    if not tokens[2].isdecimal() or len(tokens[2]) > 20:  # as in _pnm_header
                        raise FormatError(f"{path}: bad vertex count {tokens[2]!r:.40}")
                    count = int(tokens[2])
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

            # each field takes a character and a separator, but the last may end the file
            room = (os.fstat(fh.fileno()).st_size - fh.tell() + 1) // (2 * len(props))
            if count > room:
                raise FormatError(f"{path}: header announces {count} vertices "
                                  f"but the file has room for {room}")
            col = [props.index(name) for name in _PLY_PROPERTIES]
            xyz, rgb = np.empty((count, 3)), np.empty((count, 3), dtype=np.uint8)
            filled = 0
            # loadtxt skips blank lines, but warns of them under max_rows
            rows = itertools.filterfalse(str.isspace, fh)
            for first in rows:
                if filled == count:
                    raise FormatError(f"{path}: header announces {count} vertices "
                                      "but the file has more")
                try:
                    chunk = np.loadtxt(itertools.chain([first], rows), comments=None,
                                       ndmin=2, max_rows=min(POINT_BLOCK, count - filled))
                except UnicodeDecodeError:  # a ValueError, reported below
                    raise
                except ValueError as exc:
                    raise FormatError(f"{path}: malformed vertex rows: {exc}") from exc
                if chunk.shape[1] != len(props):
                    raise FormatError(f"{path}: vertex rows have {chunk.shape[1]} fields")
                colours = chunk[:, col[3:]]
                if not ((colours >= 0) & (colours <= 255) & (colours == np.floor(colours))).all():
                    raise FormatError(f"{path}: colours must be integers in 0..255")
                xyz[filled : filled + len(chunk)] = chunk[:, col[:3]]
                rgb[filled : filled + len(chunk)] = colours
                filled += len(chunk)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not an ASCII PLY file: {exc}") from exc
    if filled != count:
        raise FormatError(f"{path}: header announces {count} vertices but file has {filled}")
    return PointCloud(xyz, rgb)


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
    with np.errstate(over="ignore"):  # a cell_size near 0 counts infinitely many cells
        cells = math.prod(np.floor(np.ptp(xyz[:, :2], axis=0) / cell) + 1)
    if cells > MAX_PMF_CELLS:
        raise ValidationError(f"pmf cell_size {cell}: {cells:.4g} grid cells, max {MAX_PMF_CELLS}")
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
    if n_iterations < 1 or not distance_threshold > 0:
        raise ValidationError("ransac needs n_iterations >= 1 and distance_threshold > 0, "
                              f"got {n_iterations} and {distance_threshold}")

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


PAIR_BLOCK = 1 << 14  # (pixel, neighbour) pairs that project_labels handles at once
POINT_BLOCK = 1 << 11  # points that read_ply, euclidean_clusters and project handle at once


def euclidean_clusters(
    points: np.ndarray, radius: float = 0.01, min_points: int = 30
) -> np.ndarray:
    """Cluster id per point: connected components of the fixed-radius
    neighbour graph, whose edges join points at distance <= ``radius``.
    Components smaller than ``min_points`` get id 0; survivors are
    numbered 1..N in order of their lowest point index.

    The pairs are found and checked one block of POINT_BLOCK points at a
    time, and after each block the graph so far is folded to one edge per
    point, so memory grows with the points, not with their pairs."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    if radius < 0:
        raise ValidationError("radius must be >= 0")
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    n = pts.shape[0]
    trees = [cKDTree(pts[lo : lo + POINT_BLOCK]) for lo in range(0, n, POINT_BLOCK)]
    # the graph so far, folded to one edge per point: to its component's lowest index
    i = j = np.zeros(0, dtype=np.int32)
    for p in range(len(trees)):
        i, j = (np.concatenate(ends) for ends in zip((i, j), _pairs_within(pts, trees, p, radius)))
        graph = coo_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n))
        # csgraph numbers components in order of their lowest point index
        _, comp = connected_components(graph, directed=False)
        del graph
        lowest = np.unique(comp, return_index=True)[1].astype(np.int32)[comp]
        i = np.flatnonzero(lowest != np.arange(n)).astype(np.int32)
        j = lowest[i]
    kept = np.bincount(comp) >= min_points
    return np.where(kept, np.cumsum(kept), 0)[comp]


def _pairs_within(pts: np.ndarray, trees: list, p: int, radius: float):
    """The int32 pairs (a, b), a < b, of points at distance <= ``radius``
    whose point a lies in block ``p``: within it, then with each later block."""
    reach = radius * (1 + 1e-9)  # past rounding; each pair is then decided on the exact d2
    tree, lo = trees[p], p * POINT_BLOCK
    pairs = [tree.query_pairs(reach, output_type="ndarray") + lo]
    for q in range(p + 1, len(trees)):
        near = tree.sparse_distance_matrix(trees[q], reach, output_type="ndarray")
        pairs.append(np.stack([near["i"] + lo, near["j"] + q * POINT_BLOCK], axis=1))
    a, b = np.concatenate(pairs).astype(np.int32).T
    del pairs
    diff = pts[b]
    diff -= pts[a]
    keep = np.einsum("ij,ij->i", diff, diff) <= radius * radius
    return a[keep], b[keep]


def project(cloud: PointCloud, camera: CameraModel) -> Projection:
    """Project all points through the pinhole model, in blocks of
    POINT_BLOCK points.

    in_frame is True only for points in front of the camera whose
    projection lands inside the image rectangle.
    """
    n = len(cloud)
    u, v, depth = np.empty(n), np.empty(n), np.empty(n)
    for lo in range(0, n, POINT_BLOCK):
        # the last block overlaps the one before: numpy multiplies a lone row
        # another way, so a one-row block would round unlike the whole product
        lo = max(0, min(lo, n - POINT_BLOCK))
        xyz = cloud.xyz[lo : lo + POINT_BLOCK]
        cam = np.hstack([xyz, np.ones((len(xyz), 1))]) @ camera.extrinsic.T
        x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u[lo : lo + POINT_BLOCK] = camera.fx * x / z + camera.cx
            v[lo : lo + POINT_BLOCK] = camera.fy * y / z + camera.cy
        depth[lo : lo + POINT_BLOCK] = z
    in_frame = (
        (depth > 0)
        & (u >= 0)
        & (u < camera.width)
        & (v >= 0)
        & (v < camera.height)
    )
    return Projection(u=u, v=v, depth=depth, in_frame=in_frame)


def load_camera(path: str | Path) -> CameraModel:
    """Read a camera JSON: {width, height, fx, fy, cx, cy, extrinsic: [16]}."""
    return decode(CameraModel, read_json(path, dict), f"camera model {path}")
