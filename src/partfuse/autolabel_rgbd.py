"""Training-label generation from a registered RGB image and point cloud.

Pipeline: the progressive morphological filter roughly separates objects
from the supporting surface; a RANSAC plane fit over the ground
candidates reclaims near-plane points the filter missed (transparent
objects produce noisy depth, so the two stages complement each other);
Euclidean clustering turns the remaining points into object instances.
Object points are assigned part ids by HSV colour rules, and all labels
are carried into pixel space by k-nearest-neighbour voting over the
projected points.

Background points on the fitted plane map to a configurable surface
class; leftover points that neither belong to the plane nor to a
surviving cluster vote as void.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .containers import LABEL_DTYPE, LabelTriple
from .errors import ValidationError
from .imaging import HsvRange, first_hsv_range
from .jsonio import decode
from . import pointcloud
from .pointcloud import CameraModel, PmfParams, PointCloud
from .taxonomy import ClassTaxonomy


@dataclass(frozen=True)
class PartColorRule:
    """Assign a part id to points/pixels whose colour falls in an HSV range;
    higher priority wins where ranges overlap."""

    part_id: int
    hsv_range: HsvRange = HsvRange()
    priority: int = 0


def ordered_part_rules(
    rules, taxonomy: ClassTaxonomy | None = None, catchall_part_id: int = 0
) -> list[PartColorRule]:
    """Rules in the order they are tried: descending priority, given order
    among equals.  With a taxonomy, every rule's part id and a nonzero
    catch-all must be part classes."""
    if taxonomy is not None:
        for rule in rules:
            taxonomy.part_class(rule.part_id)
        if catchall_part_id:
            taxonomy.part_class(catchall_part_id)
    return sorted(rules, key=lambda rule: -rule.priority)


def check_class_ids(config, taxonomy: ClassTaxonomy) -> None:
    """Raise ValidationError unless the config's object class, and its
    background class when nonzero, are taxonomy classes."""
    taxonomy.semantic_class(config.object_class_id)
    if config.background_class_id:
        taxonomy.semantic_class(config.background_class_id)


def rule_part_ids(colors: np.ndarray, rules, catchall_part_id: int = 0) -> np.ndarray:
    """The part id of each uint8 RGB colour of ``colors`` (..., 3): that of
    the first of ``rules``, taken in the order given, whose HSV range holds
    it, else ``catchall_part_id``.  Both labellers give parts this way."""
    ids = np.array([rule.part_id for rule in rules] + [catchall_part_id])
    if ids.min() < 0 or ids.max() > np.iinfo(LABEL_DTYPE).max:
        raise ValidationError("part ids must fit in 16 bits")
    ranges = [rule.hsv_range for rule in rules]
    return ids.astype(LABEL_DTYPE)[first_hsv_range(colors, ranges)]


@dataclass(frozen=True)
class LabeledPointCloud:
    """A cloud plus per-point object/instance/part annotations.

    ``table_flag`` marks background points lying on the fitted support
    plane; background points without it vote as void in pixel space.
    """

    cloud: PointCloud
    object_flag: np.ndarray  # (N,) bool
    instance_id: np.ndarray  # (N,) int64, 0 = background
    part_id: np.ndarray  # (N,) int64, 0 = none
    table_flag: np.ndarray  # (N,) bool

    def __post_init__(self):
        n = len(self.cloud)
        for name in ("object_flag", "instance_id", "part_id", "table_flag"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValidationError(f"{name} must have shape ({n},)")
            arr.setflags(write=False)
        if ((self.part_id != 0) & ~self.object_flag).any():
            raise ValidationError("part ids assigned to non-object points")
        if ((self.instance_id != 0) != self.object_flag).any():
            raise ValidationError("object points and instances must coincide")
        if (self.table_flag & self.object_flag).any():
            raise ValidationError("plane points cannot be object points")


@dataclass(frozen=True)
class RgbdLabelConfig:
    object_class_id: int
    background_class_id: int = 0
    pmf: PmfParams = field(default_factory=PmfParams)
    ransac_iterations: int = 500
    ransac_threshold: float = 0.004
    seed: int = 0
    cluster_radius: float = 0.01
    cluster_min_points: int = 30
    part_rules: tuple[PartColorRule, ...] = ()
    catchall_part_id: int = 0
    knn_k: int = 5
    max_pixel_radius: float = 3.0

    def __post_init__(self):
        if self.knn_k < 1:
            raise ValidationError("knn_k must be >= 1")
        if self.max_pixel_radius <= 0:
            raise ValidationError("max_pixel_radius must be positive")
        object.__setattr__(self, "part_rules", tuple(self.part_rules))


def segment_objects(cloud: PointCloud, config: RgbdLabelConfig) -> LabeledPointCloud:
    """Split a cloud into plane background and clustered object instances."""
    if len(cloud) == 0:
        raise ValidationError("cannot segment an empty cloud")
    ground = pointcloud.progressive_morphological_filter(cloud, config.pmf)
    if int(ground.sum()) < 3:
        raise ValidationError("too few ground candidates for a plane fit")
    plane, _ = pointcloud.ransac_plane(
        cloud.xyz[ground],
        n_iterations=config.ransac_iterations,
        distance_threshold=config.ransac_threshold,
        seed=config.seed,
    )
    on_plane = plane.distance(cloud.xyz) <= config.ransac_threshold
    background = ground | on_plane

    instance = np.zeros(len(cloud), dtype=np.int64)
    remaining = np.nonzero(~background)[0]
    if remaining.size:
        labels = pointcloud.euclidean_clusters(
            cloud.xyz[remaining],
            radius=config.cluster_radius,
            min_points=config.cluster_min_points,
        )
        instance[remaining] = labels
    object_flag = instance != 0
    # plane/ground points are the support surface; non-clustered leftovers
    # stay unflagged and later vote as void
    table = background & ~object_flag
    return LabeledPointCloud(
        cloud=cloud,
        object_flag=object_flag,
        instance_id=instance,
        part_id=np.zeros(len(cloud), dtype=np.int64),
        table_flag=table,
    )


def label_parts(
    labeled: LabeledPointCloud,
    part_rules,
    taxonomy: ClassTaxonomy | None = None,
    catchall_part_id: int = 0,
) -> LabeledPointCloud:
    """Assign part ids to object points by colour thresholding.

    Rules are tried in descending priority (stable for equal priorities);
    the first match wins.  Unmatched object points receive the catch-all
    part id, or 0 if none is configured.
    """
    rules = ordered_part_rules(part_rules, taxonomy, catchall_part_id)
    part = np.zeros(len(labeled.cloud), dtype=np.int64)
    obj = labeled.object_flag
    part[obj] = rule_part_ids(labeled.cloud.rgb[obj], rules, catchall_part_id)
    return replace(labeled, part_id=part)


# (pixel, neighbour) pairs handled per block (k + 1 when k is larger)
_BLOCK = 1 << 14


def project_labels(
    labeled: LabeledPointCloud,
    camera: CameraModel,
    taxonomy: ClassTaxonomy,
    config: RgbdLabelConfig,
) -> LabelTriple:
    """Carry per-point labels into pixel space by k-NN voting.

    Each pixel (col, row) is voted on by its k nearest projected points,
    ranked by distance with equal distances going to the lower point
    index.  Pixels whose nearest projected point is farther than
    ``max_pixel_radius`` stay void.  Votes are counted independently per
    channel; a tied count is resolved in favour of the tied label whose
    supporting voter is nearest.
    """
    from scipy.spatial import cKDTree

    check_class_ids(config, taxonomy)

    proj = pointcloud.project(labeled.cloud, camera)
    idx = np.nonzero(proj.in_frame)[0]
    shape = (camera.height, camera.width)
    maps = np.zeros((3, camera.height * camera.width), dtype=np.uint16)
    if idx.size == 0:
        return LabelTriple(*maps.reshape(3, *shape))

    votes = np.stack(
        [
            np.where(
                labeled.object_flag[idx],
                config.object_class_id,
                np.where(labeled.table_flag[idx], config.background_class_id, 0),
            ),
            labeled.instance_id[idx],
            labeled.part_id[idx],
        ]
    )
    if votes.min() < 0 or votes.max() > np.iinfo(np.uint16).max:
        raise ValidationError("label ids must fit in 16 bits")
    votes = votes.astype(np.uint16)

    coords = np.stack([proj.u[idx], proj.v[idx]], axis=1)
    tree = cKDTree(coords)
    k = min(config.knn_k, idx.size)
    step = max(1, _BLOCK // (k + 1))
    for start in range(0, maps.shape[1], step):
        pixels = np.arange(start, min(start + step, maps.shape[1]))
        rows, cols = np.divmod(pixels, camera.width)
        centres = np.stack([cols, rows], axis=1).astype(np.float64)
        voters, d2 = _nearest(tree, coords, centres, k)
        hit = np.sqrt(d2[:, 0]) <= config.max_pixel_radius
        for channel, values in zip(maps, votes):
            channel[pixels[hit]] = _majority(values[voters[hit]])
    return LabelTriple(*maps.reshape(3, *shape))


def _sq_dist(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared distances, shaped like ``points`` without its last axis."""
    diff = (points - query).reshape(-1, 2)
    return np.einsum("ij,ij->i", diff, diff).reshape(points.shape[:-1])


def _nearest(tree, coords: np.ndarray, centres: np.ndarray, k: int):
    """The k nearest points to each centre ranked by (d2, index), as
    (indices, d2), both (len(centres), k)."""
    kq = min(k + 1, len(coords))
    dist, cand = tree.query(centres, k=kq)
    dist = dist.reshape(len(centres), kq)
    cand = cand.reshape(len(centres), kq)[:, :k]
    d2 = _sq_dist(coords[cand], centres[:, None, :])
    if kq > k:
        # points tying the k-th distance may lie past the k + 1 queried:
        # re-collect all of them (with a margin for cKDTree's rounding)
        # so the lower indices win
        reach = dist[:, k - 1] * (1 + 1e-9)
        for p in np.nonzero(dist[:, k] <= reach)[0]:
            ball = np.asarray(tree.query_ball_point(centres[p], reach[p]), dtype=np.intp)
            ball_d2 = _sq_dist(coords[ball], centres[p])
            pick = np.lexsort((ball, ball_d2))[:k]
            cand[p], d2[p] = ball[pick], ball_d2[pick]
    # cKDTree ranks by its own rounding of the distance: re-rank the rows
    # where that disagrees with (d2, index)
    ahead = d2[:, 1:] < d2[:, :-1]
    ahead |= (d2[:, 1:] == d2[:, :-1]) & (cand[:, 1:] < cand[:, :-1])
    rows = np.nonzero(ahead.any(axis=1))[0]
    order = np.lexsort((cand[rows], d2[rows]))
    cand[rows] = np.take_along_axis(cand[rows], order, 1)
    d2[rows] = np.take_along_axis(d2[rows], order, 1)
    return cand, d2


def _majority(labels: np.ndarray) -> np.ndarray:
    """Per row of uint16 labels, the most frequent label; ties go to the
    tied label with the earliest-ranked (nearest) supporter."""
    n, k = labels.shape
    shift = max(k - 1, 1).bit_length()
    # the ranks, and the positions in a sorted row
    col = np.arange(k, dtype=np.int64)
    # sorted (label, rank) keys lay each label's votes out as one run in
    # rank order, so a run's first key holds its label's earliest rank
    keys = np.sort((labels.astype(np.int64) << shift) | col, axis=1)
    ranked = keys >> shift
    start = np.ones((n, k), dtype=bool)
    start[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    # (position, earliest rank) of each run's first key, carried along the
    # run; a position's score is then its count so far, less that rank as
    # a fraction, so the longest run wins and then the earliest rank
    first = np.where(start, (col << shift) | (keys & ((1 << shift) - 1)), 0)
    np.maximum.accumulate(first, axis=1, out=first)
    score = ((col + 1) << shift) - first
    return ranked[np.arange(n), score.argmax(axis=1)].astype(labels.dtype)


def generate_rgbd_sample(
    rgb: np.ndarray,
    cloud: PointCloud,
    camera: CameraModel,
    taxonomy: ClassTaxonomy,
    config: RgbdLabelConfig,
) -> tuple[np.ndarray, LabelTriple]:
    """Run the full pipeline on one capture; the image passes through."""
    height, width = rgb.shape[:2]
    if (height, width) != (camera.height, camera.width):
        raise ValidationError(
            f"image is {width}x{height} but camera expects "
            f"{camera.width}x{camera.height}"
        )
    labeled = segment_objects(cloud, config)
    labeled = label_parts(
        labeled, config.part_rules, taxonomy, config.catchall_part_id
    )
    triple = project_labels(labeled, camera, taxonomy, config)
    return rgb, triple


_PROVENANCE_PARAMS = ("ransac_iterations", "ransac_threshold", "cluster_radius",
                      "cluster_min_points", "knn_k", "max_pixel_radius")


def provenance_record(
    scene: str, cloud: PointCloud, triple: LabelTriple, config: RgbdLabelConfig
) -> dict:
    """What ``label rgbd`` records beside a scene's sample."""
    return {
        "variant": "rgbd",
        "scene": scene,
        "seed": config.seed,
        "points": len(cloud),
        "instances": int(triple.instance_map.max()),
        "non_void_pixels": int((triple.semantic_map != 0).sum()),
        "params": {name: getattr(config, name) for name in _PROVENANCE_PARAMS},
    }


def load_rgbd_config(raw: dict) -> RgbdLabelConfig:
    """Build an RgbdLabelConfig from a config file's parsed JSON object."""
    return decode(RgbdLabelConfig, raw, "rgbd config")
