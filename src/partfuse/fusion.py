"""Part-panoptic fusion: turn a LogitStack into a LabelTriple.

Two agreement functions drive the fusion.  Both amplify a pair of logits
when the heads agree, cancel them when the heads disagree, and pass the
informative logit through when one head is uncertain:

    agreement_part_sem(a, b) = (sigma'(a) + sigma'(b)) * (a + b)
    agreement_sem_inst(a, b) = (sigma(a)  + sigma(b))  * (a + b)

where sigma is the logistic function and sigma'(x) = 2*sigma(x) - 1
rescales it to (-1, 1).  The formulas are applied literally; no clamping
or sign fixing is performed for unusual input regimes.

Fusion runs in two branches: semantic-wise fusion folds each class's part
logits (max over the class's part channels) into its semantic channel,
and the enhanced semantic logits feed panoptic fusion with the instance
proposals; part-wise fusion folds each part's parent semantic logits into
its part channel, and the per-pixel argmax of those enhanced part logits
is the part map.  Three baseline strategies ("none", "consensus",
"topdown") skip the enhancement and resolve part/semantic conflicts by
keeping them, voiding everything, or voiding only the part label.

Both branches run on row tiles and enhance only what they read: the part
map and the stuff argmax are built tile by tile, and a thing class's
semantic channel is enhanced only on the footprints of accepted
instances.  The arithmetic is per pixel, so tiling changes no result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .containers import LABEL_DTYPE, LabelTriple, LogitStack
from .errors import ValidationError
from .taxonomy import ClassTaxonomy

BASELINE_STRATEGIES = ("none", "consensus", "topdown")
STRATEGIES = ("partpanoptic",) + BASELINE_STRATEGIES

# fusion works on row tiles of about this many pixels (16 rows of a
# 1024-wide frame), so no stage holds a full-frame float64 tensor with a
# channel axis; see tile_rows
TILE_PIXELS = 2**14


@dataclass(frozen=True)
class FusionParams:
    """Tunables of the panoptic stage; defaults follow common fusion practice."""

    confidence_min: float = 0.5
    overlap_discard_ratio: float = 0.5
    min_instance_area: int = 64
    mask_logit_threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.confidence_min <= 1.0:
            raise ValidationError("confidence_min must be in [0, 1]")
        if not 0.0 < self.overlap_discard_ratio <= 1.0:
            raise ValidationError("overlap_discard_ratio must be in (0, 1]")
        if self.min_instance_area < 0:
            raise ValidationError("min_instance_area must be >= 0")
        if not np.isfinite(self.mask_logit_threshold):
            raise ValidationError("mask_logit_threshold must be finite")


def sigmoid_rescaled(x):
    """2*sigma(x) - 1: the logistic function rescaled to (-1, 1), as tanh(x/2)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.tanh(arr * 0.5)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def agreement_part_sem(a, b):
    """(sigma'(a) + sigma'(b)) * (a + b); symmetric in its arguments."""
    aa = np.asarray(a, dtype=np.float64)
    bb = np.asarray(b, dtype=np.float64)
    out = sigmoid_rescaled(aa) + sigmoid_rescaled(bb)
    out *= aa + bb
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def agreement_sem_inst(a, b):
    """(sigma(a) + sigma(b)) * (a + b); symmetric in its arguments."""
    from scipy.special import expit

    aa = np.asarray(a, dtype=np.float64)
    bb = np.asarray(b, dtype=np.float64)
    out = (expit(aa) + expit(bb)) * (aa + bb)
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def semantic_wise_fuse(
    stack: LogitStack, taxonomy: ClassTaxonomy, channel: int, index
) -> np.ndarray:
    """Semantic channel ``channel`` enhanced with its parts' evidence.

    ``index`` selects pixels of the raveled H*W frame: a slice (a row
    tile) or an integer array (an instance footprint).  For a class with
    parts, the part logits are flattened by a per-pixel maximum over the
    class's part channels and fused with the semantic logits through
    agreement_part_sem.  A class without parts passes through, cast to
    float64.  The caller validates the stack once per frame.
    """
    semantic = stack.semantic_logits[channel].reshape(-1)[index]
    parts = taxonomy.parts_of(stack.semantic_channel_ids[channel])
    if not parts:
        return semantic.astype(np.float64)
    flat = functools.reduce(
        np.maximum,
        (stack.part_logits[stack.part_channel(p.id)].reshape(-1)[index] for p in parts),
    )
    return agreement_part_sem(flat, semantic)


def part_wise_fuse(stack: LogitStack, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Part map of part-wise fusion.

    Each part channel is fused with its parent's semantic channel through
    agreement_part_sem, and the part map is the per-pixel argmax of those
    enhanced part logits, ties broken by the lowest part id.  The work
    runs on row tiles: in each tile every parent's semantic logits are
    cast to float64 and rescaled once, then each part channel is fused
    and folded into a running argmax in part-id order.  The part map is
    emitted everywhere; consumers decide whether to suppress parts on
    partless regions.
    """
    stack.validate(taxonomy)
    if not stack.part_channel_ids:
        raise ValidationError("part-wise fusion requires at least one part class")
    order = [
        (part_id, channel, stack.semantic_channel(taxonomy.parent_of(part_id)))
        for part_id, channel in _id_order(stack.part_channel_ids)
    ]

    def tile_channels(tile):
        parents = {}  # parent channel -> (float64 logits, rescaled sigmoid)
        for part_id, channel, parent in order:
            if parent not in parents:
                sem = stack.semantic_logits[parent].reshape(-1)[tile].astype(np.float64)
                parents[parent] = sem, sigmoid_rescaled(sem)
            sem, sem_rescaled = parents[parent]
            part = stack.part_logits[channel].reshape(-1)[tile].astype(np.float64)
            # agreement_part_sem(part, sem), sharing the parent's term
            scores = sigmoid_rescaled(part)
            scores += sem_rescaled
            scores *= part + sem
            yield part_id, scores

    shape = stack.part_logits.shape[1:]
    return _tiled_argmax(shape, tile_channels).reshape(shape)


def _id_order(channel_ids) -> list[tuple[int, int]]:
    """(id, channel index) pairs in ascending id order."""
    return sorted(zip(channel_ids, range(len(channel_ids))))


def tile_rows(width: int) -> int:
    """Rows of one fusion tile in a frame ``width`` pixels wide."""
    return max(1, TILE_PIXELS // max(width, 1))


def _tiled_argmax(shape, tile_channels, best=None) -> np.ndarray:
    """Per-pixel label of the maximum score, one row tile at a time.

    ``tile_channels(tile)`` yields (label, scores) pairs for the pixels of
    one tile, a slice of the raveled frame, in ascending label order.  A
    later channel takes a pixel only with a strictly greater score, so
    ties go to the lowest label, as with np.argmax's first maximum.
    Without channels every pixel has score -inf and label void.  The
    labels are raveled; ``best``, a raveled float64 array of the frame
    when given, receives the maximum scores.  Labels are at least 1 and
    ascend, so a channel that wins a pixel holds a larger label than its
    current one, and ``max(winner, better * label)`` is the new winner.
    """
    size = shape[0] * shape[1]
    step = tile_rows(shape[1]) * shape[1]
    winner = np.zeros(size, dtype=LABEL_DTYPE)
    buffer = np.empty(min(step, size), dtype=bool)
    for start in range(0, size, step):
        tile = slice(start, min(start + step, size))
        tile_best = np.empty(tile.stop - start) if best is None else best[tile]
        tile_best.fill(-np.inf)
        tile_winner, better = winner[tile], buffer[: tile.stop - start]
        for label, scores in tile_channels(tile):
            np.greater(scores, tile_best, out=better)
            np.maximum(tile_best, scores, out=tile_best)
            np.maximum(tile_winner, better * LABEL_DTYPE(label), out=tile_winner)
    return winner


def mask_threshold(dtype, threshold: float):
    """The scalar ``s`` with ``mask > s`` equal to ``mask.astype(np.float64) >
    threshold``: for float32 masks the largest float32 at most ``threshold``,
    which keeps the comparison in float32 on every NumPy version."""
    if dtype != np.float32:
        return np.float64(threshold)
    with np.errstate(over="ignore"):
        below = np.float32(threshold)
    if float(below) > threshold:
        below = np.nextafter(below, np.float32(-np.inf))
    return below


def panoptic_fuse(
    semantic_logits: np.ndarray,
    semantic_channel_ids: tuple[int, ...],
    proposals,
    taxonomy: ClassTaxonomy,
    params: FusionParams | None = None,
    scores=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge stuff logits and instance proposals into semantic/instance maps.

    Semantic scores are read through ``scores(channel, index)``, which
    returns float64 scores of one channel at ``index``, a slice or an
    integer array of the raveled frame; by default it casts
    ``semantic_logits``, the [C, H, W] tensor that also sets the frame
    shape.  Stuff channels are read tile by tile, thing channels only at
    the footprints of accepted instances.

    Proposals below the confidence floor are dropped; the rest are
    accepted greedily in descending confidence (ties by submission order)
    unless their thresholded footprint overlaps already-claimed pixels on
    at least ``overlap_discard_ratio`` of its own area.  Overlapped pixels
    are removed from the later proposal.  Each accepted instance competes
    per pixel with the stuff-class logits via agreement_sem_inst between
    its mask logits and its class's semantic score; the winner is the
    highest score, ties to the lowest class id then lowest instance id.
    Instances that end up with fewer than ``min_instance_area`` pixels are
    removed and their pixels go to the stuff winner.  Accepted footprints
    are disjoint, so each instance is scored on its own footprint pixels
    against the stuff argmax alone.
    """
    params = params or FusionParams()
    if semantic_logits.ndim != 3:
        raise ValidationError("semantic logit tensor must be [C, H, W]")
    if semantic_logits.shape[0] != len(semantic_channel_ids):
        raise ValidationError("channel id mapping length mismatch")
    h, w = semantic_logits.shape[1:]
    if scores is None:
        def scores(channel, index):
            return semantic_logits[channel].reshape(-1)[index].astype(np.float64)
    threshold = params.mask_logit_threshold

    kept = [p for p in proposals if p.confidence >= params.confidence_min]
    order = sorted(
        range(len(kept)), key=lambda i: (-kept[i].confidence, i)
    )

    occupancy = np.zeros(h * w, dtype=bool)
    accepted: list[tuple[int, np.ndarray, np.ndarray]] = []  # (class, pixels, logits)
    for idx in order:
        prop = kept[idx]
        if prop.mask_logits.shape != (h, w):
            raise ValidationError("proposal mask dimensions disagree with logits")
        mask = prop.mask_logits.ravel()
        footprint = np.flatnonzero(mask > mask_threshold(mask.dtype, threshold))
        if footprint.size == 0:
            continue
        taken = occupancy[footprint]
        if np.count_nonzero(taken) / footprint.size >= params.overlap_discard_ratio:
            continue
        surviving = footprint[~taken]
        occupancy[surviving] = True
        accepted.append((prop.class_id, surviving, prop.mask_logits))

    channel_of = {cid: ch for ch, cid in enumerate(semantic_channel_ids)}
    stuff = [
        (class_id, channel)
        for class_id, channel in _id_order(semantic_channel_ids)
        if taxonomy.has_semantic(class_id) and not taxonomy.is_thing(class_id)
    ]
    stuff_best = np.empty(h * w)
    sem_map = _tiled_argmax(
        (h, w), lambda tile: ((cid, scores(ch, tile)) for cid, ch in stuff), stuff_best
    )

    # footprints are disjoint, so sem_map still holds the stuff winner on
    # every pixel of the instance being scored
    inst_map = np.zeros(h * w, dtype=LABEL_DTYPE)
    instance_id = 0
    for class_id, pixels, mask_logits in accepted:
        if class_id not in channel_of:
            raise ValidationError(f"no semantic channel for proposal class {class_id}")
        fused = agreement_sem_inst(
            mask_logits.ravel()[pixels], scores(channel_of[class_id], pixels)
        )
        best = stuff_best[pixels]
        wins = (fused > best) | ((fused == best) & (class_id < sem_map[pixels]))
        won = pixels[wins]
        if won.size < max(params.min_instance_area, 1):
            continue
        instance_id += 1
        sem_map[won] = class_id
        inst_map[won] = instance_id
    return sem_map.reshape(h, w), inst_map.reshape(h, w)


def fuse_part_panoptic(
    stack: LogitStack,
    taxonomy: ClassTaxonomy,
    params: FusionParams | None = None,
) -> LabelTriple:
    """Full part-panoptic fusion: part argmax, then the panoptic merge on
    semantic channels enhanced where it reads them."""
    part_map = part_wise_fuse(stack, taxonomy)
    sem_map, inst_map = panoptic_fuse(
        stack.semantic_logits,
        stack.semantic_channel_ids,
        stack.instance_proposals,
        taxonomy,
        params,
        functools.partial(semantic_wise_fuse, stack, taxonomy),
    )
    return LabelTriple.from_arrays(sem_map, inst_map, part_map)


def fuse_baseline(
    stack: LogitStack,
    taxonomy: ClassTaxonomy,
    params: FusionParams | None = None,
    strategy: str = "none",
) -> LabelTriple:
    """Ablation strategies that bypass the agreement-based enhancement.

    "none": panoptic merge on the raw semantic logits; part map is the raw
    per-pixel argmax of the part logits.  Part/semantic conflicts (the
    part's parent differs from the pixel's semantic label) are kept.
    "consensus": conflicting pixels have semantic, instance and part all
    set to void.  "topdown": conflicting pixels keep semantic and
    instance and only the part label is voided.
    """
    if strategy not in BASELINE_STRATEGIES:
        raise ValidationError(
            f"unknown strategy {strategy!r}; expected one of {BASELINE_STRATEGIES}"
        )
    stack.validate(taxonomy)
    sem_map, inst_map = panoptic_fuse(
        stack.semantic_logits,
        stack.semantic_channel_ids,
        stack.instance_proposals,
        taxonomy,
        params,
    )
    order = _id_order(stack.part_channel_ids)
    part_map = _tiled_argmax(
        sem_map.shape,
        lambda tile: (
            (part_id, stack.part_logits[channel].reshape(-1)[tile])
            for part_id, channel in order
        ),
    ).reshape(sem_map.shape)

    if strategy == "none":
        return LabelTriple.from_arrays(sem_map, inst_map, part_map)

    parent_lut = np.zeros(max(taxonomy.part_ids, default=0) + 1, dtype=np.int64)
    for pid in taxonomy.part_ids:
        parent_lut[pid] = taxonomy.parent_of(pid)
    conflict = (part_map != 0) & (parent_lut[part_map] != sem_map)

    if strategy == "consensus":
        sem_map[conflict] = 0
        inst_map[conflict] = 0
        part_map[conflict] = 0
    else:  # topdown
        part_map[conflict] = 0
    return LabelTriple.from_arrays(sem_map, inst_map, part_map)


def fuse(
    stack: LogitStack,
    taxonomy: ClassTaxonomy,
    params: FusionParams | None = None,
    strategy: str = "partpanoptic",
) -> LabelTriple:
    """Dispatch on strategy name: "partpanoptic" or a baseline."""
    if strategy == "partpanoptic":
        return fuse_part_panoptic(stack, taxonomy, params)
    return fuse_baseline(stack, taxonomy, params, strategy)
