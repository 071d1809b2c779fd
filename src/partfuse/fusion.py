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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containers import LABEL_DTYPE, LabelTriple, LogitStack
from .errors import ValidationError
from .taxonomy import ClassTaxonomy

BASELINE_STRATEGIES = ("none", "consensus", "topdown")
STRATEGIES = ("partpanoptic",) + BASELINE_STRATEGIES


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


def semantic_wise_fuse(stack: LogitStack, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Enhance each semantic channel with its parts' evidence.

    For a class with parts, the part logits are flattened by a per-pixel
    maximum over the class's part channels and fused with the semantic
    channel through agreement_part_sem.  Classes without parts pass
    through unchanged.  Channel order matches the input stack.
    """
    stack.validate(taxonomy)
    enhanced = stack.semantic_logits.astype(np.float64)
    for channel, class_id in enumerate(stack.semantic_channel_ids):
        parts = taxonomy.parts_of(class_id)
        if not parts:
            continue
        part_channels = [stack.part_channel(p.id) for p in parts]
        flat = stack.part_logits[part_channels].max(axis=0)
        enhanced[channel] = agreement_part_sem(flat, stack.semantic_logits[channel])
    return enhanced


def part_wise_fuse(
    stack: LogitStack, taxonomy: ClassTaxonomy
) -> tuple[np.ndarray, np.ndarray]:
    """Enhance each part channel with its parent's semantic evidence.

    Returns the enhanced part tensor (stack channel order) and the part
    map: per-pixel argmax over the enhanced part channels, ties broken by
    the lowest part id.  The part map is emitted everywhere; consumers
    decide whether to suppress parts on partless regions.
    """
    stack.validate(taxonomy)
    enhanced = np.empty(stack.part_logits.shape, dtype=np.float64)
    return enhanced, _part_map(stack, taxonomy, enhanced)


def _part_map(
    stack: LogitStack, taxonomy: ClassTaxonomy, enhanced: np.ndarray | None = None
) -> np.ndarray:
    """Part map of part-wise fusion, one enhanced channel at a time.

    Each part channel is fused with its parent's semantic channel and
    folded into a running argmax; ``enhanced``, when given, receives the
    enhanced channels in stack order.
    """
    if not stack.part_channel_ids:
        raise ValidationError("part-wise fusion requires at least one part class")

    def channels():
        for part_id, channel in _id_order(stack.part_channel_ids):
            parent_channel = stack.semantic_channel(taxonomy.parent_of(part_id))
            scores = agreement_part_sem(
                stack.part_logits[channel], stack.semantic_logits[parent_channel]
            )
            if enhanced is not None:
                enhanced[channel] = scores
            yield part_id, scores

    return _running_argmax(channels(), stack.part_logits.shape[1:])[1]


def _id_order(channel_ids) -> list[tuple[int, int]]:
    """(id, channel index) pairs in ascending id order."""
    return sorted(zip(channel_ids, range(len(channel_ids))))


def _running_argmax(channels, shape) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel maximum score and its label over (label, scores) pairs.

    Pairs come in ascending label order and a later channel takes a pixel
    only with a strictly greater score, so ties go to the lowest label, as
    with np.argmax's first maximum.  Without channels every pixel has
    score -inf and label void.
    """
    best = np.full(shape, -np.inf)
    winner = np.zeros(shape, dtype=LABEL_DTYPE)
    for label, scores in channels:
        better = scores > best
        np.maximum(best, scores, out=best)
        winner[better] = label
    return best, winner


def panoptic_fuse(
    enhanced_semantic: np.ndarray,
    semantic_channel_ids: tuple[int, ...],
    proposals,
    taxonomy: ClassTaxonomy,
    params: FusionParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge stuff logits and instance proposals into semantic/instance maps.

    Proposals below the confidence floor are dropped; the rest are
    accepted greedily in descending confidence (ties by submission order)
    unless their thresholded footprint overlaps already-claimed pixels on
    at least ``overlap_discard_ratio`` of its own area.  Overlapped pixels
    are removed from the later proposal.  Each accepted instance competes
    per pixel with the stuff-class logits via agreement_sem_inst between
    its mask logits and its class's enhanced semantic channel; the winner
    is the highest score, ties to the lowest class id then lowest
    instance id.  Instances that end up with fewer than
    ``min_instance_area`` pixels are removed and their pixels go to the
    stuff winner.  Accepted footprints are disjoint, so each instance is
    scored on its own footprint pixels against the stuff argmax alone.
    """
    params = params or FusionParams()
    if enhanced_semantic.ndim != 3:
        raise ValidationError("enhanced semantic tensor must be [C, H, W]")
    if enhanced_semantic.shape[0] != len(semantic_channel_ids):
        raise ValidationError("channel id mapping length mismatch")
    h, w = enhanced_semantic.shape[1:]
    # a float64 threshold keeps the comparison in float64 for float32 masks
    threshold = np.float64(params.mask_logit_threshold)

    kept = [p for p in proposals if p.confidence >= params.confidence_min]
    order = sorted(
        range(len(kept)), key=lambda i: (-kept[i].confidence, i)
    )

    occupancy = np.zeros((h, w), dtype=bool)
    accepted: list[tuple[int, np.ndarray, np.ndarray]] = []  # (class, pixels, logits)
    for idx in order:
        prop = kept[idx]
        if prop.mask_logits.shape != (h, w):
            raise ValidationError("proposal mask dimensions disagree with logits")
        footprint = prop.mask_logits > threshold
        own = int(np.count_nonzero(footprint))
        if own == 0:
            continue
        overlap = int(np.count_nonzero(footprint & occupancy))
        if overlap / own >= params.overlap_discard_ratio:
            continue
        surviving = footprint & ~occupancy
        occupancy |= surviving
        accepted.append((prop.class_id, np.flatnonzero(surviving), prop.mask_logits))

    channel_of = {cid: ch for ch, cid in enumerate(semantic_channel_ids)}
    stuff = (
        (class_id, enhanced_semantic[channel])
        for class_id, channel in _id_order(semantic_channel_ids)
        if taxonomy.has_semantic(class_id) and not taxonomy.is_thing(class_id)
    )
    stuff_best, stuff_winner = _running_argmax(stuff, (h, w))
    stuff_best, stuff_winner = stuff_best.ravel(), stuff_winner.ravel()

    sem_map = stuff_winner.copy()
    inst_map = np.zeros(h * w, dtype=LABEL_DTYPE)
    instance_id = 0
    for class_id, pixels, mask_logits in accepted:
        if class_id not in channel_of:
            raise ValidationError(f"no semantic channel for proposal class {class_id}")
        fused = agreement_sem_inst(
            mask_logits.ravel()[pixels],
            enhanced_semantic[channel_of[class_id]].ravel()[pixels],
        )
        best = stuff_best[pixels]
        wins = (fused > best) | ((fused == best) & (class_id < stuff_winner[pixels]))
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
    """Full part-panoptic fusion: enhancement, panoptic merge, part argmax."""
    enhanced_sem = semantic_wise_fuse(stack, taxonomy)
    part_map = _part_map(stack, taxonomy)
    sem_map, inst_map = panoptic_fuse(
        enhanced_sem,
        stack.semantic_channel_ids,
        stack.instance_proposals,
        taxonomy,
        params,
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
    _, part_map = _running_argmax(
        (
            (part_id, stack.part_logits[channel])
            for part_id, channel in _id_order(stack.part_channel_ids)
        ),
        sem_map.shape,
    )

    if strategy == "none":
        return LabelTriple.from_arrays(sem_map, inst_map, part_map)

    parent_lut = np.zeros(int(part_map.max()) + 1, dtype=np.int64)
    for pid in stack.part_channel_ids:
        if pid <= part_map.max():
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
