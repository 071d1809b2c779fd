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

A frame is fused in one pass (panoptic_fuse) that reads every mask and
then every row tile of the logits once, and holds one tile at a time.
A tile is held as one row of its pixels per class and part id, and
semantic_wise_fuse and part_wise_fuse work on such rows.  A stack opened
by formats.read_tensor is read from its files; an in-memory stack is
read as views, or copied where a tile is not one strided run.  Tiling
changes no result.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .containers import (LABEL_DTYPE, TILE_PIXELS, LabelTriple, check_proposal_classes, row_tiles,
                         tile_rows)
from .errors import ValidationError
from .params import STRATEGIES, FusionParams
from .taxonomy import MAX_ID, ClassTaxonomy

if TYPE_CHECKING:
    from .containers import LogitStack

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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)) of a float64 array.

    exp(-x) overflows to inf below x = -709.78, which gives exactly 0, the
    limit, so the overflow is not reported.  Not the tanh identity
    (1 + tanh(x/2)) / 2: summed over two very negative logits it cancels
    to 0 where the true sum is a tiny negative number.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def agreement_sem_inst(a, b):
    """(sigma(a) + sigma(b)) * (a + b); symmetric in its arguments."""
    aa = np.asarray(a, dtype=np.float64)
    bb = np.asarray(b, dtype=np.float64)
    out = (sigmoid(aa) + sigmoid(bb)) * (aa + bb)
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def semantic_wise_fuse(semantic: np.ndarray, parts) -> np.ndarray:
    """One class's semantic logits enhanced with its parts' evidence.

    ``parts`` holds the logits of the class's part channels at the same
    pixels as ``semantic``.  They are flattened by a per-pixel maximum and
    fused with the semantic logits through agreement_part_sem.  A class
    without parts passes through, cast to float64.  The input is not
    checked, as fuse checks it first.
    """
    if not parts:
        return semantic.astype(np.float64)
    return agreement_part_sem(functools.reduce(np.maximum, parts), semantic)


def part_wise_fuse(semantic: dict, parts: dict, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Part labels of part-wise fusion.

    ``semantic`` and ``parts`` map each semantic class and each part to
    its logits at the same pixels; ``parts`` is not empty.  Each part's
    logits are fused with its parent's semantic logits through
    agreement_part_sem, and the label is the per-pixel argmax of those
    enhanced part logits, ties broken by the lowest part id.  Every
    parent's semantic logits are cast to float64 and rescaled once and
    kept until its last part, and each part is fused and folded into a
    running argmax in part-id order.  Parts are labelled everywhere;
    consumers decide whether to suppress them on partless regions.  The
    input is not checked, as fuse checks it first.
    """
    order = [(part_id, taxonomy.parent_of(part_id)) for part_id in sorted(parts)]
    last_use = {parent: k for k, (_, parent) in enumerate(order)}
    parents = {}  # parent class -> (float64 logits, rescaled sigmoid)

    def channels():
        for k, (part_id, parent) in enumerate(order):
            if parent not in parents:
                sem = semantic[parent].astype(np.float64)
                parents[parent] = sem, sigmoid_rescaled(sem)
            sem, sem_rescaled = parents[parent]
            if last_use[parent] == k:
                del parents[parent]
            part = parts[part_id].astype(np.float64)
            # agreement_part_sem(part, sem), sharing the parent's term
            scores = sigmoid_rescaled(part)
            scores += sem_rescaled
            scores *= part + sem
            yield part_id, scores

    return _argmax(channels(), next(iter(parts.values())).shape)


def _read(tensor, rows: slice) -> np.ndarray:
    """``tensor[..., rows, :]``: a view of an in-memory array, or a new array
    read from a formats.read_tensor file."""
    if isinstance(tensor, np.ndarray):
        return tensor[..., rows, :]
    return tensor.read(rows)


def _finite(values: np.ndarray) -> bool:
    """Whether every value is finite: a NaN or an infinity is an extreme."""
    return values.size == 0 or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def _argmax(channels, shape, best=None) -> np.ndarray:
    """Per-pixel label of the maximum score over pixels of ``shape``.

    ``channels`` yields (label, scores) pairs in ascending label order.  A
    later channel takes a pixel only with a strictly greater score, so
    ties go to the lowest label, as with np.argmax's first maximum.
    Without channels every pixel has score -inf and label void.  ``best``,
    a float64 array of ``shape`` when given, receives the maximum scores.
    Labels are at least 1 and ascend, so a channel that wins a pixel holds
    a larger label than its current one, and ``max(winner, better *
    label)`` is the new winner.
    """
    winner = np.zeros(shape, dtype=LABEL_DTYPE)
    best = np.empty(shape) if best is None else best
    best.fill(-np.inf)
    better = np.empty(shape, dtype=bool)
    for label, scores in channels:
        np.greater(scores, best, out=better)
        np.maximum(best, scores, out=best)
        np.maximum(winner, better * LABEL_DTYPE(label), out=winner)
    return winner


def mask_threshold(dtype, threshold: float):
    """The scalar ``s`` with ``mask > s`` equal to ``mask.astype(np.float64) >
    threshold``: for float32 masks the largest float32 at most ``threshold``,
    which keeps the comparison in float32 on every NumPy version."""
    if dtype != np.float32:
        return np.float64(threshold)
    # a threshold beyond the float32 range rounds to +-inf, and one just
    # below -FLT_MAX steps from -FLT_MAX to -inf
    with np.errstate(over="ignore"):
        below = np.float32(threshold)
        if float(below) > threshold:
            below = np.nextafter(below, np.float32(-np.inf))
    return below


def panoptic_fuse(
    stack: LogitStack, taxonomy: ClassTaxonomy, proposals, params: FusionParams | None,
    enhance: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raveled semantic, instance and part maps of ``stack``'s frame
    and its own ``proposals``: enhanced by part-wise and semantic-wise
    fusion with ``enhance``, from the raw logits without.  fuse validates
    the stack; the proposals' classes are checked here first, and the
    logits and masks as they are read.

    Every mask is read whole, once, and checked for non-finite values, in
    descending confidence (ties by submission order).  Proposals below the
    confidence floor go no further; the rest are accepted greedily unless
    their thresholded footprint overlaps already-claimed pixels on at
    least ``overlap_discard_ratio`` of its own area, and overlapped pixels
    are removed from the later proposal.  The disjoint footprints are held
    in the instance map as acceptance indices.  Then each row tile of the
    logits is read and checked, and feeds the part argmax and the stuff
    argmax.  Each accepted instance competes on its own pixels in the
    tile with the stuff winner, scored by agreement_sem_inst of its mask
    logits and its class's semantic score: the higher score wins, ties to
    the lower class id, and the pixels it loses are cleared.  Instances
    left with fewer than ``min_instance_area`` pixels are removed, their
    pixels going to the stuff winner, and the rest are numbered in
    acceptance order.
    """
    # perfbench/spans.py binds ``proposals`` and ``params`` by name and reads
    # the instance map as ``result[1]``; each of its TARGETS (fuse, the three
    # fusion stages, LogitStack) must still be called on its fuse_eval run
    check_proposal_classes(proposals, taxonomy)
    params = params or FusionParams()
    h, w = stack.semantic_logits.shape[1:]
    inst_map = np.zeros(h * w, dtype=LABEL_DTYPE)
    accepted = _accept_proposals(proposals, params, inst_map)
    areas = np.zeros(len(accepted) + 1, dtype=np.int64)  # by acceptance index
    unscored = [None, *(a[1] for a in accepted)]  # mask logits of the pixels not yet scored
    # the parts whose evidence semantic-wise fusion folds into each class
    part_ids = {c: [p.id for p in taxonomy.parts_of(c) if enhance] for c in taxonomy.semantic_ids}
    stuff_ids = sorted(c for c in taxonomy.semantic_ids if not taxonomy.is_thing(c))
    sem_map = np.empty(h * w, dtype=LABEL_DTYPE)
    part_map = np.empty(h * w, dtype=LABEL_DTYPE)
    best = np.empty(tile_rows(w) * w)  # the stuff winner's score at each pixel of a tile
    for rows in row_tiles((h, w)):
        pixels = slice(rows.start * w, rows.stop * w)
        size = pixels.stop - pixels.start
        semantic = _tile(stack.semantic_logits, stack.semantic_channel_ids, rows, size)
        parts = _tile(stack.part_logits, stack.part_channel_ids, rows, size)
        if enhance:
            part_map[pixels] = part_wise_fuse(semantic, parts, taxonomy)
        else:
            part_map[pixels] = _argmax(sorted(parts.items()), size)
        stuff_scores = (
            (c, semantic_wise_fuse(semantic[c], [parts[p] for p in part_ids[c]])) for c in stuff_ids
        )
        stuff = _argmax(stuff_scores, size, best[:size])
        sem_map[pixels] = stuff
        claimed = inst_map[pixels]
        for k, (class_id, _, (first, last)) in enumerate(accepted, 1):
            if first >= pixels.stop or last < pixels.start:
                continue
            index = np.flatnonzero(claimed == k)
            logits, unscored[k] = unscored[k][: index.size], unscored[k][index.size :]
            scores = semantic_wise_fuse(
                semantic[class_id][index], [parts[p][index] for p in part_ids[class_id]]
            )
            fused = agreement_sem_inst(logits, scores)
            here = best[index]
            wins = (fused > here) | ((fused == here) & (class_id < stuff[index]))
            claimed[index[~wins]] = 0
            areas[k] += np.count_nonzero(wins)
        del semantic, parts  # one tile at a time: this one goes before the next is read

    kept = areas >= max(params.min_instance_area, 1)
    numbers = (np.cumsum(kept) * kept).astype(LABEL_DTYPE)
    classes = np.array([0, *(a[0] for a in accepted)], dtype=LABEL_DTYPE)
    for lo in range(0, h * w, TILE_PIXELS):
        won = inst_map[lo : lo + TILE_PIXELS]
        np.copyto(sem_map[lo : lo + TILE_PIXELS], classes[won], where=kept[won])
        won[...] = numbers[won]
    return sem_map, inst_map, part_map


def _tile(tensor, channel_ids, rows: slice, size: int) -> dict:
    """Each channel id's logits in row tile ``rows`` of ``tensor``, a row of
    ``size`` pixels; a non-finite value raises ValidationError."""
    values = _read(tensor, rows)
    if not _finite(values):
        raise ValidationError("logit tensor contains non-finite values")
    return dict(zip(channel_ids, values.reshape(len(channel_ids), size)))


def _accept_proposals(proposals, params: FusionParams, inst_map: np.ndarray) -> list:
    """(class id, mask logits at its surviving pixels, first and last of
    them) of each proposal that panoptic_fuse accepts, in acceptance
    order; the pixels take its acceptance index in ``inst_map``.  A frame
    that would accept more proposals than ``inst_map`` has ids raises
    ValidationError."""
    threshold = params.mask_logit_threshold
    order = sorted(range(len(proposals)), key=lambda i: (-proposals[i].confidence, i))
    above = np.empty(inst_map.size, dtype=bool)
    accepted = []
    for idx in order:
        prop = proposals[idx]
        mask = _read(prop.mask_logits, slice(None)).reshape(-1)
        if not _finite(mask):
            raise ValidationError("proposal mask logits contain non-finite values")
        if prop.confidence >= params.confidence_min:
            np.greater(mask, mask_threshold(mask.dtype, threshold), out=above)
            footprint = np.flatnonzero(above)
            taken = inst_map[footprint] != 0
            if footprint.size and (
                np.count_nonzero(taken) / footprint.size < params.overlap_discard_ratio
            ):
                if len(accepted) == MAX_ID:
                    raise ValidationError(f"a frame accepts at most {MAX_ID} instance proposals")
                surviving = footprint[~taken]
                accepted.append((prop.class_id, mask[surviving], surviving[[0, -1]]))
                inst_map[surviving] = len(accepted)
        del mask  # one mask at a time: this one goes before the next is read
    return accepted


def fuse(
    stack: LogitStack,
    taxonomy: ClassTaxonomy,
    params: FusionParams | None = None,
    strategy: str = "partpanoptic",
) -> LabelTriple:
    """Fuse one frame with ``strategy``: "partpanoptic" or a baseline.

    "partpanoptic": the part map comes from part-wise fusion, and the
    panoptic merge reads semantic channels enhanced by semantic-wise
    fusion.  The baselines bypass the enhancement: the panoptic merge
    reads the raw semantic logits and the part map is the raw per-pixel
    argmax of the part logits.  They differ on part/semantic conflicts
    (the part's parent differs from the pixel's semantic label): "none"
    keeps them, "consensus" sets semantic, instance and part to void, and
    "topdown" voids only the part label.

    A non-finite logit or mask value raises ValidationError, so nothing
    is returned for such a frame; the masks are checked before the logits.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    stack.validate(taxonomy)
    enhance = strategy == "partpanoptic"
    if enhance and not stack.part_channel_ids:
        raise ValidationError("part-wise fusion requires at least one part class")
    sem_map, inst_map, part_map = panoptic_fuse(
        stack, taxonomy, stack.instance_proposals, params, enhance
    )

    if strategy in ("consensus", "topdown"):
        parent_lut = np.zeros(max(taxonomy.part_ids, default=0) + 1, dtype=np.int64)
        for pid in taxonomy.part_ids:
            parent_lut[pid] = taxonomy.parent_of(pid)
        conflict = (part_map != 0) & (parent_lut[part_map] != sem_map)
        part_map[conflict] = 0
        if strategy == "consensus":
            sem_map[conflict] = 0
            inst_map[conflict] = 0
    h, w = stack.semantic_logits.shape[1:]
    return LabelTriple.from_arrays(*(m.reshape(h, w) for m in (sem_map, inst_map, part_map)))
