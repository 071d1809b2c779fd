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

A frame is fused in one pass over row tiles, which reads every logit
and mask value once.  The proposal masks are read whole first, checked
and thresholded one at a time in confidence order.  Then each tile of
every semantic and part channel is read once into a tile stack and
checked for non-finite values; it feeds the part argmax and the stuff
argmax, and the accepted instances are scored on their footprint pixels
in that tile, against the tile's stuff winner.  The logits of a stack
opened by formats.read_tensor are read from its files; those of an
in-memory stack are taken as views.  The arithmetic is per pixel, so
tiling changes no result.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .containers import LABEL_DTYPE, LabelTriple, row_tiles, tile_rows
from .errors import ValidationError
from .params import STRATEGIES, FusionParams
from .taxonomy import ClassTaxonomy

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


def semantic_wise_fuse(
    stack: LogitStack, taxonomy: ClassTaxonomy, channel: int, index
) -> np.ndarray:
    """Semantic channel ``channel`` enhanced with its parts' evidence.

    ``index`` selects pixels of the raveled H*W in-memory stack (a tile
    stack): a slice, or an integer array (an instance's footprint).  For a
    class with parts, the part logits are flattened by a per-pixel maximum
    over the class's part channels and fused with the semantic logits
    through agreement_part_sem.  A class without parts passes through,
    cast to float64.  The input is not checked: fuse validates the stack
    and finds non-finite values before it calls this.
    """
    semantic = _pixels(stack.semantic_logits, channel, index)
    parts = taxonomy.parts_of(stack.semantic_channel_ids[channel])
    if not parts:
        return semantic.astype(np.float64)
    flat = functools.reduce(
        np.maximum,
        (_pixels(stack.part_logits, stack.part_channel(p.id), index) for p in parts),
    )
    return agreement_part_sem(flat, semantic)


def part_wise_fuse(stack: LogitStack, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Part labels of part-wise fusion on a raveled H*W in-memory stack (a
    tile stack).

    Each part channel is fused with its parent's semantic channel through
    agreement_part_sem, and the label is the per-pixel argmax of those
    enhanced part logits, ties broken by the lowest part id.  Every
    parent's semantic logits are cast to float64 and rescaled once and
    kept until its last part, and each part channel is fused and folded
    into a running argmax in part-id order.  Parts are labelled
    everywhere; consumers decide whether to suppress them on partless
    regions.  The input is not checked: fuse validates the stack and
    finds non-finite values before it calls this.
    """
    h, w = stack.part_logits.shape[1:]
    order = [
        (part_id, channel, stack.semantic_channel(taxonomy.parent_of(part_id)))
        for part_id, channel in _id_order(stack.part_channel_ids)
    ]
    last_use = {parent: k for k, (_, _, parent) in enumerate(order)}
    parents = {}  # parent channel -> (float64 logits, rescaled sigmoid)

    def channels():
        for k, (part_id, channel, parent) in enumerate(order):
            if parent not in parents:
                sem = _pixels(stack.semantic_logits, parent).astype(np.float64)
                parents[parent] = sem, sigmoid_rescaled(sem)
            sem, sem_rescaled = parents[parent]
            if last_use[parent] == k:
                del parents[parent]
            part = _pixels(stack.part_logits, channel).astype(np.float64)
            # agreement_part_sem(part, sem), sharing the parent's term
            scores = sigmoid_rescaled(part)
            scores += sem_rescaled
            scores *= part + sem
            yield part_id, scores

    return _argmax(channels(), h * w)


def _id_order(channel_ids) -> list[tuple[int, int]]:
    """(id, channel index) pairs in ascending id order."""
    return sorted(zip(channel_ids, range(len(channel_ids))))


def _read(tensor, rows: slice) -> np.ndarray:
    """``tensor[..., rows, :]``: a view of an in-memory array, or a new array
    read from a formats.read_tensor file."""
    if isinstance(tensor, np.ndarray):
        return tensor[..., rows, :]
    return tensor.read(rows)


def _pixels(tensor: np.ndarray, channel: int, index=slice(None)) -> np.ndarray:
    """``tensor[channel]`` of an in-memory tensor at ``index`` of its raveled
    pixels: a slice or an integer array."""
    return tensor[channel].reshape(-1)[index]


def _argmax(channels, size: int, best=None) -> np.ndarray:
    """Per-pixel label of the maximum score over ``size`` pixels.

    ``channels`` yields (label, scores) pairs in ascending label order.  A
    later channel takes a pixel only with a strictly greater score, so
    ties go to the lowest label, as with np.argmax's first maximum.
    Without channels every pixel has score -inf and label void.  ``best``,
    a float64 array of ``size`` when given, receives the maximum scores.
    Labels are at least 1 and ascend, so a channel that wins a pixel holds
    a larger label than its current one, and ``max(winner, better *
    label)`` is the new winner.
    """
    winner = np.zeros(size, dtype=LABEL_DTYPE)
    best = np.empty(size) if best is None else best
    best.fill(-np.inf)
    better = np.empty(size, dtype=bool)
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
    tiles, proposals, params: FusionParams | None, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge instance proposals into the stuff argmax: raveled semantic and
    instance maps of a frame of ``size`` pixels.

    ``tiles`` yields ``(pixels, stuff, best, scores)`` for each row tile,
    top to bottom: the tile's slice of the raveled frame, the winning
    stuff class and its score at each pixel of the tile, and
    ``scores(class_id, index)``, a thing class's float64 semantic scores
    at an integer array of the tile's pixels.  Only the masks are checked
    here: fuse validates the stack, and its tiles find non-finite logits.

    Every proposal's mask is read whole, once, and checked for non-finite
    values, in descending confidence (ties by submission order), before
    the first tile is taken; only the accepted footprints' mask logits are
    kept.  Proposals below the confidence floor go no further; the rest
    are accepted greedily unless their thresholded footprint overlaps
    already-claimed pixels on at least ``overlap_discard_ratio`` of its
    own area.  Overlapped pixels are removed from the later proposal, and
    an accepted instance keeps only its surviving pixels and its mask
    logits there.  Each accepted instance then competes per pixel with
    the stuff-class logits via agreement_sem_inst between its mask logits
    and its class's semantic score; the winner is the highest score, ties
    to the lowest class id then lowest instance id.  Instances that end up
    with fewer than ``min_instance_area`` pixels are removed and their
    pixels go to the stuff winner.  Accepted footprints are disjoint, so
    each instance is scored on its own footprint pixels in each tile
    against the tile's stuff argmax alone, and the area filter and the
    numbering run once, after the last tile.
    """
    params = params or FusionParams()
    accepted = [
        (class_id, footprint, logits, int(footprint[0]), int(footprint[-1]), [])
        for class_id, footprint, logits in _accept_proposals(proposals, size, params)
    ]
    sem_map = np.empty(size, dtype=LABEL_DTYPE)
    for pixels, stuff, best, scores in tiles:
        sem_map[pixels] = stuff
        start, stop = pixels.start, pixels.stop
        for class_id, footprint, logits, first, last, won in accepted:
            if first >= stop or last < start:
                continue
            lo, hi = np.searchsorted(footprint, (start, stop))
            index = footprint[lo:hi] - start
            fused = agreement_sem_inst(logits[lo:hi], scores(class_id, index))
            here = best[index]
            wins = (fused > here) | ((fused == here) & (class_id < stuff[index]))
            won.append(index[wins] + start)

    inst_map = np.zeros(size, dtype=LABEL_DTYPE)
    instance_id = 0
    for class_id, *_, won in accepted:
        if sum(chunk.size for chunk in won) < max(params.min_instance_area, 1):
            continue
        instance_id += 1
        for chunk in won:
            sem_map[chunk] = class_id
            inst_map[chunk] = instance_id
    return sem_map, inst_map


def _accept_proposals(proposals, size: int, params: FusionParams) -> list:
    """(class id, surviving pixels, mask logits there) of each proposal that
    panoptic_fuse accepts, in acceptance order; see there."""
    threshold = params.mask_logit_threshold
    order = sorted(range(len(proposals)), key=lambda i: (-proposals[i].confidence, i))
    occupancy = np.zeros(size, dtype=bool)
    accepted = []
    for idx in order:
        prop = proposals[idx]
        mask = _read(prop.mask_logits, slice(None)).reshape(-1)
        if not np.isfinite(mask).all():
            raise ValidationError("proposal mask logits contain non-finite values")
        if prop.confidence >= params.confidence_min:
            footprint = np.flatnonzero(mask > mask_threshold(mask.dtype, threshold))
            taken = occupancy[footprint]
            if footprint.size and (
                np.count_nonzero(taken) / footprint.size < params.overlap_discard_ratio
            ):
                surviving = footprint[~taken]
                occupancy[surviving] = True
                accepted.append((prop.class_id, surviving, mask[surviving]))
    return accepted


def _tile_pass(stack: LogitStack, taxonomy: ClassTaxonomy, enhance: bool, part_map):
    """The ``(pixels, stuff, best, scores)`` of each row tile, for
    panoptic_fuse, from one pass that reads every logit once.

    Each tile of the logits is read into a tile stack and checked for
    non-finite values.  It then feeds the part argmax (part-wise fusion
    with ``enhance``, the raw part logits without), written into the
    raveled ``part_map``, and the stuff argmax of the semantic scores
    (enhanced by semantic-wise fusion with ``enhance``, raw without).
    ``scores`` gives a thing class's scores from the same tile stack.
    One ``best`` buffer serves every tile.
    """
    h, w = stack.semantic_logits.shape[1:]
    part_order = _id_order(stack.part_channel_ids)
    stuff = sorted(
        c for c in stack.semantic_channel_ids
        if taxonomy.has_semantic(c) and not taxonomy.is_thing(c)
    )
    best = np.empty(tile_rows(w) * w)
    for rows in row_tiles((h, w)):
        tile = replace(
            stack,
            semantic_logits=_read(stack.semantic_logits, rows),
            part_logits=_read(stack.part_logits, rows),
            instance_proposals=(),
        )
        for tensor in (tile.semantic_logits, tile.part_logits):
            if not np.isfinite(tensor).all():
                raise ValidationError("logit tensor contains non-finite values")
        pixels = slice(rows.start * w, rows.stop * w)
        size = pixels.stop - pixels.start
        if enhance:
            part_map[pixels] = part_wise_fuse(tile, taxonomy)
        else:
            part_map[pixels] = _argmax(
                ((part_id, _pixels(tile.part_logits, channel)) for part_id, channel in part_order),
                size,
            )

        def scores(class_id: int, index, tile=tile) -> np.ndarray:
            channel = tile.semantic_channel(class_id)
            if enhance:
                return semantic_wise_fuse(tile, taxonomy, channel, index)
            return _pixels(tile.semantic_logits, channel, index).astype(np.float64)

        stuff_map = _argmax(((c, scores(c, slice(None))) for c in stuff), size, best[:size])
        yield pixels, stuff_map, best[:size], scores


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

    Every logit and mask value is read once (see the module docstring),
    and a non-finite one raises ValidationError, so nothing is returned
    for such a frame; the masks are read, and so checked, before the
    logits.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    stack.validate(taxonomy)
    enhance = strategy == "partpanoptic"
    if enhance and not stack.part_channel_ids:
        raise ValidationError("part-wise fusion requires at least one part class")
    h, w = stack.semantic_logits.shape[1:]
    part_map = np.empty(h * w, dtype=LABEL_DTYPE)
    sem_map, inst_map = panoptic_fuse(
        _tile_pass(stack, taxonomy, enhance, part_map), stack.instance_proposals, params, h * w
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
    return LabelTriple.from_arrays(*(m.reshape(h, w) for m in (sem_map, inst_map, part_map)))
