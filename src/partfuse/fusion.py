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
then every row tile of the logits once, one channel's row at a time:
the part rows, folded as they come, then the stuff rows, then the thing
rows.  A tile keeps only its parents' semantic rows and each class's
running maximum of its part rows.  A stack opened by formats.read_tensor
is read from its files; an in-memory stack is read as views, or copied
where a row is not one strided run.  Tiling changes no result.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .containers import (LABEL_DTYPE, TILE_PIXELS, LabelTriple, check_proposal_classes, read_rows,
                         row_tiles, tile_rows)
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


def part_wise_fuse(semantic: dict, parts, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Part labels of part-wise fusion.

    ``semantic`` maps each semantic class to its logits, and ``parts``
    yields (part id, logits) pairs at the same pixels in ascending part id
    order.  Each part's logits are fused with its parent's semantic logits
    through agreement_part_sem, and the label is the per-pixel argmax of
    those enhanced part logits, ties broken by the lowest part id.  Each
    part is fused and folded into a running argmax as it comes, and a
    parent's semantic logits are cast to float64 and rescaled once for
    each run of its parts.  Parts are labelled everywhere; consumers
    decide whether to suppress them on partless regions.  The input is
    not checked, as fuse checks it first.
    """

    def channels():
        parent = sem = sem_rescaled = None
        for part_id, logits in parts:
            if taxonomy.parent_of(part_id) != parent:
                parent = taxonomy.parent_of(part_id)
                sem = semantic[parent].astype(np.float64)
                sem_rescaled = sigmoid_rescaled(sem)
            part = logits.astype(np.float64)
            # agreement_part_sem(part, sem), sharing the parent's term
            scores = sigmoid_rescaled(part)
            scores += sem_rescaled
            scores *= part + sem
            yield part_id, scores

    return _argmax(channels(), next(iter(semantic.values())).shape)


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
    logits is read and checked channel by channel: the part rows feed the
    part argmax, the stuff rows the stuff argmax, and each accepted
    instance competes on its own pixels in the tile with the stuff winner,
    scored by agreement_sem_inst of its mask logits and its class's
    semantic score: the higher score wins, ties to the lower class id, and
    the pixels it loses are cleared.  Instances left with fewer than
    ``min_instance_area`` pixels are removed, their pixels going to the
    stuff winner, and the rest are numbered in acceptance order.
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
    channel_of = {c: i for i, c in enumerate(stack.semantic_channel_ids)}  # semantic channels
    part_order = sorted((p, i) for i, p in enumerate(stack.part_channel_ids))
    # the classes whose semantic rows part-wise fusion reads
    parents = sorted({taxonomy.parent_of(p) for p, _ in part_order}) if enhance else []
    stuff_ids = sorted(c for c in taxonomy.semantic_ids if not taxonomy.is_thing(c))
    thing_ids = sorted(c for c in taxonomy.semantic_ids if taxonomy.is_thing(c))
    instances = {c: [k for k, a in enumerate(accepted, 1) if a[0] == c] for c in thing_ids}
    sem_map = np.empty(h * w, dtype=LABEL_DTYPE)
    part_map = np.empty(h * w, dtype=LABEL_DTYPE)
    best = np.empty(tile_rows(w) * w)  # the stuff winner's score at each pixel of a tile
    for rows in row_tiles((h, w)):
        pixels = slice(rows.start * w, rows.stop * w)
        size = pixels.stop - pixels.start
        read = functools.partial(_channel, rows=rows, size=size)
        # the parents' semantic rows, each kept until its class is scored
        semantic = {c: read(stack.semantic_logits, channel_of[c]) for c in parents}
        part_max = {}  # by class: (the running maximum of its part rows,)

        def semantic_row(c):  # a parent's row, given up now, or a new one
            return semantic.pop(c) if c in semantic else read(stack.semantic_logits, channel_of[c])

        def part_rows():
            for part_id, index in part_order:
                row = read(stack.part_logits, index)
                if enhance:
                    c = taxonomy.parent_of(part_id)
                    part_max[c] = (np.maximum(part_max[c][0], row),) if c in part_max else (row,)
                yield part_id, row

        if enhance:
            part_map[pixels] = part_wise_fuse(semantic, part_rows(), taxonomy)
        else:
            part_map[pixels] = _argmax(part_rows(), size)
        stuff_scores = (
            (c, semantic_wise_fuse(semantic_row(c), part_max.pop(c, ()))) for c in stuff_ids
        )
        stuff = _argmax(stuff_scores, size, best[:size])
        sem_map[pixels] = stuff
        claimed = inst_map[pixels]
        for c in thing_ids:
            # read and checked even where no instance of the class lies
            sem, maximum = semantic_row(c), part_max.pop(c, ())
            for k in instances[c]:
                first, last = accepted[k - 1][2]
                if first >= pixels.stop or last < pixels.start:
                    continue
                index = np.flatnonzero(claimed == k)
                logits, unscored[k] = unscored[k][: index.size], unscored[k][index.size :]
                scores = semantic_wise_fuse(sem[index], [m[index] for m in maximum])
                fused = agreement_sem_inst(logits, scores)
                here = best[index]
                wins = (fused > here) | ((fused == here) & (c < stuff[index]))
                claimed[index[~wins]] = 0
                areas[k] += np.count_nonzero(wins)
            del sem, maximum  # each row goes before the next is read

    kept = areas >= max(params.min_instance_area, 1)
    numbers = (np.cumsum(kept) * kept).astype(LABEL_DTYPE)
    classes = np.array([0, *(a[0] for a in accepted)], dtype=LABEL_DTYPE)
    for lo in range(0, h * w, TILE_PIXELS):
        won = inst_map[lo : lo + TILE_PIXELS]
        np.copyto(sem_map[lo : lo + TILE_PIXELS], classes[won], where=kept[won])
        won[...] = numbers[won]
    return sem_map, inst_map, part_map


def _channel(tensor, index: int, rows: slice, size: int) -> np.ndarray:
    """Channel ``index``'s logits in row tile ``rows`` of ``tensor``, a row
    of ``size`` pixels; a non-finite value raises ValidationError."""
    values = read_rows(tensor, rows, index).reshape(size)
    if not _finite(values):
        raise ValidationError("logit tensor contains non-finite values")
    return values


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
        mask = read_rows(prop.mask_logits, slice(None)).reshape(-1)
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


def check_strategy(strategy: str, taxonomy: ClassTaxonomy) -> None:
    """Raise ValidationError for an unknown strategy, or for "partpanoptic"
    with a taxonomy without part classes.  fuse checks first, and the fuse
    command once, before any frame."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "partpanoptic" and not taxonomy.part_ids:
        raise ValidationError("part-wise fusion requires at least one part class")


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
    check_strategy(strategy, taxonomy)
    stack.validate(taxonomy)
    enhance = strategy == "partpanoptic"
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
