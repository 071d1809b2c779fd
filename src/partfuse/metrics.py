"""Panoptic Quality and part-aware Panoptic Quality.

Matching follows the standard panoptic protocol: prediction and ground
truth are split into (class, instance) segments, same-class pairs with
IoU strictly above 0.5 are true positives (the threshold makes the
matching unique), void ground-truth pixels are excluded from both
intersection and union, and unmatched predictions lying mostly on void
are discarded rather than counted as false positives.

PartPQ replaces each true positive's IoU with a part-aware score for
classes that have parts: the mean over the class's part ids of the part
map IoU restricted to the union of the two matched segments, skipping
part ids absent from both sides there, and falling back to the segment
IoU when every part id is absent.  This part-score rule is one concrete
reading of part-aware quality; it is documented in the README so results
can be compared like for like.

Both come from label histograms of the image pair, never from per-segment
pixel lists: segment areas, pairwise intersections and void overlaps from
the counts of (gt segment, pred segment) per pixel, and part overlaps
from the counts of (segment pair, gt part, pred part).

Scores aggregate over a dataset by pooling matched IoU sums and TP/FP/FN
counts before the final quotient, never by averaging per-image scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .containers import LabelTriple, PanopticSegment, derive_segments, segment_keys
from .errors import ValidationError
from .taxonomy import ClassTaxonomy

IOU_MATCH_THRESHOLD = 0.5
VOID_DISCARD_RATIO = 0.5


@dataclass(frozen=True)
class TruePositive:
    pred_key: int  # segment key: (class_id << 16) | instance_id
    gt_key: int
    iou: float
    part_score: float  # part-aware IoU for classes with parts, else == iou


@dataclass(frozen=True)
class ClassMatch:
    tp: tuple[TruePositive, ...] = ()
    fp: tuple[PanopticSegment, ...] = ()
    fn: tuple[PanopticSegment, ...] = ()


@dataclass(frozen=True)
class MatchResult:
    """Per-class matching outcome of one image pair."""

    per_class: dict[int, ClassMatch]
    gt_classes: frozenset[int]


@dataclass(frozen=True)
class ClassReport:
    pq: float | None  # None when the class is absent from ground truth
    part_pq: float | None
    tp: int
    fp: int
    fn: int
    present_in_gt: bool


@dataclass(frozen=True)
class MetricReport:
    """Per-class scores plus the aggregate over classes present in ground truth."""

    per_class: dict[int, ClassReport]
    mean_pq: float | None
    mean_part_pq: float | None


def match_segments(
    pred: LabelTriple, gt: LabelTriple, taxonomy: ClassTaxonomy
) -> MatchResult:
    """Match prediction segments against ground truth segments per class.

    One histogram of the per-pixel (gt key, pred key) pairs gives every
    intersection, including each prediction's overlap with void (gt key 0).
    """
    if pred.shape != gt.shape:
        raise ValidationError(
            f"prediction and ground truth differ in size: {pred.shape} vs {gt.shape}"
        )
    pred_keys, gt_keys = segment_keys(pred), segment_keys(gt)
    pred_by_key = {s.key: s for s in derive_segments(pred, taxonomy, pred_keys)}
    gt_by_key = {s.key: s for s in derive_segments(gt, taxonomy, gt_keys)}

    pixel_pairs = gt_keys.astype(np.uint64) << np.uint64(32)
    pixel_pairs |= pred_keys
    pairs, pair_counts = np.unique(pixel_pairs, return_counts=True)
    intersections = dict(zip(pairs.tolist(), pair_counts.tolist()))
    # a pair with gt key 0 (void) packs to the pred key alone
    void_overlap = {pk: intersections.get(pk, 0) for pk in pred_by_key}

    matched: list[tuple[int, int, float]] = []  # (gt key, pred key, iou)
    for combined, inter in intersections.items():
        gk = combined >> 32
        pk = combined & 0xFFFFFFFF
        if gk == 0 or pk == 0:
            continue
        if (gk >> 16) != (pk >> 16):  # different classes never match
            continue
        union = (
            gt_by_key[gk].pixel_count
            + pred_by_key[pk].pixel_count
            - inter
            - void_overlap[pk]
        )
        iou = inter / union
        if iou > IOU_MATCH_THRESHOLD:
            matched.append((gk, pk, iou))

    scores = part_iou(pred, gt, pixel_pairs, pairs, matched, taxonomy)
    tp_by_class: dict[int, list[TruePositive]] = {}
    for (gk, pk, iou), score in zip(matched, scores):
        tp_by_class.setdefault(gk >> 16, []).append(TruePositive(pk, gk, iou, score))
    matched_gt = {gk for gk, _, _ in matched}
    matched_pred = {pk for _, pk, _ in matched}

    fp_by_class: dict[int, list[PanopticSegment]] = {}
    for pk, seg in pred_by_key.items():
        if pk in matched_pred:
            continue
        if void_overlap[pk] / seg.pixel_count > VOID_DISCARD_RATIO:
            continue  # mostly on void ground truth: ignored, not a false positive
        fp_by_class.setdefault(seg.class_id, []).append(seg)

    fn_by_class: dict[int, list[PanopticSegment]] = {}
    for gk, seg in gt_by_key.items():
        if gk not in matched_gt:
            fn_by_class.setdefault(seg.class_id, []).append(seg)

    classes = set(tp_by_class) | set(fp_by_class) | set(fn_by_class)
    per_class = {
        c: ClassMatch(
            tp=tuple(tp_by_class.get(c, ())),
            fp=tuple(fp_by_class.get(c, ())),
            fn=tuple(fn_by_class.get(c, ())),
        )
        for c in sorted(classes)
    }
    return MatchResult(
        per_class=per_class,
        gt_classes=frozenset(s.class_id for s in gt_by_key.values()),
    )


def part_iou(
    pred: LabelTriple,
    gt: LabelTriple,
    pixel_pairs: np.ndarray,
    pairs: np.ndarray,
    matched: list[tuple[int, int, float]],
    taxonomy: ClassTaxonomy,
) -> list[float]:
    """Part-aware scores of the matched (gt key, pred key, segment IoU)
    triples of one image pair.

    ``pixel_pairs`` holds each pixel's ``(gt key << 32) | pred key`` and
    ``pairs`` its sorted distinct values.  For each match, over the union
    of the two segments' pixels, compute the part-map IoU for every part
    id of the segment class; average the ids whose union there is
    non-empty.  If every part id is absent on both sides, or the class
    has no parts, the score is the segment IoU.
    """
    if not any(taxonomy.parts_of(gk >> 16) for gk, _, _ in matched):
        return [iou for _, _, iou in matched]
    # one histogram of (pair index, gt part, pred part) over the pixels
    # where either side's class has parts: the only pixels a matched pair
    # of such a class can cover
    with_parts = [c for c in taxonomy.semantic_ids if taxonomy.parts_of(c)]
    where = np.isin(gt.semantic_map.ravel(), with_parts)
    where |= np.isin(pred.semantic_map.ravel(), with_parts)
    cells = np.searchsorted(pairs, pixel_pairs[where]).astype(np.uint64) << np.uint64(32)
    cells |= gt.part_map.ravel()[where].astype(np.uint64) << np.uint64(16)
    cells |= pred.part_map.ravel()[where]
    cells, counts = np.unique(cells, return_counts=True)
    cell_pairs = pairs[cells >> np.uint64(32)]
    cell_gk = cell_pairs >> np.uint64(32)
    cell_pk = cell_pairs & np.uint64(0xFFFFFFFF)
    cell_gt_part = (cells >> np.uint64(16)) & np.uint64(0xFFFF)
    cell_pred_part = cells & np.uint64(0xFFFF)

    scores = []
    for gk, pk, segment_iou in matched:
        region = (cell_gk == gk) | (cell_pk == pk)
        gt_parts = cell_gt_part[region]
        pred_parts = cell_pred_part[region]
        n = counts[region]
        ious = []
        for part in taxonomy.parts_of(gk >> 16):
            p = pred_parts == part.id
            g = gt_parts == part.id
            union = int(n[p | g].sum())
            if union == 0:
                continue
            ious.append(int(n[p & g].sum()) / union)
        scores.append(float(np.mean(ious)) if ious else segment_iou)
    return scores


def _quotient(iou_sum: float, tp: int, fp: int, fn: int) -> float:
    denom = tp + 0.5 * fp + 0.5 * fn
    return iou_sum / denom if denom > 0 else 0.0


def part_pq(
    pred: LabelTriple, gt: LabelTriple, taxonomy: ClassTaxonomy
) -> MetricReport:
    """Match one image pair and report PQ/PartPQ per class."""
    return aggregate_dataset([match_segments(pred, gt, taxonomy)], taxonomy)


def aggregate_dataset(
    matches: list[MatchResult], taxonomy: ClassTaxonomy
) -> MetricReport:
    """Pool match statistics over a dataset and compute the report.

    Classes never present in any ground truth are reported as absent
    (None) and excluded from the aggregate means.
    """
    if not matches:
        raise ValidationError("cannot aggregate an empty dataset")
    gt_present: set[int] = set()
    for m in matches:
        gt_present |= m.gt_classes

    per_class: dict[int, ClassReport] = {}
    pq_values: list[float] = []
    ppq_values: list[float] = []
    for cls in taxonomy.semantic_ids:
        found = [m.per_class[cls] for m in matches if cls in m.per_class]
        tps = [t for cm in found for t in cm.tp]
        tp = len(tps)
        fp = sum(len(cm.fp) for cm in found)
        fn = sum(len(cm.fn) for cm in found)
        # fsum rounds once, so the sums do not depend on the order of the
        # true positives, which follows the instance ids
        iou_sum = math.fsum(t.iou for t in tps)
        part_sum = math.fsum(t.part_score for t in tps)
        if cls in gt_present:
            cls_pq = _quotient(iou_sum, tp, fp, fn)
            cls_ppq = _quotient(part_sum, tp, fp, fn)
            pq_values.append(cls_pq)
            ppq_values.append(cls_ppq)
            per_class[cls] = ClassReport(cls_pq, cls_ppq, tp, fp, fn, True)
        else:
            per_class[cls] = ClassReport(None, None, tp, fp, fn, False)

    return MetricReport(
        per_class=per_class,
        mean_pq=float(np.mean(pq_values)) if pq_values else None,
        mean_part_pq=float(np.mean(ppq_values)) if ppq_values else None,
    )


def report_to_tsv(report: MetricReport, taxonomy: ClassTaxonomy) -> str:
    """Render a report as TSV: class, pq, part_pq, tp, fp, fn; '-' when absent."""
    lines = ["class\tpq\tpart_pq\ttp\tfp\tfn"]
    for cls in taxonomy.semantic_ids:
        row = report.per_class[cls]
        name = taxonomy.semantic_class(cls).name
        lines.append(
            f"{name}\t{_cell(row.pq)}\t{_cell(row.part_pq)}\t{row.tp}\t{row.fp}\t{row.fn}"
        )
    tp = sum(r.tp for r in report.per_class.values())
    fp = sum(r.fp for r in report.per_class.values())
    fn = sum(r.fn for r in report.per_class.values())
    lines.append(
        f"total\t{_cell(report.mean_pq)}\t{_cell(report.mean_part_pq)}\t{tp}\t{fp}\t{fn}"
    )
    return "\n".join(lines) + "\n"


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.9f}"


def render_table(
    rows: list[tuple[str, MetricReport]],
    taxonomy: ClassTaxonomy,
    percent: bool = False,
    metric: str = "part_pq",
    corner: str = "strategy",
) -> str:
    """Render reports as a text table: one row per label, one column per
    class plus a total column; '-' marks classes absent from ground truth."""
    if metric not in ("pq", "part_pq"):
        raise ValidationError(f"unknown metric {metric!r}")
    names = [taxonomy.semantic_class(c).name for c in taxonomy.semantic_ids]
    header = [corner] + names + ["total"]

    def fmt(value: float | None) -> str:
        if value is None:
            return "-"
        return f"{100.0 * value:.1f}" if percent else f"{value:.3f}"

    body: list[list[str]] = []
    for label, report in rows:
        cells = [label]
        for cls in taxonomy.semantic_ids:
            row = report.per_class[cls]
            cells.append(fmt(row.part_pq if metric == "part_pq" else row.pq))
        cells.append(fmt(report.mean_part_pq if metric == "part_pq" else report.mean_pq))
        body.append(cells)

    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for cells in body:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip())
    return "\n".join(out) + "\n"
