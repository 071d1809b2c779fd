"""Metric tests, including a brute-force oracle built from one boolean
mask per segment so the histogram-based matching path is checked
against independent arithmetic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfuse.metrics import (
    aggregate_dataset,
    match_segments,
    part_pq,
    render_table,
    report_to_tsv,
)
from partfuse.errors import ValidationError
from partfuse.taxonomy import validate_taxonomy

from conftest import (
    BAG,
    BOTTLE,
    CENTER,
    HOSPITAL_TAXONOMY,
    MEDICAL_BAG,
    OTHER,
    SEAL,
    TABLE,
    make_triple,
)


# ------------------------------------------------------------------ oracle


def oracle_segments(triple):
    """{(class, instance): boolean mask} of the non-void segments."""
    sem, inst = triple.semantic_map, triple.instance_map
    keys = {(int(s), int(i)) for s, i in zip(sem.ravel(), inst.ravel()) if s}
    return {(s, i): (sem == s) & (inst == i) for s, i in sorted(keys)}


def oracle_part_score(pred, gt, region, iou, class_id, taxonomy):
    """Mean part IoU over the pixels of ``region``, in taxonomy part order,
    skipping parts absent from both sides; the segment IoU when all are."""
    values = []
    for part in taxonomy.parts_of(class_id):
        p = region & (pred.part_map == part.id)
        g = region & (gt.part_map == part.id)
        union = int((p | g).sum())
        if union:
            values.append(int((p & g).sum()) / union)
    return float(np.mean(values)) if values else iou


def oracle_match(pred, gt, taxonomy):
    """All-pairs matching with per-segment boolean masks.

    Returns {class: [(pred key, gt key, iou, part score)]} for the true
    positives and {class: [key]} for the false positives and negatives;
    keys are (class, instance) tuples.
    """
    pseg = oracle_segments(pred)
    gseg = oracle_segments(gt)
    void = gt.semantic_map == 0
    tps = {}
    matched_p, matched_g = set(), set()
    for gk, g in gseg.items():
        for pk, p in pseg.items():
            if gk[0] != pk[0]:
                continue
            inter = int((g & p).sum())
            if inter == 0:
                continue
            iou = inter / int((g | (p & ~void)).sum())
            if iou > 0.5:
                assert gk not in matched_g and pk not in matched_p  # uniqueness
                matched_g.add(gk)
                matched_p.add(pk)
                score = oracle_part_score(pred, gt, g | p, iou, gk[0], taxonomy)
                tps.setdefault(gk[0], []).append((pk, gk, iou, score))
    fps = {}
    for pk, p in pseg.items():
        if pk not in matched_p and int((p & void).sum()) / int(p.sum()) <= 0.5:
            fps.setdefault(pk[0], []).append(pk)
    fns = {}
    for gk in gseg:
        if gk not in matched_g:
            fns.setdefault(gk[0], []).append(gk)
    return tps, fps, fns


def oracle_scores(pred, gt, taxonomy):
    """{class: (pq, part_pq, tp, fp, fn)} for classes with activity."""
    tps, fps, fns = oracle_match(pred, gt, taxonomy)
    out = {}
    for cls in set(tps) | set(fps) | set(fns):
        tp, fp, fn = len(tps.get(cls, [])), len(fps.get(cls, [])), len(fns.get(cls, []))
        denom = tp + 0.5 * fp + 0.5 * fn
        iou_sum = sum(t[2] for t in tps.get(cls, []))
        part_sum = sum(t[3] for t in tps.get(cls, []))
        out[cls] = (iou_sum / denom, part_sum / denom, tp, fp, fn)
    return out


def assert_report_matches_oracle(pred, gt, taxonomy):
    """PQ/PartPQ of one pair against the oracle.  A class that appears
    only as false positives is counted but not scored."""
    report = part_pq(pred, gt, taxonomy)
    want = oracle_scores(pred, gt, taxonomy)
    active = {c for c, row in report.per_class.items() if row.tp or row.fp or row.fn}
    assert active == set(want)
    for cls, (pq_value, ppq_value, tp, fp, fn) in want.items():
        row = report.per_class[cls]
        assert (row.tp, row.fp, row.fn) == (tp, fp, fn)
        if row.present_in_gt:
            assert row.pq == pytest.approx(pq_value, abs=1e-9)
            assert row.part_pq == pytest.approx(ppq_value, abs=1e-9)
        else:
            assert (row.pq, row.part_pq, tp, fn) == (None, None, 0, 0)


def random_triple(rng, shape=(16, 16), n_rects=5, base=None):
    """Random rectangles of random classes, painted over base's maps if
    given; every thing rectangle gets a new instance id."""
    sem = np.zeros(shape, dtype=np.uint16) if base is None else base.semantic_map.copy()
    inst = np.zeros(shape, dtype=np.uint16) if base is None else base.instance_map.copy()
    next_inst = int(inst.max()) + 1
    for _ in range(n_rects):
        r0 = int(rng.integers(0, shape[0] - 1))
        r1 = int(rng.integers(r0 + 1, shape[0] + 1))
        c0 = int(rng.integers(0, shape[1] - 1))
        c1 = int(rng.integers(c0 + 1, shape[1] + 1))
        cls = int(rng.choice([0, BAG, BOTTLE, MEDICAL_BAG, TABLE]))
        sem[r0:r1, c0:c1] = cls
        if cls in (BAG, BOTTLE, MEDICAL_BAG):
            inst[r0:r1, c0:c1] = next_inst
            next_inst += 1
        else:
            inst[r0:r1, c0:c1] = 0
    part = rng.choice([0, SEAL, CENTER, OTHER], size=shape).astype(np.uint16)
    part[sem == 0] = 0
    return make_triple(sem, inst, part)


# ------------------------------------------------------------------ tests


def test_identical_triples_all_tp(taxonomy):
    rng = np.random.default_rng(0)
    triple = random_triple(rng)
    match = match_segments(triple, triple, taxonomy)
    for cm in match.per_class.values():
        assert not cm.fp and not cm.fn
        for tp in cm.tp:
            assert tp.iou == 1.0
    report = aggregate_dataset([match], taxonomy)
    assert all(report.per_class[c].pq == 1.0 for c in match.per_class)
    assert report.mean_pq == 1.0


def test_partial_overlap_is_tp(taxonomy):
    sem_gt = np.zeros((10, 10), dtype=np.uint16)
    sem_gt[:6, :] = BAG  # 60 px
    sem_gt[6:, :] = TABLE  # the rest is labelled, not void
    inst_gt = (sem_gt == BAG).astype(np.uint16)
    sem_pr = np.zeros_like(sem_gt)
    sem_pr[1:6, :] = BAG  # 50 px inside the gt
    sem_pr[6, :] = BAG  # 10 px outside, on table: union = 70
    inst_pr = (sem_pr == BAG).astype(np.uint16)
    match = match_segments(
        make_triple(sem_pr, inst_pr), make_triple(sem_gt, inst_gt), taxonomy
    )
    cm = match.per_class[BAG]
    assert len(cm.tp) == 1 and not cm.fp and not cm.fn
    assert cm.tp[0].iou == pytest.approx(50 / 70, abs=1e-12)
    report = aggregate_dataset([match], taxonomy)
    assert report.per_class[BAG].pq == pytest.approx(50 / 70, abs=1e-12)


def test_exact_half_iou_is_not_a_match(taxonomy):
    sem_gt = np.zeros((10, 10), dtype=np.uint16)
    sem_gt[:6, :] = BAG  # 60 px
    inst_gt = (sem_gt == BAG).astype(np.uint16)
    sem_pr = np.zeros_like(sem_gt)
    sem_pr[:3, :] = BAG  # 30 px, all inside: iou = 30/60 = 0.5
    inst_pr = (sem_pr == BAG).astype(np.uint16)
    match = match_segments(
        make_triple(sem_pr, inst_pr), make_triple(sem_gt, inst_gt), taxonomy
    )
    cm = match.per_class[BAG]
    assert not cm.tp and len(cm.fp) == 1 and len(cm.fn) == 1
    assert aggregate_dataset([match], taxonomy).per_class[BAG].pq == 0.0


def test_pq_with_one_fn(taxonomy):
    # one matched pair at iou 0.8 plus one missed gt instance
    sem_gt = np.zeros((2, 60), dtype=np.uint16)
    sem_gt[0, :45] = BAG
    inst_gt = np.zeros_like(sem_gt)
    inst_gt[0, :45] = 1
    sem_gt[0, 45:50] = MEDICAL_BAG  # keeps the pred's tail off void
    inst_gt[0, 45:50] = 3
    sem_gt[1, :10] = BAG
    inst_gt[1, :10] = 2  # will be missed
    sem_pr = np.zeros_like(sem_gt)
    sem_pr[0, 5:50] = BAG
    inst_pr = np.zeros_like(sem_gt)
    inst_pr[0, 5:50] = 1  # inter 40, union 50 -> iou 0.8
    match = match_segments(
        make_triple(sem_pr, inst_pr), make_triple(sem_gt, inst_gt), taxonomy
    )
    report = aggregate_dataset([match], taxonomy)
    assert report.per_class[BAG].pq == pytest.approx(0.8 / 1.5, abs=1e-12)


def test_mostly_void_prediction_discarded(taxonomy):
    gt = make_triple(np.zeros((10, 10), dtype=np.uint16))  # all void
    sem_pr = np.zeros((10, 10), dtype=np.uint16)
    sem_pr[:3, :] = BAG
    inst_pr = (sem_pr == BAG).astype(np.uint16)
    match = match_segments(make_triple(sem_pr, inst_pr), gt, taxonomy)
    assert BAG not in match.per_class  # discarded entirely, not an FP


def test_dimension_mismatch_rejected(taxonomy):
    a = make_triple(np.zeros((4, 4), dtype=np.uint16))
    b = make_triple(np.zeros((4, 5), dtype=np.uint16))
    with pytest.raises(ValidationError, match="size"):
        match_segments(a, b, taxonomy)


def build_part_scene():
    """Matched bag pair: segment iou 0.8, part score 0.75.

    The ground truth labels the pred's 5-px tail as medical_bag so the
    tail stays in the segment union; table never appears in gt.
    """
    h, w = 2, 50
    sem_gt = np.zeros((h, w), dtype=np.uint16)
    sem_gt[0, :45] = BAG
    inst_gt = np.zeros_like(sem_gt)
    inst_gt[0, :45] = 1
    sem_gt[0, 45:50] = MEDICAL_BAG
    inst_gt[0, 45:50] = 2
    part_gt = np.zeros_like(sem_gt)
    part_gt[0, 0:10] = SEAL
    part_gt[0, 10:40] = CENTER

    sem_pr = np.zeros_like(sem_gt)
    sem_pr[0, 5:50] = BAG  # inter 40, union 45 + 45 - 40 = 50 -> iou 0.8
    inst_pr = np.zeros_like(sem_gt)
    inst_pr[0, 5:50] = 1
    part_pr = np.zeros_like(sem_gt)
    part_pr[0, 0:10] = SEAL  # iou 1.0
    part_pr[0, 20:50] = CENTER  # inter 20, union 40 -> 0.5
    return make_triple(sem_pr, inst_pr, part_pr), make_triple(sem_gt, inst_gt, part_gt)


def test_part_iou_identical_maps(taxonomy):
    pred, gt = build_part_scene()
    match = match_segments(gt, gt, taxonomy)
    assert match.per_class[BAG].tp[0].part_score == 1.0


def test_part_iou_mixed_parts(taxonomy):
    pred, gt = build_part_scene()
    match = match_segments(pred, gt, taxonomy)
    tp = match.per_class[BAG].tp[0]
    assert tp.iou == pytest.approx(0.8, abs=1e-12)
    assert tp.part_score == pytest.approx(0.75, abs=1e-12)


def test_part_iou_skips_empty_unions(taxonomy):
    h, w = 1, 60
    sem = np.zeros((h, w), dtype=np.uint16)
    sem[0, :] = BAG
    inst = np.ones_like(sem)
    part_gt = np.zeros_like(sem)
    part_gt[0, 0:40] = CENTER
    part_pr = np.zeros_like(sem)
    part_pr[0, 10:50] = CENTER  # inter 30, union 50 -> 0.6; seal/other absent
    pred = make_triple(sem, inst, part_pr)
    gt = make_triple(sem, inst, part_gt)
    match = match_segments(pred, gt, taxonomy)
    assert match.per_class[BAG].tp[0].part_score == pytest.approx(0.6, abs=1e-12)


def test_part_iou_full_fallback_to_segment_iou(taxonomy):
    sem = np.zeros((1, 10), dtype=np.uint16)
    sem[0, :] = BAG
    inst = np.ones_like(sem)
    pred = make_triple(sem, inst)  # no parts anywhere
    match = match_segments(pred, pred, taxonomy)
    tp = match.per_class[BAG].tp[0]
    assert tp.part_score == tp.iou


@pytest.mark.parametrize("neighbour_part", [SEAL, CENTER])
def test_part_score_counts_other_side_segment_pixels(taxonomy, neighbour_part):
    """Parts are scored over the union of the two matched segments, so
    the part labels of a neighbouring predicted segment that lie inside
    the ground-truth segment count.  Scoring each side within its own
    segment would give 0.9 for both neighbours."""
    sem_gt = np.full((1, 20), TABLE, dtype=np.uint16)
    sem_gt[0, :10] = BAG
    inst_gt = (sem_gt == BAG).astype(np.uint16)
    part_gt = np.zeros_like(sem_gt)
    part_gt[0, :5] = CENTER
    part_gt[0, 5:10] = SEAL

    sem_pr = np.full((1, 20), TABLE, dtype=np.uint16)
    sem_pr[0, :13] = BAG
    inst_pr = np.zeros_like(sem_pr)
    inst_pr[0, :9] = 1  # iou 9/10 with the gt bag
    inst_pr[0, 9:13] = 2  # the neighbour: one pixel inside the gt bag
    part_pr = np.zeros_like(sem_pr)
    part_pr[0, :5] = CENTER
    part_pr[0, 5:9] = SEAL
    part_pr[0, 9:13] = neighbour_part

    match = match_segments(
        make_triple(sem_pr, inst_pr, part_pr), make_triple(sem_gt, inst_gt, part_gt), taxonomy
    )
    (tp,) = match.per_class[BAG].tp
    assert (tp.pred_key, tp.gt_key, tp.iou) == ((BAG << 16) | 1, (BAG << 16) | 1, 0.9)
    assert len(match.per_class[BAG].fp) == 1
    # seal 5/5 and center 5/5; or seal 4/5 and center 5/6 (taxonomy order)
    want = 1.0 if neighbour_part == SEAL else float(np.mean([4 / 5, 5 / 6]))
    assert tp.part_score == want


def test_part_score_counts_gt_part_void_against_predicted_part(taxonomy):
    """Ground-truth part void under a predicted part is not ignored: it
    is that part's union without intersection."""
    sem = np.full((1, 10), BAG, dtype=np.uint16)
    inst = np.ones_like(sem)
    part_gt = np.zeros_like(sem)
    part_gt[0, :5] = CENTER  # the rest is part void
    part_pr = np.zeros_like(sem)
    part_pr[0, :5] = CENTER
    part_pr[0, 5:] = SEAL
    match = match_segments(make_triple(sem, inst, part_pr), make_triple(sem, inst, part_gt), taxonomy)
    (tp,) = match.per_class[BAG].tp
    assert tp.iou == 1.0
    assert tp.part_score == 0.5  # seal 0/5, center 5/5


def test_part_pq_single_tp(taxonomy):
    pred, gt = build_part_scene()
    report = part_pq(pred, gt, taxonomy)
    assert report.per_class[BAG].part_pq == pytest.approx(0.75, abs=1e-12)
    assert report.per_class[BAG].pq == pytest.approx(0.8, abs=1e-12)


def test_part_pq_collapses_to_pq_without_parts():
    tax = validate_taxonomy(
        {
            "semantic_classes": [
                {"id": 1, "name": "a", "is_thing": True},
                {"id": 4, "name": "floor", "is_thing": False},
            ]
        }
    )
    rng = np.random.default_rng(3)
    for _ in range(10):
        sem_p = rng.choice([0, 1, 4], size=(12, 12)).astype(np.uint16)
        sem_g = rng.choice([0, 1, 4], size=(12, 12)).astype(np.uint16)
        pred = make_triple(sem_p, (sem_p == 1).astype(np.uint16))
        gt = make_triple(sem_g, (sem_g == 1).astype(np.uint16))
        report = part_pq(pred, gt, tax)
        for row in report.per_class.values():
            assert row.pq == row.part_pq
        assert report.mean_pq == report.mean_part_pq


def test_absent_class_reported_as_none(taxonomy):
    # a scene without any table pixels in the ground truth
    pred, gt = build_part_scene()
    report = part_pq(pred, gt, taxonomy)
    assert report.per_class[TABLE].pq is None
    assert report.per_class[TABLE].part_pq is None
    assert not report.per_class[TABLE].present_in_gt
    # aggregate over classes present in gt: bag 0.75 and the missed
    # medical_bag at 0; table is excluded
    assert report.mean_part_pq == pytest.approx((0.75 + 0.0) / 2, abs=1e-12)
    tsv = report_to_tsv(report, taxonomy)
    table_row = [l for l in tsv.splitlines() if l.startswith("table")][0]
    assert table_row.split("\t")[1] == "-"


def test_aggregate_single_image_matches_per_image(taxonomy):
    pred, gt = build_part_scene()
    match = match_segments(pred, gt, taxonomy)
    single = aggregate_dataset([match], taxonomy)
    direct = part_pq(pred, gt, taxonomy)
    assert single == direct


def test_aggregate_pools_before_quotient(taxonomy):
    # pooled sums before the quotient: (1.0 + 0.8) / (2 + 0.5) = 0.72
    sem = np.zeros((4, 10), dtype=np.uint16)
    sem[0, :] = BAG
    sem[1:, :] = TABLE
    inst = np.zeros_like(sem)
    inst[0, :] = 1
    gt = make_triple(sem, inst)

    sem2 = np.zeros_like(sem)
    sem2[0, 2:] = BAG  # 8 of 10 gt px: iou 0.8
    sem2[2, :5] = BAG  # spurious instance on table -> fp
    inst2 = np.zeros_like(sem)
    inst2[0, 2:] = 1
    inst2[2, :5] = 2
    pred2 = make_triple(sem2, inst2)

    m1 = match_segments(gt, gt, taxonomy)  # bag iou 1.0, tp 1
    m2 = match_segments(pred2, gt, taxonomy)
    cm2 = m2.per_class[BAG]
    assert len(cm2.tp) == 1 and len(cm2.fp) == 1
    assert cm2.tp[0].iou == pytest.approx(0.8, abs=1e-12)
    report = aggregate_dataset([m1, m2], taxonomy)
    assert report.per_class[BAG].pq == pytest.approx(1.8 / 2.5, abs=1e-12)
    # pooling is not averaging per-image scores
    assert report.per_class[BAG].pq != pytest.approx((1.0 + 0.8 / 2) / 2, abs=1e-6)


def test_aggregate_duplicate_image_is_ratio_invariant(taxonomy):
    pred, gt = build_part_scene()
    match = match_segments(pred, gt, taxonomy)
    once = aggregate_dataset([match], taxonomy)
    twice = aggregate_dataset([match, match], taxonomy)
    assert once.per_class[BAG].pq == pytest.approx(
        twice.per_class[BAG].pq, abs=1e-12
    )
    assert once.mean_part_pq == pytest.approx(twice.mean_part_pq, abs=1e-12)


def test_aggregate_empty_dataset_rejected(taxonomy):
    with pytest.raises(ValidationError, match="empty"):
        aggregate_dataset([], taxonomy)


def test_matches_agree_with_oracle(taxonomy):
    rng = np.random.default_rng(42)
    for _ in range(100):
        assert_report_matches_oracle(random_triple(rng), random_triple(rng), taxonomy)


def test_match_segments_equals_mask_oracle(taxonomy):
    """Exactly the oracle's TP/FP/FN keys and bit-equal iou and part
    score, on tie-heavy pairs with void and stuff: half unrelated, half
    predictions painted over their ground truth."""
    rng = np.random.default_rng(6)
    with_parts = np.zeros(1 << 16, dtype=bool)
    with_parts[[c for c in taxonomy.semantic_ids if taxonomy.parts_of(c)]] = True
    # matched pairs with parts whose region holds pixels where the other
    # side is void or a class without parts: the part histogram must keep
    # exactly these pixels
    mixed_regions = 0

    def key(k):
        return (k >> 16, k & 0xFFFF)

    for i in range(200):
        gt = random_triple(rng, n_rects=8)
        pred = random_triple(rng, n_rects=3, base=gt) if i % 2 else random_triple(rng)
        tps, fps, fns = oracle_match(pred, gt, taxonomy)
        gseg, pseg = oracle_segments(gt), oracle_segments(pred)
        for cls, found in tps.items():
            if not taxonomy.parts_of(cls):
                continue
            for pk, gk, _, _ in found:
                other_side_partless = (gseg[gk] & ~with_parts[pred.semantic_map]) | (
                    pseg[pk] & ~with_parts[gt.semantic_map]
                )
                mixed_regions += bool(other_side_partless.any())
        match = match_segments(pred, gt, taxonomy)
        got_tps = {
            c: sorted((key(t.pred_key), key(t.gt_key), t.iou, t.part_score) for t in cm.tp)
            for c, cm in match.per_class.items()
            if cm.tp
        }
        got_fps = {
            c: [(s.class_id, s.instance_id) for s in cm.fp]
            for c, cm in match.per_class.items()
            if cm.fp
        }
        got_fns = {
            c: [(s.class_id, s.instance_id) for s in cm.fn]
            for c, cm in match.per_class.items()
            if cm.fn
        }
        assert got_tps == {c: sorted(v) for c, v in tps.items()}
        assert got_fps == fps
        assert got_fns == fns
    assert mixed_regions > 0


def test_match_result_keeps_no_pixel_arrays(taxonomy):
    # a 512x1024 pair: the result holds counts and scores, not pixels
    rng = np.random.default_rng(11)
    gt = random_triple(rng, shape=(512, 1024), n_rects=40)
    pred = random_triple(rng, shape=(512, 1024), n_rects=10, base=gt)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        match = match_segments(pred, gt, taxonomy)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert any(cm.tp for cm in match.per_class.values())
    assert held < 256 * 1024


def relabelled(triple, rng):
    """The triple with its instance ids renamed by a random injection into
    1..65535; each instance keeps its pixels and its class."""
    ids = np.unique(triple.instance_map[triple.instance_map != 0])
    lut = np.zeros(1 << 16, dtype=np.uint16)
    lut[ids] = rng.choice(np.arange(1, 1 << 16), size=ids.size, replace=False)
    return make_triple(triple.semantic_map, lut[triple.instance_map], triple.part_map)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 3))
def test_instance_relabelling_changes_nothing(seed, pairs):
    # prediction and ground truth are relabelled independently, over a
    # dataset of several pairs whose predictions overlap the truth
    taxonomy = validate_taxonomy(HOSPITAL_TAXONOMY)
    rng = np.random.default_rng(seed)
    original, renamed = [], []
    for _ in range(pairs):
        gt = random_triple(rng, n_rects=8)
        pred = random_triple(rng, n_rects=3, base=gt)
        original.append(match_segments(pred, gt, taxonomy))
        renamed.append(match_segments(relabelled(pred, rng), relabelled(gt, rng), taxonomy))
    assert aggregate_dataset(renamed, taxonomy) == aggregate_dataset(original, taxonomy)


def test_render_table_shapes(taxonomy):
    pred, gt = build_part_scene()
    report = part_pq(pred, gt, taxonomy)
    text = render_table([("M_P", report)], taxonomy, percent=True)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["strategy", "transfusion_bag"]
    assert "75.0" in lines[1]
    assert "-" in lines[1]  # absent classes rendered as dashes
    ratio = render_table([("M_P", report)], taxonomy, percent=False)
    assert "0.750" in ratio.splitlines()[1]
