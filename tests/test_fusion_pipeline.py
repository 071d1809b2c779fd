from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfuse import containers
from partfuse.containers import InstanceProposal, LogitStack
from partfuse.errors import ValidationError
from partfuse.formats import TensorFile, read_tensor
from partfuse.fusion import (
    STRATEGIES,
    FusionParams,
    agreement_part_sem,
    agreement_sem_inst,
    check_strategy,
    fuse,
    panoptic_fuse,
    part_wise_fuse,
    semantic_wise_fuse,
    tile_rows,
)
from partfuse.taxonomy import MAX_ID, validate_taxonomy

from conftest import BAG, BOTTLE, CENTER, SEAL, TABLE
from scenes import write_tensor

APS_3_2 = 8.333712048003157
APS_2_2 = 6.092753247646117
APS_1_3 = 5.469061643619506
APS_1_M3 = 0.8860621927697132


def two_class_taxonomy():
    return validate_taxonomy(
        {
            "semantic_classes": [
                {"id": 1, "name": "obj", "is_thing": True},
                {"id": 2, "name": "floor", "is_thing": False},
            ],
            "part_classes": [
                {"id": 5, "name": "obj_top", "parent_semantic_id": 1},
                {"id": 6, "name": "obj_body", "parent_semantic_id": 1},
            ],
        }
    )


def make_stack(sem, part, sem_ids, part_ids, proposals=()):
    return LogitStack(
        semantic_logits=np.asarray(sem, dtype=np.float64),
        part_logits=np.asarray(part, dtype=np.float64),
        semantic_channel_ids=tuple(sem_ids),
        part_channel_ids=tuple(part_ids),
        instance_proposals=tuple(proposals),
    )


def enhanced_semantic(stack, taxonomy):
    """Every semantic channel enhanced over the whole frame, [C, H, W]."""
    parts = dict(zip(stack.part_channel_ids, stack.part_logits))
    return np.stack(
        [
            semantic_wise_fuse(sem, [parts[p.id] for p in taxonomy.parts_of(class_id)])
            for class_id, sem in zip(stack.semantic_channel_ids, stack.semantic_logits)
        ]
    )


def part_map_of(stack, taxonomy):
    """Part-wise fusion's part map over the whole frame."""
    return part_wise_fuse(
        dict(zip(stack.semantic_channel_ids, stack.semantic_logits)),
        sorted(zip(stack.part_channel_ids, stack.part_logits), key=lambda pair: pair[0]),
        taxonomy,
    )


def merge(semantic, channel_ids, proposals, taxonomy, params=None):
    """Semantic and instance maps of the panoptic merge of ``semantic``
    (read as given) with ``proposals``."""
    h, w = semantic.shape[1:]
    stack = make_stack(semantic, np.zeros((0, h, w)), channel_ids, (), proposals)
    triple = fuse(stack, taxonomy, params, "none")
    return triple.semantic_map, triple.instance_map


def test_semantic_wise_max_then_agreement():
    tax = two_class_taxonomy()
    h = w = 2
    sem = np.zeros((2, h, w))
    sem[0] = 2.0  # obj channel
    sem[1] = -1.7  # floor channel (no parts)
    part = np.zeros((2, h, w))
    part[0] = 1.0  # obj_top
    part[1] = 3.0  # obj_body
    stack = make_stack(sem, part, (1, 2), (5, 6))
    enhanced = enhanced_semantic(stack, tax)
    assert np.allclose(enhanced[0], APS_3_2, atol=1e-12)  # max(1, 3) fused with 2
    assert np.array_equal(enhanced[1], sem[1])  # partless class passes through


def test_semantic_wise_single_part_is_identity_of_max():
    tax = validate_taxonomy(
        {
            "semantic_classes": [{"id": 1, "name": "obj", "is_thing": True}],
            "part_classes": [{"id": 5, "name": "p", "parent_semantic_id": 1}],
        }
    )
    sem = np.full((1, 3, 3), 2.0)
    part = np.full((1, 3, 3), 2.0)
    stack = make_stack(sem, part, (1,), (5,))
    enhanced = enhanced_semantic(stack, tax)
    assert np.allclose(enhanced[0], APS_2_2, atol=1e-12)


def test_semantic_wise_invariant_under_part_channel_permutation():
    tax = two_class_taxonomy()
    rng = np.random.default_rng(2)
    sem = rng.normal(size=(2, 4, 4))
    part = rng.normal(size=(2, 4, 4))
    direct = enhanced_semantic(make_stack(sem, part, (1, 2), (5, 6)), tax)
    swapped = enhanced_semantic(
        make_stack(sem, part[::-1].copy(), (1, 2), (6, 5)), tax
    )
    assert np.array_equal(direct, swapped)


def test_semantic_wise_footprint_reads_match_tile_reads():
    # a footprint's pixels (an integer index) and the whole raveled tile
    # must give the same enhanced values, bit for bit
    tax = two_class_taxonomy()
    rng = np.random.default_rng(8)
    semantic = dict(zip((1, 2), rng.normal(size=(2, 35))))
    parts = dict(zip((5, 6), rng.normal(size=(2, 35))))
    pixels = np.array([0, 3, 8, 9, 20, 34])
    for class_id in (1, 2):
        part_ids = [p.id for p in tax.parts_of(class_id)]
        tile = semantic_wise_fuse(semantic[class_id], [parts[p] for p in part_ids])
        assert tile.dtype == np.float64
        footprint = semantic_wise_fuse(
            semantic[class_id][pixels], [parts[p][pixels] for p in part_ids]
        )
        assert np.array_equal(footprint, tile[pixels])


def test_part_wise_single_part_everywhere():
    tax = validate_taxonomy(
        {
            "semantic_classes": [{"id": 1, "name": "obj", "is_thing": True}],
            "part_classes": [{"id": 5, "name": "p", "parent_semantic_id": 1}],
        }
    )
    rng = np.random.default_rng(3)
    stack = make_stack(
        rng.normal(size=(1, 4, 4)), rng.normal(size=(1, 4, 4)), (1,), (5,)
    )
    part_map = part_map_of(stack, tax)
    assert (part_map == 5).all()


def test_part_wise_tie_goes_to_lower_part_id():
    tax = two_class_taxonomy()
    sem = np.zeros((2, 1, 1))
    sem[0] = 1.0
    part = np.full((2, 1, 1), 2.0)  # equal logits, same parent -> tie
    stack = make_stack(sem, part, (1, 2), (5, 6))
    part_map = part_map_of(stack, tax)
    assert part_map[0, 0] == 5


def test_part_wise_parent_semantics_break_tie():
    # equal part logits under different parents: the parent's semantic
    # logit decides through the agreement function
    tax = validate_taxonomy(
        {
            "semantic_classes": [
                {"id": 1, "name": "s1", "is_thing": True},
                {"id": 2, "name": "s2", "is_thing": True},
            ],
            "part_classes": [
                {"id": 5, "name": "p1", "parent_semantic_id": 1},
                {"id": 6, "name": "p2", "parent_semantic_id": 2},
            ],
        }
    )
    sem = np.zeros((2, 1, 1))
    sem[0] = 3.0
    sem[1] = -3.0
    part = np.ones((2, 1, 1))
    # the enhanced part logits: APS_1_3 for part 5, APS_1_M3 for part 6
    assert agreement_part_sem(1.0, 3.0) == pytest.approx(APS_1_3, abs=1e-12)
    assert agreement_part_sem(1.0, -3.0) == pytest.approx(APS_1_M3, abs=1e-12)
    assert part_map_of(make_stack(sem, part, (1, 2), (5, 6)), tax)[0, 0] == 5
    assert part_map_of(make_stack(sem[::-1].copy(), part, (1, 2), (5, 6)), tax)[0, 0] == 6


def test_part_wise_requires_parts():
    tax = validate_taxonomy(
        {"semantic_classes": [{"id": 1, "name": "obj", "is_thing": True}]}
    )
    stack = make_stack(np.zeros((1, 2, 2)), np.zeros((0, 2, 2)), (1,), ())
    with pytest.raises(ValidationError, match="part"):
        fuse(stack, tax)


def stuff_only_taxonomy():
    return validate_taxonomy(
        {
            "semantic_classes": [
                {"id": 3, "name": "wall", "is_thing": False},
                {"id": 7, "name": "floor", "is_thing": False},
            ]
        }
    )


def test_panoptic_fuse_pure_stuff_argmax():
    tax = stuff_only_taxonomy()
    rng = np.random.default_rng(4)
    enhanced = rng.normal(size=(2, 6, 6))
    sem_map, inst_map = merge(enhanced, (3, 7), (), tax)
    expected = np.where(enhanced[0] >= enhanced[1], 3, 7)
    assert np.array_equal(sem_map, expected)
    assert (inst_map == 0).all()


def test_panoptic_fuse_all_zero_ties_to_lowest_class():
    tax = stuff_only_taxonomy()
    enhanced = np.zeros((2, 3, 3))
    sem_map, _ = merge(enhanced, (7, 3), (), tax)
    assert (sem_map == 3).all()


def thing_stuff_taxonomy():
    return validate_taxonomy(
        {
            "semantic_classes": [
                {"id": 1, "name": "obj", "is_thing": True},
                {"id": 4, "name": "floor", "is_thing": False},
            ]
        }
    )


def footprint_proposal(class_id, confidence, shape, region, logit=4.0):
    mask = np.full(shape, -10.0)
    mask[region] = logit
    return InstanceProposal(class_id=class_id, confidence=confidence, mask_logits=mask)


def test_panoptic_fuse_instance_beats_weak_stuff():
    tax = thing_stuff_taxonomy()
    h = w = 16
    enhanced = np.zeros((2, h, w))
    enhanced[0] = 4.0  # obj channel agrees with the proposal
    enhanced[1] = 0.0  # floor
    region = (slice(0, 8), slice(0, 8))  # 64 px footprint
    prop = footprint_proposal(1, 0.9, (h, w), region)
    sem_map, inst_map = merge(enhanced, (1, 4), (prop,), tax)
    fused = agreement_sem_inst(4.0, 4.0)
    assert fused > 0.0  # sanity: 15.712 > floor logit 0
    assert (sem_map[region] == 1).all()
    assert (inst_map[region] == 1).all()
    outside = np.ones((h, w), dtype=bool)
    outside[region] = False
    assert (sem_map[outside] == 4).all()
    assert (inst_map[outside] == 0).all()


def test_panoptic_fuse_duplicate_proposals_keep_one():
    tax = thing_stuff_taxonomy()
    h = w = 16
    enhanced = np.zeros((2, h, w))
    enhanced[0] = 4.0
    region = (slice(0, 8), slice(0, 8))
    props = (
        footprint_proposal(1, 0.9, (h, w), region),
        footprint_proposal(1, 0.8, (h, w), region),
    )
    sem_map, inst_map = merge(enhanced, (1, 4), props, tax)
    assert set(np.unique(inst_map)) == {0, 1}


def test_panoptic_fuse_confidence_floor():
    tax = thing_stuff_taxonomy()
    enhanced = np.zeros((2, 8, 8))
    enhanced[0] = 4.0
    prop = footprint_proposal(1, 0.4, (8, 8), (slice(0, 8), slice(0, 8)))
    _, inst_map = merge(
        enhanced, (1, 4), (prop,), tax, FusionParams(min_instance_area=1)
    )
    assert (inst_map == 0).all()


def test_panoptic_fuse_partial_overlap_keeps_disjoint_pixels():
    tax = thing_stuff_taxonomy()
    h = w = 16
    enhanced = np.zeros((2, h, w))
    enhanced[0] = 4.0
    first = footprint_proposal(1, 0.9, (h, w), (slice(0, 8), slice(0, 8)))
    # second overlaps 32 of its own 64 px -> exactly the discard ratio
    second_discard = footprint_proposal(1, 0.8, (h, w), (slice(4, 12), slice(0, 8)))
    # third overlaps 16 of 64 px -> kept, overlap removed
    third_keep = footprint_proposal(1, 0.7, (h, w), (slice(6, 14), slice(0, 8)))
    params = FusionParams(min_instance_area=1)
    _, inst_a = merge(enhanced, (1, 4), (first, second_discard), tax, params)
    assert set(np.unique(inst_a)) == {0, 1}
    _, inst_b = merge(enhanced, (1, 4), (first, third_keep), tax, params)
    assert set(np.unique(inst_b)) == {0, 1, 2}
    assert (inst_b[:8, :8] == 1).all()
    assert (inst_b[8:14, :8] == 2).all()


def test_panoptic_fuse_small_instances_relabelled():
    tax = thing_stuff_taxonomy()
    h = w = 16
    enhanced = np.zeros((2, h, w))
    enhanced[0] = 4.0
    big = footprint_proposal(1, 0.9, (h, w), (slice(0, 8), slice(0, 16)))
    small = footprint_proposal(1, 0.8, (h, w), (slice(12, 14), slice(0, 2)))  # 4 px
    sem_map, inst_map = merge(
        enhanced, (1, 4), (big, small), tax, FusionParams(min_instance_area=16)
    )
    assert set(np.unique(inst_map)) == {0, 1}
    assert (sem_map[12:14, 0:2] == 4).all()  # relabelled as floor


def conflict_fixture():
    """Semantic argmax bottle on the left half, transfusion_bag on the
    right; part argmax is a bag part everywhere."""
    tax = validate_taxonomy(
        {
            "semantic_classes": [
                {"id": BAG, "name": "transfusion_bag", "is_thing": True},
                {"id": BOTTLE, "name": "bottle", "is_thing": True},
                {"id": TABLE, "name": "table", "is_thing": False},
            ],
            "part_classes": [
                {"id": SEAL, "name": "seal", "parent_semantic_id": BAG},
                {"id": CENTER, "name": "center", "parent_semantic_id": BAG},
            ],
        }
    )
    h, w = 8, 16
    left = (slice(0, 8), slice(0, 8))
    right = (slice(0, 8), slice(8, 16))
    sem = np.zeros((3, h, w))
    sem[0][right] = 4.0  # bag
    sem[1][left] = 4.0  # bottle
    sem[2] = -10.0  # table never wins
    part = np.zeros((2, h, w))
    part[0] = 3.0  # seal wins everywhere
    part[1] = 1.0
    proposals = (
        footprint_proposal(BOTTLE, 0.9, (h, w), left),
        footprint_proposal(BAG, 0.8, (h, w), right),
    )
    stack = make_stack(sem, part, (BAG, BOTTLE, TABLE), (SEAL, CENTER), proposals)
    conflict = np.zeros((h, w), dtype=bool)
    conflict[left] = True
    return tax, stack, conflict


def test_baseline_none_keeps_conflicts():
    tax, stack, conflict = conflict_fixture()
    triple = fuse(stack, tax, FusionParams(min_instance_area=1), "none")
    assert (triple.semantic_map[conflict] == BOTTLE).all()
    assert (triple.part_map[conflict] == SEAL).all()  # conflicting pair kept
    assert (triple.semantic_map[~conflict] == BAG).all()
    assert (triple.part_map[~conflict] == SEAL).all()  # consistent there
    assert (triple.instance_map != 0).all()


def test_baseline_consensus_voids_all_three():
    tax, stack, conflict = conflict_fixture()
    triple = fuse(stack, tax, FusionParams(min_instance_area=1), "consensus")
    assert (triple.semantic_map[conflict] == 0).all()
    assert (triple.instance_map[conflict] == 0).all()
    assert (triple.part_map[conflict] == 0).all()
    assert (triple.semantic_map[~conflict] == BAG).all()
    assert (triple.part_map[~conflict] == SEAL).all()


def test_baseline_topdown_voids_only_part():
    tax, stack, conflict = conflict_fixture()
    params = FusionParams(min_instance_area=1)
    top = fuse(stack, tax, params, "topdown")
    base = fuse(stack, tax, params, "none")
    assert np.array_equal(top.semantic_map, base.semantic_map)
    assert np.array_equal(top.instance_map, base.instance_map)
    assert (top.part_map[conflict] == 0).all()
    diff = top.part_map != base.part_map
    assert np.array_equal(diff, conflict)


def test_baseline_unknown_strategy():
    tax, stack, _ = conflict_fixture()
    with pytest.raises(ValidationError, match="strategy"):
        fuse(stack, tax, None, "bogus")
    # part-wise fusion needs part classes; the baselines run without them
    partless = thing_stuff_taxonomy()
    with pytest.raises(ValidationError, match="at least one part class"):
        check_strategy("partpanoptic", partless)
    for strategy in STRATEGIES[1:]:
        check_strategy(strategy, partless)


def test_fuse_part_panoptic_coherent_scene():
    tax, stack, conflict = conflict_fixture()
    triple = fuse(stack, tax, FusionParams(min_instance_area=1))
    triple.validate(tax)
    # part and panoptic channels stay independent; the bag side keeps its
    # instance and the seal part everywhere has the highest enhanced logit
    assert (triple.semantic_map[~conflict] == BAG).all()
    assert (triple.part_map == SEAL).all()
    assert set(np.unique(triple.instance_map)) == {1, 2}


def on_file(stack, directory, name):
    """``stack`` with every tensor written as PPT1 and opened with
    read_tensor."""

    def opened(array, part):
        write_tensor(array, directory / f"{name}_{part}.ppt1")
        return read_tensor(directory / f"{name}_{part}.ppt1")

    return LogitStack(
        semantic_logits=opened(stack.semantic_logits, "sem"),
        part_logits=opened(stack.part_logits, "part"),
        semantic_channel_ids=stack.semantic_channel_ids,
        part_channel_ids=stack.part_channel_ids,
        instance_proposals=tuple(
            replace(p, mask_logits=opened(p.mask_logits, f"mask{i}"))
            for i, p in enumerate(stack.instance_proposals)
        ),
    )


def test_fuse_on_mapped_tensors_matches_in_memory(tmp_path):
    # fusion reads the files of a read_tensor stack tile by tile: a frame
    # of several tiles must fuse as it does from memory
    w = 1024
    instances = 0
    for seed in (0, 5, 8):  # scenes with instances, one without stuff classes
        taxonomy, stack, params = random_scene(seed, shape=(3 * tile_rows(w) + 5, w))
        file_stack = on_file(stack, tmp_path, str(seed))
        for strategy in STRATEGIES:
            expected = fuse(stack, taxonomy, params, strategy)
            got = fuse(file_stack, taxonomy, params, strategy)
            for name in ("semantic_map", "instance_map", "part_map"):
                assert np.array_equal(getattr(got, name), getattr(expected, name)), (seed, strategy)
            instances += int(got.instance_map.max())
    assert instances > 0


def test_fuse_rejects_more_instances_than_uint16_ids():
    # 65,536 disjoint one-pixel proposals, each a view of one float32
    # buffer: the last would take instance id 65,536, which uint16 cannot
    # hold, so the frame fails instead of wrapping to id 0 or overflowing
    n = MAX_ID + 1
    h = w = 256
    buffer = np.full(2 * n - 1, -1.0, dtype=np.float32)
    buffer[n - 1] = 1.0
    proposals = [
        InstanceProposal(1, 0.9, buffer[n - 1 - i : 2 * n - 1 - i].reshape(h, w))
        for i in range(n)
    ]
    stack = make_stack(np.zeros((2, h, w)), np.zeros((0, h, w)), (1, 4), (), proposals)
    with pytest.raises(ValidationError, match=f"at most {MAX_ID} instance"):
        fuse(stack, thing_stuff_taxonomy(), FusionParams(min_instance_area=1), "none")


@pytest.mark.parametrize("class_id", [9, 4], ids=["unknown", "stuff"])
def test_panoptic_fuse_rejects_proposals_that_are_not_things(class_id):
    # fuse checks the stack's own proposals; a direct call is checked too,
    # before a mask or logit is read
    tax = thing_stuff_taxonomy()
    stack = make_stack(np.zeros((2, 8, 8)), np.zeros((0, 8, 8)), (1, 4), ())
    props = [footprint_proposal(1, 0.9, (8, 8), (slice(0, 4), slice(0, 4))),
             footprint_proposal(class_id, 0.8, (8, 8), (slice(4, 8), slice(4, 8)))]
    with pytest.raises(ValidationError, match=f"^proposal class {class_id} is not a thing class$"):
        panoptic_fuse(stack, tax, props, FusionParams(min_instance_area=1), False)


def test_single_part_taxonomy_structural_identity():
    tax = validate_taxonomy(
        {
            "semantic_classes": [
                {"id": 1, "name": "a", "is_thing": True},
                {"id": 2, "name": "b", "is_thing": True},
            ],
            "part_classes": [
                {"id": 5, "name": "pa", "parent_semantic_id": 1},
                {"id": 6, "name": "pb", "parent_semantic_id": 2},
            ],
        }
    )
    rng = np.random.default_rng(9)
    for _ in range(20):
        sem = rng.normal(size=(2, 8, 8))
        part = rng.normal(size=(2, 8, 8))
        stack = make_stack(sem, part, (1, 2), (5, 6))
        enhanced_sem = enhanced_semantic(stack, tax)
        # exactly equal: same inputs reach the same agreement function
        assert np.array_equal(enhanced_sem[0], agreement_part_sem(part[0], sem[0]))
        assert np.array_equal(enhanced_sem[1], agreement_part_sem(part[1], sem[1]))
        # so the part map is the argmax of the enhanced semantic channels
        part_map = part_map_of(stack, tax)
        assert np.array_equal(part_map, np.array([5, 6])[np.argmax(enhanced_sem, axis=0)])


def test_channel_permutation_leaves_outputs_unchanged():
    tax, stack, _ = conflict_fixture()
    params = FusionParams(min_instance_area=1)
    base = fuse(stack, tax, params)
    sem_perm = [2, 0, 1]  # channel shuffle with matching id remap
    part_perm = [1, 0]
    shuffled = make_stack(
        np.asarray(stack.semantic_logits)[sem_perm],
        np.asarray(stack.part_logits)[part_perm],
        tuple(stack.semantic_channel_ids[i] for i in sem_perm),
        tuple(stack.part_channel_ids[i] for i in part_perm),
        stack.instance_proposals,
    )
    other = fuse(shuffled, tax, params)
    assert np.array_equal(base.semantic_map, other.semantic_map)
    assert np.array_equal(base.instance_map, other.instance_map)
    assert np.array_equal(base.part_map, other.part_map)


def test_all_zero_logits_no_proposals():
    tax = stuff_only_taxonomy()
    stack = make_stack(np.zeros((2, 4, 4)), np.zeros((0, 4, 4)), (3, 7), ())
    triple = fuse(stack, tax, None, "none")
    assert (triple.semantic_map == 3).all()
    assert (triple.instance_map == 0).all()


# ------------------------------------------------------------------ oracle
#
# Brute-force reference: every candidate (stuff class or instance) gets a
# full-frame score row, -inf off an instance's surviving footprint, and one
# np.argmax over the rows sorted by (class id, instance) picks the winner;
# instances below min_instance_area are dropped and the argmax repeated.
# Masks are compared in float64.  The part map is np.argmax over the
# enhanced part channels sorted by part id.


def _oracle_argmax(candidates, shape):
    if not candidates:
        z = np.zeros(shape, dtype=np.uint16)
        return z, z.copy()
    ranked = sorted(range(len(candidates)), key=lambda i: candidates[i][:2])
    scores = np.stack([candidates[i][2] for i in ranked])
    winner = np.argmax(scores, axis=0)
    valid = np.take_along_axis(scores, winner[None], axis=0)[0] > -np.inf
    class_ids = np.array([candidates[i][0] for i in ranked], dtype=np.uint16)
    inst_ids = np.array([candidates[i][1] for i in ranked], dtype=np.int64)
    sem_map = np.where(valid, class_ids[winner], 0).astype(np.uint16)
    inst_map = np.where(valid, inst_ids[winner], 0)
    return sem_map, inst_map


def oracle_panoptic(enhanced, channel_ids, proposals, taxonomy, params, stats):
    h, w = enhanced.shape[1:]
    enhanced = enhanced.astype(np.float64)
    kept = [p for p in proposals if p.confidence >= params.confidence_min]
    order = sorted(range(len(kept)), key=lambda i: (-kept[i].confidence, i))
    occupancy = np.zeros((h, w), dtype=bool)
    accepted = []
    for idx in order:
        raw = kept[idx].mask_logits
        mask = raw.astype(np.float64)
        footprint = mask > params.mask_logit_threshold
        # pixels a float32 comparison would read the other way
        stats["float32_flips"] += int((footprint != (raw > np.float32(params.mask_logit_threshold))).sum())
        own = int(footprint.sum())
        if own == 0 or (footprint & occupancy).sum() / own >= params.overlap_discard_ratio:
            continue
        surviving = footprint & ~occupancy
        occupancy |= surviving
        accepted.append((kept[idx].class_id, surviving, mask))

    channel_of = {cid: ch for ch, cid in enumerate(channel_ids)}
    candidates = [
        (cid, 0, enhanced[ch])
        for ch, cid in enumerate(channel_ids)
        if not taxonomy.is_thing(cid)
    ]
    stuff_best = (
        np.max([c[2] for c in candidates], axis=0) if candidates else np.full((h, w), -np.inf)
    )
    for seq, (cid, surviving, mask) in enumerate(accepted, start=1):
        fused = agreement_sem_inst(mask, enhanced[channel_of[cid]])
        stats["stuff_ties"] += int((surviving & (fused == stuff_best)).sum())
        candidates.append((cid, seq, np.where(surviving, fused, -np.inf)))
    sem_map, inst_map = _oracle_argmax(candidates, (h, w))

    if accepted and params.min_instance_area > 0:
        small = {
            seq
            for seq in range(1, len(accepted) + 1)
            if 0 < (inst_map == seq).sum() < params.min_instance_area
        }
        if small:
            stats["removed"] += len(small)
            survivors = [c for c in candidates if c[1] not in small]
            sem_map, inst_map = _oracle_argmax(survivors, (h, w))
    present = sorted(int(i) for i in np.unique(inst_map) if i != 0)
    remap = np.zeros(len(accepted) + 1, dtype=np.uint16)
    remap[present] = np.arange(1, len(present) + 1)
    return sem_map, remap[inst_map]


def oracle_part_map(part_scores, part_ids, stats):
    order = np.argsort(np.asarray(part_ids), kind="stable")
    ranked = part_scores[order]
    top = ranked.max(axis=0)
    stats["part_ties"] += int(((ranked == top).sum(axis=0) > 1).sum())
    return np.asarray(part_ids, dtype=np.uint16)[order][np.argmax(ranked, axis=0)]


def oracle_fuse(stack, taxonomy, params, strategy, stats):
    if strategy == "partpanoptic":
        sem = stack.semantic_logits.astype(np.float64)
        for ch, cid in enumerate(stack.semantic_channel_ids):
            parts = [stack.part_channel_ids.index(p.id) for p in taxonomy.parts_of(cid)]
            if parts:
                flat = stack.part_logits[parts].max(axis=0)
                sem[ch] = agreement_part_sem(flat, stack.semantic_logits[ch])
        part_scores = np.stack(
            [
                agreement_part_sem(
                    stack.part_logits[ch],
                    stack.semantic_logits[
                        stack.semantic_channel_ids.index(taxonomy.parent_of(pid))
                    ],
                )
                for ch, pid in enumerate(stack.part_channel_ids)
            ]
        )
    else:
        sem = stack.semantic_logits
        part_scores = stack.part_logits.astype(np.float64)
    sem_map, inst_map = oracle_panoptic(
        sem, stack.semantic_channel_ids, stack.instance_proposals, taxonomy, params, stats
    )
    part_map = oracle_part_map(part_scores, stack.part_channel_ids, stats)
    if strategy in ("consensus", "topdown"):
        parent = np.zeros(max(stack.part_channel_ids) + 1, dtype=np.uint16)
        for pid in stack.part_channel_ids:
            parent[pid] = taxonomy.parent_of(pid)
        conflict = (part_map != 0) & (parent[part_map] != sem_map)
        part_map = np.where(conflict, 0, part_map)
        if strategy == "consensus":
            sem_map = np.where(conflict, 0, sem_map)
            inst_map = np.where(conflict, 0, inst_map)
    return sem_map, inst_map, part_map


def random_scene(seed, shape=None, sem_ids=None, part_ids=None):
    """A small scene built to hit the fusion's tie and removal rules.

    Integer logits tie stuff against instance scores (fused == 0 when the
    mask and semantic logits cancel) and part channels against each
    other; masks are float32 and hold float32(0.1), which only a float64
    comparison reads as above a 0.1 threshold; proposals overlap, repeat
    confidences and are often small enough for min_instance_area; every
    fourth taxonomy has no stuff class, and the channels come shuffled.
    ``shape`` fixes (H, W); by default both are drawn from 4..10.
    ``sem_ids`` and ``part_ids`` replace the drawn ids.
    """
    rng = np.random.default_rng(seed)
    drawn = rng.choice(np.arange(1, 30), int(rng.integers(1, 5)), replace=False)
    sem_ids = [int(i) for i in (drawn if sem_ids is None else sem_ids)]
    n_sem = len(sem_ids)
    no_stuff = seed % 4 == 0
    semantic = [
        {"id": cid, "name": f"c{cid}", "is_thing": bool(no_stuff or rng.random() < 0.5)}
        for cid in sem_ids
    ]
    drawn = rng.choice(np.arange(30, 60), int(rng.integers(1, 6)), replace=False)
    part_ids = [int(i) for i in (drawn if part_ids is None else part_ids)]
    n_part = len(part_ids)
    parts = [
        {"id": pid, "name": f"p{pid}", "parent_semantic_id": int(rng.choice(sem_ids))}
        for pid in part_ids
    ]
    taxonomy = validate_taxonomy({"semantic_classes": semantic, "part_classes": parts})

    h, w = int(rng.integers(4, 11)), int(rng.integers(4, 11))
    if shape is not None:
        h, w = shape
    sem_order = [sem_ids[i] for i in rng.permutation(n_sem)]
    part_order = [part_ids[i] for i in rng.permutation(n_part)]
    sem = rng.integers(-2, 3, size=(n_sem, h, w)).astype(np.float32)
    part = rng.integers(-2, 3, size=(n_part, h, w)).astype(np.float32)

    things = [c["id"] for c in semantic if c["is_thing"]]
    proposals = []
    for _ in range(int(rng.integers(0, 6)) if things else 0):
        mask = np.full((h, w), -3.0, dtype=np.float32)
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        dy, dx = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        values = np.array([0.1, 0.1, 1.0, 2.0, -1.0], dtype=np.float32)
        mask[y : y + dy, x : x + dx] = rng.choice(values, size=mask[y : y + dy, x : x + dx].shape)
        proposals.append(
            InstanceProposal(
                class_id=int(rng.choice(things)),
                confidence=float(rng.choice([0.4, 0.6, 0.6, 0.9])),
                mask_logits=mask,
            )
        )
    stack = LogitStack(
        semantic_logits=sem,
        part_logits=part,
        semantic_channel_ids=tuple(sem_order),
        part_channel_ids=tuple(part_order),
        instance_proposals=tuple(proposals),
    )
    params = FusionParams(
        confidence_min=0.5,
        overlap_discard_ratio=float(rng.choice([0.3, 0.5, 1.0])),
        min_instance_area=int(rng.choice([0, 1, 3, 6])),
        mask_logit_threshold=float(rng.choice([0.0, 0.1])),
    )
    return taxonomy, stack, params


def test_fusion_matches_stacked_argmax_oracle():
    stats = {"float32_flips": 0, "stuff_ties": 0, "part_ties": 0, "removed": 0}
    no_stuff_with_instances = 0
    for seed in range(100):
        taxonomy, stack, params = random_scene(seed)
        # consensus and topdown only void pixels of the "none" maps
        for strategy in ("partpanoptic", "none"):
            triple = fuse(stack, taxonomy, params, strategy)
            sem_map, inst_map, part_map = oracle_fuse(
                stack, taxonomy, params, strategy, stats
            )
            assert np.array_equal(triple.semantic_map, sem_map), (seed, strategy)
            assert np.array_equal(triple.instance_map, inst_map), (seed, strategy)
            assert np.array_equal(triple.part_map, part_map), (seed, strategy)
            if seed % 4 == 0 and inst_map.any():
                no_stuff_with_instances += 1
    # the scenes really exercise the rules the fast path must keep
    assert stats["float32_flips"] > 0
    assert stats["stuff_ties"] > 0
    assert stats["part_ties"] > 0
    assert stats["removed"] > 0
    assert no_stuff_with_instances > 0


def test_fusion_matches_oracle_at_the_ends_of_the_id_range():
    # ids 1 and 65535 in both id spaces: the uint16 argmax fold must
    # neither wrap nor overflow at the top of the range
    ids = (1, 300, 65535)
    won = {"stuff": set(), "thing": set(), "part": set()}
    for seed in range(24):
        taxonomy, stack, params = random_scene(seed, sem_ids=ids, part_ids=ids)
        for strategy in STRATEGIES:
            stats = {"float32_flips": 0, "stuff_ties": 0, "part_ties": 0, "removed": 0}
            triple = fuse(stack, taxonomy, params, strategy)
            expected = oracle_fuse(stack, taxonomy, params, strategy, stats)
            got = (triple.semantic_map, triple.instance_map, triple.part_map)
            for name, a, b in zip(("sem", "inst", "part"), got, expected):
                assert np.array_equal(a, b), (seed, strategy, name)
            sem, inst = triple.semantic_map, triple.instance_map
            won["stuff"] |= set(np.unique(sem[(inst == 0) & (sem != 0)]).tolist())
            won["thing"] |= set(np.unique(sem[inst != 0]).tolist())
            won["part"] |= set(np.unique(triple.part_map).tolist())
    assert {1, 65535} <= won["stuff"]
    assert {1, 65535} <= won["thing"]
    assert {1, 65535} <= won["part"]


def strided(stack):
    """``stack`` as channel-reversed views, its masks as row-reversed
    views, and as Fortran-ordered arrays: the same values, handed to fuse
    without a contiguous copy."""
    return (
        LogitStack(
            semantic_logits=stack.semantic_logits[::-1],
            part_logits=stack.part_logits[::-1],
            semantic_channel_ids=stack.semantic_channel_ids[::-1],
            part_channel_ids=stack.part_channel_ids[::-1],
            instance_proposals=tuple(
                replace(p, mask_logits=p.mask_logits[::-1].copy()[::-1])
                for p in stack.instance_proposals
            ),
        ),
        replace(
            stack,
            semantic_logits=np.asfortranarray(stack.semantic_logits),
            part_logits=np.asfortranarray(stack.part_logits),
            instance_proposals=tuple(
                replace(p, mask_logits=np.asfortranarray(p.mask_logits))
                for p in stack.instance_proposals
            ),
        ),
    )


def test_fusion_matches_oracle_across_tile_boundaries():
    # frames of 1, T-1, T, T+1 and 2T+3 rows, T the tile height: a frame
    # inside one tile, exactly filled tiles and a partial last tile; each
    # from contiguous arrays and from strided ones
    seen = {"stuff_with_parts": 0, "multi_tile_instances": 0, "strided": 0}
    for w in (1, 7):
        t = tile_rows(w)
        for h in (1, t - 1, t, t + 1, 2 * t + 3):
            for seed in (1, 2, 3):
                taxonomy, stack, params = random_scene(seed, shape=(h, w))
                if any(
                    taxonomy.parts_of(c) and not taxonomy.is_thing(c)
                    for c in stack.semantic_channel_ids
                ):
                    seen["stuff_with_parts"] += 1
                sources = (stack, *strided(stack))
                seen["strided"] += sum(
                    not tensor.flags.c_contiguous
                    for source in sources[1:]
                    for tensor in (source.semantic_logits, source.part_logits)
                )
                for strategy in STRATEGIES:
                    stats = {"float32_flips": 0, "stuff_ties": 0, "part_ties": 0, "removed": 0}
                    expected = oracle_fuse(stack, taxonomy, params, strategy, stats)
                    for k, source in enumerate(sources):
                        triple = fuse(source, taxonomy, params, strategy)
                        got = (triple.semantic_map, triple.instance_map, triple.part_map)
                        for name, a, b in zip(("sem", "inst", "part"), got, expected):
                            assert np.array_equal(a, b), (w, h, seed, strategy, k, name)
                rows = [np.flatnonzero(triple.instance_map == i) // w // t for i in range(1, 10)]
                seen["multi_tile_instances"] += sum(r.size and r.min() != r.max() for r in rows)
    assert seen["stuff_with_parts"] > 0
    assert seen["multi_tile_instances"] > 0
    assert seen["strided"] > 0


def test_fusion_matches_oracle_on_frames_without_pixels(tmp_path):
    # 0x4, 3x0 and 0x0 frames, from memory and from PPT1 files: every
    # strategy returns empty maps of the frame's shape
    for h, w in ((0, 4), (3, 0), (0, 0)):
        for seed in (1, 2, 3):
            taxonomy, stack, params = random_scene(seed, shape=(4, 4))
            empty = LogitStack(
                semantic_logits=stack.semantic_logits[:, :h, :w],
                part_logits=stack.part_logits[:, :h, :w],
                semantic_channel_ids=stack.semantic_channel_ids,
                part_channel_ids=stack.part_channel_ids,
                instance_proposals=tuple(
                    replace(p, mask_logits=p.mask_logits[:h, :w]) for p in stack.instance_proposals
                ),
            )
            file_stack = on_file(empty, tmp_path, f"{h}x{w}_{seed}")
            for strategy in STRATEGIES:
                stats = {"float32_flips": 0, "stuff_ties": 0, "part_ties": 0, "removed": 0}
                expected = oracle_fuse(empty, taxonomy, params, strategy, stats)
                for source in (empty, file_stack):
                    triple = fuse(source, taxonomy, params, strategy)
                    got = (triple.semantic_map, triple.instance_map, triple.part_map)
                    for name, a, b in zip(("sem", "inst", "part"), got, expected):
                        assert a.shape == (h, w), (h, w, seed, strategy, name)
                        assert np.array_equal(a, b), (h, w, seed, strategy, name)


def test_fuse_reads_each_payload_byte_once(tmp_path, monkeypatch):
    # a file-backed frame of 5 tiles whose instances span tile boundaries:
    # every byte of each logit and mask payload is read exactly once
    monkeypatch.setattr(containers, "TILE_PIXELS", 64)
    w = 16
    t = tile_rows(w)
    reads = defaultdict(list)  # path -> (first element, elements) of each read
    fill = TensorFile._fill

    def counted(self, out, element):
        reads[self.path].append((element, out.size))
        fill(self, out, element)

    monkeypatch.setattr(TensorFile, "_fill", counted)
    spanning = 0
    for seed in (1, 2, 3, 5):
        taxonomy, stack, params = random_scene(seed, shape=(4 * t + 2, w))
        file_stack = on_file(stack, tmp_path, str(seed))
        tensors = [file_stack.semantic_logits, file_stack.part_logits]
        tensors += [p.mask_logits for p in file_stack.instance_proposals]
        for strategy in STRATEGIES:
            reads.clear()
            triple = fuse(file_stack, taxonomy, params, strategy)
            expected = fuse(stack, taxonomy, params, strategy)
            assert np.array_equal(triple.instance_map, expected.instance_map), (seed, strategy)
            for tensor in tensors:
                covered = 0
                for element, size in sorted(reads[tensor.path]):
                    # a later start skips bytes, an earlier one reads some twice
                    assert element == covered, (seed, strategy, tensor.path.name)
                    covered += size
                assert covered == np.prod(tensor.shape), (seed, strategy, tensor.path.name)
            assert sorted(reads) == sorted(tensor.path for tensor in tensors)
            rows = [np.flatnonzero(triple.instance_map == i) // w // t for i in range(1, 10)]
            spanning += sum(r.size and r.min() != r.max() for r in rows)
    assert spanning > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_fuse_invariant_under_channel_permutation(seed, data):
    taxonomy, stack, params = random_scene(seed)
    sem_perm = data.draw(st.permutations(range(len(stack.semantic_channel_ids))))
    part_perm = data.draw(st.permutations(range(len(stack.part_channel_ids))))
    permuted = LogitStack(
        semantic_logits=np.asarray(stack.semantic_logits)[list(sem_perm)],
        part_logits=np.asarray(stack.part_logits)[list(part_perm)],
        semantic_channel_ids=tuple(stack.semantic_channel_ids[i] for i in sem_perm),
        part_channel_ids=tuple(stack.part_channel_ids[i] for i in part_perm),
        instance_proposals=stack.instance_proposals,
    )
    for strategy in STRATEGIES:
        a = fuse(stack, taxonomy, params, strategy)
        b = fuse(permuted, taxonomy, params, strategy)
        assert np.array_equal(a.semantic_map, b.semantic_map), strategy
        assert np.array_equal(a.instance_map, b.instance_map), strategy
        assert np.array_equal(a.part_map, b.part_map), strategy


def test_partpanoptic_fusion_holds_no_channel_tensor():
    # the traced peak of fusing a 256x512 frame stays below half of one
    # [C_sem, H, W] float64 tensor
    import tracemalloc

    semantic = [{"id": i, "name": f"c{i}", "is_thing": i > 4} for i in range(1, 9)]
    parts = [
        {"id": 20 + i, "name": f"p{i}", "parent_semantic_id": 1 + i % 8} for i in range(10)
    ]
    taxonomy = validate_taxonomy({"semantic_classes": semantic, "part_classes": parts})
    rng = np.random.default_rng(11)
    h, w = 256, 512
    proposals = []
    for k in range(4):
        mask = rng.normal(scale=0.5, size=(h, w)).astype(np.float32) - 3.0
        mask[64 * k : 64 * k + 96, 100 * k : 100 * k + 200] += 6.0
        proposals.append(InstanceProposal(class_id=5 + k, confidence=0.9, mask_logits=mask))
    stack = make_stack(
        rng.normal(size=(8, h, w)), rng.normal(size=(10, h, w)), range(1, 9), range(20, 30), proposals
    )
    tracemalloc.start()
    try:
        triple = fuse(stack, taxonomy, None, "partpanoptic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triple.instance_map.max() == 4
    assert peak < 8 * h * w * 8 / 2
