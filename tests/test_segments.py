import numpy as np
import pytest

from partfuse.containers import LabelTriple, derive_segments, tile_rows
from partfuse.errors import ValidationError
from partfuse.metrics import match_segments

from conftest import BAG, BOTTLE, CENTER, MEDICAL_BAG, OTHER, SEAL, TABLE, make_triple


def test_all_void_yields_empty_list(taxonomy):
    triple = make_triple(np.zeros((8, 8), dtype=np.uint16))
    assert derive_segments(triple, taxonomy) == []


def test_stuff_and_thing_counts(taxonomy):
    sem = np.zeros((10, 10), dtype=np.uint16)
    inst = np.zeros_like(sem)
    sem[:5, :] = TABLE  # 50 px of stuff
    sem[5:8, :] = BAG  # 30 px thing
    inst[5:8, :] = 1
    segs = derive_segments(make_triple(sem, inst), taxonomy)
    assert len(segs) == 2
    by_class = {s.class_id: s for s in segs}
    assert by_class[TABLE].pixel_count == 50
    assert by_class[TABLE].instance_id == 0
    assert by_class[BAG].pixel_count == 30
    assert by_class[BAG].instance_id == 1


def test_two_instances_share_class(taxonomy):
    sem = np.zeros((4, 4), dtype=np.uint16)
    inst = np.zeros_like(sem)
    sem[0, :] = BAG
    inst[0, :2] = 1
    inst[0, 2:] = 2
    segs = derive_segments(make_triple(sem, inst), taxonomy)
    assert [(s.class_id, s.instance_id) for s in segs] == [(BAG, 1), (BAG, 2)]


def test_stuff_not_split_by_connectivity(taxonomy):
    sem = np.zeros((6, 6), dtype=np.uint16)
    sem[0, 0] = TABLE
    sem[5, 5] = TABLE  # disconnected pixels, same stuff class
    segs = derive_segments(make_triple(sem), taxonomy)
    assert len(segs) == 1
    assert segs[0].pixel_count == 2


def test_segments_partition_non_void(taxonomy):
    rng = np.random.default_rng(7)
    for _ in range(20):
        sem = rng.integers(0, 5, size=(12, 12)).astype(np.uint16)
        inst = np.zeros_like(sem)
        inst[sem == BAG] = 1
        inst[sem == 2] = 2
        inst[sem == 3] = 3
        triple = make_triple(sem, inst)
        segs = derive_segments(triple, taxonomy)
        total = sum(s.pixel_count for s in segs)
        assert total == int((sem != 0).sum())
        for s in segs:  # each segment's count is exactly its own pixels
            assert s.pixel_count == int(((sem == s.class_id) & (inst == s.instance_id)).sum())


def test_unknown_class_id_rejected(taxonomy):
    sem = np.full((2, 2), 99, dtype=np.uint16)
    with pytest.raises(ValidationError, match="unknown"):
        derive_segments(make_triple(sem), taxonomy)


def test_validate_catches_instance_on_stuff(taxonomy):
    sem = np.full((2, 2), TABLE, dtype=np.uint16)
    inst = np.ones_like(sem)
    with pytest.raises(ValidationError, match="non-thing"):
        make_triple(sem, inst).validate(taxonomy)


def test_validate_catches_instance_spanning_classes(taxonomy):
    sem = np.array([[BAG, 2]], dtype=np.uint16)
    inst = np.array([[1, 1]], dtype=np.uint16)
    with pytest.raises(ValidationError, match="spans"):
        make_triple(sem, inst).validate(taxonomy)


def test_validate_accepts_fused_style_triple(taxonomy):
    sem = np.array([[BAG, TABLE]], dtype=np.uint16)
    inst = np.array([[1, 0]], dtype=np.uint16)
    make_triple(sem, inst).validate(taxonomy)  # no raise


def test_maps_must_share_shape():
    with pytest.raises(ValidationError, match="shape"):
        LabelTriple(
            np.zeros((2, 2), dtype=np.uint16),
            np.zeros((2, 3), dtype=np.uint16),
            np.zeros((2, 2), dtype=np.uint16),
        )


@pytest.mark.parametrize("bad", [70000, -1, 2**16])
def test_from_arrays_rejects_ids_that_would_wrap(bad):
    ok = np.zeros((1, 2), dtype=np.int64)
    wide = np.array([[bad, 1]])
    for position, name in enumerate(("semantic", "instance", "part")):
        maps = [ok, ok, ok]
        maps[position] = wide
        with pytest.raises(ValidationError, match=f"{name} map ids must be in 0..65535"):
            LabelTriple.from_arrays(*maps)
    with pytest.raises(ValidationError):
        LabelTriple.from_arrays([[70000, -1]], [[0, 0]], [[0, 0]])


def test_from_arrays_keeps_every_id_in_range():
    wide = np.array([[0, 1, 65535]], dtype=np.int64)
    triple = LabelTriple.from_arrays(wide, wide, np.zeros((1, 3), dtype=np.uint16))
    assert triple.semantic_map.dtype == np.uint16
    assert triple.semantic_map.tolist() == [[0, 1, 65535]]
    empty = np.zeros((0, 0), dtype=np.int64)
    assert LabelTriple.from_arrays(empty, empty, empty).shape == (0, 0)


def test_validate_messages_name_the_offending_id(taxonomy):
    sem = np.array([[BAG, 99], [TABLE, 98]], dtype=np.uint16)
    assert validate_message((sem,), taxonomy) == "semantic map uses unknown class id 98"
    part = np.array([[SEAL, 77]], dtype=np.uint16)
    assert validate_message((np.array([[BAG, BAG]]), None, part), taxonomy) == (
        "part map uses unknown part id 77")
    sem = np.array([[BAG, TABLE]], dtype=np.uint16)
    assert validate_message((sem, np.array([[1, 2]])), taxonomy) == (
        "instance ids present on non-thing pixels")
    sem = np.array([[BAG, 0]], dtype=np.uint16)  # an instance on void
    assert validate_message((sem, np.array([[1, 2]])), taxonomy) == (
        "instance ids present on non-thing pixels")
    # ids 5 and 3 both span two classes; the lower one is named
    sem = np.array([[BAG, BOTTLE, BAG, BOTTLE, BAG]], dtype=np.uint16)
    inst = np.array([[5, 5, 3, 3, 4]], dtype=np.uint16)
    assert validate_message((sem, inst), taxonomy) == (
        "instance id 3 spans more than one semantic class")


def _validate_oracle(triple, taxonomy):
    """The sorting formulation: np.unique id sets and (instance, class) rows."""
    sem, inst, part = triple.semantic_map, triple.instance_map, triple.part_map
    for sid in np.unique(sem):
        if sid != 0 and not taxonomy.has_semantic(int(sid)):
            return f"semantic map uses unknown class id {sid}"
    for pid in np.unique(part):
        if pid != 0 and not taxonomy.has_part(int(pid)):
            return f"part map uses unknown part id {pid}"
    nonzero = inst != 0
    if not nonzero.any():
        return None
    if not all(s != 0 and taxonomy.is_thing(int(s)) for s in np.unique(sem[nonzero])):
        return "instance ids present on non-thing pixels"
    rows = np.unique(np.stack([inst[nonzero], sem[nonzero]], axis=1), axis=0)
    ids, counts = np.unique(rows[:, 0], return_counts=True)
    if (counts > 1).any():
        return f"instance id {ids[counts > 1][0]} spans more than one semantic class"
    return None


def test_validate_matches_sorting_oracle(taxonomy):
    rng = np.random.default_rng(31)
    sem_pool = np.array([0, BAG, BOTTLE, MEDICAL_BAG, TABLE, TABLE, 60], dtype=np.uint16)
    part_pool = np.array([0, 0, SEAL, CENTER, OTHER, 70], dtype=np.uint16)
    outcomes = set()
    for _ in range(400):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        sem = rng.choice(sem_pool[: int(rng.integers(2, 8))], size=shape)
        part = rng.choice(part_pool[: int(rng.integers(1, 7))], size=shape)
        inst = rng.integers(0, int(rng.integers(1, 6)), size=shape).astype(np.uint16)
        if rng.random() < 0.5:  # mostly consistent: one class per instance
            inst[~np.isin(sem, [BAG, BOTTLE, MEDICAL_BAG])] = 0
        got = validate_message((sem, inst, part), taxonomy)
        kinds = ("unknown class", "unknown part", "non-thing", "spans")
        kind = got and next(k for k in kinds if k in got)
        if kind == "non-thing" and not (sem[inst != 0] == TABLE).any():
            kind = "on void"
        outcomes.add(kind)
    assert outcomes == {None, "unknown class", "unknown part", "non-thing", "on void", "spans"}


def tiled_frame(width=64):
    """A valid frame three tiles tall, the last one partial: table, with a
    bag instance per tile; and the first row of each tile."""
    t = tile_rows(width)
    height = 2 * t + 3
    sem = np.full((height, width), TABLE, dtype=np.uint16)
    inst = np.zeros_like(sem)
    part = np.zeros_like(sem)
    for k, top in enumerate(range(0, height, t)):
        sem[top : top + 2, :4] = BAG
        inst[top : top + 2, :4] = k + 1
        part[top : top + 2, :4] = SEAL
    return (sem, inst, part), list(range(0, height, t))


def validate_message(maps, taxonomy):
    """The message that each entry point that checks a triple raises for
    ``maps``, or None: validate, derive_segments, and match_segments with
    the triple as the prediction, or as the ground truth, against a valid
    all-void triple of its shape.  All must give the oracle's outcome,
    and a valid triple's validate its histogram of segment keys."""
    triple = make_triple(*maps)
    expected = _validate_oracle(triple, taxonomy)
    void = make_triple(np.zeros(triple.shape, dtype=np.uint16))
    checks = (triple.validate, lambda t: derive_segments(triple, t),
              lambda t: match_segments(triple, void, t), lambda t: match_segments(void, triple, t))
    for check in checks:
        try:
            check(taxonomy)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected, check
    if expected is None:
        keys = (triple.semantic_map.astype(np.uint32) << 16) | triple.instance_map
        want = np.unique(keys, return_counts=True)
        assert [a.tolist() for a in triple.validate(taxonomy)] == [a.tolist() for a in want]
    return expected


def test_validate_finds_each_error_in_the_last_tile(taxonomy):
    (sem, inst, part), tops = tiled_frame()
    last = tops[-1] + 1
    assert validate_message((sem, inst, part), taxonomy) is None
    bad = sem.copy()
    bad[last, 10] = 99
    assert validate_message((bad, inst, part), taxonomy) == "semantic map uses unknown class id 99"
    bad = part.copy()
    bad[last, 10] = 77
    assert validate_message((sem, inst, bad), taxonomy) == "part map uses unknown part id 77"
    bad = inst.copy()
    bad[last, 10] = 9  # on the table
    assert validate_message((sem, bad, part), taxonomy) == "instance ids present on non-thing pixels"
    bad_sem = sem.copy()
    bad_sem[last, 10] = 0  # an instance of the bag's tile, on void
    bad_inst = inst.copy()
    bad_inst[last, 10] = 3
    assert validate_message((bad_sem, bad_inst, part), taxonomy) == (
        "instance ids present on non-thing pixels")
    # instance 1 is a bag in the first tile and a bottle in the last
    bad_sem, bad_inst = sem.copy(), inst.copy()
    bad_sem[last, 10], bad_inst[last, 10] = BOTTLE, 1
    assert validate_message((bad_sem, bad_inst, part), taxonomy) == (
        "instance id 1 spans more than one semantic class")
    # and an instance that spans two classes within the last tile only
    bad_sem, bad_inst = sem.copy(), inst.copy()
    bad_sem[last, 10:12], bad_inst[last, 10:12] = (BOTTLE, MEDICAL_BAG), 7
    assert validate_message((bad_sem, bad_inst, part), taxonomy) == (
        "instance id 7 spans more than one semantic class")


def test_validate_precedence_across_tiles(taxonomy):
    (sem, inst, part), tops = tiled_frame()
    first, last = tops[0] + 1, tops[-1] + 1
    # a non-thing instance in the first tile, an unknown class in the last
    bad_sem, bad_inst = sem.copy(), inst.copy()
    bad_inst[first, 10] = 9
    bad_sem[last, 10] = 99
    assert validate_message((bad_sem, bad_inst, part), taxonomy) == (
        "semantic map uses unknown class id 99")
    # a spanning instance in the first tile, an unknown part in the last
    bad_sem, bad_part = sem.copy(), part.copy()
    bad_sem[first, 0] = BOTTLE
    bad_part[last, 10] = 77
    assert validate_message((bad_sem, inst, bad_part), taxonomy) == (
        "part map uses unknown part id 77")
    # unknown ids in both tiles: the smaller one, in the last tile, is named
    bad_sem = sem.copy()
    bad_sem[first, 10], bad_sem[last, 10] = 99, 98
    assert validate_message((bad_sem, inst, part), taxonomy) == (
        "semantic map uses unknown class id 98")
    # instance 3 spans two classes within the last tile, instance 2 a bag
    # in the second tile and a bottle in the last: the smaller is named
    bad_sem, bad_inst = sem.copy(), inst.copy()
    bad_sem[last, 0] = BOTTLE
    bad_sem[last, 20], bad_inst[last, 20] = BOTTLE, 2
    assert validate_message((bad_sem, bad_inst, part), taxonomy) == (
        "instance id 2 spans more than one semantic class")
