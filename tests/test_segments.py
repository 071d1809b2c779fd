import numpy as np
import pytest

from partfuse.containers import LabelTriple, derive_segments
from partfuse.errors import ValidationError

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


def test_validate_messages_name_the_offending_id(taxonomy):
    sem = np.array([[BAG, 99], [TABLE, 98]], dtype=np.uint16)
    with pytest.raises(ValidationError, match=r"^semantic map uses unknown class id 98$"):
        make_triple(sem).validate(taxonomy)
    part = np.array([[SEAL, 77]], dtype=np.uint16)
    with pytest.raises(ValidationError, match=r"^part map uses unknown part id 77$"):
        make_triple(np.array([[BAG, BAG]]), part=part).validate(taxonomy)
    sem = np.array([[BAG, TABLE]], dtype=np.uint16)
    with pytest.raises(ValidationError, match=r"^instance ids present on non-thing pixels$"):
        make_triple(sem, np.array([[1, 2]])).validate(taxonomy)
    # ids 5 and 3 both span two classes; the lower one is named
    sem = np.array([[BAG, BOTTLE, BAG, BOTTLE, BAG]], dtype=np.uint16)
    inst = np.array([[5, 5, 3, 3, 4]], dtype=np.uint16)
    with pytest.raises(
        ValidationError, match=r"^instance id 3 spans more than one semantic class$"
    ):
        make_triple(sem, inst).validate(taxonomy)


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
        triple = make_triple(sem, inst, part)
        expected = _validate_oracle(triple, taxonomy)
        try:
            triple.validate(taxonomy)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected
        kinds = ("unknown class", "unknown part", "non-thing", "spans")
        outcomes.add(got and next(k for k in kinds if k in got))
    assert outcomes == {None, "unknown class", "unknown part", "non-thing", "spans"}
