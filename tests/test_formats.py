import os

import numpy as np
import pytest

from partfuse.errors import FormatError, ValidationError
from partfuse.formats import (
    read_label_triple,
    read_proposals,
    read_tensor,
    write_label_triple,
    write_proposals,
    write_tensor,
)
from partfuse.containers import InstanceProposal

from conftest import make_triple


def test_tensor_round_trip_float32(tmp_path):
    path = tmp_path / "t.ppt1"
    tensor = np.arange(6, dtype=np.float32).reshape(2, 3) * 0.37
    write_tensor(tensor, path)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == (2, 3)
    assert np.array_equal(back, tensor)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint8])
def test_tensor_round_trip_integer(tmp_path, dtype):
    path = tmp_path / "t.ppt1"
    tensor = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    write_tensor(tensor, path)
    back = read_tensor(path)
    assert back.dtype == dtype
    assert np.array_equal(back, tensor)


def test_tensor_scalar_round_trip(tmp_path):
    path = tmp_path / "s.ppt1"
    write_tensor(np.float32(2.5), path)
    back = read_tensor(path)
    assert back.shape == ()
    assert back == np.float32(2.5)


def test_tensor_write_read_write_is_byte_identical(tmp_path):
    first = tmp_path / "a.ppt1"
    second = tmp_path / "b.ppt1"
    write_tensor(np.random.default_rng(3).random((4, 5)).astype(np.float32), first)
    write_tensor(read_tensor(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_tensor_read_is_not_writable(tmp_path):
    path = tmp_path / "t.ppt1"
    write_tensor(np.arange(6, dtype=np.float32).reshape(2, 3), path)
    back = read_tensor(path)
    assert not back.flags.writeable
    with pytest.raises(ValueError):
        back[0, 0] = 1.0
    with pytest.raises(ValueError):
        back.setflags(write=True)


def test_tensor_read_outlives_replacing_its_file(tmp_path):
    path = tmp_path / "t.ppt1"
    tensor = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor(tensor, path)
    back = read_tensor(path)
    write_tensor(tensor + 100, tmp_path / "new.ppt1")
    os.replace(tmp_path / "new.ppt1", path)
    assert np.array_equal(back, tensor)
    assert np.array_equal(read_tensor(path), tensor + 100)


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.ppt1"
    path.write_bytes(b"XXXX" + bytes([1, 0, 0, 0]))
    with pytest.raises(FormatError, match="magic"):
        read_tensor(path)


def test_tensor_bad_dtype_code(tmp_path):
    path = tmp_path / "bad.ppt1"
    path.write_bytes(b"PPT1" + bytes([9, 0, 0, 0]) + b"\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="dtype"):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ppt1"
    good = tmp_path / "good.ppt1"
    write_tensor(np.ones((3, 3), dtype=np.float32), good)
    data = good.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(path)


def test_tensor_trailing_bytes(tmp_path):
    good = tmp_path / "good.ppt1"
    write_tensor(np.ones(2, dtype=np.uint8), good)
    bad = tmp_path / "bad.ppt1"
    bad.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_tensor(bad)


def test_tensor_dim_product_overflow(tmp_path):
    import struct

    path = tmp_path / "huge.ppt1"
    dims = struct.pack("<3I", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
    path.write_bytes(b"PPT1" + bytes([1, 3, 0, 0]) + dims)
    with pytest.raises(FormatError, match="overflow"):
        read_tensor(path)


def test_tensor_nonzero_reserved_bytes(tmp_path):
    path = tmp_path / "bad.ppt1"
    path.write_bytes(b"PPT1" + bytes([3, 0, 1, 0]) + b"\x00")
    with pytest.raises(FormatError, match="reserved"):
        read_tensor(path)


def test_tensor_rejects_float64(tmp_path):
    with pytest.raises(FormatError, match="dtype"):
        write_tensor(np.ones(3), tmp_path / "t.ppt1")


def test_triple_round_trip_zeros(tmp_path):
    stem = tmp_path / "img0"
    triple = make_triple(np.zeros((4, 4), dtype=np.uint16))
    write_label_triple(triple, stem)
    back = read_label_triple(stem)
    assert np.array_equal(back.semantic_map, triple.semantic_map)
    assert np.array_equal(back.instance_map, triple.instance_map)
    assert np.array_equal(back.part_map, triple.part_map)


def test_triple_round_trip_with_instances(tmp_path):
    stem = tmp_path / "img1"
    sem = np.full((5, 6), 2, dtype=np.uint16)
    inst = np.full_like(sem, 7)
    part = np.full_like(sem, 11)
    triple = make_triple(sem, inst, part)
    write_label_triple(triple, stem)
    back = read_label_triple(stem)
    assert np.array_equal(back.instance_map, inst)
    assert np.array_equal(back.part_map, part)


def test_triple_round_trip_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    rng = np.random.default_rng(11)
    triple = make_triple(
        rng.integers(0, 5, (8, 8)),
        np.zeros((8, 8), dtype=np.uint16),
        rng.integers(0, 3, (8, 8)),
    )
    write_label_triple(triple, a)
    write_label_triple(read_label_triple(a), b)
    for suffix in (".sem.pgm", ".inst.pgm", ".part.pgm"):
        assert (
            a.with_name(a.name + suffix).read_bytes()
            == b.with_name(b.name + suffix).read_bytes()
        )


def test_triple_dimension_mismatch(tmp_path):
    from partfuse.pnm import write_pgm16

    stem = tmp_path / "bad"
    write_pgm16(np.zeros((4, 4), dtype=np.uint16), tmp_path / "bad.sem.pgm")
    write_pgm16(np.zeros((4, 5), dtype=np.uint16), tmp_path / "bad.inst.pgm")
    write_pgm16(np.zeros((4, 4), dtype=np.uint16), tmp_path / "bad.part.pgm")
    with pytest.raises(ValidationError, match="mismatch"):
        read_label_triple(stem)


def test_triple_missing_file(tmp_path):
    from partfuse.pnm import write_pgm16

    write_pgm16(np.zeros((4, 4), dtype=np.uint16), tmp_path / "x.sem.pgm")
    with pytest.raises(FormatError, match="missing"):
        read_label_triple(tmp_path / "x")


def test_pgm16_wrong_maxval(tmp_path):
    from partfuse.pnm import read_pgm16

    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="maxval"):
        read_pgm16(path)


def test_proposal_sidecar_round_trip(tmp_path):
    sidecar = tmp_path / "img.proposals.json"
    rng = np.random.default_rng(5)
    proposals = [
        InstanceProposal(
            class_id=1,
            confidence=0.9,
            mask_logits=rng.normal(size=(4, 4)),
        ),
        InstanceProposal(
            class_id=2,
            confidence=0.25,
            mask_logits=rng.normal(size=(4, 4)),
        ),
    ]
    write_proposals(proposals, sidecar)
    back = read_proposals(sidecar)
    assert len(back) == 2
    assert back[0].class_id == 1
    assert back[1].confidence == 0.25
    # masks pass through float32 storage
    assert np.allclose(
        back[0].mask_logits, proposals[0].mask_logits.astype(np.float32)
    )
