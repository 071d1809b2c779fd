import os
import subprocess
import sys

import numpy as np
import pytest

from partfuse.errors import FormatError, ValidationError
from partfuse.formats import (
    TensorFile,
    read_label_triple,
    read_pnm,
    read_proposals,
    read_tensor,
    write_label_triple,
    write_pgm16,
    write_pnm,
)
from partfuse.containers import InstanceProposal

from conftest import make_triple
from scenes import fresh_env, write_proposals, write_tensor
from test_fuse_memory import write_frame


def test_tensor_round_trip_float32(tmp_path):
    path = tmp_path / "t.ppt1"
    tensor = np.arange(6, dtype=np.float32).reshape(2, 3) * 0.37
    write_tensor(tensor, path)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == (2, 3)
    assert np.array_equal(back.read(), tensor)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint8])
def test_tensor_round_trip_integer(tmp_path, dtype):
    path = tmp_path / "t.ppt1"
    tensor = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    write_tensor(tensor, path)
    back = read_tensor(path)
    assert back.dtype == dtype
    assert np.array_equal(back.read(), tensor)


def test_tensor_scalar_round_trip(tmp_path):
    path = tmp_path / "s.ppt1"
    write_tensor(np.float32(2.5), path)
    back = read_tensor(path)
    assert back.shape == ()
    assert back.read() == np.float32(2.5)


def test_tensor_write_read_write_is_byte_identical(tmp_path):
    first = tmp_path / "a.ppt1"
    second = tmp_path / "b.ppt1"
    write_tensor(np.random.default_rng(3).random((4, 5)).astype(np.float32), first)
    write_tensor(read_tensor(first).read(), second)
    assert first.read_bytes() == second.read_bytes()


def test_tensor_read_is_not_writable(tmp_path):
    path = tmp_path / "t.ppt1"
    tensor = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor(tensor, path)
    raw = path.read_bytes()
    back = read_tensor(path)
    with pytest.raises(TypeError):
        back[0, 0] = 1.0
    values = back.read()
    values[0, 0] = 1.0
    assert np.array_equal(back.read(), tensor)
    assert path.read_bytes() == raw


def test_tensor_read_outlives_replacing_its_file(tmp_path):
    path = tmp_path / "t.ppt1"
    tensor = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor(tensor, path)
    back = read_tensor(path)
    write_tensor(tensor + 100, tmp_path / "new.ppt1")
    os.replace(tmp_path / "new.ppt1", path)
    assert np.array_equal(back.read(), tensor)
    assert np.array_equal(read_tensor(path).read(), tensor + 100)


def test_tensor_read_rows(tmp_path):
    tensor = np.arange(3 * 5 * 4, dtype=np.uint16).reshape(3, 5, 4)
    write_tensor(tensor, tmp_path / "t.ppt1")
    back = read_tensor(tmp_path / "t.ppt1")
    for rows in (slice(None), slice(1, 4), slice(4, 9), slice(2, 2)):
        assert np.array_equal(back.read(rows), tensor[:, rows])


@pytest.mark.parametrize("change, error", [("replace", "replaced since it was opened"),
                                           ("truncate", "truncated payload")])
def test_proposal_mask_that_changes_after_read_proposals(tmp_path, change, error):
    # read_proposals closes each mask once it is checked, and a read opens
    # it again: a path that names another file by then, or a shorter one,
    # fails the read
    mask = np.arange(16, dtype=np.float32).reshape(4, 4)
    write_proposals([InstanceProposal(1, 0.9, mask)], tmp_path / "img.proposals.json")
    (proposal,) = read_proposals(tmp_path / "img.proposals.json")
    assert np.array_equal(proposal.mask_logits.read(), mask)
    path = tmp_path / "proposal_000.ppt1"
    if change == "replace":
        write_tensor(mask + 1, tmp_path / "new.ppt1")
        os.replace(tmp_path / "new.ppt1", path)
    else:
        os.truncate(path, path.stat().st_size - 4)
    with pytest.raises(FormatError, match=error):
        proposal.mask_logits.read()


# opens a fuse sample with read_sample, truncates one of its files in
# place, then fuses it and prints the FormatError that fuse raises
TRUNCATE_THEN_FUSE = """
import os, sys
from pathlib import Path
from partfuse.errors import FormatError
from partfuse.formats import read_sample
from partfuse.fusion import fuse
from partfuse.taxonomy import load_taxonomy
taxonomy = load_taxonomy(sys.argv[1])
stack = read_sample(Path(sys.argv[2]), taxonomy)
os.truncate(sys.argv[3], 4096)
try:
    fuse(stack, taxonomy)
except FormatError as exc:
    print(exc)
"""


@pytest.mark.parametrize("victim", ["frame.sem.ppt1", "frame_p01.ppt1"], ids=["logits", "mask"])
def test_fuse_of_a_file_truncated_in_place_is_a_format_error(tmp_path, taxonomy_json, victim):
    """Run in a child process, so that a crash shows as its exit status."""
    write_frame(tmp_path, "frame", 64, 1024, 2)
    args = [str(taxonomy_json), str(tmp_path / "frame"), str(tmp_path / victim)]
    child = subprocess.run([sys.executable, "-c", TRUNCATE_THEN_FUSE, *args], env=fresh_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == f"{tmp_path / victim}: truncated payload"


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
    stem = tmp_path / "bad"
    write_pgm16(np.zeros((4, 4), dtype=np.uint16), tmp_path / "bad.sem.pgm")
    write_pgm16(np.zeros((4, 5), dtype=np.uint16), tmp_path / "bad.inst.pgm")
    write_pgm16(np.zeros((4, 4), dtype=np.uint16), tmp_path / "bad.part.pgm")
    with pytest.raises(ValidationError, match="mismatch"):
        read_label_triple(stem)


def test_triple_missing_file(tmp_path):
    write_pgm16(np.zeros((4, 4), dtype=np.uint16), tmp_path / "x.sem.pgm")
    with pytest.raises(ValidationError, match="x.inst.pgm: file not found"):
        read_label_triple(tmp_path / "x")


def test_pgm16_wrong_maxval(tmp_path):
    from partfuse.formats import open_pgm16

    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="maxval"):
        open_pgm16(path)


def test_pgm16_rows_read_in_place(tmp_path):
    from partfuse.formats import open_pgm16

    grid = np.arange(7 * 5, dtype=np.uint16).reshape(7, 5) * 1000
    write_pgm16(grid, tmp_path / "m.pgm")
    handle = open_pgm16(tmp_path / "m.pgm")
    assert (handle.shape, handle.ndim, handle.dtype) == ((7, 5), 2, np.uint16)
    for rows in (slice(None), slice(1, 4), slice(4, 9), slice(2, 2)):
        back = handle.read(rows)
        assert back.dtype == np.uint16 and np.array_equal(back, grid[rows])


def test_pgm16_that_shrinks_after_it_was_opened(tmp_path):
    from partfuse.formats import open_pgm16

    path = tmp_path / "m.pgm"
    write_pgm16(np.ones((4, 4), dtype=np.uint16), path)
    handle = open_pgm16(path)
    assert handle.read(slice(0, 2)).tolist() == [[1] * 4] * 2
    os.truncate(path, path.stat().st_size - 1)
    with pytest.raises(FormatError, match="truncated"):
        handle.read(slice(2, 4))


def test_read_pnm_is_one_payload_pass_and_holds_no_descriptor(tmp_path, monkeypatch):
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("no /proc/self/fd to list open descriptors")
    image = np.random.default_rng(3).integers(0, 256, (480, 640, 3)).astype(np.uint8)
    path = tmp_path / "vga.ppm"
    write_pnm(image, path)
    fill, fills = TensorFile._fill, []

    def counted(self, out, element):
        fills.append(out.size)
        fill(self, out, element)

    monkeypatch.setattr(TensorFile, "_fill", counted)
    before = sorted(os.listdir(fd_dir))
    back = read_pnm(path)
    assert sorted(os.listdir(fd_dir)) == before
    assert fills == [image.size]  # one fill of the whole image, not one per row
    assert np.array_equal(back, image) and not back.flags.writeable


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
        back[0].mask_logits.read(), proposals[0].mask_logits.astype(np.float32)
    )
