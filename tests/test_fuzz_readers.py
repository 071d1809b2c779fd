"""Fuzzed readers: truncated or byte-corrupted files of every stored
format raise FormatError or ValidationError, never another exception."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partfuse import formats
from partfuse.errors import FormatError, ValidationError
from partfuse.imaging import Image, read_pnm, write_pnm
from partfuse.pointcloud import PointCloud, read_ply, write_ply

from conftest import make_triple

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def damaged(data: bytes):
    """A truncation of data, or data with up to eight bytes overwritten."""
    truncated = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    edits = st.lists(
        st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
        min_size=1,
        max_size=8,
    )

    def overwrite(changes):
        out = bytearray(data)
        for index, value in changes:
            out[index] = value
        return bytes(out)

    return truncated | edits.map(overwrite)


def valid_bytes(tmp_path, write, name):
    path = tmp_path / name
    write(path)
    return path, path.read_bytes()


def read_or_reject(read, path):
    try:
        read(path)
    except (FormatError, ValidationError):
        pass


@pytest.mark.parametrize(
    "tensor",
    [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.arange(6, dtype=np.uint16).reshape(1, 2, 3),
        np.arange(5, dtype=np.uint8),
    ],
    ids=["float32", "uint16", "uint8"],
)
@FUZZ
@given(data=st.data())
def test_read_tensor_rejects_damage(tmp_path, tensor, data):
    path, raw = valid_bytes(tmp_path, lambda p: formats.write_tensor(tensor, p), "t.ppt1")
    path.write_bytes(data.draw(damaged(raw)))
    read_or_reject(formats.read_tensor, path)


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 3)], ids=["pgm", "ppm"])
@FUZZ
@given(data=st.data())
def test_read_pnm_rejects_damage(tmp_path, shape, data):
    pixels = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
    path, raw = valid_bytes(tmp_path, lambda p: write_pnm(Image(pixels), p), "i.pnm")
    path.write_bytes(data.draw(damaged(raw)))
    read_or_reject(read_pnm, path)


@pytest.mark.parametrize("kind", ["sem", "inst", "part"])
@FUZZ
@given(data=st.data())
def test_read_label_triple_rejects_damage(tmp_path, kind, data):
    sem = np.array([[1, 1, 4], [0, 2, 4]], dtype=np.uint16)
    triple = make_triple(sem, sem % 3, sem * 300)
    stem = tmp_path / "s"
    formats.write_label_triple(triple, stem)
    path = tmp_path / f"s.{kind}.pgm"
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    read_or_reject(formats.read_label_triple, stem)


@FUZZ
@given(data=st.data())
def test_read_ply_rejects_damage(tmp_path, data):
    cloud = PointCloud(
        np.array([[0.0, 1.5, -2.25], [3.0, 0.125, 1e-3]]),
        np.array([[0, 128, 255], [7, 8, 9]], dtype=np.uint8),
    )
    path, raw = valid_bytes(tmp_path, lambda p: write_ply(cloud, p), "c.ply")
    path.write_bytes(data.draw(damaged(raw)))
    read_or_reject(read_ply, path)
