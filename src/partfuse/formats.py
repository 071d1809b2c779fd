"""Bit-exact container I/O: PPT1 tensors, label-triple PGMs, proposal sidecars.

PPT1 layout:
    bytes 0-3   ASCII "PPT1"
    byte  4     dtype code: 1 = float32 LE, 2 = uint16 LE, 3 = uint8
    byte  5     rank (0-8)
    bytes 6-7   zero
    then        rank x uint32 LE dims
    then        row-major payload, last dimension fastest

read_tensor checks a header against the file's length and returns a
TensorFile: the open file, from which rows of the payload are read with
positioned reads when they are needed.  Nothing is mapped or held, and
a file that shrinks after it was opened fails the read with FormatError.

Label triples are stored as three 16-bit PGMs sharing one stem:
``<stem>.sem.pgm``, ``<stem>.inst.pgm``, ``<stem>.part.pgm``.  A fuse
sample is ``<stem>.sem.ppt1``, ``<stem>.part.ppt1`` and
``<stem>.proposals.json``.
"""

from __future__ import annotations

import math
import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import containers
from .containers import InstanceProposal, LabelTriple
from .errors import FormatError, ValidationError
from .imaging import read_pgm16, write_pgm16
from .jsonio import decode, read_json
from .taxonomy import ClassTaxonomy

_MAGIC = b"PPT1"
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u2"), 3: np.dtype("u1")}
_MAX_RANK = 8
_MAX_ELEMENTS = 1 << 40  # dim products beyond this are treated as corrupt


class TensorFile:
    """A PPT1 tensor whose header has been checked: its ``path``, the
    ``shape``, ``ndim`` and ``dtype`` of its payload, and the open file
    the payload is read from, until the handle is garbage-collected or
    closed.
    """

    def __init__(self, path: Path, file, dtype: np.dtype, shape: tuple[int, ...], offset: int):
        self.path, self._file, self._offset = path, file, offset
        self.dtype, self.shape, self.ndim = dtype, shape, len(shape)
        self.close = weakref.finalize(self, file.close)

    def read(self, rows: slice = slice(None)) -> np.ndarray:
        """A new array of ``tensor[..., rows, :]``: ``rows`` is a slice of
        step 1 of the second-to-last axis, and a tensor of rank below 2 is
        read whole.  A file that has shrunk since it was opened raises
        FormatError.
        """
        *planes, h, w = (1, 1) + self.shape
        top, bottom, _ = rows.indices(h)
        out = np.empty((math.prod(planes), max(bottom - top, 0), w), self.dtype)
        for k, plane in enumerate(out):
            self._fill(plane, (k * h + top) * w)
        return out.reshape(self.shape[:-2] + out.shape[1:] if self.ndim > 1 else self.shape)

    def _fill(self, out: np.ndarray, element: int) -> None:
        """Read ``out``'s bytes from the payload, starting at ``element``."""
        self._file.seek(self._offset + element * self.dtype.itemsize)
        view = memoryview(out.reshape(-1).view(np.uint8))
        while view:
            n = self._file.readinto(view)
            if not n:
                raise FormatError(f"{self.path}: truncated payload")
            view = view[n:]


def read_tensor(path: str | Path) -> TensorFile:
    """Open a PPT1 tensor file and check its header against its length;
    the payload is read later, through the returned handle."""
    path = Path(path)
    fh = open(path, "rb", buffering=0)
    try:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:
            raise FormatError(f"{path}: file shorter than the fixed header")
        header = fh.read(8 + 4 * _MAX_RANK)
        if header[:4] != _MAGIC:
            raise FormatError(f"{path}: bad magic {header[:4]!r}")
        code, rank = header[4], header[5]
        if code not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        if rank > _MAX_RANK:
            raise FormatError(f"{path}: rank {rank} exceeds maximum {_MAX_RANK}")
        if header[6] != 0 or header[7] != 0:
            raise FormatError(f"{path}: reserved header bytes are nonzero")
        dims_end = 8 + 4 * rank
        if size < dims_end:
            raise FormatError(f"{path}: truncated dimension list")
        dims = struct.unpack(f"<{rank}I", header[8:dims_end]) if rank else ()
        count = math.prod(dims)
        if count > _MAX_ELEMENTS:
            raise FormatError(f"{path}: dimension product overflow ({count} elements)")
        dtype = _DTYPES[code]
        expected = count * dtype.itemsize
        payload = size - dims_end
        if payload < expected:
            raise FormatError(f"{path}: truncated payload")
        if payload > expected:
            raise FormatError(f"{path}: trailing bytes after payload")
    except BaseException:
        fh.close()
        raise
    return TensorFile(path, fh, dtype, dims, dims_end)


TRIPLE_SUFFIXES = (".sem.pgm", ".inst.pgm", ".part.pgm")
SAMPLE_SUFFIXES = (".sem.ppt1", ".part.ppt1", ".proposals.json")


def triple_paths(stem: str | Path) -> tuple[Path, ...]:
    stem = Path(stem)
    return tuple(stem.with_name(stem.name + suffix) for suffix in TRIPLE_SUFFIXES)


def find_stems(inputs, suffixes: tuple[str, ...]) -> list[Path]:
    """The stems ``inputs`` name.  A directory stands for every stem with
    any of the ``suffixes`` files in it, in sorted order; any other path,
    one of a stem's files or the stem itself, names one stem."""

    def stem(path: Path) -> Path:
        for suffix in suffixes:
            if path.name.endswith(suffix) and path.name != suffix:  # no empty names
                return path.with_name(path.name[: -len(suffix)])
        return path

    stems: list[Path] = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            stems.extend(sorted({stem(p) for s in suffixes for p in path.glob(f"*{s}")}))
        else:
            stems.append(stem(path))
    return stems


def read_sample(stem: Path, taxonomy: ClassTaxonomy) -> containers.LogitStack:
    """The fuse sample at ``stem`` as a LogitStack whose channels follow
    the taxonomy; a missing file raises ValidationError."""
    paths = [stem.with_name(stem.name + suffix) for suffix in SAMPLE_SUFFIXES]
    for path in paths:
        if not path.exists():
            raise ValidationError(f"missing input file {path}")
    sem, part, proposals = read_tensor(paths[0]), read_tensor(paths[1]), read_proposals(paths[2])
    if sem.ndim != 3 or part.ndim != 3:
        raise ValidationError(f"{stem}: logit tensors must be rank 3")
    return containers.LogitStack(
        semantic_logits=sem,
        part_logits=part,
        semantic_channel_ids=taxonomy.semantic_ids,
        part_channel_ids=taxonomy.part_ids,
        instance_proposals=proposals,
    )


def read_label_triple(stem: str | Path) -> LabelTriple:
    """Read ``<stem>.{sem,inst,part}.pgm`` into a LabelTriple."""
    sem_p, inst_p, part_p = triple_paths(stem)
    for p in (sem_p, inst_p, part_p):
        if not p.exists():
            raise FormatError(f"missing label map file {p}")
    sem, inst, part = read_pgm16(sem_p), read_pgm16(inst_p), read_pgm16(part_p)
    if not (sem.shape == inst.shape == part.shape):
        raise ValidationError(
            f"label triple {stem}: dimension mismatch "
            f"{sem.shape} / {inst.shape} / {part.shape}"
        )
    return LabelTriple(sem, inst, part)


def write_label_triple(triple: LabelTriple, stem: str | Path) -> None:
    sem_p, inst_p, part_p = triple_paths(stem)
    write_pgm16(triple.semantic_map, sem_p)
    write_pgm16(triple.instance_map, inst_p)
    write_pgm16(triple.part_map, part_p)


@dataclass(frozen=True)
class _SidecarEntry:
    class_id: int
    confidence: float
    mask_tensor_path: Path


def read_proposals(path: str | Path) -> tuple[InstanceProposal, ...]:
    """Read an instance-proposal sidecar.

    The sidecar is a JSON array of {class_id, confidence, mask_tensor_path};
    mask paths are resolved relative to the sidecar's directory.
    """
    path = Path(path)
    entries = decode(
        tuple[_SidecarEntry, ...], read_json(path, list), f"proposal sidecar {path}"
    )
    out = []
    for entry in entries:
        mask_path = path.parent / entry.mask_tensor_path
        mask = read_tensor(mask_path)
        if mask.ndim != 2:
            raise ValidationError(
                f"{mask_path}: proposal mask must be rank 2, got rank {mask.ndim}"
            )
        out.append(InstanceProposal(entry.class_id, entry.confidence, mask))
    return tuple(out)
