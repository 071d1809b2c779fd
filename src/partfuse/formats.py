"""Bit-exact container I/O: PPT1 tensors, label-triple PGMs, proposal sidecars.

PPT1 layout:
    bytes 0-3   ASCII "PPT1"
    byte  4     dtype code: 1 = float32 LE, 2 = uint16 LE, 3 = uint8
    byte  5     rank (0-8)
    bytes 6-7   zero
    then        rank x uint32 LE dims
    then        row-major payload, last dimension fastest

Label triples are stored as three 16-bit PGMs sharing one stem:
``<stem>.sem.pgm``, ``<stem>.inst.pgm``, ``<stem>.part.pgm``.  A fuse
sample is ``<stem>.sem.ppt1``, ``<stem>.part.ppt1`` and
``<stem>.proposals.json``.
"""

from __future__ import annotations

import mmap
import os
import struct
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


def read_tensor(path: str | Path) -> np.ndarray:
    """Map a PPT1 tensor file and return a read-only view of its payload.

    The map holds a file descriptor while the array lives.  Replacing the
    file is safe; a mapped file that shrinks kills the process (SIGBUS).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:  # mmap refuses empty files
            raise FormatError(f"{path}: file shorter than the fixed header")
        # the header is read from the file, not the map: touching a mapped
        # page can make the whole large folio around it resident
        header = fh.read(8 + 4 * _MAX_RANK)
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
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
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_ELEMENTS:
        raise FormatError(f"{path}: dimension product overflow ({count} elements)")
    dtype = _DTYPES[code]
    expected = count * dtype.itemsize
    payload = len(data) - dims_end
    if payload < expected:
        raise FormatError(f"{path}: truncated payload")
    if payload > expected:
        raise FormatError(f"{path}: trailing bytes after payload")
    return np.frombuffer(data, dtype, count, dims_end).reshape(dims)


def file_map(array: np.ndarray) -> mmap.mmap | None:
    """The ``read_tensor`` map under ``array``, a view of its payload, or
    None for an array with no map under it."""
    owner = array
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, memoryview):
        owner = owner.obj
    return owner if isinstance(owner, mmap.mmap) else None


def release(array: np.ndarray) -> None:
    """Drop this process's resident pages of the file map under ``array``,
    a C-contiguous view of a ``read_tensor`` payload: a whole tensor or
    one channel of it.

    The pages from the array's first byte to its last, rounded out to
    whole pages, leave the resident set; reading them again faults them
    back in from the page cache, so the values are unchanged.  Does
    nothing for an array with no map under it or where ``madvise`` is
    missing.
    """
    data = file_map(array)
    if data is None or not hasattr(mmap, "MADV_DONTNEED"):
        return
    if not array.flags.c_contiguous:
        raise ValueError("release takes a C-contiguous view of a mapped tensor")
    origin = np.frombuffer(data, np.uint8, 1).__array_interface__["data"][0]
    start = array.__array_interface__["data"][0] - origin
    end = start + array.nbytes
    start -= start % mmap.PAGESIZE
    data.madvise(mmap.MADV_DONTNEED, start, end - start)


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
