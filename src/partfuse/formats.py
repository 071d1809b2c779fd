"""Bit-exact container I/O: PPT1 tensors, label-triple PGMs, proposal sidecars.

PPT1 layout:
    bytes 0-3   ASCII "PPT1"
    byte  4     dtype code: 1 = float32 LE, 2 = uint16 LE, 3 = uint8
    byte  5     rank (0-8)
    bytes 6-7   zero
    then        rank x uint32 LE dims
    then        row-major payload, last dimension fastest

Label triples are stored as three 16-bit PGMs sharing one stem:
``<stem>.sem.pgm``, ``<stem>.inst.pgm``, ``<stem>.part.pgm``.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .containers import InstanceProposal, LabelTriple
from .errors import FormatError, ValidationError
from .jsonio import decode, read_json
from .pnm import read_pgm16, write_pgm16

_MAGIC = b"PPT1"
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u2"), 3: np.dtype("u1")}
_CODES = {np.dtype("float32"): 1, np.dtype("uint16"): 2, np.dtype("uint8"): 3}
_MAX_RANK = 8
_MAX_ELEMENTS = 1 << 40  # dim products beyond this are treated as corrupt


def read_tensor(path: str | Path) -> np.ndarray:
    """Map a PPT1 tensor file and return a read-only view of its payload.

    The map holds a file descriptor while the array lives.  Replacing the
    file is safe; a mapped file that shrinks kills the process (SIGBUS).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size < 8:  # mmap refuses empty files
            raise FormatError(f"{path}: file shorter than the fixed header")
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    code, rank = data[4], data[5]
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    if rank > _MAX_RANK:
        raise FormatError(f"{path}: rank {rank} exceeds maximum {_MAX_RANK}")
    if data[6] != 0 or data[7] != 0:
        raise FormatError(f"{path}: reserved header bytes are nonzero")
    dims_end = 8 + 4 * rank
    if len(data) < dims_end:
        raise FormatError(f"{path}: truncated dimension list")
    dims = struct.unpack(f"<{rank}I", data[8:dims_end]) if rank else ()
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


def write_tensor(tensor: np.ndarray, path: str | Path) -> None:
    """Write a float32/uint16/uint8 tensor as PPT1."""
    tensor = np.asarray(tensor)
    if tensor.ndim and not tensor.flags.c_contiguous:
        tensor = np.ascontiguousarray(tensor)
    code = _CODES.get(tensor.dtype)
    if code is None:
        raise FormatError(
            f"unsupported tensor dtype {tensor.dtype}; use float32, uint16 or uint8"
        )
    if tensor.ndim > _MAX_RANK:
        raise FormatError(f"rank {tensor.ndim} exceeds maximum {_MAX_RANK}")
    header = _MAGIC + bytes([code, tensor.ndim, 0, 0])
    dims = struct.pack(f"<{tensor.ndim}I", *tensor.shape) if tensor.ndim else b""
    le = tensor.astype(tensor.dtype.newbyteorder("<"), copy=False)
    Path(path).write_bytes(header + dims + le.tobytes())


def triple_paths(stem: str | Path) -> tuple[Path, Path, Path]:
    stem = Path(stem)
    return (
        stem.with_name(stem.name + ".sem.pgm"),
        stem.with_name(stem.name + ".inst.pgm"),
        stem.with_name(stem.name + ".part.pgm"),
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


def write_proposals(
    proposals, sidecar_path: str | Path, mask_name_fmt: str = "proposal_{:03d}.ppt1"
) -> None:
    """Write proposals as a sidecar plus one PPT1 mask file per proposal."""
    sidecar_path = Path(sidecar_path)
    entries = []
    for i, p in enumerate(proposals):
        name = mask_name_fmt.format(i)
        write_tensor(p.mask_logits.astype(np.float32), sidecar_path.parent / name)
        entries.append(
            {
                "class_id": p.class_id,
                "confidence": p.confidence,
                "mask_tensor_path": name,
            }
        )
    sidecar_path.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
