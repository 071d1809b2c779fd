"""Bit-exact container I/O: PPT1 tensors, binary PNM images and label
maps, label-triple PGMs, proposal sidecars.

PPT1 layout:
    bytes 0-3   ASCII "PPT1"
    byte  4     dtype code: 1 = float32 LE, 2 = uint16 LE, 3 = uint8
    byte  5     rank (0-8)
    bytes 6-7   zero
    then        rank x uint32 LE dims
    then        row-major payload, last dimension fastest

read_tensor checks a header against the file's length and returns a
TensorFile: the open file, from which rows of the payload are read with
positioned reads when they are needed.  read_proposals closes each mask
once it is checked; a closed TensorFile opens its path again for each
read.  Nothing is mapped, and a file that shrinks after it was opened,
or that a closed handle's path no longer names, fails the read with
FormatError.  A TensorFile opens its file through errors.open_input, so
a missing file raises ValidationError; no reader here looks for it first.

Images are 8-bit binary PNMs, P5 (H, W) or P6 (H, W, 3); label maps
are 16-bit P5 PGMs, most significant byte first; one header parser
reads both.  Label triples are three label maps sharing one stem:
``<stem>.sem.pgm``, ``<stem>.inst.pgm``, ``<stem>.part.pgm``.
open_pgm16, the PGM row reader, returns a TensorFile of a label map in
the same way; read_pnm reads a whole image through one and closes it.
A fuse sample is ``<stem>.sem.ppt1``, ``<stem>.part.ppt1``
and ``<stem>.proposals.json``.
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
from .errors import FormatError, ValidationError, open_input
from .jsonio import decode, read_json
from .taxonomy import ClassTaxonomy

_MAGIC = b"PPT1"
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u2"), 3: np.dtype("u1")}
_MAX_RANK = 8
_MAX_ELEMENTS = 1 << 40  # dim products beyond this are treated as corrupt
_PNM_DTYPES = {255: np.dtype("u1"), 65535: np.dtype(">u2")}  # by maxval


class TensorFile:
    """A PPT1 tensor or PNM raster at ``path`` whose header has been
    checked: ``parse_header(file, path, size)`` returns the ``stored``
    dtype and the shape of its payload, which starts where the header
    ends.  A handle has the payload's ``shape``, ``ndim`` and native
    ``dtype``, and holds the open file the payload is read from until it
    is garbage-collected or closed; a closed handle opens its path again
    for each read, which fails if the path names another file by then.
    """

    def __init__(self, path: Path, parse_header):
        file = open_input(path, "rb", buffering=0)
        try:
            stat = os.fstat(file.fileno())
            stored, shape = parse_header(file, path, stat.st_size)
            offset = file.tell()
            if stat.st_size - offset < math.prod(shape) * stored.itemsize:
                raise FormatError(f"{path}: truncated payload")
        except BaseException:
            file.close()
            raise
        self.path, self._file, self._offset, self._stat = path, file, offset, stat
        self.dtype, self.shape, self.ndim = stored.newbyteorder("="), shape, len(shape)
        self._stored = stored
        self.close = weakref.finalize(self, file.close)

    def read(self, rows: slice = slice(None), channel: int | None = None) -> np.ndarray:
        """A new array of ``tensor[..., rows, :]``, or of ``tensor[channel,
        rows, :]`` of a rank-3 tensor: ``rows`` is a slice of step 1 of the
        second-to-last axis, and a tensor of rank below 2 is read whole.  A
        file that has shrunk since it was opened, or that a closed handle's
        path no longer names, raises FormatError.
        """
        *planes, h, w = (1, 1) + self.shape
        top, bottom, _ = rows.indices(h)
        first, count = (0, math.prod(planes)) if channel is None else (channel, 1)
        out = np.empty((count, max(bottom - top, 0), w), self.dtype)
        reopened = self._file.closed  # a closed handle opens its path for this read only
        if reopened:
            self._file = open(self.path, "rb", buffering=0)
        try:
            if reopened and not os.path.samestat(os.fstat(self._file.fileno()), self._stat):
                raise FormatError(f"{self.path}: replaced since it was opened")
            runs = [out] if bottom - top == h else out  # whole planes lie back to back
            for k, run in enumerate(runs, first):
                self._fill(run, (k * h + top) * w)
        finally:
            if reopened:
                self._file.close()
        if self._stored != self.dtype:  # swap in place: a 1-D cast onto itself
            flat = out.reshape(-1)
            np.copyto(flat, flat.view(self._stored))
        if channel is not None:
            return out[0]
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


def _pnm_header(fh, path: Path, maxval: int) -> tuple[np.dtype, tuple[int, ...]]:
    """The stored dtype and shape of the binary PNM open, unbuffered, in
    ``fh``, whose maxval must be ``maxval``: 255 takes P5 (H, W) and P6
    (H, W, 3) uint8, 65535 takes P5 (H, W) uint16, MSB first.  ``fh`` is
    left at the first sample.

    Whitespace separates tokens; '#' starts a comment running to end of line.
    Exactly one whitespace byte follows the maxval token before the raster.
    """
    magic = fh.read(2)
    if len(magic) < 2 or magic[0:1] != b"P":
        raise FormatError(f"{path}: not a PNM file (bad magic)")
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported PNM magic {magic!r}")

    tokens: list[int] = []
    byte = fh.read(1)
    while len(tokens) < 3:
        if byte.isspace():
            byte = fh.read(1)
        elif byte == b"#":
            if not fh.readline().endswith(b"\n"):
                raise FormatError(f"{path}: unterminated comment in header")
            byte = fh.read(1)
        else:
            tok = bytearray()
            while byte and not byte.isspace():
                tok += byte
                byte = fh.read(1)
            if not tok.isdigit() or len(tok) > 20:  # int() refuses 4,301 digits
                raise FormatError(f"{path}: malformed header token {bytes(tok)!r:.40}")
            tokens.append(int(tok))
    if not byte:  # the single whitespace byte after maxval, read already
        raise FormatError(f"{path}: header ends before raster data")
    width, height, found = tokens
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive dimensions {width}x{height}")
    if maxval == 65535 and magic != b"P5":
        raise FormatError(f"{path}: 16-bit label maps must be P5, got {magic!r}")
    if found != maxval:
        raise FormatError(f"{path}: expected maxval {maxval}, got {found}")
    return _PNM_DTYPES[maxval], (height, width) if magic == b"P5" else (height, width, 3)


def open_pgm16(path: str | Path) -> TensorFile:
    """Open a 16-bit PGM label map and check its header against its
    length; the samples are read later, through the returned handle."""
    return TensorFile(Path(path), lambda fh, path, size: _pnm_header(fh, path, 65535))


def read_pnm(path: str | Path) -> np.ndarray:
    """Read an 8-bit binary PGM or PPM as a read-only (H, W) or (H, W, 3)
    uint8 array."""
    raster = TensorFile(Path(path), lambda fh, path, size: _pnm_header(fh, path, 255))
    try:
        image = raster.read()
    finally:
        raster.close()
    image.setflags(write=False)
    return image


def _write_raster(arr: np.ndarray, path: str | Path, magic: bytes, dtype) -> None:
    """Write ``arr`` under a PNM header whose maxval is ``dtype``'s largest
    value, samples most-significant byte first; refuse any other dtype,
    whose values the cast could wrap."""
    if arr.dtype != dtype:
        raise FormatError(f"cannot write {arr.dtype} samples as PNM; expected {np.dtype(dtype)}")
    h, w = arr.shape[:2]
    header = magic + f"\n{w} {h}\n{np.iinfo(dtype).max}\n".encode("ascii")
    # copies only to swap the byte order or to gather a strided view
    samples = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder(">"))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples)


def write_pnm(image: np.ndarray, path: str | Path) -> None:
    """Write uint8 (H, W) as P5 or (H, W, 3) as P6, maxval 255."""
    if image.ndim == 2:
        magic = b"P5"
    elif image.ndim == 3 and image.shape[2] == 3:
        magic = b"P6"
    else:
        raise FormatError(f"cannot write array of shape {image.shape} as PNM")
    _write_raster(image, path, magic, np.uint8)


def write_pgm16(grid: np.ndarray, path: str | Path) -> None:
    """Write uint16 (H, W) as P5 with maxval 65535, MSB first."""
    if grid.ndim != 2:
        raise FormatError(f"cannot write array of shape {grid.shape} as PGM")
    _write_raster(grid, path, b"P5", np.uint16)


def _ppt1_header(fh, path: Path, size: int) -> tuple[np.dtype, tuple[int, ...]]:
    if size < 8:
        raise FormatError(f"{path}: file shorter than the fixed header")
    header = fh.read(8)
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
    dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    count = math.prod(dims)
    if count > _MAX_ELEMENTS:
        raise FormatError(f"{path}: dimension product overflow ({count} elements)")
    dtype = _DTYPES[code]
    if size - dims_end > count * dtype.itemsize:
        raise FormatError(f"{path}: trailing bytes after payload")
    return dtype, dims


def read_tensor(path: str | Path) -> TensorFile:
    """Open a PPT1 tensor file and check its header against its length;
    the payload is read later, through the returned handle."""
    return TensorFile(Path(path), _ppt1_header)


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
    the taxonomy."""
    paths = [stem.with_name(stem.name + suffix) for suffix in SAMPLE_SUFFIXES]
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


def open_label_triple(stem: str | Path) -> LabelTriple:
    """Open ``<stem>.{sem,inst,part}.pgm`` as a LabelTriple of open_pgm16
    handles, whose rows are read when they are needed."""
    sem, inst, part = map(open_pgm16, triple_paths(stem))
    if not (sem.shape == inst.shape == part.shape):
        raise ValidationError(
            f"label triple {stem}: dimension mismatch "
            f"{sem.shape} / {inst.shape} / {part.shape}"
        )
    return LabelTriple(sem, inst, part)


def read_label_triple(stem: str | Path) -> LabelTriple:
    """Read ``<stem>.{sem,inst,part}.pgm`` whole into a LabelTriple."""
    return LabelTriple(*(m.read() for m in open_label_triple(stem).maps))


def write_label_triple(triple: LabelTriple, stem: str | Path) -> None:
    for grid, path in zip(triple.maps, triple_paths(stem)):
        write_pgm16(grid, path)


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
        mask.close()  # fuse reads it once, opening it again
        out.append(InstanceProposal(entry.class_id, entry.confidence, mask))
    return tuple(out)
