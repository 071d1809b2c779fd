"""Raster primitives: PNM I/O, morphology, quantization, HSV thresholds,
connected components, hole filling and boundary masks.

Images are uint8 arrays, (H, W) or (H, W, 3); the PNM writers refuse any
other dtype rather than wrap its values.  Masks are 2-D bool arrays.
Connected components come numbered in raster order of their first pixel,
as ``ndimage.label`` itself numbers them.

Morphological operators use clipped windows (neighbourhoods intersected
with the image domain), which keeps closing extensive and idempotent all
the way to the border.  scipy.ndimage is imported inside the functions
that use it: it is most of the CLI's start-up time, and ``fuse``,
``eval`` and ``report`` never need it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError


@dataclass(frozen=True)
class HsvRange:
    """Inclusive HSV box; a hue range with h_min > h_max wraps through 0."""

    noun = "an HSV range"  # in decode's messages

    h_min: float = 0.0
    h_max: float = 360.0 - 1e-9
    s_min: float = 0.0
    s_max: float = 1.0
    v_min: float = 0.0
    v_max: float = 1.0

    def __post_init__(self):
        for h in (self.h_min, self.h_max):
            if not 0.0 <= h < 360.0:
                raise ValidationError("hue bounds must lie in [0, 360)")
        if not (0.0 <= self.s_min <= self.s_max <= 1.0):
            raise ValidationError("saturation bounds must be ordered in [0, 1]")
        if not (0.0 <= self.v_min <= self.v_max <= 1.0):
            raise ValidationError("value bounds must be ordered in [0, 1]")

    def contains(self, h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.h_min <= self.h_max:
            hue_ok = (h >= self.h_min) & (h <= self.h_max)
        else:
            hue_ok = (h >= self.h_min) | (h <= self.h_max)
        return (
            hue_ok
            & (s >= self.s_min)
            & (s <= self.s_max)
            & (v >= self.v_min)
            & (v <= self.v_max)
        )


def _read_header(fh, path: Path) -> tuple[bytes, int, int, int]:
    """Parse magic, width, height, maxval, leaving ``fh`` at the first raster byte.

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
            if not tok.isdigit():
                raise FormatError(f"{path}: malformed header token {bytes(tok)!r}")
            tokens.append(int(tok))
    if not byte:  # the single whitespace byte after maxval, read already
        raise FormatError(f"{path}: header ends before raster data")
    width, height, maxval = tokens
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive dimensions {width}x{height}")
    return magic, width, height, maxval


def _raster(fh, shape: tuple[int, ...], dtype, path: Path) -> np.ndarray:
    """A new array of the ``shape`` samples that follow in the unbuffered ``fh``."""
    if os.fstat(fh.fileno()).st_size - fh.tell() < math.prod(shape) * np.dtype(dtype).itemsize:
        raise FormatError(f"{path}: truncated raster data")
    out = np.empty(shape, dtype)
    view = memoryview(out.reshape(-1).view(np.uint8))
    while view and (n := fh.readinto(view)):
        view = view[n:]
    if view:  # the file shrank since it was opened
        raise FormatError(f"{path}: truncated raster data")
    return out


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


def read_pnm(path: str | Path) -> np.ndarray:
    """Read an 8-bit binary PGM or PPM as a read-only (H, W) or (H, W, 3)
    uint8 array."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        magic, width, height, maxval = _read_header(fh, path)
        if maxval != 255:
            raise FormatError(f"{path}: expected maxval 255, got {maxval}")
        shape = (height, width) if magic == b"P5" else (height, width, 3)
        image = _raster(fh, shape, np.uint8, path)
    image.setflags(write=False)
    return image


def write_pnm(image: np.ndarray, path: str | Path) -> None:
    """Write uint8 (H, W) as P5 or (H, W, 3) as P6, maxval 255."""
    if image.ndim == 2:
        magic = b"P5"
    elif image.ndim == 3 and image.shape[2] == 3:
        magic = b"P6"
    else:
        raise FormatError(f"cannot write array of shape {image.shape} as PNM")
    _write_raster(image, path, magic, np.uint8)


def read_pgm16(path: str | Path) -> np.ndarray:
    """Read a 16-bit binary PGM (maxval 65535, MSB first) as a new (H, W) uint16 array."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        magic, width, height, maxval = _read_header(fh, path)
        if magic != b"P5":
            raise FormatError(f"{path}: 16-bit label maps must be P5, got {magic!r}")
        if maxval != 65535:
            raise FormatError(f"{path}: expected maxval 65535, got {maxval}")
        grid = _raster(fh, (height, width), np.uint16, path)
    if np.little_endian:
        grid.byteswap(inplace=True)
    return grid


def write_pgm16(grid: np.ndarray, path: str | Path) -> None:
    """Write uint16 (H, W) as P5 with maxval 65535, MSB first."""
    if grid.ndim != 2:
        raise FormatError(f"cannot write array of shape {grid.shape} as PGM")
    _write_raster(grid, path, b"P5", np.uint16)


def _check_window(window: int) -> None:
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 1, got {window}")


def morphological_close(image: np.ndarray, window: int) -> np.ndarray:
    """Greyscale closing per channel.

    Dilation (windowed max) followed by erosion (windowed min) with a
    square window; extensive and idempotent.
    """
    from scipy import ndimage

    _check_window(window)
    h, w = image.shape[:2]  # a window of 2n - 1 already covers n pixels everywhere
    size = (min(window, 2 * h - 1), min(window, 2 * w - 1), 1)[: image.ndim]
    dilated = ndimage.maximum_filter(image, size=size, mode="constant", cval=0)
    return ndimage.minimum_filter(dilated, size=size, mode="constant", cval=255)


def quantize_colors(image: np.ndarray, levels: int = 8) -> np.ndarray:
    """Uniform per-channel quantization to ``levels`` buckets.

    Each sample maps to its bucket midpoint; the mapping is idempotent
    and palette-free.
    """
    if not 1 <= levels <= 256:
        raise ValidationError(f"levels must be in [1, 256], got {levels}")
    values = np.arange(256, dtype=np.int64)
    buckets = values * levels // 256
    lut = np.minimum((2 * buckets + 1) * 128 // levels, 255).astype(np.uint8)
    return lut[image]


def rgb_to_hsv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hexcone conversion of uint8 RGB triples of shape (..., 3).

    Returns float64 arrays of shape (...): hue in degrees [0, 360),
    saturation and value in [0, 1].  With r, g, b scaled to [0, 1],
    max = v and delta = max - min, hue is ``60 * mod((g - b) / delta, 6)``
    where red is the maximum, ``60 * ((b - r) / delta + 2)`` where green
    is, ``60 * ((r - g) / delta + 4)`` otherwise, then taken mod 360;
    ties go to red, then green.  Hue is 0 for achromatic inputs.
    """
    if rgb.shape[-1:] != (3,):
        raise ValidationError(f"HSV conversion needs (..., 3) triples, got {rgb.shape}")
    px = rgb.astype(np.float64) / 255.0
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    v = px.max(axis=-1)
    delta = v - px.min(axis=-1)
    s = np.where(v > 0, delta / np.where(v > 0, v, 1.0), 0.0)
    chromatic = delta > 0
    safe = np.where(chromatic, delta, 1.0)
    h = np.select(
        [chromatic & (v == r), chromatic & (v == g), chromatic],
        [
            60.0 * np.mod((g - b) / safe, 6.0),
            60.0 * ((b - r) / safe + 2.0),
            60.0 * ((r - g) / safe + 4.0),
        ],
    )
    return np.mod(h, 360.0), s, v


def first_hsv_range(colors: np.ndarray, ranges) -> np.ndarray:
    """For each uint8 RGB colour of ``colors`` (..., 3), the index of the
    first of ``ranges`` that holds its HSV, else ``len(ranges)``.

    Each distinct colour is converted and tested once, and its pixels take
    its result: entries sorted by 24-bit colour key form one run per
    colour.  This holds one index per entry, where ``np.unique(...,
    return_inverse=True)`` would hold three.
    """
    if colors.ndim < 2 or colors.shape[-1] != 3:
        raise ValidationError(f"HSV conversion needs (..., 3) triples, got {colors.shape}")
    px = colors.reshape(-1, 3)
    keys = px[:, 0].astype(np.uint32) << 16
    keys |= px[:, 1].astype(np.uint32) << 8
    keys |= px[:, 2]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    hsv = rgb_to_hsv(px[order[starts]])
    index = np.full(starts.size, len(ranges), dtype=np.min_scalar_type(len(ranges)))
    for i in reversed(range(len(ranges))):  # the first range written last wins
        index[ranges[i].contains(*hsv)] = i
    out = np.empty(keys.size, dtype=index.dtype)
    out[order] = np.repeat(index, np.diff(starts, append=keys.size))
    return out.reshape(colors.shape[:-1])


def threshold_hsv(image: np.ndarray, hsv_range: HsvRange) -> np.ndarray:
    """Mask of the pixels whose HSV lies inside the (possibly
    hue-wrapping) range."""
    if image.ndim != 3:
        raise ValidationError("HSV conversion needs a 3-channel image")
    return first_hsv_range(image, [hsv_range]) == 0


def connected_components(
    mask: np.ndarray, connectivity: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Label connected regions.

    Returns (labels, sizes): labels is an int32 grid with components
    numbered 1..N by raster order of their first pixel and 0 as
    background; sizes[i] is the pixel count of component i (sizes[0] is
    the background count).
    """
    from scipy import ndimage

    if connectivity not in (4, 8):
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")
    structure = ndimage.generate_binary_structure(2, 2 if connectivity == 8 else 1)
    labels, n = ndimage.label(mask, structure=structure)
    return labels, np.bincount(labels.ravel(), minlength=n + 1)


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Set every pixel not reachable from the border through the
    background (4-connectivity); the outer contour is unchanged."""
    labels, _ = connected_components(~mask, connectivity=4)
    border_labels = np.unique(
        np.concatenate(
            [labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]
        )
    )
    outside = np.isin(labels, border_labels[border_labels != 0])
    return mask | ~outside


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Inner 1-px boundary: set pixels with a 4-neighbour outside the mask."""
    from scipy import ndimage

    return mask & ~ndimage.binary_erosion(mask, border_value=1)
