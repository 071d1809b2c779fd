"""Raster primitives: PNM I/O, morphology, quantization, HSV thresholds,
connected components, hole filling and boundary masks.

Morphological operators use clipped windows (neighbourhoods intersected
with the image domain), which keeps closing extensive and idempotent all
the way to the border.  scipy.ndimage is imported inside the functions
that use it: it is most of the CLI's start-up time, and ``fuse``,
``eval`` and ``report`` never need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .pnm import read_pnm8, write_pnm8


@dataclass(frozen=True)
class Image:
    """8-bit raster, 1 channel (H, W) or 3 channels (H, W, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if px.ndim != 2 and not (px.ndim == 3 and px.shape[2] == 3):
            raise ValidationError(f"unsupported image shape {px.shape}")
        object.__setattr__(self, "pixels", px)
        px.setflags(write=False)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


@dataclass(frozen=True)
class BitMask:
    """One bit per pixel, stored as a boolean grid."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValidationError("mask must be 2-D")
        object.__setattr__(self, "bits", bits)
        bits.setflags(write=False)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        return int(self.bits.sum())


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


def read_pnm(path: str | Path) -> Image:
    """Read a binary P5/P6 file with maxval 255."""
    return Image(read_pnm8(path))


def write_pnm(image: Image, path: str | Path) -> None:
    write_pnm8(image.pixels, path)


def _check_window(window: int) -> None:
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 1, got {window}")


def morphological_close(subject, window: int):
    """Greyscale closing per channel for images, binary closing for masks.

    Dilation (windowed max) followed by erosion (windowed min) with a
    square window; extensive and idempotent.
    """
    from scipy import ndimage

    _check_window(window)
    if isinstance(subject, BitMask):
        closed = morphological_close(Image(subject.bits.astype(np.uint8)), window)
        return BitMask(closed.pixels.astype(bool))
    if isinstance(subject, Image):
        px = subject.pixels
        h, w = px.shape[:2]  # a window of 2n - 1 already covers n pixels everywhere
        size = (min(window, 2 * h - 1), min(window, 2 * w - 1), 1)[: px.ndim]
        dilated = ndimage.maximum_filter(px, size=size, mode="constant", cval=0)
        return Image(ndimage.minimum_filter(dilated, size=size, mode="constant", cval=255))
    raise ValidationError(f"cannot close object of type {type(subject).__name__}")


def quantize_colors(image: Image, levels: int = 8) -> Image:
    """Uniform per-channel quantization to ``levels`` buckets.

    Each sample maps to its bucket midpoint; the mapping is idempotent
    and palette-free.
    """
    if not 1 <= levels <= 256:
        raise ValidationError(f"levels must be in [1, 256], got {levels}")
    values = np.arange(256, dtype=np.int64)
    buckets = values * levels // 256
    lut = np.minimum((2 * buckets + 1) * 128 // levels, 255).astype(np.uint8)
    return Image(lut[image.pixels])


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


def threshold_hsv(image: Image, hsv_range: HsvRange) -> BitMask:
    """Pixels whose HSV lies inside the (possibly hue-wrapping) range.

    Each distinct colour is converted and tested once, and its pixels take
    its result: pixels sorted by 24-bit colour key form one run per colour.
    This holds one index per pixel, where ``np.unique(...,
    return_inverse=True)`` would hold three.
    """
    if image.channels != 3:
        raise ValidationError("HSV conversion needs a 3-channel image")
    px = image.pixels.reshape(-1, 3)
    keys = px[:, 0].astype(np.uint32) << 16
    keys |= px[:, 1].astype(np.uint32) << 8
    keys |= px[:, 2]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    inside = hsv_range.contains(*rgb_to_hsv(px[order[starts]]))
    bits = np.empty(keys.size, dtype=bool)
    bits[order] = np.repeat(inside, np.diff(starts, append=keys.size))
    return BitMask(bits.reshape(image.pixels.shape[:2]))


def connected_components(
    mask: BitMask, connectivity: int = 8
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
    structure = (
        np.ones((3, 3), dtype=bool)
        if connectivity == 8
        else ndimage.generate_binary_structure(2, 1)
    )
    raw, n = ndimage.label(mask.bits, structure=structure)
    if n == 0:
        return raw.astype(np.int32), np.array([mask.bits.size], dtype=np.int64)
    flat = raw.ravel()
    first = np.full(n + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    order = np.argsort(first[1:], kind="stable")  # raw label l -> rank
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[order + 1] = np.arange(1, n + 1, dtype=np.int32)
    labels = remap[raw]
    sizes = np.bincount(labels.ravel(), minlength=n + 1).astype(np.int64)
    return labels, sizes


def fill_holes(mask: BitMask) -> BitMask:
    """Set every pixel not reachable from the border through the
    background (4-connectivity); the outer contour is unchanged."""
    background = BitMask(~mask.bits)
    labels, _ = connected_components(background, connectivity=4)
    border_labels = np.unique(
        np.concatenate(
            [labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]
        )
    )
    outside = np.isin(labels, border_labels[border_labels != 0])
    return BitMask(mask.bits | (~mask.bits & ~outside))


def boundary_mask(mask: BitMask) -> BitMask:
    """Inner 1-px boundary: set pixels with a 4-neighbour outside the mask."""
    from scipy import ndimage

    grid = mask.bits.astype(np.uint8)
    eroded = ndimage.minimum_filter(
        grid, footprint=ndimage.generate_binary_structure(2, 1), mode="constant", cval=1
    )
    return BitMask(mask.bits & (eroded == 0))

