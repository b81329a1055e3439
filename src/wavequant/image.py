"""8-bit RGB images, binary PGM/PPM codec, size metric."""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass

import numpy as np


class NetpbmError(ValueError):
    """Malformed PGM/PPM input; the message names the offending field."""


@dataclass(frozen=True, eq=False)
class RgbImage:
    """An 8-bit RGB image: one read-only (height, width, 3) uint8 array.

    The array is not copied; a read-only view of it is stored.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got dtype {arr.dtype}")
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.size == 0:
            raise ValueError(
                f"pixels must be a nonempty (H, W, 3) array, got shape {arr.shape}"
            )
        view = arr.view()
        view.setflags(write=False)
        object.__setattr__(self, "pixels", view)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RgbImage):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))  # False for unequal shapes


# one header field: whitespace and '#' comments (to end of line), then the token
_FIELD = re.compile(rb"(?:\s|#[^\n]*\n?)*([^\s#]*)")


def _field(data: bytes, pos: int, name: str) -> tuple[bytes, int]:
    """The header token at or after pos, and the offset just past it."""
    match = _FIELD.match(data, pos)
    if not match[1]:
        raise NetpbmError(f"missing {name} in header")
    return match[1], match.end()


def read_image(data: bytes) -> RgbImage:
    """Decode binary PPM (P6) or PGM (P5, promoted to RGB), maxval 255, with
    digit-only numeric fields and no byte after the raster."""
    magic, pos = _field(data, 0, "magic")
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"unsupported magic {magic!r}; expected P5 or P6")
    sizes = []
    for name in ("width", "height", "maxval"):
        token, pos = _field(data, pos, name)
        try:
            value = int(token) if token.isdigit() else None
        except ValueError:  # more digits than int() converts
            value = None
        if value is None:
            raise NetpbmError(f"invalid {name} {token!r}")
        if value == 0:
            raise NetpbmError(f"invalid {name} 0; must be positive")
        sizes.append(value)
    width, height, maxval = sizes
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval}; only 255 is supported")
    if not data[pos:pos + 1].isspace():
        raise NetpbmError("missing whitespace before payload")
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    got = len(data) - pos - 1
    if got < expected:
        raise NetpbmError(f"truncated payload: expected {expected} bytes, got {got}")
    if got > expected:
        raise NetpbmError(f"{got - expected} bytes after the raster")
    pixels = np.frombuffer(data, np.uint8, expected, pos + 1).reshape(height, width, channels)
    # a PGM plane (channels == 1) becomes R, G and B as views, without copying
    return RgbImage(np.broadcast_to(pixels, (height, width, 3)))


def write_image(img: RgbImage) -> bytes:
    """Encode as binary PPM (P6, maxval 255); inverse of read_image."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def encoded_size(img: RgbImage) -> int:
    """DEFLATE byte count of the interleaved pixel stream (fixed default level).

    A deterministic codec-independent size proxy for comparing how
    compressible reconstructions are.  A C-contiguous pixel array is
    compressed in place, without a copy.
    """
    return len(zlib.compress(np.ascontiguousarray(img.pixels)))
