"""8-bit RGB images, binary PGM/PPM codec, size metric."""

from __future__ import annotations

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
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


class _HeaderScanner:
    """Token scanner for Netpbm headers: whitespace-separated, '#' comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_filler(self) -> None:
        while self.pos < len(self.data):
            c = self.data[self.pos:self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                nl = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if nl < 0 else nl + 1
            else:
                return

    def token(self, field: str) -> bytes:
        self._skip_filler()
        start = self.pos
        while self.pos < len(self.data):
            c = self.data[self.pos:self.pos + 1]
            if c.isspace() or c == b"#":
                break
            self.pos += 1
        if self.pos == start:
            raise NetpbmError(f"missing {field} in header")
        return self.data[start:self.pos]

    def int_token(self, field: str) -> int:
        tok = self.token(field)
        try:
            value = int(tok)
        except ValueError:
            raise NetpbmError(f"invalid {field} {tok!r}") from None
        if value <= 0:
            raise NetpbmError(f"invalid {field} {value}; must be positive")
        return value

    def payload(self) -> bytes:
        # exactly one whitespace byte separates maxval from the raster
        if self.pos >= len(self.data) or not self.data[self.pos:self.pos + 1].isspace():
            raise NetpbmError("missing whitespace before payload")
        self.pos += 1
        return self.data[self.pos:]


def read_image(data: bytes) -> RgbImage:
    """Decode binary PPM (P6) or PGM (P5, promoted to RGB), maxval 255."""
    scanner = _HeaderScanner(data)
    magic = scanner.token("magic")
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"unsupported magic {magic!r}; expected P5 or P6")
    width = scanner.int_token("width")
    height = scanner.int_token("height")
    maxval = scanner.int_token("maxval")
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval}; only 255 is supported")
    channels = 3 if magic == b"P6" else 1
    raw = scanner.payload()
    expected = width * height * channels
    if len(raw) < expected:
        raise NetpbmError(
            f"truncated payload: expected {expected} bytes, got {len(raw)}"
        )
    pixels = np.frombuffer(raw[:expected], dtype=np.uint8).reshape(height, width, channels)
    # a PGM plane (channels == 1) becomes R, G and B as views, without copying
    return RgbImage(np.broadcast_to(pixels, (height, width, 3)))


def write_image(img: RgbImage) -> bytes:
    """Encode as binary PPM (P6, maxval 255); inverse of read_image."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def encoded_size(img: RgbImage) -> int:
    """DEFLATE byte count of the interleaved pixel stream (fixed default level).

    A deterministic codec-independent size proxy for comparing how
    compressible reconstructions are.
    """
    return len(zlib.compress(img.pixels.tobytes()))
