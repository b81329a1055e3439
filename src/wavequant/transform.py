"""Separable 2-D orthogonal DWT with periodic extension, multi-level, exact inverse.

Phase convention, fixed for reproducibility:

    approx[k] = sum_n h[n] * x[(2k + n) mod N]
    detail[k] = sum_n g[n] * x[(2k + n) mod N]

Both directions run one polyphase kernel along either axis.  Analysis applies
P_m = [[h[2m], h[2m+1]], [g[2m], g[2m+1]]] to the even and odd samples rolled
by -m.  Synthesis is the adjoint, so the exact inverse for every even N (taps
fold when N < filter length): it applies P_m^T to the coefficient pair rolled
by +m and interleaves the two outputs.  Taps are added one at a time in filter
order, so this code, not BLAS, fixes the summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .filters import FilterBank


class SubbandTriple(NamedTuple):
    """Detail matrices of one decomposition level: horizontal, vertical, diagonal."""

    h: np.ndarray
    v: np.ndarray
    d: np.ndarray


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Multi-level decomposition: final approximation + per-level detail triples.

    levels[0] is the finest level and each level is half the previous one in
    both dimensions, so an H x W plane gives level-i matrices of
    (H / 2^(i+1)) x (W / 2^(i+1)); approx has the deepest level's shape.
    """

    approx: np.ndarray
    levels: tuple[SubbandTriple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("depth must be >= 1, got 0 detail levels")
        # walk up from the approximation: every level doubles the one below it
        want, source = np.shape(self.approx), "the approximation"
        for i in reversed(range(self.depth)):
            shapes = [np.shape(band) for band in self.levels[i]]
            if len(want) != 2 or shapes != [want] * 3:
                raise ValueError(f"level {i} subband shapes {shapes} do not match {source} {want}")
            want, source = (2 * want[0], 2 * want[1]), f"twice level {i}"

    @property
    def depth(self) -> int:
        return len(self.levels)


def _polyphase(x: np.ndarray, y: np.ndarray, fb: FilterBank, axis: int, adjoint: bool):
    """(u, v) = sum_m P_m (x, y) rolled by -m along axis; P_m^T rolled by +m if adjoint."""
    p = np.stack((fb.lowpass.reshape(-1, 2), fb.highpass.reshape(-1, 2)), axis=1)
    taps, shift = (np.swapaxes(p, 1, 2), 1) if adjoint else (p, -1)
    u, v = np.zeros(x.shape), np.zeros(x.shape)
    for m, ((a, b), (c, d)) in enumerate(taps):
        xm, ym = np.roll(x, m * shift, axis), np.roll(y, m * shift, axis)
        u += a * xm
        u += b * ym
        v += c * xm
        v += d * ym
    return u, v


def _interleave(even: np.ndarray, odd: np.ndarray, axis: int) -> np.ndarray:
    shape = list(even.shape)
    shape[axis] *= 2
    return np.stack((even, odd), axis + 1).reshape(shape)


def _check_divisibility(height: int, width: int, depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    factor = 2 ** depth
    if height % factor != 0 or width % factor != 0 or height == 0 or width == 0:
        raise ValueError(
            f"plane dimensions {width}x{height} must be divisible by 2^depth = {factor}"
        )


def dwt2d(plane, fb: FilterBank, depth: int) -> Decomposition:
    """Multi-level separable 2-D analysis: rows, then columns of each half.

    Per level the plane splits into approximation plus horizontal (low across
    the row axis, high down the column axis), vertical, and diagonal detail;
    the recursion continues on the approximation.
    """
    a = np.asarray(plane, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {a.shape}")
    height, width = a.shape
    _check_divisibility(height, width, depth)
    triples = []
    for _ in range(depth):
        lo, hi = _polyphase(a[:, 0::2], a[:, 1::2], fb, 1, adjoint=False)
        lo_lo, lo_hi = _polyphase(lo[0::2], lo[1::2], fb, 0, adjoint=False)
        hi_lo, hi_hi = _polyphase(hi[0::2], hi[1::2], fb, 0, adjoint=False)
        triples.append(SubbandTriple(h=lo_hi, v=hi_lo, d=hi_hi))
        a = lo_lo
    return Decomposition(a, tuple(triples))


def idwt2d(dec: Decomposition, fb: FilterBank) -> np.ndarray:
    """Exact inverse of dwt2d (mirrors the row/column order of the analysis)."""
    a = dec.approx
    for triple in reversed(dec.levels):
        lo = _interleave(*_polyphase(a, triple.h, fb, 0, adjoint=True), 0)
        hi = _interleave(*_polyphase(triple.v, triple.d, fb, 0, adjoint=True), 0)
        a = _interleave(*_polyphase(lo, hi, fb, 1, adjoint=True), 1)
    return a
