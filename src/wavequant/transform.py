"""Separable 2-D orthogonal DWT with periodic extension, multi-level, exact inverse.

Phase convention, fixed for reproducibility:

    approx[k] = sum_n h[n] * x[(2k + n) mod N]
    detail[k] = sum_n g[n] * x[(2k + n) mod N]

The inverse is the adjoint of this operator, which for an orthonormal bank
is the exact inverse for every even N (including N < filter length, where
the periodized taps fold).  Equivalently: upsample by two and circularly
filter with the time-reversed (synthesis) filters.
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


def _analyze_rows(a: np.ndarray, h: np.ndarray, g: np.ndarray):
    """One analysis pass along the last axis of a 2-D array."""
    n = a.shape[1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
    windows = a[:, idx]
    return windows @ h, windows @ g


def _synthesize_rows(ca: np.ndarray, cd: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Adjoint of _analyze_rows: scatter each coefficient back over its window."""
    rows, half = ca.shape
    n = 2 * half
    up_a = np.zeros((rows, n))
    up_a[:, ::2] = ca
    up_d = np.zeros((rows, n))
    up_d[:, ::2] = cd
    out = np.zeros((rows, n))
    for k in range(h.size):
        out += h[k] * np.roll(up_a, k, axis=1) + g[k] * np.roll(up_d, k, axis=1)
    return out


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
    h, g = fb.lowpass, fb.highpass
    triples = []
    for _ in range(depth):
        lo, hi = _analyze_rows(a, h, g)
        lo_lo, lo_hi = _analyze_rows(lo.T, h, g)
        hi_lo, hi_hi = _analyze_rows(hi.T, h, g)
        triples.append(SubbandTriple(h=lo_hi.T, v=hi_lo.T, d=hi_hi.T))
        a = lo_lo.T
    return Decomposition(a, tuple(triples))


def idwt2d(dec: Decomposition, fb: FilterBank) -> np.ndarray:
    """Exact inverse of dwt2d (mirrors the row/column order of the analysis)."""
    h, g = fb.lowpass, fb.highpass
    a = dec.approx
    for triple in reversed(dec.levels):
        lo = _synthesize_rows(a.T, triple.h.T, h, g).T
        hi = _synthesize_rows(triple.v.T, triple.d.T, h, g).T
        a = _synthesize_rows(lo, hi, h, g)
    return a
