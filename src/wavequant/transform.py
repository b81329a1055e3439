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

import numpy as np

from .filters import FilterBank


@dataclass(frozen=True, eq=False)
class SubbandTriple:
    """Detail matrices of one decomposition level: horizontal, vertical, diagonal."""

    h: np.ndarray
    v: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        for attr in ("h", "v", "d"):
            arr = np.asarray(getattr(self, attr), dtype=np.float64)
            object.__setattr__(self, attr, arr)
        if not (self.h.shape == self.v.shape == self.d.shape) or self.h.ndim != 2:
            raise ValueError(
                f"subband shapes differ: h={self.h.shape} v={self.v.shape} d={self.d.shape}"
            )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Multi-level decomposition: final approximation + per-level detail triples.

    levels[0] is the finest level; level i matrices are
    (source_height / 2^(i+1)) x (source_width / 2^(i+1)).
    """

    approx: np.ndarray
    levels: tuple[SubbandTriple, ...]
    depth: int
    source_width: int
    source_height: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "approx", np.asarray(self.approx, dtype=np.float64))
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.depth < 1 or len(self.levels) != self.depth:
            raise ValueError(
                f"depth {self.depth} does not match {len(self.levels)} detail levels"
            )
        for i, triple in enumerate(self.levels):
            want = (self.source_height // 2 ** (i + 1), self.source_width // 2 ** (i + 1))
            if triple.h.shape != want:
                raise ValueError(
                    f"level {i} subbands have shape {triple.h.shape}, expected {want}"
                )
        if self.approx.shape != self.levels[-1].h.shape:
            raise ValueError(
                f"approximation shape {self.approx.shape} does not match deepest "
                f"level {self.levels[-1].h.shape}"
            )


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
    return Decomposition(
        approx=a,
        levels=tuple(triples),
        depth=depth,
        source_width=width,
        source_height=height,
    )


def idwt2d(dec: Decomposition, fb: FilterBank) -> np.ndarray:
    """Exact inverse of dwt2d (mirrors the row/column order of the analysis)."""
    h, g = fb.lowpass, fb.highpass
    a = dec.approx
    for triple in reversed(dec.levels):
        lo = _synthesize_rows(a.T, triple.h.T, h, g).T
        hi = _synthesize_rows(triple.v.T, triple.d.T, h, g).T
        a = _synthesize_rows(lo, hi, h, g)
    return a
