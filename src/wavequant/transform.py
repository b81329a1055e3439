"""Separable 2-D orthogonal DWT with periodic extension, multi-level, exact inverse.

Phase convention, fixed for reproducibility:

    approx[k] = sum_n h[n] * x[(2k + n) mod N]
    detail[k] = sum_n g[n] * x[(2k + n) mod N]

Both directions run one lifting kernel along either axis.  Analysis copies
the even and odd samples into two C-contiguous channels, runs the bank's
lifting steps (FilterBank.steps) on them in order, then scales and shifts
each channel (FilterBank.scaling).  Synthesis undoes the scaling and runs the
steps in reverse with negated coefficients, so it is the exact inverse by
construction for every even N: powers and shifts are taken modulo N / 2,
which folds the taps when N is shorter than the filter, down to N = 2.  A
shifted channel is one flat multiply plus a fix-up of the wrapped positions,
so every multiply and add over a whole channel reads and writes contiguous
memory and the row passes need no transposed copy.  Each term is one multiply and one add, in
the listed order, so the steps, not BLAS or SIMD dispatch, fix the summation
order.  The kernel never writes into its inputs.
"""

from __future__ import annotations

import operator
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


def _shift_scale(x: np.ndarray, power: int, coeff: float, out: np.ndarray) -> np.ndarray:
    """out[:, k] = coeff * x[:, (k + power) mod n] on (outer, n, inner) C-contiguous arrays.

    One multiply reads x flattened, shifted by the smaller of the two
    equivalent shifts; a second rewrites the |shift| wrapped positions,
    which the flat read took from the neighbouring outer index.
    """
    n, inner = x.shape[1:]
    q = power % n
    if 2 * q > n:
        q -= n
    flat, out_flat = x.reshape(-1), out.reshape(-1)
    d = q * inner
    if q >= 0:
        np.multiply(flat[d:], coeff, out=out_flat[: flat.size - d])
        np.multiply(x[:, :q], coeff, out=out[:, n - q:])
    else:
        np.multiply(flat[: flat.size + d], coeff, out=out_flat[-d:])
        np.multiply(x[:, n + q:], coeff, out=out[:, :-q])
    return out


def _lift(s: list[np.ndarray], steps, sign: float, tmp: np.ndarray) -> None:
    """Run lifting steps in place on the channel pair s, coefficients times sign."""
    for target, terms in steps:
        for power, coeff in terms:
            s[target] += _shift_scale(s[1 - target], power, sign * coeff, tmp)


def _pairs(x: np.ndarray, axis: int) -> np.ndarray:
    """x as (outer, n, 2, inner): [:, k, 0] and [:, k, 1] are samples 2k and 2k + 1 along axis."""
    height, width = x.shape
    return x.reshape((1, height // 2, 2, width) if axis == 0 else (height, width // 2, 2, 1))


def _analysis(x: np.ndarray, axis: int, fb: FilterBank) -> tuple[np.ndarray, np.ndarray]:
    """(approx, detail) of the 2-D array x along axis, each half its length there."""
    pairs = _pairs(x, axis)
    s = [pairs[:, :, 0].copy(), pairs[:, :, 1].copy()]
    tmp = np.empty_like(s[0])
    _lift(s, fb.steps, 1.0, tmp)
    shape = list(x.shape)
    shape[axis] //= 2
    # the scratch buffer and then the spent even channel take the outputs
    (scale0, shift0), (scale1, shift1) = fb.scaling
    approx = _shift_scale(s[0], shift0, scale0, tmp).reshape(shape)
    detail = _shift_scale(s[1], shift1, scale1, s[0]).reshape(shape)
    return approx, detail


def _synthesis(approx: np.ndarray, detail: np.ndarray, axis: int, fb: FilterBank) -> np.ndarray:
    """Inverse of _analysis: the 2-D array whose (approx, detail) along axis these are."""
    shape = list(approx.shape)
    shape[axis] *= 2
    out = np.empty(shape)
    pairs = _pairs(out, axis)
    channel = pairs[:, :, 0].shape
    s = [
        _shift_scale(np.reshape(band, channel), -shift, 1.0 / scale, np.empty(channel))
        for band, (scale, shift) in zip((approx, detail), fb.scaling)
    ]
    _lift(s, reversed(fb.steps), -1.0, np.empty(channel))
    pairs[:, :, 0], pairs[:, :, 1] = s
    return out


def _check_depth(depth) -> int:
    """depth as an int; a ValueError naming depth unless it is an integer >= 1, not a bool."""
    try:
        if isinstance(depth, bool):
            raise TypeError
        depth = operator.index(depth)
    except TypeError:
        raise ValueError(f"depth must be an integer, got {depth!r}") from None
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return depth


def _check_divisibility(height: int, width: int, depth: int) -> None:
    factor = 2 ** _check_depth(depth)
    if height % factor != 0 or width % factor != 0 or height == 0 or width == 0:
        raise ValueError(
            f"plane dimensions {width}x{height} must be divisible by 2^depth = {factor}"
        )


def _check_finite(a: np.ndarray, name: str) -> None:
    """A ValueError naming name and the first non-finite position of a, if there is one."""
    if not np.isfinite(a).all():
        position = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        raise ValueError(f"{name} must be finite, got {a[position]} at {position}")


def dwt2d(plane, fb: FilterBank, depth: int) -> Decomposition:
    """Multi-level separable 2-D analysis: rows, then columns of each half.

    Per level the plane splits into approximation plus horizontal (low across
    the row axis, high down the column axis), vertical, and diagonal detail;
    the recursion continues on the approximation.  A plane that is not finite,
    or whose transform overflows float64, raises a ValueError.
    """
    a = np.asarray(plane, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {a.shape}")
    height, width = a.shape
    _check_divisibility(height, width, depth)
    _check_finite(a, "plane")
    triples = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(depth):
                lo, hi = _analysis(a, 1, fb)
                lo_lo, lo_hi = _analysis(lo, 0, fb)
                hi_lo, hi_hi = _analysis(hi, 0, fb)
                triples.append(SubbandTriple(h=lo_hi, v=hi_lo, d=hi_hi))
                a = lo_lo
    except FloatingPointError as err:
        raise ValueError(f"dwt2d of plane overflows float64: {err}") from err
    return Decomposition(a, tuple(triples))


def idwt2d(dec: Decomposition, fb: FilterBank) -> np.ndarray:
    """Exact inverse of dwt2d (mirrors the row/column order of the analysis).

    An approximation or band that is not finite, or an inverse that overflows
    float64, raises a ValueError.
    """
    _check_finite(dec.approx, "approximation")
    for i, triple in enumerate(dec.levels):
        for kind, band in zip(triple._fields, triple):
            _check_finite(band, f"level {i} {kind} band")
    a = dec.approx
    try:
        with np.errstate(over="raise", invalid="raise"):
            for triple in reversed(dec.levels):
                lo = _synthesis(a, triple.h, 0, fb)
                hi = _synthesis(triple.v, triple.d, 0, fb)
                a = _synthesis(lo, hi, 1, fb)
    except FloatingPointError as err:
        raise ValueError(f"idwt2d of dec overflows float64: {err}") from err
    return a
