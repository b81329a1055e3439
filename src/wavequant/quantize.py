"""Statistical multilevel thresholding of detail coefficients.

The value range is partitioned into at most L blocks (L in {3, 5, 7}) and
every coefficient is replaced by the centroid of its block.  The partition
is intentionally unequal: a single block two standard deviations wide
covers the densely populated center of the distribution, while the sparse
extremes, which carry the large-magnitude coefficients, get subdivided.

Each stage refines the previous one, so the cut sets nest
(cuts(3) <= cuts(5) <= cuts(7) as sets):

  L = 3   cut at mu - sigma and mu + sigma (moments over all coefficients);
          center block [mu-sigma, mu+sigma), unbounded tail blocks.
  L = 5   additionally cut each nonempty tail at that tail's own mean.
  L = 7   additionally cut the lower tail at mean - sigma and the upper
          tail at mean + sigma of that tail's members, placing one extra
          cut toward each extreme.

A tail cut is dropped when it is degenerate (zero spread), does not fall
strictly inside its tail's interval or repeats a cut, so the block count
never exceeds L.  The raw L = 3 pair itself can coincide: when sigma is
below half an ulp of mu, mu - sigma and mu + sigma round to one float and
the center block is empty.  Blocks are half-open [lo, hi): a coefficient
equal to a boundary belongs to the upper block.  Empty blocks are merged
away, so BlockPartition boundaries are strictly increasing, and the block
count can only shrink further.  A zero overall spread yields a single block.

Every mean, variance and centroid divides an exactly rounded sum, equal
bit for bit to math.fsum of the same values, by the member count.  The sum
is exact integer arithmetic (exponent-binned accumulation after Demmel and
Hida, "Accurate and efficient floating point summation", 2003): each value
is split by its binary exponent into two 26-bit integer halves, one
np.bincount per half adds them per (group, exponent) without rounding, and
each group's total is one Python int in units of 2**-1126, of which every
finite float64 is an integer multiple, rounded once to float64.  Totals of
any value sets share that unit, so they add and subtract as plain ints.  The
result does not depend on summation order, so every output is invariant
under permutation of the input.  Unlike fsum, a sum raises only when its
exact value overflows float64, never for an overflowing partial sum.

A value's block is the count of cuts at or below it, so a tie goes to the
upper block.  Only mu and sigma read the whole band: one split of the values
and one of their squared deviations from mu.  The centre block [mu-sigma,
mu+sigma) is never cut again, so everything after that reads only the tail
members: their means and stds, the L=5 and L=7 cuts, which refine the tail
members' block index in place, and the exact totals of the fine tail blocks.
The centre's size and total follow by exact subtraction from the band's, and
its block is the count of surviving lower-tail cuts plus one.  The blocks of
a coarser L are unions of those fine blocks, whose exact sums add, so each L
maps the band through a table of at most 7 centroids.  threshold_subband
takes one L, giving the thresholded band, or a sequence of L, giving the
block index and one table per L; it builds tables only, and a BlockPartition
is built by build_partition alone.

Input contract, checked once per public call: a nonempty set of finite
coefficients; L in LEVEL_CHOICES, or a nonempty sequence of distinct such L;
and statistics that fit in float64.  Any violation raises ValueError.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

LEVEL_CHOICES = (3, 5, 7)


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Sorted interval boundaries plus one centroid per block.

    boundaries b_1 < ... < b_{m-1} split the real line into m blocks;
    representatives[i] is the centroid of block i.  Blocks are half-open
    [lo, hi), the lowest open below, the highest unbounded above.  Every
    boundary and representative is finite.
    """

    boundaries: np.ndarray
    representatives: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.asarray(self.boundaries, dtype=np.float64)
        reps = np.asarray(self.representatives, dtype=np.float64)
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "representatives", reps)
        if bounds.ndim != 1 or reps.ndim != 1:
            raise ValueError("boundaries and representatives must be 1-D")
        for name, values in (("boundaries", bounds), ("representatives", reps)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
        if reps.size != bounds.size + 1:
            raise ValueError(
                f"{reps.size} representatives for {bounds.size} boundaries; "
                "need one representative per block"
            )
        if bounds.size and not np.all(np.diff(bounds) > 0):
            raise ValueError("boundaries must be strictly increasing")


def _check_level(level) -> None:
    """An integer (operator.index) in LEVEL_CHOICES passes; a float such as 3.0 does not."""
    try:
        if operator.index(level) in LEVEL_CHOICES:
            return
    except TypeError:  # shown by its repr, so that "3" does not read as an L
        level = repr(level)
    raise ValueError(f"levels must be in {set(LEVEL_CHOICES)}, got {level}")


def level_batch(levels: int | Sequence[int]) -> tuple[int, ...]:
    """The requested L as a tuple of ints: (levels,) for one L, else the sequence's L in order.

    A sequence must be nonempty, not a set, and name each L in LEVEL_CHOICES at
    most once.  A numpy integer becomes the int it equals.
    """
    if isinstance(levels, (set, frozenset)):  # its order varies between processes
        raise ValueError(f"levels must be one L or a list of L, got {levels!r}")
    batch = (levels,) if np.ndim(levels) == 0 else tuple(levels)
    if not batch:
        raise ValueError(f"levels must name at least one L, got {levels!r}")
    for i, level in enumerate(batch):
        _check_level(level)
        if level in batch[:i]:
            raise ValueError(f"level {level} is repeated in levels {levels!r}")
    return tuple(map(operator.index, batch))


def _checked(coeffs) -> np.ndarray:
    """The input contract on coefficients: a nonempty flat set of finite floats."""
    arr = np.asarray(coeffs, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("coefficient set is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"coefficients must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr


def _overflow() -> ValueError:
    return ValueError("coefficient statistics overflow float64")


# A finite float64 x is m * 2**(e - 53), where (m / 2**53, e) = frexp(x) and m is an
# integer with |m| < 2**53.  Its halves m = high * 2**26 + low have |high| <= 2**27
# and 0 <= low < 2**26, so a float64 sum of either half over at most _CHUNK values
# is an exact integer.  As e >= -1073, every finite float64, and every exact sum of
# them, is an integer multiple of 2**-1126: the unit of every total.
_CHUNK = 1 << 26
_UNIT = 1 << 1126


class _Summands:
    """Values split once, so that the sum of any group of them is exact."""

    def __init__(self, values: np.ndarray) -> None:
        mant, exp = np.frexp(values)
        # 1024 is the top frexp exponent of a finite float64
        self.lowest = int(exp.min(initial=1024))
        self.span = int(exp.max(initial=self.lowest)) - self.lowest + 1
        exp -= self.lowest
        self.bins = exp
        # high = floor(m / 2**26) and low = m - high * 2**26; scaling by a power of two is exact
        mant *= 2.0**27
        self.high = np.floor(mant)
        mant -= self.high
        mant *= 2.0**26
        self.low = mant

    def totals(self, groups: np.ndarray, count: int) -> list[int]:
        """The exact sum of each group 0..count-1, as an int in units of 2**-1126."""
        keys = np.multiply(groups, self.span, dtype=np.intp)
        keys += self.bins
        totals = [0] * count
        for start in range(0, keys.size, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            highs, lows = (
                np.bincount(keys[chunk], half[chunk], count * self.span).reshape(count, -1)
                for half in (self.high, self.low)
            )
            group, exp = np.nonzero((highs != 0) | (lows != 0))
            for g, e, high, low in zip(
                group.tolist(), exp.tolist(), highs[group, exp].tolist(), lows[group, exp].tolist()
            ):
                totals[g] += ((int(high) << 26) + int(low)) << e
        return [t << (self.lowest + 1073) for t in totals]


def _round(total: int) -> float:
    """A total in units of 2**-1126, correctly rounded like math.fsum: int true
    division rounds once, and zero is +0.0."""
    try:
        return total / _UNIT
    except OverflowError:
        raise _overflow() from None


def _means(totals: list[int], sizes: list[int]) -> list[float]:
    """Each exact total over its count; 0.0 stands in for an empty group."""
    return [_round(t) / k if k else 0.0 for t, k in zip(totals, sizes)]


def _stds(deviations: np.ndarray, groups: np.ndarray, sizes: list[int]) -> list[float]:
    """Population std of each group from its members' deviations from the group mean,
    which are squared in place."""
    with np.errstate(over="ignore"):
        squares = np.square(deviations, out=deviations)
    if not math.isfinite(squares.max(initial=0.0)):
        raise _overflow()
    return [math.sqrt(v) for v in _means(_Summands(squares).totals(groups, len(sizes)), sizes)]


def _refine(
    arr: np.ndarray, top: int
) -> tuple[dict[int, list[float]], np.ndarray, list[int], list[int]]:
    """The sorted raw cuts of every L up to top, each value's block under the cuts
    of top (the count of those cuts at or below it), and the size and exact total
    (see _Summands.totals) of each of those blocks.

    Only mu and sigma read every value.  The centre block [mu-sigma, mu+sigma) is
    never cut again, so the tails' moments, their cuts and their block totals come
    from the tail members alone; the centre's total is the overall total minus the
    tails'.
    """
    index = np.zeros(arr.shape, dtype=np.uint8)
    (total,) = _Summands(arr).totals(index, 1)
    mean = _round(total) / arr.size
    (std,) = _stds(arr - mean, index, [arr.size])
    if std == 0.0:
        return {level: [] for level in LEVEL_CHOICES}, index, [arr.size], [total]
    cuts = [mean - std, mean + std]
    by_level = {3: cuts.copy()}
    for cut in cuts:
        index += arr >= cut
    members = np.flatnonzero(index != 1)
    tail, tail_index = arr[members], index[members]
    tail_parts = _Summands(tail)
    if top >= 5:
        # 0 and 2 for the lower and upper tail; the centre group is empty
        sizes = np.bincount(tail_index, minlength=3).tolist()
        means = _means(tail_parts.totals(tail_index, 3), sizes)
        # each nonempty tail: its group, the interval its cuts fall in, the side of its L=7 cut
        tails = [(0, -math.inf, cuts[0], -1.0), (2, cuts[1], math.inf, 1.0)]
        tails = [t for t in tails if sizes[t[0]]]
        candidates = {5: [(means[group], lo, hi) for group, lo, hi, _ in tails]}
        if top == 7:
            stds = _stds(tail - np.array(means)[tail_index], tail_index, sizes)
            candidates[7] = [
                (means[group] + side * stds[group], lo, hi)
                for group, lo, hi, side in tails
                if stds[group] > 0.0
            ]
        for level, refinement in candidates.items():
            for cut, lo, hi in refinement:
                if lo < cut < hi and cut not in cuts:
                    cuts.append(cut)
                    tail_index += tail >= cut
            by_level[level] = sorted(cuts)
    # every centre value sits above each lower-tail cut and below each upper-tail cut
    centre = 1 + sum(cut < cuts[0] for cut in cuts)
    sizes = np.bincount(tail_index, minlength=len(cuts) + 1).tolist()
    sizes[centre] = arr.size - len(members)
    totals = tail_parts.totals(tail_index, len(sizes))
    totals[centre] = total - sum(totals)
    if centre > 1:
        index += centre - 1
    index[members] = tail_index
    return by_level, index, sizes, totals


def threshold_cuts(coeffs, levels: int) -> list[float]:
    """Raw partition boundaries for L levels, before empty-block merging.

    Returned sorted ascending; nested across levels for fixed input.
    """
    _check_level(levels)
    return _refine(_checked(coeffs), levels)[0][levels]


def build_partition(coeffs, levels: int) -> BlockPartition:
    """Partition the coefficients into at most L centroid blocks; an empty block's
    span goes to a neighbor."""
    _check_level(levels)
    by_level, _, sizes, totals = _refine(_checked(coeffs), levels)
    cuts = by_level[levels]
    centroids = _means(totals, sizes)
    used = [block for block, size in enumerate(sizes) if size]
    return BlockPartition(
        np.array([cuts[block - 1] for block in used[1:]]),
        np.array([centroids[block] for block in used]),
    )


def apply_partition(coeffs, partition: BlockPartition) -> np.ndarray:
    """Replace every coefficient by the representative of its block, shaped like coeffs."""
    idx = np.searchsorted(partition.boundaries, _checked(coeffs), side="right")
    return partition.representatives[idx].reshape(np.shape(coeffs))


def threshold_subband(
    mat, levels: int | Sequence[int]
) -> np.ndarray | tuple[np.ndarray, list[np.ndarray]]:
    """Threshold one sub-band with its own statistics.

    levels is one L, giving the thresholded array, shaped like mat.  A
    sequence of L gives (index, tables): a uint8 block index shaped like mat
    and one centroid table (at most 7 entries) per L, in levels order, so
    tables[k][index] is the result for the k-th L.  The band is checked,
    summed and indexed once for all of them.
    """
    batch = level_batch(levels)
    by_level, index, sizes, totals = _refine(_checked(mat), max(batch))
    fine = by_level[max(batch)]
    tables = []
    for level in batch:
        cuts = by_level[level]
        # owner[f]: the L block of fine block f, the count of L cuts at or below its lower end
        owner = [0, *np.searchsorted(cuts, fine, side="right").tolist()]
        block_sizes, block_totals = [0] * (len(cuts) + 1), [0] * (len(cuts) + 1)
        for block, size, total in zip(owner, sizes, totals):
            block_sizes[block] += size
            block_totals[block] += total
        tables.append(np.array(_means(block_totals, block_sizes))[owner])
    index = index.reshape(np.shape(mat))
    return tables[0][index] if np.ndim(levels) == 0 else (index, tables)
