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

A candidate cut is dropped when it is degenerate (zero spread) or does not
fall strictly inside its tail's interval, so the boundary list stays
strictly increasing and the block count never exceeds L.  Blocks are
half-open [lo, hi): a coefficient equal to a boundary belongs to the upper
block.  Empty blocks are merged away, which can only shrink the block
count further.  A zero overall spread yields a single block.

Every mean, variance and centroid divides an exactly rounded sum, equal
bit for bit to math.fsum of the same values, by the member count.  The sum
is exact integer arithmetic (exponent-binned accumulation after Demmel and
Hida, "Accurate and efficient floating point summation", 2003): each value
is split by its binary exponent into two 26-bit integer halves, one
np.bincount per half adds them per (group, exponent) without rounding, and
one Python int per group is rounded once to float64.  The result does not
depend on summation order, so every output is invariant under permutation
of the input.  Unlike fsum, a sum raises only when its exact value
overflows float64, never for an overflowing partial sum.

A value's block is the count of cuts at or below it, so a tie goes to the
upper block.  The cuts nest, so each band gets one block index under the
finest requested cuts; the blocks of a coarser L are unions of those fine
blocks, whose exact sums add, and each L maps the band through a table of
at most 7 centroids.  threshold_subband takes one L or a sequence of L.

Input contract, checked once per public call: a nonempty set of finite
coefficients; L in LEVEL_CHOICES, or a nonempty sequence of distinct such L;
and statistics that fit in float64.  Any violation raises ValueError.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

LEVEL_CHOICES = (3, 5, 7)


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Sorted interval boundaries plus one centroid per block.

    boundaries b_1 < ... < b_{m-1} split the real line into m blocks;
    representatives[i] is the centroid of block i.  Blocks are half-open
    [lo, hi), the lowest open below, the highest unbounded above.
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
        if reps.size != bounds.size + 1:
            raise ValueError(
                f"{reps.size} representatives for {bounds.size} boundaries; "
                "need one representative per block"
            )
        if bounds.size and not np.all(np.diff(bounds) > 0):
            raise ValueError("boundaries must be strictly increasing")


def _check_level(level) -> None:
    if level not in LEVEL_CHOICES:
        raise ValueError(f"levels must be in {set(LEVEL_CHOICES)}, got {level}")


def level_batch(levels: int | Sequence[int]) -> tuple[tuple[int, ...], bool]:
    """The requested L as a tuple, and whether levels was one L rather than a sequence.

    A sequence must be nonempty and name each L in LEVEL_CHOICES at most once.
    """
    single = np.ndim(levels) == 0
    batch = (levels,) if single else tuple(levels)
    if not batch:
        raise ValueError(f"levels must name at least one L, got {levels!r}")
    for i, level in enumerate(batch):
        _check_level(level)
        if level in batch[:i]:
            raise ValueError(f"level {level} is repeated in levels {levels!r}")
    return batch, single


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
# is an exact integer.
_CHUNK = 1 << 26


class _Summands:
    """Values split once, so that the sum of any group of them is exact."""

    def __init__(self, values: np.ndarray) -> None:
        mant, exp = np.frexp(values)
        lowest = int(exp.min())
        self.span = int(exp.max()) - lowest + 1
        self.shift = lowest - 53
        exp -= lowest
        self.bins = exp
        # high = floor(m / 2**26) and low = m - high * 2**26, computed in place
        self.high = np.floor(np.ldexp(mant, 27))
        self.low = np.ldexp(mant, 27, out=mant)
        self.low -= self.high
        self.low *= 2.0**26

    def totals(self, groups: np.ndarray | None = None, count: int = 1) -> list[int]:
        """The exact sum of each group 0..count-1 (all values when groups is None),
        as an int t standing for t * 2**shift."""
        if groups is None:
            keys = self.bins
        else:
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
        return totals

    def round(self, total: int) -> float:
        """total * 2**shift, correctly rounded like math.fsum: int true division
        and int-to-float conversion round once, and zero is +0.0."""
        try:
            return float(total << self.shift) if self.shift >= 0 else total / (1 << -self.shift)
        except OverflowError:
            raise _overflow() from None

    def means(
        self, groups: np.ndarray | None = None, sizes: list[int] | None = None
    ) -> list[float]:
        """Mean of each group of the given sizes (of all values when groups is None);
        0.0 stands in for an empty group."""
        if groups is None:
            sizes = [self.bins.size]
        totals = self.totals(groups, len(sizes))
        return [self.round(t) / k if k else 0.0 for t, k in zip(totals, sizes)]


def _stds(
    deviations: np.ndarray, groups: np.ndarray | None = None, sizes: list[int] | None = None
) -> list[float]:
    """Population std of each group from its members' deviations from the group mean,
    which are squared in place."""
    with np.errstate(over="ignore"):
        squares = np.square(deviations, out=deviations)
    if not math.isfinite(squares.max()):
        raise _overflow()
    return [math.sqrt(v) for v in _Summands(squares).means(groups, sizes)]


def _block_index(arr: np.ndarray, cuts: list[float]) -> np.ndarray:
    """Each value's block under sorted cuts: the count of cuts at or below it, so a
    tie goes to the upper block."""
    index = np.zeros(arr.shape, dtype=np.uint8)
    for cut in cuts:
        index += arr >= cut
    return index


def _append_cut(cuts: list[float], value: float, lo: float, hi: float) -> None:
    # keep only cuts strictly inside (lo, hi) and distinct from existing ones
    if lo < value < hi and value not in cuts:
        cuts.append(value)


def _cuts(arr: np.ndarray, parts: _Summands, top: int) -> dict[int, list[float]]:
    """Sorted raw cuts of every L up to top; each L extends the cuts of the one below."""
    (mean,) = parts.means()
    (std,) = _stds(arr - mean)
    if std == 0.0:
        return {level: [] for level in LEVEL_CHOICES}
    lo_edge, hi_edge = mean - std, mean + std
    cuts = [lo_edge, hi_edge]
    by_level = {3: sorted(cuts)}
    if top >= 5:
        tail = _block_index(arr, cuts)  # 0 below mu - sigma, 2 at or above mu + sigma
        sizes = np.bincount(tail, minlength=3).tolist()
        means = parts.means(tail, sizes)
        # each nonempty tail: its group, the interval its cuts fall in, the side of its L=7 cut
        tails = [(0, -math.inf, lo_edge, -1.0), (2, hi_edge, math.inf, 1.0)]
        tails = [t for t in tails if sizes[t[0]]]
        for group, lo, hi, _ in tails:
            _append_cut(cuts, means[group], lo, hi)
        by_level[5] = sorted(cuts)
        if top == 7:
            # the centre keeps its deviations from mu, whose squares are known to fit
            means[1] = mean
            stds = _stds(arr - np.array(means)[tail], tail, sizes)
            for group, lo, hi, side in tails:
                if stds[group] > 0.0:
                    _append_cut(cuts, means[group] + side * stds[group], lo, hi)
            by_level[7] = sorted(cuts)
    return by_level


def _quantizers(
    arr: np.ndarray, batch: tuple[int, ...]
) -> tuple[np.ndarray, list[tuple[BlockPartition, np.ndarray]]]:
    """The block index of every value under the finest cuts in batch, and for each
    L its partition and the centroid it gives each of those fine blocks.

    The cuts nest, so each L block is a union of fine blocks: its size and exact
    sum add up theirs.  An empty block's span goes to a neighbor.
    """
    parts = _Summands(arr)
    by_level = _cuts(arr, parts, max(batch))
    fine = by_level[max(batch)]
    index = _block_index(arr, fine)
    sizes = np.bincount(index, minlength=len(fine) + 1).tolist()
    totals = parts.totals(index, len(fine) + 1)
    quantizers = []
    for level in batch:
        cuts = by_level[level]
        # owner[f]: the L block of fine block f, the count of L cuts at or below its lower end
        owner = [0, *np.searchsorted(cuts, fine, side="right").tolist()]
        block_sizes, block_totals = [0] * (len(cuts) + 1), [0] * (len(cuts) + 1)
        for block, size, total in zip(owner, sizes, totals):
            block_sizes[block] += size
            block_totals[block] += total
        centroids = [parts.round(t) / k if k else 0.0 for t, k in zip(block_totals, block_sizes)]
        used = [block for block, size in enumerate(block_sizes) if size]
        partition = BlockPartition(
            np.array([cuts[block - 1] for block in used[1:]]),
            np.array([centroids[block] for block in used]),
        )
        quantizers.append((partition, np.array(centroids)[owner]))
    return index, quantizers


def threshold_cuts(coeffs, levels: int) -> list[float]:
    """Raw partition boundaries for L levels, before empty-block merging.

    Returned sorted ascending; nested across levels for fixed input.
    """
    _check_level(levels)
    arr = _checked(coeffs)
    return _cuts(arr, _Summands(arr), levels)[levels]


def build_partition(coeffs, levels: int) -> BlockPartition:
    """Partition the coefficients into at most L centroid blocks."""
    _check_level(levels)
    _, [(partition, _)] = _quantizers(_checked(coeffs), (levels,))
    return partition


def apply_partition(coeffs, partition: BlockPartition) -> np.ndarray:
    """Replace every coefficient by the representative of its block."""
    arr = np.asarray(coeffs, dtype=np.float64)
    idx = np.searchsorted(partition.boundaries, arr, side="right")
    return partition.representatives[idx]


def threshold_subband(
    mat, levels: int | Sequence[int]
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Threshold one sub-band with its own statistics; each result has mat's shape.

    levels is one L, giving one array, or a sequence of L, giving a tuple
    with one array per L in that order.  The band is checked, summed and
    indexed once for all of them.
    """
    batch, single = level_batch(levels)
    index, quantizers = _quantizers(_checked(mat), batch)
    results = tuple(table[index].reshape(np.shape(mat)) for _, table in quantizers)
    return results[0] if single else results
