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

Each sub-band is sorted once.  A block [lo, hi) is then a contiguous slice
of the sorted values, from the count of values below lo to the count below
hi (np.searchsorted, side="left", so a tie goes to the upper block), and
every mean, variance and centroid is a math.fsum over a slice.  fsum is
exactly rounded, so its result does not depend on summation order: a slice
sum equals, bit for bit, the sum of the same members in input order, and
every output is invariant under permutation of the input.  Each slice is
summed once for all requested L: the overall moments, the whole tails and
the centre block serve L = 3, 5 and 7 alike, and the L = 3 tail centroid is
the L = 5 tail-mean cut.  threshold_subband takes one L or a sequence of L.

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


class _SortedBand:
    """A coefficient set sorted once, so that every block [lo, hi) is the
    slice values[rank(lo):rank(hi)].  Slice sums are kept: a block, tail or
    moment that several L share is summed once."""

    def __init__(self, arr: np.ndarray) -> None:
        self.sorted = np.sort(arr)
        self.values = self.sorted.tolist()
        self.size = arr.size
        self._sums: dict[tuple[int, int], float] = {}

    def rank(self, cut: float) -> int:
        """Number of values strictly below cut: the start of the block that cut opens."""
        return int(np.searchsorted(self.sorted, cut, side="left"))

    def mean(self, a: int, b: int) -> float:
        if (a, b) not in self._sums:
            try:
                self._sums[a, b] = math.fsum(self.values[a:b])
            except OverflowError:
                raise _overflow() from None
        return self._sums[a, b] / (b - a)

    def mean_std(self, a: int, b: int) -> tuple[float, float]:
        """Population moments of values[a:b]: mean = sum(c)/N, std = sqrt(sum((c-mean)^2)/N)."""
        mean = self.mean(a, b)
        with np.errstate(over="ignore"):
            squares = ((self.sorted[a:b] - mean) ** 2).tolist()
        try:
            var = math.fsum(squares) / (b - a)
        except OverflowError:
            raise _overflow() from None
        if not math.isfinite(var):
            raise _overflow()
        return mean, math.sqrt(var)


def _append_cut(cuts: list[float], value: float, lo: float, hi: float) -> None:
    # keep only cuts strictly inside (lo, hi) and distinct from existing ones
    if lo < value < hi and value not in cuts:
        cuts.append(value)


def _cuts(band: _SortedBand, top: int) -> dict[int, list[float]]:
    """Sorted raw cuts of every L up to top; each L extends the cuts of the one below."""
    mean, std = band.mean_std(0, band.size)
    if std == 0.0:
        return {level: [] for level in LEVEL_CHOICES}
    lo_edge = mean - std
    hi_edge = mean + std
    cuts = [lo_edge, hi_edge]
    by_level = {3: sorted(cuts)}
    if top >= 5:
        n = band.size
        a, b = band.rank(lo_edge), band.rank(hi_edge)  # tails [0, a) and [b, n)
        if a:
            _append_cut(cuts, band.mean(0, a), -math.inf, lo_edge)
        if b < n:
            _append_cut(cuts, band.mean(b, n), hi_edge, math.inf)
        by_level[5] = sorted(cuts)
        if top == 7:
            if a:
                tail_mean, tail_std = band.mean_std(0, a)
                if tail_std > 0.0:
                    _append_cut(cuts, tail_mean - tail_std, -math.inf, lo_edge)
            if b < n:
                tail_mean, tail_std = band.mean_std(b, n)
                if tail_std > 0.0:
                    _append_cut(cuts, tail_mean + tail_std, hi_edge, math.inf)
            by_level[7] = sorted(cuts)
    return by_level


def _partition(band: _SortedBand, cuts: list[float]) -> BlockPartition:
    """One centroid per nonempty block; an empty block's span goes to a neighbor."""
    edges = [0, *np.searchsorted(band.sorted, cuts, side="left").tolist(), band.size]
    boundaries: list[float] = []
    representatives: list[float] = []
    for block, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if a == b:
            continue
        if representatives:
            boundaries.append(cuts[block - 1])
        representatives.append(band.mean(a, b))
    return BlockPartition(np.array(boundaries), np.array(representatives))


def threshold_cuts(coeffs, levels: int) -> list[float]:
    """Raw partition boundaries for L levels, before empty-block merging.

    Returned sorted ascending; nested across levels for fixed input.
    """
    _check_level(levels)
    return _cuts(_SortedBand(_checked(coeffs)), levels)[levels]


def build_partition(coeffs, levels: int) -> BlockPartition:
    """Partition the coefficients into at most L centroid blocks."""
    _check_level(levels)
    band = _SortedBand(_checked(coeffs))
    return _partition(band, _cuts(band, levels)[levels])


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
    with one array per L in that order.  The band is checked and sorted
    once for all of them.
    """
    batch, single = level_batch(levels)
    arr = _checked(mat)
    band = _SortedBand(arr)
    cuts = _cuts(band, max(batch))
    results = tuple(
        apply_partition(arr, _partition(band, cuts[level])).reshape(np.shape(mat))
        for level in batch
    )
    return results[0] if single else results
