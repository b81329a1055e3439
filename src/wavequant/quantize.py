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

All reductions (means, variances, centroids) use exactly rounded summation
(math.fsum), making every output invariant under permutation of the input
coefficients.

Input contract, checked once per public call: a nonempty set of finite
coefficients, L in LEVEL_CHOICES, and statistics that fit in float64.  Any
violation raises ValueError.
"""

from __future__ import annotations

import math
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


def _checked(coeffs, levels: int) -> np.ndarray:
    """The input contract: L in LEVEL_CHOICES, a nonempty flat set of finite floats."""
    if levels not in LEVEL_CHOICES:
        raise ValueError(f"levels must be in {set(LEVEL_CHOICES)}, got {levels}")
    arr = np.asarray(coeffs, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("coefficient set is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"coefficients must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr


def _mean(arr: np.ndarray) -> float:
    try:
        return math.fsum(arr.tolist()) / arr.size
    except OverflowError:
        raise ValueError("coefficient statistics overflow float64") from None


def _mean_std(arr: np.ndarray) -> tuple[float, float]:
    """Population moments: mean = sum(c)/N, std = sqrt(sum((c-mean)^2)/N)."""
    mean = _mean(arr)
    with np.errstate(over="ignore"):
        var = _mean((arr - mean) ** 2)
    if not math.isfinite(var):
        raise ValueError("coefficient statistics overflow float64")
    return mean, math.sqrt(var)


def _append_cut(cuts: list[float], value: float, lo: float, hi: float) -> None:
    # keep only cuts strictly inside (lo, hi) and distinct from existing ones
    if lo < value < hi and value not in cuts:
        cuts.append(value)


def _cuts(arr: np.ndarray, levels: int) -> list[float]:
    mean, std = _mean_std(arr)
    if std == 0.0:
        return []
    lo_edge = mean - std
    hi_edge = mean + std
    cuts = [lo_edge, hi_edge]
    if levels >= 5:
        lower = arr[arr < lo_edge]
        upper = arr[arr >= hi_edge]
        if lower.size:
            _append_cut(cuts, _mean(lower), -math.inf, lo_edge)
        if upper.size:
            _append_cut(cuts, _mean(upper), hi_edge, math.inf)
        if levels == 7:
            if lower.size:
                tail_mean, tail_std = _mean_std(lower)
                if tail_std > 0.0:
                    _append_cut(cuts, tail_mean - tail_std, -math.inf, lo_edge)
            if upper.size:
                tail_mean, tail_std = _mean_std(upper)
                if tail_std > 0.0:
                    _append_cut(cuts, tail_mean + tail_std, hi_edge, math.inf)
    cuts.sort()
    return cuts


def _partition(arr: np.ndarray, levels: int) -> BlockPartition:
    cuts = _cuts(arr, levels)
    block_index = np.searchsorted(cuts, arr, side="right")
    boundaries: list[float] = []
    representatives: list[float] = []
    for block in range(len(cuts) + 1):
        members = arr[block_index == block]
        if members.size == 0:
            continue  # empty block: its span is absorbed by a neighbor
        if representatives:
            boundaries.append(cuts[block - 1])
        representatives.append(_mean(members))
    return BlockPartition(np.array(boundaries), np.array(representatives))


def threshold_cuts(coeffs, levels: int) -> list[float]:
    """Raw partition boundaries for L levels, before empty-block merging.

    Returned sorted ascending; nested across levels for fixed input.
    """
    return _cuts(_checked(coeffs, levels), levels)


def build_partition(coeffs, levels: int) -> BlockPartition:
    """Partition the coefficients into at most L centroid blocks."""
    return _partition(_checked(coeffs, levels), levels)


def apply_partition(coeffs, partition: BlockPartition) -> np.ndarray:
    """Replace every coefficient by the representative of its block."""
    arr = np.asarray(coeffs, dtype=np.float64)
    idx = np.searchsorted(partition.boundaries, arr, side="right")
    return partition.representatives[idx]


def threshold_subband(mat, levels: int) -> np.ndarray:
    """Threshold one sub-band with its own statistics; the result has mat's shape."""
    arr = _checked(mat, levels)
    return apply_partition(arr, _partition(arr, levels)).reshape(np.shape(mat))
