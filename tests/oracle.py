"""Independent brute-force oracles the library output is checked against.

Everything here is deliberately plain: explicit matrices, linear scans over
intervals, pure-Python statistics.  Exactly rounded sums (math.fsum) make
the expected values order-independent and bit-reproducible.  The one
exception is the frozen lifting kernel at the end, a bit-exact reference
rather than an independent one.
"""

import math

import numpy as np


def dense_analysis_matrix(n, h, g):
    """Dense periodic analysis operator: row k is the k-th analysis window.

    Built directly from approx[k] = sum_n h[n] x[(2k+n) mod N]; wrap-around
    collisions (N < filter length) accumulate.
    """
    W = np.zeros((n, n))
    for k in range(n // 2):
        for j in range(len(h)):
            W[k, (2 * k + j) % n] += h[j]
            W[n // 2 + k, (2 * k + j) % n] += g[j]
    return W


def oracle_stats(values):
    vals = [float(v) for v in values]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / n
    return mean, math.sqrt(var)


def oracle_cuts(values, levels):
    """Pure-Python reconstruction of the mu +/- sigma refinement scheme."""
    vals = [float(v) for v in values]
    mean, std = oracle_stats(vals)
    if std == 0.0:
        return []
    lo_edge, hi_edge = mean - std, mean + std
    cuts = [lo_edge, hi_edge]

    def add(candidate, lo, hi):
        if lo < candidate < hi and candidate not in cuts:
            cuts.append(candidate)

    if levels >= 5:
        lower = [v for v in vals if v < lo_edge]
        upper = [v for v in vals if v >= hi_edge]
        if lower:
            add(math.fsum(lower) / len(lower), -math.inf, lo_edge)
        if upper:
            add(math.fsum(upper) / len(upper), hi_edge, math.inf)
        if levels == 7:
            if lower:
                tmean, tstd = oracle_stats(lower)
                if tstd > 0.0:
                    add(tmean - tstd, -math.inf, lo_edge)
            if upper:
                tmean, tstd = oracle_stats(upper)
                if tstd > 0.0:
                    add(tmean + tstd, hi_edge, math.inf)
    return sorted(cuts)


def oracle_threshold(values, levels):
    """Classify by linear scan over blocks, average members directly."""
    vals = [float(v) for v in values]
    cuts = oracle_cuts(vals, levels)
    intervals = []
    edges = [-math.inf] + cuts + [math.inf]
    for lo, hi in zip(edges[:-1], edges[1:]):
        intervals.append((lo, hi))

    def classify(v):
        for i, (lo, hi) in enumerate(intervals):
            if lo <= v < hi:
                return i
        raise AssertionError(f"{v} not classified")

    members = {}
    for v in vals:
        members.setdefault(classify(v), []).append(v)
    centroid = {i: math.fsum(vs) / len(vs) for i, vs in members.items()}
    return [centroid[classify(v)] for v in vals]


# --- the whole-plane lifting kernel, frozen as a bit-exact reference ---
#
# The dense operator above agrees with dwt2d only to rounding, which cannot
# see a change in the last bit; on a plane with a coefficient on a quantizer
# cut such a change moves whole grey levels.  These functions restate the
# kernel's float64 arithmetic, operation for operation: each lifting term is
# one product coeff * (shifted channel), rounded, then one add into the target
# channel, in the order of FilterBank.steps; analysis multiplies by scale,
# synthesis by the rounded 1.0 / scale and runs the steps in reverse with the
# coefficients negated.  They read the bank's steps and scaling, which the
# process_plane digests in test_knife_edge.py pin.

def _frozen_lift(s, steps, sign):
    for target, terms in steps:
        for power, coeff in terms:
            s[target] = s[target] + (sign * coeff) * np.roll(s[1 - target], -power, axis=-1)


def frozen_analysis(x, axis, fb):
    """(approx, detail) of the 2-D array x along axis."""
    x = np.moveaxis(np.asarray(x, dtype=np.float64), axis, -1)
    s = [x[..., 0::2], x[..., 1::2]]
    _frozen_lift(s, fb.steps, 1.0)
    return tuple(
        np.moveaxis(scale * np.roll(channel, -shift, axis=-1), -1, axis)
        for channel, (scale, shift) in zip(s, fb.scaling)
    )


def frozen_synthesis(approx, detail, axis, fb):
    """The 2-D array whose (approx, detail) along axis these are."""
    s = [
        (1.0 / scale) * np.roll(np.moveaxis(band, axis, -1), shift, axis=-1)
        for band, (scale, shift) in zip((approx, detail), fb.scaling)
    ]
    _frozen_lift(s, reversed(fb.steps), -1.0)
    out = np.empty(s[0].shape[:-1] + (2 * s[0].shape[-1],))
    out[..., 0::2], out[..., 1::2] = s
    return np.moveaxis(out, -1, axis)


def frozen_dwt2d(plane, fb, depth):
    """(approx, [(h, v, d) per level, finest first]): rows, then columns of each half."""
    a, levels = np.asarray(plane, dtype=np.float64), []
    for _ in range(depth):
        lo, hi = frozen_analysis(a, 1, fb)
        a, h = frozen_analysis(lo, 0, fb)
        levels.append((h, *frozen_analysis(hi, 0, fb)))
    return a, levels


def frozen_idwt2d(approx, levels, fb):
    """The plane whose frozen_dwt2d is (approx, levels)."""
    a = approx
    for h, v, d in reversed(levels):
        a = frozen_synthesis(frozen_synthesis(a, h, 0, fb), frozen_synthesis(v, d, 0, fb), 1, fb)
    return a
