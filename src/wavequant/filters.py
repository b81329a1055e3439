"""Orthogonal wavelet filter banks: Daubechies db2/db4/db6/db8 and coif1..coif5.

Scaling (low-pass) coefficients are embedded as literal float64 tables,
normalized to sum(h) = sqrt(2) and unit energy.  High-pass filters are
derived by the quadrature-mirror rule.  A wavelet is named by its label
("db2" .. "coif5"), which get_filter resolves to its bank.  The numerical
properties (orthonormality, double-shift orthogonality, vanishing moments
of the high-pass) and the tap counts are certified by the test suite rather
than re-checked at import.

Each bank also carries the lifting factorization of its analysis polyphase
matrix (Daubechies & Sweldens, "Factoring wavelet transforms into lifting
steps", J. Fourier Anal. Appl. 1998), which is what the transform runs:

    [[He, Ho], [Ge, Go]] = diag(k0 z^s0, k1 z^s1) S_n ... S_1,
    He(z) = sum_m h[2m] z^m, Ho(z) = sum_m h[2m+1] z^m (Ge, Go likewise from g)

where z advances by one sample pair, so that
approx[k] = sum_n h[n] x[(2k+n) mod N] keeps its phase.  S_i adds t_i(z)
times one channel (0 = even samples, 1 = odd) to the other.  The steps were
derived once, offline, in 80-digit mpmath arithmetic from the exact filters,
not from the table floats: Daubechies as the extremal-phase spectral factor
of the maximally flat half-band polynomial, coiflets by Gauss-Newton on their
defining moment + orthogonality system; both round to the tables exactly.  The
Laurent-polynomial Euclidean algorithm then runs on the first row (He, Ho)
as column operations on the whole matrix, until the row is (k0 z^s0, 0) and
one last step clears the lower-left entry.  A Laurent division has one
quotient per split of the cleared terms between the low and high end (and
either divisor when both spans are equal); of all these choices, the
factorization whose largest step coefficient is smallest was kept (an
exhaustive branch-and-bound search).  Every step coefficient is at most
sqrt(3) in magnitude, every scale lies in 0.51..1.94, and a bank of length L
needs L multiply-adds per sample pair plus two scalings, against 2L for the
polyphase form.  The float64 product of the embedded steps is certified
against the table's polyphase matrix by the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

_Step = tuple[int, tuple[tuple[int, float], ...]]  # (target channel, ((power, coeff), ...))
_Scale = tuple[float, int]  # (scale, shift) of one output channel


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Analysis filter pair of one orthogonal wavelet.

    lowpass is the scaling filter h (sum = sqrt(2), unit norm), highpass the
    wavelet filter g derived by the QMF rule.  vanishing_moments is the
    number of vanishing moments of g: K for dbK, 2K for coifK.

    steps and scaling factor the same bank into lifting steps, in analysis
    order.  A step (target, ((power, coeff), ...)) adds
    sum coeff * s[other][(k + power) mod n] to s[target][k], where s[0] holds
    the even samples and s[1] the odd ones; then channel c becomes
    scale * s[c][(k + shift) mod n] for scaling[c] = (scale, shift), giving
    the approximation (c = 0) and the detail (c = 1).
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray
    vanishing_moments: int
    steps: tuple[_Step, ...]
    scaling: tuple[_Scale, _Scale]

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


# Lifting steps and output scaling of each bank (see the module docstring).
_LIFTING: dict[str, tuple[tuple[_Step, ...], tuple[_Scale, _Scale]]] = {
    "db2": (
        (
            (1, ((0, -1.7320508075688772),)),
            (0, ((0, 0.4330127018922193), (1, -0.06698729810778067))),
            (1, ((-1, 1.0),)),
        ),
        ((1.9318516525781366, 0), (-0.5176380902050415, 1)),
    ),
    "db4": (
        (
            (1, ((0, 0.3222758880002811),)),
            (0, ((-1, 1.1171236051162172), (0, -0.29195312600347534))),
            (1, ((0, -0.11355149660809287), (1, -0.5400282834197139))),
            (0, ((0, 0.5547946968043383), (1, -0.09842349449508443))),
            (1, ((-1, 0.02145362655440929),)),
        ),
        ((0.6829218120354147, 1), (-1.4642964719775893, 2)),
    ),
    "db6": (
        (
            (1, ((0, 0.2255061785637888),)),
            (0, ((-1, 0.7273420740972343), (0, -0.2145934500030082))),
            (1, ((0, -0.391113547975628), (1, -0.507005568565545))),
            (0, ((0, 0.6595714136346803), (1, -0.2718462593445387))),
            (1, ((-2, -0.05908637151044026), (-1, 0.20512679659260868))),
            (0, ((2, 0.08252478647755451), (3, -0.011386511463891974))),
            (1, ((-3, 0.008191735616131821),)),
        ),
        ((0.9209502755579572, 1), (-1.0858349538949328, 4)),
    ),
    "db8": (
        (
            (1, ((0, 0.17392388386585503),)),
            (0, ((-1, 0.545240042147073), (0, -0.16881724371813134))),
            (1, ((0, -0.709599782718359), (1, -0.4399133163852162))),
            (0, ((0, 0.6353677588938296), (1, -0.337998430891021))),
            (1, ((-2, -0.26417387650139024), (-1, 0.5578087497857382))),
            (0, ((2, 0.18749477001593542), (3, -0.06841128991724878))),
            (1, ((-4, -0.02370601458932583), (-3, 0.10071357518206554))),
            (0, ((4, 0.016208171869188496), (5, -0.0017847647755538983))),
            (1, ((-5, 0.0026113818275875092),)),
        ),
        ((1.0998205796126963, 1), (-0.9092392145927581, 6)),
    ),
    "coif1": (
        (
            (0, ((0, 0.21525043702153018),)),
            (1, ((0, -0.2057189138830738), (1, -0.361227795630767))),
            (0, ((-1, 0.34604203085127516), (0, 0.19707063411416553))),
            (1, ((0, -0.22469652221889932),)),
        ),
        ((1.0217064953743347, 1), (-0.9787546663620046, 1)),
    ),
    "coif2": (
        (
            (1, ((0, -0.3952094886200825),)),
            (0, ((-1, -0.486553126281547), (0, 0.3418203790664599))),
            (1, ((0, 0.10235638480685384), (1, 0.4940618205495065))),
            (0, ((-1, 1.4797286989698764), (0, -0.13092196383207655))),
            (1, ((0, -0.05251134278161462), (1, -0.4287159896385271))),
            (0, ((0, 0.4831467349857985), (1, -0.1316703880347501))),
            (1, ((-1, 0.014654934661776989),)),
        ),
        ((0.5773168514813308, 2), (-1.732151066496866, 3)),
    ),
    "coif3": (
        (
            (0, ((0, 0.4874353823445087),)),
            (1, ((0, -0.39385749847296053), (1, -0.7220452119626274))),
            (0, ((-2, 0.17689518041743868), (-1, 0.6149014197510215))),
            (1, ((1, -0.17589428984415206), (2, -0.3504270760841098))),
            (0, ((-2, -0.31829376863961284), (-1, 0.0931087791943464))),
            (1, ((1, 0.5236560117292454), (2, 0.5117371997954115))),
            (0, ((-1, -0.323226117080884), (0, 0.08588053174704585))),
            (1, ((-1, 0.09155710935296475), (0, -0.1651074699139148))),
            (0, ((1, -0.04809562805415971), (2, 0.006595992239117418))),
            (1, ((-2, -0.012610930110897516),)),
        ),
        ((1.1758656778920007, 3), (-0.8504372725571183, 5)),
    ),
    "coif4": (
        (
            (1, ((0, -0.547602362995222),)),
            (0, ((-1, 0.5278152349783322), (0, 0.42127524980163317))),
            (1, ((1, -0.6063881186044083), (2, -0.6823845079675813))),
            (0, ((-2, 0.5473058903495027), (-1, -0.09281146667737337))),
            (1, ((1, 0.18158472682820867), (2, 0.23721056504413543))),
            (0, ((-2, -0.11981626195734593), (-1, 0.2072037824856045))),
            (1, ((1, -0.38825286923720376), (2, 1.0594014558886808))),
            (0, ((-2, -0.37232542813101355), (-1, -0.14755245257302274))),
            (1, ((0, -0.1743963664056135), (1, 0.6289684665949701))),
            (0, ((0, 0.044745816110585916), (1, -0.039835234007842585))),
            (1, ((-2, -0.036497874110611415), (-1, 0.15550915923392222))),
            (0, ((2, 0.009404345729745167), (3, -0.0010152530741414927))),
            (1, ((-3, 0.003941492003425419),)),
        ),
        ((1.4036898180545723, 4), (-0.7124081026575647, 7)),
    ),
    "coif5": (
        (
            (0, ((0, 0.5914529479168701),)),
            (1, ((0, -0.4381728247186041), (1, -0.43124175446160884))),
            (0, ((-2, -0.8436649887297918), (-1, 0.5868708578197492))),
            (1, ((2, 0.48816448190351397), (3, 0.23664256959710994))),
            (0, ((-3, -0.5971016174430586), (-2, 0.19378901055237263))),
            (1, ((2, -0.08791626224813456), (3, -0.08049288641194614))),
            (0, ((-3, 0.17791634760036848), (-2, -0.5418771125468251))),
            (1, ((2, 0.21917821177121377), (3, -0.27934165160285135))),
            (0, ((-3, 0.6429447903112128), (-2, 1.1785164859578954))),
            (1, ((1, 0.10226727420982246), (2, -0.3596144978915685))),
            (0, ((-1, -0.5490044263362523), (0, 0.14415026111279056))),
            (1, ((-1, 0.03813779247510414), (0, -0.02833307339605908))),
            (0, ((1, -0.1933925085518992), (2, 0.059693798399404814))),
            (1, ((-3, 0.0022572458379755463), (-2, -0.011850940447985852))),
            (0, ((3, -0.011377620573588891), (4, 0.00101666950441386))),
            (1, ((-4, -0.00020170574863306658),)),
        ),
        ((0.6673975337774862, 5), (-1.4983573498391218, 9)),
    ),
}


_REGISTRY: dict[str, FilterBank] = {
    name: FilterBank(
        name=name,
        lowpass=taps,
        highpass=qmf_highpass(taps),
        # dbK has 2K taps and K vanishing moments, coifK 6K taps and 2K moments
        vanishing_moments=len(taps) // 2 if name.startswith("db") else len(taps) // 3,
        steps=_LIFTING[name][0],
        scaling=_LIFTING[name][1],
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


def wavelet_batch(names: Sequence[str]) -> tuple[str, ...]:
    """The labels of names, in order, as get_filter resolves them ("DB2" is "db2").

    names must be a nonempty list, not one name as a string, and name each
    wavelet at most once.
    """
    if isinstance(names, str):
        raise ValueError(f"wavelets must be a list of names, got the string {names!r}")
    labels = tuple(get_filter(name).name for name in names)
    if not labels:
        raise ValueError("wavelets list must be nonempty")
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"wavelet {label} is repeated")
    return labels
