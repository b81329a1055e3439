"""Certification of the embedded filter banks and the QMF/synthesis rules."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavequant.filters import SUPPORTED_WAVELETS, get_filter, qmf_highpass
from wavequant.transform import Decomposition, SubbandTriple, idwt2d

EXPECTED = {
    "db2": (4, 2), "db4": (8, 4), "db6": (12, 6), "db8": (16, 8),
    "coif1": (6, 2), "coif2": (12, 4), "coif3": (18, 6),
    "coif4": (24, 8), "coif5": (30, 10),
}


def test_registry_covers_the_nine_banks():
    assert SUPPORTED_WAVELETS == tuple(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_length_and_moment_bookkeeping(name):
    fb = get_filter(name)
    length, moments = EXPECTED[name]
    assert fb.length == length
    assert fb.vanishing_moments == moments
    assert fb.highpass.size == length


@pytest.mark.parametrize("name", list(EXPECTED))
def test_lowpass_sums_to_sqrt2(name):
    h = get_filter(name).lowpass
    assert abs(h.sum() - math.sqrt(2)) < 1e-6


@pytest.mark.parametrize("name", list(EXPECTED))
def test_lowpass_unit_energy(name):
    h = get_filter(name).lowpass
    assert abs(np.dot(h, h) - 1.0) < 1e-7


@pytest.mark.parametrize("name", list(EXPECTED))
def test_double_shift_orthogonality(name):
    h = get_filter(name).lowpass
    for shift in range(1, h.size // 2):
        inner = np.dot(h[: h.size - 2 * shift], h[2 * shift:])
        assert abs(inner) < 1e-6, f"shift {shift}"


@pytest.mark.parametrize("name", list(EXPECTED))
def test_highpass_vanishing_moments(name):
    fb = get_filter(name)
    g = fb.highpass
    n = np.arange(g.size, dtype=np.float64)
    scale = np.sum(np.abs(g))
    for p in range(fb.vanishing_moments):
        moment = abs(np.sum(n ** p * g))
        normalizer = scale * max(1.0, float(g.size - 1)) ** p
        assert moment / normalizer <= 1e-4, f"moment order {p}"


def test_qmf_formula_on_four_taps():
    g = qmf_highpass([1.0, 2.0, 3.0, 4.0])
    assert_allclose(g, [4.0, -3.0, 2.0, -1.0])


@pytest.mark.parametrize("name", list(EXPECTED))
def test_qmf_highpass_sums_to_zero(name):
    g = qmf_highpass(get_filter(name).lowpass)
    assert abs(g.sum()) < 1e-10


@pytest.mark.parametrize("name", list(EXPECTED))
def test_qmf_is_an_involution_up_to_sign(name):
    h = get_filter(name).lowpass
    assert_allclose(qmf_highpass(qmf_highpass(h)), -h, atol=0)


def test_qmf_rejects_odd_length():
    with pytest.raises(ValueError, match="even"):
        qmf_highpass([1.0, 2.0, 3.0])


@pytest.mark.parametrize("name", list(EXPECTED))
def test_synthesis_is_time_reversal(name):
    # A unit coefficient synthesizes to its analysis filters laid out from
    # index 0: convolution with the time reversal of the analysis correlation.
    fb = get_filter(name)
    h, g = fb.lowpass, fb.highpass
    n = fb.length
    zero = np.zeros((n // 2, n // 2))
    unit = zero.copy()
    unit[0, 0] = 1.0
    cases = (
        (unit, (zero, zero, zero), np.outer(h, h)),
        (zero, (unit, zero, zero), np.outer(g, h)),
        (zero, (zero, unit, zero), np.outer(h, g)),
        (zero, (zero, zero, unit), np.outer(g, g)),
    )
    for approx, details, expected in cases:
        dec = Decomposition(approx, (SubbandTriple(*details),))
        assert_allclose(idwt2d(dec, fb), expected, atol=1e-15)


def test_get_filter_rejects_unknown_names():
    with pytest.raises(ValueError, match="db2.*coif5"):
        get_filter("db3")
    with pytest.raises(ValueError, match="unsupported wavelet 'sym4'"):
        get_filter("sym4")


def test_wavelet_name_parse_and_label():
    assert get_filter("Coif3").name == "coif3"
    assert get_filter(" DB8 ") is get_filter("db8")


def test_wavelet_name_rejects_invalid_orders():
    for name in ("db0", "db10", "coif0", "coif6", "db", "coif"):
        with pytest.raises(ValueError, match="unsupported wavelet"):
            get_filter(name)


def test_all_wavelets_constant_matches_names():
    assert tuple(get_filter(w).name for w in SUPPORTED_WAVELETS) == SUPPORTED_WAVELETS


def test_filter_arrays_are_read_only():
    fb = get_filter("db4")
    with pytest.raises(ValueError):
        fb.lowpass[0] = 0.0
