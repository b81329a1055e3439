"""Certification of the embedded filter banks and the QMF/synthesis rules."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavequant
from wavequant.filters import (
    SUPPORTED_WAVELETS, FilterBank, get_filter, qmf_highpass, wavelet_batch,
)
from wavequant.transform import Decomposition, SubbandTriple, idwt2d

EXPECTED = {
    "db2": (4, 2), "db4": (8, 4), "db6": (12, 6), "db8": (16, 8),
    "coif1": (6, 2), "coif2": (12, 4), "coif3": (18, 6),
    "coif4": (24, 8), "coif5": (30, 10),
}


def test_registry_covers_the_nine_banks():
    assert SUPPORTED_WAVELETS == tuple(EXPECTED)


def test_wavelet_batch_gives_labels_in_order_and_checks_the_list():
    assert wavelet_batch(["DB2", " coif5 ", "db4"]) == ("db2", "coif5", "db4")
    for names, message in (([], "wavelets list must be nonempty"),
                           (["coif1", "db3"], "unsupported wavelet 'db3'"),
                           (["coif1", "COIF1"], "wavelet coif1 is repeated")):
        with pytest.raises(ValueError, match=message):
            wavelet_batch(names)


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


def _laurent_product(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0.0) + x * y
    return out


def _laurent_sum(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def lifting_polyphase(fb):
    """float64 product of the lifting steps and scaling, as {power: coeff} entries.

    Entry [r][c] maps input channel c (0 even, 1 odd samples) to output r
    (0 approx, 1 detail); power p is the advance z^p, x[k] -> x[k + p].
    """
    m = [[{0: 1.0}, {}], [{}, {0: 1.0}]]
    for target, terms in fb.steps:
        t = dict(terms)
        m[target] = [_laurent_sum(m[target][c], _laurent_product(t, m[1 - target][c]))
                     for c in (0, 1)]
    return [
        [{p + shift: scale * v for p, v in entry.items()} for entry in row]
        for row, (scale, shift) in zip(m, fb.scaling)
    ]


@pytest.mark.parametrize("name", list(EXPECTED))
def test_lifting_steps_multiply_to_the_polyphase_matrix(name):
    # [[He, Ho], [Ge, Go]] with He(z) = sum_m h[2m] z^m: the phase of
    # approx[k] = sum_n h[n] x[(2k + n) mod N]
    fb = get_filter(name)
    table = [
        [dict(enumerate(fb.lowpass[0::2])), dict(enumerate(fb.lowpass[1::2]))],
        [dict(enumerate(fb.highpass[0::2])), dict(enumerate(fb.highpass[1::2]))],
    ]
    product = lifting_polyphase(fb)
    for r in (0, 1):
        for c in (0, 1):
            want, got = table[r][c], product[r][c]
            for power in set(want) | set(got):
                err = abs(got.get(power, 0.0) - want.get(power, 0.0))
                assert err <= 1e-15, f"entry ({r}, {c}) power {power}: {err:.3g}"


@pytest.mark.parametrize("name", list(EXPECTED))
def test_lifting_steps_are_bounded(name):
    # large steps or scales would amplify rounding in both directions
    fb = get_filter(name)
    for _, terms in fb.steps:
        assert len({power for power, _ in terms}) == len(terms)  # lifting_polyphase relies on it
        for _, coeff in terms:
            assert abs(coeff) <= 10
    for scale, _ in fb.scaling:
        assert 0.1 <= abs(scale) <= 10


def test_derivation_tools_are_not_runtime_imports():
    # the lifting steps were derived offline in high precision; the tool never needs it.
    # Nor does the import need the sizing workers' concurrent.futures, which loads logging.
    env = dict(os.environ, PYTHONPATH=str(Path(wavequant.__file__).parents[1]))
    code = (
        "import sys, wavequant.cli; "
        "print(sorted(m for m in ('mpmath', 'sympy', 'scipy', 'concurrent.futures', 'logging') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_filter_bank_highpass_cannot_be_given():
    # derived from the lowpass, so no bank holds a highpass that is not its QMF filter
    fb = get_filter("db2")
    with pytest.raises(ValueError, match="highpass"):
        dataclasses.replace(fb, highpass=fb.lowpass)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_registry_highpass_is_the_read_only_qmf_of_the_lowpass(name):
    fb = get_filter(name)
    assert np.array_equal(fb.highpass, qmf_highpass(fb.lowpass))
    with pytest.raises(ValueError):
        fb.highpass[0] = 0.0


def test_filter_bank_refuses_an_odd_lowpass_on_construction():
    with pytest.raises(ValueError, match="even"):
        FilterBank("x", [1.0, 2.0, 3.0], 1, (), ((1.0, 0), (1.0, 0)))


def test_replacing_the_lowpass_derives_the_highpass_again():
    fb = dataclasses.replace(get_filter("db2"), lowpass=[1.0, 2.0, 3.0, 4.0])
    assert_allclose(fb.highpass, [4.0, -3.0, 2.0, -1.0], atol=0)


def test_wavelet_arguments_of_a_wrong_type_are_value_errors():
    with pytest.raises(ValueError, match="wavelet name must be a string, got 3$"):
        get_filter(3)
    for names in (None, 3, {"db2", "db4"}, frozenset({"db2"})):
        with pytest.raises(ValueError, match="wavelets must be a list of names, got "):
            wavelet_batch(names)


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


def test_filter_bank_keeps_a_read_only_copy_of_the_callers_lowpass():
    h = np.array(get_filter("db2").lowpass)
    fb = FilterBank("x", h, 2, (), ((1.0, 0), (1.0, 0)))
    lowpass, highpass = fb.lowpass.copy(), fb.highpass.copy()
    assert h.flags.writeable
    assert fb.lowpass is not h and not fb.lowpass.flags.writeable
    # the highpass was derived from h on construction; a later write to h changes neither
    h[:] = 0.0
    assert np.array_equal(fb.lowpass, lowpass) and np.array_equal(fb.highpass, highpass)
