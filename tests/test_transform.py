"""DWT correctness: dense-operator oracle, perfect reconstruction, energy."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavequant.filters import get_filter
from wavequant.transform import Decomposition, SubbandTriple, dwt2d, idwt2d
from oracle import dense_analysis_matrix

ALL_NAMES = ("db2", "db4", "db6", "db8", "coif1", "coif2", "coif3", "coif4", "coif5")
SQRT2 = math.sqrt(2)


# --- 1-D behaviour, read from 2-D planes of two equal rows ---
#
# Down a length-2 column of equal values the periodized low-pass sums to
# sqrt(2) and the high-pass to 0, so the approximation and the vertical
# band of such a plane hold the 1-D row transform scaled by sqrt(2).

def row_analysis(x, fb):
    dec = dwt2d(np.vstack([x, x]), fb, 1)
    return dec.approx[0] / SQRT2, dec.levels[0].v[0] / SQRT2


def row_synthesis(ca, cd, fb):
    zero = np.zeros((1, ca.size))
    triple = SubbandTriple(zero, SQRT2 * cd[None, :], zero)
    dec = Decomposition(SQRT2 * ca[None, :], (triple,))
    return idwt2d(dec, fb)[0]


def test_row_analysis_constant_signal():
    fb = get_filter("db4")
    ca, cd = row_analysis(np.full(8, 3.0), fb)
    assert_allclose(ca, math.sqrt(2) * 3.0, atol=1e-12)
    assert_allclose(cd, 0.0, atol=1e-12)


def test_row_analysis_unit_impulse_matches_dense_operator():
    fb = get_filter("db2")
    x = np.array([1.0, 0.0, 0.0, 0.0])
    W = dense_analysis_matrix(4, fb.lowpass, fb.highpass)
    expected = W @ x
    ca, cd = row_analysis(x, fb)
    assert_allclose(ca, expected[:2], atol=1e-12)
    assert_allclose(cd, expected[2:], atol=1e-12)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("n", (2, 4, 8, 16, 32))
def test_dwt1d_matches_dense_operator(name, n):
    fb = get_filter(name)
    rng = np.random.default_rng(n)
    x = rng.uniform(-100, 100, n)
    W = dense_analysis_matrix(n, fb.lowpass, fb.highpass)
    expected = W @ x
    ca, cd = row_analysis(x, fb)
    assert_allclose(ca, expected[: n // 2], atol=1e-10)
    assert_allclose(cd, expected[n // 2:], atol=1e-10)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dwt1d_parseval(name):
    fb = get_filter(name)
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, 32)
    ca, cd = row_analysis(x, fb)
    energy_in = np.sum(x * x)
    energy_out = np.sum(ca * ca) + np.sum(cd * cd)
    assert abs(energy_out - energy_in) <= 1e-10 * energy_in


@pytest.mark.parametrize("name", ALL_NAMES)
def test_idwt1d_inverts_dwt1d(name):
    fb = get_filter(name)
    rng = np.random.default_rng(23)
    x = rng.uniform(-50, 50, 16)
    assert np.max(np.abs(row_synthesis(*row_analysis(x, fb), fb) - x)) < 1e-9


def test_row_synthesis_zero_in_zero_out():
    fb = get_filter("coif2")
    assert_allclose(row_synthesis(np.zeros(4), np.zeros(4), fb), 0.0, atol=0)


def test_row_synthesis_constant_approx():
    fb = get_filter("db6")
    c = 5.0
    out = row_synthesis(np.full(8, math.sqrt(2) * c), np.zeros(8), fb)
    assert_allclose(out, c, atol=1e-12)


# --- 2-D dense-operator oracle ---

SHAPES = ((2, 2), (2, 4), (4, 2), (8, 6), (16, 32))


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("shape", SHAPES)
def test_dwt2d_matches_dense_operator(name, shape):
    # planes narrower than the filter fold the periodized taps
    fb = get_filter(name)
    height, width = shape
    x = np.random.default_rng(height * width).uniform(-100, 100, shape)
    w_h = dense_analysis_matrix(height, fb.lowpass, fb.highpass)
    w_w = dense_analysis_matrix(width, fb.lowpass, fb.highpass)
    expected = w_h @ x @ w_w.T
    dec = dwt2d(x, fb, 1)
    triple = dec.levels[0]
    top, left = height // 2, width // 2
    assert_allclose(dec.approx, expected[:top, :left], atol=1e-10)
    assert_allclose(triple.v, expected[:top, left:], atol=1e-10)
    assert_allclose(triple.h, expected[top:, :left], atol=1e-10)
    assert_allclose(triple.d, expected[top:, left:], atol=1e-10)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("shape", ((32, 16), (16, 64)))
def test_dwt2d_deeper_levels_match_dense_operator(name, shape):
    # each level is the dense operator applied to the oracle's previous approximation
    fb = get_filter(name)
    x = np.random.default_rng(shape[0] + 3 * shape[1]).uniform(-100, 100, shape)
    dec = dwt2d(x, fb, 3)
    approx = x
    for triple in dec.levels:
        height, width = approx.shape
        w_h = dense_analysis_matrix(height, fb.lowpass, fb.highpass)
        w_w = dense_analysis_matrix(width, fb.lowpass, fb.highpass)
        expected = w_h @ approx @ w_w.T
        top, left = height // 2, width // 2
        assert_allclose(triple.v, expected[:top, left:], atol=1e-10)
        assert_allclose(triple.h, expected[top:, :left], atol=1e-10)
        assert_allclose(triple.d, expected[top:, left:], atol=1e-10)
        approx = expected[:top, :left]
    assert_allclose(dec.approx, approx, atol=1e-10)


ORACLE_CASES = [
    (shape, depth)
    for shape in SHAPES + ((8, 8), (32, 16), (16, 64))
    for depth in (1, 2, 3)
    if shape[0] % 2 ** depth == 0 and shape[1] % 2 ** depth == 0
]


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("shape, depth", ORACLE_CASES)
def test_dwt2d_matches_dense_operator_closely_on_pixel_planes(name, shape, depth):
    # 0-255 planes as the pipeline feeds them; 8x8 at depth 3 ends on 1x1 bands
    fb = get_filter(name)
    x = np.random.default_rng(7 * shape[0] + shape[1] + depth).uniform(0, 255, shape)
    dec = dwt2d(x, fb, depth)
    approx = x
    for triple in dec.levels:
        height, width = approx.shape
        w_h = dense_analysis_matrix(height, fb.lowpass, fb.highpass)
        w_w = dense_analysis_matrix(width, fb.lowpass, fb.highpass)
        expected = w_h @ approx @ w_w.T
        top, left = height // 2, width // 2
        assert_allclose(triple.v, expected[:top, left:], rtol=0, atol=1e-11)
        assert_allclose(triple.h, expected[top:, :left], rtol=0, atol=1e-11)
        assert_allclose(triple.d, expected[top:, left:], rtol=0, atol=1e-11)
        approx = expected[:top, :left]
    assert_allclose(dec.approx, approx, rtol=0, atol=1e-11)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dwt2d_leaves_its_input_unchanged(name):
    fb = get_filter(name)
    plane = np.random.default_rng(31).uniform(0, 255, (16, 32))
    before = plane.copy()
    dwt2d(plane, fb, 2)
    assert np.array_equal(plane, before)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_idwt2d_accepts_read_only_bands(name):
    # the pipeline shares one approximation across every L
    fb = get_filter(name)
    plane = np.random.default_rng(37).uniform(0, 255, (16, 32))
    dec = dwt2d(plane, fb, 2)
    bands = [dec.approx] + [band for triple in dec.levels for band in triple]
    copies = [band.copy() for band in bands]
    for band in bands:
        band.setflags(write=False)
    recon = idwt2d(dec, fb)
    assert np.max(np.abs(recon - plane)) < 1e-9
    for band, before in zip(bands, copies):
        assert np.array_equal(band, before)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("shape", SHAPES)
def test_idwt2d_inverts_dwt2d_on_short_planes(name, shape):
    fb = get_filter(name)
    x = np.random.default_rng(shape[0] + shape[1]).uniform(-100, 100, shape)
    assert np.max(np.abs(idwt2d(dwt2d(x, fb, 1), fb) - x)) < 1e-9


# --- 2-D ---

def test_dwt2d_constant_plane():
    fb = get_filter("db2")
    dec = dwt2d(np.full((8, 8), 100.0), fb, 1)
    assert_allclose(dec.approx, 200.0, atol=1e-10)
    triple = dec.levels[0]
    assert_allclose(triple.h, 0.0, atol=1e-10)
    assert_allclose(triple.v, 0.0, atol=1e-10)
    assert_allclose(triple.d, 0.0, atol=1e-10)


def test_dwt2d_parseval_depth2():
    fb = get_filter("db4")
    rng = np.random.default_rng(5)
    plane = rng.uniform(0, 1, (16, 16))
    dec = dwt2d(plane, fb, 2)
    total = np.sum(dec.approx ** 2) + sum(
        np.sum(t.h ** 2) + np.sum(t.v ** 2) + np.sum(t.d ** 2) for t in dec.levels
    )
    assert abs(total - np.sum(plane ** 2)) < 1e-8


def test_dwt2d_subband_dimensions():
    fb = get_filter("db2")
    dec = dwt2d(np.zeros((32, 16)), fb, 3)
    assert dec.depth == 3
    assert tuple(2 * n for n in dec.levels[0].h.shape) == (32, 16)
    for i, t in enumerate(dec.levels):
        assert t.h.shape == (32 // 2 ** (i + 1), 16 // 2 ** (i + 1))
    assert dec.approx.shape == (4, 2)


def test_dwt2d_rejects_indivisible_dimensions():
    fb = get_filter("db2")
    with pytest.raises(ValueError, match="divisible by 2\\^depth"):
        dwt2d(np.zeros((6, 6)), fb, 2)
    with pytest.raises(ValueError, match="divisible by 2\\^depth"):
        dwt2d(np.zeros((0, 4)), fb, 1)


def test_dwt2d_rejects_a_plane_that_is_not_2d():
    with pytest.raises(ValueError, match=r"plane must be 2-D, got shape \(16,\)"):
        dwt2d(np.zeros(16), get_filter("db2"), 1)


@pytest.mark.parametrize("depth", (2.0, 1.5))
def test_dwt2d_rejects_a_depth_that_is_not_an_integer(depth):
    with pytest.raises(ValueError, match=f"depth must be an integer, got {depth}"):
        dwt2d(np.zeros((8, 8)), get_filter("db2"), depth)


@pytest.mark.parametrize("depth", (True, False))
def test_dwt2d_rejects_a_bool_depth(depth):
    # operator.index(True) is 1: a bool would otherwise pass as depth 1 (and False as 0)
    with pytest.raises(ValueError, match=f"depth must be an integer, got {depth}"):
        dwt2d(np.zeros((8, 8)), get_filter("db2"), depth)


# --- non-finite and overflowing input raises, naming the argument ---

NON_FINITE = pytest.mark.parametrize(
    "value", (math.nan, math.inf, -math.inf), ids=("nan", "inf", "-inf")
)


@NON_FINITE
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_dwt2d_rejects_a_non_finite_plane_naming_the_position(value, depth):
    plane = np.ones((8, 8))
    plane[5, 2] = value
    with pytest.raises(ValueError, match=rf"^plane must be finite, got {value} at \(5, 2\)$"):
        dwt2d(plane, get_filter("coif5"), depth)


@NON_FINITE
@pytest.mark.parametrize("depth", (1, 2, 3))
@pytest.mark.parametrize("band", ("approximation", "h", "v", "d"))
def test_idwt2d_rejects_a_non_finite_band_naming_it(value, depth, band):
    fb = get_filter("coif5")
    dec = dwt2d(np.ones((8, 8)), fb, depth)
    approx, levels = dec.approx.copy(), list(dec.levels)
    if band == "approximation":
        approx[0, 0] = value
        name = "approximation"
    else:
        bad = getattr(levels[-1], band).copy()
        bad[0, 0] = value
        levels[-1] = levels[-1]._replace(**{band: bad})
        name = f"level {depth - 1} {band} band"
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value} at \(0, 0\)$"):
        idwt2d(Decomposition(approx, levels), fb)


@pytest.mark.parametrize("value", (1e308, -1e308))
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_dwt2d_rejects_a_plane_whose_transform_overflows(value, depth):
    with pytest.raises(ValueError, match="^dwt2d of plane overflows float64: ") as info:
        dwt2d(np.full((8, 8), value), get_filter("coif5"), depth)
    assert isinstance(info.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("value", (1e308, -1e308))
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_idwt2d_rejects_a_decomposition_whose_inverse_overflows(value, depth):
    fb = get_filter("coif5")
    dec = dwt2d(np.zeros((8, 8)), fb, depth)
    huge = Decomposition(
        np.full_like(dec.approx, value),
        [SubbandTriple(*(np.full_like(band, value) for band in t)) for t in dec.levels],
    )
    with pytest.raises(ValueError, match="^idwt2d of dec overflows float64: ") as info:
        idwt2d(huge, fb)
    assert isinstance(info.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_perfect_reconstruction(name, depth):
    fb = get_filter(name)
    rng = np.random.default_rng(depth)
    plane = rng.uniform(0, 255, (32, 32))
    recon = idwt2d(dwt2d(plane, fb, depth), fb)
    assert np.max(np.abs(recon - plane)) < 1e-8


def test_idwt2d_zero_decomposition():
    fb = get_filter("coif3")
    dec = dwt2d(np.zeros((16, 16)), fb, 2)
    assert_allclose(idwt2d(dec, fb), 0.0, atol=1e-12)


def test_reconstruction_after_zeroing_details_preserves_mean():
    fb = get_filter("coif1")
    rng = np.random.default_rng(9)
    plane = rng.uniform(0, 255, (32, 32))
    dec = dwt2d(plane, fb, 2)
    smooth_dec = Decomposition(
        dec.approx,
        tuple(
            SubbandTriple(np.zeros_like(t.h), np.zeros_like(t.v), np.zeros_like(t.d))
            for t in dec.levels
        ),
    )
    smooth = idwt2d(smooth_dec, fb)
    assert abs(smooth.mean() - plane.mean()) < 1e-8


def test_transform_linearity():
    fb = get_filter("db6")
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 255, (16, 16))
    y = rng.uniform(0, 255, (16, 16))
    a, b = 0.6, -1.7
    dec_combo = dwt2d(a * x + b * y, fb, 2)
    dec_x = dwt2d(x, fb, 2)
    dec_y = dwt2d(y, fb, 2)
    assert_allclose(dec_combo.approx, a * dec_x.approx + b * dec_y.approx, atol=1e-9)
    for tc, tx, ty in zip(dec_combo.levels, dec_x.levels, dec_y.levels):
        assert_allclose(tc.h, a * tx.h + b * ty.h, atol=1e-9)
        assert_allclose(tc.v, a * tx.v + b * ty.v, atol=1e-9)
        assert_allclose(tc.d, a * tx.d + b * ty.d, atol=1e-9)


def test_decomposition_validates_consistency():
    def triple(shape):
        return SubbandTriple(np.zeros(shape), np.zeros(shape), np.zeros(shape))

    with pytest.raises(ValueError, match="level 0"):
        Decomposition(np.zeros((2, 2)), (triple((3, 4)), triple((2, 2))))
    with pytest.raises(ValueError, match="level 0"):
        Decomposition(
            np.zeros((2, 2)),
            (SubbandTriple(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))),),
        )
    with pytest.raises(ValueError, match="level 0.*the approximation"):
        Decomposition(np.zeros((4, 4)), (triple((2, 2)),))
    with pytest.raises(ValueError, match="depth"):
        Decomposition(np.zeros((4, 4)), ())
    dec = Decomposition(np.zeros((1, 2)), [triple((2, 4)), triple((1, 2))])
    assert dec.depth == 2 and isinstance(dec.levels, tuple)
