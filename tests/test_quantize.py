"""Quantizer: statistics, input contract, partitions, application, oracle equality."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavequant import quantize
from wavequant.quantize import (
    LEVEL_CHOICES,
    apply_partition,
    build_partition,
    threshold_cuts,
    threshold_subband,
)
from oracle import oracle_cuts, oracle_threshold

SEVEN = [-3.0, -1.0, 0.0, 0.0, 0.0, 1.0, 3.0]


# --- statistics, read from the L=3 cuts mu - sigma and mu + sigma ---

def test_stats_constant_input():
    for levels in (3, 5, 7):
        assert threshold_cuts([1.0, 1.0, 1.0], levels) == []


def test_stats_two_point():
    assert threshold_cuts([0.0, 2.0], 3) == [0.0, 2.0]


def test_stats_seven_point():
    lo, hi = threshold_cuts(SEVEN, 3)
    assert lo == -hi
    assert hi == math.sqrt(20.0 / 7.0)
    assert abs(hi - 1.6903085094570331) < 1e-12


def test_stats_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        threshold_cuts([], 3)


# --- input contract ---

def threshold_subband_sequence(coeffs, levels):
    """threshold_subband given every L as a sequence, levels first."""
    return threshold_subband(coeffs, (levels, *(lv for lv in LEVEL_CHOICES if lv != levels)))


ENTRY_POINTS = (threshold_cuts, build_partition, threshold_subband, threshold_subband_sequence)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "coeffs", ([math.inf, 0.0, 1.0], [math.nan, 0.0, 1.0, 2.0], [[0.0, -math.inf]]),
    ids=("inf", "nan", "neg-inf-2d"),
)
def test_rejects_non_finite_coefficients(entry, coeffs):
    with pytest.raises(ValueError, match="finite"):
        entry(coeffs, 3)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_rejects_statistics_overflow(entry):
    for levels in (3, 5, 7):
        for coeffs in ([1e200, -1e200, 0.0], [1.7e308, 1.7e308]):
            with pytest.raises(ValueError, match="overflow"):
                entry(coeffs, levels)
        entry([1e150, -1e150, 0.0], levels)  # squares near 1e300 still fit


@pytest.mark.parametrize(
    "levels, message",
    (((), r"at least one L, got \(\)"), ([3, 5, 3], "level 3 is repeated"),
     ((5, 4), "got 4"), ([9], "got 9"), (3.0, r"got 3\.0$"), ([5.0, 3], r"got 5\.0$")),
    ids=("empty", "repeated", "outside", "outside-only", "float", "float-in-sequence"),
)
def test_rejects_bad_levels_sequence(levels, message):
    with pytest.raises(ValueError, match=message):
        threshold_subband(SEVEN, levels)


def test_sequence_gives_one_result_per_level_in_order():
    rng = np.random.default_rng(17)
    mat = rng.normal(scale=5.0, size=(6, 9))
    index, tables = threshold_subband(mat, [7, 3, 5])
    assert len(tables) == 3
    for levels, table in zip((7, 3, 5), tables):
        out = table[index]
        single = threshold_subband(mat, levels)
        assert isinstance(single, np.ndarray) and out.shape == mat.shape
        assert np.array_equal(out, single)
    index, (only,) = threshold_subband(mat, (5,))
    assert np.array_equal(only[index], threshold_subband(mat, 5))


@pytest.mark.parametrize("levels", (3, (7, 3, 5)))
def test_indexed_gives_the_same_results_unmaterialised(levels):
    mat = np.random.default_rng(19).normal(scale=5.0, size=(6, 9))
    batch = (levels,) if np.ndim(levels) == 0 else levels
    index, tables = threshold_subband(mat, batch)
    assert index.dtype == np.uint8 and index.shape == mat.shape
    assert len(tables) == len(batch)
    for level, table in zip(batch, tables):
        assert len(table) <= 7
        assert np.array_equal(table[index], threshold_subband(mat, level))


# --- partition construction ---

def test_partition_seven_point_three_levels():
    part = build_partition(SEVEN, 3)
    sigma = math.sqrt(20.0 / 7.0)
    assert_allclose(part.boundaries, [-sigma, sigma], atol=0)
    assert_allclose(part.representatives, [-3.0, 0.0, 3.0], atol=0)


def test_partition_constant_input_collapses_to_one_block():
    for levels in (3, 5, 7):
        part = build_partition([4.25] * 10, levels)
        assert part.boundaries.size == 0
        assert_allclose(part.representatives, [4.25], atol=0)


def test_partition_rejects_bad_levels():
    with pytest.raises(ValueError, match="3, 5, 7"):
        build_partition(SEVEN, 4)
    with pytest.raises(ValueError, match="empty"):
        build_partition([], 3)


def test_coinciding_mu_sigma_cuts_leave_one_block():
    # sigma is below half an ulp of mu, so mu - sigma and mu + sigma round to one float
    coeffs = [1e16] * 5 + [1e16 + 2]
    assert threshold_cuts(coeffs, 3) == [1e16, 1e16]
    for levels in (3, 5, 7):
        assert threshold_cuts(coeffs, levels) == oracle_cuts(coeffs, levels)
        part = build_partition(coeffs, levels)
        assert part.boundaries.size == 0
        assert part.representatives.tolist() == [1e16]
        assert threshold_subband(coeffs, levels).tolist() == oracle_threshold(coeffs, levels)


def test_block_count_bounded_by_levels():
    rng = np.random.default_rng(0)
    for levels in (3, 5, 7):
        for trial in range(20):
            part = build_partition(rng.normal(size=50), levels)
            assert part.representatives.size <= levels


def test_representatives_lie_inside_their_blocks():
    rng = np.random.default_rng(4)
    for levels in (3, 5, 7):
        for trial in range(20):
            part = build_partition(rng.normal(size=40), levels)
            edges = [-math.inf, *part.boundaries.tolist(), math.inf]
            for rep, lo, hi in zip(part.representatives, edges[:-1], edges[1:]):
                assert lo <= rep <= hi


def test_cut_nesting_three_five_seven():
    rng = np.random.default_rng(7)
    for trial in range(25):
        coeffs = rng.normal(scale=10.0, size=200)
        c3 = set(threshold_cuts(coeffs, 3))
        c5 = set(threshold_cuts(coeffs, 5))
        c7 = set(threshold_cuts(coeffs, 7))
        assert c3 <= c5 <= c7


def test_cuts_match_pure_python_construction():
    rng = np.random.default_rng(11)
    for trial in range(50):
        coeffs = rng.normal(size=rng.integers(1, 40))
        for levels in (3, 5, 7):
            assert threshold_cuts(coeffs, levels) == oracle_cuts(coeffs, levels)


def test_order_invariance():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=64)
    shuffled = coeffs.copy()
    rng.shuffle(shuffled)
    for levels in (3, 5, 7):
        assert threshold_cuts(coeffs, levels) == threshold_cuts(shuffled, levels)
        a = build_partition(coeffs, levels)
        b = build_partition(shuffled, levels)
        assert np.array_equal(a.boundaries, b.boundaries)
        assert np.array_equal(a.representatives, b.representatives)
        out_a = sorted(apply_partition(coeffs, a).tolist())
        out_b = sorted(apply_partition(shuffled, b).tolist())
        assert out_a == out_b


# --- application ---

def test_apply_seven_point_example():
    part = build_partition(SEVEN, 3)
    assert_allclose(
        apply_partition(np.array(SEVEN), part),
        [-3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0],
        atol=0,
    )


def test_apply_single_block_yields_constant():
    part = build_partition([2.0, 2.0], 5)
    out = apply_partition(np.array([[1.0, -4.0], [9.0, 0.0]]), part)
    assert_allclose(out, 2.0, atol=0)


def test_apply_is_idempotent():
    rng = np.random.default_rng(8)
    for levels in (3, 5, 7):
        coeffs = rng.normal(size=(12, 12))
        part = build_partition(coeffs.ravel(), levels)
        once = apply_partition(coeffs, part)
        twice = apply_partition(once, part)
        assert np.array_equal(once, twice)


def test_apply_preserves_shape_and_bounds_distinct_values():
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(9, 5))
    for levels in (3, 5, 7):
        out = threshold_subband(mat, levels)
        assert out.shape == mat.shape
        assert np.unique(out).size <= levels


@pytest.mark.parametrize(
    "coeffs",
    ([math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.0], [[0.0, 1.0], [2.0, math.nan]]),
    ids=("nan", "inf", "neg-inf", "nan-2d"),
)
def test_apply_partition_rejects_non_finite_coefficients(coeffs):
    part = build_partition([0.0, 1.0, 2.0, 3.0, 10.0], 3)
    with pytest.raises(ValueError, match="finite"):
        apply_partition(coeffs, part)


def test_apply_partition_rejects_empty_coefficients():
    part = build_partition([0.0, 1.0, 2.0, 3.0, 10.0], 3)
    for coeffs in ([], np.zeros((0, 4))):
        with pytest.raises(ValueError, match="empty"):
            apply_partition(coeffs, part)


@pytest.mark.parametrize(
    "boundaries, representatives, field",
    (([math.nan], [0.0, 1.0], "boundaries"), ([0.0, math.inf], [0.0, 1.0, 2.0], "boundaries"),
     ([0.0], [math.nan, 1.0], "representatives"), ([0.0], [0.0, -math.inf], "representatives")),
    ids=("nan-boundary", "inf-boundary", "nan-representative", "inf-representative"),
)
def test_block_partition_rejects_non_finite_fields(boundaries, representatives, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        quantize.BlockPartition(boundaries, representatives)


@pytest.mark.parametrize(
    "boundaries, representatives, message",
    (([[0.0]], [0.0, 1.0], "must be 1-D"),
     ([0.0], [1.0], "1 representatives for 1 boundaries"),
     ([1.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing")),
    ids=("not-1-d", "representative-count", "not-increasing"),
)
def test_block_partition_rejects_malformed_fields(boundaries, representatives, message):
    with pytest.raises(ValueError, match=message):
        quantize.BlockPartition(boundaries, representatives)


# --- per-sub-band operation ---

def test_threshold_zero_matrix_is_identity():
    out = threshold_subband(np.zeros((4, 4)), 3)
    assert np.array_equal(out, np.zeros((4, 4)))


def test_threshold_row_example():
    out = threshold_subband(np.array([SEVEN]), 3)
    assert_allclose(out, [[-3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0]], atol=0)


def test_threshold_mse_non_increasing_in_levels():
    rng = np.random.default_rng(13)
    for trial in range(10):
        mat = rng.normal(scale=25.0, size=(16, 16))
        errors = []
        for levels in (3, 5, 7):
            out = threshold_subband(mat, levels)
            errors.append(float(np.mean((out - mat) ** 2)))
        assert errors[0] >= errors[1] >= errors[2]


def test_threshold_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    for trial in range(100):
        size = int(rng.integers(1, 33))
        mat = rng.normal(scale=rng.uniform(0.1, 30.0), size=size)
        for levels in (3, 5, 7):
            out = threshold_subband(mat, levels)
            expected = oracle_threshold(mat, levels)
            assert out.tolist() == expected, f"trial {trial} levels {levels}"


# Each case pins one shape of the centre block, which is never cut past L=3 and
# whose size and total come from those of the tails: a band, and a check that it
# has that shape given its L=3 cuts lo, hi and its L=7 cuts.
TAIL_CASES = {
    "centre-block-3": (  # both lower-tail cuts survive at L=7
        np.random.default_rng(29).laplace(scale=3.0, size=64),
        lambda band, lo, hi, fine: 1 + sum(cut < lo for cut in fine) == 3,
    ),
    "no-lower-tail": (
        np.array([0.0, 0.0, 0.0, 0.0, 10.0]),
        lambda band, lo, hi, fine: not np.any(band < lo),
    ),
    "empty-centre": (  # sigma is below half an ulp of mu
        np.array([1e16] * 5 + [1e16 + 2]),
        lambda band, lo, hi, fine: lo == hi,
    ),
    "no-tails": (  # sigma rounds above every deviation
        np.array([-1.0, 1.0] * 3) * float.fromhex("0x1.a6847fc6f339cp+0"),
        lambda band, lo, hi, fine: np.all((lo <= band) & (band < hi)),
    ),
    "tail-exponents-above-centre": (
        np.array([-64.0, -1e-3, 5e-4, 2e-3, -3e-3, 1e-3, 64.0]),
        lambda band, lo, hi, fine: (
            np.frexp(band[(band < lo) | (band >= hi)])[1].min() > np.frexp(band)[1].min()
        ),
    ),
}


@pytest.mark.parametrize("case", TAIL_CASES)
def test_fine_index_and_tables_match_the_cuts_and_oracle(case):
    band, has_shape = TAIL_CASES[case]
    lo, hi = threshold_cuts(band, 3)
    fine = threshold_cuts(band, 7)
    assert has_shape(band, lo, hi, fine)
    index, tables = threshold_subband(band, (3, 5, 7))
    assert index.tolist() == np.searchsorted(fine, band, side="right").tolist()
    assert len(tables) == 3
    for levels, table in zip((3, 5, 7), tables):
        assert np.array_equal(table[index], threshold_subband(band, levels))
        assert table[index].tolist() == oracle_threshold(band, levels)


def test_only_mu_and_sigma_split_the_whole_band(monkeypatch):
    band = np.random.default_rng(31).laplace(size=(64, 64))
    lo, hi = threshold_cuts(band, 3)
    tails = np.count_nonzero((band < lo) | (band >= hi))
    assert 0 < tails < band.size
    sizes = []
    split = quantize._Summands

    def recording_split(values):
        sizes.append(values.size)
        return split(values)

    monkeypatch.setattr(quantize, "_Summands", recording_split)
    threshold_subband(band, (3, 5, 7))
    # the values, their squared deviations from mu, the tail members, their squared
    # deviations from their tail's mean
    assert sizes == [band.size, band.size, tails, tails]


# --- properties against the oracle (hypothesis) ---
#
# |x| <= 1e100 keeps every square, and so the pure-Python oracle, in range.

FINITE = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False)
EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0]
)


@st.composite
def coefficient_sets(draw):
    """Finite values with heavy duplication, signed zeros and subnormals."""
    pool = draw(st.lists(st.one_of(FINITE, EDGE_VALUES), min_size=1, max_size=10))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


# integer sets with values on mu - sigma, mu + sigma and on tail cuts at L=5 and L=7
ON_CUT_TEMPLATES = ((-8, -7, -5, -4, -2, -1), (-8, -6, -3, -3, 6, 7, 7))


@st.composite
def values_on_the_cuts(draw):
    """Values that land exactly on cuts: [0, 2d] (mean d, std d), a template, or
    small integers; repeated, shifted by an integer and scaled by a power of two,
    which keeps every tie exact."""
    base = draw(st.one_of(
        st.integers(1, 1000).map(lambda d: (0, 2 * d)),
        st.sampled_from(ON_CUT_TEMPLATES),
        st.lists(st.integers(-8, 8), min_size=1, max_size=12),
    ))
    copies = draw(st.integers(1, 4))
    offset = draw(st.integers(-1000, 1000))
    scale = 2.0 ** draw(st.integers(-30, 30))
    return draw(st.permutations([(offset + v) * scale for v in base] * copies))


COEFFS = st.one_of(coefficient_sets(), values_on_the_cuts())


@settings(derandomize=True, deadline=None)
@given(COEFFS)
def test_property_threshold_matches_oracle(coeffs):
    for levels in (3, 5, 7):
        assert threshold_cuts(coeffs, levels) == oracle_cuts(coeffs, levels)
        expected = oracle_threshold(coeffs, levels)
        assert threshold_subband(coeffs, levels).tolist() == expected
        assert apply_partition(coeffs, build_partition(coeffs, levels)).tolist() == expected
    for batch in ((3, 5, 7), (3, 5), (5, 7)):
        index, tables = threshold_subband(coeffs, batch)
        assert len(tables) == len(batch)
        for levels, table in zip(batch, tables):
            assert table[index].tolist() == oracle_threshold(coeffs, levels)


@settings(derandomize=True, deadline=None)
@given(COEFFS)
def test_property_cuts_nest(coeffs):
    c3, c5, c7 = (set(threshold_cuts(coeffs, levels)) for levels in (3, 5, 7))
    assert c3 <= c5 <= c7



# --- exact sums against math.fsum ---

SUMMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # all of float64, subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def grouped_summands(draw):
    """Values, with exact cancellation when each is joined by its negation, and a
    group 0..2 for each value."""
    values = draw(st.lists(SUMMANDS, min_size=1, max_size=30))
    if draw(st.booleans()):
        values += [-v for v in values]
    values = draw(st.permutations(values))
    groups = draw(st.lists(st.integers(0, 2), min_size=len(values), max_size=len(values)))
    return values, groups


def reference_sum(values):
    """math.fsum(values) as hex, or "overflow".  fsum also raises when only a partial
    sum overflows, which depends on the order (fsum([1e308, 1e308, -1e308]) raises,
    fsum([1e308, -1e308, 1e308]) does not); then the exact Fraction sum decides."""
    try:
        return math.fsum(values).hex()
    except OverflowError:
        try:
            return float(sum(map(Fraction, values), Fraction(0))).hex()
        except OverflowError:
            return "overflow"


def exact_sum(total):
    try:
        return quantize._round(total).hex()
    except ValueError as err:
        assert str(err) == "coefficient statistics overflow float64"
        return "overflow"


@pytest.mark.parametrize("chunk", (quantize._CHUNK, 7), ids=("one-chunk", "chunks-of-7"))
@settings(derandomize=True, deadline=None)
@given(grouped_summands())
def test_property_exact_sums_match_fsum(chunk, data):
    values, groups = data
    with mock.patch.object(quantize, "_CHUNK", chunk):
        parts = quantize._Summands(np.array(values))
        (total,) = parts.totals(np.zeros(len(values), np.uint8), 1)
        grouped = parts.totals(np.array(groups, dtype=np.uint8), 3)
    assert exact_sum(total) == reference_sum(values)
    for group, group_total in enumerate(grouped):
        members = [v for v, g in zip(values, groups) if g == group]
        assert exact_sum(group_total) == reference_sum(members)


@pytest.mark.parametrize("chunk", (quantize._CHUNK, 7), ids=("one-chunk", "chunks-of-7"))
@settings(derandomize=True, deadline=None)
@given(grouped_summands())
def test_property_totals_of_two_sets_add_up_to_the_whole(chunk, data):
    """Totals share one unit, so the centre block's total is the band's minus the tails'."""
    values, groups = data
    first = [v for v, g in zip(values, groups) if g == 0]
    rest = [v for v, g in zip(values, groups) if g != 0]
    with mock.patch.object(quantize, "_CHUNK", chunk):
        (whole,), (total_first,), (total_rest,) = (
            quantize._Summands(np.array(s, dtype=np.float64)).totals(np.zeros(len(s), np.uint8), 1)
            for s in (values, first, rest)
        )
    assert total_first + total_rest == whole
    assert exact_sum(total_first + total_rest) == reference_sum(values)


def test_exact_sum_ignores_partial_overflow_but_statistics_still_overflow():
    for values in ([1e308, 1e308, -1e308], [-1e308, 1e308, 1e308]):
        parts = quantize._Summands(np.array(values))
        assert quantize._round(*parts.totals(np.zeros(len(values), np.uint8), 1)) == 1e308
        with pytest.raises(ValueError, match="overflow"):  # the squared deviations do not fit
            threshold_cuts(values, 3)
