"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from wavequant import (
    SUPPORTED_WAVELETS,
    apply_partition,
    build_partition,
    dwt2d,
    get_filter,
    idwt2d,
    psnr,
    run_experiment,
    threshold_cuts,
    threshold_subband,
    write_image,
)
from wavequant.cli import main
from conftest import natural_image, solid_image
from oracle import oracle_threshold

LEVEL_CHOICES = (3, 5, 7)


def report(number, ok, description):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}", flush=True)


@pytest.fixture(scope="module")
def corpus_records(acceptance_corpus):
    """All 27 wavelet/level records per corpus image, plus wall time."""
    start = perf_counter()
    records = {
        image_id: run_experiment(img, image_id, list(SUPPORTED_WAVELETS), [3, 5, 7], 1)
        for image_id, img in acceptance_corpus
    }
    return records, perf_counter() - start


def test_criterion_1_filter_certification():
    start = perf_counter()
    failures = []
    for wavelet in SUPPORTED_WAVELETS:
        fb = get_filter(wavelet)
        h, g = fb.lowpass, fb.highpass
        if abs(h.sum() - math.sqrt(2)) >= 1e-6:
            failures.append(f"{fb.name}: sum")
        if abs(np.dot(h, h) - 1.0) >= 1e-7:
            failures.append(f"{fb.name}: energy")
        for shift in range(1, fb.length // 2):
            if abs(np.dot(h[: fb.length - 2 * shift], h[2 * shift:])) >= 1e-6:
                failures.append(f"{fb.name}: orthogonality shift {shift}")
        n = np.arange(fb.length, dtype=np.float64)
        scale = np.sum(np.abs(g))
        for p in range(fb.vanishing_moments):
            normalized = abs(np.sum(n ** p * g)) / (scale * float(fb.length - 1) ** p)
            if normalized > 1e-4:
                failures.append(f"{fb.name}: moment {p}")
    elapsed = perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, f"filter certification, 9 banks ({elapsed:.2f}s)")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_perfect_reconstruction():
    start = perf_counter()
    rng = np.random.default_rng(2024)
    banks = [get_filter(w) for w in SUPPORTED_WAVELETS]
    worst_roundtrip = 0.0
    worst_parseval = 0.0
    for _ in range(100):
        height, width = (int(rng.integers(1, 9)) * 8 for _ in range(2))
        plane = rng.uniform(0.0, 255.0, (height, width))
        energy = float(np.sum(plane * plane))
        for fb in banks:
            for depth in (1, 2, 3):
                dec = dwt2d(plane, fb, depth)
                recon = idwt2d(dec, fb)
                worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(recon - plane))))
                total = float(np.sum(dec.approx ** 2)) + sum(
                    float(np.sum(t.h ** 2) + np.sum(t.v ** 2) + np.sum(t.d ** 2))
                    for t in dec.levels
                )
                worst_parseval = max(worst_parseval, abs(total - energy) / energy)
    elapsed = perf_counter() - start
    ok = worst_roundtrip < 1e-8 and worst_parseval < 1e-10 and elapsed < 10.0
    report(
        2,
        ok,
        f"perfect reconstruction, 100 planes x 9 filters x depths 1-3 "
        f"(max err {worst_roundtrip:.2e}, parseval {worst_parseval:.2e}, {elapsed:.1f}s)",
    )
    assert worst_roundtrip < 1e-8
    assert worst_parseval < 1e-10
    assert elapsed < 10.0


def test_criterion_3_quantizer_oracle_equivalence():
    rng = np.random.default_rng(333)
    mismatches = 0
    for trial in range(1000):
        size = int(rng.integers(1, 33))
        if trial % 3 == 0:
            coeffs = rng.choice([-4.0, -1.0, 0.0, 0.5, 2.0, 8.0], size=size)
        else:
            coeffs = rng.normal(scale=rng.uniform(0.05, 40.0), size=size)
        cut_sets = {}
        for levels in LEVEL_CHOICES:
            out = threshold_subband(coeffs, levels)
            if out.tolist() != oracle_threshold(coeffs, levels):
                mismatches += 1
            assert np.unique(out).size <= levels
            part = build_partition(coeffs, levels)
            once = apply_partition(coeffs, part)
            assert np.array_equal(once, apply_partition(once, part))
            cut_sets[levels] = set(threshold_cuts(coeffs, levels))
        assert cut_sets[3] <= cut_sets[5] <= cut_sets[7]
    ok = mismatches == 0
    report(3, ok, f"quantizer == brute-force oracle on 1000 sets x L in {{3,5,7}} "
                  f"({mismatches} mismatches)")
    assert mismatches == 0


def test_criterion_4_coefficient_mse_monotonicity():
    rng = np.random.default_rng(44)
    violations = 0
    for _ in range(100):
        mat = rng.normal(scale=rng.uniform(0.5, 50.0), size=(32, 32))
        mses = []
        for levels in LEVEL_CHOICES:
            out = threshold_subband(mat, levels)
            mses.append(float(np.mean((out - mat) ** 2)))
        if not (mses[0] >= mses[1] >= mses[2]):
            violations += 1
    ok = violations == 0
    report(4, ok, f"quantization MSE non-increasing in L on 100 matrices "
                  f"({violations} violations)")
    assert violations == 0


def test_criterion_5_trend_reproduction(corpus_records):
    records, elapsed = corpus_records
    monotone_failures = []
    band_failures = []
    for image_id, recs in records.items():
        by_wavelet = {}
        for rec in recs:
            by_wavelet.setdefault(str(rec.wavelet), {})[rec.levels] = rec.psnr_db
            if not (20.0 < rec.psnr_db < 50.0):
                band_failures.append(f"{image_id}/{rec.wavelet}/L{rec.levels}")
        for wavelet, by_level in by_wavelet.items():
            if not (by_level[7] >= by_level[5] - 0.01 and by_level[5] >= by_level[3] - 0.01):
                monotone_failures.append(f"{image_id}/{wavelet}")
    ok = not monotone_failures and not band_failures and elapsed < 60.0
    report(
        5,
        ok,
        f"PSNR(L7) >= PSNR(L5) >= PSNR(L3) and 20-50 dB band on "
        f"{len(records)} images x 9 wavelets ({elapsed:.1f}s)",
    )
    assert not monotone_failures, monotone_failures
    assert not band_failures, band_failures
    assert elapsed < 60.0


def test_criterion_6_size_near_constancy(corpus_records):
    records, _ = corpus_records
    worst = 0.0
    for image_id, recs in records.items():
        for levels in LEVEL_CHOICES:
            sizes = [r.size_bytes for r in recs if r.levels == levels]
            spread = (max(sizes) - min(sizes)) / float(np.median(sizes))
            worst = max(worst, spread)
    ok = worst < 0.03
    report(6, ok, f"size spread across wavelets < 3% of median (worst {100 * worst:.2f}%)")
    assert worst < 0.03


def test_criterion_7_metric_sanity(acceptance_corpus):
    _, img = acceptance_corpus[0]
    identical = psnr(img, img)
    black = solid_image(8, (0, 0, 0))
    white = solid_image(8, (255, 255, 255))
    zero_db = psnr(black, white)
    symmetric = psnr(black, white) == psnr(white, black)
    ok = identical == math.inf and zero_db == 0.0 and symmetric
    report(7, ok, f"psnr sentinel inf, all-255 difference {zero_db:.2f} dB, symmetric")
    assert identical == math.inf
    assert zero_db == 0.0
    assert symmetric


def test_criterion_8_end_to_end_determinism(tmp_path):
    image_path = tmp_path / "corpus.ppm"
    image_path.write_bytes(write_image(natural_image(64, seed=77)))
    outputs = []
    for run in (1, 2):
        report_path = tmp_path / f"report{run}.csv"
        plot_path = tmp_path / f"plot{run}.dat"
        rc = main([
            "--report", str(report_path), "--plot", str(plot_path), str(image_path)
        ])
        assert rc == 0
        outputs.append((report_path.read_bytes(), plot_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(8, ok, "two consecutive CLI runs produce byte-identical CSV and plot files")
    assert outputs[0] == outputs[1]
