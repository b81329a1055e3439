"""End-to-end per-image processing and the PSNR metric."""

import math

import numpy as np
import pytest

from wavequant import pipeline
from wavequant.filters import SUPPORTED_WAVELETS
from wavequant.image import RgbImage
from wavequant.pipeline import process_image, process_plane, psnr, run_experiment
from conftest import solid_image

DB2 = "db2"


# --- argument validation ---

def test_config_rejects_bad_levels_and_depth():
    plane = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError, match="levels"):
        process_plane(plane, DB2, 1, 4)
    with pytest.raises(ValueError, match="depth"):
        process_plane(plane, DB2, 0, 3)
    with pytest.raises(ValueError, match="unsupported wavelet"):
        process_plane(plane, "db3", 1, 3)


# --- process_plane / process_image ---

@pytest.mark.parametrize("value", (0, 100, 255))
@pytest.mark.parametrize("levels", (3, 5, 7))
def test_constant_plane_is_a_fixpoint(value, levels):
    plane = np.full((16, 16), value, dtype=np.uint8)
    out = process_plane(plane, DB2, 2, levels)
    assert out.dtype == np.uint8 and np.array_equal(out, plane)


@pytest.mark.parametrize(
    "wavelet", SUPPORTED_WAVELETS, ids=[f"wavelet{i}" for i in range(len(SUPPORTED_WAVELETS))]
)
def test_solid_image_unchanged_for_every_wavelet(wavelet):
    img = solid_image(16, (12, 200, 77))
    assert process_image(img, wavelet, 1, 5) == img


def test_divisibility_error_propagates():
    plane = np.zeros((6, 6), dtype=np.uint8)
    with pytest.raises(ValueError, match="divisible"):
        process_plane(plane, DB2, 2, 3)


def test_grayscale_promoted_image_keeps_channels_identical(small_natural_image):
    gray = RgbImage(np.broadcast_to(small_natural_image.pixels[:, :, :1], (64, 64, 3)))
    out = process_image(gray, "coif2", 1, 7).pixels
    assert np.array_equal(out[:, :, 0], out[:, :, 1])
    assert np.array_equal(out[:, :, 1], out[:, :, 2])


def test_natural_crop_regression_anchor(small_natural_image):
    """Frozen output of the full pipeline on the 64x64 corpus image."""
    out = process_image(small_natural_image, DB2, 1, 3)
    value = psnr(small_natural_image, out)
    assert math.isfinite(value) and value > 20.0
    assert value == pytest.approx(34.02414317684715, abs=1e-9)
    plane = process_plane(small_natural_image.pixels[:, :, 0], DB2, 1, 3)
    assert int(np.sum(plane.astype(np.int64))) == 434869


def test_pipeline_is_deterministic(small_natural_image):
    assert process_image(small_natural_image, "coif5", 1, 7) == process_image(
        small_natural_image, "coif5", 1, 7
    )


# --- psnr ---

def test_psnr_identical_images_is_infinite(small_natural_image):
    assert psnr(small_natural_image, small_natural_image) == math.inf


def test_psnr_full_difference_is_zero():
    black = solid_image(1, (0, 0, 0))
    white = solid_image(1, (255, 255, 255))
    assert psnr(black, white) == 0.0


def test_psnr_symmetry(small_natural_image):
    out = process_image(small_natural_image, DB2, 1, 3)
    assert psnr(small_natural_image, out) == psnr(out, small_natural_image)


def test_psnr_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        psnr(solid_image(2, (0, 0, 0)), solid_image(4, (0, 0, 0)))


# --- run_experiment ---

def test_run_experiment_grid_shape_and_order(small_natural_image):
    records = run_experiment(
        small_natural_image, "img", list(SUPPORTED_WAVELETS), [3, 5, 7], 1
    )
    assert len(records) == 27
    expected_order = [(w, lvl) for w in SUPPORTED_WAVELETS for lvl in (3, 5, 7)]
    assert [(r.wavelet, r.levels) for r in records] == expected_order
    assert all(r.image_id == "img" for r in records)
    assert all(20.0 < r.psnr_db < 50.0 for r in records)


def test_run_experiment_single_combination(small_natural_image):
    records = run_experiment(small_natural_image, "one", [DB2], [5], 1)
    assert len(records) == 1
    assert records[0].levels == 5


def test_run_experiment_psnr_improves_with_more_levels(small_natural_image):
    for wavelet in SUPPORTED_WAVELETS:
        records = run_experiment(small_natural_image, "m", [wavelet], [3, 5, 7], 1)
        by_level = {r.levels: r.psnr_db for r in records}
        assert by_level[7] >= by_level[5] - 0.01
        assert by_level[5] >= by_level[3] - 0.01


def test_run_experiment_rejects_empty_lists(small_natural_image):
    with pytest.raises(ValueError, match="nonempty"):
        run_experiment(small_natural_image, "x", [], [3], 1)


def test_run_experiment_error_carries_context():
    odd = solid_image(6, (1, 2, 3))  # 6x6 not divisible by 2^2
    with pytest.raises(RuntimeError, match=r"image=ctx wavelet=db2 levels=3"):
        run_experiment(odd, "ctx", [DB2], [3], 2)


def test_run_experiment_emits_reconstructions(small_natural_image):
    seen = []
    run_experiment(
        small_natural_image,
        "cb",
        [DB2],
        [3, 5],
        1,
        on_reconstruction=lambda rec, img: seen.append((rec.levels, img.width)),
    )
    assert seen == [(3, 64), (5, 64)]


def test_run_experiment_batches_levels_per_wavelet(small_natural_image, monkeypatch):
    wavelets = [DB2, "coif1"]

    def run(img, levels_list):
        seen = []
        records = run_experiment(
            img, "b", wavelets, levels_list, 1,
            on_reconstruction=lambda rec, recon: seen.append((rec, recon)),
        )
        assert records == [rec for rec, _ in seen]
        return seen

    # one run over [3, 5, 7] gives what three single-L runs give, in grid order
    batched = run(small_natural_image, [3, 5, 7])
    single = {}
    for levels in (3, 5, 7):
        for rec, recon in run(small_natural_image, [levels]):
            single[rec.wavelet, rec.levels] = (rec, recon)
    assert [(rec.wavelet, rec.levels) for rec, _ in batched] == [
        (w, lv) for w in wavelets for lv in (3, 5, 7)
    ]
    for rec, recon in batched:
        want_rec, want_recon = single[rec.wavelet, rec.levels]
        assert rec == want_rec and recon == want_recon

    # the forward DWT runs once per (channel, wavelet), and once per wavelet
    # when the three channels are one plane
    calls = []
    dwt2d = pipeline.dwt2d
    monkeypatch.setattr(
        pipeline, "dwt2d", lambda plane, fb, depth: calls.append(fb.name) or dwt2d(plane, fb, depth)
    )
    run(small_natural_image, [3, 5, 7])
    assert calls == [DB2] * 3 + ["coif1"] * 3
    calls.clear()
    gray = RgbImage(np.broadcast_to(small_natural_image.pixels[:, :, :1], (64, 64, 3)))
    run(gray, [3, 5, 7])
    assert calls == wavelets


def test_process_image_sequence_levels(small_natural_image):
    batched = process_image(small_natural_image, DB2, 1, (7, 3))
    assert batched == (
        process_image(small_natural_image, DB2, 1, 7),
        process_image(small_natural_image, DB2, 1, 3),
    )
    plane = small_natural_image.pixels[:, :, 1]
    (only,) = process_plane(plane, DB2, 1, [5])
    assert np.array_equal(only, process_plane(plane, DB2, 1, 5))
    bad = (((), "at least one L"), ((3, 3), "level 3 is repeated"), ((3, 4), "got 4"))
    for levels, message in bad:
        with pytest.raises(ValueError, match=message):
            process_plane(plane, DB2, 1, levels)
