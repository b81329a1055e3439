"""End-to-end per-image processing and the PSNR metric."""

import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from wavequant import pipeline
from wavequant.filters import SUPPORTED_WAVELETS
from wavequant.image import RgbImage, encoded_size
from wavequant.pipeline import process_image, process_plane, psnr, run_experiment, run_sweep
from conftest import natural_image, solid_image

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


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16, bool])
def test_process_plane_rejects_non_uint8_plane(dtype):
    plane = np.full((16, 16), 300.7).astype(dtype)
    with pytest.raises(ValueError, match=f"plane must be uint8, got dtype {np.dtype(dtype)}"):
        process_plane(plane, DB2, 1, 3)


@pytest.mark.parametrize("value", [0.0, -0.0, -0.5, -1.5, -2.5, 0.5, 1.5, 254.5, 255.5])
def test_to_uint8_rounds_half_away_from_zero_then_clamps(value):
    values = np.array([np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)])
    # Decimal(v) is exact, and ROUND_HALF_UP rounds half away from zero
    reference = [
        min(255, max(0, int(Decimal(v).quantize(Decimal(1), rounding=ROUND_HALF_UP))))
        for v in values
    ]
    assert pipeline._to_uint8(values).tolist() == reference
    exact = {0.5: 1, 1.5: 2, 254.5: 255, 255.5: 255}.get(value, 0)
    assert pipeline._to_uint8(np.array([value])).tolist() == [exact]
    # 0.49999999999999994 + 0.5 rounds to 1.0 in float64; the rule must not add first
    assert pipeline._to_uint8(np.array([np.nextafter(0.5, 0)])).tolist() == [0]


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


def test_run_experiment_checks_levels_once_before_any_compute(small_natural_image, monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"levels must name at least one L, got \[\]"):
        run_experiment(small_natural_image, "x", [DB2], [], 1)
    assert calls == []


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


# --- run_experiment: sizes on background threads ---

WAVELETS3 = [DB2, "coif1", "db4"]


def test_run_experiment_sizes_match_serial_encoded_size(small_natural_image):
    # 27 reconstructions sized by more threads than cores, switching often
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = run_experiment(
            small_natural_image, "s", list(SUPPORTED_WAVELETS), [3, 5, 7], 1,
            on_reconstruction=lambda rec, recon: seen.append((rec, recon)),
        )
    finally:
        sys.setswitchinterval(interval)
    assert records == [rec for rec, _ in seen]
    assert len(records) == 27
    for rec, recon in seen:
        assert rec.size_bytes == encoded_size(recon)


def test_run_experiment_sizes_off_and_callbacks_on_the_calling_thread(
    small_natural_image, monkeypatch
):
    caller = threading.get_ident()
    threads_before = threading.active_count()
    size_threads, callback_threads = [], []

    def sized(img):
        size_threads.append(threading.get_ident())
        return encoded_size(img)

    monkeypatch.setattr(pipeline, "encoded_size", sized)
    run_experiment(
        small_natural_image, "t", WAVELETS3, [3, 5], 1,
        on_reconstruction=lambda rec, recon: callback_threads.append(threading.get_ident()),
    )
    assert len(size_threads) == 6 and caller not in size_threads
    assert callback_threads == [caller] * 6
    assert threading.active_count() == threads_before


def _failing_wavelet_run(img, monkeypatch, fail_in):
    """run_experiment over WAVELETS3 with fail_in raising for coif1's work.

    Returns the records passed to on_reconstruction and the error raised.
    """
    threads_before = threading.active_count()
    bad = set()
    process = pipeline.process_image
    size = pipeline.encoded_size

    def process_image(image, wavelet, *args, on_level):
        if fail_in == "process_image" and wavelet == "coif1":
            raise ValueError("boom")

        def mark(recon):
            # marked here, before on_level starts its sizing
            if wavelet == "coif1":
                bad.add(id(recon))
            on_level(recon)

        return process(image, wavelet, *args, on_level=mark)

    def encoded_size(recon):
        time.sleep(0.02)  # so that a size thread the run did not join is still alive
        if id(recon) in bad:
            raise ValueError("boom")
        return size(recon)

    monkeypatch.setattr(pipeline, "process_image", process_image)
    monkeypatch.setattr(pipeline, "encoded_size", encoded_size)
    seen = []
    with pytest.raises(RuntimeError) as info:
        run_experiment(
            img, "f", WAVELETS3, [3, 5], 1,
            on_reconstruction=lambda rec, recon: seen.append(rec),
        )
    assert threading.active_count() == threads_before
    return seen, info.value


@pytest.mark.parametrize("fail_in", ["encoded_size", "process_image"])
def test_run_experiment_failing_wavelet_follows_the_previous_callbacks(
    small_natural_image, monkeypatch, fail_in
):
    want = run_experiment(small_natural_image, "f", [DB2], [3, 5], 1)
    seen, err = _failing_wavelet_run(small_natural_image, monkeypatch, fail_in)
    assert str(err) == "processing failed for image=f wavelet=coif1 levels=3,5: boom"
    assert isinstance(err.__cause__, ValueError)
    # every db2 record, in order; nothing of coif1 or of db4 after it
    assert seen == want


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


def test_process_image_holds_one_level_of_detail_bands():
    # the float detail bands are dropped once indexed, and only one L's are
    # materialised at a time: measured 6.7 float64 planes against 8.9 when
    # every L's thresholded bands were held together
    img = natural_image(256, seed=5)
    process_image(img, DB2, 3, (3, 5, 7))  # warm every cache first
    tracemalloc.start()
    try:
        process_image(img, DB2, 3, (3, 5, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 256 * 256 * 8


# --- run_sweep: one stream over every image ---

def test_run_sweep_equals_one_run_experiment_per_image(small_natural_image):
    images = {"a": small_natural_image, "b": natural_image(32, seed=3)}

    def collect(run):
        seen = []
        records = run(lambda rec, recon: seen.append((rec, recon.pixels.tobytes())))
        assert records == [rec for rec, _ in seen]
        return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        swept = collect(lambda cb: run_sweep(images, WAVELETS3, [3, 5, 7], 1, cb))
        separate = collect(lambda cb: [
            rec for image_id, img in images.items()
            for rec in run_experiment(img, image_id, WAVELETS3, [3, 5, 7], 1, cb)
        ])
    finally:
        sys.setswitchinterval(interval)
    assert len(swept) == 2 * 9
    assert swept == separate


def test_run_sweep_sizes_each_level_as_soon_as_it_is_reconstructed(monkeypatch):
    # two RGB images of different sizes, so every call names its image by shape
    images = {"a": natural_image(64, seed=7), "b": natural_image(32, seed=3)}
    side = {64: "a", 32: "b"}
    recon_of = {
        recon.pixels.tobytes(): (image_id, levels)
        for image_id, img in images.items()
        for levels, recon in zip((3, 5, 7), process_image(img, DB2, 2, (3, 5, 7)))
    }
    events, idwt_calls = [], {"a": 0, "b": 0}
    started = {key: threading.Event() for key in recon_of.values()}
    dwt2d, idwt2d, size = pipeline.dwt2d, pipeline.idwt2d, pipeline.encoded_size

    def traced_dwt2d(plane, fb, depth):
        events.append(("dwt2d", side[plane.shape[0]]))
        return dwt2d(plane, fb, depth)

    def traced_idwt2d(dec, fb):
        out = idwt2d(dec, fb)
        image_id = side[out.shape[0]]
        idwt_calls[image_id] += 1
        if idwt_calls[image_id] == 9:
            # the image's last inverse (3 channels x 3 L) gives the L=3 sizing,
            # started a whole L earlier, time to get going before it returns
            started[image_id, 3].wait(timeout=10)
        events.append(("idwt2d", image_id))
        return out

    def traced_size(recon):
        key = recon_of[recon.pixels.tobytes()]
        events.append(("size", key))
        started[key].set()
        return size(recon)

    monkeypatch.setattr(pipeline, "dwt2d", traced_dwt2d)
    monkeypatch.setattr(pipeline, "idwt2d", traced_idwt2d)
    monkeypatch.setattr(pipeline, "encoded_size", traced_size)
    records = run_sweep(images, [DB2], [3, 5, 7], 2)
    assert [(r.image_id, r.levels) for r in records] == list(recon_of.values())
    for image_id in images:
        last_idwt = max(i for i, e in enumerate(events) if e == ("idwt2d", image_id))
        assert events.index(("size", (image_id, 3))) < last_idwt
    first_sizing_of_a = min(i for i, e in enumerate(events) if e[0] == "size" and e[1][0] == "a")
    assert first_sizing_of_a < events.index(("dwt2d", "b"))
    assert sum(e[0] == "size" for e in events) == 6


def test_run_sweep_without_callback_holds_no_sized_reconstruction(monkeypatch):
    # each size thread holds its own image; the sweep itself keeps none of them,
    # so that at most the reconstructions being sized are alive at once
    images = {"a": natural_image(32, seed=3), "b": natural_image(32, seed=5)}
    jobs = []  # per process_image call: (weakref of each image sized, its _Size)
    alive_at_start = []
    size, process = pipeline._Size, pipeline.process_image

    def alive():
        """How many of the images sized so far are alive once their sizing is done."""
        for sized in jobs:
            for _, sizing in sized:
                sizing.thread.join()
        gc.collect()
        return sum(image() is not None for sized in jobs for image, _ in sized)

    class RecordingSize(size):
        def __init__(self, image, slots):
            super().__init__(image, slots)
            jobs[-1].append((weakref.ref(image), self))

    def process_image(*args, **kwargs):
        alive_at_start.append(alive())
        jobs.append([])
        return process(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_Size", RecordingSize)
    monkeypatch.setattr(pipeline, "process_image", process_image)
    records = run_sweep(images, [DB2, "coif1"], [3, 5, 7], 1)
    assert len(records) == 12
    assert [len(sized) for sized in jobs] == [3] * 4
    assert alive_at_start == [0] * 4
    assert alive() == 0


def test_run_sweep_failing_image_follows_every_callback_of_the_one_before(small_natural_image):
    threads_before = threading.active_count()
    images = {"good": small_natural_image, "odd": solid_image(6, (1, 2, 3))}  # 6 % 4 != 0
    want = run_experiment(small_natural_image, "good", [DB2, "coif1"], [3, 5], 2)
    seen = []
    with pytest.raises(RuntimeError) as info:
        run_sweep(images, [DB2, "coif1"], [3, 5], 2, lambda rec, recon: seen.append(rec))
    assert str(info.value).startswith("processing failed for image=odd wavelet=db2 levels=3,5: ")
    assert "divisible" in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)
    assert seen == want
    assert threading.active_count() == threads_before
