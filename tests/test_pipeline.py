"""End-to-end per-image processing and the PSNR metric."""

import gc
import math
import os
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


@pytest.mark.parametrize("levels", (3, 5, 7))
def test_process_plane_is_channel_0_of_the_promoted_image(small_natural_image, levels):
    plane = small_natural_image.pixels[:, :, 1]
    out = process_plane(plane, "coif2", 1, levels)
    assert out.dtype == np.uint8 and out.shape == plane.shape
    assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
    gray = RgbImage(np.stack([plane] * 3, axis=-1))
    assert np.array_equal(out, process_image(gray, "coif2", 1, levels).pixels[:, :, 0])


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


def test_psnr_on_640_rgb_pairs_matches_an_int64_sum_of_squares():
    rng = np.random.default_rng(25)
    shape = (640, 640, 3)
    pairs = (
        (rng.integers(0, 256, shape, dtype=np.uint8), rng.integers(0, 256, shape, dtype=np.uint8)),
        (np.zeros(shape, dtype=np.uint8), np.full(shape, 255, dtype=np.uint8)),
    )
    for a, b in pairs:
        diff = np.subtract(a, b, dtype=np.int64)
        mse = int(np.vdot(diff, diff)) / (3.0 * 640 * 640)
        assert psnr(RgbImage(a), RgbImage(b)) == 10.0 * math.log10(255.0 * 255.0 / mse)


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


@pytest.mark.parametrize(
    "wavelets, message",
    (([DB2, "nope"], "unsupported wavelet 'nope'"), ([DB2, "DB2"], "wavelet db2 is repeated"),
     ([], "wavelets list must be nonempty"),
     (DB2, "wavelets must be a list of names, got the string 'db2'"),
     ([3], "wavelet name must be a string, got 3$"),
     ({DB2}, r"wavelets must be a list of names, got \{'db2'\}$"),
     (None, "wavelets must be a list of names, got None$")),
    ids=("unknown", "repeated", "empty", "bare-string", "not-a-string", "set", "none"),
)
def test_run_sweep_checks_wavelets_before_any_compute(
    small_natural_image, monkeypatch, wavelets, message
):
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    seen = []
    with pytest.raises(ValueError, match=message):
        run_sweep({"x": small_natural_image}, wavelets, [3], 1, lambda rec, recon: seen.append(rec))
    assert calls == [] and seen == []


@pytest.mark.parametrize(
    "depth, message",
    ((2.0, "depth must be an integer, got 2.0"), (1.5, "depth must be an integer, got 1.5"),
     (0, "depth must be >= 1, got 0")),
    ids=("integral-float", "fraction", "zero"),
)
def test_run_sweep_checks_depth_before_any_compute(
    small_natural_image, monkeypatch, depth, message
):
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    seen = []
    with pytest.raises(ValueError, match=message):
        run_sweep({"x": small_natural_image}, [DB2], [3], depth,
                  lambda rec, recon: seen.append(rec))
    assert calls == [] and seen == []


@pytest.mark.parametrize("depth", (True, False))
def test_run_sweep_rejects_a_bool_depth_before_any_compute(small_natural_image, monkeypatch, depth):
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    seen = []
    with pytest.raises(ValueError, match=f"depth must be an integer, got {depth}"):
        run_sweep({"x": small_natural_image}, [DB2], [3], depth,
                  lambda rec, recon: seen.append(rec))
    assert calls == [] and seen == []


def test_run_sweep_records_carry_wavelet_labels(small_natural_image, monkeypatch):
    want = run_experiment(small_natural_image, "x", [DB2], [3, 5], 1)
    banks = []
    dwt2d = pipeline.dwt2d

    def recorded(plane, fb, depth):
        banks.append(fb.name)
        return dwt2d(plane, fb, depth)

    monkeypatch.setattr(pipeline, "dwt2d", recorded)
    records = run_experiment(small_natural_image, "x", ["DB2"], [3, 5], 1)
    assert [r.wavelet for r in records] == [DB2, DB2]
    assert records == want and set(banks) == {DB2}


def test_run_sweep_records_carry_int_levels(small_natural_image):
    records = run_sweep({"x": small_natural_image}, [DB2], np.array([3, 5]), 1)
    assert [r.levels for r in records] == [3, 5]
    assert all(type(r.levels) is int for r in records)


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
    images = pipeline._images
    size = pipeline.encoded_size

    def failing_images(channels, wavelet, *args):
        if fail_in == "compute" and wavelet == "coif1":
            raise ValueError("boom")
        for recon in images(channels, wavelet, *args):
            # marked here, before run_sweep queues its sizing
            if wavelet == "coif1":
                bad.add(id(recon))
            yield recon

    def encoded_size(recon):
        time.sleep(0.02)  # so that a worker the run did not join is still alive
        if id(recon) in bad:
            raise ValueError("boom")
        return size(recon)

    monkeypatch.setattr(pipeline, "_images", failing_images)
    monkeypatch.setattr(pipeline, "encoded_size", encoded_size)
    seen = []
    with pytest.raises(RuntimeError) as info:
        run_experiment(
            img, "f", WAVELETS3, [3, 5], 1,
            on_reconstruction=lambda rec, recon: seen.append(rec),
        )
    assert threading.active_count() == threads_before
    return seen, info.value


@pytest.mark.parametrize("fail_in", ["encoded_size", "compute"])
def test_run_experiment_failing_wavelet_follows_the_previous_callbacks(
    small_natural_image, monkeypatch, fail_in
):
    want = run_experiment(small_natural_image, "f", [DB2], [3, 5], 1)
    seen, err = _failing_wavelet_run(small_natural_image, monkeypatch, fail_in)
    assert str(err) == "processing failed for image=f wavelet=coif1 levels=3,5: boom"
    assert isinstance(err.__cause__, ValueError)
    # every db2 record, in order; nothing of coif1 or of db4 after it
    assert seen == want


def test_process_plane_and_image_take_one_level_checked_before_any_compute(
    small_natural_image, monkeypatch
):
    # a batch of L in any order gives what one call per L gives
    seen = []
    run_experiment(
        small_natural_image, "x", [DB2], [7, 3], 1, lambda rec, recon: seen.append(recon)
    )
    assert seen == [process_image(small_natural_image, DB2, 1, levels) for levels in (7, 3)]
    plane = small_natural_image.pixels[:, :, 1]
    assert np.array_equal(seen[0].pixels[:, :, 1], process_plane(plane, DB2, 1, 7))

    def dwt2d(*args):
        raise AssertionError("dwt2d ran before the levels check")

    monkeypatch.setattr(pipeline, "dwt2d", dwt2d)
    for levels in ((3, 5), [5], (), 4):
        with pytest.raises(ValueError, match=r"^levels must be in \{3, 5, 7\}, got "):
            process_plane(plane, DB2, 1, levels)
        with pytest.raises(ValueError, match=r"^levels must be in \{3, 5, 7\}, got "):
            process_image(small_natural_image, DB2, 1, levels)
    # a sweep's levels list is a batch of L, checked as one before any compute too
    bad = (([], "at least one L"), ([3, 3], "level 3 is repeated"), ([3, 4], "got 4"),
           ([5, 3.0], r"got 3\.0$"), ("3", "got '3'$"))
    for levels, message in bad:
        with pytest.raises(ValueError, match=message):
            run_sweep({"x": small_natural_image}, [DB2], levels, 1)


def test_images_hold_one_level_of_detail_bands():
    # the float detail bands are dropped once indexed, and only one L's are
    # materialised at a time: measured 6.7 float64 planes against 8.9 when
    # every L's thresholded bands were held together
    channels = pipeline._channels(natural_image(256, seed=5))
    list(pipeline._images(channels, DB2, 3, (3, 5, 7)))  # warm every cache first
    tracemalloc.start()
    try:
        list(pipeline._images(channels, DB2, 3, (3, 5, 7)))
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
        process_image(img, DB2, 2, levels).pixels.tobytes(): (image_id, levels)
        for image_id, img in images.items()
        for levels in (3, 5, 7)
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
    # each queued sizing call holds its own image; the sweep itself keeps none
    # of them, so that at most the reconstructions waiting or being sized are alive
    images = {"a": natural_image(32, seed=3), "b": natural_image(32, seed=5)}
    jobs = []  # per job: (weakref of each image made, set as its sizing returns)
    returned_of = {}  # id of each image made and not yet sized -> its event
    alive_at_start = []
    size, images_of = pipeline.encoded_size, pipeline._images

    def alive():
        """How many of the images made so far are alive once their sizing is done.

        Every image made is waited for until it is sized, queued or not, and a
        worker drops the image it sized just after the call returns, so the
        release gets a bounded wait.
        """
        made = [entry for job in jobs for entry in job]
        for _, returned in made:
            assert returned.wait(timeout=10)
        deadline = time.monotonic() + 10
        while True:
            gc.collect()
            count = sum(image() is not None for image, _ in made)
            if count == 0 or time.monotonic() > deadline:
                return count
            time.sleep(0.001)

    def job_images(*args):
        alive_at_start.append(alive())
        job = []
        jobs.append(job)
        for recon in images_of(*args):
            job.append((weakref.ref(recon), threading.Event()))
            returned_of[id(recon)] = job[-1][1]
            yield recon

    def encoded_size(image):
        try:
            return size(image)
        finally:
            returned_of.pop(id(image)).set()

    monkeypatch.setattr(pipeline, "_images", job_images)
    monkeypatch.setattr(pipeline, "encoded_size", encoded_size)
    records = run_sweep(images, [DB2, "coif1"], [3, 5, 7], 1)
    assert len(records) == 12
    assert [len(job) for job in jobs] == [3] * 4
    assert alive_at_start == [0] * 4
    assert alive() == 0
    assert returned_of == {}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="niceness is per thread on Linux")
def test_run_sweep_sizes_at_idle_priority_off_the_calling_thread(small_natural_image, monkeypatch):
    def niceness():
        return os.getpriority(os.PRIO_PROCESS, threading.get_native_id())

    caller, caller_niceness = threading.get_ident(), niceness()
    calls = []  # per encoded_size call: (thread, its niceness)

    def sized(img):
        calls.append((threading.get_ident(), niceness()))
        return encoded_size(img)

    monkeypatch.setattr(pipeline, "encoded_size", sized)
    run_sweep({"s": small_natural_image}, WAVELETS3, [3, 5], 1)
    assert len(calls) == 6
    assert all(thread != caller and nice == 19 for thread, nice in calls)
    assert niceness() == caller_niceness


def test_run_sweep_sizes_18_reconstructions_on_at_most_size_threads(small_natural_image, monkeypatch):
    threads = []

    def sized(img):
        threads.append(threading.get_ident())
        return encoded_size(img)

    monkeypatch.setattr(pipeline, "encoded_size", sized)
    images = {"a": small_natural_image, "b": natural_image(32, seed=3)}
    records = run_sweep(images, WAVELETS3, [3, 5, 7], 1)
    assert len(records) == len(threads) == 18
    assert len(set(threads)) <= pipeline._SIZE_THREADS


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


def test_run_sweep_computes_ahead_of_slow_sizing(monkeypatch):
    # three single-L jobs fit in the backlog, so no job's compute waits for a size
    assert len(WAVELETS3) <= pipeline._BACKLOG
    events = []
    last_started = threading.Event()
    images, size = pipeline._images, pipeline.encoded_size

    def started_images(channels, wavelet, *args):
        events.append(("start", wavelet))
        if wavelet == WAVELETS3[-1]:
            last_started.set()
        return images(channels, wavelet, *args)

    def encoded_size(recon):
        # a sweep that waits for this size before the last compute goes on after the
        # timeout, and the order check below fails
        last_started.wait(timeout=5)
        out = size(recon)
        events.append(("sized", None))
        return out

    monkeypatch.setattr(pipeline, "_images", started_images)
    monkeypatch.setattr(pipeline, "encoded_size", encoded_size)
    records = run_sweep({"a": natural_image(32, seed=3)}, WAVELETS3, [3], 1)
    assert [r.wavelet for r in records] == WAVELETS3
    first_sized = events.index(("sized", None))
    assert events[:first_sized] == [("start", wavelet) for wavelet in WAVELETS3]


def test_run_sweep_holds_at_most_the_backlog_and_one_job_undelivered(monkeypatch):
    batch = [3, 5]
    submitted, delivered = [], []  # weakref of each image queued for sizing; each record delivered
    # undelivered at each job's start and after each queued size; images alive at each start
    at_start, after_queueing, alive_at_start = [], [], []
    # no size is done before job `gate` starts, when exactly _BACKLOG sizes are queued and
    # undelivered; that job's sizes then take the sweep past the backlog, into its wait.
    # Sizes are done only after the next job starts, or after a second: a sweep that
    # keeps the bound waits for them first, and one that does not starts that job with
    # all of them undelivered
    gate = pipeline._BACKLOG // len(batch) + 1
    assert pipeline._BACKLOG % len(batch) == 0 and len(SUPPORTED_WAVELETS) > gate
    ahead, beyond = threading.Event(), threading.Event()
    images, size = pipeline._images, pipeline.encoded_size

    def counted_images(*args):
        at_start.append(len(submitted) - len(delivered))
        if len(at_start) == gate:
            ahead.set()
        if len(at_start) == gate + 1:
            beyond.set()
        gc.collect()
        alive_at_start.append(sum(image() is not None for image in submitted))
        for recon in images(*args):
            # run_sweep queues recon's size before it asks for the next L, and
            # delivers nothing in between, so this counts it as queued
            submitted.append(weakref.ref(recon))
            after_queueing.append(len(submitted) - len(delivered))
            yield recon

    def encoded_size(recon):
        ahead.wait(timeout=10)
        beyond.wait(timeout=1)
        return size(recon)

    monkeypatch.setattr(pipeline, "_images", counted_images)
    monkeypatch.setattr(pipeline, "encoded_size", encoded_size)
    records = run_sweep(
        {"a": natural_image(32, seed=3)}, SUPPORTED_WAVELETS, batch, 1,
        lambda rec, recon: delivered.append(rec),
    )
    assert records == delivered and len(records) == len(SUPPORTED_WAVELETS) * len(batch)
    bound = pipeline._BACKLOG + len(batch)
    assert max(at_start + after_queueing) <= bound
    assert max(after_queueing) == bound  # the sweep neither waits early nor holds more
    assert max(alive_at_start) <= bound
    # the compute ran ahead of the sizes by more than the one job a wait on each job leaves
    assert max(at_start) > len(batch)


@pytest.mark.parametrize("worker_fails", [True, False])
def test_run_sweep_earliest_failure_in_grid_order_wins_over_a_deep_backlog(
    small_natural_image, monkeypatch, worker_fails
):
    # single-L jobs; every size waits until job 3's compute fails, so jobs 0-2 are all pending then
    assert pipeline._BACKLOG >= 3
    threads_before = threading.active_count()
    wavelets = list(SUPPORTED_WAVELETS[:5])
    bad_size, bad_compute = wavelets[1], wavelets[3]
    failing = threading.Event()
    bad = set()
    seen, delivered_at_failure = [], []
    images, size = pipeline._images, pipeline.encoded_size

    def failing_images(channels, wavelet, *args):
        if wavelet == bad_compute:
            delivered_at_failure.append(len(seen))
            failing.set()
            raise ValueError("compute boom")
        for recon in images(channels, wavelet, *args):
            if worker_fails and wavelet == bad_size:
                bad.add(id(recon))
            yield recon

    def encoded_size(recon):
        failing.wait(timeout=10)
        if id(recon) in bad:
            raise ValueError("size boom")
        return size(recon)

    monkeypatch.setattr(pipeline, "_images", failing_images)
    monkeypatch.setattr(pipeline, "encoded_size", encoded_size)
    with pytest.raises(RuntimeError) as info:
        run_sweep({"f": small_natural_image}, wavelets, [3], 1, lambda rec, recon: seen.append(rec))
    monkeypatch.undo()
    assert delivered_at_failure == [0]
    failed, cause = (bad_size, "size boom") if worker_fails else (bad_compute, "compute boom")
    assert str(info.value) == f"processing failed for image=f wavelet={failed} levels=3: {cause}"
    assert isinstance(info.value.__cause__, ValueError)
    # every job before the failed one, in order; nothing of it or after it
    assert seen == run_experiment(small_natural_image, "f", wavelets[:wavelets.index(failed)], [3], 1)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("fail_in", ["compute", "encoded_size"])
def test_run_sweep_failure_follows_every_earlier_reconstruction_also_of_its_own_wavelet(
    monkeypatch, fail_in
):
    # coif1 fails at its second L: its first L is delivered, with its callback, before the error
    threads_before = threading.active_count()
    img = natural_image(32, seed=3)
    per_level = len(pipeline._channels(img))  # idwt2d calls per L
    want = run_experiment(img, "f", [DB2, "coif1"], [3, 5], 1)[:3]
    inverted, bad = [], set()
    idwt2d, images, size = pipeline.idwt2d, pipeline._images, pipeline.encoded_size

    def failing_idwt2d(dec, fb):
        inverted.append(fb.name)
        if inverted.count("coif1") > per_level:
            raise ValueError("boom")
        return idwt2d(dec, fb)

    def marked_images(channels, wavelet, depth, batch):
        for levels, recon in zip(batch, images(channels, wavelet, depth, batch)):
            if (wavelet, levels) == ("coif1", 5):
                bad.add(id(recon))
            yield recon

    def encoded_size(recon):
        if id(recon) in bad:
            raise ValueError("boom")
        return size(recon)

    if fail_in == "compute":
        monkeypatch.setattr(pipeline, "idwt2d", failing_idwt2d)
    else:
        monkeypatch.setattr(pipeline, "_images", marked_images)
        monkeypatch.setattr(pipeline, "encoded_size", encoded_size)
    seen = []
    with pytest.raises(RuntimeError) as info:
        run_sweep({"f": img}, [DB2, "coif1"], [3, 5], 1,
                  lambda rec, recon: seen.append((rec, recon.pixels.copy())))
    monkeypatch.undo()
    assert str(info.value) == "processing failed for image=f wavelet=coif1 levels=3,5: boom"
    assert isinstance(info.value.__cause__, ValueError) and str(info.value.__cause__) == "boom"
    # db2 at L=3 and 5, then coif1 at L=3, in grid order, each with its image
    assert [rec for rec, _ in seen] == want
    for rec, pixels in seen:
        assert np.array_equal(pixels, process_image(img, rec.wavelet, 1, rec.levels).pixels)
    assert threading.active_count() == threads_before
