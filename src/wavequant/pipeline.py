"""End-to-end per-image processing and quality metrics.

Per channel: forward DWT, threshold every detail sub-band of every level
with its own statistics (the approximation is never touched), inverse DWT,
round half away from zero, clamp to [0, 255].  For a sequence of L the
forward DWT runs once per channel and each sub-band is thresholded once,
into a uint8 block index and one small centroid table per L; the float
detail bands are dropped.  Then each L in turn gathers its bands from the
tables and runs the inverse DWT of every channel, so one L's detail bands
exist at a time and each L's reconstruction is finished before the next
L's inverse runs.  Equal channels are processed once.

run_sweep streams a whole (image, wavelet, L) grid: each RGB reconstruction
is handed to a background DEFLATE sizing thread (zlib releases the GIL) the
moment it is finished, while the calling thread computes the next L, the
next wavelet or the next image.  An (image, wavelet)'s sizes are awaited,
and its records and callbacks made, one (image, wavelet) behind the compute,
on the calling thread, in grid order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .filters import get_filter
from .image import RgbImage, encoded_size
from .quantize import level_batch, threshold_subband
from .transform import Decomposition, SubbandTriple, dwt2d, idwt2d

PEAK = 255.0
_BELOW_HALF = np.nextafter(0.5, 0.0)
_SIZE_THREADS = 2  # encoded_size calls that may run at once


@dataclass(frozen=True)
class MetricsRecord:
    image_id: str
    wavelet: str
    levels: int
    psnr_db: float
    size_bytes: int


def _to_uint8(values: np.ndarray) -> np.ndarray:
    """values rounded and clamped to uint8; values, which the caller owns, is overwritten."""
    # Round half up, exactly: floor(v + 0.5) maps nextafter(0.5, 0) to 1, as that
    # float64 sum rounds up to 1.0, but floor(v + _BELOW_HALF) is floor(v + 0.5) of
    # the real sum for every v >= 0.  As the clamp sends every negative value to 0,
    # this equals rounding half away from zero.
    np.add(values, _BELOW_HALF, out=values)
    np.floor(values, out=values)
    return np.clip(values, 0.0, 255.0, out=values).astype(np.uint8)


def _indexed(
    dec: Decomposition, batch: Sequence[int]
) -> tuple[np.ndarray, list[list[tuple[np.ndarray, list[np.ndarray]]]]]:
    """dec's approximation, and per level each detail band as threshold_subband's
    (uint8 index, tables per L), so that the float detail bands can be dropped."""
    return dec.approx, [[threshold_subband(b, batch) for b in triple] for triple in dec.levels]


def _reconstructions(
    planes: Sequence[np.ndarray], wavelet: str, depth: int, batch: Sequence[int]
) -> Iterator[list[np.ndarray]]:
    """For each L of batch in turn, the uint8 reconstruction of every plane.

    All planes are transformed and indexed before the first L is yielded; the
    float detail bands of one L exist only while that L is inverted.
    """
    fb = get_filter(wavelet)
    indexed = [_indexed(dwt2d(plane, fb, depth), batch) for plane in planes]
    for k in range(len(batch)):
        yield [
            _to_uint8(idwt2d(Decomposition(approx, [
                SubbandTriple(*(tables[k][index] for index, tables in triple)) for triple in levels
            ]), fb))
            for approx, levels in indexed
        ]


def process_plane(
    plane: np.ndarray, wavelet: str, depth: int, levels: int | Sequence[int]
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Transform, threshold all detail sub-bands, reconstruct one 2-D uint8 channel.

    levels is one L, giving one plane, or a sequence of L, giving a tuple of
    planes in that order; the forward DWT and each band's statistics serve them all.
    """
    if np.asarray(plane).dtype != np.uint8:
        raise ValueError(f"plane must be uint8, got dtype {np.asarray(plane).dtype}")
    batch, single = level_batch(levels)
    planes = tuple(out for (out,) in _reconstructions([plane], wavelet, depth, batch))
    return planes[0] if single else planes


def process_image(
    img: RgbImage,
    wavelet: str,
    depth: int,
    levels: int | Sequence[int],
    on_level: Callable[[RgbImage], None] | None = None,
) -> RgbImage | tuple[RgbImage, ...]:
    """process_plane applied to R, G and B, with levels as in process_plane.

    Equal channels (a grayscale image) are processed once.  The channels are
    reconstructed one L at a time, and on_level(recon), if given, is called
    with each L's image as soon as it is finished, before the next L's
    inverse runs.
    """
    batch, single = level_batch(levels)
    px = img.pixels
    if np.array_equal(px[:, :, 0], px[:, :, 1]) and np.array_equal(px[:, :, 0], px[:, :, 2]):
        channels = [px[:, :, 0]]
    else:
        channels = [px[:, :, c] for c in range(3)]
    images = []
    for planes in _reconstructions(channels, wavelet, depth, batch):
        images.append(RgbImage(np.stack(planes * 3 if len(planes) == 1 else planes, axis=-1)))
        if on_level is not None:
            on_level(images[-1])
    return images[0] if single else tuple(images)


def psnr(orig: RgbImage, recon: RgbImage) -> float:
    """Peak signal-to-noise ratio in dB, MSE pooled over all three channels.

    Returns math.inf for identical images.
    """
    if (orig.width, orig.height) != (recon.width, recon.height):
        raise ValueError(
            f"image dimensions differ: {orig.width}x{orig.height} vs "
            f"{recon.width}x{recon.height}"
        )
    # exact integer sum of squares; one int64 temporary the size of the image
    diff = np.subtract(orig.pixels, recon.pixels, dtype=np.int64)
    mse = int(np.vdot(diff, diff)) / (3.0 * orig.width * orig.height)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


class _Size:
    """encoded_size(image) on a daemon thread that holds one of the slots while it runs."""

    def __init__(self, image: RgbImage, slots: threading.Semaphore) -> None:
        self._result: int | BaseException = 0
        self.thread = threading.Thread(target=self._run, args=(image, slots), daemon=True)
        self.thread.start()

    def _run(self, image: RgbImage, slots: threading.Semaphore) -> None:
        with slots:
            try:
                self._result = encoded_size(image)
            except BaseException as err:
                self._result = err

    def result(self) -> int:
        """The size, once the thread is done; an error it met is raised here."""
        self.thread.join()
        if isinstance(self._result, BaseException):
            raise self._result
        return self._result


def _failure(image_id: str, wavelet: str, batch: Sequence[int], err: Exception) -> RuntimeError:
    return RuntimeError(
        f"processing failed for image={image_id} wavelet={wavelet} "
        f"levels={','.join(map(str, batch))}: {err}"
    )


def run_sweep(
    images: Mapping[str, RgbImage],
    wavelets: Sequence[str],
    levels_list: Sequence[int],
    depth: int,
    on_reconstruction: Callable[[MetricsRecord, RgbImage], None] | None = None,
) -> list[MetricsRecord]:
    """One MetricsRecord per (image, wavelet, levels): images in mapping order,
    then wavelets, then levels; each record's image_id is the image's key.

    levels_list is checked once, by level_batch, before any compute.  Each
    (image, wavelet) is one job: one process_image call for the whole levels
    list, which reconstructs one L at a time.  As soon as an L is finished,
    its PSNR is taken and its encoded_size starts on a background thread, at
    most _SIZE_THREADS at once, while the calling thread goes on to the next
    L, wavelet or image.  A job's sizes are awaited, its records made and
    on_reconstruction called, on the calling thread and in grid order, only
    after the next job is computed, so a failing job still follows the
    callbacks of the one before it, also across images.  Without a callback
    a job keeps no reconstruction.  Any failure, also one met on a background
    thread, aborts the whole sweep, annotated with the image, the wavelet and
    the levels, and no background thread outlives the call.
    """
    if not wavelets:
        raise ValueError("wavelets list must be nonempty")
    batch, _ = level_batch(levels_list)
    slots = threading.Semaphore(_SIZE_THREADS)
    records: list[MetricsRecord] = []

    def deliver(job: list[tuple]) -> None:
        """Wait for a job's sizes, then make its records and callbacks."""
        try:
            size_bytes = [size.result() for *_, size in job]
        except Exception as err:
            raise _failure(*job[0][:2], batch, err) from err
        for (image_id, wavelet, levels, psnr_db, recon, _), size in zip(job, size_bytes):
            record = MetricsRecord(image_id, wavelet, levels, psnr_db, size)
            records.append(record)
            if on_reconstruction is not None:
                on_reconstruction(record, recon)

    behind: list[tuple] = []  # the job whose sizes run while the next one computes
    job: list[tuple] = []
    try:
        for image_id, img in images.items():
            for wavelet in wavelets:
                job = []

                def on_level(recon: RgbImage) -> None:
                    # each size thread holds its own image; keep it here only for the callback
                    kept = recon if on_reconstruction is not None else None
                    entry = (image_id, wavelet, batch[len(job)], psnr(img, recon), kept)
                    # nothing can fail between starting a size thread and listing it for the join
                    job.append((*entry, _Size(recon, slots)))

                try:
                    process_image(img, wavelet, depth, batch, on_level=on_level)
                except Exception as err:
                    raise _failure(image_id, wavelet, batch, err) from err
                finally:
                    deliver(behind)
                behind = job
        deliver(behind)
    finally:
        for *_, size in behind + job:
            size.thread.join()
    return records


def run_experiment(
    img: RgbImage,
    image_id: str,
    wavelets: Sequence[str],
    levels_list: Sequence[int],
    depth: int,
    on_reconstruction: Callable[[MetricsRecord, RgbImage], None] | None = None,
) -> list[MetricsRecord]:
    """run_sweep over the one image img, named image_id: one MetricsRecord per
    (wavelet, levels) pair, wavelets outer, levels inner."""
    return run_sweep({image_id: img}, wavelets, levels_list, depth, on_reconstruction)
