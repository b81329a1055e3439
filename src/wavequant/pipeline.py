"""End-to-end per-image processing and quality metrics.

Per channel: forward DWT, threshold every detail sub-band of every level
with its own statistics (the approximation is never touched), inverse DWT,
round half away from zero, clamp to [0, 255].  For a sequence of L the
forward DWT runs once and each sub-band's statistics are gathered once;
only the inverse DWT runs per L.  Equal channels are processed once.

run_experiment overlaps DEFLATE sizing with compute: each wavelet's
encoded_size calls run on background threads (zlib releases the GIL) while
the calling thread computes the next wavelet.  Records and callbacks are
made one wavelet behind the compute, on the calling thread, in grid order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

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
    # Round half up, exactly: floor(v + 0.5) maps nextafter(0.5, 0) to 1, as that
    # float64 sum rounds up to 1.0, but floor(v + _BELOW_HALF) is floor(v + 0.5) of
    # the real sum for every v >= 0.  As the clamp sends every negative value to 0,
    # this equals rounding half away from zero.
    rounded = values + _BELOW_HALF
    np.floor(rounded, out=rounded)
    return np.clip(rounded, 0.0, 255.0, out=rounded).astype(np.uint8)


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
    fb = get_filter(wavelet)
    dec = dwt2d(plane, fb, depth)
    # thresholded[i][k]: decomposition level i's triple for the k-th L
    thresholded = [
        [SubbandTriple(*bands) for bands in zip(*(threshold_subband(b, batch) for b in t))]
        for t in dec.levels
    ]
    planes = tuple(
        _to_uint8(idwt2d(Decomposition(dec.approx, triples), fb))
        for triples in zip(*thresholded)
    )
    return planes[0] if single else planes


def process_image(
    img: RgbImage, wavelet: str, depth: int, levels: int | Sequence[int]
) -> RgbImage | tuple[RgbImage, ...]:
    """process_plane applied to R, G and B, with levels as in process_plane.

    Equal channels (a grayscale image) are processed once.
    """
    batch, single = level_batch(levels)
    px = img.pixels
    if np.array_equal(px[:, :, 0], px[:, :, 1]) and np.array_equal(px[:, :, 0], px[:, :, 2]):
        per_channel = [process_plane(px[:, :, 0], wavelet, depth, batch)] * 3
    else:
        per_channel = [process_plane(px[:, :, c], wavelet, depth, batch) for c in range(3)]
    images = tuple(RgbImage(np.stack(planes, axis=-1)) for planes in zip(*per_channel))
    return images[0] if single else images


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


def run_experiment(
    img: RgbImage,
    image_id: str,
    wavelets: Sequence[str],
    levels_list: Sequence[int],
    depth: int,
    on_reconstruction: Callable[[MetricsRecord, RgbImage], None] | None = None,
) -> list[MetricsRecord]:
    """One MetricsRecord per (wavelet, levels) pair, wavelets outer, levels inner.

    levels_list is checked once, by level_batch, before any compute.  Each
    wavelet is one process_image call for the whole levels list.  Its
    reconstructions' encoded_size calls start on background threads, at most
    _SIZE_THREADS at once, while the calling thread computes the next wavelet.
    Only then are the wavelet's records made and on_reconstruction called, on
    the calling thread and in grid order, so a failing wavelet still follows
    the callbacks of the one before it.  Any failure, also one met on a
    background thread, aborts the whole run, annotated with the image, the
    wavelet and the levels.  No background thread outlives the call.
    """
    if not wavelets:
        raise ValueError("wavelets list must be nonempty")
    batch, _ = level_batch(levels_list)
    slots = threading.Semaphore(_SIZE_THREADS)
    started: list[_Size] = []
    records: list[MetricsRecord] = []

    def deliver(wavelet: str, recons: tuple[RgbImage, ...], psnrs: list[float],
                sizes: list[_Size]) -> None:
        try:
            size_bytes = [size.result() for size in sizes]
        except Exception as err:
            raise _failure(image_id, wavelet, batch, err) from err
        wavelet_records = [
            MetricsRecord(
                image_id=image_id, wavelet=wavelet, levels=levels, psnr_db=psnr_db, size_bytes=size
            )
            for levels, psnr_db, size in zip(batch, psnrs, size_bytes)
        ]
        records.extend(wavelet_records)
        if on_reconstruction is not None:
            for record, recon in zip(wavelet_records, recons):
                on_reconstruction(record, recon)

    behind = None  # the wavelet whose sizes run while the next one computes
    try:
        for wavelet in wavelets:
            try:
                recons = process_image(img, wavelet, depth, batch)
                first = len(started)
                for recon in recons:
                    started.append(_Size(recon, slots))
                ahead = (wavelet, recons, [psnr(img, recon) for recon in recons], started[first:])
            except Exception as err:
                raise _failure(image_id, wavelet, batch, err) from err
            finally:
                if behind is not None:
                    deliver(*behind)
            behind = ahead
        deliver(*behind)
    finally:
        for size in started:
            size.thread.join()
    return records
