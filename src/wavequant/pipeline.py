"""End-to-end per-image processing and quality metrics.

Per channel: forward DWT, threshold every detail sub-band of every level
with its own statistics (the approximation is never touched), inverse DWT,
clamp to [0, 255], round half up.  One generator, _images,
goes from channels to one RGB image per L of a batch: the forward DWT runs
once per channel and each sub-band is thresholded once, into a uint8 block
index and one small centroid table per L; the float detail bands are
dropped.  Then each L in turn gathers its bands from the tables and runs
the inverse DWT of every channel, so one L's detail bands exist at a time
and each L's image is yielded before the next L's inverse runs.  Equal
channels are processed once.  process_plane and process_image take its
first image for one L.

run_sweep streams a whole (image, wavelet, L) grid through that generator:
each RGB reconstruction is queued for DEFLATE sizing (zlib releases the GIL)
the moment it is finished, while the calling thread computes the next L, the
next wavelet or the next image.  Sizing runs on two workers per sweep at the
lowest scheduling priority, so they yield the CPU to the calling thread,
which carries the critical path.  Delivery is per reconstruction: once its
size and those of every earlier one are done, a reconstruction's record is
made and its callback called (emitted images are written then), on the
calling thread and in grid order, at the end of the next compute; the
calling thread waits for sizes only while more than a small backlog of them
is undelivered, and at the end of the sweep.  One failure rule holds for a
failed compute and a failed size alike: every reconstruction before it in
grid order is delivered, nothing at or after it, and the error raised is the
earliest in grid order.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .filters import get_filter, wavelet_batch
from .image import RgbImage, encoded_size
from .quantize import level_batch, threshold_subband
from .transform import Decomposition, SubbandTriple, _check_depth, dwt2d, idwt2d

PEAK = 255.0
_BELOW_HALF = np.nextafter(0.5, 0.0)
_SIZE_THREADS = 2  # encoded_size workers per sweep
_BACKLOG = 4 * _SIZE_THREADS  # undelivered sizes past which the calling thread waits for them


@dataclass(frozen=True)
class MetricsRecord:
    image_id: str
    wavelet: str
    levels: int
    psnr_db: float
    size_bytes: int


def _to_uint8(values: np.ndarray) -> np.ndarray:
    """values clamped and rounded to uint8; values, which the caller owns, is overwritten."""
    # Round half up exactly: floor(v + _BELOW_HALF) is floor(v + 0.5) of the real sum,
    # where the float64 v + 0.5 rounds nextafter(0.5, 0) up to 1.0.  Clamped first, v is
    # in [0, 255], where astype's truncation is that floor; and clamping before rounding
    # sends every v below 0 to 0 and above 255 to 255, as clamping after it does.
    np.clip(values, 0.0, 255.0, out=values)
    return np.add(values, _BELOW_HALF, out=values).astype(np.uint8)


def _channels(img: RgbImage) -> list[np.ndarray]:
    """The one plane of a grayscale image (equal R, G and B), else its R, G and B planes."""
    px = img.pixels
    if np.array_equal(px[:, :, 0], px[:, :, 1]) and np.array_equal(px[:, :, 0], px[:, :, 2]):
        return [px[:, :, 0]]
    return [px[:, :, c] for c in range(3)]


def _images(
    channels: Sequence[np.ndarray], wavelet: str, depth: int, batch: Sequence[int]
) -> Iterator[RgbImage]:
    """For each L of batch in turn, the RGB image reconstructed from channels,
    the planes _channels gives.

    All channels are transformed and thresholded before the first image is
    made; each keeps its approximation and per detail band threshold_subband's
    (uint8 index, tables per L), so the float detail bands of one L exist only
    while that L is inverted, and each L's image is yielded before the next
    L's inverse runs.
    """
    fb = get_filter(wavelet)
    indexed = [
        (dec.approx, [[threshold_subband(b, batch) for b in triple] for triple in dec.levels])
        for dec in (dwt2d(plane, fb, depth) for plane in channels)
    ]
    for k in range(len(batch)):
        planes = [
            _to_uint8(idwt2d(Decomposition(approx, [
                SubbandTriple(*(tables[k][index] for index, tables in triple)) for triple in levels
            ]), fb))
            for approx, levels in indexed
        ]
        yield RgbImage(np.stack(planes * 3 if len(planes) == 1 else planes, axis=-1))


def process_plane(plane: np.ndarray, wavelet: str, depth: int, levels: int) -> np.ndarray:
    """Transform, threshold all detail sub-bands at one L, reconstruct one 2-D uint8 channel."""
    if np.asarray(plane).dtype != np.uint8:
        raise ValueError(f"plane must be uint8, got dtype {np.asarray(plane).dtype}")
    batch = level_batch([levels])  # a sequence here is not one L, and is rejected
    return next(_images([plane], wavelet, depth, batch)).pixels[:, :, 0].copy()


def process_image(img: RgbImage, wavelet: str, depth: int, levels: int) -> RgbImage:
    """process_plane applied to R, G and B at one L; equal channels (a grayscale
    image) are processed once."""
    batch = level_batch([levels])  # a sequence here is not one L, and is rejected
    return next(_images(_channels(img), wavelet, depth, batch))


def psnr(orig: RgbImage, recon: RgbImage) -> float:
    """Peak signal-to-noise ratio in dB, MSE pooled over all three channels.

    Returns math.inf for identical images.
    """
    if (orig.width, orig.height) != (recon.width, recon.height):
        raise ValueError(
            f"image dimensions differ: {orig.width}x{orig.height} vs "
            f"{recon.width}x{recon.height}"
        )
    # exact integer sum of squares, without BLAS, whose threads spin on the sizing
    # workers' core: a square of at most 255**2 wraps in int16 but reads exactly as
    # uint16, and their int64 sum cannot overflow
    diff = np.subtract(orig.pixels, recon.pixels, dtype=np.int16)
    mse = int(np.square(diff, out=diff).view(np.uint16).sum(dtype=np.int64)) / diff.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _lower_priority() -> None:
    """Lower the running thread to the lowest scheduling priority, where that is per thread.

    On Linux a thread's niceness is its own, so this touches no other thread;
    elsewhere the call would renice the whole process, so it does nothing.
    """
    if sys.platform.startswith("linux"):
        try:
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
        except OSError:
            pass


def run_sweep(
    images: Mapping[str, RgbImage],
    wavelets: Sequence[str],
    levels_list: Sequence[int],
    depth: int,
    on_reconstruction: Callable[[MetricsRecord, RgbImage], None] | None = None,
) -> list[MetricsRecord]:
    """One MetricsRecord per (image, wavelet, levels): images in mapping order,
    then wavelets, then levels; each record's image_id is the image's key.

    wavelets, levels_list and depth are checked once, by wavelet_batch,
    level_batch and _check_depth, before any compute, and records carry the
    wavelets' labels ("db2" for "DB2"); each image is split into channels
    once.  Each (image, wavelet) iterates _images over the whole levels
    list.  As soon as an L's image is yielded, its PSNR is taken and its
    encoded_size is queued for one of _SIZE_THREADS workers, at the lowest
    scheduling priority, while the calling thread goes on to the next L,
    wavelet or image.  Delivery is per reconstruction: after each (image,
    wavelet)'s compute, every reconstruction at the head of the undelivered
    ones whose size is done is delivered, without waiting: its record is
    made and on_reconstruction called, on the calling thread and in grid
    order.  The calling thread waits for the oldest size only while more
    than _BACKLOG sizes are undelivered, and at the end.  One rule holds
    for a failed compute and a failed size alike: every reconstruction
    before the failure in grid order is delivered, also the earlier L of
    the failing (image, wavelet), and nothing at or after it; the error
    raised is the earliest in grid order.  Without a callback no
    reconstruction is kept.  A failure aborts the whole sweep, annotated
    with the image, the wavelet and the levels; queued sizes are then
    dropped, and no worker outlives the call.
    """
    # imported here: concurrent.futures loads logging, which the CLI's import should not pay for
    from concurrent.futures import ThreadPoolExecutor

    wavelets = wavelet_batch(wavelets)
    batch = level_batch(levels_list)
    depth = _check_depth(depth)
    records: list[MetricsRecord] = []

    # reconstructions computed and not yet delivered, in grid order: (image id,
    # wavelet, levels, psnr, recon or None, size future); every entry is a real
    # reconstruction, as a failed compute raises where it happens
    pending: deque[tuple] = deque()

    def failure(image_id: str, wavelet: str, err: Exception) -> RuntimeError:
        """err, raised by a compute or a size of (image_id, wavelet), annotated."""
        return RuntimeError(f"processing failed for image={image_id} wavelet={wavelet} "
                            f"levels={','.join(map(str, batch))}: {err}")

    def deliver(backlog: int) -> None:
        """Deliver the head reconstructions whose sizes are done, in grid order,
        and wait for the head's size while more than backlog are undelivered."""
        while pending and (len(pending) > backlog or pending[0][-1].done()):
            image_id, wavelet, levels, psnr_db, recon, size = pending.popleft()
            try:
                record = MetricsRecord(image_id, wavelet, levels, psnr_db, size.result())
            except Exception as err:
                raise failure(image_id, wavelet, err) from err
            records.append(record)
            if on_reconstruction is not None:
                on_reconstruction(record, recon)

    pool = ThreadPoolExecutor(_SIZE_THREADS, initializer=_lower_priority)
    try:
        for image_id, img in images.items():
            channels = _channels(img)
            for wavelet in wavelets:
                try:
                    # the queued call holds its own image; the entry keeps it only for the
                    # callback, and a generator expression leaves no local name holding one
                    pending.extend(
                        (image_id, wavelet, levels, psnr(img, recon),
                         recon if on_reconstruction is not None else None,
                         pool.submit(encoded_size, recon))
                        for levels, recon in zip(batch, _images(channels, wavelet, depth, batch))
                    )
                except Exception as err:
                    # the earlier L of this wavelet are already queued; every queued
                    # reconstruction goes first, and an earlier failed size wins
                    deliver(0)
                    raise failure(image_id, wavelet, err) from err
                deliver(_BACKLOG)
        deliver(0)
    finally:
        pool.shutdown(cancel_futures=True)
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
