"""End-to-end per-image processing and quality metrics.

Per channel: forward DWT, threshold every detail sub-band of every level
with its own statistics (the approximation is never touched), inverse DWT,
round half away from zero, clamp to [0, 255].  For a sequence of L the
forward DWT runs once and each sub-band is sorted once; only the inverse
DWT runs per L.  Equal channels are processed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .filters import get_filter
from .image import RgbImage, encoded_size
from .quantize import level_batch, threshold_subband
from .transform import Decomposition, SubbandTriple, dwt2d, idwt2d

PEAK = 255.0


@dataclass(frozen=True)
class MetricsRecord:
    image_id: str
    wavelet: str
    levels: int
    psnr_db: float
    size_bytes: int


def _to_uint8(values: np.ndarray) -> np.ndarray:
    # round half away from zero, then clamp
    rounded = np.floor(np.abs(values) + 0.5) * np.sign(values)
    return np.clip(rounded, 0.0, 255.0).astype(np.uint8)


def process_plane(
    plane: np.ndarray, wavelet: str, depth: int, levels: int | Sequence[int]
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Transform, threshold all detail sub-bands, reconstruct one 2-D uint8 channel.

    levels is one L, giving one plane, or a sequence of L, giving a tuple of
    planes in that order; the forward DWT and each band's sort serve them all.
    """
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


def run_experiment(
    img: RgbImage,
    image_id: str,
    wavelets: Sequence[str],
    levels_list: Sequence[int],
    depth: int,
    on_reconstruction: Callable[[MetricsRecord, RgbImage], None] | None = None,
) -> list[MetricsRecord]:
    """One MetricsRecord per (wavelet, levels) pair, wavelets outer, levels inner.

    Each wavelet is one process_image call for the whole levels list.  Any
    failure aborts the whole run, annotated with the image, the wavelet and
    the levels.
    """
    if not wavelets or not levels_list:
        raise ValueError("wavelets and levels lists must be nonempty")
    records = []
    for wavelet in wavelets:
        try:
            recons = process_image(img, wavelet, depth, levels_list)
            wavelet_records = [
                MetricsRecord(
                    image_id=image_id,
                    wavelet=wavelet,
                    levels=levels,
                    psnr_db=psnr(img, recon),
                    size_bytes=encoded_size(recon),
                )
                for levels, recon in zip(levels_list, recons)
            ]
        except Exception as err:
            raise RuntimeError(
                f"processing failed for image={image_id} wavelet={wavelet} "
                f"levels={','.join(map(str, levels_list))}: {err}"
            ) from err
        records.extend(wavelet_records)
        if on_reconstruction is not None:
            for record, recon in zip(wavelet_records, recons):
                on_reconstruction(record, recon)
    return records
