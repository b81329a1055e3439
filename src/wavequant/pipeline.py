"""End-to-end per-image processing and quality metrics.

Per channel: forward DWT, threshold every detail sub-band of every level
with its own statistics (the approximation is never touched), inverse DWT,
round half away from zero, clamp to [0, 255].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .filters import get_filter
from .image import RgbImage, encoded_size
from .quantize import threshold_subband
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


def process_plane(plane: np.ndarray, wavelet: str, depth: int, levels: int) -> np.ndarray:
    """Transform, threshold all detail sub-bands, reconstruct one 2-D uint8 channel."""
    fb = get_filter(wavelet)
    dec = dwt2d(plane, fb, depth)
    thresholded = Decomposition(
        dec.approx,
        tuple(SubbandTriple(*(threshold_subband(b, levels) for b in t)) for t in dec.levels),
    )
    return _to_uint8(idwt2d(thresholded, fb))


def process_image(img: RgbImage, wavelet: str, depth: int, levels: int) -> RgbImage:
    """process_plane applied independently to R, G and B."""
    planes = [process_plane(img.pixels[:, :, c], wavelet, depth, levels) for c in range(3)]
    return RgbImage(np.stack(planes, axis=-1))


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

    Any per-combination failure aborts the whole run, annotated with the
    offending (image, wavelet, levels) combination.
    """
    if not wavelets or not levels_list:
        raise ValueError("wavelets and levels lists must be nonempty")
    records = []
    for wavelet in wavelets:
        for levels in levels_list:
            try:
                recon = process_image(img, wavelet, depth, levels)
                record = MetricsRecord(
                    image_id=image_id,
                    wavelet=wavelet,
                    levels=levels,
                    psnr_db=psnr(img, recon),
                    size_bytes=encoded_size(recon),
                )
            except Exception as err:
                raise RuntimeError(
                    f"processing failed for image={image_id} wavelet={wavelet} "
                    f"levels={levels}: {err}"
                ) from err
            records.append(record)
            if on_reconstruction is not None:
                on_reconstruction(record, recon)
    return records
