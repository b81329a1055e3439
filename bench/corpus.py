"""Seeded benchmark inputs with natural-image statistics, written as PGM/PPM.

The algorithm is the one the test suite uses for its acceptance corpus
(1/f texture, smooth shading, a disc and a dark band), re-implemented here
so that edits to the tests cannot change the benchmark's inputs. Only
numpy is used.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def natural_plane(height: int, width: int, seed: int, detail: float = 1.0) -> np.ndarray:
    """One uint8 plane: 1/f texture scaled by ``detail``, shading and edges."""
    rng = np.random.default_rng(seed)
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    spectrum = (rng.normal(size=(height, width))
                + 1j * rng.normal(size=(height, width))) / radius
    texture = np.fft.ifft2(spectrum).real
    texture *= 28.0 * detail / texture.std()
    yy, xx = np.mgrid[0:height, 0:width]
    shading = 110 + 55 * (np.cos(2.2 * np.pi * xx / width + rng.uniform(0, 6.3))
                          * np.sin(1.4 * np.pi * yy / height + rng.uniform(0, 6.3)))
    cx = rng.uniform(0.25, 0.75) * width
    cy = rng.uniform(0.25, 0.75) * height
    rad = 0.18 * min(height, width)
    shading += np.where((xx - cx) ** 2 + (yy - cy) ** 2 < rad ** 2, 38.0, 0.0)
    shading += np.where(xx > 0.78 * width, -30.0, 0.0)
    return np.clip(shading + texture, 0, 255).astype(np.uint8)


def natural_rgb(height: int, width: int, seed: int, detail: float = 1.0) -> np.ndarray:
    """(height, width, 3) uint8: shared luminance structure plus per-channel tint."""
    base = natural_plane(height, width, seed, detail).astype(np.float64)
    channels = []
    for k in range(3):
        tint = natural_plane(height, width, seed * 10 + k, detail * 0.5).astype(np.float64)
        channels.append(np.clip(0.7 * base + 0.3 * tint, 0, 255).astype(np.uint8))
    return np.stack(channels, axis=-1)


def write_netpbm(path: Path, pixels: np.ndarray) -> None:
    """Binary P5 for a 2-D array, P6 for (height, width, 3); maxval 255."""
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    height, width = pixels.shape[:2]
    path.write_bytes(magic + f"\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes())
