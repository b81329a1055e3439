"""Shared fixtures: deterministic synthetic images with natural statistics, and a
check that no test leaves a thread behind."""

import threading

import numpy as np
import pytest

from wavequant import RgbImage


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that returns with more threads alive than it started with."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after <= before, f"{after - before} thread(s) still alive after the test"


def natural_plane(height, width, seed, detail=1.0):
    """Plane with natural-image statistics: 1/f texture, smooth shading, edges."""
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


def natural_image(size, seed, detail=1.0):
    """RGB image: shared luminance structure plus per-channel tint."""
    base = natural_plane(size, size, seed, detail).astype(np.float64)
    planes = []
    for k in range(3):
        tint = natural_plane(size, size, seed * 10 + k, detail * 0.5).astype(np.float64)
        planes.append(np.clip(0.7 * base + 0.3 * tint, 0, 255).astype(np.uint8))
    return RgbImage(np.stack(planes, axis=-1))


def solid_image(size, rgb):
    return RgbImage(np.full((size, size, 3), rgb, dtype=np.uint8))


@pytest.fixture(scope="session")
def small_natural_image():
    """64x64 natural-statistics RGB image for fast pipeline tests."""
    return natural_image(64, seed=7)


@pytest.fixture(scope="session")
def acceptance_corpus():
    """Two 512x512 natural-statistics images: one smooth, one texture-heavy."""
    return [
        ("smooth", natural_image(512, seed=11, detail=1.0)),
        ("busy", natural_image(512, seed=23, detail=3.0)),
    ]
