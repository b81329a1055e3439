"""Golden outputs on knife-edge planes: structured inputs whose detail
coefficients sit on, or within a few ulp of, a quantizer cut.

On such a plane the last bit of the DWT decides which block a coefficient
falls in, so a kernel change that moves one rounding moves whole grey levels
of the output, while natural images (every other byte check) never reach a
cut.  The outputs pinned here are those of this implementation's float64
arithmetic; they are not the only outputs the paper's method allows.
"""

import hashlib

import numpy as np
import pytest

from wavequant.filters import SUPPORTED_WAVELETS, get_filter
from wavequant.pipeline import process_plane
from wavequant.quantize import threshold_cuts
from wavequant.transform import dwt2d, idwt2d
from oracle import frozen_dwt2d, frozen_idwt2d

LEVELS = (3, 5, 7)
DEPTHS = (1, 2)


def knife_edge_planes():
    """Ramps, constant rows, binary and three-level planes, 8x8 to 64x64, by name."""
    planes = {}
    for n in (8, 16, 32, 64):
        i, j = np.mgrid[0:n, 0:n]
        families = {
            "ramp-m1": (i + j) % 256,
            "ramp-m5": (i + j) * 5 % 256,
            "ramp-m16": (i + j) * 16 % 256,
            "rows": (i * i * 7 + i * 3) % 256 + 0 * j,
            "binary": 255 * ((i // 2 + j // 3) % 2),
            "three-level": np.array([0, 100, 200])[(i // 2 * 3 + j // 4) % 3],
        }
        for name, plane in families.items():
            planes[f"{name}-{n}"] = plane.astype(np.uint8)
    return planes


PLANES = knife_edge_planes()

# sha256 (first 16 hex digits) of process_plane's outputs for every bank in
# SUPPORTED_WAVELETS order, each at L = 3, 5, 7, keyed by (plane, depth)
DIGESTS = {
    ("ramp-m1-8", 1): "3c4739b5b10c83cd", ("ramp-m1-8", 2): "8bd17bb366d50683",
    ("ramp-m5-8", 1): "1a51973fe3c0c77f", ("ramp-m5-8", 2): "6bd1b24b5c292ee7",
    ("ramp-m16-8", 1): "5eb50d8fa318e495", ("ramp-m16-8", 2): "4f2218933696d916",
    ("rows-8", 1): "0b1d48e709f31b44", ("rows-8", 2): "6371bbe829b745d5",
    ("binary-8", 1): "041d44c5deb9fdaa", ("binary-8", 2): "9197a29ca6751ceb",
    ("three-level-8", 1): "c257b1ae7a68cbd4", ("three-level-8", 2): "b2e4da6734cbc0e1",
    ("ramp-m1-16", 1): "4743097889324a71", ("ramp-m1-16", 2): "46497a601151f8be",
    ("ramp-m5-16", 1): "1f566ccca6b26721", ("ramp-m5-16", 2): "6fab74cc1a5cd950",
    ("ramp-m16-16", 1): "f61b169701be4c7a", ("ramp-m16-16", 2): "91a2df2601fe7a29",
    ("rows-16", 1): "a45b6b5bc0278aa8", ("rows-16", 2): "f40f9ed1c678ba5c",
    ("binary-16", 1): "f87d28edd463ceea", ("binary-16", 2): "44e1afdc98a6ccee",
    ("three-level-16", 1): "61ea14dbd6484b5f", ("three-level-16", 2): "9981326e9e9113df",
    ("ramp-m1-32", 1): "bfa6ed76ed14e037", ("ramp-m1-32", 2): "97df9e487bef30d4",
    ("ramp-m5-32", 1): "a0357b8ba9f9fa55", ("ramp-m5-32", 2): "9e593ac6e5de0282",
    ("ramp-m16-32", 1): "bb246a163f8f1529", ("ramp-m16-32", 2): "97f47f68b8603619",
    ("rows-32", 1): "57fd639bb42e21f0", ("rows-32", 2): "60a7596ddf304f63",
    ("binary-32", 1): "f2cc50396d8b7606", ("binary-32", 2): "9aa861a3a344962a",
    ("three-level-32", 1): "d2d4e8c507deb237", ("three-level-32", 2): "f02284447cfa9040",
    ("ramp-m1-64", 1): "1046a511af297d10", ("ramp-m1-64", 2): "0d2ae18e400c9a98",
    ("ramp-m5-64", 1): "2c2786c58a8dbb3a", ("ramp-m5-64", 2): "d8499c8ea582d26e",
    ("ramp-m16-64", 1): "0f6dc8ac0311abd6", ("ramp-m16-64", 2): "6db705f7eb244d78",
    ("rows-64", 1): "494d8d799a0dbcb0", ("rows-64", 2): "5aeb0cf06aacd0a4",
    ("binary-64", 1): "9e43344a1a1d4215", ("binary-64", 2): "41db613ce130c6b7",
    ("three-level-64", 1): "ec56b2088f2bf59f", ("three-level-64", 2): "50bc8c10e0537694",
}


def outputs_digest(plane, depth):
    digest = hashlib.sha256()
    for wavelet in SUPPORTED_WAVELETS:
        for levels in LEVELS:
            digest.update(process_plane(plane, wavelet, depth, levels).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", PLANES)
@pytest.mark.parametrize("depth", DEPTHS)
def test_process_plane_outputs_are_pinned(name, depth):
    assert outputs_digest(PLANES[name], depth) == DIGESTS[name, depth]


def test_ramp_8x8_db2_depth_2_has_coefficients_on_its_cuts():
    """x[i, j] = i + j: in the level-1 h and v bands the lower L=3 cut is a
    coefficient and the upper cut, sqrt(3) - 1 rounded, is 18 and 24 ulp from one."""
    plane = PLANES["ramp-m1-8"]
    dec = dwt2d(plane, get_filter("db2"), 2)
    ulps = []
    for band in (dec.levels[1].h, dec.levels[1].v):
        lower, upper = threshold_cuts(band, 3)
        assert lower in band
        assert upper == 0.732050807568875
        ulps.append(np.min(np.abs(band - upper)) / np.spacing(upper))
    assert ulps == [24.0, 18.0]
    # the same at every L: the cuts past mu +/- sigma find no coefficient to split
    want = [
        [1, 3, 3, 4, 4, 5, 6, 8], [3, 4, 4, 5, 5, 5, 8, 10], [3, 4, 5, 5, 5, 5, 8, 10],
        [4, 5, 5, 6, 5, 5, 8, 11], [4, 5, 5, 5, 6, 7, 10, 12], [5, 5, 5, 5, 7, 9, 11, 12],
        [6, 8, 8, 8, 10, 11, 12, 12], [8, 10, 10, 11, 12, 12, 12, 13],
    ]
    for levels in LEVELS:
        assert process_plane(plane, "db2", 2, levels).tolist() == want


@pytest.mark.parametrize("wavelet", SUPPORTED_WAVELETS)
def test_dwt2d_and_idwt2d_match_the_frozen_kernel_bit_for_bit(wavelet):
    fb = get_filter(wavelet)
    for plane in PLANES.values():
        for depth in DEPTHS:
            dec = dwt2d(plane, fb, depth)
            approx, levels = frozen_dwt2d(plane, fb, depth)
            assert np.array_equal(dec.approx, approx)
            for triple, frozen in zip(dec.levels, levels, strict=True):
                for band, want in zip(triple, frozen, strict=True):
                    assert np.array_equal(band, want)
            assert np.array_equal(idwt2d(dec, fb), frozen_idwt2d(approx, levels, fb))
