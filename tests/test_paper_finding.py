"""The paper's finding, as orderings of full-precision PSNR over the acceptance pair:
Coiflets beat Daubechies on average and, on the busy image, at each matched
vanishing-moment count; at equal length (12 taps) db6 beats coif2.

One sweep of the 9 wavelets x L in {3, 5, 7} at depth 1 over the two 512x512
acceptance images.  Only orderings are asserted, never a PSNR value; each
message prints its margin in dB.
"""

from statistics import fmean

import pytest

from wavequant import SUPPORTED_WAVELETS
from wavequant.pipeline import run_sweep

LEVELS = (3, 5, 7)
DAUBECHIES = ("db2", "db4", "db6", "db8")
COIFLETS = ("coif1", "coif2", "coif3", "coif4", "coif5")


@pytest.fixture(scope="module")
def psnr(acceptance_corpus):
    """psnr[image, wavelet, levels] in dB, unrounded."""
    records = run_sweep(dict(acceptance_corpus), list(SUPPORTED_WAVELETS), list(LEVELS), 1)
    return {(rec.image_id, rec.wavelet, rec.levels): rec.psnr_db for rec in records}


@pytest.mark.parametrize("image", ("smooth", "busy"))
def test_coiflets_family_mean_beats_daubechies_at_every_level(psnr, image):
    for levels in LEVELS:
        margin = (fmean(psnr[image, name, levels] for name in COIFLETS)
                  - fmean(psnr[image, name, levels] for name in DAUBECHIES))
        assert margin > 0, f"{image} L={levels}: coif - db family mean {margin:+.3f} dB"


@pytest.mark.parametrize("coif, db", (("coif1", "db2"), ("coif2", "db4"),
                                      ("coif3", "db6"), ("coif4", "db8")))
def test_coiflet_beats_the_daubechies_of_as_many_vanishing_moments_on_busy(psnr, coif, db):
    for levels in LEVELS:
        margin = psnr["busy", coif, levels] - psnr["busy", db, levels]
        assert margin > 0, f"busy L={levels}: {coif} - {db} {margin:+.3f} dB"


@pytest.mark.parametrize("image", ("smooth", "busy"))
def test_db6_beats_coif2_of_the_same_twelve_taps(psnr, image):
    for levels in LEVELS:
        margin = psnr[image, "db6", levels] - psnr[image, "coif2", levels]
        assert margin > 0, f"{image} L={levels}: db6 - coif2 {margin:+.3f} dB"
