"""Wavelet-domain multilevel thresholding of color images, with a benchmark CLI."""

from .filters import SUPPORTED_WAVELETS, get_filter
from .image import NetpbmError, RgbImage, read_image, write_image
from .pipeline import MetricsRecord, psnr, run_experiment
from .quantize import (
    LEVEL_CHOICES,
    apply_partition,
    build_partition,
    threshold_cuts,
    threshold_subband,
)
from .transform import dwt2d, idwt2d

__version__ = "0.1.0"

__all__ = [
    "LEVEL_CHOICES",
    "SUPPORTED_WAVELETS",
    "MetricsRecord",
    "NetpbmError",
    "RgbImage",
    "apply_partition",
    "build_partition",
    "dwt2d",
    "get_filter",
    "idwt2d",
    "psnr",
    "read_image",
    "run_experiment",
    "threshold_cuts",
    "threshold_subband",
    "write_image",
]
