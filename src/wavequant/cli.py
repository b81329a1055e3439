"""Benchmark CLI: run the thresholding pipeline over a PGM/PPM corpus and
write a CSV report (PSNR and compressed-size per wavelet/level combination)
plus optional plot data and reconstructed images.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from .filters import SUPPORTED_WAVELETS, get_filter
from .image import RgbImage, read_image, write_image
# unused here, as _sweep runs every image in one run_sweep; bench/spans.py reports
# pipeline.self_s only while cli.run_experiment exists, so the name stays
from .pipeline import MetricsRecord, run_experiment, run_sweep  # noqa: F401
from .quantize import LEVEL_CHOICES, level_batch
from .transform import _check_divisibility


def _wavelet_list(text: str) -> list[str]:
    try:
        names = [get_filter(part).name for part in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    for i, name in enumerate(names):
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"wavelet {name} is repeated")
    return names


def _level_list(text: str) -> list[int]:
    """Comma-separated integers; quantize.level_batch checks them as a set of L."""
    levels = []
    for part in text.split(","):
        try:
            levels.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid level {part.strip()!r}; levels must be in {set(LEVEL_CHOICES)}"
            ) from None
    try:
        level_batch(levels)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return levels


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid depth {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"depth must be >= 1, got {value}")
    return value


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="wavequant",
        description=(
            "Multilevel thresholding of wavelet detail coefficients over an "
            "image corpus, reporting PSNR and compressed size per wavelet "
            "and threshold-level count."
        ),
    )
    parser.add_argument(
        "inputs", nargs="+", type=Path, metavar="IMAGE", help="input binary PGM/PPM files"
    )
    parser.add_argument(
        "--wavelets",
        type=_wavelet_list,
        default=list(SUPPORTED_WAVELETS),
        metavar="NAMES",
        help=f"comma-separated wavelets (default: all of {', '.join(SUPPORTED_WAVELETS)})",
    )
    parser.add_argument(
        "--levels",
        type=_level_list,
        default=list(LEVEL_CHOICES),
        metavar="LIST",
        help=f"comma-separated threshold-level counts from {set(LEVEL_CHOICES)} (default: all)",
    )
    parser.add_argument(
        "--depth",
        type=_positive_int,
        default=1,
        help="decomposition depth (default: 1)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default="report.csv",
        metavar="CSV",
        help="output CSV report path (default: report.csv)",
    )
    parser.add_argument(
        "--plot",
        type=Path,
        metavar="DAT",
        help="optional PSNR-vs-levels plot data file (single input image only)",
    )
    parser.add_argument(
        "--emit-images",
        type=Path,
        metavar="DIR",
        help="optional directory for reconstructed PPMs",
    )
    return parser.parse_args(argv)


def write_report(records: Sequence[MetricsRecord], path: Path) -> None:
    """CSV report: image,wavelet,levels,psnr_db,size_bytes (PSNR to 2 decimals)."""
    if not records:
        raise ValueError("no records to report")
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["image", "wavelet", "levels", "psnr_db", "size_bytes"])
            for rec in records:
                writer.writerow(
                    [rec.image_id, rec.wavelet, rec.levels, f"{rec.psnr_db:.2f}", rec.size_bytes]
                )
    except OSError as err:
        raise OSError(f"cannot write report {path}: {err}") from err


def write_plot_data(records: Sequence[MetricsRecord], path: Path) -> None:
    """PSNR-vs-levels columns for one image: level, then one column per wavelet."""
    if not records:
        raise ValueError("no records to plot")
    image_ids = {rec.image_id for rec in records}
    if len(image_ids) != 1:
        raise ValueError(
            f"plot data needs records of exactly one image, got {sorted(image_ids)}"
        )
    wavelets: list[str] = []
    levels: list[int] = []
    table: dict[tuple[str, int], float] = {}
    for rec in records:
        if rec.wavelet not in wavelets:
            wavelets.append(rec.wavelet)
        if rec.levels not in levels:
            levels.append(rec.levels)
        table[(rec.wavelet, rec.levels)] = rec.psnr_db
    levels.sort()
    missing = [
        f"{name}/{lvl}" for name in wavelets for lvl in levels if (name, lvl) not in table
    ]
    if missing:
        raise ValueError(f"incomplete wavelet/level grid; missing: {', '.join(missing)}")
    lines = ["level " + " ".join(wavelets)]
    for lvl in levels:
        lines.append(f"{lvl} " + " ".join(f"{table[(w, lvl)]:.2f}" for w in wavelets))
    try:
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    except OSError as err:
        raise OSError(f"cannot write plot data {path}: {err}") from err


def _read_input(path: Path, depth: int) -> RgbImage:
    """Decode one input and check its dimensions against 2^depth."""
    try:
        img = read_image(path.read_bytes())
        _check_divisibility(img.height, img.width, depth)
    except OSError as err:
        raise OSError(f"cannot read {path}: {err}") from err
    except ValueError as err:  # a malformed file or indivisible dimensions
        raise ValueError(f"{path}: {err}") from err
    return img


@contextmanager
def _staged(path: Path | None, what: str) -> Iterator[Path | None]:
    """Temp file beside path, made on entry and moved onto path if the block succeeds.

    Making it before any compute finds an unwritable destination at once; the
    temp file is removed on any failure, so path keeps its old bytes.
    """
    if path is None:
        yield None
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if path.is_dir():
            raise IsADirectoryError("is a directory")
        tmp.open("x").close()
    except OSError as err:
        raise OSError(f"cannot write {what} {path}: {err}") from err
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _sweep(args: argparse.Namespace, images: Sequence[RgbImage]) -> list[MetricsRecord]:
    emit_dir = args.emit_images
    if emit_dir is not None:
        emit_dir.mkdir(parents=True, exist_ok=True)

    def emit(record: MetricsRecord, recon: RgbImage) -> None:
        out = emit_dir / f"{record.image_id}_{record.wavelet}_L{record.levels}.ppm"
        out.write_bytes(write_image(recon))

    # an input's stem is its image id, unique by _run's check
    return run_sweep(
        {path.stem: img for path, img in zip(args.inputs, images)},
        args.wavelets,
        args.levels,
        args.depth,
        on_reconstruction=emit if emit_dir is not None else None,
    )


def _run(args: argparse.Namespace) -> None:
    if args.plot is not None and len(args.inputs) != 1:
        raise ValueError(
            f"--plot expects exactly one input image, got {len(args.inputs)}"
        )
    # an input's stem is its image id in the report and in emitted file names
    paths_by_stem: dict[str, Path] = {}
    for path in args.inputs:
        if path.stem in paths_by_stem:
            raise ValueError(
                f"inputs {paths_by_stem[path.stem]} and {path} share the image id "
                f"{path.stem!r}; rename one"
            )
        paths_by_stem[path.stem] = path
    # fail fast: every input is read and checked, and every output file
    # staged, before any compute or emitted image
    images = [_read_input(path, args.depth) for path in args.inputs]
    with _staged(args.report, "report") as report, _staged(args.plot, "plot data") as plot:
        records = _sweep(args, images)
        write_report(records, report)
        if plot is not None:
            write_plot_data(records, plot)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _run(args)
    except Exception as err:
        print(f"wavequant: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
