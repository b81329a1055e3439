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

from .filters import SUPPORTED_WAVELETS, wavelet_batch
from .image import RgbImage, read_image, write_image
# unused here, as _run runs every image in one run_sweep; bench/spans.py reports
# pipeline.self_s only while cli.run_experiment exists, so the name stays
from .pipeline import MetricsRecord, run_experiment, run_sweep  # noqa: F401
from .quantize import LEVEL_CHOICES, level_batch
from .transform import _check_divisibility


def _option(parse):
    """parse as an argparse type: a ValueError it raises is a usage error (exit 2), same message."""

    def option(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return option


def _integer(text: str, name: str, hint: str = "", minimum: int | None = None) -> int:
    """int(text); a ValueError that names name if text is not an integer or is below minimum."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid {name} {text!r}{hint}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
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
        # filters.wavelet_batch checks the names and gives their labels
        type=_option(lambda text: list(wavelet_batch(text.split(",")))),
        default=list(SUPPORTED_WAVELETS),
        metavar="NAMES",
        help=f"comma-separated wavelets (default: all of {', '.join(SUPPORTED_WAVELETS)})",
    )
    parser.add_argument(
        "--levels",
        type=_option(lambda text: list(level_batch([
            _integer(part.strip(), "level", f"; levels must be in {set(LEVEL_CHOICES)}")
            for part in text.split(",")
        ]))),
        default=list(LEVEL_CHOICES),
        metavar="LIST",
        help=f"comma-separated threshold-level counts from {set(LEVEL_CHOICES)} (default: all)",
    )
    parser.add_argument(
        "--depth",
        type=_option(lambda text: _integer(text, "depth", minimum=1)),
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


def _run(args: argparse.Namespace) -> None:
    """Parsed command line to files: check every path, read every input, stage the
    report and plot data, make the emit directory, run the sweep, write the outputs."""
    emit_dir = args.emit_images
    emitted = {} if emit_dir is None else {
        (path.stem, wavelet, levels): emit_dir / f"{path.stem}_{wavelet}_L{levels}.ppm"
        for path in args.inputs for wavelet in args.wavelets for levels in args.levels
    }
    # every path the run reads or writes, resolved: an output that named an input or
    # another output would replace it or block it
    options_by_path: dict[Path, str] = {}
    for option, path in (*(("an input", path) for path in args.inputs),
                         ("--report", args.report), ("--plot", args.plot),
                         ("--emit-images", emit_dir),
                         *(("--emit-images", path) for path in emitted.values())):
        if path is None:
            continue
        other = options_by_path.setdefault(path.resolve(), option)
        if other != option:
            raise ValueError(f"{other} and {option} both name {path}; give each its own path")
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
    images = {stem: _read_input(path, args.depth) for stem, path in paths_by_stem.items()}
    with _staged(args.report, "report") as report, _staged(args.plot, "plot data") as plot:
        if emit_dir is not None:
            try:
                emit_dir.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise OSError(f"cannot create --emit-images directory {emit_dir}: {err}") from err

        def emit(record: MetricsRecord, recon: RgbImage) -> None:
            emitted[record.image_id, record.wavelet, record.levels].write_bytes(write_image(recon))

        records = run_sweep(images, args.wavelets, args.levels, args.depth,
                            on_reconstruction=emit if emit_dir is not None else None)
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
