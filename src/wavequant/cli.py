"""Benchmark CLI: run the thresholding pipeline over a PGM/PPM corpus and
write a CSV report (PSNR and compressed-size per wavelet/level combination)
plus optional plot data and reconstructed images.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .filters import SUPPORTED_WAVELETS, wavelet_batch
from .image import RgbImage, read_image, write_image
# unused here, as _run runs every image in one run_sweep; the benchmark's tracer
# wraps cli.run_experiment, and its traced smoke test requires every per-layer
# metric, pipeline.self_s among them, which it reports only while the name exists
from .pipeline import MetricsRecord, run_experiment, run_sweep  # noqa: F401
from .quantize import LEVEL_CHOICES, level_batch
from .transform import _check_depth, _check_divisibility


def _option(parse):
    """parse as an argparse type: a ValueError it raises is a usage error (exit 2), same message."""

    def option(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return option


def _integer(text: str, name: str, hint: str = "") -> int:
    """int(text); a ValueError that names name if text is not an integer."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid {name} {text!r}{hint}") from None


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
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
        # transform._check_depth owns the depth rule for the CLI and the library
        type=_option(lambda text: _check_depth(_integer(text, "depth"))),
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


def write_report(records: Sequence[MetricsRecord]) -> bytes:
    """CSV report: image,wavelet,levels,psnr_db,size_bytes (PSNR to 2 decimals), UTF-8."""
    if not records:
        raise ValueError("no records to report")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["image", "wavelet", "levels", "psnr_db", "size_bytes"])
    for rec in records:
        writer.writerow(
            [rec.image_id, rec.wavelet, rec.levels, f"{rec.psnr_db:.2f}", rec.size_bytes]
        )
    return out.getvalue().encode("utf-8")


def write_plot_data(records: Sequence[MetricsRecord]) -> bytes:
    """PSNR-vs-levels columns for one image: level, then one column per wavelet."""
    if not records:
        raise ValueError("no records to plot")
    image_ids = {rec.image_id for rec in records}
    if len(image_ids) != 1:
        raise ValueError(f"plot data needs records of exactly one image, got {sorted(image_ids)}")
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
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reason(err: OSError) -> str:
    """err as "[Errno N] strerror", or its text if it has no errno: never the file
    name it carries, which may be a temp file or a resolved target, not the path given."""
    return f"[Errno {err.errno}] {err.strerror}" if err.errno is not None else str(err)


def _read_input(path: Path, depth: int) -> RgbImage:
    """Decode one input and check its dimensions against 2^depth."""
    try:
        img = read_image(path.read_bytes())
        _check_divisibility(img.height, img.width, depth)
    except OSError as err:
        raise OSError(f"cannot read {path}: {_reason(err)}") from err
    except ValueError as err:  # a malformed file or indivisible dimensions
        raise ValueError(f"{path}: {err}") from err
    return img


@contextmanager
def _staged(path: Path, target: Path, what: str) -> Iterator[Callable[[bytes], None]]:
    """put(data), which writes data to a temp file beside target, the file that path
    resolved to; the temp file is made on entry and moved onto target if the block
    succeeds.

    target is used as given, never resolved again, so the file written is the one
    the caller checked, even if a link on the way was changed since; a link named
    through path stays and its target, made if missing, gets the data.  A target
    that is still a symlink is a loop, refused on entry.  Making the temp file
    before any compute finds an unwritable destination at once; it is removed on
    any failure, so target keeps its old bytes, and a failure to make, write or
    move it names path.  Its name is random: a killed run leaves its temp file
    behind, and a later run must not collide with it.
    """
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")

    def attempt(action: Callable, *args) -> None:
        try:
            action(*args)
        except OSError as err:
            raise OSError(f"cannot write {what} {path}: {_reason(err)}") from err

    def make() -> None:
        if target.is_dir():  # never replaceable, and the temp file beside it would be made
            raise IsADirectoryError("is a directory")
        if target.is_symlink():  # realpath leaves a loop unresolved
            raise OSError("symlink loop")
        tmp.open("x").close()

    attempt(make)
    try:
        yield lambda data: attempt(tmp.write_bytes, data)
        attempt(os.replace, tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _made_directory(path: Path, target: Path) -> Iterator[None]:
    """Make target, the directory that the --emit-images path resolved to, and its
    missing parents; if the block or the making fails, remove the ones made, deepest
    first, so the run leaves no new directory.  One that existed stays, with its
    files.  A target that is still a symlink is a loop, refused as _staged refuses
    one; a failure names path."""
    missing: list[Path] = []
    try:
        try:
            if target.is_symlink():  # realpath leaves a loop unresolved
                raise OSError("symlink loop")
            missing += itertools.takewhile(lambda p: not p.exists(), (target, *target.parents))
            target.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise OSError(f"cannot create --emit-images directory {path}: {_reason(err)}") from err
        yield
    except BaseException:
        for made in missing:
            with suppress(OSError):  # never made, as mkdir failed first, or not empty
                made.rmdir()
        raise


def _run(args: argparse.Namespace) -> None:
    """Parsed command line to files: check every path, read every input, stage the
    report, the plot data and every emitted image, run the sweep, write the outputs."""
    emit_dir = args.emit_images
    emitted = {} if emit_dir is None else {
        (path.stem, wavelet, levels): emit_dir / f"{path.stem}_{wavelet}_L{levels}.ppm"
        for path in args.inputs for wavelet in args.wavelets for levels in args.levels
    }
    # every path the run reads or writes, resolved here once: an output that named an
    # input or another output would replace it or block it, and each output is written
    # to the target compared here.  Non-strict realpath never raises for a symlink loop
    # (Path.resolve did before 3.13): it returns the loop's link, which _staged refuses
    named = [(option, path) for option, path in (
        *(("an input", path) for path in args.inputs), ("--report", args.report),
        ("--plot", args.plot), ("--emit-images", emit_dir),
        *(("--emit-images", path) for path in emitted.values())) if path is not None]
    targets = {path: Path(os.path.realpath(path)) for _, path in named}
    options_by_target: dict[Path, str] = {}
    for option, path in named:
        other = options_by_target.setdefault(targets[path], option)
        if other != option:
            raise ValueError(f"{other} and {option} both name {path}; give each its own path")
    if args.plot is not None and len(args.inputs) != 1:
        raise ValueError(f"--plot expects exactly one input image, got {len(args.inputs)}")
    # an input's stem is its image id in the report and in emitted file names
    paths_by_stem: dict[str, Path] = {}
    for path in args.inputs:
        try:
            path.stem.encode("utf-8")  # the report's encoding
        except UnicodeEncodeError:  # a name byte that is not UTF-8, decoded by os.fsdecode
            raise ValueError(
                f"input {os.fsencode(path)!r}: its image id is not UTF-8; rename it"
            ) from None
        if path.stem in paths_by_stem:
            raise ValueError(
                f"inputs {paths_by_stem[path.stem]} and {path} share the image id "
                f"{path.stem!r}; rename one"
            )
        paths_by_stem[path.stem] = path
    # fail fast: every input is read and checked, and every output file
    # staged, before any compute; the stack moves every output into place
    # only once the sweep and the report have succeeded, or removes them all
    images = {stem: _read_input(path, args.depth) for stem, path in paths_by_stem.items()}
    with ExitStack() as stack:
        def stage(path: Path, what: str) -> Callable[[bytes], None]:
            return stack.enter_context(_staged(path, targets[path], what))

        report = stage(args.report, "report")
        plot = None if args.plot is None else stage(args.plot, "plot data")
        if emit_dir is not None:
            stack.enter_context(_made_directory(emit_dir, targets[emit_dir]))
        staged = {key: stage(path, "--emit-images") for key, path in emitted.items()}

        def emit(record: MetricsRecord, recon: RgbImage) -> None:
            staged[record.image_id, record.wavelet, record.levels](write_image(recon))

        records = run_sweep(images, args.wavelets, args.levels, args.depth,
                            on_reconstruction=emit if emit_dir is not None else None)
        report(write_report(records))
        if plot is not None:
            plot(write_plot_data(records))


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        _run(args)
    except Exception as err:
        print(f"wavequant: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
