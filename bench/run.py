"""wavequant benchmark: time CLI sweeps over seeded PGM/PPM corpora and check their outputs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--size PX]

A run generates the workload's inputs from ``--seed``, then, with ``--trace 0``,
times the import of ``wavequant.cli`` in fresh interpreters (``setup_s``) and
runs sweeps, each one in-process call of ``wavequant.cli.main(argv)``, in a
single fresh child process for ``--seconds`` seconds. With ``--trace 1`` the
child alternates untraced and traced sweeps and reports per-layer metrics.
Every sweep's report and emitted images are checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--size`` scales every input so that the first
image is PX pixels high; it exists for the smoke test.

Exit codes: 0 result printed, 1 the sweep process failed, 2 no wavequant
sources under ``src/`` or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

import corpus
from spans import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

ALL_WAVELETS = ("db2", "db4", "db6", "db8", "coif1", "coif2", "coif3", "coif4", "coif5")
# image k of every workload: seed IMAGE_SEEDS[k] + SEED_STRIDE * --seed, texture
# detail DETAILS[k]; --seed 0 gives the acceptance suite's smooth/busy pair.
IMAGE_SEEDS = (11, 23)
DETAILS = (1.0, 3.0)
SEED_STRIDE = 1000
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
REPORT_HEADER = "image,wavelet,levels,psnr_db,size_bytes"
PSNR_BAND_DB = (20.0, 50.0)


@dataclass(frozen=True)
class Workload:
    ext: str                              # "ppm" (RGB) or "pgm" (grayscale)
    shapes: tuple[tuple[int, int], ...]   # (width, height) of each input image
    wavelets: tuple[str, ...]
    levels: tuple[int, ...]
    depth: int
    emit: bool = False

    def scaled(self, height: int) -> "Workload":
        """Same workload with the first image ``height`` pixels high."""
        unit = 2 ** self.depth
        factor = height / self.shapes[0][1]
        shapes = tuple(
            tuple(max(unit, round(side * factor / unit) * unit) for side in shape)
            for shape in self.shapes
        )
        return replace(self, shapes=shapes)


WORKLOADS = {
    # All 9 wavelets x L{3,5,7} at depth 1: the paper's sweep. Long filters make
    # transform the largest layer, and the forward DWT repeats for every L.
    "rgb256-sweep": Workload("ppm", ((256, 256), (256, 256)), ALL_WAVELETS, (3, 5, 7), 1),
    # db2 only at depth 3 on planes larger than L2: quantize is the largest layer,
    # transform much smaller, and per-combination overhead is at its highest share.
    "rgb640-db2-deep": Workload("ppm", ((640, 640), (640, 640)), ("db2",), (3, 5, 7), 3),
    # Non-square grayscale (one plane aliased as R, G and B), a single L, and
    # reconstructed images written next to the reads.
    "gray-emit": Workload("pgm", ((384, 256), (192, 128)), ALL_WAVELETS, (3,), 2, emit=True),
}


def generate_inputs(name: str, wl: Workload, seed: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, (width, height) in enumerate(wl.shapes):
        image_seed = IMAGE_SEEDS[k] + SEED_STRIDE * seed
        if wl.ext == "ppm":
            pixels = corpus.natural_rgb(height, width, image_seed, DETAILS[k])
        else:
            pixels = corpus.natural_plane(height, width, image_seed, DETAILS[k])
        path = directory / f"{name}_{k}.{wl.ext}"
        corpus.write_netpbm(path, pixels)
        paths.append(path)
    return paths


PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import wavequant.cli; print(time.perf_counter() - t)"
)


def setup_seconds() -> float:
    """Median import time of wavequant.cli over fresh interpreters, run one at a time.

    One extra probe runs first and is not counted: in a fresh checkout it
    also compiles the bytecode cache.
    """
    samples = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout))
    return median(samples[1:])


def run_child(spec: dict, spec_path: Path) -> dict | None:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sweep.py"), str(spec_path)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: sweep process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: sweep process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- correctness ---------------------------------------------------------------


def _ppm_dims(data: bytes) -> tuple[int, int] | None:
    """(width, height) of a well-formed binary P6 with maxval 255, else None."""
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    if m is None:
        return None
    width, height = int(m.group(1)), int(m.group(2))
    return (width, height) if len(data) - m.end() == 3 * width * height else None


def _row_valid(row: str, key: tuple[str, str, int]) -> bool:
    fields = row.split(",")
    if len(fields) != 5 or fields[:3] != [key[0], key[1], str(key[2])]:
        return False
    try:
        psnr, size = float(fields[3]), int(fields[4])
    except ValueError:
        return False
    return PSNR_BAND_DB[0] <= psnr <= PSNR_BAND_DB[1] and size > 0


def count_failures(sweeps: list[dict], wl: Workload, inputs: list[Path],
                   emit_dir: Path, reference: dict | None) -> tuple[int, int]:
    """(attempted, failed) combinations over all sweeps.

    A combination fails in a sweep when the sweep did not exit 0, the report
    does not hold exactly the expected rows in order, its row or emitted
    image differs from the first sweep's, or the first sweep's row is wrong:
    different from ``reference`` when one is given, otherwise outside the
    PSNR band, with a nonpositive size or an emitted image of the wrong size.
    """
    keys = [(p.stem, w, lv) for p in inputs for w in wl.wavelets for lv in wl.levels]
    dims = {p.stem: wl.shapes[k] for k, p in enumerate(inputs)}
    image_names = [f"{stem}_{w}_L{lv}.ppm" for stem, w, lv in keys]

    def rows(sweep: dict) -> list[str] | None:
        if sweep["exit"] != 0 or sweep["report"] is None:
            return None
        lines = sweep["report"].split("\n")
        if lines[0] != REPORT_HEADER or lines[-1] != "" or len(lines) != len(keys) + 2:
            return None
        return lines[1:-1]

    first = sweeps[0]
    first_rows = rows(first)
    ref_rows = reference["report"].split("\n")[1:-1] if reference is not None else None
    valid = []
    for i, key in enumerate(keys):
        if first_rows is None:
            valid.append(False)
            continue
        image = image_names[i]
        if reference is not None:
            ok = (i < len(ref_rows) and first_rows[i] == ref_rows[i]
                  and (not wl.emit or first["images"].get(image) == reference["images"].get(image)))
        else:
            ok = _row_valid(first_rows[i], key)
            if ok and wl.emit:
                path = emit_dir / image
                ok = path.is_file() and _ppm_dims(path.read_bytes()) == dims[key[0]]
        valid.append(ok)
    failed = 0
    for sweep in sweeps:
        sweep_rows = rows(sweep)
        for i, image in enumerate(image_names):
            same = (sweep_rows is not None and sweep_rows[i] == first_rows[i]
                    and (not wl.emit or sweep["images"].get(image) == first["images"].get(image)))
            failed += not (valid[i] and same)
    return len(keys) * len(sweeps), failed


# -- environment -----------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu() -> dict:
    info: dict = {"model": platform.processor() or None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
    }


# -- main ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None, help="first image height in pixels")
    args = parser.parse_args(argv)

    if not (SRC / "wavequant" / "cli.py").is_file():
        print(f"bench: no wavequant sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    if args.size is not None:
        wl = wl.scaled(args.size)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = generate_inputs(args.workload, wl, args.seed, work / "inputs")
    reference = None
    if args.seed == 0 and args.size is None and EXPECTED.is_file():
        reference = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload)

    report = work / "report.csv"
    emit_dir = work / "emit" if wl.emit else None
    argv_sweep = [str(p) for p in inputs] + [
        "--wavelets", ",".join(wl.wavelets),
        "--levels", ",".join(map(str, wl.levels)),
        "--depth", str(wl.depth),
        "--report", str(report),
    ] + (["--emit-images", str(emit_dir)] if emit_dir else [])

    setup_s = None if args.trace else setup_seconds()
    result = run_child(
        {
            "src": str(SRC), "argv": argv_sweep, "report": str(report),
            "emit_dir": str(emit_dir) if emit_dir else None,
            "seconds": args.seconds, "trace": bool(args.trace),
            "spans": str(work / "spans.jsonl"),
        },
        work / "spec.json",
    )
    if result is None:
        return 1

    sweeps = result["sweeps"] + result.get("traced", [])
    attempted, failed = count_failures(sweeps, wl, inputs, emit_dir, reference)
    combos = len(wl.wavelets) * len(wl.levels)
    mpix = sum(w * h for w, h in wl.shapes) / 1e6 * combos
    sweep_s = median(s["seconds"] for s in result["sweeps"])

    print(f"workload {args.workload}: {len(inputs)} {wl.ext} inputs "
          f"{', '.join(f'{w}x{h}' for w, h in wl.shapes)}; {len(wl.wavelets)} wavelets "
          f"x L{{{','.join(map(str, wl.levels))}}} at depth {wl.depth}; seed {args.seed}; "
          f"{'reference outputs' if reference else 'generic checks'}")
    samples = " ".join(f"{s['seconds']:.3f}" for s in result["sweeps"])
    print(f"sweeps: {len(result['sweeps'])} untraced, {len(result.get('traced', []))} traced; "
          f"untraced sweep_s samples: {samples}")
    if args.trace:
        layers = result["layers"]
        metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items() if name in layers}
        if result["broken_hooks"]:
            print(f"counting failed for: {', '.join(result['broken_hooks'])}")
    else:
        metrics = {
            "sweep_s": (sweep_s, "s"),
            "mpix_per_s": (mpix / sweep_s, "Mpx/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':36s} {failed / attempted:14.6g} 1   ({failed}/{attempted} combinations)")
    print("environment " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
