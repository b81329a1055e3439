"""Child process of the benchmark: runs the timed sweeps in a fresh interpreter.

Usage: python3 bench/sweep.py SPEC_JSON

SPEC_JSON holds ``src`` (directory holding the wavequant package), ``argv``
(the CLI arguments of one sweep), ``report`` and ``emit_dir`` (the outputs
that argv names), ``seconds``, ``trace`` and ``spans`` (where a traced run
writes its spans). Prints one JSON object: the timing and outputs of every
sweep, the peak RSS of this process and, when tracing, per-layer metrics.

Each sweep is one ``wavequant.cli.main(argv)`` call. Sweeps repeat until
the next one would end after ``seconds`` (at least three untraced sweeps,
or one untraced/traced pair when tracing).
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

MIN_SWEEPS = 3


def _outputs(report: Path, emit_dir: Path | None) -> dict:
    """The sweep's report text, emitted images' SHA-256 and bytes written."""
    text = report.read_text(encoding="utf-8") if report.is_file() else None
    out_bytes = report.stat().st_size if text is not None else 0
    images = {}
    if emit_dir is not None and emit_dir.is_dir():
        for path in sorted(emit_dir.iterdir()):
            data = path.read_bytes()
            images[path.name] = hashlib.sha256(data).hexdigest()
            out_bytes += len(data)
    return {"report": text, "images": images, "out_bytes": out_bytes}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import wavequant
    import wavequant.cli

    if src not in Path(wavequant.__file__).resolve().parents:
        print(f"bench: imported wavequant from {wavequant.__file__}, not {src}", file=sys.stderr)
        return 2

    argv = spec["argv"]
    report = Path(spec["report"])
    emit_dir = Path(spec["emit_dir"]) if spec["emit_dir"] else None

    def sweep(entry) -> dict:
        report.unlink(missing_ok=True)
        if emit_dir is not None:
            shutil.rmtree(emit_dir, ignore_errors=True)
        t0 = time.perf_counter()
        code = entry(argv)
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "exit": code, **_outputs(report, emit_dir)}

    result: dict = {"sweeps": []}
    start = time.perf_counter()
    if not spec["trace"]:
        while True:
            result["sweeps"].append(sweep(wavequant.cli.main))
            times = [s["seconds"] for s in result["sweeps"]]
            elapsed = time.perf_counter() - start
            if len(times) >= MIN_SWEEPS and elapsed + median(times) > spec["seconds"]:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from spans import Tracer, median_metrics

        tracer = Tracer()
        traced_main = tracer.span_fn("main", "cli", wavequant.cli.main)
        per_sweep = []
        while True:
            result["sweeps"].append(sweep(wavequant.cli.main))
            tracer.install(wavequant)
            try:
                tracer.reset()
                traced = sweep(traced_main)
            finally:
                tracer.uninstall()
            result.setdefault("traced", []).append(traced)
            metrics = tracer.sweep_metrics()
            metrics["cli.out_mb"] = traced["out_bytes"] / float(1 << 20)
            per_sweep.append(metrics)
            elapsed = time.perf_counter() - start
            pair = elapsed / len(per_sweep)
            if elapsed + pair > spec["seconds"]:
                break
        layers = median_metrics(per_sweep)
        layers.update(tracer.peak_alloc_mb())
        untraced = median(s["seconds"] for s in result["sweeps"])
        layers["trace.overhead_ratio"] = layers.pop("traced_sweep_s") / untraced - 1.0
        result["layers"] = layers
        result["broken_hooks"] = sorted(tracer.broken)
        tracer.write_spans(Path(spec["spans"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
