"""Outside-in tracing: wrap wavequant's public functions where callers look them up.

Each wrapped call records a span (name, layer, parent, combination id,
start, end). Bookkeeping that is not the program's own work, such as
content hashing and work counting, runs in ``Tracer.out_of_band`` and is
subtracted from every span that encloses it, so it counts in no layer's
self time. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import hashlib
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

MIB = float(1 << 20)

# (module, name, layer). A name is wrapped in the module whose code calls
# it, because that is where the call looks it up.
TARGETS = (
    ("cli", "run_experiment", "pipeline"),
    ("cli", "read_image", "image"),
    ("cli", "write_image", "image"),
    ("cli", "write_report", "cli"),
    ("pipeline", "process_image", "pipeline"),
    ("pipeline", "process_plane", "pipeline"),
    ("pipeline", "dwt2d", "transform"),
    ("pipeline", "idwt2d", "transform"),
    ("pipeline", "threshold_subband", "quantize"),
    ("pipeline", "psnr", "pipeline"),
    ("pipeline", "encoded_size", "image"),
)
LAYERS = ("transform", "quantize", "image", "pipeline", "cli")

# Every per-layer metric with its unit; self times are span time minus child spans.
LAYER_UNITS = {
    "transform.dwt2d_s": "s",
    "transform.idwt2d_s": "s",
    "transform.dwt2d_calls": "count",
    "transform.idwt2d_calls": "count",
    "transform.dwt2d_unique_ratio": "1",
    "transform.dwt2d_gmac": "GMAC",
    "transform.dwt2d_gmac_per_s": "GMAC/s",
    "transform.dwt2d_peak_alloc_mb": "MiB",
    "transform.idwt2d_peak_alloc_mb": "MiB",
    "quantize.threshold_subband_s": "s",
    "quantize.threshold_subband_calls": "count",
    "quantize.mcoeffs": "Mcoeff",
    "quantize.mcoeffs_per_s": "Mcoeff/s",
    "quantize.stats_unique_ratio": "1",
    "image.read_image_s": "s",
    "image.read_image_calls": "count",
    "image.write_image_s": "s",
    "image.write_image_calls": "count",
    "image.encoded_size_s": "s",
    "image.encoded_size_calls": "count",
    "image.deflate_in_mb": "MiB",
    "pipeline.self_s": "s",
    "pipeline.psnr_s": "s",
    "pipeline.process_plane_calls": "count",
    "pipeline.combos": "count",
    "cli.self_s": "s",
    "cli.write_report_s": "s",
    "cli.out_mb": "MiB",
    **{f"share.{layer}": "1" for layer in LAYERS},
    "trace.overhead_ratio": "1",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    combo: int | None
    start: float = 0.0
    end: float = 0.0
    excluded: float = 0.0  # out-of-band time inside this span

    @property
    def effective(self) -> float:
        return self.end - self.start - self.excluded


def _digest(arr) -> tuple:
    a = np.ascontiguousarray(arr)
    return a.shape, a.dtype.str, hashlib.blake2b(a.data, digest_size=16).digest()


class Tracer:
    """Installs span-recording wrappers and derives per-layer metrics from them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._excluded = 0.0
        self._combo: int | None = None
        self._mark = 0  # first span of the current sweep
        self._combos = 0
        self._installed: list[tuple[object, str, Callable]] = []
        self.originals: dict[str, Callable] = {}
        self.broken: set[str] = set()  # names whose counting hook failed
        self.dwt_keys: set = set()
        self.stats_keys: set = set()
        self.dwt_macs = 0
        self.coeffs = 0
        self.deflate_in = 0
        # one sample call per (filter, shape, depth), replayed under tracemalloc
        self.samples: dict[str, dict] = {"dwt2d": {}, "idwt2d": {}}

    @contextmanager
    def out_of_band(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0

    def span_fn(self, name: str, layer: str, fn: Callable,
                before: Callable | None = None, after: Callable | None = None) -> Callable:
        """``fn`` wrapped so that each call records one span.

        ``before(args, kwargs)`` may rewrite the call's arguments; ``after(args,
        kwargs, result)`` counts work. Both run out of band.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                with tracer.out_of_band():
                    args, kwargs = tracer._guard(name, before, args, kwargs) or (args, kwargs)
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), name, layer, parent, tracer._combo)
            tracer.spans.append(span)
            tracer._stack.append(span)
            excluded0 = tracer._excluded
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.excluded = tracer._excluded - excluded0
                tracer._stack.pop()
            if after is not None:
                with tracer.out_of_band():
                    tracer._guard(name, after, args, kwargs, result)
            return result

        return wrapper

    def _guard(self, name: str, hook: Callable, *args):
        try:
            return hook(*args)
        except Exception:
            self.broken.add(name)
            return None

    def install(self, package) -> None:
        """Wrap every name of TARGETS that exists; missing names are skipped."""
        hooks = {
            "run_experiment": (self._wrap_emit, self._end_combos),
            "process_image": (self._next_combo, None),
            "dwt2d": (None, self._count_dwt2d),
            "idwt2d": (None, self._count_idwt2d),
            "threshold_subband": (None, self._count_threshold),
            "encoded_size": (None, self._count_deflate),
        }
        for module_name, name, layer in TARGETS:
            module = getattr(package, module_name, None)
            target = getattr(module, name, None)
            if target is None:
                continue
            before, after = hooks.get(name, (None, None))
            self.originals[name] = target
            setattr(module, name, self.span_fn(name, layer, target, before, after))
            self._installed.append((module, name, target))

    def uninstall(self) -> None:
        for module, name, target in reversed(self._installed):
            setattr(module, name, target)
        self._installed.clear()

    def reset(self) -> None:
        """Start a new sweep: later metrics count only spans and work from here on."""
        self._mark = len(self.spans)
        self.dwt_keys.clear()
        self.stats_keys.clear()
        self.dwt_macs = self.coeffs = self.deflate_in = 0

    # -- hooks (out of band) ------------------------------------------------

    def _wrap_emit(self, args, kwargs):
        callback = kwargs.get("on_reconstruction")
        if callback is not None:
            kwargs = dict(kwargs, on_reconstruction=self.span_fn("emit", "cli", callback))
        return args, kwargs

    def _next_combo(self, args, kwargs):
        self._combo = self._combos
        self._combos += 1

    def _end_combos(self, args, kwargs, result):
        self._combo = None

    def _count_dwt2d(self, args, kwargs, result):
        plane, fb, depth = args[:3]
        height, width = np.shape(plane)
        taps = len(fb.lowpass)
        self.dwt_macs += sum(2 * taps * (height * width >> (2 * level)) for level in range(depth))
        self.dwt_keys.add((_digest(plane), fb.name, depth))
        self.samples["dwt2d"].setdefault((fb.name, (height, width), depth), (plane, fb, depth))

    def _count_idwt2d(self, args, kwargs, result):
        dec, fb = args[:2]
        key = (fb.name, np.shape(result), dec.depth)
        self.samples["idwt2d"].setdefault(key, (dec, fb))

    def _count_threshold(self, args, kwargs, result):
        mat = args[0]
        self.coeffs += np.size(mat)
        self.stats_keys.add(_digest(mat))

    def _count_deflate(self, args, kwargs, result):
        img = args[0]
        self.deflate_in += 3 * img.width * img.height

    # -- metrics --------------------------------------------------------------

    def peak_alloc_mb(self) -> dict[str, float]:
        """Largest tracemalloc peak of one call, per transform direction.

        Replays one recorded call per (filter, shape, depth) outside any sweep.
        """
        peaks = {}
        for name, samples in self.samples.items():
            if name not in self.originals or name in self.broken or not samples:
                continue
            worst = 0
            for call_args in samples.values():
                tracemalloc.start()
                try:
                    self.originals[name](*call_args)
                    worst = max(worst, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks[f"transform.{name}_peak_alloc_mb"] = worst / MIB
        return peaks

    def sweep_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset()."""
        spans = self.spans[self._mark:]
        child_time = {s.id: 0.0 for s in spans}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.effective
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_time = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            own = s.effective - child_time[s.id]
            self_time[s.name] = self_time.get(s.name, 0.0) + own
            calls[s.name] = calls.get(s.name, 0) + 1
            layer_time[s.layer] += own
        wrapped = set(self.originals) - self.broken
        m: dict[str, float] = {}

        def timed(metric: str, name: str) -> None:
            if name in self.originals:
                m[f"{metric}_s"] = self_time.get(name, 0.0)
                m[f"{metric}_calls"] = calls.get(name, 0)

        timed("transform.dwt2d", "dwt2d")
        timed("transform.idwt2d", "idwt2d")
        timed("quantize.threshold_subband", "threshold_subband")
        timed("image.read_image", "read_image")
        timed("image.write_image", "write_image")
        timed("image.encoded_size", "encoded_size")
        if "dwt2d" in wrapped and calls.get("dwt2d"):
            m["transform.dwt2d_unique_ratio"] = len(self.dwt_keys) / calls["dwt2d"]
            m["transform.dwt2d_gmac"] = self.dwt_macs / 1e9
            m["transform.dwt2d_gmac_per_s"] = self.dwt_macs / 1e9 / self_time["dwt2d"]
        if "threshold_subband" in wrapped and calls.get("threshold_subband"):
            m["quantize.mcoeffs"] = self.coeffs / 1e6
            m["quantize.mcoeffs_per_s"] = self.coeffs / 1e6 / self_time["threshold_subband"]
            m["quantize.stats_unique_ratio"] = len(self.stats_keys) / calls["threshold_subband"]
        if "encoded_size" in wrapped:
            m["image.deflate_in_mb"] = self.deflate_in / MIB
        if {"run_experiment", "process_image", "process_plane"} <= set(self.originals):
            m["pipeline.self_s"] = sum(
                self_time.get(n, 0.0) for n in ("run_experiment", "process_image", "process_plane")
            )
        if "psnr" in self.originals:
            m["pipeline.psnr_s"] = self_time.get("psnr", 0.0)
        if "process_plane" in self.originals:
            m["pipeline.process_plane_calls"] = calls.get("process_plane", 0)
        if "process_image" in self.originals:
            m["pipeline.combos"] = calls.get("process_image", 0)
        m["cli.self_s"] = self_time.get("main", 0.0) + self_time.get("emit", 0.0)
        if "write_report" in self.originals:
            m["cli.write_report_s"] = self_time.get("write_report", 0.0)
        total = sum(layer_time.values())
        for layer in LAYERS:
            m[f"share.{layer}"] = layer_time[layer] / total
        m["traced_sweep_s"] = sum(s.end - s.start for s in spans if s.parent is None)
        return m

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(asdict(s)) + "\n")


def median_metrics(per_sweep: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the sweeps that reported it; counts stay exact."""
    merged: dict[str, list[float]] = {}
    for metrics in per_sweep:
        for name, value in metrics.items():
            merged.setdefault(name, []).append(value)
    return {name: values[0] if len(set(values)) == 1 else median(values)
            for name, values in merged.items()}
