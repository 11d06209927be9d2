"""Per-layer tracing of one sinkseg run, installed from outside the package.

:func:`install` replaces each public function the pipeline calls, in every
``sinkseg`` module that holds a reference to it, by a wrapper that records a
span ``(layer, start, end)`` plus whatever counts it can read from the call's
arguments and result.  The wrappers only observe: they return the wrapped
function's result unchanged, so a traced run writes the same bytes as an
untraced one.  :func:`summarize` turns the spans and counts into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

# filled + depth written and elevation read per cell, as float64
FILL_BYTES_PER_CELL = 24

STAGES = ("fill", "prompts", "segment", "eval")


class Tracer:
    """Spans and counters of one traced run; safe to feed from pool threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def span(self, layer: str, start: float, end: float) -> None:
        with self._lock:
            self.spans.append((layer, start, end))

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def wrap(self, layer: str, fn, count=None):
        """*fn* recording a span named *layer*; ``count(args, result)`` after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span(layer, start, time.perf_counter())
            if count is not None:
                count(args, result)
            return result

        return traced


def _replace(original, replacement) -> None:
    """Point every sinkseg module-level name bound to *original* at *replacement*."""
    for name, module in list(sys.modules.items()):
        if name != "sinkseg" and not name.startswith("sinkseg."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each sinkseg layer the pipeline calls."""
    import requests

    import sinkseg.pipeline
    from sinkseg import hydro, image, labeling, metrics, raster, segmenter, tiling

    def wrap(layer, fn, count=None):
        _replace(fn, tracer.wrap(layer, fn, count))

    def stage(name, fn):
        def timed(*args, **kwargs):
            cpu = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(f"pipeline.{name}_cpu_s", time.process_time() - cpu)

        _replace(fn, tracer.wrap(f"pipeline.{name}", functools.wraps(fn)(timed)))

    for name in STAGES:
        stage(name, getattr(sinkseg.pipeline, f"cmd_{name}"))

    wrap("hydro.fill", hydro.fill_depressions,
         lambda a, r: tracer.add("hydro.cells", a[0].values.size))

    wrap("raster.read_grid", raster.read_ascii_grid,
         lambda a, r: tracer.add("raster.read_grid_bytes", os.path.getsize(a[0])))
    wrap("raster.write_grid", raster.write_ascii_grid,
         lambda a, r: tracer.add("raster.write_grid_bytes", os.path.getsize(a[1])))
    wrap("raster.read_mask", raster.read_ascii_mask)
    wrap("raster.write_mask", raster.write_ascii_mask)

    wrap("tiling.extract", tiling.extract_tile)
    wrap("tiling.stitch", tiling.stitch)

    wrap("labeling.label", labeling.label_components,
         lambda a, r: tracer.add("labeling.components", len(r)))
    wrap("labeling.filter", labeling.filter_components,
         lambda a, r: tracer.add("labeling.kept", len(r)))
    wrap("labeling.boxes", labeling.boxes_from_components,
         lambda a, r: tracer.add("labeling.boxes", len(r)))
    wrap("labeling.prompts_io", labeling.write_prompts)
    wrap("labeling.prompts_io", labeling.read_prompts)
    wrap("labeling.mask_components", labeling.components_from_mask)

    def curve_counts(args, rows):
        pred, gt = args[0], args[1]
        tracer.add("metrics.pairs_tested", len(pred) * len(gt) * len(rows))
        tracer.add("metrics.matched", sum(row[1] for row in rows))

    wrap("metrics.pixel_confusion", metrics.pixel_confusion)
    wrap("metrics.detection_curve", metrics.detection_curve, curve_counts)

    wrap("segmenter.segment_patch", segmenter.segment_patch)
    wrap("segmenter.fuse", segmenter.fuse_probabilities)
    for backend in (segmenter.EchoBackend, segmenter.HttpBackend, segmenter.ReplayBackend):
        backend.masks_for = tracer.wrap(
            "segmenter.backend", backend.masks_for,
            lambda a, r: tracer.add("segmenter.boxes_sent", len(a[2])),
        )

    wrap("image.read_ppm", image.read_ppm)
    wrap("image.ppm_encode", image.ppm_bytes)
    wrap("image.pgm_decode", image.gray_from_pgm_bytes)

    post = requests.Session.post

    @functools.wraps(post)
    def traced_post(*args, **kwargs):
        tracer.add("segmenter.http_attempts", 1)
        start = time.perf_counter()
        ok = False
        try:
            response = post(*args, **kwargs)
            ok = response.status_code == 200
            tracer.add("segmenter.http_req_bytes", len(response.request.body or b""))
            tracer.add("segmenter.http_resp_bytes", len(response.content))
            return response
        finally:
            end = time.perf_counter()
            tracer.span("segmenter.http", start, end)
            tracer.sample("segmenter.http_latency_ms", (end - start) * 1e3)
            if not ok:
                tracer.add("segmenter.http_failed", 1)

    requests.Session.post = traced_post


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of *intervals*."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of the traced run, keyed by their BENCHMARK.json names."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for layer, start, end in tracer.spans:
        busy[layer] += end - start
        calls[layer] += 1
    counts = tracer.counts
    out: dict[str, float] = {}

    for name in STAGES:
        out[f"pipeline.{name}_s"] = busy[f"pipeline.{name}"]
    # self time: stage wall time not covered by any wrapped call, in any thread
    inner = [(s, e) for layer, s, e in tracer.spans if not layer.startswith("pipeline.")]
    for name in ("prompts", "segment"):
        own = [(s, e) for layer, s, e in tracer.spans if layer == f"pipeline.{name}"]
        out[f"pipeline.{name}_self_s"] = sum(e - s - _covered(inner, s, e) for s, e in own)
    fill_s = busy["pipeline.fill"]
    out["pipeline.fill_cpu_util"] = counts["pipeline.fill_cpu_s"] / (workers * fill_s) if fill_s else 0.0

    mcells = counts["hydro.cells"] / 1e6
    out["hydro.fill_s"] = busy["hydro.fill"]
    out["hydro.fill_calls"] = calls["hydro.fill"]
    out["hydro.fill_mcells"] = mcells
    out["hydro.fill_mcells_per_s"] = mcells / busy["hydro.fill"] if busy["hydro.fill"] else 0.0
    out["hydro.fill_bytes_computed"] = counts["hydro.cells"] * FILL_BYTES_PER_CELL

    for op in ("read", "write"):
        out[f"raster.{op}_grid_s"] = busy[f"raster.{op}_grid"]
        out[f"raster.{op}_grid_calls"] = calls[f"raster.{op}_grid"]
        out[f"raster.{op}_grid_mb"] = counts[f"raster.{op}_grid_bytes"] / 1e6
        out[f"raster.{op}_mask_s"] = busy[f"raster.{op}_mask"]

    for op in ("extract", "stitch"):
        out[f"tiling.{op}_s"] = busy[f"tiling.{op}"]
        out[f"tiling.{op}_calls"] = calls[f"tiling.{op}"]

    out["labeling.label_s"] = busy["labeling.label"]
    out["labeling.filter_s"] = busy["labeling.filter"]
    out["labeling.components"] = counts["labeling.components"]
    out["labeling.kept"] = counts["labeling.kept"]
    out["labeling.boxes"] = counts["labeling.boxes"]
    out["labeling.prompts_io_s"] = busy["labeling.prompts_io"]
    out["labeling.kept_ratio"] = (
        counts["labeling.kept"] / counts["labeling.components"] if counts["labeling.components"] else 0.0
    )
    out["labeling.mask_components_s"] = busy["labeling.mask_components"]

    pairs = counts["metrics.pairs_tested"]
    out["metrics.pixel_confusion_s"] = busy["metrics.pixel_confusion"]
    out["metrics.detection_curve_s"] = busy["metrics.detection_curve"]
    out["metrics.pairs_tested"] = pairs
    out["metrics.match_useful_ratio"] = counts["metrics.matched"] / pairs if pairs else 0.0

    latencies = tracer.samples["segmenter.http_latency_ms"]
    out["segmenter.segment_patch_s"] = busy["segmenter.segment_patch"]
    out["segmenter.backend_s"] = busy["segmenter.backend"]
    out["segmenter.backend_calls"] = calls["segmenter.backend"]
    out["segmenter.boxes_sent"] = counts["segmenter.boxes_sent"]
    out["segmenter.fuse_s"] = busy["segmenter.fuse"]
    out["segmenter.fuse_calls"] = calls["segmenter.fuse"]
    out["segmenter.http_attempts"] = counts["segmenter.http_attempts"]
    out["segmenter.http_failed"] = counts["segmenter.http_failed"]
    out["segmenter.http_latency_samples"] = len(latencies)
    out["segmenter.http_latency_ms_p50"] = statistics.median(latencies) if latencies else 0.0
    out["segmenter.http_latency_ms_max"] = max(latencies, default=0.0)
    out["segmenter.http_req_mb"] = counts["segmenter.http_req_bytes"] / 1e6
    out["segmenter.http_resp_mb"] = counts["segmenter.http_resp_bytes"] / 1e6

    out["image.read_ppm_s"] = busy["image.read_ppm"]
    out["image.ppm_encode_s"] = busy["image.ppm_encode"]
    out["image.pgm_decode_s"] = busy["image.pgm_decode"]
    return out
