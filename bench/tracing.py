"""Outside-in tracing: spans around layer entry points, recorded by the benchmark.

:meth:`Tracer.install` replaces each entry point in :data:`ENTRY_POINTS`
with a wrapper that records a span (id, parent, run id, name, start,
end) in memory.  Nothing under ``src/`` changes: methods are wrapped on
their class, and module-level functions are rebound in every loaded
``repro`` module that imported them by name.  Spans made in pool workers
stay in those processes, so only in-process kernel calls are visible.

:func:`layer_metrics` turns one traced solve's spans, side notes and the
program's own :class:`~repro.perf.PerfCounters` into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: (module, attribute path) of every wrapped entry point; the span name is
#: the attribute path.
ENTRY_POINTS: tuple[tuple[str, str], ...] = (
    ("repro.density.map", "DensityMap.fourier_oversampled"),
    ("repro.refine.refiner", "OrientationRefiner.prepare_views"),
    ("repro.refine.symmetry_detect", "detect_symmetry"),
    ("repro.engine.backends", "SerialBackend.run_level"),
    ("repro.engine.backends", "SerialBackend.run_polish"),
    ("repro.engine.backends", "SerialBackend.run_tasks"),
    ("repro.engine.backends", "SerialBackend.close"),
    ("repro.engine.backends", "ProcessBackend.run_level"),
    ("repro.engine.backends", "ProcessBackend.run_polish"),
    ("repro.engine.backends", "ProcessBackend.run_tasks"),
    ("repro.engine.backends", "ProcessBackend.close"),
    ("repro.parallel.viewsched", "SharedVolume.__init__"),
    ("repro.align.fused", "MatchPlan.match_window"),
    ("repro.align.fused", "MatchPlan.match_window_pruned"),
    ("repro.reconstruct.stream", "HalfSetAccumulator.push"),
    ("repro.reconstruct.stream", "HalfSetAccumulator.full_map"),
    ("repro.reconstruct.stream", "HalfSetAccumulator.curve"),
    ("repro.reconstruct.direct_fourier", "reconstruct_from_views"),
    ("repro.faults.checkpoint", "save_checkpoint"),
    ("repro.faults.checkpoint", "save_loop_checkpoint"),
    ("repro.refine.orientfile", "write_orientation_file"),
)

ROOT_SPAN = "solve"


class Tracer:
    """In-memory span recorder for one traced solve."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # finished spans as (id, parent, name, start, end)
        self._spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0
        #: quantities read at span boundaries (bytes written, fault events…)
        self.notes: dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------------
    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._spans.append((sid, parent, name, start, end))

    def spans(self) -> list[dict[str, Any]]:
        return [
            {"id": sid, "parent": parent, "run": self.run_id, "name": name,
             "start": start, "end": end}
            for sid, parent, name, start, end in sorted(self._spans)
        ]

    # -- installation ------------------------------------------------------------
    def _wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            out = self.call(name, fn, args, kwargs)
            if after is not None:
                after(self.notes, args)
            return out

        return traced

    def install(self) -> None:
        """Wrap every entry point, for the rest of this process's life."""
        for module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrapper(path, getattr(cls, attr)))
                continue
            original = getattr(module, path)
            wrapped = self._wrapper(path, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def _note_shared_volume(notes: dict[str, float], args: tuple) -> None:
    volume = args[0]
    notes["shared_volume_bytes"] += math.prod(volume.shape) * volume.dtype.itemsize


def _note_checkpoint(notes: dict[str, float], args: tuple) -> None:
    notes["checkpoint_bytes"] += os.path.getsize(args[0])


def _note_close(notes: dict[str, float], args: tuple) -> None:
    log = getattr(args[0], "fault_log", None)
    if log is not None:
        notes["fault_events"] += len(log.events)


def _note_prepare(notes: dict[str, float], args: tuple) -> None:
    notes["n_samples"] = args[0].distance_computer.n_samples


#: side notes read right after a span ends, keyed by span name
_AFTER: dict[str, Callable[[dict[str, float], tuple], None]] = {
    "SharedVolume.__init__": _note_shared_volume,
    "save_checkpoint": _note_checkpoint,
    "SerialBackend.close": _note_close,
    "ProcessBackend.close": _note_close,
    "OrientationRefiner.prepare_views": _note_prepare,
}


# -- per-layer metrics -----------------------------------------------------------

def span_totals(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: total duration, self time (minus covered child time), calls."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
    for s in spans:
        duration = s["end"] - s["start"]
        agg = out[s["name"]]
        agg["total"] += duration
        agg["self"] += duration - covered[s["id"]]
        agg["calls"] += 1
    return out


def coverage(spans: list[dict[str, Any]]) -> float:
    """Time the root span's direct children cover, over the root span's time."""
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN!r} span, found {len(roots)}")
    root = roots[0]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    return children / (root["end"] - root["start"])


def _sum(totals: dict[str, dict[str, float]], key: str, *names: str) -> float:
    return float(sum(totals[n][key] for n in names if n in totals))


def layer_metrics(
    spans: list[dict[str, Any]],
    notes: dict[str, float],
    perf: Any,
    *,
    symmetry_order: int,
    iterations_run: int,
    worker_peak_rss_mb: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced solve (unit table in ``run.py``)."""
    from repro.perf import PerfCounters

    perf = perf if perf is not None else PerfCounters()  # None for non-batched kernels
    t = span_totals(spans)
    both = ("SerialBackend.{}", "ProcessBackend.{}")

    def backend(key: str, method: str) -> float:
        return _sum(t, key, *(b.format(method) for b in both))

    gathers = perf.gathers
    return {
        "align.match_window_s": _sum(t, "total", "MatchPlan.match_window"),
        "align.match_window_pruned_s": _sum(t, "total", "MatchPlan.match_window_pruned"),
        "align.window_calls": float(perf.window_calls),
        "align.candidates": float(perf.candidates),
        "align.gathers": float(gathers),
        "align.evaluated": float(perf.evaluated),
        "align.pruned": float(perf.pruned),
        "align.prune_ratio": perf.pruned / gathers if gathers else 0.0,
        "align.memo_hit_rate": perf.memo_hit_rate(),
        "align.candidates_per_s": perf.candidates_per_second(),
        # computed, not measured: 8 trilinear corners of complex128 per sample
        "align.gather_bytes_computed": float(gathers * notes.get("n_samples", 0) * 8 * 16),
        "refine.detect_symmetry_s": _sum(t, "total", "detect_symmetry"),
        "refine.detect_symmetry_self_s": _sum(t, "self", "detect_symmetry"),
        "refine.symmetry_order": float(symmetry_order),
        "refine.polish_s": backend("total", "run_polish"),
        "refine.polish_iters": float(perf.polish_iters),
        "refine.prepare_views_s": _sum(t, "total", "OrientationRefiner.prepare_views"),
        "fourier.volume_fft_s": _sum(t, "total", "DensityMap.fourier_oversampled"),
        "fourier.volume_fft_calls": _sum(t, "calls", "DensityMap.fourier_oversampled"),
        "reconstruct.push_s": _sum(t, "total", "HalfSetAccumulator.push"),
        "reconstruct.push_calls": _sum(t, "calls", "HalfSetAccumulator.push"),
        "reconstruct.full_map_s": _sum(t, "total", "HalfSetAccumulator.full_map"),
        "reconstruct.fsc_s": _sum(t, "total", "HalfSetAccumulator.curve"),
        "reconstruct.initial_map_s": _sum(t, "total", "reconstruct_from_views"),
        "reconstruct.iterations_run": float(iterations_run),
        "faults.checkpoint_s": _sum(t, "total", "save_checkpoint"),
        "faults.checkpoint_calls": _sum(t, "calls", "save_checkpoint"),
        "faults.checkpoint_bytes": float(notes.get("checkpoint_bytes", 0.0)),
        "faults.loop_checkpoint_s": _sum(t, "total", "save_loop_checkpoint"),
        "engine.run_level_s": backend("total", "run_level"),
        "engine.run_level_self_s": backend("self", "run_level"),
        "engine.run_tasks_s": backend("total", "run_tasks"),
        "engine.backend_close_s": backend("total", "close"),
        "parallel.shared_volume_s": _sum(t, "total", "SharedVolume.__init__"),
        "parallel.shared_volume_bytes": float(notes.get("shared_volume_bytes", 0.0)),
        "parallel.shared_volume_calls": _sum(t, "calls", "SharedVolume.__init__"),
        "parallel.fault_events": float(notes.get("fault_events", 0.0)),
        "parallel.worker_peak_rss_mb": float(worker_peak_rss_mb),
        "trace.coverage": coverage(spans),
    }
