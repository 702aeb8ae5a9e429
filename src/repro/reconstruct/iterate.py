"""The refine ↔ reconstruct iteration (steps B and C alternated).

§3: "Steps B and C are executed iteratively until the 3D electron density
map cannot be further improved at a given resolution; then the resolution
is increased gradually."  :func:`determine_structure` runs that outer loop
as a first-class, checkpointable pipeline stage: each iteration refines
orientations against the current map through the configured
:class:`~repro.engine.backends.ExecutionBackend`, streams the refined
views into a :class:`~repro.reconstruct.stream.HalfSetAccumulator` (one
Fourier insertion per view per iteration — the map, both half maps and
the FSC curve all come from the same accumulator pair), and stops under
the FSC rule of :class:`~repro.engine.config.IterationConfig`.

The loop is governed end-to-end by one :class:`EngineConfig`:

- ``iteration.*`` — iteration budget, FSC threshold, minimum-improvement
  stopping rule, per-iteration ``r_max`` ladder, streaming on/off;
- ``checkpoint.path`` — a checkpoint *directory* for the outer loop
  (``loop.json`` + per-iteration orientation files + the in-flight
  iteration's level-granular inner checkpoint), so a killed run resumes
  mid-loop bit-identically (DESIGN.md §14);
- everything else — schedule, kernel, backend, pruning, polish, symmetry
  — exactly as in a single refinement run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro.density.map import DensityMap
from repro.engine.config import EngineConfig
from repro.geometry.euler import Orientation
from repro.imaging.simulate import SimulatedViews
from repro.reconstruct.resolution import CorrelationCurve
from repro.reconstruct.stream import HalfSetAccumulator
from repro.refine.refiner import OrientationRefiner

__all__ = [
    "IterationRecord",
    "StructureDeterminationResult",
    "determine_structure",
    "iterations_until_stop",
    "should_stop",
]


@dataclass
class IterationRecord:
    """One outer iteration's outcome."""

    iteration: int
    orientations: list[Orientation]
    density: DensityMap
    resolution_angstrom: float
    mean_distance: float
    #: the FSC curve behind ``resolution_angstrom`` (``None`` only for
    #: records constructed by legacy callers that never had one)
    curve: CorrelationCurve | None = None
    #: the ``r_max`` this iteration refined with (the resolution ladder)
    r_max: float | None = None
    #: whether this record was replayed from a loop checkpoint rather
    #: than computed live — replayed records are bit-identical either way
    resumed: bool = False


@dataclass
class StructureDeterminationResult:
    """The full outcome of the outer loop (DESIGN.md §14).

    ``history`` holds one :class:`IterationRecord` per executed iteration
    (including checkpoint-replayed ones on resume); ``stop_reason`` is
    ``"converged"`` when the FSC rule fired and ``"max_iterations"`` when
    the budget ran out.  ``perf`` aggregates the batched kernel's
    :class:`~repro.parallel.viewsched.PerfCounters` across every
    iteration (``None`` for non-batched kernels).
    """

    history: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = "max_iterations"
    perf: object | None = None
    #: how many leading history records were replayed from a checkpoint
    resumed_iterations: int = 0

    @property
    def curves(self) -> list[CorrelationCurve]:
        """Per-iteration FSC curves, in iteration order."""
        return [rec.curve for rec in self.history if rec.curve is not None]

    @property
    def resolutions(self) -> list[float]:
        """Per-iteration FSC-crossing estimates (Å), in iteration order."""
        return [rec.resolution_angstrom for rec in self.history]

    @property
    def final_map(self) -> DensityMap:
        return self.history[-1].density

    @property
    def final_orientations(self) -> list[Orientation]:
        return self.history[-1].orientations


def should_stop(resolutions: list[float], min_improvement_angstrom: float) -> bool:
    """Whether the FSC rule stops the loop after ``resolutions[-1]``.

    The paper's "cannot be further improved" criterion as a pure function
    so it can be property-tested: the loop stops when the latest estimate
    fails to improve on the best previous one by at least
    ``min_improvement_angstrom`` (lower Å is better); the first iteration
    never stops.  Monotone in ``min_improvement_angstrom``: raising the
    bar can only stop the loop sooner, never later.
    """
    if len(resolutions) < 2:
        return False
    best_prev = min(resolutions[:-1])
    return resolutions[-1] > best_prev - min_improvement_angstrom


def iterations_until_stop(
    resolutions: list[float],
    min_improvement_angstrom: float,
    max_iterations: int,
) -> int:
    """How many iterations a given resolution trajectory would run."""
    n = 0
    for i in range(min(len(resolutions), max_iterations)):
        n += 1
        if should_stop(resolutions[: i + 1], min_improvement_angstrom):
            break
    return n


def determine_structure(
    views: SimulatedViews | np.ndarray,
    initial_map: DensityMap,
    config: EngineConfig | None = None,
    *,
    initial_orientations: list[Orientation] | None = None,
    ctf_params=None,
    apix: float | None = None,
    fault_plan=None,
) -> StructureDeterminationResult:
    """Run the full structure-determination loop under one config.

    ``views`` may be a :class:`SimulatedViews` (initial orientations and
    CTF taken from it unless overridden) or a raw ``(m, l, l)`` stack
    with explicit ``initial_orientations``.  ``initial_map`` seeds
    iteration 0; every later iteration refines against its predecessor's
    reconstruction.

    One backend is built for the whole loop (a process pool and its
    shared-memory replicas are reused across iterations), and each
    iteration's final-stage results stream straight into the map
    accumulator as chunks complete when ``config.iteration.streaming`` is
    on — bit-identical to the barriered mode at any worker count.

    With ``config.checkpoint.path`` set (a directory), the loop records
    its progress after every iteration and, with
    ``config.checkpoint.resume`` on, replays completed iterations from
    disk: orientations are re-read at full precision, each map is
    deterministically rebuilt and *verified* against the recorded digest,
    and the in-flight iteration resumes from its own level-granular inner
    checkpoint.  ``fault_plan`` reaches the backend's scheduler for chaos
    testing.
    """
    cfg = config if config is not None else EngineConfig()
    it_cfg = cfg.iteration
    if isinstance(views, SimulatedViews):
        images = views.images
        init = (
            initial_orientations
            if initial_orientations is not None
            else views.initial_orientations
        )
        ctf = ctf_params if ctf_params is not None else views.ctf_params
        pix = apix if apix is not None else views.apix
    else:
        images = np.asarray(views, dtype=float)
        if initial_orientations is None:
            raise ValueError("raw image stacks need explicit initial_orientations")
        init = initial_orientations
        ctf = ctf_params
        pix = apix if apix is not None else initial_map.apix
    m = images.shape[0]
    if len(init) != m:
        raise ValueError("need one initial orientation per view")
    sched = cfg.schedule.to_schedule()
    pad_factor = cfg.pad_factor

    # Imported lazily like the refiner does: repro.engine.backends pulls
    # in repro.parallel, which imports repro.refine at package import time.
    from repro.engine.backends import make_backend
    from repro.faults.checkpoint import (
        LoopCheckpoint,
        LoopIterationEntry,
        density_digest,
        iteration_checkpoint_path,
        iteration_orientations_path,
        save_loop_checkpoint,
        try_load_loop_checkpoint,
    )
    from repro.refine.orientfile import read_orientation_file, write_orientation_file

    ckpt_dir = cfg.checkpoint.path
    base_fingerprint = cfg.fingerprint()
    initial_digest = ""
    entries: list[LoopIterationEntry] = []
    if ckpt_dir is not None:
        os.makedirs(ckpt_dir, exist_ok=True)
        initial_digest = density_digest(initial_map.data)

    orientations = list(init)
    current_map = initial_map
    history: list[IterationRecord] = []
    resolutions: list[float] = []
    perf = None
    start_iteration = 0
    stop_reason = "max_iterations"

    # -- resume: replay completed iterations from the loop checkpoint ----
    if ckpt_dir is not None and cfg.checkpoint.resume:
        found = try_load_loop_checkpoint(ckpt_dir, base_fingerprint, m, initial_digest)
        for entry in () if found is None else found.iterations:
            opath = iteration_orientations_path(ckpt_dir, entry.iteration)
            try:
                saved_orients, _saved_scores = read_orientation_file(opath)
            except (OSError, ValueError):
                break  # truncated record: recompute from here
            if len(saved_orients) != m:
                break
            acc = HalfSetAccumulator(
                images, apix=pix, pad_factor=pad_factor, ctf_params=ctf
            ).push_all(list(saved_orients))
            rebuilt = acc.full_map()
            if density_digest(rebuilt.data) != entry.map_digest:
                break  # stored orientations do not reproduce this map
            history.append(
                IterationRecord(
                    iteration=entry.iteration,
                    orientations=list(saved_orients),
                    density=rebuilt,
                    resolution_angstrom=entry.resolution_angstrom,
                    mean_distance=entry.mean_distance,
                    curve=acc.curve(label=f"iteration {entry.iteration}"),
                    r_max=entry.r_max,
                    resumed=True,
                )
            )
            resolutions.append(entry.resolution_angstrom)
            entries.append(entry)
            orientations = list(saved_orients)
            current_map = rebuilt
            start_iteration = entry.iteration + 1
        if resolutions and should_stop(resolutions, it_cfg.min_improvement_angstrom):
            # the interrupted run had already converged: nothing to re-run
            return StructureDeterminationResult(
                history=history,
                stop_reason="converged",
                perf=None,
                resumed_iterations=start_iteration,
            )

    backend = make_backend(cfg, fault_plan=fault_plan)
    try:
        for it in range(start_iteration, it_cfg.max_iterations):
            r_max_it = it_cfg.r_max_for(it, cfg.r_max)
            iter_cfg = cfg if r_max_it == cfg.r_max else replace(cfg, r_max=r_max_it)
            refiner = OrientationRefiner(current_map, config=iter_cfg)
            acc = HalfSetAccumulator(
                images, apix=pix, pad_factor=pad_factor, ctf_params=ctf
            )
            stream = None
            if it_cfg.streaming:
                def stream(r, _acc=acc):
                    _acc.push(r.index, r.orientation)
            inner_ckpt = (
                None if ckpt_dir is None else iteration_checkpoint_path(ckpt_dir, it)
            )
            result = refiner.refine(
                images,
                initial_orientations=orientations,
                schedule=sched,
                ctf_params=ctf,
                apix=pix,
                refine_centers=cfg.refine_centers,
                backend=backend,
                checkpoint_path=inner_ckpt,
                resume=cfg.checkpoint.resume,
                on_final_result=stream,
            )
            orientations = list(result.orientations)
            if result.perf is not None:
                if perf is None:
                    perf = result.perf
                else:
                    perf.merge(result.perf)
            # barriered mode (or an inner resume that skipped the final
            # stage) deposits everything here; a fully streamed iteration
            # has already completed and this is a no-op
            acc.push_remaining(orientations)
            current_map = acc.full_map()
            curve = acc.curve(label=f"iteration {it}")
            res = curve.crossing(it_cfg.fsc_threshold)
            mean_distance = float(np.asarray(result.distances, dtype=float).mean())
            history.append(
                IterationRecord(
                    iteration=it,
                    orientations=orientations,
                    density=current_map,
                    resolution_angstrom=res,
                    mean_distance=mean_distance,
                    curve=curve,
                    r_max=r_max_it,
                )
            )
            resolutions.append(res)
            if ckpt_dir is not None:
                write_orientation_file(
                    iteration_orientations_path(ckpt_dir, it),
                    orientations,
                    scores=np.asarray(result.distances, dtype=float),
                    full_precision=True,
                    atomic=True,
                )
                entries.append(
                    LoopIterationEntry(
                        iteration=it,
                        r_max=r_max_it,
                        resolution_angstrom=res,
                        mean_distance=mean_distance,
                        map_digest=density_digest(current_map.data),
                    )
                )
                save_loop_checkpoint(
                    ckpt_dir,
                    LoopCheckpoint(
                        engine_fingerprint=base_fingerprint,
                        n_views=m,
                        initial_map_digest=initial_digest,
                        iterations=tuple(entries),
                    ),
                )
                if inner_ckpt is not None:
                    # a finished iteration's inner checkpoint must never
                    # seed the next iteration's refinement
                    try:
                        os.unlink(inner_ckpt)
                    except FileNotFoundError:
                        pass
            if should_stop(resolutions, it_cfg.min_improvement_angstrom):
                stop_reason = "converged"
                break
    finally:
        backend.close()
    return StructureDeterminationResult(
        history=history,
        stop_reason=stop_reason,
        perf=perf,
        resumed_iterations=start_iteration,
    )

