"""The benchmark's workloads: seeded inputs, engine configs, solve, checks.

Each :class:`Workload` is one set of inputs the benchmark runs.  The
parent process builds a workload's inputs once per seed
(:func:`make_inputs`) and saves them to an ``.npz`` file; every
repetition then runs in a fresh child process that loads the file and
calls :func:`solve` — the program under test sees only the generated
inputs, never the ground truth, which stays in the parent for scoring.

Nothing here imports :mod:`repro` at module level: the child times that
import as part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Any

#: The mini three-level schedule (1° → 0.5° → 0.25°) of the scenario
#: matrix; the two-level loop schedule is its first two levels.
MINI_LEVELS = [[1.0, 1.0, 3, 1], [0.5, 0.5, 2, 1], [0.25, 0.25, 2, 1]]

#: Per-view work is heavy-tailed in window slides, whatever the start
#: error or box size: at the default cap of 8, per-seed candidate counts
#: spread 9-22% (interquartile range over median).  A cap of 2 brings every
#: workload to ~5-7%, so a seed change moves wall time little.
SLIDE_CAP = {"max_slides": 2}

#: The specimen is pinned: the benchmark seed varies the dataset drawn from
#: it (view directions, boxing errors, starting orientations), not the
#: particle.  Views are noiseless with 0.5 px boxing errors, and starts are
#: off by N(0, 2°) per Euler angle, as in the scenario matrix.
PHANTOM_SEED = 0
CENTER_SIGMA_PX = 0.5
START_ERROR_DEG = 2.0


def accuracy_bounds(median_deg: float, p90_deg: float, fsc_A: float) -> dict[str, float]:
    """A workload's accuracy bounds, keyed by metric name."""
    return {
        "median_angular_error_deg": median_deg,
        "p90_angular_error_deg": p90_deg,
        "fsc_crossing_A": fsc_A,
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``engine`` is the :meth:`EngineConfig.from_dict` payload the child
    validates during set-up.  ``bounds`` are the accuracy bounds a run must
    meet, by metric name:
    the worst value measured over seeds 1–20 plus headroom, the way the
    scenario matrix pins its thresholds.
    """

    name: str
    why: str
    kind: str
    size: int
    n_views: int
    engine: dict[str, Any]
    defocus_groups: tuple[float, ...] = ()
    #: the particle's point group: errors are scored modulo it, and a
    #: symmetric particle must be detected as it ("C1" = asymmetric)
    symmetry: str = "C1"
    #: > 0: run the refine→reconstruct loop for exactly this many passes
    loop_iterations: int = 0
    #: run a serial baseline of the same inputs in traced rounds
    serial_baseline: bool = False
    bounds: dict[str, float] = field(default_factory=dict)
    #: (size, n_views) for the ``--smoke`` variant
    smoke: tuple[int, int] = (16, 4)

    @property
    def workers(self) -> int:
        return int(self.engine.get("parallel", {}).get("n_workers", 1))

    @property
    def passes(self) -> int:
        """Refinement passes over every view in one solve."""
        return max(1, self.loop_iterations)

    def shrunk(self) -> "Workload":
        """The tiny ``--smoke`` variant: same code paths, no accuracy bounds."""
        size, n_views = self.smoke
        engine = dict(self.engine)
        if engine.get("r_max") is not None:
            engine["r_max"] = min(float(engine["r_max"]), size / 2.0)
        return replace(self, size=size, n_views=n_views, engine=engine, bounds={})


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="refine_l24_ctf",
        why=(
            "serial default 1 to 0.002 deg schedule with prune + polish on CTF-modulated "
            "views: the pruned kernel and polish dominate, the memo barely hits"
        ),
        kind="asymmetric",
        size=24,
        # Noise raises the per-seed spread of this workload's work (~14% at
        # SNR 5 with 24 views); clean views with 48 of them keep it near 5%.
        n_views=48,
        defocus_groups=(9000.0, 15000.0),
        engine={"prune": {"enabled": True}, "polish": {"enabled": True}, **SLIDE_CAP},
        # worst over seeds 1-20: 1.80 deg / 3.90 deg / 3.79 A
        bounds=accuracy_bounds(2.5, 5.5, 5.0),
        smoke=(16, 2),
    ),
    Workload(
        name="determine_l32_w2",
        why=(
            "refine-reconstruct loop on 2 workers with streaming half-set insertion, FSC "
            "and checkpoints: the write side next to the kernel's reads"
        ),
        kind="asymmetric",
        size=32,
        n_views=48,
        loop_iterations=2,
        engine={
            "parallel": {"backend": "process", "n_workers": 2},
            "schedule": {"levels": MINI_LEVELS[:2]},
            "r_max": 10.0,
            "iteration": {"max_iterations": 2, "streaming": True},
            **SLIDE_CAP,
        },
        # worst over seeds 1-20: 2.85 deg / 5.03 deg / 4.81 A
        bounds=accuracy_bounds(4.0, 7.0, 6.0),
        smoke=(16, 8),
    ),
    Workload(
        name="detect_icosa_l16",
        why=(
            "icosahedral particle with symmetry detection on; detection is most of the "
            "wall, so it isolates symmetry-detection changes"
        ),
        kind="sindbis",
        size=16,
        n_views=6,
        symmetry="I",
        engine={
            "symmetry": {"mode": "detect"},
            "schedule": {"levels": MINI_LEVELS},
            "r_max": 8.0,
            "max_slides": 4,
        },
        # Worst over seeds 1-20: 7.5 deg / 15.1 deg / 3.93 A.  The 16-voxel box
        # limits accuracy under the asymmetric-unit restriction; the bounds
        # pin it, the workload times detection.
        bounds=accuracy_bounds(10.0, 20.0, 5.5),
        smoke=(16, 2),
    ),
    Workload(
        name="fanout_l24_w2",
        why=(
            "many small views on 2 workers, exhaustive search with a half-hit memo: "
            "chunking, pickling and memo shipping weigh most"
        ),
        kind="asymmetric",
        size=24,
        n_views=128,
        serial_baseline=True,
        engine={
            "parallel": {"backend": "process", "n_workers": 2},
            "schedule": {"levels": MINI_LEVELS},
            "r_max": 10.0,
            **SLIDE_CAP,
        },
        # worst over seeds 1-20: 1.50 deg / 3.47 deg / 3.03 A
        bounds=accuracy_bounds(2.0, 4.5, 4.0),
        smoke=(16, 12),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# -- inputs (parent side) ------------------------------------------------------

@dataclass
class Inputs:
    """One workload's generated inputs; ``truth`` never reaches the child."""

    images: Any
    density: Any
    apix: float
    ctf: Any  # (m, 5) array of CTFParams fields, or None
    starts: Any  # (m, 5) array of (theta, phi, omega, cx, cy)
    truth: Any

    def save(self, path: str) -> None:
        import numpy as np

        arrays = {
            "images": self.images,
            "density": self.density,
            "apix": np.float64(self.apix),
            "starts": self.starts,
        }
        if self.ctf is not None:
            arrays["ctf"] = self.ctf
        np.savez(path, **arrays)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Simulate a workload's views from ``seed`` (same seed, same inputs)."""
    import numpy as np

    from repro.ctf.model import defocus_group_params
    from repro.imaging.simulate import simulate_views
    from repro.pipeline.datasets import phantom_for
    from repro.pipeline.scenarios import PerturbationSpec, perturb_orientations

    density = phantom_for(workload.kind, workload.size, seed=PHANTOM_SEED)
    ctf = (
        defocus_group_params(workload.defocus_groups, workload.n_views)
        if workload.defocus_groups
        else None
    )
    views = simulate_views(
        density, workload.n_views, ctf=ctf, center_sigma_px=CENTER_SIGMA_PX, seed=seed
    )
    # An independent stream for the starts, as in the scenario matrix.
    starts = perturb_orientations(
        views.true_orientations,
        PerturbationSpec(mode="gaussian", angle_deg=START_ERROR_DEG, seed=seed + 100_003),
    )
    ctf_rows = None
    if ctf is not None:
        ctf_rows = np.array([
            [p.defocus_angstrom, p.voltage_kv, p.cs_mm, p.amplitude_contrast, p.bfactor]
            for p in ctf
        ])
    return Inputs(
        images=views.images,
        density=density.data,
        apix=float(density.apix),
        ctf=ctf_rows,
        starts=np.array([o.as_tuple() for o in starts]),
        truth=np.array([o.as_tuple() for o in views.true_orientations]),
    )


# -- solve (child side) --------------------------------------------------------

def load_inputs(path: str) -> dict[str, Any]:
    """The child's view of an inputs file, as repro objects."""
    import numpy as np

    from repro.ctf.model import CTFParams
    from repro.density.map import DensityMap
    from repro.geometry.euler import Orientation

    with np.load(path) as data:
        apix = float(data["apix"])
        ctf = None
        if "ctf" in data.files:
            ctf = [CTFParams(*map(float, row)) for row in data["ctf"]]
        return {
            "images": np.array(data["images"]),
            "density": DensityMap(np.array(data["density"]), apix),
            "apix": apix,
            "ctf": ctf,
            "starts": [Orientation(*map(float, row)) for row in data["starts"]],
        }


def engine_payload(workload: Workload, *, serial: bool, workdir: str) -> dict[str, Any]:
    """The config dict one repetition validates; the loop checkpoints in ``workdir``."""
    engine = dict(workload.engine)
    if serial:
        engine["parallel"] = {"backend": "serial", "n_workers": 1}
    if workload.loop_iterations:
        engine["checkpoint"] = {"path": os.path.join(workdir, "loop-ckpt")}
    return engine


def build_solver(workload: Workload, payload: dict[str, Any]) -> Any:
    """Set-up: validate the config and construct the solver object."""
    from repro.engine.config import EngineConfig
    from repro.engine.core import RefinementEngine

    config = EngineConfig.from_dict(payload)
    return config if workload.loop_iterations else RefinementEngine(config)


def solve(workload: Workload, solver: Any, inputs: dict[str, Any], workdir: str) -> dict[str, Any]:
    """The timed call.  Returns orientations, scores (per-view distances, or
    their mean for the loop, which keeps only that) and perf counters."""
    if workload.loop_iterations:
        # Looked up through the modules at call time, so a traced run sees
        # the wrapped entry points.
        from repro.reconstruct import direct_fourier, iterate

        config = solver
        initial_map = direct_fourier.reconstruct_from_views(
            inputs["images"],
            inputs["starts"],
            apix=inputs["apix"],
            pad_factor=config.pad_factor,
            ctf_params=inputs["ctf"],
        )
        result = iterate.determine_structure(
            inputs["images"],
            initial_map,
            config,
            initial_orientations=inputs["starts"],
            ctf_params=inputs["ctf"],
            apix=inputs["apix"],
        )
        last = result.history[-1]
        return {
            "orientations": last.orientations,
            "scores": [float(last.mean_distance)],
            "perf": result.perf,
            "symmetry_group": None,
            "symmetry_order": 1,
            "iterations_run": len(result.history),
            "resolutions": [float(r) for r in result.resolutions],
        }
    run = solver.run(
        inputs["images"],
        inputs["density"],
        initial_orientations=inputs["starts"],
        ctf_params=inputs["ctf"],
        apix=inputs["apix"],
        orientation_file=os.path.join(workdir, "refined.orient"),
    )
    return {
        "orientations": run.orientations,
        "scores": [float(d) for d in run.distances],
        "perf": run.perf,
        "symmetry_group": run.symmetry_group,
        "symmetry_order": int(run.symmetry_order),
        "iterations_run": 0,
        "resolutions": [],
    }


def orientation_digest(rows: list[tuple[float, ...]]) -> str:
    """SHA-256 over every orientation as 17-significant-digit tuples."""
    h = hashlib.sha256()
    for row in rows:
        h.update((" ".join(f"{v:.17g}" for v in row) + "\n").encode())
    return h.hexdigest()


# -- accuracy (parent side) ----------------------------------------------------

def accuracy(workload: Workload, inputs: Inputs, rows: list[list[float]]) -> dict[str, float]:
    """Median/p90 angular error (modulo the particle's group) of a result."""
    import numpy as np

    from repro.geometry.euler import Orientation
    from repro.pipeline.scenarios import symmetry_group_for
    from repro.refine.stats import angular_errors

    refined = [Orientation(*row) for row in rows]
    truth = [Orientation(*map(float, row)) for row in inputs.truth]
    errors = angular_errors(refined, truth, symmetry=symmetry_group_for(workload.symmetry))
    return {
        "median_angular_error_deg": float(np.median(errors)),
        "p90_angular_error_deg": float(np.percentile(errors, 90)),
    }


def group_order(name: str) -> int:
    """|G| of a point group named as in :attr:`Workload.symmetry`."""
    from repro.pipeline.scenarios import symmetry_group_for

    group = symmetry_group_for(name)
    return 1 if group is None else group.order


def refined_fsc_crossing(workload: Workload, inputs: Inputs, rows: list[list[float]]) -> float:
    """Half-map FSC 0.5 crossing (Å) of a map rebuilt at the refined orientations."""
    from repro.ctf.model import CTFParams
    from repro.geometry.euler import Orientation
    from repro.reconstruct.resolution import fsc_crossing

    ctf = None if inputs.ctf is None else [CTFParams(*map(float, r)) for r in inputs.ctf]
    return float(
        fsc_crossing(
            inputs.images,
            [Orientation(*row) for row in rows],
            apix=inputs.apix,
            pad_factor=int(workload.engine.get("pad_factor", 2)),
            ctf_params=ctf,
        )
    )
