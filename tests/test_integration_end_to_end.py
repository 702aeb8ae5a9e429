"""End-to-end integration tests across all subsystems.

These exercise the complete pipeline the way the examples do: phantom ->
views (+CTF/noise/shifts) -> refinement -> reconstruction -> resolution
assessment, plus the micrograph path and the figure-experiment protocol.
"""

import numpy as np
import pytest

from repro import (
    CTFParams,
    OrientationRefiner,
    Orientation,
    correlation_curve,
    reconstruct_from_views,
    simulate_views,
)
from repro.engine import EngineConfig
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.stats import angular_errors
from repro.utils import default_rng


@pytest.fixture(scope="module")
def sched():
    return MultiResolutionSchedule(
        (RefinementLevel(1.0, 1.0, half_steps=3), RefinementLevel(0.5, 0.5, half_steps=2))
    )


def test_full_cycle_improves_map(phantom24, sched):
    """Refine perturbed orientations against the truth map, reconstruct,
    and verify the map beats the perturbed-orientation reconstruction."""
    views = simulate_views(
        phantom24, 24, snr=4.0, center_sigma_px=0.5, initial_angle_error_deg=3.0, seed=0
    )
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=9.0, max_slides=2))
    result = refiner.refine(views, schedule=sched)
    rec_initial = reconstruct_from_views(views.images, views.initial_orientations)
    rec_refined = reconstruct_from_views(views.images, result.orientations)
    cc_initial = rec_initial.normalized().correlation(phantom24)
    cc_refined = rec_refined.normalized().correlation(phantom24)
    assert cc_refined > cc_initial


def test_blind_protocol_improves_consistency(phantom24):
    """The honest protocol: refine against a map reconstructed from the
    *wrong* orientations (never the truth) and check the odd/even curve
    improves — the Figure 5/6 mechanism end to end."""
    from repro.pipeline.experiments import refine_from_old_orientations
    from repro.pipeline.config import ExperimentConfig, MiniWorkload

    views = simulate_views(phantom24, 40, snr=4.0, seed=1)
    rng = default_rng(7)
    old = [
        Orientation(
            o.theta + rng.normal(0, 3.0),
            o.phi + rng.normal(0, 3.0),
            o.omega + rng.normal(0, 3.0),
        )
        for o in views.true_orientations
    ]
    cfg = ExperimentConfig(
        workload=MiniWorkload("t", "asymmetric", size=24),
        r_max_sequence=(6.0, 8.0),
        n_iterations=2,
        max_slides=2,
    )
    from repro.refine.multires import MultiResolutionSchedule, RefinementLevel

    fast_sched = MultiResolutionSchedule((RefinementLevel(1.0, 1.0, half_steps=2),))
    new, _ = refine_from_old_orientations(views, old, cfg, schedule=fast_sched)
    e_old = angular_errors(old, views.true_orientations).mean()
    e_new = angular_errors(new, views.true_orientations).mean()
    assert e_new < e_old + 0.5  # never seeing the truth, must not diverge
    c_old = correlation_curve(views.images, old)
    c_new = correlation_curve(views.images, new)
    mid = slice(2, 8)
    assert c_new.cc[mid].mean() >= c_old.cc[mid].mean() - 0.02


def test_micrograph_to_orientations(phantom24, sched):
    """Step A -> Step B: pick particles from a synthetic micrograph, box
    them, and refine their orientations starting from coarse estimates."""
    from repro.imaging import extract_particles, pick_particles, synthesize_micrograph

    mg = synthesize_micrograph(phantom24, shape=(160, 160), n_particles=4, snr=4.0, seed=2)
    picks = pick_particles(mg.image, box_size=24, n_expected=4)
    stack = extract_particles(mg.image, picks, box_size=24)
    # map picks to ground truth order by nearest position
    order = []
    for r, c in picks:
        d = [np.hypot(r - tr, c - tc) for tr, tc in mg.true_positions]
        order.append(int(np.argmin(d)))
    rng = default_rng(3)
    init = [
        Orientation(
            mg.true_orientations[i].theta + rng.normal(0, 2.0),
            mg.true_orientations[i].phi + rng.normal(0, 2.0),
            mg.true_orientations[i].omega + rng.normal(0, 2.0),
        )
        for i in order
    ]
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=8.0, max_slides=2))
    result = refiner.refine(stack, initial_orientations=init, schedule=sched)
    truth = [mg.true_orientations[i] for i in order]
    errs = angular_errors(result.orientations, truth)
    errs0 = angular_errors(init, truth)
    assert errs.mean() < errs0.mean() + 1.0  # boxing errors limit but no divergence


def test_ctf_pipeline_end_to_end(sched):
    from repro.density import asymmetric_phantom
    from repro.density.map import DensityMap

    density = DensityMap(asymmetric_phantom(24, seed=5).normalized().data, apix=2.5)
    ctf = CTFParams(defocus_angstrom=9000.0)
    views = simulate_views(
        density, 16, snr=5.0, ctf=ctf, initial_angle_error_deg=3.0, seed=4
    )
    refiner = OrientationRefiner(density, config=EngineConfig(r_max=8.0, max_slides=2))
    result = refiner.refine(views, schedule=sched)
    errs = angular_errors(result.orientations, views.true_orientations)
    errs0 = angular_errors(views.initial_orientations, views.true_orientations)
    assert errs.mean() < errs0.mean()
    rec = reconstruct_from_views(
        views.images, result.orientations, apix=2.5, ctf_params=views.ctf_params
    )
    assert rec.normalized().correlation(density) > 0.5


def test_mrc_roundtrip_through_pipeline(tmp_path, phantom24):
    """Maps and view stacks survive the MRC layer bit-for-bit enough to
    reproduce identical refinement results."""
    from repro.density import DensityMap, read_mrc, write_mrc

    views = simulate_views(phantom24, 3, initial_angle_error_deg=2.0, seed=6)
    map_path = str(tmp_path / "map.mrc")
    stack_path = str(tmp_path / "stack.mrc")
    write_mrc(map_path, phantom24.data, apix=phantom24.apix)
    write_mrc(stack_path, views.images, apix=phantom24.apix)
    data, apix = read_mrc(map_path)
    stack, _ = read_mrc(stack_path)
    density2 = DensityMap(data, apix)
    sched = MultiResolutionSchedule((RefinementLevel(1.0, 1.0, half_steps=1),))
    config = EngineConfig(r_max=8.0)
    r1 = OrientationRefiner(phantom24, config=config).refine(views, schedule=sched)
    r2 = OrientationRefiner(density2, config=config).refine(
        stack, initial_orientations=views.initial_orientations, schedule=sched
    )
    for a, b in zip(r1.orientations, r2.orientations):
        assert a.as_tuple() == pytest.approx(b.as_tuple(), abs=1e-3)
