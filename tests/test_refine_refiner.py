"""Tests for the serial OrientationRefiner (the full per-iteration driver)."""

import numpy as np
import pytest

from repro.ctf import CTFParams
from repro.engine import EngineConfig
from repro.imaging import simulate_views
from repro.refine import OrientationRefiner
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import STEP_REFINEMENT
from repro.refine.stats import angular_errors, center_errors


@pytest.fixture(scope="module")
def quick_schedule():
    return MultiResolutionSchedule(
        (RefinementLevel(1.0, 1.0, half_steps=2), RefinementLevel(0.5, 0.5, half_steps=2))
    )


def test_refine_recovers_orientations_fourier_views(phantom24, quick_schedule):
    views = simulate_views(
        phantom24, 4, initial_angle_error_deg=4.0, center_sigma_px=0.5,
        projection_method="fourier", seed=0,
    )
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=10.0, max_slides=3))
    result = refiner.refine(views, schedule=quick_schedule)
    errs = angular_errors(result.orientations, views.true_orientations)
    errs0 = angular_errors(views.initial_orientations, views.true_orientations)
    assert errs.mean() < 0.6 * errs0.mean()
    assert errs.max() < 2.5  # resolvability floor at l=24, final step 0.5 deg
    cerrs = center_errors(result.orientations, views.true_orientations)
    assert cerrs.max() < 0.6


def test_refine_with_noise_still_improves(phantom24, quick_schedule):
    views = simulate_views(
        phantom24, 4, snr=3.0, initial_angle_error_deg=4.0,
        projection_method="fourier", seed=1,
    )
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=10.0, max_slides=3))
    result = refiner.refine(views, schedule=quick_schedule)
    errs = angular_errors(result.orientations, views.true_orientations)
    errs0 = angular_errors(views.initial_orientations, views.true_orientations)
    assert errs.mean() < errs0.mean()


def test_refine_with_ctf_correction(quick_schedule):
    # era-realistic sampling: at 2.5 A/px and 8000 A defocus the CTF has a
    # couple of zero crossings inside the r<=8 band
    from repro.density import asymmetric_phantom
    from repro.density.map import DensityMap

    density = DensityMap(asymmetric_phantom(24, seed=1).normalized().data, apix=2.5)
    ctf = CTFParams(defocus_angstrom=8000.0, bfactor=0.0)
    views = simulate_views(
        density, 3, ctf=ctf, initial_angle_error_deg=3.0,
        projection_method="fourier", seed=2,
    )
    refiner = OrientationRefiner(density, config=EngineConfig(r_max=8.0, max_slides=3))
    result = refiner.refine(views, schedule=quick_schedule)
    errs = angular_errors(result.orientations, views.true_orientations)
    errs0 = angular_errors(views.initial_orientations, views.true_orientations)
    assert errs.mean() < 0.5 * errs0.mean()


def test_timer_has_paper_steps(phantom24, quick_schedule):
    views = simulate_views(phantom24, 2, projection_method="fourier", seed=3)
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=8.0))
    result = refiner.refine(views, schedule=quick_schedule)
    for name in ("3D DFT", "Read image", "FFT analysis", STEP_REFINEMENT):
        assert name in result.timer.totals
    # §5: matching dominates the iteration
    assert result.timer.fraction(STEP_REFINEMENT) > 0.5


def test_stats_per_level(phantom24, quick_schedule):
    views = simulate_views(phantom24, 2, projection_method="fourier", seed=4)
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=8.0))
    result = refiner.refine(views, schedule=quick_schedule)
    assert len(result.stats.matches_per_level) == 2
    assert result.stats.total_matches >= 2 * 2 * 125


def test_level_snapshots(phantom24, quick_schedule):
    views = simulate_views(phantom24, 2, projection_method="fourier", seed=5)
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=8.0))
    result = refiner.refine(views, schedule=quick_schedule, keep_level_snapshots=True)
    assert len(result.per_level_orientations) == 2
    assert len(result.per_level_orientations[0]) == 2


def test_raw_stack_requires_orientations(phantom24):
    refiner = OrientationRefiner(phantom24)
    with pytest.raises(ValueError):
        refiner.refine(np.zeros((2, 24, 24)))


def test_size_mismatch_rejected(phantom24):
    views = simulate_views(phantom24, 2, seed=0)
    from repro.density import asymmetric_phantom

    refiner = OrientationRefiner(asymmetric_phantom(16))
    with pytest.raises(ValueError):
        refiner.refine(views)


def test_orientation_count_mismatch(phantom24):
    views = simulate_views(phantom24, 2, seed=0)
    refiner = OrientationRefiner(phantom24)
    with pytest.raises(ValueError):
        refiner.refine(views, initial_orientations=views.initial_orientations[:1])


def test_invalid_options(phantom24):
    with pytest.raises(ValueError):
        OrientationRefiner(phantom24, config=EngineConfig(ctf_correction="magic"))


def test_refine_centers_disabled(phantom24, quick_schedule):
    views = simulate_views(phantom24, 2, projection_method="fourier", seed=6)
    refiner = OrientationRefiner(phantom24, config=EngineConfig(r_max=8.0))
    result = refiner.refine(views, schedule=quick_schedule, refine_centers=False)
    assert all(o.cx == 0.0 and o.cy == 0.0 for o in result.orientations)
    assert result.stats.total_center_evals == 0
