"""Tests for the full simulated-cluster refinement driver."""

import numpy as np
import pytest

from repro.engine import EngineConfig, ParallelConfig, ScheduleConfig
from repro.imaging import simulate_views
from repro.parallel import parallel_refine
from repro.parallel.machine import MachineSpec
from repro.refine import OrientationRefiner
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import STEP_REFINEMENT
from repro.refine.stats import angular_errors

FAST = MachineSpec("fast", flops=1e12, net_latency=1e-6, net_bandwidth=1e10, io_bandwidth=1e10)


def sim_config(schedule, n_ranks, r_max=None):
    return EngineConfig(
        schedule=ScheduleConfig.from_schedule(schedule),
        parallel=ParallelConfig(backend="sim", n_ranks=n_ranks),
        r_max=r_max,
    )


@pytest.fixture(scope="module")
def sched():
    return MultiResolutionSchedule(
        (RefinementLevel(1.0, 1.0, half_steps=2), RefinementLevel(0.5, 0.5, half_steps=2))
    )


@pytest.fixture(scope="module")
def dataset(phantom24):
    return simulate_views(
        phantom24, 8, initial_angle_error_deg=3.0, center_sigma_px=0.5,
        projection_method="fourier", seed=0,
    )


def test_parallel_refinement_improves(phantom24, dataset, sched):
    report = parallel_refine(dataset, phantom24, sim_config(sched, 4, 10.0))
    errs = angular_errors(report.orientations, dataset.true_orientations)
    errs0 = angular_errors(dataset.initial_orientations, dataset.true_orientations)
    assert errs.mean() < errs0.mean()
    assert len(report.orientations) == 8
    assert np.all(np.isfinite(report.distances))


def test_parallel_matches_serial(phantom24, dataset, sched):
    report = parallel_refine(dataset, phantom24, sim_config(sched, 3, 10.0), machine=FAST)
    serial = OrientationRefiner(phantom24, config=EngineConfig(r_max=10.0)).refine(
        dataset, schedule=sched
    )
    for p, s in zip(report.orientations, serial.orientations):
        assert p.as_tuple() == pytest.approx(s.as_tuple(), abs=1e-9)


def test_rank_count_invariance(phantom24, dataset, sched):
    a = parallel_refine(dataset, phantom24, sim_config(sched, 2, 10.0), machine=FAST)
    b = parallel_refine(dataset, phantom24, sim_config(sched, 4, 10.0), machine=FAST)
    for oa, ob in zip(a.orientations, b.orientations):
        assert oa.as_tuple() == pytest.approx(ob.as_tuple(), abs=1e-9)


def test_step_times_and_fraction(phantom24, dataset, sched):
    report = parallel_refine(dataset, phantom24, sim_config(sched, 2, 10.0))
    assert STEP_REFINEMENT in report.simulated_step_seconds
    assert "3D DFT" in report.simulated_step_seconds
    assert report.simulated_total_seconds > 0
    assert 0 < report.refinement_fraction() <= 1.0
    assert report.measured_wall_seconds > 0
    assert len(report.per_rank_matches) == 2
    assert len(report.per_level_matches) == len(sched)


def test_orientation_file_written(tmp_path, phantom24, dataset, sched):
    path = str(tmp_path / "refined.txt")
    parallel_refine(
        dataset, phantom24, sim_config(sched, 2, 10.0), machine=FAST,
        orientation_file=path,
    )
    from repro.refine import read_orientation_file

    orients, scores = read_orientation_file(path)
    assert len(orients) == 8


def test_more_ranks_than_views_rejected(phantom24, dataset, sched):
    with pytest.raises(ValueError):
        parallel_refine(dataset, phantom24, sim_config(sched, 100))
