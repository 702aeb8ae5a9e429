"""Chaos tests for the outer determine-structure loop (DESIGN.md §14).

The killed run is modeled with an ``abort-level`` fault routed through the
loop's single shared backend: the scheduler's level sequence accumulates
across outer iterations, so with a two-level schedule iteration 0 consumes
``level:0``/``level:1`` and iteration 1 consumes ``level:2``/``level:3``.
Aborting at ``level:3`` therefore kills the run *mid*-iteration 1 — after
the loop checkpoint recorded iteration 0 and after iteration 1's first
level hit its inner checkpoint — and aborting at ``level:2`` kills it at
the iteration boundary.  Resume must reproduce the uninterrupted run's
:class:`~repro.reconstruct.iterate.IterationRecord` history exactly:
orientations, FSC crossings, maps, and the stop decision.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine.config import (
    EngineConfig,
    IterationConfig,
    ParallelConfig,
    ScheduleConfig,
)
from repro.engine.backends import ProcessBackend
from repro.faults.checkpoint import (
    iteration_checkpoint_path,
    load_checkpoint,
    load_loop_checkpoint,
)
from repro.faults.plan import FaultInjected, FaultPlan, FaultSpec
from repro.parallel.viewsched import ViewScheduler
from repro.reconstruct import determine_structure
from repro.refine.refiner import OrientationRefiner

from tests.chaos.conftest import assert_identical

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def loop_setup(chaos_problem):
    """The chaos problem under a two-iteration process-backend loop config."""
    views, refiner, schedule = chaos_problem
    config = EngineConfig(
        schedule=ScheduleConfig.from_schedule(schedule),
        parallel=ParallelConfig(backend="process", n_workers=1),
        iteration=IterationConfig(max_iterations=2),
        max_slides=2,
    )
    return views, refiner.density, config


@pytest.fixture(scope="module")
def loop_baseline(loop_setup):
    """The fault-free loop outcome every killed-and-resumed run must match."""
    views, density, config = loop_setup
    result = determine_structure(views, density, config)
    assert len(result.history) == 2
    return result


def assert_same_history(result, expected):
    """Bit-identity of two loop outcomes, record by record."""
    assert result.stop_reason == expected.stop_reason
    assert len(result.history) == len(expected.history)
    for got, want in zip(result.history, expected.history):
        assert got.iteration == want.iteration
        assert got.r_max == want.r_max
        for a, b in zip(got.orientations, want.orientations):
            assert a.as_tuple() == b.as_tuple()
        assert got.resolution_angstrom == want.resolution_angstrom
        assert got.mean_distance == want.mean_distance
        assert np.array_equal(got.density.data, want.density.data)


def killed_loop(loop_setup, ckpt_dir, level_seq):
    """Run the checkpointed loop until an abort at ``level:<level_seq>``."""
    views, density, config = loop_setup
    killed_cfg = EngineConfig.from_dict(
        {**config.to_dict(), "checkpoint": {"path": ckpt_dir}}
    )
    plan = FaultPlan((FaultSpec("abort-level", f"level:{level_seq}"),))
    with pytest.raises(FaultInjected):
        determine_structure(views, density, killed_cfg, fault_plan=plan)


def resumed_loop(loop_setup, ckpt_dir):
    views, density, config = loop_setup
    resume_cfg = EngineConfig.from_dict(
        {**config.to_dict(), "checkpoint": {"path": ckpt_dir, "resume": True}}
    )
    return determine_structure(views, density, resume_cfg)


def test_resume_after_mid_iteration_abort_is_bit_identical(
    loop_setup, loop_baseline, tmp_path
):
    """Killed between iteration 1's levels: the loop checkpoint replays
    iteration 0, the inner checkpoint resumes iteration 1 mid-schedule."""
    ckpt_dir = str(tmp_path / "loop")
    killed_loop(loop_setup, ckpt_dir, level_seq=3)

    assert [e.iteration for e in load_loop_checkpoint(ckpt_dir).iterations] == [0]
    assert load_checkpoint(iteration_checkpoint_path(ckpt_dir, 1)).levels_done == 1

    resumed = resumed_loop(loop_setup, ckpt_dir)
    assert resumed.resumed_iterations == 1
    assert resumed.history[0].resumed and not resumed.history[1].resumed
    assert_same_history(resumed, loop_baseline)


def test_resume_at_iteration_boundary_is_bit_identical(
    loop_setup, loop_baseline, tmp_path
):
    """Killed before iteration 1 touched anything: no inner checkpoint
    exists (iteration 0's was unlinked on completion), so iteration 1
    reruns from the replayed state alone."""
    ckpt_dir = str(tmp_path / "loop")
    killed_loop(loop_setup, ckpt_dir, level_seq=2)

    assert [e.iteration for e in load_loop_checkpoint(ckpt_dir).iterations] == [0]
    assert not os.path.exists(iteration_checkpoint_path(ckpt_dir, 0))
    assert not os.path.exists(iteration_checkpoint_path(ckpt_dir, 1))

    resumed = resumed_loop(loop_setup, ckpt_dir)
    assert resumed.resumed_iterations == 1
    assert_same_history(resumed, loop_baseline)


def test_multi_basin_state_rides_the_checkpoint(chaos_problem, tmp_path):
    """Kill a multi-basin run (prune.top_k / polish.n_best > 1) at a level
    barrier and resume it: the basin centers serialized into the
    checkpoint header must re-seed the next level exactly as the dead run
    would have, so the resumed result is bit-identical.  This is the
    configuration the checkpoint machinery used to refuse outright."""
    views, refiner, schedule = chaos_problem
    config = EngineConfig.from_dict(
        {
            **refiner.config.to_dict(),
            "prune": {"enabled": True, "top_k": 2},
            "polish": {"enabled": True, "n_best": 2},
        }
    )
    baseline = OrientationRefiner(refiner.density, config=config).refine(
        views, schedule=schedule
    )

    ckpt = str(tmp_path / "run.ckpt")
    plan = FaultPlan((FaultSpec("abort-level", "level:1"),))
    scheduler = ViewScheduler(n_workers=1, fault_plan=plan)
    try:
        with pytest.raises(FaultInjected):
            OrientationRefiner(refiner.density, config=config).refine(
                views,
                schedule=schedule,
                backend=ProcessBackend(scheduler=scheduler),
                checkpoint_path=ckpt,
            )
    finally:
        scheduler.close()
    saved = load_checkpoint(ckpt)
    assert saved.levels_done == 1
    assert saved.basins is not None
    assert any(b is not None and len(b) > 1 for b in saved.basins)

    resumed = OrientationRefiner(refiner.density, config=config).refine(
        views, schedule=schedule, checkpoint_path=ckpt, resume=True
    )
    assert_identical(resumed, baseline)
    assert resumed.stats == baseline.stats
