"""Shared state for the chaos harness (DESIGN.md §8).

Every chaos test follows the same template: run a small refinement with a
deterministic :class:`~repro.faults.plan.FaultPlan` injected and assert the
result is *bit-identical* to the fault-free baseline computed once per
session.  Fault-plan seeds are derived from the test's node id (see
``chaos_seed``), so no two tests share a fault pattern and a failure
replays from the test name alone — ``test_seed_audit.py`` enforces that
convention by AST inspection.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.density import asymmetric_phantom
from repro.engine import EngineConfig
from repro.imaging.simulate import SimulatedViews, simulate_views
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import OrientationRefiner, RefinementResult


def derive_seed(node_id: str) -> int:
    """A stable 32-bit seed from a pytest node id (crc32 of the text)."""
    return zlib.crc32(node_id.encode())


@pytest.fixture()
def chaos_seed(request: pytest.FixtureRequest) -> int:
    """The per-test fault-plan seed: derived, never a literal."""
    return derive_seed(request.node.nodeid)


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently in /dev/shm."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux: rely on resource_tracker instead
        return set()


@pytest.fixture()
def no_shm_leak():
    """Assert the test leaves no new /dev/shm segment behind."""
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(scope="session")
def chaos_problem() -> tuple[SimulatedViews, OrientationRefiner, MultiResolutionSchedule]:
    """One small refinement problem reused by every chaos test.

    Six views over two levels gives every scheduler configuration several
    chunks per level — enough sites for crash/poison/delay plans to bite —
    while staying fast enough to re-run dozens of fault patterns.
    """
    density = asymmetric_phantom(16, seed=7).normalized()
    views = simulate_views(density, 6, snr=10.0, initial_angle_error_deg=2.0, seed=7)
    schedule = MultiResolutionSchedule(
        (
            RefinementLevel(1.0, 1.0, half_steps=2),
            RefinementLevel(0.5, 0.5, half_steps=2),
        )
    )
    refiner = OrientationRefiner(density, config=EngineConfig(max_slides=2))
    return views, refiner, schedule


@pytest.fixture(scope="session")
def baseline(chaos_problem) -> RefinementResult:
    """The fault-free serial result every chaos run must reproduce exactly."""
    views, refiner, schedule = chaos_problem
    return refiner.refine(views, schedule=schedule)


def assert_identical(result: RefinementResult, expected: RefinementResult) -> None:
    """Bit-identity of a chaos run against the fault-free baseline."""
    assert len(result.orientations) == len(expected.orientations)
    for got, want in zip(result.orientations, expected.orientations):
        assert got.as_tuple() == want.as_tuple()
    assert np.array_equal(result.distances, expected.distances)
