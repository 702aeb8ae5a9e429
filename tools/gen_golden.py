"""Regenerate the golden refinement results committed under tests/golden/.

Run from the repo root after an *intentional* numerics change:

    PYTHONPATH=src python tools/gen_golden.py

The golden file pins the end-to-end refinement output (orientations and
distances) of a tiny deterministic problem on the 1° → 0.1° schedule.  Any
kernel, scheduler or recovery-path change that alters these bits is a
regression unless this file is regenerated on purpose in the same commit.
"""

from __future__ import annotations

import os

import numpy as np

from repro.density import asymmetric_phantom
from repro.engine import EngineConfig
from repro.imaging.simulate import simulate_views
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import OrientationRefiner

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "tests", "golden", "refine_tiny.npz")


def tiny_problem():
    """The pinned problem: must match tests/test_e2e_golden.py exactly."""
    density = asymmetric_phantom(16, seed=11).normalized()
    views = simulate_views(density, 4, snr=10.0, initial_angle_error_deg=2.0, seed=11)
    schedule = MultiResolutionSchedule(
        (
            RefinementLevel(1.0, 1.0, half_steps=2),
            RefinementLevel(0.1, 0.1, half_steps=2),
        )
    )
    return density, views, schedule


def main() -> None:
    density, views, schedule = tiny_problem()
    refiner = OrientationRefiner(density, config=EngineConfig(max_slides=2))
    result = refiner.refine(views, schedule=schedule)
    orientations = np.array([o.as_tuple() for o in result.orientations])
    path = os.path.abspath(GOLDEN_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez(
        path,
        orientations=orientations,
        distances=np.asarray(result.distances),
        schedule_fingerprint=np.array(schedule.fingerprint()),
    )
    print(f"wrote {path}")
    print(f"schedule fingerprint: {schedule.fingerprint()}")


if __name__ == "__main__":
    main()
