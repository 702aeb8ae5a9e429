"""Step A -> Step B -> Step C: from a raw micrograph to a refined map.

Synthesizes a whole noisy micrograph (many particles at random positions
and orientations), picks and boxes the particles by matched filtering,
assigns coarse initial orientations, refines them, and reconstructs.

Run:  python examples/micrograph_pipeline.py
"""

import numpy as np

from repro import (
    Orientation,
    OrientationRefiner,
    reconstruct_from_views,
    sindbis_like_phantom,
)
from repro.imaging import extract_particles, pick_particles, synthesize_micrograph
from repro.engine import EngineConfig
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.stats import angular_errors
from repro.utils import default_rng


def main() -> None:
    truth = sindbis_like_phantom(32).normalized()
    rng = default_rng(5)

    print("1. synthesizing a 320x320 micrograph with 8 particles (SNR 3)")
    mg = synthesize_micrograph(truth, shape=(320, 320), n_particles=8, snr=3.0, seed=2)

    print("2. picking particles by matched filtering")
    picks = pick_particles(mg.image, box_size=32, n_expected=8)
    hits = sum(
        1
        for r, c in mg.true_positions
        if min(np.hypot(r - pr, c - pc) for pr, pc in picks) <= 4.0
    )
    print(f"   picked {len(picks)} boxes; {hits}/8 within 4 px of a true center")

    print("3. boxing particles and matching picks to ground truth for scoring")
    stack = extract_particles(mg.image, picks, box_size=32)
    order = [
        int(np.argmin([np.hypot(r - tr, c - tc) for tr, tc in mg.true_positions]))
        for r, c in picks
    ]
    truth_orients = [mg.true_orientations[i] for i in order]

    print("4. refining from coarse (3 deg) initial orientations")
    init = [
        Orientation(
            o.theta + rng.normal(0, 3.0), o.phi + rng.normal(0, 3.0), o.omega + rng.normal(0, 3.0)
        )
        for o in truth_orients
    ]
    schedule = MultiResolutionSchedule(
        (RefinementLevel(1.0, 1.0, half_steps=3), RefinementLevel(0.5, 0.5, half_steps=2))
    )
    refiner = OrientationRefiner(truth, config=EngineConfig(r_max=11.0, max_slides=2))
    result = refiner.refine(stack, initial_orientations=init, schedule=schedule)
    e0 = angular_errors(init, truth_orients).mean()
    e1 = angular_errors(result.orientations, truth_orients).mean()
    print(f"   angular error: {e0:.2f} deg -> {e1:.2f} deg")

    print("5. reconstructing from the refined picks")
    rec = reconstruct_from_views(stack, result.orientations)
    print(f"   map cc vs ground truth: {rec.normalized().correlation(truth):.4f}")
    print("   (8 views is far too few for a good map - the point is the dataflow)")


if __name__ == "__main__":
    main()
