"""Quickstart: refine view orientations against a known map.

Builds a synthetic Sindbis-like capsid, simulates noisy views with
perturbed starting orientations and boxing errors, runs the paper's
multi-resolution sliding-window refinement, reconstructs a map from the
refined orientations, and reports accuracy.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    OrientationRefiner,
    reconstruct_from_views,
    simulate_views,
    sindbis_like_phantom,
)
from repro.engine import EngineConfig
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.stats import angular_errors, center_errors


def main() -> None:
    print("1. ground-truth map: 32^3 Sindbis-like icosahedral capsid")
    truth = sindbis_like_phantom(32).normalized()

    print("2. simulating 24 views (SNR 3, 0.5 px boxing error, 3 deg initial error)")
    views = simulate_views(
        truth,
        n_views=24,
        snr=3.0,
        center_sigma_px=0.5,
        initial_angle_error_deg=3.0,
        seed=0,
    )
    err0 = angular_errors(views.initial_orientations, views.true_orientations)
    print(f"   initial angular error: mean {err0.mean():.2f} deg, max {err0.max():.2f} deg")

    print("3. refining with a 2-level multi-resolution schedule (1.0 -> 0.5 deg)")
    # the level-1 window must cover the initial error distribution: with a
    # 3-deg sigma per angle, outliers reach ~7 deg, so use +-4 steps of 1 deg
    # and rely on the sliding window for the tail
    schedule = MultiResolutionSchedule(
        (RefinementLevel(1.0, 1.0, half_steps=4), RefinementLevel(0.5, 0.5, half_steps=2))
    )
    refiner = OrientationRefiner(truth, config=EngineConfig(r_max=12.0, max_slides=2))
    result = refiner.refine(views, schedule=schedule)

    err1 = angular_errors(result.orientations, views.true_orientations)
    cerr = center_errors(result.orientations, views.true_orientations)
    print(f"   refined angular error: mean {err1.mean():.2f} deg, max {err1.max():.2f} deg")
    print(f"   refined center error:  mean {cerr.mean():.2f} px")
    print(f"   matching operations:   {result.stats.total_matches:,}")
    for name, seconds in result.timer.totals.items():
        print(f"   {name:<24s} {seconds:8.2f} s")

    print("4. reconstructing maps from initial vs refined orientations")
    rec_init = reconstruct_from_views(views.images, views.initial_orientations)
    rec_new = reconstruct_from_views(views.images, result.orientations)
    print(f"   map cc vs truth, initial orientations: {rec_init.normalized().correlation(truth):.4f}")
    print(f"   map cc vs truth, refined orientations: {rec_new.normalized().correlation(truth):.4f}")


if __name__ == "__main__":
    main()
