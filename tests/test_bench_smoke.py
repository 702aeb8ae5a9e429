"""bench-smoke: a tiny always-on slice of the kernel benchmark claims.

The full benchmark (benchmarks/run_bench.py, l = 64) is too slow for every
tier-1 run, but its *correctness* half — the batched whole-window engine
returns bit-identical results to the reference slice-then-distance path —
must never wait for a bench run to regress loudly.  This module pins that
equivalence at l = 16 in seconds, marked ``bench_smoke`` so the quality
gate can also run it as a named step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.density import asymmetric_phantom
from repro.engine import EngineConfig, KernelConfig
from repro.imaging.simulate import simulate_views
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import OrientationRefiner

pytestmark = pytest.mark.bench_smoke


def test_batched_matches_reference_small():
    size = 16
    density = asymmetric_phantom(size, seed=0).normalized()
    views = simulate_views(
        density, 2, initial_angle_error_deg=3.0, center_sigma_px=0.5, seed=0
    )
    schedule = MultiResolutionSchedule(
        (
            RefinementLevel(2.0, 1.0, half_steps=2),
            RefinementLevel(1.0, 0.5, half_steps=2),
        )
    )
    results = {}
    for kernel in ("reference", "batched"):
        refiner = OrientationRefiner(
            density, config=EngineConfig(kernel=KernelConfig(kernel=kernel))
        )
        results[kernel] = refiner.refine(views, schedule=schedule)
    ref, bat = results["reference"], results["batched"]
    assert [o.as_tuple() for o in ref.orientations] == [
        o.as_tuple() for o in bat.orientations
    ]
    assert np.array_equal(ref.distances, bat.distances)
    assert bat.perf is not None and bat.perf.memo_hits > 0


def test_pruned_matches_reference_small():
    """The pruned slice of the benchmark claim: the early-termination bound
    abandons a real fraction of the window at l = 16 while reproducing the
    reference bits exactly."""
    size = 16
    density = asymmetric_phantom(size, seed=0).normalized()
    views = simulate_views(
        density, 2, initial_angle_error_deg=3.0, center_sigma_px=0.5, seed=0
    )
    schedule = MultiResolutionSchedule(
        (
            RefinementLevel(2.0, 1.0, half_steps=2),
            RefinementLevel(1.0, 0.5, half_steps=2),
        )
    )
    reference = OrientationRefiner(
        density, config=EngineConfig(kernel=KernelConfig(kernel="reference"))
    ).refine(views, schedule=schedule)
    config = EngineConfig.from_dict({"prune": {"enabled": True}})
    pruned = OrientationRefiner(density, config=config).refine(views, schedule=schedule)
    assert [o.as_tuple() for o in reference.orientations] == [
        o.as_tuple() for o in pruned.orientations
    ]
    assert np.array_equal(reference.distances, pruned.distances)
    assert pruned.perf is not None and pruned.perf.pruned > 0
    assert pruned.perf.evaluated + pruned.perf.pruned == pruned.perf.gathers
