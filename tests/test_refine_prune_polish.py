"""Pruned candidate search and continuous polish (DESIGN.md §11).

Two families of guarantees live here.  The pruning bound is *exact*: a
pruned batched search must reproduce the exhaustive search bit for bit
(hypothesis-checked at the window level, pinned again through the full
refiner), because a partial band sum is a monotone lower bound on the §3
distance.  The polish trades bit-identity for continuous optima, so its
tests assert the monotone contract (never worse than its start) and the
accuracy gate: polished distances dominate the brute-force fine tail it
replaces, at an angular resolution at least as fine as that tail's last
step (``accuracy_gate``-marked, also a named tools/check.py step).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.distance import DistanceComputer
from repro.align.fused import get_match_plan
from repro.density import asymmetric_phantom
from repro.engine.config import EngineConfig
from repro.fourier import centered_fftn
from repro.fourier.slicing import extract_slice
from repro.geometry import Orientation, euler_to_matrix
from repro.imaging.simulate import simulate_views
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.polish import polish_view
from repro.refine.prune import PruneParams, PruneSearch, center_offsets
from repro.refine.refiner import OrientationRefiner
from repro.refine.window import sliding_window_search


def pruned_config(base: EngineConfig, **overrides) -> EngineConfig:
    prune = {"enabled": True, **overrides.pop("prune", {})}
    data = {**base.to_dict(), "prune": prune, **overrides}
    return EngineConfig.from_dict(data)


@pytest.fixture(scope="module")
def small_problem():
    density = asymmetric_phantom(16, seed=3).normalized()
    views = simulate_views(
        density, 3, initial_angle_error_deg=2.0, center_sigma_px=0.5, seed=3
    )
    schedule = MultiResolutionSchedule(
        (
            RefinementLevel(1.0, 1.0, half_steps=2),
            RefinementLevel(0.5, 0.5, half_steps=2),
        )
    )
    return density, views, schedule


# -- PruneParams / PruneSearch unit behavior ---------------------------------
def test_prune_params_validation():
    with pytest.raises(ValueError):
        PruneParams(rank=0)
    with pytest.raises(ValueError):
        PruneParams(rank=2, top_k=3)
    with pytest.raises(ValueError):
        PruneParams(margin=-1e-9)
    with pytest.raises(ValueError):
        PruneParams(shell_groups=0)


def test_prune_search_bound_opens_only_after_rank_filled():
    search = PruneSearch(PruneParams(rank=2, top_k=2))
    assert search.bound() == float("inf")
    search.observe([(0.0, 0.0, 0.0, 0.0, 0.0)], np.array([3.0]))
    assert search.bound() == float("inf"), "bound before the ranking exists"
    search.observe([(1.0, 0.0, 0.0, 0.0, 0.0)], np.array([5.0]))
    assert search.bound() == pytest.approx(5.0, rel=1e-8)
    # a better candidate tightens the k-th best
    search.observe([(2.0, 0.0, 0.0, 0.0, 0.0)], np.array([1.0]))
    assert search.bound() == pytest.approx(3.0, rel=1e-8)


def test_prune_search_deduplicates_reobserved_candidates():
    search = PruneSearch(PruneParams(rank=2, top_k=2))
    key = (10.0, 20.0, 30.0, 0.0, 0.0)
    search.observe([key, key], np.array([2.0, 2.0]))
    assert len(search) == 1, "same orientation key must occupy one slot"
    search.observe([(1.0, 0.0, 0.0, 0.0, 0.0)], np.array([4.0]))
    assert search.basins() == (Orientation(*key), Orientation(1.0, 0.0, 0.0, 0.0, 0.0))


def test_prune_search_ignores_abandoned_inf_values():
    search = PruneSearch(PruneParams(rank=1, top_k=1))
    search.observe(
        [(0.0,) * 5, (1.0, 0.0, 0.0, 0.0, 0.0)], np.array([np.inf, 2.0])
    )
    assert len(search) == 1
    assert search.bound() == pytest.approx(2.0, rel=1e-8)


def test_center_offsets_order_scores_center_first():
    flat = center_offsets((3, 3, 3))
    order = np.argsort(flat, kind="stable")
    assert flat[order[0]] == 0.0, "window center must be evaluated first"
    assert flat is center_offsets((3, 3, 3)), "per-shape cache"
    assert not flat.flags.writeable


# -- the exactness invariant: pruned == exhaustive, bit for bit --------------
@st.composite
def prune_problem(draw):
    seed = draw(st.integers(0, 10_000))
    step = draw(st.floats(min_value=0.3, max_value=2.0))
    half_steps = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    vol = rng.normal(size=(12, 12, 12))
    theta, phi, omega = rng.uniform(0.0, 360.0, size=3)
    return vol, (theta, phi, omega), step, half_steps, rank


@given(problem=prune_problem())
@settings(max_examples=20, deadline=None)
def test_pruned_window_search_is_bit_identical_to_exhaustive(problem):
    """The tested invariant behind DESIGN.md §11: for any data, any window
    and any tracker rank, the pruned batched search returns the exact bits
    of the exhaustive batched search — orientation and distance."""
    vol, (t, p, o), step, half_steps, rank = problem
    ft = centered_fftn(vol)
    view = extract_slice(ft, euler_to_matrix(t, p, o))
    center = Orientation(t + step / 3.0, p - step / 2.0, o + step / 4.0)
    kwargs = dict(step_deg=step, half_steps=half_steps, max_slides=2, kernel="batched")
    exhaustive = sliding_window_search(view, ft, center, **kwargs)
    pruned = sliding_window_search(
        view, ft, center,
        prune=PruneParams(rank=rank, top_k=rank, seed_chunk=8, chunk=16),
        **kwargs,
    )
    assert pruned.orientation.as_tuple() == exhaustive.orientation.as_tuple()
    assert pruned.distance == exhaustive.distance


def test_pruned_basins_match_exhaustive_top_k():
    """With rank k, the basin set is exactly the k best of the exhaustive
    ranking (same orientations, same order)."""
    rng = np.random.default_rng(5)
    vol = rng.normal(size=(12, 12, 12))
    ft = centered_fftn(vol)
    view = extract_slice(ft, euler_to_matrix(40.0, 70.0, 10.0))
    center = Orientation(40.3, 69.6, 10.2)
    k = 3
    kwargs = dict(step_deg=1.0, half_steps=2, max_slides=2, kernel="batched")
    wide = sliding_window_search(
        view, ft, center, prune=PruneParams(rank=1000, top_k=k), **kwargs
    )
    pruned = sliding_window_search(
        view, ft, center, prune=PruneParams(rank=k, top_k=k), **kwargs
    )
    assert pruned.basins == wide.basins[:k]


def test_refiner_pruned_run_is_bit_identical(small_problem):
    """Whole-stack pinning of the same invariant, with the memo on and the
    bound actually firing (perf counters prove candidates were abandoned)."""
    density, views, schedule = small_problem
    base = OrientationRefiner(density).refine(views, schedule=schedule)
    refiner = OrientationRefiner(
        density, config=pruned_config(OrientationRefiner(density).config)
    )
    pruned = refiner.refine(views, schedule=schedule)
    assert [o.as_tuple() for o in pruned.orientations] == [
        o.as_tuple() for o in base.orientations
    ]
    assert np.array_equal(pruned.distances, base.distances)
    assert pruned.perf is not None and pruned.perf.pruned > 0
    assert pruned.perf.evaluated + pruned.perf.pruned == pruned.perf.gathers
    assert "pruned" in pruned.perf.summary()
    assert pruned.perf.level_pruned, "per-level pruning ratios must be recorded"


def test_refiner_pruned_parallel_matches_serial(small_problem):
    """Prune trackers live inside each view's own search, so worker count
    cannot change one bit (nor one pruning decision in aggregate)."""
    density, views, schedule = small_problem
    config = pruned_config(OrientationRefiner(density).config)
    serial = OrientationRefiner(density, config=config).refine(views, schedule=schedule)
    pooled_config = pruned_config(
        config, parallel={"backend": "process", "n_workers": 2}
    )
    pooled = OrientationRefiner(density, config=pooled_config).refine(
        views, schedule=schedule
    )
    assert [o.as_tuple() for o in pooled.orientations] == [
        o.as_tuple() for o in serial.orientations
    ]
    assert np.array_equal(pooled.distances, serial.distances)
    assert pooled.perf is not None and serial.perf is not None
    assert pooled.perf.level_pruned == serial.perf.level_pruned
    assert pooled.perf.level_evaluated == serial.perf.level_evaluated


def test_refiner_top_k_seeds_never_lose_to_single_path(small_problem):
    """Multi-basin seeding can only find equal-or-better minima: each next
    level starts from the single-path seed *plus* alternates."""
    density, views, schedule = small_problem
    base = OrientationRefiner(density).refine(views, schedule=schedule)
    config = pruned_config(OrientationRefiner(density).config, prune={"top_k": 3})
    multi = OrientationRefiner(density, config=config).refine(views, schedule=schedule)
    assert np.all(np.asarray(multi.distances) <= np.asarray(base.distances) * (1 + 1e-12))


# -- polish: monotone contract and stack wiring ------------------------------
def polish_setup(size=16, seed=2):
    density = asymmetric_phantom(size, seed=seed).normalized()
    views = simulate_views(density, 1, initial_angle_error_deg=1.0, seed=seed)
    dc = DistanceComputer(size)
    vol_ft = density.fourier_oversampled(2)
    plan = get_match_plan(dc, vol_ft.shape[0], "trilinear")
    from repro.fourier.transforms import centered_fft2

    view_band = plan.gather_view(centered_fft2(np.asarray(views.images[0], dtype=float)))
    return views.initial_orientations[0], view_band, vol_ft, plan


def test_polish_never_worse_than_start():
    start, view_band, vol_ft, plan = polish_setup()
    d_start = float(
        plan.dc.distance_band(
            plan.phase_shift_band(view_band, -start.cx, -start.cy),
            plan.cut_band(vol_ft, euler_to_matrix(start.theta, start.phi, start.omega)),
        )
    )
    res = polish_view(view_band, vol_ft, plan, start)
    assert res.distance <= d_start
    assert res.n_iterations >= 1
    assert res.final_step_deg >= 0.0


def test_polish_requires_plain_distance():
    start, view_band, vol_ft, _ = polish_setup()
    dc = DistanceComputer(16, normalized=True)
    plan = get_match_plan(dc, vol_ft.shape[0], "trilinear")
    with pytest.raises(ValueError, match="unnormalized"):
        polish_view(view_band, vol_ft, plan, start)


def test_polish_counts_iterations():
    from repro.perf import PerfCounters

    start, view_band, vol_ft, plan = polish_setup()
    counters = PerfCounters()
    res = polish_view(view_band, vol_ft, plan, start, counters=counters)
    assert counters.polish_calls == 1
    assert counters.polish_iters == res.n_iterations
    assert "polish" in counters.summary()


def test_refiner_polish_runs_as_extra_stage(small_problem):
    """prune+polish through the refiner: the kept grid plus the polish
    stage, with polish counters surfaced on RefinementResult.perf."""
    density, views, _ = small_problem
    schedule = MultiResolutionSchedule(
        (
            RefinementLevel(1.0, 1.0, half_steps=2),
            RefinementLevel(0.5, 0.5, half_steps=2),
            RefinementLevel(0.05, 0.05, half_steps=2),
        )
    )
    base = OrientationRefiner(density).refine(views, schedule=schedule)
    config = pruned_config(
        OrientationRefiner(density).config,
        polish={"enabled": True, "replace_below_deg": 0.1},
    )
    run = OrientationRefiner(density, config=config).refine(
        views, schedule=schedule, keep_level_snapshots=True
    )
    # polish replaces the 0.05° level and must do at least as well
    assert np.all(np.asarray(run.distances) <= np.asarray(base.distances) * (1 + 1e-12))
    assert run.perf is not None
    assert run.perf.polish_calls == len(views)
    assert run.perf.polish_iters >= run.perf.polish_calls
    assert "polish" in run.perf.level_seconds
    assert len(run.per_level_orientations) == 3, "kept levels + polish snapshot"


def test_multi_basin_checkpoint_resumes_bit_identically(small_problem, tmp_path):
    """Multi-basin runs checkpoint now: the basin set rides the checkpoint
    header (DESIGN.md §14), so a checkpointed top_k run matches the plain
    one and a resume from the final checkpoint returns the same bits."""
    density, views, schedule = small_problem
    config = pruned_config(OrientationRefiner(density).config, prune={"top_k": 2})
    plain = OrientationRefiner(density, config=config).refine(views, schedule=schedule)

    ckpt = str(tmp_path / "run.ckpt")
    checkpointed = OrientationRefiner(density, config=config).refine(
        views, schedule=schedule, checkpoint_path=ckpt
    )
    resumed = OrientationRefiner(density, config=config).refine(
        views, schedule=schedule, checkpoint_path=ckpt, resume=True
    )
    for run in (checkpointed, resumed):
        assert [o.as_tuple() for o in run.orientations] == [
            o.as_tuple() for o in plain.orientations
        ]
        assert np.array_equal(run.distances, plain.distances)


def test_prune_polish_config_fingerprints_are_distinct(small_problem):
    density, _, _ = small_problem
    base = OrientationRefiner(density).config
    fps = {
        base.fingerprint(),
        pruned_config(base).fingerprint(),
        pruned_config(base, prune={"top_k": 3}).fingerprint(),
        pruned_config(base, polish={"enabled": True}).fingerprint(),
    }
    assert len(fps) == 4, "prune/polish settings must be resume-visible"


# -- the accuracy gate (also a named tools/check.py step) --------------------
@pytest.mark.accuracy_gate
def test_polish_accuracy_gate():
    """The gate the polish ships under, in place of the bit-identity oracle:

    1. *objective non-regression* — for every view the polished distance is
       ≤ the distance the brute-force full schedule (with its 0.05° tail)
       reaches, so dropping the tail never costs objective quality;
    2. *resolution* — the polish converged, and its last accepted step was
       at least as fine as the replaced tail's final angular step.
    """
    tail_step_deg = 0.05
    density = asymmetric_phantom(16, seed=11).normalized()
    views = simulate_views(
        density, 3, initial_angle_error_deg=2.0, center_sigma_px=0.5, seed=11
    )
    full = MultiResolutionSchedule(
        (
            RefinementLevel(1.0, 1.0, half_steps=2),
            RefinementLevel(0.5, 0.5, half_steps=2),
            RefinementLevel(tail_step_deg, tail_step_deg, half_steps=2),
        )
    )
    brute = OrientationRefiner(density).refine(views, schedule=full)

    config = pruned_config(
        OrientationRefiner(density).config,
        polish={"enabled": True, "replace_below_deg": 0.1, "n_best": 2},
        prune={"top_k": 1},
    )
    run = OrientationRefiner(density, config=config).refine(views, schedule=full)
    assert np.all(
        np.asarray(run.distances) <= np.asarray(brute.distances) * (1 + 1e-12)
    ), "polished objective regressed vs the brute-force fine tail"

    # resolution leg, on the polish primitive itself (final_step_deg is a
    # PolishResult detail the refiner folds away)
    kept = MultiResolutionSchedule(full.levels[:2])
    seeded = OrientationRefiner(density).refine(views, schedule=kept)
    dc = DistanceComputer(16)
    vol_ft = density.fourier_oversampled(2)
    plan = get_match_plan(dc, vol_ft.shape[0], "trilinear")
    from repro.fourier.transforms import centered_fft2

    fts = centered_fft2(np.asarray(views.images, dtype=float))
    for q, start in enumerate(seeded.orientations):
        res = polish_view(plan.gather_view(fts[q]), vol_ft, plan, start)
        assert res.converged, f"view {q}: polish hit the iteration cap"
        assert res.final_step_deg <= tail_step_deg, (
            f"view {q}: final accepted step {res.final_step_deg:.2e}° is coarser "
            f"than the replaced tail's {tail_step_deg}° resolution"
        )
