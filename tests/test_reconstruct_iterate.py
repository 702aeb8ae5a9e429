"""Tests for the refine <-> reconstruct outer loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import CheckpointConfig, EngineConfig, IterationConfig, ScheduleConfig
from repro.imaging import simulate_views
from repro.reconstruct import (
    determine_structure,
    iterations_until_stop,
    should_stop,
)
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel


@pytest.fixture(scope="module")
def mini_sched():
    return MultiResolutionSchedule((RefinementLevel(1.0, 1.0, half_steps=2),))


def _loop_config(sched, streaming=True, path=None, resume=False, r_max=6.0, **iteration):
    iteration.setdefault("max_iterations", 2)
    return EngineConfig(
        schedule=ScheduleConfig.from_schedule(sched),
        r_max=r_max,
        iteration=IterationConfig(streaming=streaming, **iteration),
        checkpoint=CheckpointConfig(path=path, resume=resume),
    )


@pytest.fixture(scope="module")
def small_views(phantom16):
    return simulate_views(
        phantom16, 6, snr=10.0, initial_angle_error_deg=2.0, seed=7
    )


def test_loop_produces_history(phantom24, mini_sched):
    views = simulate_views(
        phantom24, 20, snr=5.0, initial_angle_error_deg=2.0,
        projection_method="fourier", seed=0,
    )
    start = phantom24.low_pass(10.0)
    history = determine_structure(views, start, _loop_config(mini_sched, r_max=8.0)).history
    assert 1 <= len(history) <= 2
    rec = history[-1]
    assert rec.density.size == 24
    assert np.isfinite(rec.resolution_angstrom)
    assert rec.mean_distance >= 0
    assert len(rec.orientations) == 20


def test_loop_improves_map_against_truth(phantom24, mini_sched):
    views = simulate_views(
        phantom24, 30, snr=5.0, initial_angle_error_deg=3.0,
        projection_method="fourier", seed=1,
    )
    from repro.reconstruct import reconstruct_from_views

    initial_map = reconstruct_from_views(views.images, views.initial_orientations)
    history = determine_structure(
        views, initial_map, _loop_config(mini_sched, r_max=7.0)
    ).history
    cc_before = initial_map.normalized().correlation(phantom24)
    cc_after = history[-1].density.normalized().correlation(phantom24)
    assert cc_after > cc_before - 0.02  # must not degrade; usually improves


def test_loop_validation(phantom24, mini_sched):
    views = simulate_views(phantom24, 4, seed=2)
    with pytest.raises(ValueError):
        determine_structure(views, phantom24, _loop_config(mini_sched, max_iterations=0))


# -- the FSC stopping rule (pure function) -----------------------------------

def test_should_stop_basics():
    assert not should_stop([], 0.0)
    assert not should_stop([8.0], 0.0)  # first iteration never stops
    assert not should_stop([8.0, 7.0], 0.0)  # strict improvement continues
    assert should_stop([8.0, 8.5], 0.0)  # got worse: stop
    assert not should_stop([8.0, 8.0], 0.0)  # equal is not worse at mi=0
    assert should_stop([8.0, 8.0], 0.1)  # ... but fails a positive bar
    assert should_stop([8.0, 7.95], 0.1)  # improved, but less than the bar
    # "best previous" is the min over the whole prefix, not the last entry
    assert should_stop([6.0, 9.0, 6.5], 0.0)


@settings(max_examples=200, deadline=None)
@given(
    resolutions=st.lists(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False), max_size=8
    ),
    mi_a=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    mi_b=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    max_iterations=st.integers(min_value=1, max_value=8),
)
def test_stopping_rule_monotone_in_min_improvement(
    resolutions, mi_a, mi_b, max_iterations
):
    """A stricter improvement bar can only stop the loop sooner."""
    lo, hi = sorted((mi_a, mi_b))
    if should_stop(resolutions, lo):
        assert should_stop(resolutions, hi)
    assert iterations_until_stop(resolutions, hi, max_iterations) <= (
        iterations_until_stop(resolutions, lo, max_iterations)
    )


# -- determine_structure ------------------------------------------------------

def test_determine_structure_result_surface(small_views, phantom16, mini_sched):
    cfg = _loop_config(mini_sched, fsc_threshold=0.5, r_max_schedule=(8.0, 6.0))
    result = determine_structure(small_views, phantom16, cfg)
    assert result.stop_reason in ("converged", "max_iterations")
    assert 1 <= len(result.history) <= 2
    assert result.resumed_iterations == 0
    assert len(result.curves) == len(result.history)
    assert result.resolutions == [
        rec.resolution_angstrom for rec in result.history
    ]
    assert result.final_map is result.history[-1].density
    assert result.final_orientations == result.history[-1].orientations
    for it, rec in enumerate(result.history):
        assert rec.iteration == it
        assert rec.r_max == cfg.iteration.r_max_for(it, cfg.r_max)
        assert not rec.resumed
        assert np.isfinite(rec.resolution_angstrom)
        assert rec.curve is not None and rec.curve.cc.size > 0
    if result.perf is not None:
        assert result.perf.candidates > 0


def test_streaming_matches_barriered_bit_for_bit(small_views, phantom16, mini_sched):
    streamed = determine_structure(
        small_views, phantom16, _loop_config(mini_sched, streaming=True)
    )
    barriered = determine_structure(
        small_views, phantom16, _loop_config(mini_sched, streaming=False)
    )
    assert len(streamed.history) == len(barriered.history)
    assert streamed.stop_reason == barriered.stop_reason
    for a, b in zip(streamed.history, barriered.history):
        assert [o.as_tuple() for o in a.orientations] == [
            o.as_tuple() for o in b.orientations
        ]
        assert np.array_equal(a.density.data, b.density.data)
        assert a.resolution_angstrom == b.resolution_angstrom
        assert np.array_equal(a.curve.cc, b.curve.cc)


def _assert_identical_histories(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.iteration == y.iteration
        assert [o.as_tuple() for o in x.orientations] == [
            o.as_tuple() for o in y.orientations
        ]
        assert np.array_equal(x.density.data, y.density.data)
        assert x.resolution_angstrom == y.resolution_angstrom
        assert x.mean_distance == y.mean_distance


def test_loop_checkpoint_resume_replays_identically(
    small_views, phantom16, mini_sched, tmp_path
):
    plain = determine_structure(small_views, phantom16, _loop_config(mini_sched))
    ckpt = str(tmp_path / "loop")
    first = determine_structure(
        small_views, phantom16, _loop_config(mini_sched, path=ckpt, resume=True)
    )
    _assert_identical_histories(plain.history, first.history)

    # a second run replays every iteration from disk, bit-identically
    replayed = determine_structure(
        small_views, phantom16, _loop_config(mini_sched, path=ckpt, resume=True)
    )
    assert replayed.resumed_iterations == len(first.history)
    assert all(rec.resumed for rec in replayed.history)
    _assert_identical_histories(first.history, replayed.history)

    # truncating the loop record mid-way resumes from the cut point and
    # still reproduces the uninterrupted history exactly
    import json

    loop_json = tmp_path / "loop" / "loop.json"
    payload = json.loads(loop_json.read_text())
    payload["iterations"] = payload["iterations"][:1]
    loop_json.write_text(json.dumps(payload))
    partial = determine_structure(
        small_views, phantom16, _loop_config(mini_sched, path=ckpt, resume=True)
    )
    assert partial.resumed_iterations == 1
    _assert_identical_histories(first.history, partial.history)


def test_loop_checkpoint_refuses_foreign_initial_map(
    small_views, phantom16, phantom24, mini_sched, tmp_path
):
    """A loop checkpoint for a different initial map is ignored, not reused."""
    ckpt = str(tmp_path / "loop")
    determine_structure(
        small_views, phantom16, _loop_config(mini_sched, path=ckpt, resume=True)
    )
    other_start = phantom16.low_pass(6.0)
    fresh = determine_structure(
        small_views, other_start, _loop_config(mini_sched, path=ckpt, resume=True)
    )
    assert fresh.resumed_iterations == 0


def test_determine_structure_raw_stack_requires_orientations(phantom16, small_views):
    with pytest.raises(ValueError, match="initial_orientations"):
        determine_structure(small_views.images, phantom16, _loop_config(
            MultiResolutionSchedule((RefinementLevel(1.0, 1.0, half_steps=2),))
        ))
    with pytest.raises(ValueError, match="one initial orientation"):
        determine_structure(
            small_views.images,
            phantom16,
            _loop_config(
                MultiResolutionSchedule((RefinementLevel(1.0, 1.0, half_steps=2),))
            ),
            initial_orientations=small_views.initial_orientations[:2],
        )
