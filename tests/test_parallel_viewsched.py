"""The process-parallel view scheduler must be invisible to the numbers.

Whatever the worker count or chunking, the scheduler is required to return
*bit-identical* orientations and distances to the plain serial loop —
views are independent within a level, so parallelism is pure scheduling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, ParallelConfig
from repro.geometry.euler import Orientation
from repro.imaging.simulate import simulate_views
from repro.parallel.viewsched import (
    SharedVolume,
    ViewScheduler,
    chunk_indices,
    refine_level_serial,
)
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import OrientationRefiner


def test_chunk_indices_cover_and_order():
    chunks = chunk_indices(10, 3)
    assert len(chunks) == 3
    assert np.array_equal(np.concatenate(chunks), np.arange(10))
    # more chunks than items: one chunk per item, none empty
    chunks = chunk_indices(2, 8)
    assert [c.tolist() for c in chunks] == [[0], [1]]
    assert chunk_indices(0, 4) == []
    with pytest.raises(ValueError):
        chunk_indices(-1, 2)
    with pytest.raises(ValueError):
        chunk_indices(3, 0)


def test_shared_volume_roundtrip():
    arr = np.arange(24, dtype=complex).reshape(2, 3, 4) * (1 + 2j)
    sv = SharedVolume(arr)
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=sv.descriptor()[0])
        view = np.ndarray(sv.shape, dtype=sv.dtype, buffer=shm.buf)
        assert np.array_equal(view, arr)
        shm.close()
    finally:
        sv.close()
        sv.close()  # idempotent


def test_scheduler_validates_args():
    with pytest.raises(ValueError):
        ViewScheduler(n_workers=0)
    with pytest.raises(ValueError):
        ViewScheduler(chunks_per_worker=0)


@pytest.fixture(scope="module")
def small_problem(phantom16):
    views = simulate_views(
        phantom16, 5, initial_angle_error_deg=3.0, center_sigma_px=0.5, seed=11
    )
    volume_ft = phantom16.fourier_oversampled(2)
    from repro.fourier.transforms import centered_fft2

    fts = centered_fft2(np.asarray(views.images, dtype=float))
    return views, volume_ft, fts


def test_run_level_serial_fallback_is_serial_loop(small_problem):
    """n_workers=1 must take the exact refine_level_serial code path."""
    views, volume_ft, fts = small_problem
    level = RefinementLevel(2.0, 0.5, half_steps=2)
    orients = views.initial_orientations
    expected = refine_level_serial(volume_ft, fts, orients, None, level)
    with ViewScheduler(n_workers=1) as sched:
        got = sched.run_level(volume_ft, fts, orients, None, level)
    assert got == expected


def test_process_pool_bit_identical_to_serial(small_problem):
    views, volume_ft, fts = small_problem
    level = RefinementLevel(2.0, 0.5, half_steps=2)
    orients = views.initial_orientations
    serial = refine_level_serial(volume_ft, fts, orients, None, level)
    with ViewScheduler(n_workers=2, chunks_per_worker=2) as sched:
        pooled = sched.run_level(volume_ft, fts, orients, None, level)
    # frozen dataclasses with float fields: == is bitwise on every field
    assert pooled == serial


def test_refiner_n_workers_bit_identical(phantom16):
    """End-to-end: the full multi-level refinement matches serially."""
    views = simulate_views(
        phantom16, 4, initial_angle_error_deg=2.0, center_sigma_px=0.5, seed=5
    )
    sched = MultiResolutionSchedule(
        [RefinementLevel(2.0, 0.5, half_steps=2), RefinementLevel(0.5, 0.25, half_steps=2)]
    )
    r1 = OrientationRefiner(phantom16).refine(views, schedule=sched)
    pooled = EngineConfig(parallel=ParallelConfig(backend="process", n_workers=2))
    r2 = OrientationRefiner(phantom16, config=pooled).refine(views, schedule=sched)
    assert [o.as_tuple() for o in r1.orientations] == [o.as_tuple() for o in r2.orientations]
    assert np.array_equal(r1.distances, r2.distances)
    assert r1.stats == r2.stats


def test_scheduler_reuse_across_levels(small_problem):
    """One scheduler instance survives multiple levels and volume reuse."""
    views, volume_ft, fts = small_problem
    orients = list(views.initial_orientations)
    with ViewScheduler(n_workers=2) as sched:
        for level in (RefinementLevel(3.0, 0.5, half_steps=1), RefinementLevel(1.0, 0.25, half_steps=1)):
            results = sched.run_level(volume_ft, fts, orients, None, level)
            serial = refine_level_serial(volume_ft, fts, orients, None, level)
            assert results == serial
            for res in results:
                orients[res.index] = res.orientation


def test_pooled_memo_and_counters_thread_through(small_problem):
    """Workers ship memo state and perf counters back through the pool.

    A second pooled pass over the same level must answer (almost) every
    candidate from the absorbed memo, and the master counters must account
    for the workers' windows — all while staying bit-identical to the
    memo-less serial loop.
    """
    from repro.align.memo import MemoStore
    from repro.perf import PerfCounters

    views, volume_ft, fts = small_problem
    level = RefinementLevel(2.0, 0.5, half_steps=2)
    orients = views.initial_orientations
    serial = refine_level_serial(volume_ft, fts, orients, None, level, kernel="batched")
    memo_store = MemoStore()
    counters = PerfCounters()
    with ViewScheduler(n_workers=2, chunks_per_worker=2) as sched:
        first = sched.run_level(
            volume_ft, fts, orients, None, level,
            kernel="batched", memo_store=memo_store, counters=counters,
        )
        assert first == serial
        assert counters.window_calls > 0
        assert counters.gathers > 0
        # every view the chunks touched shipped its memo back
        assert memo_store.view_indices() == list(range(len(orients)))
        gathers_before = counters.gathers
        second = sched.run_level(
            volume_ft, fts, orients, None, level,
            kernel="batched", memo_store=memo_store, counters=counters,
        )
    assert second == serial
    # the re-run's windows were answered from the absorbed memo
    assert counters.gathers == gathers_before
    assert counters.memo_hits > 0


def test_run_polish_bit_identical_to_serial(small_problem):
    """The continuous polish stage must fan out invisibly, like run_level:
    any worker count returns bit-identical ViewPolishResults to the serial
    kernel, including the iteration/convergence bookkeeping."""
    from repro.parallel.viewsched import polish_level_serial

    views, volume_ft, fts = small_problem
    level = RefinementLevel(2.0, 0.5, half_steps=2)
    orients = list(views.initial_orientations)
    grid = refine_level_serial(volume_ft, fts, orients, None, level)
    for res in grid:
        orients[res.index] = res.orientation
    distances = [res.distance for res in grid]
    serial = polish_level_serial(volume_ft, fts, orients, distances, None)
    with ViewScheduler(n_workers=2, chunks_per_worker=2) as sched:
        pooled = sched.run_polish(volume_ft, fts, orients, distances, None)
    # frozen dataclasses with float fields: == is bitwise on every field
    assert pooled == serial
    assert [r.index for r in pooled] == list(range(len(orients)))
    assert any(r.n_iterations > 0 for r in pooled)
    # the polish never regresses a grid distance
    assert all(r.distance <= d for r, d in zip(pooled, distances))


def test_run_polish_single_worker_uses_serial_path(small_problem):
    views, volume_ft, fts = small_problem
    orients = list(views.initial_orientations)
    distances = [1.0] * len(orients)
    from repro.parallel.viewsched import polish_level_serial

    serial = polish_level_serial(volume_ft, fts, orients, distances, None)
    with ViewScheduler(n_workers=1) as sched:
        got = sched.run_polish(volume_ft, fts, orients, distances, None)
    assert got == serial


def _square_plus_one(x):
    # module-level so the pool can pickle it (fork or spawn)
    return x * x + 1


def test_run_tasks_matches_serial_map():
    """The generic fan-out: same values as a list comprehension, any pool."""
    payloads = [1, 2, 3, 4, 5, 6, 7]
    with ViewScheduler(n_workers=2) as sched:
        got = sched.run_tasks(_square_plus_one, payloads)
    assert got == [_square_plus_one(p) for p in payloads]
    with ViewScheduler(n_workers=1) as sched:
        assert sched.run_tasks(_square_plus_one, payloads) == got
