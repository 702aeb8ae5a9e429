"""Chaos tests for the process-pool scheduler's recovery paths.

Every test injects a deterministic fault plan into a pooled refinement and
asserts two things: the recovery path under test actually fired (via the
scheduler's fault log) and the refined orientations are *bit-identical* to
the fault-free serial baseline.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.engine import ProcessBackend
from repro.faults.plan import FaultPlan, FaultSpec, chunk_site
from repro.faults.retry import RetryPolicy
from repro.parallel.viewsched import ViewScheduler

from tests.chaos.conftest import assert_identical, shm_segments

pytestmark = pytest.mark.chaos


def run_chaos(chaos_problem, plan, *, n_workers=2, policy=None):
    """One pooled refinement under ``plan``; returns (result, fault log)."""
    views, refiner, schedule = chaos_problem
    scheduler = ViewScheduler(n_workers=n_workers, retry_policy=policy, fault_plan=plan)
    try:
        backend = ProcessBackend(scheduler=scheduler)
        result = refiner.refine(views, schedule=schedule, backend=backend)
        return result, scheduler.fault_log
    finally:
        scheduler.close()


def test_crash_before_chunk_recovers(chaos_problem, baseline, no_shm_leak):
    plan = FaultPlan((FaultSpec("crash-before", "L0.C0"),))
    result, log = run_chaos(chaos_problem, plan)
    assert log.count("worker-lost") >= 1
    assert log.count("pool-restart") >= 1
    assert log.count("retry") >= 1
    assert_identical(result, baseline)


def test_crash_after_chunk_recovers(chaos_problem, baseline, no_shm_leak):
    plan = FaultPlan((FaultSpec("crash-after", "L1.C1"),))
    result, log = run_chaos(chaos_problem, plan)
    assert log.count("worker-lost") >= 1
    assert_identical(result, baseline)


def test_poison_detected_and_retried(chaos_problem, baseline, no_shm_leak):
    plan = FaultPlan((FaultSpec("poison", "L0.C*"),))
    result, log = run_chaos(chaos_problem, plan)
    assert log.count("poison-detected") >= 1
    assert log.count("retry") >= 1
    assert_identical(result, baseline)


def test_delay_triggers_timeout_and_requeue(chaos_problem, baseline, no_shm_leak):
    plan = FaultPlan((FaultSpec("delay", "L0.C0", delay_s=2.0),))
    policy = RetryPolicy(chunk_timeout_s=0.5)
    result, log = run_chaos(chaos_problem, plan, policy=policy)
    assert log.count("timeout") >= 1
    assert log.count("pool-restart") >= 1
    assert_identical(result, baseline)


def test_pool_exhaustion_degrades_to_serial(chaos_problem, baseline, no_shm_leak):
    # every attempt of chunk 0 crashes: the retry budget runs out and the
    # scheduler must finish the chunk on the serial path instead
    plan = FaultPlan((FaultSpec("crash-before", "L*.C0", times=99),))
    policy = RetryPolicy(max_attempts=2, max_pool_restarts=1)
    result, log = run_chaos(chaos_problem, plan, policy=policy)
    assert log.count("serial-fallback") >= 1
    assert_identical(result, baseline)


def test_repeated_crashes_still_converge(chaos_problem, baseline, no_shm_leak):
    # crash the same chunk twice (attempts 0 and 1); the third attempt runs
    plan = FaultPlan((FaultSpec("crash-before", "L0.C1", times=2),))
    result, log = run_chaos(chaos_problem, plan)
    assert log.count("pool-restart") >= 2
    assert_identical(result, baseline)


def test_scattered_faults_converge(chaos_problem, baseline, chaos_seed, no_shm_leak):
    # a seeded random sprinkle of crashes/poisons/delays over every chunk
    # site of both levels — the catch-all "any plan converges" property
    views, _, schedule = chaos_problem
    sites = [
        chunk_site(level, chunk)
        for level in range(len(schedule))
        for chunk in range(len(views))
    ]
    plan = FaultPlan.scatter(chaos_seed, sites, rate=0.4, delay_s=0.01)
    assert plan.specs, "scatter produced an empty plan; raise the rate"
    result, log = run_chaos(chaos_problem, plan)
    assert log.events, "no recovery action fired for a non-empty plan"
    assert_identical(result, baseline)


def test_killed_worker_leaks_no_shm(chaos_problem, baseline):
    """SIGKILL a live pool worker mid-run: no /dev/shm segment survives.

    Regression test for the shared-volume leak: a worker killed by the OS
    never runs its atexit hooks, so cleanup must not depend on them — the
    owner (the scheduler) unlinks the segment no matter how workers die.
    """
    views, refiner, schedule = chaos_problem
    before = shm_segments()
    # a delay long enough that the worker is alive when we shoot it
    plan = FaultPlan((FaultSpec("delay", "L0.C*", delay_s=1.5),))
    scheduler = ViewScheduler(n_workers=2, fault_plan=plan)
    try:
        import threading

        box = {}

        def run():
            box["result"] = refiner.refine(
                views, schedule=schedule, backend=ProcessBackend(scheduler=scheduler)
            )

        t = threading.Thread(target=run)
        t.start()
        deadline = time.monotonic() + 10.0
        killed = False
        while time.monotonic() < deadline and not killed:
            executor = scheduler._executor
            procs = list(executor._processes.values()) if executor else []
            for p in procs:
                if p.pid is not None and p.is_alive():
                    os.kill(p.pid, signal.SIGKILL)
                    killed = True
                    break
            time.sleep(0.02)
        assert killed, "never observed a live worker to kill"
        t.join(timeout=120.0)
        assert not t.is_alive(), "refinement did not finish after worker kill"
    finally:
        scheduler.close()
    assert_identical(box["result"], baseline)
    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
