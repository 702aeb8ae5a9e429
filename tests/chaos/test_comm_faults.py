"""Chaos tests for the simulated fabric (message drops and delays).

Fabric faults model lossy interconnect on the simulated cluster: a dropped
message is retransmitted after an ack-timeout, a delayed one arrives late.
Both may only cost simulated *time* — the delivered values, and therefore
the refined orientations, must be bit-identical to the fault-free run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, ParallelConfig, ScheduleConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.parallel.comm import run_spmd
from repro.parallel.prefine import parallel_refine
from repro.pipeline.datasets import sindbis_like_dataset
from repro.density import sindbis_like_phantom
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel

pytestmark = pytest.mark.chaos


def test_dropped_message_redelivered_once():
    plan = FaultPlan((FaultSpec("drop-message", "msg:0->1#0", delay_s=0.5),))

    def worker(comm):
        if comm.rank == 0:
            comm.send(np.arange(8.0), 1)
            return None
        return comm.recv(0)

    results, clock = run_spmd(2, worker, fault_plan=plan)
    assert np.array_equal(results[1], np.arange(8.0))

    results2, clock2 = run_spmd(2, worker)
    assert np.array_equal(results2[1], np.arange(8.0))
    # the drop costs the retransmit timeout plus a second α–β charge
    assert clock.elapsed() > clock2.elapsed()


@pytest.mark.parametrize("kind", ["drop-message", "delay"])
def test_fabric_faults_cost_time_not_values(kind):
    density = sindbis_like_phantom(16).normalized()
    views = sindbis_like_dataset(size=16, n_views=4, snr=10.0, seed=4)
    schedule = MultiResolutionSchedule((RefinementLevel(1.0, 1.0, half_steps=2),))

    config = EngineConfig(
        schedule=ScheduleConfig.from_schedule(schedule),
        parallel=ParallelConfig(backend="sim", n_ranks=2),
    )
    clean = parallel_refine(views, density, config)
    plan = FaultPlan((FaultSpec(kind, "msg:0->*", times=3, delay_s=0.25),))
    faulty = parallel_refine(views, density, config, fault_plan=plan)

    for got, want in zip(faulty.orientations, clean.orientations):
        assert got.as_tuple() == want.as_tuple()
    assert np.array_equal(faulty.distances, clean.distances)
    assert faulty.simulated_total_seconds > clean.simulated_total_seconds
    assert not clean.fault_events
    expected_action = "dropped" if kind == "drop-message" else "delayed"
    assert any(e.action == expected_action for e in faulty.fault_events)
