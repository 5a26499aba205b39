"""``Scheduler.queue_depths`` agrees with ``pending_jobs`` for every policy.

The metrics sampler reads ``queue_depths()``; the multi-array scheduler
answers it from its queue lengths instead of sorting the pending list, so
the two views are cross-checked on direct submits and at every sample of
congested runs, clean and faulted.
"""

import pytest

from repro.config import small_cluster
from repro.core.coda import CodaScheduler
from repro.experiments.runner import SimulationRunner
from repro.experiments.scenarios import Scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.parallel.spec import RunSpec
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.drf import DrfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workload.job import CpuJob, GpuJob, JobKind
from repro.workload.tracegen import TraceConfig

POLICIES = {"fifo": FifoScheduler, "drf": DrfScheduler, "coda": CodaScheduler}


def _counted(scheduler):
    pending = scheduler.pending_jobs()
    gpu = sum(1 for job in pending if job.kind is JobKind.GPU)
    return gpu, len(pending) - gpu


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_direct_submits(policy):
    scheduler = POLICIES[policy]()
    assert scheduler.queue_depths() == (0, 0)
    for index, (nodes, gpus) in enumerate([(1, 1), (1, 4), (2, 4), (1, 2)]):
        scheduler.submit(
            GpuJob(
                job_id=f"g{index}",
                tenant_id=index % 2,
                submit_time=float(index),
                setup=TrainSetup(nodes, gpus),
            ),
            float(index),
        )
    for index, inference in enumerate([False, True, False]):
        scheduler.submit(
            CpuJob(
                job_id=f"c{index}",
                tenant_id=index % 2,
                submit_time=float(index),
                is_inference=inference,
            ),
            float(index),
        )
    assert scheduler.queue_depths() == _counted(scheduler) == (4, 3)


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_sample_of_a_congested_run(monkeypatch, policy, faulted):
    scenario = Scenario(
        cluster_config=small_cluster(nodes=4),
        trace_config=TraceConfig(
            duration_days=0.03,
            gpu_jobs_per_day=1600.0,
            cpu_jobs_per_day=1200.0,
            seed=5,
        ),
        drain_s=1800.0,
    )
    if faulted:
        scenario = scenario.with_faults(
            FaultConfig(seed=4, node_mtbf_s=1800.0, node_mttr_s=600.0)
        )
    spec = RunSpec(
        scenario=scenario,
        scheduler=policy,
        health_config=HealthConfig() if faulted else None,
    )
    depths = []
    on_sample = SimulationRunner._on_sample

    def checked(runner):
        depths.append(runner.scheduler.queue_depths())
        assert depths[-1] == _counted(runner.scheduler)
        on_sample(runner)

    monkeypatch.setattr(SimulationRunner, "_on_sample", checked)
    spec.execute()
    assert any(gpu and cpu for gpu, cpu in depths)  # both queues got deep
