"""The multi-array placement-shape memo is exact.

``MultiArrayScheduler._try_place_gpu`` skips the whole slimming-ladder
cascade for a request whose shape and *last* ladder rung already failed
at the current free-state stamp.  That is sound only because placement
is monotone in the core count: a job that fits at some cores fits at
every smaller count.  The property test checks that premise on
``place_gpu_job`` directly; the parity test checks the conclusion on
whole GPU-saturated runs against the unmemoized cascade.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_cluster
from repro.core.coda import CodaConfig
from repro.core.multiarray import MultiArrayScheduler
from repro.experiments.scenarios import Scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.metrics.serialize import run_result_to_dict
from repro.parallel.spec import RunSpec
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.placement import FreeState, place_gpu_job
from repro.workload.job import GpuJob
from repro.workload.tracegen import TraceConfig


def _flood_spec(faulted, contention_aware):
    """8 nodes at gpu_flood arrival rates: deep, blocked GPU queues."""
    scenario = Scenario(
        cluster_config=small_cluster(nodes=8),
        trace_config=TraceConfig(
            duration_days=0.05,
            gpu_jobs_per_day=1600.0,
            cpu_jobs_per_day=400.0,
            seed=3,
        ),
        drain_s=3600.0,
    )
    if faulted:
        scenario = scenario.with_faults(
            FaultConfig(
                seed=11,
                node_mtbf_s=1800.0,
                node_mttr_s=600.0,
                gpu_mtbf_s=3600.0,
                straggler_interval_s=900.0,
            )
        )
    return RunSpec(
        scenario=scenario,
        scheduler="coda",
        coda_config=CodaConfig(contention_aware_placement=contention_aware),
        health_config=HealthConfig() if faulted else None,
    )


def _run_counting_cascades(spec):
    """The serialized result, and how many full cascades the run paid."""
    cascades = []
    uncached = MultiArrayScheduler._try_place_gpu_uncached

    def counted(self, *args):
        cascades.append(1)
        return uncached(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MultiArrayScheduler, "_try_place_gpu_uncached", counted)
        result = spec.execute()
    return json.dumps(run_result_to_dict(result), sort_keys=True), len(cascades)


@pytest.mark.parametrize("contention_aware", [False, True])
@pytest.mark.parametrize("faulted", [False, True])
def test_memoized_run_matches_unmemoized(monkeypatch, faulted, contention_aware):
    spec = _flood_spec(faulted, contention_aware)
    memoized, memo_cascades = _run_counting_cascades(spec)

    def always_cascade(self, job, cores, cluster, free, decisions, preempted):
        return self._try_place_gpu_uncached(
            job, cores, cluster, free, decisions, preempted
        )

    monkeypatch.setattr(MultiArrayScheduler, "_try_place_gpu", always_cascade)
    reference, all_cascades = _run_counting_cascades(spec)
    assert memoized == reference
    # The scenario must actually exercise the memo.
    assert memo_cascades < all_cascades


_FREE_NODES = st.dictionaries(
    st.integers(min_value=0, max_value=11),
    st.tuples(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
)


@settings(max_examples=200, deadline=None)
@given(
    free=_FREE_NODES,
    deprioritized=st.sets(st.integers(min_value=0, max_value=11)),
    num_nodes=st.integers(min_value=1, max_value=3),
    gpus_per_node=st.sampled_from([1, 2, 4]),
    cores=st.integers(min_value=1, max_value=24),
    among=st.none() | st.sets(st.integers(min_value=0, max_value=11)),
)
def test_placeable_at_cores_means_placeable_at_fewer(
    free, deprioritized, num_nodes, gpus_per_node, cores, among
):
    job = GpuJob(
        job_id="j",
        tenant_id=0,
        submit_time=0.0,
        setup=TrainSetup(num_nodes, gpus_per_node),
    )
    state = FreeState(free, deprioritized=deprioritized)
    if place_gpu_job(job, state, cpus_per_node=cores, among=among) is None:
        return
    for fewer in range(1, cores):
        assert (
            place_gpu_job(job, state, cpus_per_node=fewer, among=among)
            is not None
        ), fewer
