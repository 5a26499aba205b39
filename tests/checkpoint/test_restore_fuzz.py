"""Restore fuzzing: resume at a drawn event index, byte-identically.

``test_restore.py`` kills runs at a few fixed event counts.  Here
hypothesis draws the policy, the fault seed and the kill index on a small
scenario with every fault channel on, so restores land on arbitrary
states: mid-outage, mid-straggle, inside a quarantine, and with lazy
completion timers armed earlier than their job's authoritative
completion time (stale at snapshot time, re-armed from the engine
inventory by ``SimulationRunner.rearm``).
"""

import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import small_scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.parallel.spec import RunSpec
from tests.checkpoint.test_restore import (
    _dumps,
    _resume_to_completion,
    _snapshot_at,
)


def _spec(scheduler, fault_seed):
    scenario = small_scenario(duration_days=0.05, seed=2, nodes=4).with_faults(
        FaultConfig(
            seed=fault_seed,
            node_mtbf_s=1800.0,
            node_mttr_s=600.0,
            gpu_mtbf_s=3600.0,
            telemetry_mtbf_s=1200.0,
            straggler_interval_s=900.0,
        )
    )
    return RunSpec(
        scenario=scenario, scheduler=scheduler, health_config=HealthConfig()
    )


def _has_stale_timer(state):
    """Whether a running job's armed completion fires before its
    authoritative completion time."""
    armed = {tag: when for when, _, _, tag in state["engine"]["live"]}
    runner = state["runner"]
    return any(
        armed[f"{family}:{job_id}"] < fields[-1]
        for family, key in (("gpu-done", "running_gpu"), ("cpu-done", "running_cpu"))
        for job_id, fields in runner[key].items()
    )


@settings(max_examples=10, deadline=None)
@given(
    scheduler=st.sampled_from(["fifo", "drf", "coda"]),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    kill_at=st.integers(min_value=1, max_value=800),
)
def test_resume_at_any_event_matches_uninterrupted_run(
    scheduler, fault_seed, kill_at
):
    spec = _spec(scheduler, fault_seed)
    state = json.loads(json.dumps(_snapshot_at(spec, kill_at)))
    if _has_stale_timer(state):
        event("stale completion timer at snapshot")
    assert _dumps(_resume_to_completion(spec, state)) == _dumps(spec.execute())
