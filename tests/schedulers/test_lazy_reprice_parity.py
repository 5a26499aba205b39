"""Parity of lazy repricing and timers (validate-on-pop completion
timers, epoch-keyed reprice memos, the activity-indexed monitor tick)
with ``reference=True`` under hardware, telemetry and straggler faults.

The harness and the equality argument live in
:mod:`tests.schedulers.reference_parity`; the clean cases share their
runs with :mod:`tests.schedulers.test_incremental_parity`.
"""

import pytest

from repro import profiling
from repro.experiments.runner import SimulationRunner
from repro.experiments.scenarios import default_schedulers
from tests.schedulers.reference_parity import (
    POLICIES,
    SEEDS,
    assert_parity,
    run,
    scenario_for,
)


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_lazy_matches_eager(policy, seed, faulted):
    assert_parity(policy, seed, "all" if faulted else "clean")


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("policy", POLICIES)
def test_lazy_matches_eager_under_congestion(policy, faulted):
    assert_parity(policy, 0, "all" if faulted else "clean", storm=True)


@pytest.mark.parametrize("policy", POLICIES)
def test_faulted_runs_actually_fire_stale_timers(policy):
    """The parity above is vacuous for the stale-timer path unless lazy
    runs really leave later-moving completions behind; stragglers slow
    CPU jobs mid-flight, which is exactly that."""
    _, _, _, stale = run(policy, 0, "all", False)
    assert stale > 0, "faulted scenario never fired a stale timer"


@pytest.mark.parametrize("policy", POLICIES)
def test_retired_env_hatches_are_inert(policy, monkeypatch):
    """The reference behaviour is chosen by ``reference=True`` alone: the
    environment variables that once selected it change nothing, so a
    congested default run still skips passes and fires stale timers."""
    monkeypatch.setenv("REPRO_FULL_RESCAN", "1")
    monkeypatch.setenv("REPRO_EAGER_RESCHEDULE", "1")
    scenario = scenario_for(0, "all", storm=True)
    runner = SimulationRunner(
        scenario.build_cluster(),
        default_schedulers()[policy](),
        scenario.build_trace(),
        sample_interval_s=1800.0,
        fault_injector=scenario.build_fault_injector(),
    )
    profiler = profiling.enable()
    try:
        result = runner.run(until=scenario.horizon_s)
    finally:
        profiling.disable()
    assert profiler.counters.get("schedule-skips", 0) > 0
    assert result.stale_timer_fires > 0
