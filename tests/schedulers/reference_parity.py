"""The reference-parity harness: every speed layer against ``reference=True``.

Each (policy, seed, fault setting) scenario runs twice through
:class:`~repro.experiments.runner.SimulationRunner`: once as shipped
(pass skipping, share heaps, the memoized snapshot, lazy completion
timers, reprice memos, the activity-indexed monitor tick) and once with
``reference=True``, which linearly rescans every queue over an uncached
snapshot on every pass, re-prices every touched job from scratch,
cancel+reschedules its completion on every touch, and ticks every node.
The two runs must agree on:

* the **decision stream** — every pass that produced decisions, as
  ``(time, serialized decisions)`` in order.  Passes producing zero
  decisions are excluded: skipping them is exactly what the fast run is
  allowed (and supposed) to do;
* every scalar outcome.  ``events_fired`` is compared modulo stale timer
  fires: a fast run fires extra ``completion-stale`` events (old timers
  surfacing after their completion moved later), each of which only
  re-arms and returns, so
  ``fast.events_fired - fast.stale_timer_fires == reference.events_fired``.
  A skipped pass still fires its event, so nothing else differs.

Two fault settings: hardware faults (crashes, GPU failures, quarantines)
and hardware plus telemetry dropouts and CPU stragglers — stragglers are
the main source of later-moving completions, and dropouts exercise the
activity-index back-fill of MBM sample timestamps.  Runs are memoized
per process, so a clean pair shared by both test modules runs once.

See docs/scheduler-internals.md for the argument of *why* these must be
equal; the parity tests are the empirical check over the full simulator.
"""

from functools import lru_cache

from repro.config import small_cluster
from repro.experiments.runner import SimulationRunner
from repro.experiments.scenarios import (
    Scenario,
    default_schedulers,
    small_scenario,
)
from repro.faults import FaultConfig
from repro.workload.tracegen import TraceConfig

POLICIES = ("fifo", "drf", "coda")
SEEDS = (0, 1, 2)

#: Aggressive enough that a 0.2-day / 6-node run sees several node
#: crashes, GPU failures and (via repeated strikes) quarantines.
HARDWARE_FAULTS = FaultConfig(
    seed=5,
    node_mtbf_s=4 * 3600.0,
    node_mttr_s=900.0,
    gpu_mtbf_s=8 * 3600.0,
)

#: The hardware faults plus telemetry blackouts and straggler episodes.
ALL_FAULTS = FaultConfig(
    seed=5,
    node_mtbf_s=4 * 3600.0,
    node_mttr_s=900.0,
    gpu_mtbf_s=8 * 3600.0,
    telemetry_mtbf_s=2 * 3600.0,
    telemetry_outage_s=600.0,
    straggler_interval_s=1800.0,
    straggler_duration_s=900.0,
)

FAULTS = {"clean": None, "hardware": HARDWARE_FAULTS, "all": ALL_FAULTS}

_SCALARS = (
    "finished_gpu_jobs",
    "finished_cpu_jobs",
    "preemptions",
    "restarts",
    "node_downtime_s",
    "quarantines",
    "quarantine_s",
    "dead_jobs",
    "flap_suppressions",
)


def _serialize(decision):
    if hasattr(decision, "placements"):
        return ("start", decision.job.job_id, tuple(decision.placements))
    return (
        "preempt",
        decision.job_id,
        decision.reason,
        decision.preserve_progress,
    )


def storm_scenario(seed):
    """A flooded 4-node cluster: queues stay deep and co-location dense,
    so most passes are skippable and the share heaps, placement memos,
    throttles and repricing fan-out do constant work — the regime where
    a bug in any speed layer would actually show."""
    return Scenario(
        cluster_config=small_cluster(nodes=4),
        trace_config=TraceConfig(
            duration_days=0.05,
            gpu_jobs_per_day=1200.0,
            cpu_jobs_per_day=300.0,
            seed=seed,
        ),
        drain_s=3600.0,
    )


def scenario_for(seed, faults, storm):
    """The scenario of one parity case; ``faults`` names a FAULTS entry."""
    if storm:
        scenario = storm_scenario(seed)
    else:
        scenario = small_scenario(duration_days=0.2, seed=seed, nodes=6)
    if FAULTS[faults] is not None:
        scenario = scenario.with_faults(FAULTS[faults])
    return scenario


@lru_cache(maxsize=None)
def run(policy, seed, faults, reference, storm=False):
    """One complete run; returns (decision stream, scalars, events_fired,
    stale_timer_fires)."""
    scenario = scenario_for(seed, faults, storm)
    scheduler = default_schedulers()[policy]()
    decisions = []
    inner = scheduler.schedule

    def recording_schedule(cluster, now):
        batch = inner(cluster, now)
        if batch:
            decisions.append((now, tuple(_serialize(d) for d in batch)))
        return batch

    scheduler.schedule = recording_schedule  # type: ignore[method-assign]
    runner = SimulationRunner(
        scenario.build_cluster(),
        scheduler,
        scenario.build_trace(),
        sample_interval_s=1800.0,
        fault_injector=scenario.build_fault_injector(),
        reference=reference,
    )
    result = runner.run(until=scenario.horizon_s)
    return (
        decisions,
        {name: getattr(result, name) for name in _SCALARS},
        result.events_fired,
        result.stale_timer_fires,
    )


def assert_parity(policy, seed, faults, *, storm=False):
    fast, fast_scalars, fast_events, fast_stale = run(
        policy, seed, faults, False, storm
    )
    ref, ref_scalars, ref_events, ref_stale = run(
        policy, seed, faults, True, storm
    )

    assert ref_stale == 0, "reference timers must never fire stale"
    assert fast_events - fast_stale == ref_events
    assert fast_scalars == ref_scalars
    assert len(fast) == len(ref)
    for fast_entry, ref_entry in zip(fast, ref):
        assert fast_entry == ref_entry
    # The runs above did real work; an empty stream would mean the
    # recorder never saw a decision and the test proved nothing.
    assert fast, "scenario produced no scheduling decisions"
