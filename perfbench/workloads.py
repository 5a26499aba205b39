"""The benchmark's workloads, their passes and their output checks.

Every workload is a list of :class:`repro.parallel.RunSpec` built from the
seed alone; the simulator only ever sees the trace a spec generates.  A
*pass* executes the whole list once.  Passes of one workload and seed must
serialize to byte-identical ``RunResult`` documents; in-process passes also
check job conservation on the live runner at the horizon.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import multiprocessing.resource_tracker
import os
import shutil
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import small_cluster
from repro.experiments.runner import RunResult, SimulationRunner
from repro.experiments.scenarios import (
    Scenario,
    grid_specs,
    paper_scale_scenario,
    week_scale_scenario,
)
from repro.faults import FaultConfig
from repro.health import HealthConfig, RestartPolicy
from repro.metrics.serialize import run_result_to_dict
from repro.metrics.stats import percentile
from repro.parallel import ResultCache, RunSpec, SimPool, build_scheduler
from repro.sweep import SupervisorConfig
from repro.workload.job import JobKind
from repro.workload.tracegen import TraceConfig

#: Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "paper": "CODA on the paper's 80-node/400-GPU cluster at calibrated "
    "load: the acceptance setting, every CODA layer at paper proportions",
    "fleet200": "CODA on 200 nodes at the same per-node load: only fleet "
    "size differs from paper, so per-node scan costs show",
    "gpu_flood": "CODA on 8 nodes flooded with GPU jobs: the pass, slimming "
    "ladder and tuning dominate; fleet indexes and eliminator barely run",
    "policy_grid_faulted": "fifo/drf/coda x 2 seeds under node faults via "
    "SimPool and a result cache: fan-out, cache, health and requeue paths",
}

#: (simulated days, traces) of each workload at ``scale=1``.  A pass runs
#: every trace once: ``traces`` independent seeds keep the seed-to-seed
#: spread of pooled outcomes small where one trace finishes few jobs
#: (gpu_flood), and make the grid's two trace seeds.  Sized so a pass
#: takes 0.7-2 s of uncontended host time; a run repeats passes for
#: ``--seconds``.
SIZES = {
    "paper": (0.5, 1),
    "fleet200": (0.125, 1),
    "gpu_flood": (0.25, 6),
    "policy_grid_faulted": (0.125, 2),
}

#: Worker processes of the grid's pooled passes and of memory passes.
JOBS = min(2, os.cpu_count() or 1)


def specs_for(name: str, seed: int, scale: float = 1.0) -> List[RunSpec]:
    """The run specs of workload ``name`` under ``seed``.

    Trace seeds are ``seed * traces + i``, so distinct ``seed`` values
    never share a trace.
    """
    days, traces = SIZES[name]
    days *= scale
    seeds = [seed * traces + i for i in range(traces)]
    if name == "paper":
        return [
            RunSpec(paper_scale_scenario(duration_days=days, seed=s)) for s in seeds
        ]
    if name == "fleet200":
        return [
            RunSpec(week_scale_scenario(duration_days=days, seed=s)) for s in seeds
        ]
    if name == "gpu_flood":
        return [
            RunSpec(
                Scenario(
                    cluster_config=small_cluster(nodes=8),
                    trace_config=TraceConfig(
                        duration_days=days,
                        gpu_jobs_per_day=1600.0,
                        cpu_jobs_per_day=400.0,
                        seed=s,
                    ),
                    drain_s=2 * 3600.0,
                )
            )
            for s in seeds
        ]
    if name == "policy_grid_faulted":
        scenario = paper_scale_scenario(duration_days=days, seed=seeds[0])
        scenario = scenario.with_faults(
            FaultConfig(seed=seed, node_mtbf_s=6 * 3600.0)
        )
        return [
            dataclasses.replace(
                spec,
                health_config=HealthConfig(quarantine_threshold=1.0),
                restart_policy=RestartPolicy(max_restarts=3),
            )
            for spec in grid_specs(scenario, seeds=seeds)
        ]
    raise KeyError(f"unknown workload {name!r}")


def is_grid(name: str) -> bool:
    return name == "policy_grid_faulted"


# ---------------------------------------------------------------------- #
# Building and checking one run


def build_runner(spec: RunSpec) -> SimulationRunner:
    """Trace generation, cluster build and runner construction (arrival
    scheduling): the set-up of one replay, as ``RunSpec.execute`` does it."""
    scenario = spec.resolved_scenario()
    return SimulationRunner(
        scenario.build_cluster(),
        build_scheduler(spec.scheduler, spec.coda_config, spec.restart_policy),
        scenario.build_trace(),
        sample_interval_s=spec.sample_interval_s,
        fault_injector=scenario.build_fault_injector(),
        health_config=spec.health_config,
    )


def horizon_of(spec: RunSpec) -> float:
    return spec.resolved_scenario().horizon_s


def conservation_error(runner: SimulationRunner) -> Optional[str]:
    """Check submitted = finished + running + queued + dead at the horizon.

    Each submitted job must sit in exactly one of the four sets.  Jobs
    waiting out a restart backoff (a live ``requeue:<job>`` event) count
    as queued.  Returns a description of the violation, or None.
    """
    records = runner.collector.records
    finished = {job_id for job_id, r in records.items() if r.finish_time is not None}
    running = set(runner.cluster.allocations())
    queued = {job.job_id for job in runner.scheduler.pending_jobs()}
    for _, _, _, tag in runner.engine.snapshot()["live"]:
        if tag.startswith("requeue:"):
            queued.add(tag.partition(":")[2])
    dead = {entry.job_id for entry in runner.scheduler.dead_jobs}
    parts = (finished, running, queued, dead)
    if sum(len(part) for part in parts) == len(records) and set().union(
        *parts
    ) == set(records):
        return None
    return (
        f"{runner.scheduler.name}: submitted {len(records)} != finished "
        f"{len(finished)} + running {len(running)} + queued {len(queued)} "
        f"+ dead {len(dead)}"
    )


def digest(results: Sequence[RunResult]) -> str:
    """sha256 of the canonical serialization of ``results`` in order."""
    return digest_payloads([run_result_to_dict(result) for result in results])


def digest_payloads(payloads: Sequence[Dict[str, Any]]) -> str:
    text = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Passes


class Ledger:
    """Attempted/failed pass counts and the reference digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}

    def record(self, label: str, digest_value: Optional[str], error: Optional[str]) -> None:
        """Book one pass; a pass fails on an error or a digest that differs
        from the first pass recorded."""
        self.attempted += 1
        reference = self.reference
        if error is None and digest_value is not None and reference is not None:
            if digest_value != reference:
                error = f"{label}: result digest {digest_value[:12]} != {reference[:12]}"
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        elif digest_value is not None:
            self.digests.setdefault(label, digest_value)

    def attempt(self, label: str, body: Callable[[], Tuple[Optional[str], Optional[str]]]) -> bool:
        """Run one pass; ``body`` returns (digest, error).  A pass that
        raises is a failed pass, not a crash of the benchmark.  Returns
        whether the pass succeeded."""
        try:
            digest_value, error = body()
        except Exception as exc:  # noqa: BLE001 - any failure is a result
            digest_value, error = None, f"{label}: raised {exc!r}"
        failed_before = self.failed
        self.record(label, digest_value, error)
        return self.failed == failed_before

    @property
    def reference(self) -> Optional[str]:
        return next(iter(self.digests.values()), None)


def run_in_process(
    specs: Sequence[RunSpec],
) -> Tuple[List[RunResult], float, float, Optional[str]]:
    """Build and run every spec here; check conservation on each runner.

    Returns (results, host seconds of set-up, host seconds in
    ``runner.run``, first error).
    """
    results: List[RunResult] = []
    setup_s = run_s = 0.0
    error: Optional[str] = None
    for spec in specs:
        # Collect earlier runs' garbage (runners hold reference cycles)
        # outside the timed regions.
        gc.collect()
        t0 = perf_counter()
        runner = build_runner(spec)
        t1 = perf_counter()
        result = runner.run(until=horizon_of(spec))
        t2 = perf_counter()
        setup_s += t1 - t0
        run_s += t2 - t1
        error = error or conservation_error(runner)
        results.append(result)
    return results, setup_s, run_s, error


def memory_run(spec: RunSpec) -> Tuple[Dict[str, Any], float, Optional[str]]:
    """Set up and run one spec under tracemalloc.

    Returns (serialized result, peak MiB, conservation error).  Module
    level so a spawned worker can run it.
    """
    gc.collect()
    tracemalloc.start()
    try:
        runner = build_runner(spec)
        result = runner.run(until=horizon_of(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return run_result_to_dict(result), peak / (1024.0 * 1024.0), conservation_error(runner)


def memory_pass(specs: Sequence[RunSpec]) -> Tuple[str, float, Optional[str]]:
    """Every spec's own tracemalloc pass; returns (digest, largest peak
    MiB, first error).  tracemalloc slows a run about five-fold, so a
    multi-spec pass spreads its specs over ``JOBS`` spawned workers; the
    peaks do not depend on where a run executes."""
    if JOBS > 1 and len(specs) > 1:
        context = multiprocessing.get_context("spawn")
        with context.Pool(JOBS) as pool:
            runs = pool.map(memory_run, specs, chunksize=1)
            pool.close()
            pool.join()
    else:
        runs = [memory_run(spec) for spec in specs]
    errors = [error for _, _, error in runs if error is not None]
    return (
        digest_payloads([payload for payload, _, _ in runs]),
        max(peak for _, peak, _ in runs),
        errors[0] if errors else None,
    )


def reap_children() -> None:
    """Wait for every process the benchmark started.

    Pool and supervisor workers are joined (killed if one still runs
    after five seconds).  ``spawn`` pools also start multiprocessing's
    resource tracker, which would otherwise outlive the benchmark while
    it cleans up after the parent's exit; it is stopped and waited for.
    """
    for child in multiprocessing.active_children():
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    multiprocessing.resource_tracker._resource_tracker._stop()


class CacheDirs:
    """Fresh result-cache roots under one temporary directory of the
    checkout, removed on :meth:`close`."""

    def __init__(self, root: Path) -> None:
        self.root = root / f"{os.getpid()}"
        self._count = 0

    def fresh(self) -> ResultCache:
        """A cache at a new path; its first store creates the directory."""
        self._count += 1
        return ResultCache(self.root / f"cache-{self._count}")

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def grid_setup(name: str, seed: int, dirs: CacheDirs) -> Tuple[List[RunSpec], SimPool]:
    """Spec and pool/cache construction: the grid's set-up."""
    specs = specs_for(name, seed)
    pool = SimPool(JOBS, cache=dirs.fresh(), supervisor=SupervisorConfig())
    return specs, pool


def repeat_for(seconds: float, minimum: int, step: Callable[[], Any]) -> int:
    """Call ``step`` until ``seconds`` have passed and at least
    ``minimum`` calls were made; returns the number of calls."""
    start = perf_counter()
    calls = 0
    while calls < minimum or perf_counter() - start < seconds:
        step()
        calls += 1
    return calls


# ---------------------------------------------------------------------- #
# Simulated outcomes


def reported_percentile(count: int, q: float) -> Optional[float]:
    """``q``, or the highest percentile with at least ten samples beyond
    it when there are too few samples for ``q``; None below 20 samples."""
    if count < 20:
        return None
    return min(q, math.floor(1000.0 * (1.0 - 10.0 / count)) / 10.0)


def pooled_waits(results: Sequence[RunResult], kind: JobKind) -> List[float]:
    """Queueing delays pooled over results, still-queued jobs censored at
    the horizon (the Philly-study convention)."""
    waits: List[float] = []
    for result in results:
        waits.extend(
            result.collector.queueing_times(
                kind, include_unstarted_until=result.horizon_s
            )
        )
    return waits


def outcomes(results: Sequence[RunResult]) -> Dict[str, Tuple[float, str, str]]:
    """Simulated outcomes pooled over ``results``: name -> (value, unit,
    note).  They repeat exactly for a seed."""
    table: Dict[str, Tuple[float, str, str]] = {}
    finished = sum(r.finished_gpu_jobs + r.finished_cpu_jobs for r in results)
    table["sim_jobs_finished"] = (float(finished), "count", "")
    util = [v for r in results for v in r.collector.gpu_utilization.values()]
    table["sim_gpu_util_pct"] = (
        100.0 * sum(util) / len(util) if util else 0.0,
        "%",
        f"{len(util)} samples",
    )
    gpu = pooled_waits(results, JobKind.GPU)
    cpu = pooled_waits(results, JobKind.CPU)
    for name, values, q in (
        ("sim_gpu_wait_p50_s", gpu, 50.0),
        ("sim_gpu_wait_p99_s", gpu, 99.0),
        ("sim_cpu_wait_p99_s", cpu, 99.0),
    ):
        used = reported_percentile(len(values), q)
        if used is None:
            table[name] = (0.0, "s", f"{len(values)} samples: too few")
        else:
            table[name] = (
                percentile(values, used),
                "s",
                f"p{used:g} of {len(values)} samples",
            )
    over = sum(1 for v in gpu if v > 600.0)
    table["sim_gpu_wait_gt10min_pct"] = (
        100.0 * over / len(gpu) if gpu else 0.0,
        "%",
        f"{over} of {len(gpu)} GPU jobs",
    )
    table["sim_events"] = (
        float(sum(r.events_fired for r in results)),
        "count",
        "",
    )
    return table
