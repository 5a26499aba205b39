"""The simulator benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload gpu_flood --seed 3 --seconds 15 --trace 1

Workloads (see ``workloads.WHY``): ``paper``, ``fleet200``, ``gpu_flood``
and ``policy_grid_faulted``.  A run repeats passes over the workload for
``--seconds``.

``--trace 0`` measures the end-to-end metrics with no tracing:

* ``setup_s`` — trace generation + cluster build + ``SimulationRunner``
  construction (grid: spec and pool/cache construction); the median of
  the set-ups timed in every pass.
* ``wall_s`` — ``SimulationRunner.run`` to the horizon, summed over the
  workload's traces (grid: the cold ``SimPool.map`` at ``min(2, cpus)``
  supervised workers into a fresh result cache); the median pass.

  Both are the run's median host seconds scaled to a reference host
  speed by the median of a fixed probe run between passes (see
  ``hostspeed.py``): on a shared 2-CPU VM, other tenants slowed the
  simulator by up to 2x for minutes at a time, which no statistic over
  one run removes.  The grid's pooled pass is scaled by a probe run in
  as many processes at once as it has workers.  The raw host seconds
  and the probe times are printed beside them.
* ``peak_heap_mb`` — the largest tracemalloc peak over set-up + run of
  one trace, in a pass of its own.
* ``sim_jobs_finished`` / ``sim_gpu_util_pct`` — simulated outcomes,
  pooled over the workload's traces.  They repeat exactly for a seed.

The queueing outcomes (GPU wait p50/p99, CPU wait p99, share of GPU jobs
waiting over ten minutes; censored at the horizon) and
``failed_run_share`` are printed in the table but left out of the JSON
metrics: CODA never queues at the calibrated load, so the waits read 0
on ``paper`` and ``fleet200``, and the failure share is the JSON's
``failed`` / ``attempted``.

``--trace 1`` adds a traced pass (see ``tracer.py``) and prints the
per-layer metrics: calls, self time and per-call p50/p99 of each wrapped
public function (percentiles read 0 below 20 / 1000 calls), the event
categories from ``Engine.set_profiler``, a layer table whose rows add up
to the traced wall time, and host context (CPU count, the host-speed
probe).  Per-layer times are raw host seconds.

Every pass is checked: job conservation on each in-process runner, and
byte-identical serialized ``RunResult``s across all passes (untraced,
pooled, warm-cache, memory, traced).  For the default seed the result
digest is compared with ``digests.json``.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from statistics import median
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")

import workloads as wl  # noqa: E402
from repro.parallel import SimPool  # noqa: E402
from hostspeed import PROBE_REF_S, HostSpeed, probe_s  # noqa: E402
from tracer import LAYERS, Stat, Tracer  # noqa: E402

WORKLOADS = tuple(wl.WHY)
DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench-tmp"
GRID_SETUPS_PER_PASS = 200

#: Gated end-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_heap_mb": "MiB",
    "sim_jobs_finished": "count",
    "sim_gpu_util_pct": "%",
}

#: Event categories reported as ``sim.cat.<category>_s``.
CATEGORIES = (
    "arrival",
    "schedule-pass",
    "schedule-skip",
    "gpu-done",
    "cpu-done",
    "completion-stale",
    "sample",
    "profile",
    "eliminator-tick",
    "fault",
    "requeue",
    "quarantine-end",
)

#: Wrapped functions reported with calls/self_s/p50_us/p99_us.
SPAN_STATS = (
    "schedulers.pass",
    "placement.freestate",
    "placement.gpu",
    "placement.cpu",
    "perfmodel.iteration_time",
    "cluster.allocate",
    "cluster.release",
    "cluster.resize_cpus",
    "cluster.mbm.update_demand",
    "cluster.mean_gpu_util",
    "metrics.sample",
    "health.state",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in print order."""
    units: Dict[str, str] = {
        "host.cpus": "count",
        "host.calib_ms": "ms",
        "trace_overhead_ratio": "ratio",
        "traced_wall_s": "s",
        "layers.closure_pct": "%",
    }
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["remainder_s"] = "s"
    units.update(
        {
            "sim.events": "count",
            "sim.stale_fires": "count",
            "sim.schedule.calls": "count",
            "sim.host_us_per_event": "us",
        }
    )
    for category in CATEGORIES:
        units[f"sim.cat.{category.replace('-', '_')}_s"] = "s"
    for name in SPAN_STATS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.p50_us"] = "us"
        units[f"{name}.p99_us"] = "us"
    units.update(
        {
            "schedulers.pass.useful_ratio": "ratio",
            "schedulers.skip_ratio": "ratio",
            "placement.gpu.fit_ratio": "ratio",
            "placement.cpu.fit_ratio": "ratio",
            "core.alloc_probe_s": "s",
            "core.eliminator_tick_s": "s",
            "core.throttle.calls": "count",
            "core.throttle.ok_ratio": "ratio",
            "core.resize.calls": "count",
            "health.record_failure.calls": "count",
            "health.record_failure.self_s": "s",
            "workload.trace_s": "s",
            "workload.jobs": "count",
            "parallel.dispatch_overhead_s": "s",
            "parallel.serialize_ms": "ms",
            "parallel.cache.store_ms": "ms",
            "parallel.cache.load_ms": "ms",
            "parallel.cache.hit_ratio": "ratio",
        }
    )
    return units


def calibrate_ms() -> float:
    """Median of five runs of the host-speed probe, in ms."""
    return 1000.0 * median(probe_s() for _ in range(5))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------- #
# Untraced measurement


def measure_replay(specs, seconds: float, ledger: wl.Ledger) -> Dict[str, Any]:
    """Host seconds of set-up and run of each pass over a workload of
    replays, with host-speed probes between passes."""
    speed = HostSpeed()
    setups: List[float] = []
    walls: List[float] = []
    kept: List[Any] = []

    def one_pass() -> Tuple[str, Any]:
        speed.sample()
        results, setup_s, run_s, error = wl.run_in_process(specs)
        setups.append(setup_s)
        walls.append(run_s)
        kept[:] = results
        return wl.digest(results), error

    wl.repeat_for(seconds, 5, lambda: ledger.attempt("untraced", one_pass))
    return {
        "setups": setups,
        "walls": walls,
        "results": kept,
        "speed": speed,
        "wall_speed": speed,
    }


def measure_grid(name: str, seed: int, seconds: float, ledger: wl.Ledger, dirs: wl.CacheDirs) -> Dict[str, Any]:
    """Host seconds of set-up, cold pooled pass and warm rerun of each
    grid pass, with host-speed probes between passes: lone probes for
    the set-up and the warm rerun, which run here, and probes in
    ``JOBS`` processes at once for the pooled pass."""
    speed = HostSpeed()
    wall_speed = HostSpeed(wl.JOBS)
    setups: List[float] = []
    walls: List[float] = []
    warms: List[float] = []
    kept: List[Any] = []
    pools: List[Tuple[Any, SimPool]] = []

    def cold() -> Tuple[str, Any]:
        speed.sample()
        wall_speed.sample()
        # The grid's set-up takes well under a millisecond: time a batch
        # and book its mean.
        t0 = perf_counter()
        for _ in range(GRID_SETUPS_PER_PASS):
            specs, pool = wl.grid_setup(name, seed, dirs)
        setups.append((perf_counter() - t0) / GRID_SETUPS_PER_PASS)
        gc.collect()
        t0 = perf_counter()
        results = pool.map(specs)
        walls.append(perf_counter() - t0)
        kept[:] = results
        pools[:] = [(specs, pool)]
        return wl.digest(results), None

    def warm() -> Tuple[str, Any]:
        specs, pool = pools[0]
        t0 = perf_counter()
        results = pool.map(specs)
        warms.append(perf_counter() - t0)
        hits = pool.stats.hits
        error = None if hits == len(results) else f"warm rerun hit {hits} of {len(results)} cells"
        return wl.digest(results), error

    def one_pass() -> None:
        if ledger.attempt("pooled", cold):
            ledger.attempt("warm", warm)

    try:
        wl.repeat_for(seconds, 3, one_pass)
    finally:
        wall_speed.close()
    return {
        "setups": setups,
        "walls": walls,
        "warms": warms,
        "results": kept,
        "speed": speed,
        "wall_speed": wall_speed,
    }


def measure_memory(specs, ledger: wl.Ledger) -> List[float]:
    """peak_heap_mb from its own pass (a list: empty if the pass failed)."""
    peaks: List[float] = []

    def body() -> Tuple[str, Any]:
        digest_value, peak_mb, error = wl.memory_pass(specs)
        peaks.append(peak_mb)
        return digest_value, error

    ledger.attempt("memory", body)
    return peaks


# ---------------------------------------------------------------------- #
# Traced measurement


def traced_pass(name: str, specs, ledger: wl.Ledger, dirs: wl.CacheDirs) -> Dict[str, Any]:
    """One traced pass; returns the tracer figures and the traced wall."""
    tracer = Tracer()
    errors: List[str] = []

    def check(runner) -> None:
        error = wl.conservation_error(runner)
        if error is not None:
            errors.append(error)

    tracer.on_run_end = check
    tracer.install()
    grid = wl.is_grid(name)
    try:
        if grid:
            pool = SimPool(1, cache=dirs.fresh())
            results, wall = timed_root(tracer, lambda: pool.map(specs))
            workload_s = tracer.stats["workload.trace"].inclusive_s
        else:
            runners = [wl.build_runner(spec) for spec in specs]
            workload_s = tracer.stats["workload.trace"].inclusive_s
            tracer.reset()
            results, wall = timed_root(
                tracer,
                lambda: [
                    runner.run(until=wl.horizon_of(spec))
                    for runner, spec in zip(runners, specs)
                ],
            )
        cold = snapshot_stats(tracer)
        table = tracer.layer_table()
        recorder = copy_recorder(tracer)
        sites = snapshot_sites(tracer)
        warm_stats, hits = {}, 0
        if grid:
            tracer.reset()
            warm = pool.map(specs)
            warm_stats = snapshot_stats(tracer)
            hits = pool.stats.hits
            ledger.record("traced-warm", wl.digest(warm), None)
    finally:
        tracer.uninstall()
    ledger.record("traced", wl.digest(results), errors[0] if errors else None)
    return {
        "wall": wall,
        "stats": cold,
        "warm_stats": warm_stats,
        "hits": hits,
        "table": table,
        "recorder": recorder,
        "workload_trace_s": workload_s,
        "jobs": sum(len(r.collector.records) for r in results),
        "results": results,
        "sites": sites,
    }


def timed_root(tracer: Tracer, phase) -> Tuple[Any, float]:
    """Run ``phase`` as the tracer's root, timed from outside as well."""
    t0 = perf_counter()
    result, _ = tracer.measure(phase)
    return result, perf_counter() - t0


def snapshot_stats(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for name, stat in tracer.stats.items():
        out[name] = stat_figures(stat)
    return out


def snapshot_sites(tracer: Tracer) -> Dict[str, int]:
    return {key: counter[0] for key, counter in tracer.sites.items()}


def stat_figures(stat: Stat) -> Dict[str, float]:
    calls = stat.calls
    return {
        "calls": calls,
        "self_s": stat.self_s,
        "inclusive_s": stat.inclusive_s,
        "hits": stat.hits,
        "p50_us": stat.percentile_us(50.0) if len(stat.durations) >= 20 else 0.0,
        "p99_us": stat.percentile_us(99.0) if len(stat.durations) >= 1000 else 0.0,
    }


def copy_recorder(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    recorder = tracer.recorder
    return {
        "seconds": dict(recorder.seconds),
        "events": dict(recorder.events),
        "uncovered": dict(recorder.uncovered),
    }


def per_layer_metrics(
    name: str,
    traced: Dict[str, Any],
    untraced_wall: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass."""
    stats = traced["stats"]
    recorder = traced["recorder"]
    table = traced["table"]
    events = recorder["events"]
    seconds = recorder["seconds"]
    wall = traced["wall"]
    total_events = sum(events.values())
    values: Dict[str, float] = {
        "host.cpus": os.cpu_count() or 1,
        "host.calib_ms": extra["calib_ms"],
        "trace_overhead_ratio": ratio(wall, extra["untraced_compare_s"]),
        "traced_wall_s": wall,
        "layers.closure_pct": 100.0 * abs(sum(table.values()) - wall) / wall,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = table[layer]
    values["remainder_s"] = table["remainder"]
    values["sim.events"] = total_events
    values["sim.stale_fires"] = events.get("completion-stale", 0)
    values["sim.schedule.calls"] = stats["sim.schedule"]["calls"]
    values["sim.host_us_per_event"] = 1e6 * ratio(untraced_wall, total_events)
    for category in CATEGORIES:
        values[f"sim.cat.{category.replace('-', '_')}_s"] = seconds.get(category, 0.0)
    for stat_name in SPAN_STATS:
        figures = stats[stat_name]
        for key in ("calls", "self_s", "p50_us", "p99_us"):
            values[f"{stat_name}.{key}"] = figures[key]
    passes = stats["schedulers.pass"]
    skips = events.get("schedule-skip", 0)
    values["schedulers.pass.useful_ratio"] = ratio(passes["hits"], passes["calls"])
    values["schedulers.skip_ratio"] = ratio(skips, skips + events.get("schedule-pass", 0))
    for kind in ("gpu", "cpu"):
        figures = stats[f"placement.{kind}"]
        values[f"placement.{kind}.fit_ratio"] = ratio(figures["hits"], figures["calls"])
    values["core.alloc_probe_s"] = seconds.get("profile", 0.0)
    values["core.eliminator_tick_s"] = seconds.get("eliminator-tick", 0.0)
    throttle = stats["core.throttle"]
    values["core.throttle.calls"] = throttle["calls"]
    values["core.throttle.ok_ratio"] = ratio(throttle["hits"], throttle["calls"])
    values["core.resize.calls"] = stats["core.resize"]["calls"]
    values["health.record_failure.calls"] = stats["health.record_failure"]["calls"]
    values["health.record_failure.self_s"] = stats["health.record_failure"]["self_s"]
    values["workload.trace_s"] = traced["workload_trace_s"]
    values["workload.jobs"] = traced["jobs"]
    warm = traced["warm_stats"]
    cells = len(traced["results"])
    if wl.is_grid(name):
        serialize_s = (
            stats["parallel.to_dict"]["inclusive_s"]
            + stats["parallel.from_dict"]["inclusive_s"]
        )
        values["parallel.dispatch_overhead_s"] = extra["dispatch_overhead_s"]
        values["parallel.serialize_ms"] = 1000.0 * serialize_s / cells
        values["parallel.cache.store_ms"] = 1000.0 * ratio(
            stats["parallel.cache.store"]["inclusive_s"],
            stats["parallel.cache.store"]["calls"],
        )
        values["parallel.cache.load_ms"] = 1000.0 * ratio(
            warm["parallel.cache.load"]["inclusive_s"],
            warm["parallel.cache.load"]["calls"],
        )
        values["parallel.cache.hit_ratio"] = ratio(traced["hits"], cells)
    else:
        for key in (
            "parallel.dispatch_overhead_s",
            "parallel.serialize_ms",
            "parallel.cache.store_ms",
            "parallel.cache.load_ms",
            "parallel.cache.hit_ratio",
        ):
            values[key] = 0.0
    return values


# ---------------------------------------------------------------------- #
# Output


def recorded_digest(name: str) -> str:
    with DIGESTS.open(encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(name, "")


def probe_row(key: str, probes: List[float]) -> Tuple[str, float, str, str]:
    return (
        key,
        1000.0 * median(probes),
        "ms",
        f"median of {len(probes)} probes, min {1000.0 * min(probes):.3f}, "
        f"max {1000.0 * max(probes):.3f}; reference {1000.0 * PROBE_REF_S:g}",
    )


def print_end_to_end(measured: Dict[str, Any], sim, ledger: wl.Ledger) -> None:
    print("== end to end, untraced (seconds scaled to the reference host, see hostspeed.py)")
    raw = measured["raw_walls"]
    rows = [
        ("setup_s", measured["setup_s"], "s", f"median of {measured['n_setups']} set-ups"),
        (
            "wall_s",
            measured["wall_s"],
            "s",
            f"median of {len(raw)} passes; raw host s: median {median(raw):.4f}, "
            f"min {min(raw):.4f}, max {max(raw):.4f}",
        ),
        probe_row("host_probe_ms", measured["probes"]),
    ]
    if measured["wall_workers"] > 1:
        rows.append(
            probe_row(f"host_probe_x{measured['wall_workers']}_ms", measured["wall_probes"])
        )
    if "warm_s" in measured:
        rows.append(("warm_rerun_s", measured["warm_s"], "s", "median warm-cache rerun"))
    rows.append(("peak_heap_mb", measured["peak_heap_mb"], "MiB", "tracemalloc, own pass"))
    rows.append(
        (
            "failed_run_share",
            ratio(ledger.failed, ledger.attempted),
            "ratio",
            f"{ledger.failed} of {ledger.attempted} passes",
        )
    )
    rows.extend((key, value, unit, note) for key, (value, unit, note) in sim.items())
    for key, value, unit, note in rows:
        print(f"  {key:<26}{value:>16.6f} {unit:<6} {note}")


def print_checks(name: str, seed: int, ledger: wl.Ledger) -> None:
    for error in ledger.errors:
        print(f"  CHECK FAILED: {error}")
    reference = ledger.reference or ""
    if seed == DEFAULT_SEED:
        verdict = "match" if reference == recorded_digest(name) else "changed"
    else:
        verdict = f"(digests.json records seed {DEFAULT_SEED} only)"
    print(f"  result sha256 {reference} {verdict}")


def print_layers(values: Dict[str, float], units: Dict[str, str]) -> None:
    print("== per layer, traced pass")
    wall = values["traced_wall_s"]
    for layer in LAYERS + ("remainder",):
        key = "remainder_s" if layer == "remainder" else f"{layer}.self_s"
        print(f"  {layer:<12}{values[key]:>12.4f} s  {100.0 * ratio(values[key], wall):6.2f} %")
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["remainder_s"]
    print(f"  {'sum':<12}{total:>12.4f} s  vs traced wall {wall:.4f} s")
    for key, unit in units.items():
        print(f"  {key:<36}{values[key]:>16.6g} {unit}")


class Unmeasured(RuntimeError):
    """Every pass behind a metric failed, so there is no value to report."""


def traced_metrics(name: str, specs, summary: Dict[str, Any], calib: float, ledger: wl.Ledger, dirs: wl.CacheDirs) -> Dict[str, float]:
    """The per-layer metrics: a traced pass set against untraced ones."""
    # One traced pass is set against the median untraced pass, not the
    # best one, so the overhead ratio does not count contention luck.
    extra = {"calib_ms": calib, "untraced_compare_s": median(summary["raw_walls"])}
    if wl.is_grid(name):
        # The traced grid pass runs in-process, so its overhead ratio and
        # the pool's dispatch overhead are taken against in-process cells.
        cell_s = serial_cells(specs, ledger, dirs)
        extra["untraced_compare_s"] = sum(cell_s)
        extra["dispatch_overhead_s"] = (
            wl.JOBS * min(summary["raw_walls"]) - sum(cell_s)
        ) / len(specs)
    traced = traced_pass(name, specs, ledger, dirs)
    return per_layer_metrics(name, traced, summary["wall_s"], extra)


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload; returns the JSON result object."""
    ledger = wl.Ledger()
    dirs = wl.CacheDirs(SCRATCH)
    calib = calibrate_ms()
    print(
        f"perfbench: workload={name} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)} host.cpus={os.cpu_count()} host.calib_ms={calib:.3f}"
    )
    try:
        specs = wl.specs_for(name, seed)
        budget = seconds / 2.0 if trace else seconds
        if wl.is_grid(name):
            measured = measure_grid(name, seed, budget, ledger, dirs)
        else:
            measured = measure_replay(specs, budget, ledger)
        if not measured["walls"]:
            raise Unmeasured("; ".join(ledger.errors))
        speed = measured["speed"]
        wall_speed = measured["wall_speed"]
        summary = {
            "setup_s": speed.scale(median(measured["setups"])),
            "n_setups": len(measured["setups"]),
            "wall_s": wall_speed.scale(median(measured["walls"])),
            "raw_walls": measured["walls"],
            "probes": speed.probes,
            "wall_probes": wall_speed.probes,
            "wall_workers": wall_speed.workers,
        }
        if measured.get("warms"):
            summary["warm_s"] = speed.scale(median(measured["warms"]))
        if trace:
            values = traced_metrics(name, specs, summary, calib, ledger, dirs)
            units = per_layer_units()
            print_layers(values, units)
            closes = values["layers.closure_pct"] <= 1.0
            if not closes:
                ledger.errors.append(
                    f"layer table off traced wall by {values['layers.closure_pct']:.3f} %"
                )
        else:
            peaks = measure_memory(specs, ledger)
            if not peaks:
                raise Unmeasured("; ".join(ledger.errors))
            summary["peak_heap_mb"] = peaks[0]
            sim = wl.outcomes(measured["results"])
            print_end_to_end(summary, sim, ledger)
            values = {**summary, **{key: sim[key][0] for key in sim}}
            units = END_TO_END
            closes = True
        print_checks(name, seed, ledger)
    finally:
        dirs.close()
    return {
        "correct": ledger.failed == 0 and closes,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def serial_cells(specs, ledger: wl.Ledger, dirs: wl.CacheDirs) -> List[float]:
    """In-process wall of each grid cell through ``SimPool(jobs=1)`` into
    a fresh cache: the per-cell cost the pooled pass fans out."""
    cell_s: List[float] = []
    results = []
    pool = SimPool(1, cache=dirs.fresh())
    for spec in specs:
        t0 = perf_counter()
        results.extend(pool.map([spec]))
        cell_s.append(perf_counter() - t0)
    ledger.record("serial", wl.digest(results), None)
    return cell_s


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unmeasured as exc:
        print(f"perfbench: no result, every pass failed: {exc}", file=sys.stderr)
        return 1
    finally:
        wl.reap_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
