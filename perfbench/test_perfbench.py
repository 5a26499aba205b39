"""The benchmark's own checks.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs at a quarter of its benchmark size: twice traced, once
untraced.  The tests assert that every wrapper records calls on the
workload that exercises its layer (so a missed by-value import site cannot
silently zero a layer), that call counts repeat exactly for a seed, that
the layer table closes on the traced wall time, that traced and untraced
passes agree byte for byte, and that ``BENCHMARK.json`` declares exactly
the metrics the code prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SCALE = 0.25
SEED = 0

#: The workload on which each traced name must record at least one call.
EXERCISED_BY = {
    "sim.schedule": "paper",
    "sim.run": "paper",
    "schedulers.pass": "gpu_flood",
    "placement.freestate": "fleet200",
    "placement.gpu": "gpu_flood",
    "placement.cpu": "fleet200",
    "perfmodel.iteration_time": "paper",
    "cluster.allocate": "paper",
    "cluster.release": "paper",
    "cluster.resize_cpus": "paper",
    "cluster.mbm.update_demand": "paper",
    "cluster.mean_gpu_util": "fleet200",
    "core.throttle": "paper",
    "core.resize": "paper",
    "metrics.sample": "gpu_flood",
    "health.record_failure": "policy_grid_faulted",
    "health.state": "policy_grid_faulted",
    "parallel.to_dict": "policy_grid_faulted",
    "parallel.from_dict": "policy_grid_faulted",
    "parallel.cache.store": "policy_grid_faulted",
}

#: Import sites, including names imported by value into other modules,
#: and the workload that must call through each.
SITES = {
    "repro.experiments.runner.iteration_time": "paper",
    "repro.core.multiarray.place_gpu_job": "gpu_flood",
    "repro.core.multiarray.place_cpu_job": "fleet200",
    "repro.schedulers.fifo.place_gpu_job": "policy_grid_faulted",
    "repro.schedulers.fifo.place_cpu_job": "policy_grid_faulted",
    "repro.schedulers.drf.place_gpu_job": "policy_grid_faulted",
    "repro.schedulers.drf.place_cpu_job": "policy_grid_faulted",
    "repro.core.multiarray.MultiArrayScheduler.schedule": "gpu_flood",
    "repro.schedulers.fifo.FifoScheduler.schedule": "policy_grid_faulted",
    "repro.schedulers.drf.DrfScheduler.schedule": "policy_grid_faulted",
    "repro.experiments.scenarios.generate_trace": "policy_grid_faulted",
    "repro.parallel.pool.run_result_to_dict": "policy_grid_faulted",
    "repro.parallel.pool.run_result_from_dict": "policy_grid_faulted",
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: two traced passes and the ledger that checked them
    against one untraced in-process pass."""
    dirs = wl.CacheDirs(tmp_path_factory.mktemp("caches"))
    out = {}
    try:
        for name in bench.WORKLOADS:
            specs = wl.specs_for(name, SEED, SCALE)
            ledger = wl.Ledger()
            results, _, _, error = wl.run_in_process(specs)
            ledger.record("untraced", wl.digest(results), error)
            first = bench.traced_pass(name, specs, ledger, dirs)
            second = bench.traced_pass(name, specs, ledger, dirs)
            out[name] = (first, second, ledger)
    finally:
        dirs.close()
    return out


def test_every_stat_records_calls_on_its_workload(traced):
    for stat, name in EXERCISED_BY.items():
        assert traced[name][0]["stats"][stat]["calls"] >= 1, (stat, name)
    assert traced["fleet200"][0]["workload_trace_s"] > 0.0
    grid = traced["policy_grid_faulted"][0]
    assert grid["warm_stats"]["parallel.cache.load"]["calls"] >= 1
    assert grid["hits"] == len(grid["results"])


def test_every_import_site_records_calls(traced):
    for site, name in SITES.items():
        assert traced[name][0]["sites"][site] >= 1, (site, name)


def test_counts_repeat_exactly(traced):
    for name, (first, second, _) in traced.items():
        for stat in first["stats"]:
            assert (
                first["stats"][stat]["calls"] == second["stats"][stat]["calls"]
            ), (name, stat)
            assert first["stats"][stat]["hits"] == second["stats"][stat]["hits"]
        assert first["recorder"]["events"] == second["recorder"]["events"], name
        assert first["sites"] == second["sites"], name


def test_layer_table_closes(traced):
    for name, (first, _, _) in traced.items():
        table, wall = first["table"], first["wall"]
        assert all(seconds >= 0.0 for seconds in table.values()), (name, table)
        assert abs(sum(table.values()) - wall) <= 0.01 * wall, (name, table, wall)


def test_traced_and_untraced_passes_agree(traced):
    for name, (_, _, ledger) in traced.items():
        assert ledger.failed == 0, (name, ledger.errors)
        # untraced, traced twice, and for the grid the warm reruns too.
        assert ledger.attempted >= 3


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def session_members(session: int) -> list:
    """Pids of live processes whose session id is ``session``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(stat.parent.name))
    return members


def test_cli_prints_one_json_result_last(tmp_path):
    # gpu_flood's memory pass spawns a worker pool (and with it the
    # resource tracker); none of them may outlive the run.
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "gpu_flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        stdout, _ = proc.communicate(timeout=180)
    assert proc.returncode == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(bench.END_TO_END)
    if Path("/proc/self/stat").exists():
        assert session_members(proc.pid) == []


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
