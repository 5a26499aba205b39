"""Unit tests for the pricing layer's lazy completion timers and reprice
memos, and for the runner's activity-indexed monitor surface.

The parity sweep (tests/schedulers/reference_parity.py) proves lazy ==
eager (``SimulationRunner(reference=True)``) over whole simulations;
these tests pin the individual mechanisms — stale fire + re-arm,
earlier-move cancel + re-arm, the epoch-fingerprint memo — on a
:class:`JobPricing` layer built on a bare cluster and engine (no runner,
no scheduler), with hand-computable numbers.
"""

from repro import profiling
from repro.cluster.cluster import Cluster
from repro.config import small_cluster
from repro.experiments.runner import JobPricing, SimulationRunner
from repro.perfmodel.speed import iteration_time
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.fifo import FifoScheduler
from repro.sim.engine import Engine
from repro.workload.job import CpuJob, GpuJob


def _gpu(job_id, cpus=3, iters=100, submit=0.0):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=submit,
        model_name="resnet50",
        setup=TrainSetup(1, 1),
        requested_cpus=cpus,
        total_iterations=iters,
    )


def _cpu(job_id, cores=4, duration=100.0, submit=0.0):
    return CpuJob(
        job_id=job_id,
        tenant_id=2,
        submit_time=submit,
        cores=cores,
        duration_s=duration,
        bw_demand_gbps=1.0,
    )


def _runner(nodes=2, *, reference=False):
    cluster = Cluster(small_cluster(nodes=nodes))
    return SimulationRunner(
        cluster, FifoScheduler(), sample_interval_s=1e9, reference=reference
    )


class _Layer:
    """A pricing layer on a bare two-node cluster.  Jobs are placed on
    node 0 by hand; a due job is stopped, released and its finish time
    kept in ``finished``."""

    def __init__(self, *, reference=False):
        self.engine = Engine()
        self.cluster = Cluster(small_cluster(nodes=2))
        self.pricing = JobPricing(
            self.engine, self.cluster, self._due, reference=reference
        )
        self.finished = {}

    def _due(self, job_id):
        self.pricing.stop(job_id)
        self.cluster.release(job_id)
        self.finished[job_id] = self.engine.now

    def start(self, job, cpus, gpus):
        allocation = self.cluster.allocate(job.job_id, [(0, cpus, gpus)])
        self.cluster.node(0).register_memory_traffic(
            job.job_id, 1.0, is_cpu_job=gpus == 0
        )
        self.pricing.start(job, allocation)

    def at(self, when, action):
        self.engine.schedule(when, action)


class TestLazyCompletionTimers:
    """One uncontended CPU job (speed exactly 1.0) slowed by stragglers:
    every timestamp below is an exact float."""

    def _straggled(self, heal_at, *, reference=False):
        layer = _Layer(reference=reference)
        layer.start(_cpu("c", duration=100.0), cpus=4, gpus=0)
        record = layer.pricing.cpu_jobs["c"]

        def straggle(factor):
            record.straggle_factor = factor
            layer.pricing.reprice(record)

        # Slow to 0.25x at t=10: completion moves 100 -> 10 + 90/0.25.
        layer.at(10.0, lambda: straggle(0.25))
        layer.at(heal_at, lambda: straggle(1.0))
        layer.engine.run(until=10.0)
        return layer, record

    def test_later_moving_completion_fires_stale_and_rearms(self):
        layer, record = self._straggled(heal_at=1e6)
        # The old timer (armed at t=100) is deliberately left in place.
        assert record.completion_time == 370.0
        assert record.completion.time == 100.0
        layer.engine.run(until=120.0)
        # It fired stale at t=100 and re-armed at the authoritative time.
        assert layer.pricing.stale_fires == 1
        assert "c" in layer.pricing
        assert record.completion.time == 370.0
        layer.engine.run(until=500.0)
        assert layer.finished == {"c": 370.0}
        assert layer.pricing.stale_fires == 1

    def test_earlier_moving_completion_cancels_and_rearms(self):
        layer, record = self._straggled(heal_at=150.0)
        layer.engine.run(until=120.0)  # past the stale fire at t=100
        assert record.completion.time == 370.0
        # Heal at t=150: work = 10 + 0.25*140 = 45, so the completion
        # moves earlier (150 + 55 = 205 < 370) and must re-arm eagerly.
        layer.engine.run(until=160.0)
        assert record.completion_time == 205.0
        assert record.completion.time == 205.0
        layer.engine.run(until=500.0)
        assert layer.finished == {"c": 205.0}
        assert layer.pricing.stale_fires == 1

    def test_stale_fires_book_under_their_own_category(self):
        profiler = profiling.enable()
        try:
            layer, _ = self._straggled(heal_at=1e6)
            layer.engine.set_profiler(profiler)
            layer.engine.run(until=500.0)
        finally:
            profiling.disable()
        assert profiler.counters["completion-stale"] == 1
        assert "completion-stale" in profiler.timers
        assert layer.finished == {"c": 370.0}

    def test_eager_hatch_never_fires_stale(self):
        layer, record = self._straggled(heal_at=1e6, reference=True)
        # Eager cancel+reschedule keeps the armed timer authoritative.
        assert record.completion.time == 370.0
        layer.engine.run(until=500.0)
        assert layer.pricing.stale_fires == 0
        assert layer.finished == {"c": 370.0}


class TestRepriceMemo:
    def _counting_layer(self, monkeypatch, *, reference=False):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return iteration_time(*args, **kwargs)

        monkeypatch.setattr(
            "repro.experiments.runner.iteration_time", counting
        )
        layer = _Layer(reference=reference)
        layer.start(_gpu("j", iters=10**9), cpus=3, gpus=1)
        layer.engine.run(until=10.0)
        return layer, calls

    def test_unchanged_epochs_skip_iteration_time(self, monkeypatch):
        layer, calls = self._counting_layer(monkeypatch)
        baseline = len(calls)
        layer.pricing.touch([0])
        # Nothing on the node changed since the start-time reprice: the
        # epoch fingerprint hits and the model is not re-evaluated...
        assert len(calls) == baseline
        # ...but progress accrual still happened.
        assert layer.pricing.gpu_jobs["j"].last_update == 10.0

    def test_epoch_bump_invalidates_memo(self, monkeypatch):
        layer, calls = self._counting_layer(monkeypatch)
        baseline = len(calls)
        # A bandwidth-demand change re-arbitrates grants, bumping the
        # node's monitor epoch: the fingerprint must miss.
        layer.cluster.node(0).bandwidth.update_demand("j", 99.0)
        layer.pricing.touch([0])
        assert len(calls) == baseline + 1

    def test_eager_hatch_always_recomputes(self, monkeypatch):
        layer, calls = self._counting_layer(monkeypatch, reference=True)
        baseline = len(calls)
        layer.pricing.touch([0])
        assert len(calls) == baseline + 1


class TestActivityIndexedMonitor:
    def test_active_set_tracks_cpu_hosts(self):
        runner = _runner()
        assert list(runner.monitor_active_node_ids()) == []
        runner.submit_at(0.0, _cpu("c", duration=50.0))
        runner.engine.run(until=1.0)
        node_id = runner.pricing.cpu_jobs["c"].node_id
        assert list(runner.monitor_active_node_ids()) == [node_id]
        # Only the eliminator revokes membership (after a successful
        # observe found nothing to do); job completion alone keeps the
        # node listed until then.
        runner.engine.run(until=60.0)
        assert "c" not in runner.pricing
        assert list(runner.monitor_active_node_ids()) == [node_id]
        runner.monitor_deactivate_node(node_id)
        assert list(runner.monitor_active_node_ids()) == []

    def test_telemetry_outage_activates_node(self):
        runner = _runner()
        runner.begin_telemetry_outage(1, duration_s=60.0)
        assert list(runner.monitor_active_node_ids()) == [1]

    def test_backfill_reconstructs_eager_sample_stamp(self):
        runner = _runner()
        # Ticks at t=40 happened while node 1 was skippable...
        runner.monitor_note_tick(40.0)
        runner.engine.run(until=50.0)
        runner._monitor_activate(1)
        # ...so on activation its MBM stamp reads as refreshed at t=40.
        assert runner.cluster.node(1).bandwidth.sample_age(50.0) == 10.0

    def test_no_backfill_while_node_was_unobservable(self):
        runner = _runner()
        runner.engine.run(until=50.0)
        runner.fail_node(1)  # vetoes back-fill until recovery
        runner.monitor_note_tick(60.0)
        runner._monitor_activate(1)
        assert runner.cluster.node(1).bandwidth.sample_age(60.0) == float(
            "inf"
        )

    def test_eager_hatch_ticks_every_node(self):
        runner = _runner(nodes=3, reference=True)
        assert list(runner.monitor_active_node_ids()) == [0, 1, 2]
        runner.monitor_deactivate_node(1)
        assert list(runner.monitor_active_node_ids()) == [0, 1, 2]


class TestStaleFiresInRunResult:
    def test_scalar_surfaces_in_run_result(self):
        runner = _runner()
        runner.submit_at(0.0, _cpu("c", duration=100.0))
        runner.engine.run(until=10.0)
        runner.apply_cpu_straggler("c", factor=0.25, duration_s=1e6)
        result = runner.run(until=500.0)
        assert result.stale_timer_fires == 1
        # Stale fires are the only event-count difference vs eager, so
        # this identity is what the parity sweep compares across modes.
        assert result.events_fired > result.stale_timer_fires
