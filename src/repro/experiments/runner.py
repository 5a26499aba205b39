"""The simulation driver.

:class:`SimulationRunner` executes a job trace under a scheduling policy on
a simulated cluster:

* arrivals and completions are discrete events;
* every running job carries (work_done, speed); *any* change of conditions
  on its nodes — a CPU job starting or finishing, a throttle, a core
  retune, a new co-located trainer — re-prices its speed from the
  performance model and re-aims its completion event.  This
  progress-based execution, :class:`JobPricing`, is what lets contention
  and adaptive allocation show up in end-to-end latencies;
* the runner implements :class:`~repro.schedulers.base.SchedulerContext`,
  the runtime-control surface CODA's allocator and eliminator act through.
"""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass, field
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import profiling
from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.health.config import HealthConfig
from repro.health.tracker import NodeHealthTracker
from repro.metrics.collector import MetricsCollector
from repro.perfmodel.bandwidth import memory_bandwidth_demand
from repro.perfmodel.catalog import ModelProfile, get_model
from repro.perfmodel.contention import (
    BANDWIDTH_PRESSURE_THRESHOLD,
    ContentionState,
    effect_key,
)
from repro.perfmodel.pcie import pcie_peak_demand
from repro.perfmodel.speed import iteration_time
from repro.schedulers.base import (
    Decision,
    PreemptDecision,
    Scheduler,
    SchedulerContext,
    StartDecision,
)
from repro.sim.engine import Engine
from repro.sim.events import EventHandle, EventPriority
from repro.experiments.auditlog import AuditLog
from repro.workload.job import CpuJob, GpuJob, Job, JobKind
from repro.workload.tracegen import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.invariants import InvariantAuditor
    from repro.faults.injector import FaultInjector

#: LLC footprint a training job's CPU-side workers occupy (MB per node).
GPU_JOB_LLC_MB = 2.0

#: Fraction of an ordinary (non-HEAT) CPU job's work that stalls on memory
#: bandwidth; the rest is compute and ignores throttling.
ORDINARY_CPU_BW_BOUND = 0.15

#: Default cluster-state sampling cadence (the paper samples utilization
#: continuously; five minutes keeps week-long runs cheap and smooth).
DEFAULT_SAMPLE_INTERVAL_S = 300.0


@dataclass
class _RunningJob:
    """The fields every running job's record shares.

    ``completion_time`` is the authoritative completion time.  The armed
    ``completion`` event may lag behind it (fire earlier) when repricing
    moved the completion later: the stale fire finds ``completion_time >
    now`` and re-arms (validate-on-pop, the ShareHeap idiom).  Invariant:
    armed time <= completion_time.
    """

    job: Job
    work_done: float
    speed: float
    last_update: float
    completion: Optional[EventHandle] = field(default=None, init=False)
    completion_time: float = field(default=0.0, init=False)
    #: Fingerprint of the last full reprice (see each record type's
    #: ``fingerprint``): a match proves nothing the speed model reads
    #: changed, so the price is reused verbatim ([[cache]] contracts in
    #: contracts.toml).
    reprice_memo: Optional[Tuple[Any, ...]] = field(default=None, init=False)
    #: Work to completion and the completion timer's tag, fixed for the
    #: record's lifetime.  Plain attributes, not properties: the reprice
    #: hot path reads them on every call.
    total_work: float = field(init=False)
    done_tag: str = field(init=False)


@dataclass
class _RunningGpu(_RunningJob):
    job: GpuJob
    cores_per_node: int
    utilization: float
    cluster: InitVar[Cluster]
    #: The model profile, interconnect and participating Node objects,
    #: all fixed for the record's lifetime (a restarted job gets a fresh
    #: record); pinned to keep per-reprice lookups off the hot path.
    profile: ModelProfile = field(init=False)
    interconnect: Any = field(init=False)
    nodes: List[Node] = field(init=False)
    #: (cores_per_node, contention effect key) of the last
    #: ``iteration_time`` call — the fallback memo when epochs moved but
    #: the values the speed model actually reads (grant ratio, post-knee
    #: bandwidth/LLC excess, PCIe ratio — see ``contention.effect_key``)
    #: landed unchanged ([[cache]] contract).
    state_memo: Optional[Tuple[Any, ...]] = field(default=None, init=False)

    def __post_init__(self, cluster: Cluster) -> None:
        job_id = self.job.job_id
        node_ids = cluster.allocation_of(job_id).node_ids
        self.profile = get_model(self.job.model_name)
        self.interconnect = cluster.fabric.for_nodes(node_ids)
        self.nodes = [cluster.node(node_id) for node_id in node_ids]
        self.total_work = self.job.total_iterations
        self.done_tag = f"gpu-done:{job_id}"

    def fingerprint(self) -> Tuple[Any, ...]:
        """The contention epochs of every node the job spans: matching
        epochs prove no grant, LLC occupancy or PCIe demand it can see
        has changed."""
        parts: List[Any] = [self.cores_per_node]
        for node in self.nodes:
            parts.append(node.bandwidth.epoch)
            parts.append(node.contention_epoch)
        return tuple(parts)

    def price(self, memo: bool) -> None:
        """Speed and utilization under the worst contention across the
        job's nodes (iterations are paced by the slowest participant).

        With ``memo``, a :class:`ContentionState` that landed on the same
        effect key as last time skips the ``iteration_time`` call and the
        idempotent utilization re-writes (bit-identical: the model is a
        pure function of that key).
        """
        job_id = self.job.job_id
        nodes = self.nodes
        grant, pressure, llc, pcie = 1.0, 0.0, 0.0, 1.0
        for node in nodes:
            bandwidth = node.bandwidth
            grant = min(grant, bandwidth.grant_ratio(job_id))
            pressure = max(pressure, bandwidth.pressure)
            llc = max(llc, node.llc_pressure)
            pcie = min(pcie, node.pcie.grant_ratio())
        contention = ContentionState(
            bw_grant_ratio=max(grant, 1e-6),
            node_bw_pressure=pressure,
            llc_pressure=llc,
            pcie_grant_ratio=pcie,
        )
        state_key = (self.cores_per_node,) + effect_key(contention)
        if not memo or state_key != self.state_memo:
            breakdown = iteration_time(
                self.profile,
                self.job.setup,
                self.cores_per_node,
                contention,
                interconnect=self.interconnect,
            )
            self.speed = 1.0 / breakdown.total_s
            self.utilization = breakdown.utilization
            for node in nodes:
                node.set_gpu_utilization(job_id, self.utilization)
            self.state_memo = state_key

    def row(self) -> List[Any]:
        """The record's checkpoint row (see :meth:`JobPricing.restore`)."""
        return [
            self.cores_per_node,
            self.work_done,
            self.speed,
            self.utilization,
            self.last_update,
            self.completion_time,
        ]


@dataclass
class _RunningCpu(_RunningJob):
    job: CpuJob
    node_id: int
    cores: int
    cluster: InitVar[Cluster]
    #: Fault-injected slowdown (1.0 = healthy); multiplies the speed.
    straggle_factor: float = 1.0
    #: The home Node object, fixed for the record's lifetime.
    node: Node = field(init=False)

    def __post_init__(self, cluster: Cluster) -> None:
        self.node = cluster.node(self.node_id)
        self.total_work = self.job.duration_s
        self.done_tag = f"cpu-done:{self.job.job_id}"

    def fingerprint(self) -> Tuple[Any, ...]:
        """Everything the speed model reads: core count, fault factor,
        and the bandwidth grant (covered by the monitor epoch)."""
        return (self.cores, self.straggle_factor, self.node.bandwidth.epoch)

    def price(self, memo: bool) -> None:
        core_factor = self.cores / self.job.cores
        # HEAT-like jobs are pure bandwidth streamers and slow in direct
        # proportion to their grant; ordinary CPU jobs are mostly
        # compute-bound and only a small fraction of their work stalls.
        grant = self.node.bandwidth.grant_ratio(self.job.job_id)
        if self.job.is_heat:
            bw_factor = grant
        else:
            bw_factor = (1.0 - ORDINARY_CPU_BW_BOUND) + ORDINARY_CPU_BW_BOUND * grant
        self.speed = max(1e-9, core_factor * bw_factor * self.straggle_factor)

    def row(self) -> List[Any]:
        """The record's checkpoint row (see :meth:`JobPricing.restore`)."""
        return [
            self.node_id,
            self.cores,
            self.work_done,
            self.speed,
            self.last_update,
            self.straggle_factor,
            self.completion_time,
        ]


class JobPricing:
    """Progress-based execution of running jobs: the pricing layer.

    Every running job carries (work_done, speed).  Any change of
    conditions on its nodes — a CPU job starting or finishing, a
    throttle, a core retune, a new co-located trainer — re-prices its
    speed from the performance model and re-aims its completion timer;
    that is what lets contention and adaptive allocation show up in
    end-to-end latencies.  The layer owns the running-job records,
    accrual, both reprice memos, the lazy completion timers (armed,
    aimed, validated when they fire stale), the progress stashed by
    preemptions, and the records' checkpoint rows.  ``on_due(job_id)``
    runs when a job's completion timer fires at its authoritative time.

    ``reference=True`` builds the plain layer every memo must reproduce:
    full re-pricing on every touch and eager cancel+re-arm timers, which
    never fire stale.
    """

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        on_due: Callable[[str], None],
        reference: bool = False,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self._on_due = on_due
        self._lazy = not reference
        self.gpu_jobs: Dict[str, _RunningGpu] = {}
        self.cpu_jobs: Dict[str, _RunningCpu] = {}
        #: Progress a preempted or failed training job resumes from.
        self._stashed: Dict[str, float] = {}
        #: Lazy completion timers that fired early and were re-armed.
        self.stale_fires = 0

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.gpu_jobs or job_id in self.cpu_jobs

    def start(self, job: Union[GpuJob, CpuJob], allocation: Allocation) -> None:
        """Track a job that just started on ``allocation``: price it, arm
        its completion, then re-price everything sharing its nodes."""
        now = self.engine.now
        share = allocation.shares[0]
        record: Union[_RunningGpu, _RunningCpu]
        if isinstance(job, GpuJob):
            record = self.gpu_jobs[job.job_id] = _RunningGpu(
                job=job,
                work_done=self._stashed.pop(job.job_id, 0.0),
                speed=0.0,
                last_update=now,
                cores_per_node=share.cpus,
                utilization=0.0,
                cluster=self.cluster,
            )
        else:
            record = self.cpu_jobs[job.job_id] = _RunningCpu(
                job=job,
                work_done=0.0,
                speed=0.0,
                last_update=now,
                node_id=share.node_id,
                cores=share.cpus,
                cluster=self.cluster,
            )
        self.reprice(record)
        self.touch(allocation.node_ids)

    def stop(self, job_id: str) -> Union[_RunningGpu, _RunningCpu]:
        """Drop a running job's record, accrue its progress to now and
        cancel its completion timer (a no-op for the timer now firing)."""
        record = self.gpu_jobs.pop(job_id, None) or self.cpu_jobs.pop(job_id)
        record.work_done += record.speed * (self.engine.now - record.last_update)
        assert record.completion is not None
        record.completion.cancel()
        return record

    def stash(self, job_id: str, work_done: float) -> None:
        """Keep ``work_done`` for the job's next start."""
        self._stashed[job_id] = work_done

    def touch(self, node_ids: Iterable[int]) -> None:
        """Re-price every job touching the given nodes.

        Job ids land in lists (the ``seen`` set only guards against a
        multi-node gang appearing under several of its nodes; CPU jobs
        are single-node) and each list is sorted once: training jobs
        first, then CPU jobs, each in job-id order — the order the
        decision stream depends on.
        """
        gpu_ids: List[str] = []
        cpu_ids: List[str] = []
        seen: Set[str] = set()
        gpu_jobs = self.gpu_jobs
        cpu_jobs = self.cpu_jobs
        for node_id in sorted(node_ids):
            for job_id in self.cluster.node(node_id).jobs_here():
                if job_id in gpu_jobs:
                    if job_id not in seen:
                        seen.add(job_id)
                        gpu_ids.append(job_id)
                elif job_id in cpu_jobs:
                    cpu_ids.append(job_id)
        gpu_ids.sort()
        cpu_ids.sort()
        for job_id in gpu_ids:
            self.reprice(gpu_jobs[job_id])
        for job_id in cpu_ids:
            self.reprice(cpu_jobs[job_id])

    def reprice(self, record: Union[_RunningGpu, _RunningCpu]) -> None:
        """Memo check, accrue, price, aim: the one pricing path.

        A fingerprint equal to ``reprice_memo`` reuses the last price
        verbatim; within the same event instant the armed completion
        target provably holds too and the call returns outright.  The
        timer is only re-armed when the completion moved earlier: a later
        target leaves it armed early, to fire stale and re-arm
        (validate-on-pop) — cheaper than a cancel+push on every touch.
        """
        now = self.engine.now
        lazy = self._lazy
        fingerprint = record.fingerprint() if lazy else None
        hit = lazy and fingerprint == record.reprice_memo
        if hit and record.last_update == now and record.completion is not None:
            return  # same instant, same epochs: the armed target holds
        record.work_done += record.speed * (now - record.last_update)
        record.last_update = now
        if not hit:
            record.price(lazy)
            record.reprice_memo = fingerprint
        target = now + max(0.0, (record.total_work - record.work_done) / record.speed)
        record.completion_time = target
        completion = record.completion
        if completion is not None:
            if lazy and target >= completion.time:
                return
            completion.cancel()
        self._arm(record, target)

    def _arm(self, record: _RunningJob, when: float) -> None:
        job_id = record.job.job_id
        record.completion = self.engine.schedule(
            when,
            lambda job_id=job_id: self._on_fire(job_id),
            priority=EventPriority.COMPLETION,
            tag=record.done_tag,
        )

    def _on_fire(self, job_id: str) -> None:
        record = self.gpu_jobs.get(job_id) or self.cpu_jobs[job_id]
        if record.completion_time > self.engine.now:
            # Validate-on-pop: repricing moved the completion later and
            # left this timer armed early, so the fire is stale.  Re-arm
            # at the authoritative time, count it, and book its (tiny)
            # cost under ``completion-stale`` so completion accounting
            # stays honest.  A reference layer never gets here.
            self._arm(record, record.completion_time)
            self.stale_fires += 1
            self.engine.recategorize_current_event("completion-stale")
            profiling.count("completion-stale")
            return
        self._on_due(job_id)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot(self) -> Dict[str, Any]:
        """Records as checkpoint rows, stashed progress, stale fires.

        Model profiles and pinned nodes are re-derived on restore and
        completion handles are reconnected by :meth:`rearm`, so neither
        serializes.
        """
        return {
            "running_gpu": {
                job_id: record.row() for job_id, record in self.gpu_jobs.items()
            },
            "running_cpu": {
                job_id: record.row() for job_id, record in self.cpu_jobs.items()
            },
            "stashed_progress": dict(self._stashed),
            "stale_timer_fires": self.stale_fires,
        }

    def restore(self, state: Dict[str, Any], jobs_by_id: Dict[str, Job]) -> None:
        """Rebuild the records from :meth:`snapshot` rows (the cluster is
        restored first).  Memos start cold: the first reprice recomputes
        everything from restored cluster state, which is bit-identical
        because the speed models are pure."""
        self.gpu_jobs = {}
        for job_id, row in state["running_gpu"].items():
            cores, work_done, speed, utilization, last_update, due = row
            job = jobs_by_id[job_id]
            if not isinstance(job, GpuJob):
                raise TypeError(f"checkpoint row for {job_id} is not a training job")
            gpu = self.gpu_jobs[job_id] = _RunningGpu(
                job=job,
                work_done=float(work_done),
                speed=float(speed),
                last_update=float(last_update),
                cores_per_node=int(cores),
                utilization=float(utilization),
                cluster=self.cluster,
            )
            gpu.completion_time = float(due)
        self.cpu_jobs = {}
        for job_id, row in state["running_cpu"].items():
            node_id, cores, work_done, speed, last_update, straggle, due = row
            job = jobs_by_id[job_id]
            if not isinstance(job, CpuJob):
                raise TypeError(f"checkpoint row for {job_id} is not a CPU job")
            cpu = self.cpu_jobs[job_id] = _RunningCpu(
                job=job,
                work_done=float(work_done),
                speed=float(speed),
                last_update=float(last_update),
                node_id=int(node_id),
                cores=int(cores),
                cluster=self.cluster,
                straggle_factor=float(straggle),
            )
            cpu.completion_time = float(due)
        self._stashed = {
            job_id: float(progress)
            for job_id, progress in state["stashed_progress"].items()
        }
        self.stale_fires = int(state["stale_timer_fires"])

    def rearm(self) -> None:
        """Re-claim the ``gpu-done:``/``cpu-done:`` timers from the engine
        inventory (inside its restore window, after :meth:`restore`) and
        verify no running job was left without one."""
        engine = self.engine
        for tag in engine.pending_rearm_tags():
            family, _, job_id = tag.partition(":")
            if family in ("gpu-done", "cpu-done"):
                record = self.gpu_jobs.get(job_id) or self.cpu_jobs[job_id]
                record.completion = engine.rearm(
                    tag, lambda job_id=job_id: self._on_fire(job_id)
                )
        for job_id, running in chain(self.gpu_jobs.items(), self.cpu_jobs.items()):
            if running.completion is None:
                raise RuntimeError(
                    f"restore left running job {job_id} without a "
                    "completion event"
                )


@dataclass
class RunResult:
    """What a completed run hands to the figures layer."""

    scheduler_name: str
    collector: MetricsCollector
    horizon_s: float
    finished_gpu_jobs: int = 0
    finished_cpu_jobs: int = 0
    preemptions: int = 0
    events_fired: int = 0
    #: Jobs killed and re-queued by infrastructure failures.
    restarts: int = 0
    #: Total node downtime over the horizon (still-open outages included).
    node_downtime_s: float = 0.0
    #: Quarantine windows entered by the node-health tracker.
    quarantines: int = 0
    #: Node-seconds spent quarantined through the horizon.
    quarantine_s: float = 0.0
    #: Jobs retired to the dead-job ledger (restart budget exhausted).
    dead_jobs: int = 0
    #: Eliminator actions suppressed by the flap cooldown (CODA only;
    #: zero for schedulers without an eliminator).
    flap_suppressions: int = 0
    #: Lazy completion timers that fired before their job's authoritative
    #: completion time and were re-armed (zero in a
    #: ``SimulationRunner(reference=True)`` run, whose timers are eager).
    #: ``events_fired`` minus this count is comparable across the two.
    stale_timer_fires: int = 0


def _env_auditor() -> Optional["InvariantAuditor"]:
    """A strict invariant auditor when ``REPRO_AUDIT`` is set.

    Lets CI (and any local run) execute the whole test suite with every
    simulation audited — ``REPRO_AUDIT=1 python -m pytest`` — without
    threading an argument through every call site.
    """
    if not os.environ.get("REPRO_AUDIT"):
        return None
    from repro.analysis.invariants import InvariantAuditor

    return InvariantAuditor(strict=True)


class SimulationRunner(SchedulerContext):
    """Drives one (trace, scheduler, cluster) simulation.

    The runner keeps the event handlers, the scheduler-facing control
    surface and the monitor-activity index; its :class:`JobPricing`
    layer (``pricing``) prices the running jobs.

    ``reference=True`` runs the plain algorithms every speed layer must
    reproduce decision for decision (the parity suite's oracle): eager
    re-pricing and completion timers, every node on every monitor tick,
    and (told at attach) full-rescan scheduling with linear tenant picks.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        trace: Optional[Trace] = None,
        *,
        sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        engine: Optional[Engine] = None,
        collector: Optional[MetricsCollector] = None,
        audit: Optional["AuditLog"] = None,
        fault_injector: Optional["FaultInjector"] = None,
        auditor: Optional["InvariantAuditor"] = None,
        health_config: Optional[HealthConfig] = None,
        reference: bool = False,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError(f"non-positive sample interval: {sample_interval_s}")
        self.cluster = cluster
        if health_config is not None:
            cluster.health = NodeHealthTracker(health_config)
        self.health = cluster.health
        self.scheduler = scheduler
        self.engine = engine or Engine()
        self.collector = collector or MetricsCollector()
        self.audit = audit
        self.fault_injector = fault_injector
        self.auditor = auditor if auditor is not None else _env_auditor()
        self._sample_interval_s = sample_interval_s
        self.pricing = JobPricing(
            self.engine, cluster, self._on_complete, reference
        )
        self._pass_pending = False
        self._preemptions = 0
        self._sampling = False
        #: Per-job start counter distinguishing incarnations of a restarted
        #: CPU job, so straggler-heal timers (whose tags carry the
        #: incarnation) never touch a successor of the record they slowed.
        self._cpu_incarnation: Dict[str, int] = {}
        self._straggle_count = 0
        self.reference = reference
        #: Nodes the eliminator must tick: hosts of CPU jobs or live
        #: throttles, plus telemetry-outage nodes until a successful
        #: observe clears them.  See the "Activity-indexed monitoring"
        #: section for the skip-soundness invariant.  A reference run
        #: holds every node, always.
        self._monitor_active: Set[int] = (
            set(range(len(cluster.nodes))) if reference else set()
        )
        self._monitor_last_tick: Optional[float] = None
        #: When each node last became observable (up, unquarantined);
        #: +inf while it is not.  Missing means observable since t=0.
        self._observable_since: Dict[int, float] = {}
        active_profiler = profiling.active()
        if active_profiler is not None:
            self.engine.set_profiler(active_profiler)
        scheduler.attach(self)
        if fault_injector is not None:
            fault_injector.attach(self)
        if self.auditor is not None:
            self.auditor.attach(self)
        if trace is not None:
            self.load_trace(trace)

    # ------------------------------------------------------------------ #
    # Setup

    def load_trace(self, trace: Trace) -> None:
        """Schedule every trace job's arrival event."""
        for job in trace.jobs:
            self.submit_at(job.submit_time, job)

    def submit_at(self, when: float, job: Job) -> None:
        self.engine.schedule(
            when,
            lambda job=job: self._on_arrival(job),
            priority=EventPriority.ARRIVAL,
            tag=f"arrival:{job.job_id}",
        )

    def enable_sampling(self) -> None:
        """Start the periodic cluster-state sampler (idempotent)."""
        if self._sampling:
            return
        self._sampling = True
        self.engine.schedule(
            self.engine.now,
            self._on_sample,
            priority=EventPriority.MONITOR,
            tag="sample",
        )

    def run(self, until: float) -> RunResult:
        """Run the simulation to the ``until`` horizon (seconds)."""
        self.enable_sampling()
        self.engine.run(until=until)
        if self.auditor is not None:
            self.auditor.check_now()
        return RunResult(
            scheduler_name=self.scheduler.name,
            collector=self.collector,
            horizon_s=until,
            finished_gpu_jobs=len(self.collector.finished_records(JobKind.GPU)),
            finished_cpu_jobs=len(self.collector.finished_records(JobKind.CPU)),
            preemptions=self._preemptions,
            events_fired=self.engine.fired,
            restarts=self.collector.faults.restarts,
            node_downtime_s=self.collector.faults.downtime_through(
                self.engine.now
            ),
            quarantines=self.collector.faults.quarantines,
            quarantine_s=self.health.total_quarantine_s(self.engine.now),
            dead_jobs=len(self.scheduler.dead_jobs),
            flap_suppressions=getattr(
                getattr(self.scheduler, "eliminator", None),
                "flap_suppressions",
                0,
            ),
            stale_timer_fires=self.pricing.stale_fires,
        )

    def _audit(self, event: str, job: Job, **detail: object) -> None:
        if self.audit is None:
            return
        self.audit.record(
            self.engine.now,
            event,
            job.job_id,
            job.tenant_id,
            job.kind.value,
            **detail,
        )

    # ------------------------------------------------------------------ #
    # SchedulerContext (the surface CODA acts through)

    @property
    def now(self) -> float:
        return self.engine.now

    def schedule_event(
        self, delay_s: float, action: Callable[[], None], tag: str = ""
    ) -> EventHandle:
        return self.engine.schedule_in(
            delay_s, action, priority=EventPriority.MONITOR, tag=tag
        )

    def resize_gpu_job_cores(self, job_id: str, cpus_per_node: int) -> bool:
        record = self.pricing.gpu_jobs.get(job_id)
        if record is None:
            return False
        if cpus_per_node < 1:
            raise ValueError(f"{job_id}: need at least one core per node")
        allocation = self.cluster.allocation_of(job_id)
        for share in allocation.shares:
            node = self.cluster.node(share.node_id)
            if cpus_per_node - share.cpus > node.free_cpus:
                return False
        self.cluster.resize_cpus(
            job_id, {share.node_id: cpus_per_node for share in allocation.shares}
        )
        record.cores_per_node = cpus_per_node
        self.collector.job_resized(job_id, cpus_per_node)
        self._audit("resized", record.job, cores_per_node=cpus_per_node)
        demand = memory_bandwidth_demand(
            record.profile, record.job.setup, cpus_per_node
        )
        for share in allocation.shares:
            self.cluster.node(share.node_id).bandwidth.update_demand(
                job_id, demand
            )
        self.pricing.touch(allocation.node_ids)
        return True

    def gpu_job_utilization(self, job_id: str) -> float:
        record = self.pricing.gpu_jobs.get(job_id)
        if record is None:
            raise KeyError(f"job {job_id} is not a running GPU job")
        return record.utilization

    def gpu_job_expected_utilization(self, job_id: str) -> float:
        record = self.pricing.gpu_jobs.get(job_id)
        if record is None:
            raise KeyError(f"job {job_id} is not a running GPU job")
        quiet = iteration_time(
            record.profile,
            record.job.setup,
            record.cores_per_node,
            interconnect=record.interconnect,
        )
        return quiet.utilization

    def throttle_cpu_job(self, job_id: str, node_id: int) -> bool:
        node = self.cluster.node(node_id)
        if not node.mba.supported:
            return False
        node.mba.throttle_down(job_id)
        self.collector.throttle_events += 1
        record = self.pricing.cpu_jobs.get(job_id)
        if record is not None:
            self._audit(
                "throttled",
                record.job,
                node_id=node_id,
                level=node.mba.throttle_level(job_id),
            )
        self.pricing.touch((node_id,))
        return True

    def release_cpu_throttle(self, job_id: str, node_id: int) -> None:
        node = self.cluster.node(node_id)
        node.mba.release(job_id)
        self.pricing.touch((node_id,))

    def halve_cpu_job_cores(self, job_id: str) -> None:
        record = self.pricing.cpu_jobs.get(job_id)
        if record is None:
            raise KeyError(f"job {job_id} is not a running CPU job")
        new_cores = max(1, record.cores // 2)
        if new_cores == record.cores:
            return
        node = self.cluster.node(record.node_id)
        self.cluster.resize_cpus(job_id, {record.node_id: new_cores})
        scale = new_cores / record.cores
        record.cores = new_cores
        usage = node.bandwidth.usage_of(job_id)
        node.bandwidth.update_demand(job_id, usage.demand * scale)
        self.collector.core_halving_events += 1
        self.scheduler.cpu_job_resized(job_id, new_cores, self.engine.now)
        self._audit("halved", record.job, cores=new_cores)
        self.pricing.touch((record.node_id,))
        self.request_schedule()

    def preempt_job(
        self, job_id: str, *, preserve_progress: bool, reason: str
    ) -> None:
        self._execute_preempt(
            PreemptDecision(
                job_id=job_id, reason=reason, preserve_progress=preserve_progress
            )
        )
        self.request_schedule()

    # ------------------------------------------------------------------ #
    # Activity-indexed monitoring (the eliminator's tick surface)
    #
    # The eliminator's per-node work is a no-op unless the node hosts CPU
    # jobs or live throttles, so its tick iterates an incrementally
    # maintained active set instead of the whole cluster.  Skip-soundness
    # invariant: a node outside the set was up, unquarantined,
    # telemetry-up and CPU-idle at every tick it was skipped for —
    # membership is granted *before* any of those can stop holding (a CPU
    # job starts, a telemetry outage begins) and only revoked by the
    # eliminator itself right after a successful observe found nothing to
    # do.  The only eager-tick state a skipped node would have gained is
    # its MBM sample timestamp, which :meth:`_monitor_backfill`
    # reconstructs whenever the invariant is about to stop holding.

    def monitor_active_node_ids(self) -> Sequence[int]:
        return sorted(self._monitor_active)

    def monitor_deactivate_node(self, node_id: int) -> None:
        if not self.reference:
            self._monitor_active.discard(node_id)

    def monitor_note_tick(self, now: float) -> None:
        self._monitor_last_tick = now

    def _monitor_backfill(self, node_id: int) -> None:
        """Reconstruct the MBM sample stamp eager ticks would have left.

        While a node sits outside the active set it is provably
        telemetry-up at every skipped tick, so an eager monitor would
        have refreshed its sample time each tick; adopt the last tick
        time before the skip invariant stops holding.  ``_observable_since``
        is +inf while the node is down or quarantined, which vetoes the
        back-fill — eager ticks skip unobservable nodes too, leaving
        their stamp frozen.
        """
        if node_id in self._monitor_active:
            return
        last_tick = self._monitor_last_tick
        if last_tick is not None and last_tick >= self._observable_since.get(
            node_id, 0.0
        ):
            self.cluster.node(node_id).bandwidth.sync_sample_time(last_tick)

    def _monitor_activate(self, node_id: int) -> None:
        """Add a node to the active set (back-filling its sample stamp)."""
        self._monitor_backfill(node_id)
        self._monitor_active.add(node_id)

    def _monitor_node_unobservable(self, node_id: int) -> None:
        """The node crashed or entered quarantine: freeze its stamp where
        an eager monitor would have left it and veto back-fills until it
        is observable again."""
        self._monitor_backfill(node_id)
        self._observable_since[node_id] = float("inf")

    # ------------------------------------------------------------------ #
    # Scheduling passes

    def request_schedule(self) -> None:
        """Coalesce pass requests: at most one pass per simulation instant."""
        if self._pass_pending:
            return
        self._pass_pending = True
        self.engine.schedule(
            self.engine.now,
            self._run_pass,
            priority=EventPriority.SCHEDULE,
            tag="schedule-pass",
        )

    def _run_pass(self) -> None:
        self._pass_pending = False
        if self.scheduler.can_skip_pass(self.cluster):
            # Incremental fast path: nothing relevant changed since the
            # last pass, so schedule() would provably return zero
            # decisions.  The pass *event* still fired (event counts and
            # ordering stay byte-identical); only its cost is booked
            # under a distinct profiling category.
            self.engine.recategorize_current_event("schedule-skip")
            profiling.count("schedule-skips")
            return
        decisions = self.scheduler.schedule(self.cluster, self.engine.now)
        for decision in decisions:
            self._execute(decision)

    def _execute(self, decision: Decision) -> None:
        if isinstance(decision, StartDecision):
            self._start_job(decision.job, list(decision.placements))
        elif isinstance(decision, PreemptDecision):
            self._execute_preempt(decision)
        else:
            raise TypeError(f"unknown decision type: {type(decision).__name__}")

    # ------------------------------------------------------------------ #
    # Arrivals and starts

    def _on_arrival(self, job: Job) -> None:
        now = self.engine.now
        self.collector.job_submitted(job, now)
        self._audit("submitted", job)
        self.scheduler.submit(job, now)
        self.request_schedule()

    def _start_job(
        self, job: Job, placements: Sequence[Tuple[int, int, int]]
    ) -> None:
        allocation = self.cluster.allocate(
            job.job_id, [(n, c, g) for n, c, g in placements]
        )
        now = self.engine.now
        if isinstance(job, GpuJob):
            self._start_gpu_job(job, allocation, now)
        elif isinstance(job, CpuJob):
            self._start_cpu_job(job, allocation, now)
        else:
            raise TypeError(f"unknown job type: {type(job).__name__}")
        self.scheduler.job_started(job, placements, now)

    def _start_gpu_job(
        self, job: GpuJob, allocation: Allocation, now: float
    ) -> None:
        profile = get_model(job.model_name)
        cores = allocation.shares[0].cpus
        demand = memory_bandwidth_demand(profile, job.setup, cores)
        pcie = pcie_peak_demand(profile, job.setup)
        for share in allocation.shares:
            self.cluster.node(share.node_id).register_memory_traffic(
                job.job_id,
                demand,
                is_cpu_job=False,
                llc_mb=GPU_JOB_LLC_MB,
                pcie_gbps=pcie,
            )
        self.collector.job_started(job.job_id, now, cores)
        self._audit(
            "started",
            job,
            cores_per_node=cores,
            nodes=list(allocation.node_ids),
            model=job.model_name,
        )
        self.pricing.start(job, allocation)

    def _start_cpu_job(
        self, job: CpuJob, allocation: Allocation, now: float
    ) -> None:
        share = allocation.shares[0]
        node = self.cluster.node(share.node_id)
        node.register_memory_traffic(
            job.job_id,
            job.bw_demand_gbps,
            is_cpu_job=True,
            is_inference=job.is_inference,
            llc_mb=job.llc_mb,
        )
        self._monitor_activate(share.node_id)
        self._cpu_incarnation[job.job_id] = (
            self._cpu_incarnation.get(job.job_id, 0) + 1
        )
        self.collector.job_started(job.job_id, now, share.cpus)
        self._audit("started", job, cores=share.cpus, nodes=[share.node_id])
        self.pricing.start(job, allocation)

    # ------------------------------------------------------------------ #
    # Completions and preemptions

    def _on_complete(self, job_id: str) -> None:
        """A job's completion timer fired at its authoritative time."""
        record, allocation = self._stop(job_id)
        now = self.engine.now
        self.collector.job_finished(job_id, now)
        if isinstance(record, _RunningGpu):
            cores = {"cores_per_node": record.cores_per_node}
        else:
            cores = {"cores": record.cores}
        self._audit(
            "finished",
            record.job,
            **cores,
            queueing_s=self.collector.records[job_id].queueing_time,
        )
        self.scheduler.job_finished(record.job, now)
        self.pricing.touch(allocation.node_ids)
        self.request_schedule()

    def _stop(self, job_id: str) -> Tuple[Union[_RunningGpu, _RunningCpu], Allocation]:
        """Tear a running job down: stop pricing it (its progress accrued
        to now) and release its allocation."""
        record = self.pricing.stop(job_id)
        return record, self.cluster.release(job_id)

    def _execute_preempt(self, decision: PreemptDecision) -> None:
        job_id = decision.job_id
        if job_id not in self.pricing:
            raise RuntimeError(f"cannot preempt {job_id}: not running")
        record, allocation = self._stop(job_id)
        # Aborted CPU jobs restart from scratch.
        preserve = decision.preserve_progress and isinstance(record, _RunningGpu)
        if preserve:
            self.pricing.stash(job_id, record.work_done)
        now = self.engine.now
        self._preemptions += 1
        self.collector.job_preempted(job_id, now)
        self._audit(
            "preempted",
            record.job,
            reason=decision.reason,
            progress_preserved=preserve,
        )
        self.scheduler.job_preempted(record.job, now, preserve_progress=preserve)
        self.pricing.touch(allocation.node_ids)

    # ------------------------------------------------------------------ #
    # Infrastructure failures (driven by a FaultInjector)

    def fail_node(self, node_id: int) -> None:
        """Crash a node: kill every resident job, then take the node out
        of the free pool until :meth:`recover_node`.

        Training jobs restart from their last checkpoint; CPU jobs restart
        from scratch.  Both re-enter their array head via the scheduler's
        ``job_failed`` hook.  A multi-node gang dies whole — iterations
        cannot proceed minus one participant — and its surviving nodes are
        freed immediately.
        """
        node = self.cluster.node(node_id)
        if not node.is_up:
            return
        for job_id in sorted(node.jobs_here()):
            self._execute_failure(job_id, reason=f"node {node_id} crashed")
        self._monitor_node_unobservable(node_id)
        node.mark_down()
        self.collector.faults.node_failures += 1
        self.collector.faults.node_down(node_id, self.engine.now)
        self._record_node_strike(node_id, kind="crash")
        self.request_schedule()

    def recover_node(self, node_id: int) -> None:
        """Return a crashed node to service; queued jobs may use it on the
        next scheduling pass."""
        node = self.cluster.node(node_id)
        if node.is_up:
            return
        now = self.engine.now
        node.mark_up()
        self.collector.faults.node_up(node_id, now)
        if node_id not in self.health.quarantined_nodes(now):
            # Observable again from this instant; a node still serving a
            # quarantine stays vetoed until _on_quarantine_end.
            self._observable_since[node_id] = now
        self.request_schedule()

    def fail_gpu(self, node_id: int, gpu_id: int) -> None:
        """Break a single GPU; its owner (if any) takes the failure path."""
        node = self.cluster.node(node_id)
        gpu = node.gpus[gpu_id]
        if gpu.failed:
            return
        owner = gpu.owner
        if owner is not None:
            self._execute_failure(
                owner, reason=f"gpu {node_id}:{gpu_id} failed"
            )
        node.fail_gpu(gpu_id)
        self.collector.faults.gpu_failures += 1
        self._record_node_strike(node_id, kind="gpu")
        self.request_schedule()

    def repair_gpu(self, node_id: int, gpu_id: int) -> None:
        self.cluster.node(node_id).repair_gpu(gpu_id)
        self.request_schedule()

    def begin_telemetry_outage(self, node_id: int, duration_s: float) -> None:
        """Blind a node's MBM for ``duration_s``; the eliminator's
        staleness window decides when that blindness becomes distrust."""
        self._monitor_activate(node_id)
        self.cluster.node(node_id).bandwidth.begin_outage(
            self.engine.now + duration_s
        )
        self.collector.faults.telemetry_dropouts += 1
        self._record_node_strike(node_id, kind="telemetry")

    def running_cpu_job_ids(self) -> List[str]:
        return list(self.pricing.cpu_jobs)

    def apply_cpu_straggler(
        self, job_id: str, *, factor: float, duration_s: float
    ) -> None:
        """Slow a running CPU job to ``factor`` of its speed for a while."""
        record = self.pricing.cpu_jobs.get(job_id)
        if record is None:
            return
        record.straggle_factor = factor
        self.collector.faults.stragglers += 1
        self._audit("straggler", record.job, factor=factor)
        self.pricing.reprice(record)
        # The tag carries the incarnation (for the heal check) and a
        # global straggle counter (for uniqueness when the same job is
        # straggled twice), so a checkpoint restore can rebuild this
        # closure from the live-event inventory alone.
        self._straggle_count += 1
        incarnation = self._cpu_incarnation[job_id]
        self.engine.schedule_in(
            duration_s,
            lambda job_id=job_id, incarnation=incarnation: self._end_straggler(
                job_id, incarnation
            ),
            priority=EventPriority.MONITOR,
            tag=f"straggler-end:{job_id}:{incarnation}:{self._straggle_count}",
        )

    def _end_straggler(self, job_id: str, incarnation: int) -> None:
        # Only heal the same incarnation: if the job finished or restarted
        # meanwhile, the stale timer must not touch the new record.
        record = self.pricing.cpu_jobs.get(job_id)
        if record is None or self._cpu_incarnation.get(job_id) != incarnation:
            return
        record.straggle_factor = 1.0
        self.pricing.reprice(record)

    def _record_node_strike(self, node_id: int, *, kind: str) -> None:
        """Charge one failure strike against a node's health record.

        When the strike tips the node into quarantine: evict any resident
        jobs with progress preserved (their software is fine; their
        neighbourhood is not), count the quarantine, and schedule a
        scheduling pass at readmission time so queued work re-discovers
        the node the moment it leaves quarantine.
        """
        now = self.engine.now
        if not self.health.record_failure(node_id, now, kind=kind):
            return
        self.collector.faults.quarantines += 1
        self._monitor_node_unobservable(node_id)
        node = self.cluster.node(node_id)
        if node.is_up:
            for job_id in sorted(node.jobs_here()):
                self._execute_preempt(
                    PreemptDecision(
                        job_id=job_id,
                        reason=f"node {node_id} quarantined",
                        preserve_progress=True,
                    )
                )
        self.engine.schedule(
            self.health.quarantine_until(node_id),
            lambda node_id=node_id: self._on_quarantine_end(node_id),
            priority=EventPriority.MONITOR,
            tag=f"quarantine-end:{node_id}",
        )
        self.request_schedule()

    def _on_quarantine_end(self, node_id: int) -> None:
        """A quarantine expired (the node is on probation now); let the
        scheduler re-discover its capacity.

        The health tracker's lazy QUARANTINED->PROBATION transition is a
        pure function of time, so no node mutator runs here — record the
        capacity return explicitly or the incremental pass gates would
        never see it."""
        self.cluster.note_capacity_freed(node_id)
        if self.cluster.node(node_id).is_up:
            # Observable again (a node that also crashed stays vetoed
            # until recover_node readmits it).
            self._observable_since[node_id] = self.engine.now
        self.request_schedule()

    def _execute_failure(self, job_id: str, *, reason: str) -> None:
        """Kill one running job because its hardware failed."""
        if job_id not in self.pricing:
            return  # already gone (e.g., completed at this same instant)
        record, allocation = self._stop(job_id)
        faults = self.collector.faults
        if isinstance(record, _RunningGpu):
            checkpoint = record.job.checkpointed_iterations(record.work_done)
            faults.lost_gpu_iterations += max(0.0, record.work_done - checkpoint)
            if checkpoint > 0:
                self.pricing.stash(job_id, checkpoint)
        else:
            faults.lost_cpu_seconds += record.work_done
        now = self.engine.now
        faults.restarts += 1
        self.collector.job_failed(job_id, now)
        self._audit("failed", record.job, reason=reason)
        self.scheduler.job_failed(record.job, now)
        self.pricing.touch(allocation.node_ids)

    # ------------------------------------------------------------------ #
    # Sampling

    def _on_sample(self) -> None:
        gpu_depth, cpu_depth = self.scheduler.queue_depths()
        total_gpus = self.cluster.total.gpus
        free_fraction = (
            (total_gpus - self.cluster.gpu_active_count()) / total_gpus
            if total_gpus
            else 0.0
        )
        hot_nodes = sum(
            1
            for node in self.cluster.nodes
            if node.used_gpus > 0
            and node.bandwidth.pressure >= BANDWIDTH_PRESSURE_THRESHOLD
        )
        self.collector.sample_cluster(
            self.engine.now,
            gpu_active_rate=self.cluster.gpu_active_rate(),
            gpu_utilization=self.cluster.mean_gpu_utilization(active_only=True),
            gpu_utilization_overall=self.cluster.mean_gpu_utilization(
                active_only=False
            ),
            cpu_active_rate=self.cluster.cpu_active_rate(),
            gpu_queue_depth=gpu_depth,
            cpu_queue_depth=cpu_depth,
            free_gpu_fraction=free_fraction,
            hot_nodes=hot_nodes,
        )
        self.engine.schedule_in(
            self._sample_interval_s,
            self._on_sample,
            priority=EventPriority.MONITOR,
            tag="sample",
        )

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot(self) -> Dict[str, Any]:
        """Serializable runner-core state (the pricing layer's records,
        pass flags, monitor activity)."""
        return {
            **self.pricing.snapshot(),
            "pass_pending": self._pass_pending,
            "preemptions": self._preemptions,
            "sampling": self._sampling,
            "cpu_incarnation": dict(self._cpu_incarnation),
            "straggle_count": self._straggle_count,
            "monitor_active": sorted(self._monitor_active),
            "monitor_last_tick": self._monitor_last_tick,
            # +inf is not valid JSON; carry the unobservable veto as null.
            "observable_since": [
                [node_id, None if since == float("inf") else since]
                for node_id, since in sorted(self._observable_since.items())
            ],
        }

    def restore(self, state: Dict[str, Any], jobs_by_id: Dict[str, Job]) -> None:
        self.pricing.restore(state, jobs_by_id)
        self._pass_pending = bool(state["pass_pending"])
        self._preemptions = int(state["preemptions"])
        self._sampling = bool(state["sampling"])
        self._cpu_incarnation = {
            job_id: int(count)
            for job_id, count in state["cpu_incarnation"].items()
        }
        self._straggle_count = int(state["straggle_count"])
        self._monitor_active = {int(n) for n in state["monitor_active"]}
        raw_tick = state["monitor_last_tick"]
        self._monitor_last_tick = None if raw_tick is None else float(raw_tick)
        self._observable_since = {
            int(n): float("inf") if since is None else float(since)
            for n, since in state["observable_since"]
        }

    def rearm(self, jobs_by_id: Dict[str, Job]) -> None:
        """Re-claim every runner-owned timer from the engine inventory.

        Runs inside an engine restore window, after :meth:`restore`; the
        pricing layer claims the completion timers.
        """
        engine = self.engine
        self.pricing.rearm()
        for tag in engine.pending_rearm_tags():
            family = tag.partition(":")[0]
            if family == "arrival":
                job = jobs_by_id[tag.partition(":")[2]]
                engine.rearm(tag, lambda job=job: self._on_arrival(job))
            elif tag == "sample":
                engine.rearm(tag, self._on_sample)
            elif tag == "schedule-pass":
                engine.rearm(tag, self._run_pass)
            elif family == "straggler-end":
                _, job_id, incarnation, _count = tag.split(":")
                engine.rearm(
                    tag,
                    lambda job_id=job_id, incarnation=int(
                        incarnation
                    ): self._end_straggler(job_id, incarnation),
                )
            elif family == "quarantine-end":
                node_id = int(tag.partition(":")[2])
                engine.rearm(
                    tag,
                    lambda node_id=node_id: self._on_quarantine_end(node_id),
                )
