"""Outside-in layer tracing for the simulator benchmark.

The tracer times each layer of the simulator from the outside: it swaps
the public functions at each layer's boundary for thin wrappers, runs the
workload, and puts the originals back.  No simulator module knows it is
being traced.

* A *span* wrapper records calls, inclusive time per call and self time
  (inclusive minus the time of wrapped callees).  Spans nest through one
  stack of child-time accumulators, so the self times of every span under
  a root add up to the root's wall time exactly.
* A *count* wrapper only counts calls (and, with a judge, how many calls
  returned a useful result); its time stays with the enclosing span.
* ``SimulationRunner.run`` is the event-loop span.  Its wrapper hands an
  :class:`EventRecorder` to the public ``Engine.set_profiler`` hook, which
  gives inclusive time and count per event category, and the part of each
  event not covered by any wrapped callee.  That uncovered part is booked
  to the layer owning the category (``CATEGORY_LAYER``); the rest of the
  event loop's self time is the remainder: runner pricing plus engine
  dispatch.

Names imported by value (``from repro.perfmodel.speed import
iteration_time``) are bound separately in every importing module, so a
function is replaced at each module of the package whose namespace holds
it.  Every replacement is a *site* with its own call counter; the
benchmark's test asserts that the sites that matter record calls.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Event categories whose uncovered handler time belongs to a layer other
#: than the runner.  Allocator probe steps and eliminator ticks are CODA's
#: core control loops; ``fault`` events are the injector's; ``requeue``
#: events are the scheduler base class's deferred failure requeues.
CATEGORY_LAYER = {
    "profile": "core",
    "eliminator-tick": "core",
    "fault": "faults",
    "requeue": "schedulers",
}

#: Layers of the table, in print order; ``remainder`` closes it.
LAYERS = (
    "schedulers",
    "placement",
    "perfmodel",
    "cluster",
    "core",
    "metrics",
    "health",
    "faults",
    "workload",
    "parallel",
)

# Judges for count/span wrappers that also record useful outcomes.
JUDGES: Dict[str, Callable[[Any], bool]] = {
    "nonempty": lambda result: bool(result),
    "not_none": lambda result: result is not None,
}

#: (stat name, "module" or "module:Class", attribute, kind, judge).
#: Stats whose name starts with a layer of ``LAYERS`` count toward it.
#: ``health.state`` is one stat fed by three functions.
TRACE_POINTS: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("sim.schedule", "repro.sim.engine:Engine", "schedule", "count", None),
    ("sim.run", "repro.experiments.runner:SimulationRunner", "run", "run", None),
    ("schedulers.pass", "repro.schedulers.base:Scheduler", "schedule", "span",
     "nonempty"),
    ("placement.freestate", "repro.schedulers.placement:FreeState", "of",
     "span", None),
    ("placement.gpu", "repro.schedulers.placement", "place_gpu_job", "span",
     "not_none"),
    ("placement.cpu", "repro.schedulers.placement", "place_cpu_job", "span",
     "not_none"),
    ("perfmodel.iteration_time", "repro.perfmodel.speed", "iteration_time",
     "span", None),
    ("cluster.allocate", "repro.cluster.cluster:Cluster", "allocate", "span",
     None),
    ("cluster.release", "repro.cluster.cluster:Cluster", "release", "span",
     None),
    ("cluster.resize_cpus", "repro.cluster.cluster:Cluster", "resize_cpus",
     "span", None),
    ("cluster.mbm.update_demand", "repro.cluster.mbm:BandwidthMonitor",
     "update_demand", "span", None),
    ("cluster.mean_gpu_util", "repro.cluster.cluster:Cluster",
     "mean_gpu_utilization", "span", None),
    ("core.throttle", "repro.experiments.runner:SimulationRunner",
     "throttle_cpu_job", "count", "nonempty"),
    ("core.resize", "repro.experiments.runner:SimulationRunner",
     "resize_gpu_job_cores", "count", "nonempty"),
    ("metrics.sample", "repro.metrics.collector:MetricsCollector",
     "sample_cluster", "span", None),
    ("health.record_failure", "repro.health.tracker:NodeHealthTracker",
     "record_failure", "span", None),
    ("health.state", "repro.health.tracker:NodeHealthTracker", "state_of",
     "span", None),
    ("health.state", "repro.health.tracker:NodeHealthTracker",
     "deprioritized_nodes", "span", None),
    ("health.state", "repro.health.tracker:NodeHealthTracker",
     "quarantined_nodes", "span", None),
    ("workload.trace", "repro.workload.tracegen", "generate_trace", "span",
     None),
    ("parallel.to_dict", "repro.metrics.serialize", "run_result_to_dict",
     "span", None),
    ("parallel.from_dict", "repro.metrics.serialize", "run_result_from_dict",
     "span", None),
    ("parallel.cache.store", "repro.parallel.cache:ResultCache", "store",
     "span", None),
    ("parallel.cache.load", "repro.parallel.cache:ResultCache", "load",
     "span", None),
)

#: Modules imported before installing, so every subclass and every
#: by-value import site exists when the wrappers go in.
_PRELOAD = (
    "repro.core.coda",
    "repro.schedulers.fifo",
    "repro.schedulers.drf",
    "repro.parallel",
    "repro.experiments.scenarios",
)


class Stat:
    """Accumulated figures of one traced name."""

    __slots__ = ("calls", "self_s", "hits", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        #: Inclusive seconds of each call (spans only).  Wrappers hold a
        #: reference to this array, so it is cleared in place, never
        #: replaced.
        self.durations = array("d")

    def clear(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        del self.durations[:]

    @property
    def inclusive_s(self) -> float:
        return sum(self.durations)

    def percentile_us(self, q: float) -> float:
        """Per-call inclusive time at percentile ``q`` (nearest rank)."""
        ordered = sorted(self.durations)
        rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[rank] * 1e6


class EventRecorder:
    """The profiler the benchmark hands to ``Engine.set_profiler``.

    Per event category it keeps the event count, the inclusive handler
    time and the *uncovered* time: the part not spent in any wrapped
    callee.  The engine calls :meth:`add_time` once per fired event.
    """

    def __init__(self, stack: List[float]) -> None:
        self._stack = stack
        self._frame = -1
        self._seen = 0.0
        self.seconds: Dict[str, float] = {}
        self.events: Dict[str, int] = {}
        self.uncovered: Dict[str, float] = {}

    def bind(self, frame: int) -> None:
        """Measure coverage against the event-loop span at ``frame``."""
        self._frame = frame
        self._seen = self._stack[frame]

    def add_time(self, name: str, seconds: float) -> None:
        covered_total = self._stack[self._frame]
        covered = covered_total - self._seen
        self._seen = covered_total
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.events[name] = self.events.get(name, 0) + 1
        self.uncovered[name] = self.uncovered.get(name, 0.0) + seconds - covered

    def count(self, name: str, n: int = 1) -> None:
        """Part of the profiler interface; event counts are kept per
        category in :meth:`add_time`, so the engine's total is ignored."""


class Tracer:
    """Installs the wrappers and accumulates their figures."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.stats: Dict[str, Stat] = {}
        self.sites: Dict[str, List[int]] = {}
        self.recorder = EventRecorder(self.stack)
        self.root_self_s = 0.0
        #: Called with each runner after its ``run`` returns.
        self.on_run_end: Optional[Callable[[Any], None]] = None
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Install / uninstall

    def install(self) -> None:
        for module in _PRELOAD:
            importlib.import_module(module)
        for name, owner, attr, kind, judge in TRACE_POINTS:
            stat = self.stats.setdefault(name, Stat())
            check = JUDGES[judge] if judge else None
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                self._wrap_method(
                    getattr(module, class_name), attr, stat, kind, check
                )
            else:
                self._wrap_function(module, attr, stat, kind, check)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_function(self, module, attr, stat, kind, check) -> None:
        original = getattr(module, attr)
        for mod_name, mod in sorted(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if vars(mod).get(attr) is original:
                site = self.sites.setdefault(f"{mod_name}.{attr}", [0])
                wrapper = self._make(original, stat, kind, check, site)
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, stat, kind, check) -> None:
        for klass in _class_tree(cls):
            raw = vars(klass).get(attr)
            if raw is None:
                continue
            decorator = None
            function = raw
            if isinstance(raw, (classmethod, staticmethod)):
                decorator, function = type(raw), raw.__func__
            if getattr(function, "__isabstractmethod__", False):
                continue
            site = self.sites.setdefault(
                f"{klass.__module__}.{klass.__name__}.{attr}", [0]
            )
            wrapper = self._make(function, stat, kind, check, site)
            self._undo.append((klass, attr, raw))
            setattr(klass, attr, decorator(wrapper) if decorator else wrapper)

    def _make(self, fn, stat: Stat, kind: str, check, site: List[int]):
        stack = self.stack
        clock = perf_counter
        durations = stat.durations

        if kind == "count":
            def counted(*args, **kwargs):
                site[0] += 1
                stat.calls += 1
                result = fn(*args, **kwargs)
                if check is not None and check(result):
                    stat.hits += 1
                return result

            return counted

        if kind == "run":
            recorder = self.recorder
            tracer = self

            def run_loop(runner, *args, **kwargs):
                site[0] += 1
                runner.engine.set_profiler(recorder)
                stack.append(0.0)
                recorder.bind(len(stack) - 1)
                t0 = clock()
                try:
                    result = fn(runner, *args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    runner.engine.set_profiler(None)
                    stat.self_s += elapsed - stack.pop()
                    stat.calls += 1
                    durations.append(elapsed)
                    if stack:
                        stack[-1] += elapsed
                if tracer.on_run_end is not None:
                    tracer.on_run_end(runner)
                return result

            return run_loop

        def span(*args, **kwargs):
            site[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.self_s += elapsed - stack.pop()
                stat.calls += 1
                durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed
            if check is not None and check(result):
                stat.hits += 1
            return result

        return span

    # ------------------------------------------------------------------ #
    # Measuring

    def measure(self, phase: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``phase`` as the root span; returns (result, wall seconds).

        The root's self time (work outside every wrapped function, e.g.
        spec orchestration in a grid cell) joins the remainder.
        """
        self.stack.append(0.0)
        t0 = perf_counter()
        try:
            result = phase()
        finally:
            elapsed = perf_counter() - t0
            self.root_self_s += elapsed - self.stack.pop()
        return result, elapsed

    def reset(self) -> None:
        """Zero every figure (wrappers stay installed)."""
        for stat in self.stats.values():
            stat.clear()
        for counter in self.sites.values():
            counter[0] = 0
        recorder = self.recorder
        recorder.seconds.clear()
        recorder.events.clear()
        recorder.uncovered.clear()
        self.root_self_s = 0.0

    def layer_table(self) -> Dict[str, float]:
        """Self seconds per layer plus ``remainder``; the rows add up to
        the wall time of everything measured under :meth:`measure`."""
        table = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            layer = name.partition(".")[0]
            if layer in table:
                table[layer] += stat.self_s
        remainder = self.root_self_s + self.stats["sim.run"].self_s
        for category, seconds in self.recorder.uncovered.items():
            layer = CATEGORY_LAYER.get(category)
            if layer is not None:
                table[layer] += seconds
                remainder -= seconds
        table["remainder"] = remainder
        return table


def _class_tree(cls: type) -> List[type]:
    """``cls`` and all its subclasses, each once, in a stable order."""
    seen: Dict[type, None] = {}
    todo = [cls]
    while todo:
        klass = todo.pop(0)
        if klass in seen:
            continue
        seen[klass] = None
        todo.extend(sorted(klass.__subclasses__(), key=lambda k: k.__qualname__))
    return list(seen)
