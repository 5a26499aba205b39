"""Lightweight wall-clock profiling for the simulator's hot paths.

The benchmark harness (``benchmarks/bench_speed.py``) and the CLI's
``--profile`` flag need per-subsystem *time shares* — how much of a run's
wall time went to scheduling passes, repricing, the eliminator, metrics
sampling, and so on.  This module provides the minimal machinery:

* :class:`Profiler` — named section timers (context managers) plus named
  counters, accumulated in plain dicts;
* a module-global *active* profiler that instrumented call sites consult.
  When no profiler is active (the default), :func:`section` hands back a
  shared no-op context manager and :func:`count` returns immediately, so
  an uninstrumented run pays one ``None`` check per call site and nothing
  else.

The profiler reads the *host* clock — that is the whole point — so it is
the one simulator module exempt from the codalint CL001 wall-clock rule.
Profiling never feeds back into simulation decisions: enabling it cannot
change a run's outputs, only measure them.

Example (doctest uses counters only, so it is deterministic)::

    >>> profiler = Profiler()
    >>> profiler.count("events")
    >>> profiler.count("events", 2)
    >>> profiler.counters["events"]
    3
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Dict, List, Optional, Tuple, Type

#: The host clock, bound once at import.  Timed regions fire hundreds of
#: thousands of times per run, and ``time.perf_counter`` is an attribute
#: lookup on every call; binding the function object here removes it.  The
#: engine imports this binding rather than ``time`` directly, keeping all
#: wall-clock reads routed through the one CL001-exempt module.
perf_counter = time.perf_counter


class _NullSection:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_SECTION = _NullSection()


class _Section:
    """One timed ``with`` block; accumulates into its profiler on exit."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Section":
        self._t0 = perf_counter()  # codalint: disable=CL001
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        elapsed = perf_counter() - self._t0  # codalint: disable=CL001
        self._profiler.add_time(self._name, elapsed)


class Profiler:
    """Accumulates named wall-clock timers and counters.

    One instance per measured run.  Sections may nest (an inner section's
    time is *also* counted in the outer one); the engine-level wiring in
    :meth:`repro.sim.engine.Engine.set_profiler` keys sections by event
    tag category, which are disjoint by construction.
    """

    def __init__(self) -> None:
        self.timers: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Recording

    def section(self, name: str) -> _Section:
        """A context manager that adds its elapsed wall time to ``name``."""
        return _Section(self, name)

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------ #
    # Reading

    def total_timed_s(self) -> float:
        return sum(self.timers.values())

    def time_shares(
        self, total_s: Optional[float] = None
    ) -> List[Tuple[str, float, float]]:
        """``(name, seconds, share)`` rows, largest first.

        ``total_s`` (e.g. the run's full wall time) is the denominator;
        when omitted, the sum of all timed sections is used.  With an
        explicit total the shares need not add to 1 — the remainder is
        un-instrumented time (the event loop itself, mostly).
        """
        denominator = total_s if total_s is not None else self.total_timed_s()
        rows = [
            (name, seconds, seconds / denominator if denominator > 0 else 0.0)
            for name, seconds in self.timers.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready copy of every timer and counter."""
        return {
            "timers_s": dict(self.timers),
            "counters": {name: float(n) for name, n in self.counters.items()},
        }


#: The module-global active profiler; ``None`` means profiling is off.
_active: Optional[Profiler] = None


def enable() -> Profiler:
    """Install (and return) a fresh active profiler."""
    global _active
    _active = Profiler()
    return _active


def disable() -> None:
    """Deactivate profiling; instrumented call sites go back to no-ops."""
    global _active
    _active = None


def active() -> Optional[Profiler]:
    """The active profiler, or ``None`` when profiling is off."""
    return _active


def section(name: str) -> object:
    """Context manager timing ``name`` on the active profiler (no-op when
    profiling is off)."""
    profiler = _active
    if profiler is None:
        return _NULL_SECTION
    return profiler.section(name)


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the active profiler (no-op when profiling is off)."""
    profiler = _active
    if profiler is not None:
        profiler.count(name, n)
