"""The calibrated timer: warmup + repeats, min-of-N, monotonic clock.

Every point is measured as *fresh setup per call* — the workload function
runs once per warmup/repeat with a new :class:`BenchCase`, and only the
``case.measure()`` region is timed (the whole call when the workload never
opens one).  The reported figure of merit is the minimum over repeats:
on a noisy machine the minimum is the best estimate of the workload's
intrinsic cost (external interference only ever adds time).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean
from time import perf_counter
from typing import Iterator, Optional

from repro.datalog.engine import EvalStats
from .registry import BenchError, Workload


class BenchCase:
    """Handed to each workload invocation: the timed region and metrics.

    Engine counters reach the artifact one way, through the
    ``EvalContext.stats`` the engine was handed:

    * direct engine calls take ``EvalContext(stats=case.stats)``;
    * a long-lived host (a ``Workspace``, an ``LBTrustSystem``'s
      principals) counts into its own context's ``stats``: call
      ``case.watch(ws.stats)`` during setup — after the run, each watched
      accumulator's *delta* since the watch point is merged into
      ``case.stats``, so setup work is excluded.

    Index build/hit counters route to the innermost installed sink: the
    engine installs its context's ``stats`` per stratum pass, so for
    workspace workloads those counters arrive via ``watch()``, not the
    ambient capture around the measured region.
    """

    def __init__(self, params: dict) -> None:
        self.params = dict(params)
        self.stats = EvalStats()
        self.elapsed: Optional[float] = None
        self.metrics: dict = {}
        self._watched: list = []

    def watch(self, stats: EvalStats) -> None:
        """Record ``stats``'s delta over this call into ``case.stats``."""
        self._watched.append((stats, stats.copy()))

    def _collect_watched(self) -> None:
        for stats, baseline in self._watched:
            self.stats.merge(stats.diff(baseline))
        self._watched.clear()

    @contextmanager
    def measure(self) -> Iterator["BenchCase"]:
        if self.elapsed is not None:
            raise BenchError("case.measure() may only be entered once")
        with self.stats.capture_indexes():
            started = perf_counter()
            try:
                yield self
            finally:
                self.elapsed = perf_counter() - started

    def record(self, **metrics) -> None:
        """Attach extra JSON-safe metrics to this point (last repeat wins)."""
        self.metrics.update(metrics)


@dataclass
class Measurement:
    """One sweep point's timings plus whatever the workload recorded."""

    params: dict
    warmup: int
    timings: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    engine: Optional[dict] = None

    @property
    def best(self) -> float:
        return min(self.timings)

    @property
    def mean(self) -> float:
        return mean(self.timings)

    def as_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "warmup": self.warmup,
            "repeats": len(self.timings),
            "timings": list(self.timings),
            "best": self.best,
            "mean": self.mean,
            "metrics": dict(self.metrics),
            "engine": self.engine,
        }


def _one_call(workload: Workload, params: dict) -> BenchCase:
    # Ambient index capture is installed by case.measure() only, so
    # untimed setup lookups stay out of the recorded engine counters;
    # workloads that never open a measured region get whole-call timing
    # but must hand case.stats to their EvalContext for counters.
    case = BenchCase(params)
    started = perf_counter()
    result = workload.func(case, **params)
    total = perf_counter() - started
    if case.elapsed is None:
        case.elapsed = total
    case._collect_watched()
    if isinstance(result, dict):
        case.record(**result)
    return case


def _peak_memory(workload: Workload, params: dict) -> Optional[int]:
    """Peak traced allocation of one untimed workload call, in bytes.

    Runs under :mod:`tracemalloc`, whose per-allocation bookkeeping
    would distort wall-clock numbers badly — so memory gets its own
    call *after* the timed repeats rather than instrumenting them.
    Returns None when tracing is already active (a nested bench run
    would misattribute the outer trace's allocations).
    """
    import tracemalloc

    if tracemalloc.is_tracing():
        return None
    tracemalloc.start()
    try:
        _one_call(workload, params)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def time_workload(workload: Workload, params: dict,
                  warmup: Optional[int] = None,
                  repeats: Optional[int] = None) -> Measurement:
    """Measure one sweep point: ``warmup`` throwaway calls, then
    ``repeats`` timed calls, each with fresh setup.

    After the timed calls, one extra traced call records the workload's
    peak allocation into the point's metrics as ``peak_mem_bytes``
    (whole call, setup included — a workload's memory high-water mark
    does not respect the ``measure()`` region boundaries).
    """
    warmup = workload.warmup if warmup is None else warmup
    repeats = workload.repeats if repeats is None else repeats
    if repeats < 1:
        raise BenchError("repeats must be >= 1")
    measurement = Measurement(params=dict(params), warmup=warmup)
    for _ in range(warmup):
        _one_call(workload, params)
    for _ in range(repeats):
        case = _one_call(workload, params)
        measurement.timings.append(case.elapsed)
        measurement.metrics = dict(case.metrics)
        engine = case.stats.as_dict()
        measurement.engine = engine if any(
            engine[key] for key in ("rounds", "derivations", "new_facts",
                                    "index_builds", "index_hits",
                                    "literal_scans")) else None
    peak = _peak_memory(workload, params)
    if peak is not None:
        measurement.metrics["peak_mem_bytes"] = peak
    return measurement
