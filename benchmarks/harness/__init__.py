"""The micro-benchmark harness.

A registry of named workloads (:func:`benchmark`), a calibrated timer
(:mod:`~benchmarks.harness.timer`), schema-versioned JSON artifacts
(:mod:`~benchmarks.harness.report`), and a regression-flagging compare
mode (:mod:`~benchmarks.harness.compare`), all fronted by
``python -m benchmarks`` (:mod:`~benchmarks.harness.cli`).
"""

from .cli import main
from .compare import Comparison, PointDelta, compare_artifacts
from .registry import (
    BenchError,
    Workload,
    benchmark,
    get,
    load_scripts,
    registered,
    select,
)
from .report import SCHEMA, load_artifact, load_artifacts, write_artifact
from .runner import run_workloads
from .timer import BenchCase, Measurement, time_workload

__all__ = [
    "BenchCase", "BenchError", "Comparison", "Measurement", "PointDelta",
    "SCHEMA", "Workload", "benchmark", "compare_artifacts", "get",
    "load_artifact", "load_artifacts", "load_scripts", "main", "registered",
    "run_workloads", "select", "time_workload", "write_artifact",
]
