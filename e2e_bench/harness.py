"""Runs passes in worker processes and turns their results into metrics.

A *run* of one workload is several passes, each a fresh process that sets
up and then measures for its share of the time: pooled samples give the
latency medians, and the passes' set-up times give ``setup_s`` its median.
A *set* makes the passes over the whole workload list in turn, so every
workload samples the set's whole duration instead of one burst of it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .layers import layer_metrics
from .stats import enough_beyond, host_factor, percentile

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}

PASSES = 3
WORKER_TIMEOUT_S = 50   # three passes stay inside the contract's 180 s

#: Metrics by the names the issue gave them, printed for the workloads
#: that have the operation: name -> (unit, better, bound).  Exact counts
#: have bound 0; times and throughput have the bound ``BENCHMARK.json``
#: gives ``op_p50_ms``, which is as tight as the builder's host can hold
#: (README, "Measured spreads").
TIME_BOUND = END_TO_END["op_p50_ms"]["bound"]
NAMED_INFO = {
    "msg_us": ("us", "lower", TIME_BOUND),
    "wire_bytes_per_fact": ("bytes", "lower", 0.0),
    "query_p50_ms": ("ms", "lower", TIME_BOUND),
    "query_p99_ms": ("ms", "lower", TIME_BOUND),
    "assert_p50_ms": ("ms", "lower", TIME_BOUND),
    "retract_p50_ms": ("ms", "lower", TIME_BOUND),
    "requests_per_s": ("1/s", "higher", TIME_BOUND),
    "fixpoint_s": ("s", "lower", TIME_BOUND),
    "load_ms": ("ms", "lower", TIME_BOUND),
    "reconfig_ms": ("ms", "lower", TIME_BOUND),
    "allow_p50_ms": ("ms", "lower", TIME_BOUND),
    "deny_p50_ms": ("ms", "lower", TIME_BOUND),
    "failed_ratio": ("ratio", "lower", 0.0),
}
#: The latency ones: name -> (operation kind, quantile of its samples).
NAMED_SAMPLES = {
    "msg_us": ("msg", 0.5), "query_p50_ms": ("query", 0.5),
    "query_p99_ms": ("query", 0.99), "assert_p50_ms": ("assert", 0.5),
    "retract_p50_ms": ("retract", 0.5), "fixpoint_s": ("fixpoint", 0.5),
    "load_ms": ("load", 0.5), "reconfig_ms": ("reconfig", 0.5),
    "allow_p50_ms": ("allow", 0.5), "deny_p50_ms": ("deny", 0.5),
}
_SCALE = {"us": 1e3, "ms": 1.0, "s": 1e-3}  # samples are in ms


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, pass_index: int, seconds: float,
               trace: bool = False, tiny: bool = False) -> dict:
    """One pass in a fresh interpreter with only e2e_bench + repro loaded."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    request = {"workload": workload, "seed": seed, "pass_index": pass_index,
               "seconds": seconds, "trace": trace, "tiny": tiny,
               "spawned": time.time()}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "e2e_bench.worker", json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise WorkerFailed(f"{workload} pass {pass_index} did not finish "
                           f"within {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise WorkerFailed(f"{workload} pass {pass_index} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def merge(passes: list, normalise: bool = True) -> dict:
    """Pool the passes of one workload into one result.  With ``normalise``
    every time is first scaled by its own pass's host factor, so a pass
    that ran during a slow phase of the host does not drag the pool."""
    merged = {"workload": passes[0]["workload"],
              "primary": passes[0]["primary"],
              "samples": {}, "first_round_counters": {}, "setup_s": [],
              "timed_ms": 0.0, "cpu_ms": 0.0,
              "rss_mb": [p["rss_mb"] for p in passes]}
    for key in ("ops", "attempted", "failed"):
        merged[key] = sum(p[key] for p in passes)
    for p in passes:
        factor = host_factor(p["host_speed_ms"]) if normalise else 1.0
        merged["setup_s"].append(p["setup_s"] * factor)
        merged["timed_ms"] += p["timed_ms"] * factor
        merged["cpu_ms"] += p["cpu_ms"] * factor
        for kind, values in p["samples"].items():
            merged["samples"].setdefault(kind, []).extend(
                ms * factor for ms in values)
        for key, value in p["first_round_counters"].items():
            merged["first_round_counters"][key] = \
                merged["first_round_counters"].get(key, 0) + value
    return merged


def _end_to_end_values(merged: dict) -> dict:
    primary = merged["samples"][merged["primary"]]
    return {
        "setup_s": (statistics.median(merged["setup_s"]),
                    len(merged["setup_s"])),
        "op_p50_ms": (percentile(primary, 0.5), len(primary)),
        "ops_per_s": (merged["ops"] / (merged["timed_ms"] / 1e3),
                      merged["ops"]),
        "cpu_ms_per_op": (merged["cpu_ms"] / merged["ops"], merged["ops"]),
        "peak_rss_mb": (statistics.median(merged["rss_mb"]),
                        len(merged["rss_mb"])),
    }


def _named_values(merged: dict) -> dict:
    out = {}
    for name, (kind, fraction) in NAMED_SAMPLES.items():
        values = merged["samples"].get(kind)
        if values:
            out[name] = (percentile(values, fraction)
                         * _SCALE[NAMED_INFO[name][0]], len(values),
                         enough_beyond(len(values), fraction))
    counters = merged["first_round_counters"]  # exact for a seed
    if counters.get("net_facts"):
        out["wire_bytes_per_fact"] = (
            counters["net_bytes"] / counters["net_facts"],
            counters["net_facts"])
    if merged["workload"].startswith("serve"):
        out["requests_per_s"] = (
            merged["ops"] / (merged["timed_ms"] / 1e3), merged["ops"])
    out["failed_ratio"] = (merged["failed"] / merged["attempted"],
                           merged["attempted"])
    return out


def _cells(passes: list, values_of, unit_of) -> dict:
    """Metric cells: ``value`` host-normalised, ``raw`` as measured (equal
    for metrics that are not times), ``n`` samples, ``valid`` false where
    fewer than ten samples lie beyond the quantile."""
    normalised = values_of(merge(passes))
    raw = values_of(merge(passes, normalise=False))
    return {name: {"value": cell[0], "raw": raw[name][0],
                   "unit": unit_of(name), "n": cell[1],
                   "valid": cell[2] if len(cell) > 2 else True}
            for name, cell in normalised.items()}


def end_to_end_metrics(passes: list) -> dict:
    """The metrics ``BENCHMARK.json`` bounds; every workload has them all."""
    return _cells(passes, _end_to_end_values,
                  lambda name: END_TO_END[name]["unit"])


def named_metrics(passes: list) -> dict:
    """The issue's metric names, where the workload has that operation."""
    return _cells(passes, _named_values, lambda name: NAMED_INFO[name][0])


def totals(passes: list) -> dict:
    return {"attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "rounds": sum(p["rounds"] for p in passes),
            "notes": [note for p in passes for note in p["notes"]]}


def run_passes(workload: str, seed: int, seconds: float,
               tiny: bool = False) -> list:
    """An untraced run: ``PASSES`` passes of ``seconds / PASSES`` each."""
    return [run_worker(workload, seed, index, seconds / PASSES, tiny=tiny)
            for index in range(PASSES)]


def run_traced(workload: str, seed: int, seconds: float,
               tiny: bool = False) -> dict:
    """A traced run: a short untraced pass for the overhead ratio, then a
    traced pass of the same seed.  Returns ``{"metrics", "failed", ...}``."""
    untraced = run_worker(workload, seed, 0, seconds / PASSES, tiny=tiny)
    traced = run_worker(workload, seed, 0, seconds * (PASSES - 1) / PASSES,
                        trace=True, tiny=tiny)
    computed = layer_metrics(traced, untraced)
    missing = sorted(set(PER_LAYER) - set(computed))
    if missing:
        raise KeyError(f"BENCHMARK.json names per-layer metrics the traced "
                       f"run does not produce: {missing}")
    return {
        "workload": workload, "seed": seed,
        "attempted": traced["attempted"] + untraced["attempted"],
        "failed": traced["failed"] + untraced["failed"],
        "notes": traced["notes"] + untraced["notes"],
        "spans_written": traced["spans_written"],
        "metrics": {name: {"value": computed[name],
                           "unit": PER_LAYER[name]["unit"]}
                    for name in PER_LAYER},
    }


def run_set(seed: int, seconds: float, progress) -> dict:
    """One full untraced set: ``PASSES`` sweeps over the workload list."""
    passes: dict = {name: [] for name in WORKLOAD_NAMES}
    for index in range(PASSES):
        for name in WORKLOAD_NAMES:
            progress(f"pass {index + 1}/{PASSES} {name}")
            passes[name].append(
                run_worker(name, seed, index, seconds / PASSES))
    return {name: {
        "end_to_end": end_to_end_metrics(passes[name]),
        "named": named_metrics(passes[name]),
        "host_speed_ms": statistics.median(
            ms for p in passes[name] for ms in p["host_speed_ms"]),
        **totals(passes[name]),
    } for name in WORKLOAD_NAMES}
