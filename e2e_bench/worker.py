"""One pass of one workload in a fresh process.

The harness starts ``python -m e2e_bench.worker '<json>'`` with
``PYTHONHASHSEED`` pinned, so set iteration order — and with it the
engine's evaluation order — is the same on every run of a seed.  The
worker sets up once, runs fixed-size rounds until its time share is used,
and prints one JSON object: pooled latency samples per operation kind,
per-round wall times, public counters, and (traced) per-layer self times.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

from .layers import TARGETS
from .tracer import UNTIMED, Tracer
from .workloads import WORKLOADS, Clock

OUT_DIR = Path(__file__).resolve().parent / "out"
CALIBRATE_EVERY_S = 0.15
CALIBRATION_BURST = 5
SETUP_BURST = 25   # right after set-up, so a short pass still has a factor
MAX_NOTES = 5

#: Working set of ``dict_kernel``'s second half: larger than L2, so
#: the kernel feels cache contention from neighbours the way the engine's
#: relations and indexes do, yet small (~5 MB) beside any workload's heap.
_PROBE_KEYS = [(i * 7919 % 100003, i % 9973) for i in range(30000)]
_PROBE_SET = set(_PROBE_KEYS)


def dict_kernel() -> float:
    """The reference kernel, in ms: a fixed amount of the work the engine
    is made of — building a set and a dict of small tuples, then probing a
    large set in a scattered order.  The harness divides measured times by
    a kernel's median over the same pass (see README, "Host
    normalisation"); no kernel touches ``repro``."""
    started = time.perf_counter()
    seen, tally = set(), {}
    for i in range(3000):
        key = (i * 7919 % 1000, i % 97)
        seen.add(key)
        tally[key] = tally.get(key, 0) + 1
    hits = 0
    for i in range(4000):
        if _PROBE_KEYS[i * 104729 % 30000] in _PROBE_SET \
                and (i * 31 % 1000, i % 97) in seen:
            hits += 1
    return (time.perf_counter() - started) * 1e3


_POW_MODULUS = (1 << 1023) | 0x5DEECE66D1234567
_POW_EXPONENT = (1 << 600) - 1


def pow_kernel() -> float:
    """The kernel for a workload made of RSA signatures: one 1024-bit
    modular exponentiation, sized to take about as long as ``dict_kernel``.
    Big-integer arithmetic hardly touches memory, so it slows down with the
    host about half as much as dict work does; measured against
    ``dict_kernel``, fig2_rsa's round time had slope 0.5 and was no
    steadier normalised than raw, against this one slope 0.95 and half
    the residual (and fig2_hmac the other way round)."""
    started = time.perf_counter()
    pow(0xC1D20090104BEEF, _POW_EXPONENT, _POW_MODULUS)
    return (time.perf_counter() - started) * 1e3


KERNELS = {"dict": dict_kernel, "pow": pow_kernel}


class Calibrator:
    """Times the workload's kernel in bursts spread over the pass: one right
    after set-up, then one before a timed region whenever
    ``CALIBRATE_EVERY_S`` have passed since the last (``Clock.start`` asks),
    so a round made of several timed regions is sampled inside as well as
    around."""

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]
        self.samples = [self.kernel() for _ in range(SETUP_BURST)]
        self.last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.samples += [self.kernel() for _ in range(CALIBRATION_BURST)]
            self.last = time.perf_counter()


def run_pass(workload: str, seed: int, pass_index: int, seconds: float,
             trace: bool = False, tiny: bool = False,
             spawned: float = None) -> dict:
    spawned = time.time() if spawned is None else spawned
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(TARGETS)
    try:
        instance = WORKLOADS[workload](seed, pass_index, tiny=tiny)
        instance.setup()
        setup_s = time.time() - spawned
        gc.collect()
        result = {
            "workload": workload, "primary": instance.primary,
            "setup_s": setup_s,
            "rounds": 0, "round_ms": [], "timed_ms": 0.0, "cpu_ms": 0.0,
            "ops": 0, "attempted": 0, "failed": 0, "notes": [],
            "samples": {}, "counters": {},
        }
        calibrator = Calibrator(instance.kernel)
        if tracer is not None:
            tracer.scope = UNTIMED   # set-up is over; Clock marks the rest
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            clock = Clock(calibrator, tracer)
            done = instance.round(clock)
            result["rounds"] += 1
            result["round_ms"].append(clock.wall_ms)
            result["timed_ms"] += clock.wall_ms
            result["cpu_ms"] += clock.cpu_ms
            for key in ("ops", "attempted", "failed"):
                result[key] += getattr(done, key)
            result["notes"] = (result["notes"] + done.notes)[:MAX_NOTES]
            for kind, values in done.samples.items():
                result["samples"].setdefault(kind, []).extend(values)
            for key, value in done.counters.items():
                result["counters"][key] = \
                    result["counters"].get(key, 0) + value
            if result["rounds"] == 1:
                # the seed fixes the first round's inputs, not how many
                # rounds fit into the time: exact counts come from here
                result["first_round_counters"] = dict(done.counters)
            if time.perf_counter() >= deadline:
                break
        result["host_speed_ms"] = calibrator.samples
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.self_times()
        result["tallies"] = tracer.counts
        OUT_DIR.mkdir(exist_ok=True)
        result["spans_written"] = tracer.write_spans(
            OUT_DIR / f"spans-{workload}-seed{seed}.tsv")
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(**json.loads(sys.argv[1]))))
