"""Command line: the driver's one-workload run, full sets, compare, selftest."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from . import harness
from .harness import END_TO_END, NAMED_INFO, PER_LAYER, ROOT, SPEC, \
    WORKLOAD_NAMES
from .layers import LAYERS
from .stats import REFERENCE_KERNEL_MS, spread, verdict, worse_by

SCHEMA = "e2e-bench/v1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m e2e_bench",
        description="End-to-end benchmark of the LBTrust reproduction. "
                    "With --workload: one run, result as one JSON line (the "
                    "BENCHMARK.json contract). Without: a full set over all "
                    "workloads, every metric printed by name.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run with per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="full sets to run; more than one also prints "
                             "each metric's spread against its bound")
    parser.add_argument("--json", metavar="PATH",
                        help="write the sets (and traced runs) as an artifact")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two artifacts; exit 1 on a regression")
    parser.add_argument("--selftest", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.selftest:
        from .selftest import selftest
        return selftest()
    if args.compare:
        return compare(*args.compare)
    try:
        if args.workload:
            return driver_run(args.workload, args.seed, args.seconds,
                              args.trace)
        return full_sets(args)
    except harness.WorkerFailed as exc:  # e.g. no src/ beside e2e_bench/
        print(f"e2e_bench: {exc}", file=sys.stderr)
        return 2


# -- the BENCHMARK.json contract -----------------------------------------------

def driver_run(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run of one workload; the last stdout line is the result object."""
    if trace:
        run = harness.run_traced(workload, seed, seconds)
        metrics = run["metrics"]
    else:
        passes = harness.run_passes(workload, seed, seconds)
        run = harness.totals(passes)
        metrics = {name: {"value": cell["value"], "unit": cell["unit"]}
                   for name, cell in
                   harness.end_to_end_metrics(passes).items()}
    for note in run["notes"]:
        print(f"oracle mismatch: {note}", file=sys.stderr)
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if run["failed"] == 0 else 1


# -- full sets -------------------------------------------------------------------

def host_info() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_rev": rev or "unknown"}


def full_sets(args) -> int:
    failed = 0
    artifact = {"schema": SCHEMA, "host": host_info(), "seed": args.seed,
                "seconds": args.seconds, "sets": [], "traced": {}}
    if args.trace:
        for name in WORKLOAD_NAMES:
            print(f"traced run: {name}", file=sys.stderr)
            run = harness.run_traced(name, args.seed, args.seconds)
            failed += run["failed"]
            artifact["traced"][name] = run
        print_traced(artifact["traced"])
    else:
        for index in range(args.sets):
            done = harness.run_set(
                args.seed, args.seconds,
                progress=lambda text: print(
                    f"set {index + 1}/{args.sets} {text}", file=sys.stderr))
            artifact["sets"].append(done)
            failed += sum(cell["failed"] for cell in done.values())
            print_set(done, index)
        if args.sets > 1:
            print_spreads(artifact["sets"])
    speeds = [cell["host_speed_ms"] for done in artifact["sets"]
              for cell in done.values()] \
        + [run["metrics"]["harness.host_speed_index"]["value"]
           for run in artifact["traced"].values()]
    artifact["host"]["host_speed_index"] = statistics.median(speeds)
    print(f"host_speed_index {artifact['host']['host_speed_index']:.3f} ms "
          f"(calibration kernel, median; the reference host takes "
          f"{REFERENCE_KERNEL_MS} ms)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(artifact, out, indent=1)
            out.write("\n")
    if failed:
        print(f"FAILED: {failed} operation(s) disagreed with the oracle",
              file=sys.stderr)
    return 1 if failed else 0


def metric_info(name: str) -> tuple:
    """(better, bound) of an end-to-end or issue-named metric."""
    if name in END_TO_END:
        return END_TO_END[name]["better"], END_TO_END[name]["bound"]
    _unit, better, bound = NAMED_INFO[name]
    return better, bound


def cells_of(done: dict, workload: str) -> dict:
    """All metric cells of one workload in one set, contract names first."""
    return {**done[workload]["end_to_end"], **done[workload]["named"]}


def print_set(done: dict, index: int) -> None:
    print(f"\nset {index + 1}: end-to-end metrics, tracing off "
          f"(value: host-normalised; raw: as measured)")
    print(f"{'workload':17}{'metric':21}{'value':>14}{'raw':>14} {'unit':6}"
          f"{'n':>8}{'bound':>7}")
    for workload in done:
        for name, cell in cells_of(done, workload).items():
            _better, bound = metric_info(name)
            flag = "" if cell.get("valid", True) \
                else "  (fewer than 10 samples beyond this quantile)"
            print(f"{workload:17}{name:21}{cell['value']:14.4f}"
                  f"{cell['raw']:14.4f} {cell['unit']:6}{cell['n']:8d}"
                  f"{bound:7.2f}{flag}")
        mark = "ok" if not done[workload]["failed"] else "ORACLE MISMATCH"
        print(f"{workload:17}{'oracle':21}{mark:>14} "
              f"{done[workload]['failed']}/{done[workload]['attempted']} "
              f"failed, {done[workload]['rounds']} rounds")


def print_spreads(sets: list) -> None:
    print(f"\n{len(sets)} sets: spread of each metric against its bound")
    print(f"{'workload':17}{'metric':21}{'spread':>8}{'bound':>7}  verdict  "
          f"values")
    for workload in sets[0]:
        for name in cells_of(sets[0], workload):
            values = [cells_of(done, workload)[name]["value"]
                      for done in sets]
            _better, bound = metric_info(name)
            wide = spread(values)
            print(f"{workload:17}{name:21}{wide:8.3f}{bound:7.2f}  "
                  f"{'inside ' if wide <= bound else 'OUTSIDE'}  "
                  + " ".join(f"{value:.4f}" for value in values))


def print_traced(traced: dict) -> None:
    print("\nper-layer metrics, traced run (times are self time per round)")
    workloads = list(traced)
    print(f"{'metric':34}{'unit':6}"
          + "".join(f"{name[:12]:>13}" for name in workloads))
    for name, entry in PER_LAYER.items():
        print(f"{name:34}{entry['unit']:6}" + "".join(
            f"{traced[w]['metrics'][name]['value']:13.3f}"
            for w in workloads))
    print("\nshare of the span-covered time, by layer")
    self_ms = {w: {layer: traced[w]["metrics"][f"{layer}.self_ms"]["value"]
                   for layer in LAYERS} for w in workloads}
    for layer in LAYERS:
        print(f"{layer:34}{'%':6}" + "".join(
            f"{100 * self_ms[w][layer] / sum(self_ms[w].values()):13.1f}"
            for w in workloads))


# -- compare ---------------------------------------------------------------------

def load_artifact(path: str) -> dict:
    with open(path, encoding="utf-8") as source:
        artifact = json.load(source)
    if artifact.get("schema") != SCHEMA or not artifact.get("sets"):
        raise SystemExit(f"{path}: not an {SCHEMA} artifact with sets")
    return artifact


def compare(path_a: str, path_b: str) -> int:
    """One row per metric × workload; ratios are B ÷ A with A as the base."""
    sets_a = load_artifact(path_a)["sets"]
    sets_b = load_artifact(path_b)["sets"]
    print(f"A = {path_a} ({len(sets_a)} sets)   "
          f"B = {path_b} ({len(sets_b)} sets)")
    print(f"{'workload':17}{'metric':21}{'A median':>12}{'B median':>12}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    regressed = 0
    for workload in sets_a[0]:
        if workload not in sets_b[0]:
            continue
        for name in cells_of(sets_a[0], workload):
            if name not in cells_of(sets_b[0], workload):
                continue
            base = [cells_of(done, workload)[name]["value"]
                    for done in sets_a]
            other = [cells_of(done, workload)[name]["value"]
                     for done in sets_b]
            better, bound = metric_info(name)
            outcome = verdict(base, other, better, bound)
            regressed += outcome == "regressed"
            median_a = statistics.median(base)
            median_b = statistics.median(other)
            ratio = median_b / median_a if median_a else float("nan")
            print(f"{workload:17}{name:21}{median_a:12.4f}{median_b:12.4f}"
                  f"{ratio:8.3f}{bound:7.2f}  {outcome}"
                  f" ({worse_by(median_a, median_b, better):+.1%} worse"
                  f" than A)")
    return 1 if regressed else 0
