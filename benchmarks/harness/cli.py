"""``python -m benchmarks`` — run, record, and compare benchmark workloads.

Run from the repository root, with ``repro`` importable::

    python -m benchmarks --list
    python -m benchmarks --quick --json bench-artifacts/
    python -m benchmarks --full --filter 'fig2*'
    python -m benchmarks --quick --compare baseline-artifacts/
    python -m benchmarks --compare baseline/ --json current/   # diff two artifact sets

Exit status: 0 on success, 1 when ``--compare`` finds a regression beyond
``--threshold``, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, TextIO

from .compare import compare_artifacts, format_comparison
from .registry import BenchError, load_scripts, select
from .report import load_artifacts, write_artifact
from .runner import run_workloads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="Benchmark harness for the LBTrust reproduction",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="CI-smoke sweep (seconds; the default)")
    mode.add_argument("--full", action="store_true",
                      help="full sweep (paper-scale parameters)")
    parser.add_argument("--json", metavar="DIR",
                        help="write one BENCH_<name>.json per workload here")
    parser.add_argument("--filter", metavar="PATTERN",
                        help="only workloads whose name or group matches "
                             "this fnmatch pattern")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="diff against baseline artifacts (file or dir); "
                             "with no --quick/--full, current artifacts are "
                             "loaded from --json instead of re-running")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="regression threshold as a fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--list", action="store_true",
                        help="list registered workloads and exit")
    return parser


def main(argv: Optional[list] = None, *, discover: bool = True,
         out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    def emit(line: str = "") -> None:
        print(line, file=out)

    try:
        if discover:
            load_scripts()
        workloads = select(pattern=args.filter)
        if not workloads:
            emit("no workloads matched")
            return 2

        if args.list:
            for workload in workloads:
                emit(f"{workload.name:28s} group={workload.group:22s} "
                     f"quick={len(workload.quick)}pt "
                     f"full={len(workload.full)}pt  {workload.description}")
            return 0

        # Load the baseline before a (potentially long) run so a bad
        # path fails in milliseconds, not after the sweep.
        baseline = load_artifacts(args.compare) if args.compare else None

        run_needed = args.quick or args.full or not args.compare
        if run_needed:
            mode = "full" if args.full else "quick"
            current = run_workloads(workloads, mode=mode, out=out)
            if args.json:
                for artifact in current.values():
                    path = write_artifact(args.json, artifact)
                    emit(f"wrote {path}")
        else:
            if not args.json:
                parser.error("--compare without --quick/--full needs --json "
                             "pointing at existing artifacts")
            current = load_artifacts(args.json)

        if baseline is not None:
            names = {w.name for w in workloads}
            comparison = compare_artifacts(baseline, current,
                                           filter_names=names)
            emit(format_comparison(comparison, args.threshold))
            if not comparison.deltas:
                # A baseline that matches nothing must not green-light a
                # run — it is almost always a wrong path or stale names.
                emit("error: baseline and current share no comparable "
                     "points")
                return 2
            if comparison.regressions(args.threshold):
                return 1
        return 0
    except BenchError as exc:
        emit(f"error: {exc}")
        return 2
