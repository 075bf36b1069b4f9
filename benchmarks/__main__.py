"""``python -m benchmarks``: discover this package's workloads, then run,
record or compare them (:mod:`benchmarks.harness.cli`)."""

from benchmarks.harness.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
