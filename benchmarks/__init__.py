"""Micro benchmarks for the LBTrust reproduction.

Each ``bench_*`` module (and ``workloads``) registers its workloads with
:func:`benchmarks.harness.benchmark` at import time.  There is one way
to run them: ``python -m benchmarks`` from the repository root, which
imports every script of this package and then runs, records or compares
the workloads it selects::

    python -m benchmarks --quick --filter fig2_auth_overhead

:mod:`benchmarks.harness` is the harness; :mod:`benchmarks.oracles`
holds the two reference evaluators (naive bottom-up and tabled top-down)
that the ablations and the differential tests compare the engine with.
Nothing here is part of the ``repro`` package.
"""
