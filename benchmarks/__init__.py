"""Benchmark scripts for the LBTrust reproduction.

Each module registers its workloads with :mod:`repro.bench` at import
time (the ``repro bench`` CLI imports this whole package to discover
them) and stays runnable standalone::

    python benchmarks/bench_fig2_auth_overhead.py --quick

The ``@benchmark`` registry is the one microbenchmark entry point; it
needs nothing beyond a bare ``pip install -e .`` environment.
"""
