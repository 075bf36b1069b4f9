"""Benchmark scripts for the LBTrust reproduction.

Each module registers its workloads with :mod:`repro.bench` at import
time (the ``repro bench`` CLI imports this whole package to discover
them) and stays runnable standalone::

    python benchmarks/bench_fig2_auth_overhead.py --quick

The pytest-benchmark entry points remain for interactive use
(``pytest benchmarks/ --benchmark-only``); CI and perf PRs use
``repro bench`` for machine-readable artifacts.  pytest itself is an
optional dependency: scripts import it through :func:`optional_pytest`
so ``repro bench`` works in a bare ``pip install -e .`` environment.
"""


def optional_pytest():
    """The real pytest module, or a stub whose ``mark.benchmark`` is a
    no-op decorator (enough for the module-level marks in bench_*.py)."""
    try:
        import pytest
        return pytest
    except ImportError:  # bare runtime install: harness-only usage
        class _Mark:
            @staticmethod
            def benchmark(**_kwargs):
                def decorate(func):
                    return func
                return decorate

        class _PytestStub:
            mark = _Mark()

        return _PytestStub()
