"""The workload registry: named benchmarks with parameter sweeps.

A *workload* is a function decorated with :func:`benchmark`.  It receives a
:class:`~benchmarks.harness.timer.BenchCase` as its first argument plus one sweep
point's parameters as keyword arguments; setup outside ``case.measure()``
is untimed:

.. code-block:: python

    @benchmark("fig2_auth_overhead",
               quick=[{"auth": "hmac", "k": 25}],
               full=[{"auth": a, "k": 100} for a in SCHEMES])
    def fig2(case, auth, k):
        system, alice, bob = make_fig2_system(auth)   # untimed setup
        with case.measure():                          # the timed region
            run_fig2_exchange(system, alice, bob, k)
        case.record(messages=2 * k)                   # extra metrics

Workloads register at import time; the CLI discovers them by importing
every script of the ``benchmarks`` package (see :func:`load_scripts`).
Re-registering a name replaces the previous entry.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import os
import pkgutil
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.datalog.errors import ReproError


class BenchError(ReproError):
    """Raised for benchmark-harness misuse (unknown names, bad sweeps)."""


@dataclass
class Workload:
    """A registered benchmark: the target callable plus its sweep points."""

    name: str
    func: Callable
    group: str
    description: str
    quick: list = field(default_factory=list)
    full: list = field(default_factory=list)
    warmup: int = 1
    repeats: int = 3

    def points(self, mode: str) -> list:
        if mode == "quick":
            return self.quick
        if mode == "full":
            return self.full
        raise BenchError(f"unknown mode {mode!r}; use 'quick' or 'full'")


_REGISTRY: dict[str, Workload] = {}


def benchmark(name: str, *, group: Optional[str] = None,
              quick: Optional[list] = None, full: Optional[list] = None,
              warmup: int = 1, repeats: int = 3) -> Callable:
    """Register the decorated function as a named benchmark workload.

    ``quick``/``full`` are lists of parameter dicts — one timed series per
    dict.  ``quick`` must finish in CI-smoke time (well under a few
    seconds per point); ``full`` defaults to the quick sweep when omitted.
    """
    if not name or "/" in name or os.sep in name:
        raise BenchError(f"invalid workload name {name!r}")

    def decorate(func: Callable) -> Callable:
        doc = inspect.getdoc(func) or ""
        quick_points = [dict(p) for p in (quick if quick is not None else [{}])]
        full_points = [dict(p) for p in full] if full is not None else \
                      [dict(p) for p in quick_points]
        _REGISTRY[name] = Workload(
            name=name,
            func=func,
            group=group or name,
            description=doc.splitlines()[0] if doc else "",
            quick=quick_points,
            full=full_points,
            warmup=warmup,
            repeats=repeats,
        )
        func.workload_name = name
        return func

    return decorate


def registered() -> list[Workload]:
    """All registered workloads, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get(name: str) -> Workload:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BenchError(f"no workload named {name!r}; "
                         f"registered: {sorted(_REGISTRY)}") from None


def select(pattern: Optional[str] = None,
           names: Optional[Iterable[str]] = None) -> list[Workload]:
    """Workloads matching an fnmatch ``pattern`` (name or group) and/or
    an explicit name list."""
    chosen = registered()
    if names is not None:
        wanted = set(names)
        chosen = [w for w in chosen if w.name in wanted]
    if pattern:
        chosen = [w for w in chosen
                  if fnmatch.fnmatch(w.name, pattern)
                  or fnmatch.fnmatch(w.group, pattern)]
    return chosen


def clear() -> dict[str, Workload]:
    """Empty the registry, returning the previous contents (for tests)."""
    previous = dict(_REGISTRY)
    _REGISTRY.clear()
    return previous


def restore(entries: dict[str, Workload]) -> None:
    """Replace the registry contents (undo a :func:`clear`)."""
    _REGISTRY.clear()
    _REGISTRY.update(entries)


def load_scripts() -> list[str]:
    """Import every script of the ``benchmarks`` package (the package
    this harness lives in), registering its workloads.  Returns the
    imported module names."""
    package = importlib.import_module(__name__.split(".")[0])
    imported = []
    for info in pkgutil.iter_modules(package.__path__):
        if info.ispkg or info.name.startswith("_"):
            continue
        module = f"{package.__name__}.{info.name}"
        importlib.import_module(module)
        imported.append(module)
    return imported
