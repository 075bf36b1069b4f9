"""Span tracer that wraps ``repro`` entry points from outside the package.

``install`` replaces each target callable with a wrapper that records one
span (name, start, end, parent) per call.  A module-level function is
replaced in *every* loaded ``repro.*`` module that holds a reference to it
— modules import each other's functions by name, so patching the defining
module alone would miss those callers — and a method is replaced on its
class.  ``uninstall`` restores every binding.  Spans live in parallel
arrays (24 bytes each) and are aggregated or written out after the run.

A layer's *self time* is the sum over its spans of duration minus the time
covered by their direct children.  The benchmark drives the program from
one thread, so spans nest strictly and siblings never overlap.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

#: Scopes the harness switches between; spans carry the scope they began in.
SETUP, TIMED, UNTIMED = 0, 1, 2
SCOPE_NAMES = ("setup", "timed", "untimed")


@dataclass(frozen=True)
class Target:
    layer: str          # the ``src/repro/`` package the callable belongs to
    group: str          # finer span family within the layer
    module: str         # defining module
    qualname: str       # ``function`` or ``Class.method``
    context: bool = False   # returns a context manager: span = enter→exit
    tally: Optional[Callable] = None  # tally(counts, result) per timed call

    @property
    def label(self) -> str:
        return f"{self.layer}.{self.group}:{self.qualname}"


class _SpanContext:
    """Holds a span open across a wrapped context manager's body."""

    __slots__ = ("inner", "tracer", "name_id", "index")

    def __init__(self, inner, tracer: "Tracer", name_id: int) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.index = self.tracer.begin(self.name_id)
        try:
            return self.inner.__enter__()
        except BaseException:
            self.tracer.end(self.index)
            raise

    def __exit__(self, *exc_info):
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            self.tracer.end(self.index)


class Tracer:
    def __init__(self) -> None:
        self.targets: list = []            # name id -> Target
        self.name_ids = array("i")
        self.parents = array("i")
        self.scopes = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict = {}             # tallies from call results
        self.scope = SETUP
        self._stack: list = []
        self._patched: list = []           # (holder, attribute, original)

    # -- recording -----------------------------------------------------------

    def begin(self, name_id: int) -> int:
        index = len(self.name_ids)
        stack = self._stack
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.scopes.append(self.scope)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, original: Callable) -> Callable:
        name_id = len(self.targets)
        self.targets.append(target)
        begin, end, tally, counts = self.begin, self.end, target.tally, self.counts

        if target.context:
            def wrapper(*args, **kwargs):
                return _SpanContext(original(*args, **kwargs), self, name_id)
        elif tally is not None:
            def wrapper(*args, **kwargs):
                index = begin(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    end(index)
                if self.scope == TIMED:
                    tally(counts, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                index = begin(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    end(index)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        wrapper.e2e_span = target.label
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attribute = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                if not callable(original) or isinstance(
                        original, (staticmethod, classmethod)):
                    raise TypeError(f"{target.label} is not a plain method")
                self._replace(owner, attribute, original,
                              self._wrap(target, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(target, original)
            for _name, holder in _repro_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, original, wrapper)

    def _replace(self, holder, attribute: str, original, wrapper) -> None:
        setattr(holder, attribute, wrapper)
        self._patched.append((holder, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            holder, attribute, original = self._patched.pop()
            setattr(holder, attribute, original)
        # A module first imported *during* the traced run copied wrappers
        # out of already-patched modules; it is not in ``_patched``.
        for _name, module in _repro_modules():
            for key, value in list(vars(module).items()):
                if hasattr(value, "e2e_span") and not isinstance(value, type):
                    setattr(module, key, value.__wrapped__)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """``{scope name: {"spans": {"layer.group": [self_s, calls]},
        "root_s": seconds covered by root spans}}`` (JSON-ready)."""
        count = len(self.name_ids)
        child_s = [0.0] * count
        out: dict = {}
        for index in range(count - 1, -1, -1):  # children follow parents
            duration = self.ends[index] - self.starts[index]
            parent = self.parents[index]
            scope = out.setdefault(SCOPE_NAMES[self.scopes[index]],
                                   {"spans": {}, "root_s": 0.0})
            if parent >= 0:
                child_s[parent] += duration
            else:
                scope["root_s"] += duration
            target = self.targets[self.name_ids[index]]
            cell = scope["spans"].setdefault(
                f"{target.layer}.{target.group}", [0.0, 0])
            cell[0] += duration - child_s[index]
            cell[1] += 1
        return out

    def write_spans(self, path, limit: int = 200_000) -> int:
        """Dump spans as TSV (index, parent, scope, start µs, duration µs,
        label); returns how many were written."""
        count = min(len(self.name_ids), limit)
        origin = self.starts[0] if count else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# {len(self.name_ids)} spans recorded, "
                      f"{count} written\n")
            out.write("index\tparent\tscope\tstart_us\tduration_us\tspan\n")
            for index in range(count):
                start = self.starts[index]
                out.write(
                    f"{index}\t{self.parents[index]}\t{self.scopes[index]}\t"
                    f"{(start - origin) * 1e6:.1f}\t"
                    f"{(self.ends[index] - start) * 1e6:.1f}\t"
                    f"{self.targets[self.name_ids[index]].label}\n")
        return count


def _repro_modules() -> list:
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def leftover_wrappers() -> list:
    """Every ``repro.*`` module or class attribute that is still a tracer
    wrapper — must be empty after ``uninstall``."""
    found = []
    for name, module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, "e2e_span"):
                found.append(f"{name}.{key}")
            elif isinstance(value, type):
                found.extend(f"{name}.{key}.{attr}"
                             for attr, member in list(vars(value).items())
                             if hasattr(member, "e2e_span"))
    return found
