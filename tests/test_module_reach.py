"""Every module under ``src/repro/`` has a caller on a path a user runs.

The user paths are the package itself (the library API), ``python -m
repro`` and the ``repro`` command (``repro.cli``, which dispatches to
``repro cluster``, ``repro serve`` and ``repro check``).  The walk reads
import statements with :mod:`ast` — imports inside functions included —
and follows them through the package; nothing is imported.  A module the
walk cannot reach is either listed below with the reason it stays, or it
does not belong in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

ROOTS = ("repro", "repro.__main__", "repro.cli")

#: Modules no user path imports, each with the reason it stays.
UNREACHED = {
    "repro.apps": "library API: examples/binder_filesystem.py imports it",
    "repro.apps.filesystem": "library API: the section 9 file system",
    "repro.core.provenance": "library API: explain and trust_chain (section 7)",
    "repro.languages.d1lp": "library API: examples/delegation_network.py runs it",
    "repro.workspace.partition": "library API: partitioning by currying (3.4)",
    "repro.datalog.magic": "an e2e_bench TARGET (query_magic, magic_transform)",
}


def module_files() -> dict[str, Path]:
    modules = {}
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_by(name: str, path: Path, modules: dict) -> set[str]:
    """The package modules ``name``'s import statements load."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: set[str] = set()

    def load(target: str) -> None:
        # importing a.b.c runs a, a.b and a.b.c
        parts = target.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules:
                found.add(prefix)

    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                load(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                source = f"{base}.{node.module}" if node.module else base
            else:
                source = node.module or ""
            load(source)
            for alias in node.names:
                load(f"{source}.{alias.name}")
    return found


def reached() -> set[str]:
    modules = module_files()
    seen: set[str] = set()
    pending = list(ROOTS)
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        pending.extend(imported_by(name, modules[name], modules) - seen)
    return seen


def test_every_module_has_a_caller_on_a_user_path():
    unreached = set(module_files()) - reached()
    assert unreached == set(UNREACHED), (
        f"not on a user path and not listed: {sorted(unreached - set(UNREACHED))}; "
        f"listed but reached: {sorted(set(UNREACHED) - unreached)}")
