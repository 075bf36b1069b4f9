"""Schema-versioned JSON benchmark artifacts (``BENCH_<name>.json``).

One artifact per workload, self-describing enough to compare across
machines and revisions: schema tag, machine info, git revision, the sweep
parameters, and per-point timing series plus engine counters.  The schema
is documented in ROADMAP.md; bump :data:`SCHEMA` on incompatible change.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional

from .registry import BenchError, Workload
from .timer import Measurement

SCHEMA = "repro-bench/v1"


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def git_info(cwd: Optional[str] = None) -> dict:
    """Current revision and dirtiness; ``rev`` is None outside a checkout."""
    def run(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = run("rev-parse", "HEAD")
    status = run("status", "--porcelain") if rev is not None else None
    return {"rev": rev, "dirty": bool(status) if status is not None else None}


def make_artifact(workload: Workload, mode: str,
                  measurements: Iterable[Measurement]) -> dict:
    return {
        "schema": SCHEMA,
        "name": workload.name,
        "group": workload.group,
        "description": workload.description,
        "mode": mode,
        "created": datetime.now(timezone.utc).isoformat(),
        "machine": machine_info(),
        "git": git_info(),
        "points": [m.as_dict() for m in measurements],
    }


def artifact_path(directory: str, name: str) -> Path:
    return Path(directory) / f"BENCH_{name}.json"


def write_artifact(directory: str, artifact: dict) -> Path:
    path = artifact_path(directory, artifact["name"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return path


def load_artifact(path: str) -> dict:
    try:
        artifact = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read benchmark artifact {path!r}: {exc}")
    schema = artifact.get("schema")
    if schema != SCHEMA:
        raise BenchError(
            f"artifact {path!r} has schema {schema!r}; expected {SCHEMA!r}")
    return artifact


def load_artifacts(location: str) -> dict[str, dict]:
    """Artifacts by workload name, from a ``BENCH_*.json`` file or a
    directory of them."""
    path = Path(location)
    if path.is_file():
        artifact = load_artifact(path)
        return {artifact["name"]: artifact}
    if not path.is_dir():
        raise BenchError(f"no artifact file or directory at {location!r}")
    artifacts = {}
    for file in sorted(path.glob("BENCH_*.json")):
        artifact = load_artifact(file)
        artifacts[artifact["name"]] = artifact
    return artifacts
