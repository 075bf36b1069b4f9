"""The ``python -m benchmarks`` CLI end-to-end: run, artifacts, filter,
compare."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.harness import benchmark
from benchmarks.harness.cli import main


@pytest.fixture
def two_workloads(clean_registry):
    @benchmark("alpha_fast", group="alpha", warmup=0, repeats=1,
               quick=[{"n": 1}], full=[{"n": 1}, {"n": 2}])
    def alpha(case, n):
        """A tiny workload."""
        with case.measure():
            sum(range(100 * n))
        case.record(n=n)

    @benchmark("beta_fast", group="beta", warmup=0, repeats=1)
    def beta(case):
        with case.measure():
            sum(range(50))


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, discover=False, out=out)
    return code, out.getvalue()


class TestRun:
    def test_quick_writes_one_artifact_per_workload(self, two_workloads,
                                                    tmp_path):
        code, output = run_cli(["--quick", "--json", str(tmp_path)])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
        assert files == ["BENCH_alpha_fast.json", "BENCH_beta_fast.json"]
        artifact = json.loads((tmp_path / "BENCH_alpha_fast.json").read_text())
        assert artifact["schema"] == "repro-bench/v1"
        assert artifact["mode"] == "quick"
        point_metrics = dict(artifact["points"][0]["metrics"])
        assert point_metrics.pop("peak_mem_bytes") > 0
        assert point_metrics == {"n": 1}
        assert "best=" in output

    def test_full_mode_runs_full_sweep(self, two_workloads, tmp_path):
        code, _ = run_cli(["--full", "--json", str(tmp_path)])
        assert code == 0
        artifact = json.loads((tmp_path / "BENCH_alpha_fast.json").read_text())
        assert [p["params"] for p in artifact["points"]] == \
            [{"n": 1}, {"n": 2}]

    def test_filter_selects_subset(self, two_workloads, tmp_path):
        code, _ = run_cli(["--quick", "--filter", "alpha*",
                           "--json", str(tmp_path)])
        assert code == 0
        assert [p.name for p in tmp_path.glob("BENCH_*.json")] == \
            ["BENCH_alpha_fast.json"]

    def test_no_match_exits_2(self, two_workloads):
        code, output = run_cli(["--quick", "--filter", "nope*"])
        assert code == 2
        assert "no workloads matched" in output

    def test_list(self, two_workloads):
        code, output = run_cli(["--list"])
        assert code == 0
        assert "alpha_fast" in output and "beta_fast" in output
        assert "A tiny workload." in output


class TestCompare:
    def test_identical_artifacts_pass(self, two_workloads, tmp_path):
        run_cli(["--quick", "--json", str(tmp_path / "base")])
        code, output = run_cli(["--compare", str(tmp_path / "base"),
                                "--json", str(tmp_path / "base")])
        assert code == 0
        assert "0 regression(s)" in output

    def test_injected_regression_exits_nonzero(self, two_workloads, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        run_cli(["--quick", "--json", str(base)])
        run_cli(["--quick", "--json", str(cur)])
        # Inject a 10x slowdown into the current artifacts.
        path = cur / "BENCH_alpha_fast.json"
        artifact = json.loads(path.read_text())
        for point in artifact["points"]:
            point["best"] *= 10
            point["timings"] = [t * 10 for t in point["timings"]]
        path.write_text(json.dumps(artifact))
        code, output = run_cli(["--compare", str(base), "--json", str(cur)])
        assert code == 1
        assert "REGRESSION" in output

    def test_run_then_compare(self, two_workloads, tmp_path):
        base = tmp_path / "base"
        run_cli(["--quick", "--json", str(base)])
        # Make the baseline impossibly fast: the fresh run must regress.
        for path in base.glob("BENCH_*.json"):
            artifact = json.loads(path.read_text())
            for point in artifact["points"]:
                point["best"] = 1e-12
            path.write_text(json.dumps(artifact))
        code, output = run_cli(["--quick", "--compare", str(base)])
        assert code == 1
        assert "REGRESSION" in output

    def test_compare_without_current_artifacts_is_usage_error(
            self, two_workloads, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["--compare", str(tmp_path)])

    def test_missing_baseline_reports_error(self, two_workloads, tmp_path):
        code, output = run_cli(["--quick", "--compare",
                                str(tmp_path / "nothing")])
        assert code == 2
        assert "error:" in output


#: The workloads the ``benchmarks`` package registers: CI's compare gate
#: matches artifacts from main by these names, point for point.
WORKLOADS = [
    "async_overlap", "cluster_shard_scaling", "crypto_primitives",
    "delegation_chain", "eval_strategies", "fig2_auth_overhead",
    "fig2_single_message", "fig2_sweep", "incremental_maintenance",
    "join_micro", "magic_point_query", "sendlog_convergence",
    "sendlog_ring", "serve_latency", "snapshot_rollback",
    "socket_transport", "threshold_scaling",
]


def test_python_dash_m_benchmarks_is_the_entry_point(tmp_path):
    """``python -m benchmarks``, run from the repository root, discovers
    every workload of the package, and a quick ``join_micro`` run writes
    the artifact CI's join gate reads: the ``id_indexed`` and
    ``value_hash`` points at ``n`` = 2000."""
    root = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "benchmarks", *argv], cwd=root, env=env,
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stdout + result.stderr
        return result.stdout

    listed = [line.split()[0] for line in run("--list").splitlines()]
    assert listed == WORKLOADS

    run("--quick", "--filter", "join_micro", "--json", str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_join_micro.json"]
    points = json.loads((tmp_path / "BENCH_join_micro.json").read_text())["points"]
    best = {p["params"]["mode"]: p["best"] for p in points
            if p["params"]["n"] == 2000}
    assert {"id_indexed", "value_hash"} <= set(best)
    assert all(value > 0 for value in best.values())


class TestVacuousCompare:
    def test_empty_baseline_dir_is_an_error(self, two_workloads, tmp_path):
        cur = tmp_path / "cur"
        empty = tmp_path / "empty"
        empty.mkdir()
        run_cli(["--quick", "--json", str(cur)])
        code, output = run_cli(["--compare", str(empty), "--json", str(cur)])
        assert code == 2
        assert "no comparable points" in output
