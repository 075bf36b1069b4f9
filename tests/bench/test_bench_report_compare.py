"""Artifact writing/loading and regression comparison."""

import json

import pytest

from benchmarks.harness import (
    BenchError,
    SCHEMA,
    benchmark,
    compare_artifacts,
    get,
    load_artifact,
    load_artifacts,
    time_workload,
    write_artifact,
)
from benchmarks.harness.compare import format_comparison
from benchmarks.harness.report import make_artifact


def build_artifact(clean, name="w", best=0.001, params=None, metrics=None):
    @benchmark(name, warmup=0, repeats=1, quick=[dict(params or {"n": 1})])
    def w(case, **kw):
        with case.measure():
            pass

    workload = get(name)
    measurement = time_workload(workload, workload.quick[0])
    measurement.timings = [best]
    if metrics:
        measurement.metrics = dict(metrics)
    return make_artifact(workload, "quick", [measurement])


class TestArtifacts:
    def test_roundtrip(self, clean_registry, tmp_path):
        artifact = build_artifact(clean_registry)
        path = write_artifact(tmp_path, artifact)
        assert path.name == "BENCH_w.json"
        loaded = load_artifact(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["name"] == "w"
        assert loaded["mode"] == "quick"
        assert loaded["points"][0]["params"] == {"n": 1}
        assert loaded["points"][0]["best"] == 0.001
        assert "python" in loaded["machine"]
        assert "rev" in loaded["git"]
        assert loaded["created"]

    def test_load_dir(self, clean_registry, tmp_path):
        write_artifact(tmp_path, build_artifact(clean_registry, "a"))
        write_artifact(tmp_path, build_artifact(clean_registry, "b"))
        assert sorted(load_artifacts(tmp_path)) == ["a", "b"]

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text(json.dumps({"schema": "repro-bench/v99", "name": "x"}))
        with pytest.raises(BenchError):
            load_artifact(bad)

    def test_missing_location_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            load_artifacts(tmp_path / "nope")


class TestCompare:
    def test_no_regression_within_threshold(self, clean_registry):
        base = {"w": build_artifact(clean_registry, best=0.100)}
        cur = {"w": build_artifact(clean_registry, best=0.110)}
        comparison = compare_artifacts(base, cur)
        assert len(comparison.deltas) == 1
        assert comparison.regressions(0.25) == []

    def test_regression_beyond_threshold(self, clean_registry):
        base = {"w": build_artifact(clean_registry, best=0.100)}
        cur = {"w": build_artifact(clean_registry, best=0.200)}
        comparison = compare_artifacts(base, cur)
        regressions = comparison.regressions(0.25)
        assert len(regressions) == 1
        assert regressions[0].ratio == pytest.approx(2.0)
        text = format_comparison(comparison, 0.25)
        assert "REGRESSION" in text
        assert "1 regression(s)" in text

    def test_improvement_is_not_a_regression(self, clean_registry):
        base = {"w": build_artifact(clean_registry, best=0.200)}
        cur = {"w": build_artifact(clean_registry, best=0.050)}
        assert compare_artifacts(base, cur).regressions(0.25) == []

    def test_points_matched_by_params(self, clean_registry):
        base = {"w": build_artifact(clean_registry, params={"n": 1})}
        cur = {"w": build_artifact(clean_registry, params={"n": 2})}
        comparison = compare_artifacts(base, cur)
        assert comparison.deltas == []
        assert comparison.missing_in_current  # the n=1 point disappeared

    def test_missing_artifacts_reported(self, clean_registry):
        base = {"old": build_artifact(clean_registry, "old")}
        cur = {"new": build_artifact(clean_registry, "new")}
        comparison = compare_artifacts(base, cur)
        assert comparison.missing_in_current == ["old"]
        assert comparison.missing_in_baseline == ["new"]

    def test_filter_names(self, clean_registry):
        base = {"a": build_artifact(clean_registry, "a"),
                "b": build_artifact(clean_registry, "b")}
        comparison = compare_artifacts(base, dict(base), filter_names={"a"})
        assert [d.name for d in comparison.deltas] == ["a"]


class TestGatedMetrics:
    """serve_latency points are gated on recorded p99_ms, not just wall
    time: a steady total with a doubled tail must still fail the gate."""

    def serve_artifact(self, clean, best, p99):
        return build_artifact(clean, "serve_latency", best=best,
                              metrics={"p99_ms": p99, "qps": 1000.0})

    def test_metric_delta_emitted_alongside_timing(self, clean_registry):
        base = {"serve_latency": self.serve_artifact(clean_registry,
                                                     0.100, 2.0)}
        cur = {"serve_latency": self.serve_artifact(clean_registry,
                                                    0.100, 2.0)}
        comparison = compare_artifacts(base, cur)
        metrics = sorted(d.metric for d in comparison.deltas)
        assert metrics == ["best", "p99_ms"]
        assert comparison.regressions(0.5) == []

    def test_p99_regression_fails_even_when_timing_holds(self,
                                                         clean_registry):
        base = {"serve_latency": self.serve_artifact(clean_registry,
                                                     0.100, 2.0)}
        cur = {"serve_latency": self.serve_artifact(clean_registry,
                                                    0.100, 4.0)}
        regressions = compare_artifacts(base, cur).regressions(0.5)
        assert [d.metric for d in regressions] == ["p99_ms"]
        assert regressions[0].ratio == pytest.approx(2.0)
        text = format_comparison(compare_artifacts(base, cur), 0.5)
        assert "REGRESSION" in text and "p99_ms" in text

    def test_p99_within_threshold_passes(self, clean_registry):
        base = {"serve_latency": self.serve_artifact(clean_registry,
                                                     0.100, 2.0)}
        cur = {"serve_latency": self.serve_artifact(clean_registry,
                                                    0.100, 2.8)}
        assert compare_artifacts(base, cur).regressions(0.5) == []

    def test_missing_metric_in_baseline_is_skipped(self, clean_registry):
        base = {"serve_latency": build_artifact(clean_registry,
                                                "serve_latency")}
        cur = {"serve_latency": self.serve_artifact(clean_registry,
                                                    0.001, 2.0)}
        comparison = compare_artifacts(base, cur)
        assert [d.metric for d in comparison.deltas] == ["best"]

    def test_ungated_workloads_diff_timing_only(self, clean_registry):
        base = {"w": build_artifact(clean_registry,
                                    metrics={"p99_ms": 1.0})}
        cur = {"w": build_artifact(clean_registry,
                                   metrics={"p99_ms": 99.0})}
        comparison = compare_artifacts(base, cur)
        assert [d.metric for d in comparison.deltas] == ["best"]
