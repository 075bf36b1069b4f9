"""The calibrated timer: warmup/repeat accounting and measured regions."""

import pytest

from benchmarks.harness import BenchError, benchmark, get, time_workload


class TestTimeWorkload:
    def test_warmup_plus_repeats_calls(self, clean_registry):
        calls = []

        @benchmark("w", warmup=2, repeats=3, quick=[{"n": 7}])
        def w(case, n):
            calls.append(n)

        measurement = time_workload(get("w"), {"n": 7})
        # 2 warmup + 3 timed + 1 traced memory pass
        assert calls == [7] * 6
        assert len(measurement.timings) == 3
        assert measurement.warmup == 2
        assert measurement.best == min(measurement.timings)

    def test_measure_region_excludes_setup(self, clean_registry):
        from time import sleep

        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            sleep(0.05)                 # setup: must not be timed
            with case.measure():
                sleep(0.002)

        measurement = time_workload(get("w"), {})
        assert measurement.best < 0.045

    def test_whole_call_timed_without_measure(self, clean_registry):
        from time import sleep

        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            sleep(0.002)

        measurement = time_workload(get("w"), {})
        assert measurement.best >= 0.002

    def test_metrics_recorded_and_dict_result_merged(self, clean_registry):
        @benchmark("w", warmup=0, repeats=2)
        def w(case):
            with case.measure():
                pass
            case.record(alpha=1)
            return {"beta": 2}

        measurement = time_workload(get("w"), {})
        peak = measurement.metrics.pop("peak_mem_bytes")
        assert peak > 0
        assert measurement.metrics == {"alpha": 1, "beta": 2}
        point = measurement.as_dict()
        assert point["repeats"] == 2
        assert point["metrics"] == {"alpha": 1, "beta": 2}

    def test_engine_stats_captured(self, clean_registry):
        from repro.datalog.database import Database
        from repro.datalog.engine import evaluate
        from repro.datalog.parser import parse_statements
        from repro.datalog.runtime import EvalContext
        from repro.datalog.terms import Rule

        rules = [s for s in parse_statements("p(X) <- e(X).")
                 if isinstance(s, Rule)]

        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            db = Database()
            db.add("e", ("a",))
            with case.measure():
                evaluate(rules, db, EvalContext(stats=case.stats))

        measurement = time_workload(get("w"), {})
        assert measurement.engine is not None
        assert measurement.engine["new_facts"] == 1
        assert measurement.engine["rule_firings"] == {"p": 1}

    def test_engine_none_for_pure_python_workloads(self, clean_registry):
        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            with case.measure():
                sum(range(10))

        assert time_workload(get("w"), {}).engine is None

    def test_double_measure_rejected(self, clean_registry):
        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            with case.measure():
                pass
            with case.measure():
                pass

        with pytest.raises(BenchError):
            time_workload(get("w"), {})

    def test_zero_repeats_rejected(self, clean_registry):
        @benchmark("w")
        def w(case):
            pass

        with pytest.raises(BenchError):
            time_workload(get("w"), {}, repeats=0)


class TestPeakMemory:
    def test_peak_memory_tracks_allocations(self, clean_registry):
        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            with case.measure():
                blob = bytearray(2_000_000)  # noqa: F841

        measurement = time_workload(get("w"), {})
        assert measurement.metrics["peak_mem_bytes"] >= 2_000_000

    def test_peak_memory_includes_setup_allocations(self, clean_registry):
        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            blob = bytearray(2_000_000)      # setup: untimed, still memory
            with case.measure():
                pass
            del blob

        measurement = time_workload(get("w"), {})
        assert measurement.metrics["peak_mem_bytes"] >= 2_000_000

    def test_peak_memory_skipped_under_active_tracing(self, clean_registry):
        import tracemalloc

        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            with case.measure():
                pass

        tracemalloc.start()
        try:
            measurement = time_workload(get("w"), {})
        finally:
            tracemalloc.stop()
        assert "peak_mem_bytes" not in measurement.metrics

    def test_peak_memory_is_json_safe(self, clean_registry):
        import json

        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            with case.measure():
                pass

        point = time_workload(get("w"), {}).as_dict()
        assert isinstance(point["metrics"]["peak_mem_bytes"], int)
        json.dumps(point)


class TestWatch:
    def test_watch_records_accumulator_delta(self, clean_registry):
        from repro.datalog.engine import EvalStats

        accumulator = EvalStats()
        accumulator.fire("setup", 100)          # pre-existing setup work

        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            case.watch(accumulator)
            with case.measure():
                accumulator.fire("measured", 3)
                accumulator.new_facts += 7

        measurement = time_workload(get("w"), {})
        assert measurement.engine["rule_firings"] == {"measured": 3}
        assert measurement.engine["new_facts"] == 7

    def test_setup_index_lookups_stay_out_of_engine_counters(
            self, clean_registry):
        from repro.datalog.database import Relation

        relation = Relation("e", {(1, 2)})

        @benchmark("w", warmup=0, repeats=1)
        def w(case):
            relation.index_for((0,))             # untimed setup probe
            with case.measure():
                pass

        assert time_workload(get("w"), {}).engine is None
