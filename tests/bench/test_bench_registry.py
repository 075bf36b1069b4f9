"""Workload registration, selection, and sweep-point handling."""

import pytest

from benchmarks.harness import BenchError, benchmark, get, registered, select


class TestRegistration:
    def test_decorator_registers_and_returns_func(self, clean_registry):
        @benchmark("w1", quick=[{"n": 1}], full=[{"n": 1}, {"n": 10}])
        def w1(case, n):
            """Docstring first line becomes the description."""

        assert w1.workload_name == "w1"
        workload = get("w1")
        assert workload.quick == [{"n": 1}]
        assert workload.full == [{"n": 1}, {"n": 10}]
        assert workload.description.startswith("Docstring first line")

    def test_full_defaults_to_quick(self, clean_registry):
        @benchmark("w2", quick=[{"n": 5}])
        def w2(case, n):
            pass

        assert get("w2").full == [{"n": 5}]

    def test_no_sweep_means_one_empty_point(self, clean_registry):
        @benchmark("w3")
        def w3(case):
            pass

        assert get("w3").points("quick") == [{}]
        with pytest.raises(BenchError):
            get("w3").points("paper")

    def test_reregistration_replaces(self, clean_registry):
        @benchmark("w4", quick=[{"n": 1}])
        def first(case, n):
            pass

        @benchmark("w4", quick=[{"n": 2}])
        def second(case, n):
            pass

        assert len(registered()) == 1
        assert get("w4").quick == [{"n": 2}]

    def test_invalid_name_rejected(self, clean_registry):
        with pytest.raises(BenchError):
            benchmark("a/b")

    def test_unknown_name_raises(self, clean_registry):
        with pytest.raises(BenchError):
            get("nope")


class TestSelection:
    @pytest.fixture
    def three(self, clean_registry):
        @benchmark("fig2_auth", group="fig2")
        def a(case):
            pass

        @benchmark("fig2_sweep", group="fig2")
        def b(case):
            pass

        @benchmark("crypto", group="crypto")
        def c(case):
            pass

    def test_select_all_sorted(self, three):
        assert [w.name for w in select()] == \
            ["crypto", "fig2_auth", "fig2_sweep"]

    def test_select_by_name_pattern(self, three):
        assert [w.name for w in select(pattern="fig2_*")] == \
            ["fig2_auth", "fig2_sweep"]

    def test_select_by_group_pattern(self, three):
        assert [w.name for w in select(pattern="crypto")] == ["crypto"]

    def test_select_by_names(self, three):
        assert [w.name for w in select(names={"crypto", "fig2_sweep"})] == \
            ["crypto", "fig2_sweep"]
