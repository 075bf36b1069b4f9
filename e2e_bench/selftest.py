"""``python3 -m e2e_bench --selftest``: the harness checks itself (< 15 s).

Tiny sizes, one round per workload, run in this process so the tracer's
patching can be inspected afterwards; one workload also goes through the
worker-process path the driver uses.
"""

from __future__ import annotations

import sys
import time

from . import gen, harness, oracle
from .tracer import TIMED, Target, Tracer, leftover_wrappers


def selftest() -> int:
    sys.path.insert(0, str(harness.ROOT / "src"))
    started = time.perf_counter()
    checks = [names_match_spec, self_time_arithmetic, oracles_reject,
              stream_in_step, traced_run_restores, second_seed_clean]
    failures = []
    for check in checks:
        try:
            check()
            print(f"ok    {check.__name__}")
        except AssertionError as exc:
            failures.append(check.__name__)
            print(f"FAIL  {check.__name__}: {exc}")
    print(f"selftest: {len(checks) - len(failures)}/{len(checks)} checks "
          f"passed in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


def _tiny_pass(workload: str, seed: int, trace: bool = False) -> dict:
    from .worker import run_pass
    return run_pass(workload, seed, 0, seconds=0.0, trace=trace, tiny=True)


def names_match_spec() -> None:
    """Workload and metric names emitted equal those BENCHMARK.json
    declares — through the worker-process path for one workload."""
    from .workloads import WORKLOADS
    assert list(WORKLOADS) == harness.WORKLOAD_NAMES, \
        f"workloads {list(WORKLOADS)} != spec {harness.WORKLOAD_NAMES}"
    passes = harness.run_passes("fixpoint_local", 1, 0.0, tiny=True)
    emitted = harness.end_to_end_metrics(passes)
    assert set(emitted) == set(harness.END_TO_END), sorted(emitted)
    assert all(cell["value"] > 0 for cell in emitted.values()), emitted
    assert set(harness.named_metrics(passes)) <= set(harness.NAMED_INFO)
    traced = harness.run_traced("fixpoint_local", 1, 0.0, tiny=True)
    assert set(traced["metrics"]) == set(harness.PER_LAYER)


def self_time_arithmetic() -> None:
    """A synthetic tree: a(0..10) { b(1..4) { c(2..3) }  b(5..9) }, then a
    second root c(20..21).  Self times: a = 10-3-4, b = (3-1)+4, c = 1+1."""
    tracer = Tracer()
    tracer.targets = [Target("L1", "a", "m", "a"), Target("L2", "b", "m", "b"),
                      Target("L2", "c", "m", "c")]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0),
             (1, 0, 5.0, 9.0), (2, -1, 20.0, 21.0)]
    for name_id, parent, start, end in spans:
        tracer.name_ids.append(name_id)
        tracer.parents.append(parent)
        tracer.scopes.append(TIMED)
        tracer.starts.append(start)
        tracer.ends.append(end)
    timed = tracer.self_times()["timed"]
    assert timed["spans"] == {"L1.a": [3.0, 1], "L2.b": [6.0, 2],
                              "L2.c": [2.0, 2]}, timed
    assert timed["root_s"] == 11.0, timed
    assert sum(cell[0] for cell in timed["spans"].values()) \
        == timed["root_s"]


def oracles_reject() -> None:
    """Each oracle accepts the right answer and rejects a corrupted one."""
    edges = gen.reach_edges(5, 12)
    reach = oracle.closure(edges)
    assert len(reach) == 144
    assert oracle.check_closure(reach, set(reach), []) == 0
    assert oracle.check_closure(reach, reach - {next(iter(reach))}, []) == 1
    assert oracle.check_closure(reach, reach | {(-1, -1)}, []) == 1

    policy = gen.rbac_policy(5, 60, 10, 30)
    user = policy.users[0]
    rbac = oracle.RbacOracle(policy)
    right = sorted(rbac.access(user))
    assert right, "hot user has no access at all"
    query = [("query", user, None)]
    assert rbac.check_round(query, [right], []) == 0
    assert rbac.check_round(query, [right[1:]], []) == 1
    assert rbac.check_round(query, [right + [(user, "nope", "read")]], []) == 1
    assert rbac.check_round(query, ["ServeError: boom"], []) == 1
    group = next(g for g in policy.groups
                 if (user, g) not in policy.member_of)
    rbac.update("assert", user, group)
    grown = rbac.access(user)
    rbac.update("retract", user, group)
    assert rbac.access(user) == set(right) and grown >= set(right)

    class Report:
        delivered, rejected = 4, 0
    tokens = ["aa", "bb"]
    full = {("aa",), ("bb",)}
    assert oracle.check_fig2(tokens, full, set(full), Report, []) == 0
    assert oracle.check_fig2(tokens, {("aa",)}, set(full), Report, []) == 1
    Report.rejected = 1
    assert oracle.check_fig2(tokens, full, set(full), Report, []) >= 1

    scenario = gen.fs_scenario(gen.rng_for(5, "fs"))
    requester, fname = sorted(scenario.granted)[0]
    data = scenario.files[fname]
    assert oracle.check_fs_read(scenario, requester, fname, data, []) == 0
    assert oracle.check_fs_read(scenario, requester, fname, None, []) == 1
    assert oracle.check_fs_read(scenario, requester, fname, "x", []) == 1
    refused = next(read for read in scenario.reads
                   if read not in scenario.granted)
    assert oracle.check_fs_read(scenario, *refused, None, []) == 0
    assert oracle.check_fs_read(scenario, *refused, "leak", []) == 1


def stream_in_step() -> None:
    """However the request stream is cut into rounds, every update handed
    out is valid against the ones handed out before it: an assert is new,
    a retract removes a membership that is live."""
    policy = gen.rbac_policy(5, 60, 10, 30)
    stream = gen.RequestStream(policy, gen.rng_for(5, "stream"), "AAQRR")
    requests = stream.prefill()
    for count in 20 * (3, 7, 1, 12, 4):   # never a whole number of blocks
        taken = stream.take(count)
        assert len(taken) == count, (count, len(taken))
        requests += taken
    live = set(policy.member_of)
    for kind, user, target in requests:
        if kind == "assert":
            assert (user, target) not in live, (kind, user, target)
            live.add((user, target))
        elif kind == "retract":
            assert (user, target) in live, (kind, user, target)
            live.remove((user, target))


def traced_run_restores() -> None:
    """Every workload runs traced; afterwards no ``repro.*`` attribute is
    still a wrapper, and the spans cover the timed work."""
    for name in harness.WORKLOAD_NAMES:
        result = _tiny_pass(name, 1, trace=True)
        assert result["failed"] == 0, (name, result["notes"])
        timed = result["spans"]["timed"]
        assert timed["spans"], f"{name}: traced run recorded no spans"
        covered = timed["root_s"] / (result["timed_ms"] / 1e3)
        assert 0.5 < covered <= 1.0, f"{name}: spans cover {covered:.2f}"
        left = leftover_wrappers()
        assert not left, f"{name}: still wrapped after the run: {left[:5]}"


def second_seed_clean() -> None:
    for name in harness.WORKLOAD_NAMES:
        result = _tiny_pass(name, 2)
        assert result["failed"] == 0 and result["attempted"] > 0, \
            (name, result["notes"])
