"""One run report: whichever host ran it, a run is a ``RunReport``.

``ExecutionRuntime.run`` is the only producer; ``Cluster.run``,
``LBTrustSystem.run`` and ``launch`` return what it made (the launcher:
the merge of what its workers' runtimes made).  So "in-process ==
launched" is one comparison, refusals included.
"""

import json
import re

import pytest

from repro import Cluster, LBTrustSystem, RunReport
from repro.cluster import ExecutionRuntime
from repro.cluster.launch import launch, system_spec
from repro.meta.registry import RuleRegistry
from repro.net import SimulatedNetwork

REACH = """
edge(1,2). edge(2,3). edge(3,4). edge(4,1).
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

#: a grants b nothing but ``mayWrite`` on ``ok``; b grants a nothing.
PRINCIPALS = [("a", "h0"), ("b", "h1")]
GRANTS = [("a", "mayWrite", ("b", "ok"))]
SAYS = [("a", "b", 'secret("x").'),             # refused: authzwrite at b
        ("b", "a", "leak(X) <- secret(X)."),    # refused: authzread at a
        ("b", "a", 'ok("y").')]                 # granted


def refusing_system():
    system = LBTrustSystem(auth="hmac", seed=7, authorization=True)
    for name, node in PRINCIPALS:
        system.create_principal(name, node=node)
    for name, pred, values in GRANTS:
        system.principal(name).assert_fact(pred, values)
    for speaker, listener, statement in SAYS:
        system.principal(speaker).says(listener, statement)
    return system


def reach_cluster():
    cluster = Cluster(2)
    cluster.partitioner.hash_partition("edge", column=0)
    cluster.partitioner.hash_partition("reach", column=1)
    cluster.load(REACH)
    return cluster


@pytest.fixture(scope="module")
def launched():
    spec = system_spec(PRINCIPALS, auth="hmac", seed=7, authorization=True,
                       facts=GRANTS, says=SAYS, collect=["ok"])
    return launch(spec, timeout=60)


def named(detail):
    """``rejected_detail`` with the compiler's fresh-variable counter (a
    per-process global, so it differs in a spawned worker) blanked."""
    return [(who, re.sub(r"\b_(MA|Q)\d+", r"_\1", reason))
            for who, reason in detail]


def rebuilt(report):
    return RunReport(**json.loads(json.dumps(report.as_dict())))


class TestALaunchedRunSaysWhatItRefused:
    def test_rejects_are_named_as_in_process(self, launched):
        local = refusing_system().run()
        assert local.rejected == 2 and local.delivered == 1
        assert [(who, reason.split(">")[0]) for who, reason
                in local.rejected_detail] == [
            ("a", "constraint violated: <constraint authzread"),
            ("b", "constraint violated: <constraint authzwrite")]
        assert (launched.delivered, launched.rejected) == (1, 2)
        assert named(launched.rejected_detail) == named(local.rejected_detail)
        assert launched.per_node == local.per_node
        assert launched.relations["a"]["ok"] == {("y",)}


class TestTheVerdict:
    def test_a_launched_run_carries_the_verdict_of_an_in_process_one(
            self, launched):
        local = refusing_system().run()
        for report in (local, launched):
            assert (report.quiescent, report.outstanding, report.faults) \
                == (True, 0, [])

    def test_a_faulted_report_survives_the_control_channel(self):
        network = SimulatedNetwork()
        network.add_node("a")
        network.send("a", "a", b"not a batch")
        report = ExecutionRuntime({}, network, RuleRegistry()).run()
        assert [name for name, _message in report.faults] == ["decode"]
        assert report.quiescent and rebuilt(report) == report


class TestOneShape:
    def test_every_host_returns_the_same_type(self, launched):
        network = SimulatedNetwork()
        bare = ExecutionRuntime({}, network, RuleRegistry()).run()
        assert type(reach_cluster().run()) is type(refusing_system().run()) \
            is type(bare) is type(launched) is RunReport

    def test_cluster_report_survives_the_control_channel(self):
        report = reach_cluster().run()
        assert report.messages > 0 and len(report.per_node) == 2
        assert rebuilt(report) == report

    def test_system_report_with_rejects_survives_the_control_channel(self):
        report = refusing_system().run()
        assert report.rejected_detail and report.per_node
        assert rebuilt(report) == report

    def test_relations_stay_off_the_wire(self, launched):
        assert launched.relations and "relations" not in launched.as_dict()
        assert rebuilt(launched).relations == {}


class TestSystemPerNodeRows:
    def test_rows_add_up_to_the_run_totals(self):
        report = refusing_system().run()
        rows = report.per_node
        assert [row.name for row in rows] == ["h0", "h1"]
        assert sum(row.new_facts for row in rows) == report.delivered == 1
        assert sum(row.sent_facts for row in rows) \
            == report.batched_facts == 3
        assert sum(row.received_facts for row in rows) \
            == report.delivered_facts == 3
        assert all(row.derivations and row.db_facts for row in rows)

    def test_second_run_reports_all_zero_rows(self):
        system = refusing_system()
        first = system.run()
        second = system.run()
        assert any(row.sent_facts for row in first.per_node)
        for before, row in zip(first.per_node, second.per_node):
            assert (row.derivations, row.new_facts, row.sent_facts,
                    row.received_facts) == (0, 0, 0, 0)
            assert row.db_facts == before.db_facts
