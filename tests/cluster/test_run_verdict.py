"""Every run ends in a verdict its report carries.

The probe: alice on n1 says five ``ping`` facts to bob on n2 under HMAC,
over a network that drops, corrupts or duplicates the first frame
between two nodes.  The open host (``LBTrustSystem.run``) returns a
report that names the fault; a closed one (a 2-node ``Cluster``) refuses
the run with a ``ClusterError`` naming it.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.scheduler import ExecutionRuntime, RunReport, refuse_faults
from repro.datalog.errors import ClusterError
from repro.meta.registry import RuleRegistry
from repro.net.network import SimulatedNetwork

MODES = ["bsp", "async"]


class FaultyNetwork(SimulatedNetwork):
    """Drops, cuts short or sends twice the first cross-node frame."""

    def __init__(self, fault):
        super().__init__()
        self.fault = fault
        self.struck = False

    def send(self, src, dst, payload, at=None):
        if src != dst and not self.struck:
            self.struck = True
            if self.fault == "drop":
                return
            if self.fault == "corrupt":
                payload = payload[:-4]
            if self.fault == "duplicate":
                super().send(src, dst, payload, at=at)
        super().send(src, dst, payload, at=at)


def probe(make_system, fault, mode):
    system = make_system("hmac", network=FaultyNetwork(fault), mode=mode)
    alice = system.create_principal("alice", node="n1")
    bob = system.create_principal("bob", node="n2")
    for i in range(5):
        alice.says(bob, f"ping({i}).")
    return system.run(max_rounds=10), bob


def names(report):
    return [name for name, _message in report.faults]


@pytest.mark.parametrize("mode", MODES)
class TestTheOpenHostReportsTheFault:

    def test_a_healthy_run_is_quiescent_and_names_no_fault(self, make_system,
                                                            mode):
        report, bob = probe(make_system, None, mode)
        assert len(bob.tuples("ping")) == 5
        assert report.quiescent and report.outstanding == 0
        assert report.faults == []

    def test_a_dropped_frame_leaves_its_ticket_outstanding(self, make_system,
                                                           mode):
        report, bob = probe(make_system, "drop", mode)
        assert not bob.tuples("ping")
        assert report.quiescent is False and report.outstanding == 1
        assert names(report) == ["outstanding"]
        # the run stops at its first quiet point, not at the round cap
        assert report.rounds == (2 if mode == "bsp" else 1)
        assert report.faults[-1][1] == (
            f"{mode} runtime stopped with 1 ticket(s) outstanding")
        assert report.rejected == 0

    def test_a_corrupt_frame_is_a_named_decode_reject(self, make_system,
                                                      mode):
        report, bob = probe(make_system, "corrupt", mode)
        assert not bob.tuples("ping")
        assert report.rejected == 1
        assert report.rejected_detail == [
            ("<decode>", "batch body does not match its blocks")]
        assert report.faults == [
            ("decode",
             "undecodable delta batch: batch body does not match its blocks"),
            ("outstanding",
             f"{mode} runtime stopped with 1 ticket(s) outstanding")]
        # an unreadable arrival retires nothing: its ticket stays in flight
        assert report.quiescent is False and report.outstanding == 1
        assert report.rounds == (2 if mode == "bsp" else 1)

    def test_a_duplicate_lands_once_and_names_the_unticketed_arrival(
            self, make_system, mode):
        report, bob = probe(make_system, "duplicate", mode)
        assert len(bob.tuples("ping")) == 5
        assert names(report) == ["unticketed"]
        assert report.faults[0][1].startswith("ticket ledger: sender 'n1' ")
        assert report.faults[0][1].endswith(" retired 2 > issued 1")
        assert report.quiescent and report.rejected == 0


def faulty_cluster(fault, mode):
    cluster = Cluster(2, network=FaultyNetwork(fault), mode=mode)
    cluster.partitioner.hash_partition("edge", column=0)
    cluster.partitioner.hash_partition("reach", column=1)
    cluster.load("r0: reach(X,Y) <- edge(X,Y).\n"
                 "r1: reach(X,Z) <- reach(X,Y), edge(Y,Z).")
    for i in range(6):
        cluster.assert_fact("edge", (i, i + 1))
    return cluster


@pytest.mark.parametrize("mode", MODES)
class TestAClosedHostRefusesTheFault:

    def test_the_healthy_cluster_run_is_quiescent(self, mode):
        report = faulty_cluster(None, mode).run()
        assert report.quiescent and report.outstanding == 0
        assert report.faults == []

    def test_a_dropped_frame_is_refused(self, mode):
        with pytest.raises(ClusterError, match=(
                f"{mode} runtime stopped with 1 ticket\\(s\\) outstanding")):
            faulty_cluster("drop", mode).run(max_rounds=20)

    def test_a_corrupt_frame_is_refused(self, mode):
        with pytest.raises(ClusterError, match=(
                "undecodable delta batch: batch body does not match its "
                "blocks")):
            faulty_cluster("corrupt", mode).run()

    def test_a_duplicate_is_refused(self, mode):
        with pytest.raises(ClusterError, match=(
                r"ticket ledger: sender 'node\d' round \d+ retired 2 > "
                r"issued 1")):
            faulty_cluster("duplicate", mode).run()


class ScriptedNode:
    """A protocol node that sends one row to each destination of its
    script's next step: step 0 at bootstrap, step k after its k-th
    integration."""

    def __init__(self, name, row, script):
        self.name = name
        self.row = row
        self.script = list(script)
        self.outbox = []

    def bootstrap(self):
        self._step()
        return 0

    def integrate(self, batches):
        self._step()
        return sum(map(len, batches))

    def drain_outbox(self, sink):
        for dst in self.outbox:
            sink(dst, "m", [self.row])
        drained, self.outbox = len(self.outbox), []
        return drained

    def _step(self):
        if self.script:
            self.outbox += self.script.pop(0)


class CorruptSecondFrame(SimulatedNetwork):
    """Cuts short the second frame on the ``a -> c`` link."""

    def __init__(self):
        super().__init__()
        self.frames = 0

    def send(self, src, dst, payload, at=None):
        if (src, dst) == ("a", "c"):
            self.frames += 1
            if self.frames == 2:
                payload = payload[:-4]
        super().send(src, dst, payload, at=at)


def test_an_unreadable_frame_retires_no_other_frames_ticket():
    """a sends stamp-1 frames to b (a slow link) and c; c answers a, and
    a's next frame to c arrives corrupt while the one to b is still in
    flight.  The corrupt frame retires nothing, so b's honest arrival
    finds its own ticket and the lost one stays outstanding.  (Retiring
    a's oldest ticket in its place named b's arrival ``unticketed``.)"""
    network = CorruptSecondFrame()
    for name in "abc":
        network.add_node(name)
    network.set_latency("a", "b", 10.0)
    registry = RuleRegistry()
    row = (registry.terms.intern("x"),)
    nodes = {"a": ScriptedNode("a", row, [["b", "c"], ["c"]]),
             "b": ScriptedNode("b", row, []),
             "c": ScriptedNode("c", row, [[], ["a"]])}
    report = ExecutionRuntime(nodes, network, registry, mode="async").run()
    assert names(report) == ["decode", "outstanding"]
    assert report.quiescent is False and report.outstanding == 1
    assert report.rejected == 1 and report.delivered_facts == 3


def test_refuse_faults_raises_the_first_fault_and_passes_a_clean_report():
    clean = RunReport(quiescent=True)
    assert refuse_faults(clean) is clean
    faulted = RunReport(faults=[("cap", "runtime did not quiesce within 3 "
                                        "rounds"),
                                ("outstanding", "bsp runtime stopped with 1 "
                                                "ticket(s) outstanding")])
    with pytest.raises(ClusterError, match="^runtime did not quiesce"):
        refuse_faults(faulted)
