"""Every run ends in a verdict its report carries.

The probe: alice on n1 says five ``ping`` facts to bob on n2 under HMAC,
over a network that drops, corrupts or duplicates the first frame
between two nodes.  The open host (``LBTrustSystem.run``) returns a
report that names the fault; a closed one (a 2-node ``Cluster``) refuses
the run with a ``ClusterError`` naming it.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.scheduler import RunReport, refuse_faults
from repro.datalog.errors import ClusterError
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
        assert names(report) == (["cap", "outstanding"] if mode == "bsp"
                                 else ["outstanding"])
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
             "undecodable delta batch: batch body does not match its blocks")]
        # the arrival retired its sender's ticket: nothing is in flight
        assert report.quiescent and report.outstanding == 0

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
        expected = ("did not quiesce within 20 rounds" if mode == "bsp"
                    else "async runtime stopped with 1 ticket\\(s\\) "
                         "outstanding")
        with pytest.raises(ClusterError, match=expected):
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


def test_refuse_faults_raises_the_first_fault_and_passes_a_clean_report():
    clean = RunReport(quiescent=True)
    assert refuse_faults(clean) is clean
    faulted = RunReport(faults=[("cap", "runtime did not quiesce within 3 "
                                        "rounds"),
                                ("outstanding", "bsp runtime stopped with 1 "
                                                "ticket(s) outstanding")])
    with pytest.raises(ClusterError, match="^runtime did not quiesce"):
        refuse_faults(faulted)
