"""The launcher's own parts, driven directly — no worker processes.

What :mod:`repro.cluster.launch` adds to the shared scheduler is small
enough to test in-process: the coordinator's receive helper over a
control pipe, the worker-side :class:`_Link` (the runtime's network and
ledger in one) and the hosted-import guard.  One launch checks that the
control plane opens no listening socket.
"""

import multiprocessing
import os
import socket
import time
from array import array
from multiprocessing import Pipe

import pytest

from repro import LBTrustSystem, RunReport
from repro.cluster.launch import (
    _Coordinator,
    _HostedImports,
    _Link,
    cluster_spec,
    launch,
)
from repro.core.system import WorkspaceNode
from repro.datalog.errors import ClusterError
from repro.net import SocketNetwork
from repro.net.transport import Batch


@pytest.fixture
def pipe_pair():
    """Both ends of one control pipe."""
    pair = Pipe()
    yield pair
    for conn in pair:
        conn.close()


def next_message(conn, timeout=1.0):
    assert conn.poll(timeout), "no control message"
    return conn.recv()


class TestCoordinatorReceive:
    @pytest.fixture
    def served(self, pipe_pair):
        """A coordinator holding worker ``n0``'s pipe, and its far end."""
        coordinator = _Coordinator(cluster_spec(["n0"], [], ""), timeout=1.0)
        coordinator.conns["n0"], peer = pipe_pair
        return coordinator, peer

    def test_last_message_before_eof_then_the_worker_is_lost(self, served):
        coordinator, peer = served
        # a real worker that dies without a word (os._exit skips cleanup)
        worker = multiprocessing.get_context("spawn").Process(
            target=os._exit, args=(3,))
        worker.start()
        coordinator.processes["n0"] = worker
        peer.send({"type": "tally", "sent": [], "retired": []})
        peer.close()
        assert coordinator._recv("n0", "tally")["type"] == "tally"
        with pytest.raises(ClusterError,
                           match="worker n0 lost: .*pipe closed.*code 3"):
            coordinator._recv("n0", "tally")
        worker.join(timeout=5.0)
        assert not worker.is_alive()

    def test_silent_worker_is_named_too(self, served):
        coordinator, _peer = served
        coordinator.timeout = 0.05
        with pytest.raises(ClusterError,
                           match="worker n0 lost: no message within 0.05s"):
            coordinator._recv("n0", "tally")

    def test_forwarded_error_and_wrong_type(self, served):
        coordinator, peer = served
        peer.send({"type": "ready"})
        peer.send({"type": "error", "node": "n0", "error": "boom"})
        with pytest.raises(ClusterError, match="expected 'tally'"):
            coordinator._recv("n0", "tally")
        with pytest.raises(ClusterError, match="worker n0 failed: boom"):
            coordinator._recv("n0", "tally")


@pytest.fixture
def wired(pipe_pair):
    """A link for node ``a`` plus the far ends of both its planes: the
    coordinator's pipe end and a network hosting peers ``b`` and ``c``."""
    with SocketNetwork() as network, SocketNetwork() as peers:
        network.add_node("a")
        for name in ("b", "c"):
            peers.add_node(name)
            network.add_remote(name, peers.host, peers.port_of(name))
        peers.add_remote("a", network.host, network.port_of("a"))
        control, coordinator = pipe_pair
        yield _Link(network, control, 0.3, []), coordinator, peers


def close_round(link, coordinator, number, expect, quiescent=False):
    """One barrier as the coordinator sees it: returns the tally."""
    coordinator.send({"type": "round", "quiescent": quiescent,
                      "expect": expect})
    link.close_round(number, 0, 0.0)
    return next_message(coordinator)


class TestLinkBarrier:
    def test_tally_carries_sends_and_retires_in_one_message(self, wired):
        link, coordinator, _peers = wired
        link.send("a", "b", b"x")
        link.issue(4, sender="a")
        link.send("a", "b", b"y")
        link.issue(4, sender="a")
        link.retire(3, sender="c")
        tally = close_round(link, coordinator, 0, {})
        assert tally == {"type": "tally", "new_facts": 0,
                         "sent": [["b", 4, 2]], "retired": [["c", 3]]}
        # the next tally starts from nothing
        assert close_round(link, coordinator, 1, {}, quiescent=True) \
            == {"type": "tally", "new_facts": 0, "sent": [], "retired": []}
        assert link.quiescent() and len(link.rounds) == 2

    def test_quiet_is_the_coordinators_verdict_not_the_workers_round(
            self, wired):
        """A worker's round that derived and sent nothing is not a quiet
        round of the run: only the coordinator's reply says so."""
        link, coordinator, _peers = wired
        close_round(link, coordinator, 0, {})
        assert link.rounds[-1].new_facts == 0
        assert link.rounds[-1].issued == 0
        assert not link.quiet() and not link.quiescent()
        close_round(link, coordinator, 1, {}, quiescent=True)
        assert link.quiet() and link.quiescent()

    def test_early_next_round_frame_is_parked_not_delivered(self, wired):
        link, coordinator, peers = wired
        close_round(link, coordinator, 0, {"b": 1, "c": 1})
        # b runs ahead: its round-1 frame lands before c's round-0 one
        peers.send("b", "a", b"b-round0")
        peers.send("b", "a", b"b-round1")
        deadline = time.monotonic() + 5
        while link.network.pending() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        peers.send("c", "a", b"c-round0")
        assert link.deliver_all() == [("b", "a", b"b-round0"),
                                      ("c", "a", b"c-round0")]
        assert link.pending() == 1
        close_round(link, coordinator, 1, {"b": 1})
        assert link.deliver_all() == [("b", "a", b"b-round1")]
        assert link.pending() == 0

    def test_quiet_wire_is_a_named_error(self, wired):
        link, coordinator, _peers = wired
        close_round(link, coordinator, 0, {"c": 2})
        with pytest.raises(ClusterError,
                           match=r"wire went quiet .*\{'c': 2\}"):
            link.deliver_all()

    def test_deliver_next_reports_then_stops_on_the_verdict(self, wired):
        link, coordinator, peers = wired
        peers.send("b", "a", b"frame")
        assert link.deliver_next() == ("b", "a", b"frame")
        assert next_message(coordinator)["type"] == "tally"
        link.retire(1, sender="b")
        coordinator.send({"type": "stop"})
        assert link.deliver_next() is None
        assert next_message(coordinator)["retired"] == [["b", 1]]
        assert link.quiescent() and not link.outstanding()


class TestClosedLink:
    """The runtime retires every arrival through ``retire_guarded``; the
    link only tallies, the faults its run names included."""

    def test_retire_guarded_tallies_and_answers_true(self, wired):
        link, coordinator, _peers = wired
        # no ticket was issued here: the coordinator's ledger judges it
        assert link.retire_guarded(7, sender="b") is True
        assert close_round(link, coordinator, 0, {})["retired"] == [["b", 7]]

    def test_a_tallied_fault_is_refused_with_the_worker_and_its_text(
            self, wired):
        link, coordinator, _peers = wired
        link.faults.append(("decode", "undecodable delta batch: bad body"))
        tally = close_round(link, coordinator, 0, {})
        assert tally["faults"] == [("decode",
                                    "undecodable delta batch: bad body")]
        served = _Coordinator(cluster_spec(["a"], [], ""), timeout=1.0)
        with pytest.raises(ClusterError, match=(
                "^worker a failed: undecodable delta batch: bad body$")):
            served._apply("a", tally)
        # a fault rides one tally only
        assert "faults" not in close_round(link, coordinator, 1, {})


class TestHostedImportGuard:
    def host(self):
        system = LBTrustSystem(auth="plaintext")
        system.create_principal("a", node="h1")
        system.create_principal("b", node="h2")
        report = RunReport()
        node = WorkspaceNode(system, "h1", [system.principal("a")], report)
        return _HostedImports(node), report

    def test_import_for_a_principal_hosted_elsewhere_is_refused(self):
        guard, report = self.host()
        batch = Batch(1, ["b", "good"], [1], [(0, 1, 1, 1, array("I", [0]))])
        with pytest.raises(
                ClusterError,
                match="relay-routed import: principal 'b' is hosted on "
                      "'h2', not 'h1'"):
            guard.integrate([batch])
        assert report.delivered == report.rejected == 0

    def test_everything_else_is_the_wrapped_node(self):
        guard, report = self.host()
        assert guard.name == "h1" and guard.bootstrap() == 0
        assert getattr(guard, "quiesce", None) is None
        # not hosted anywhere: the node's own unknown-principal rejection
        batch = Batch(1, ["zed", "good"], [1],
                      [(0, 1, 1, 1, array("I", [0]))])
        assert guard.integrate([batch]) == 1
        assert report.rejected == 1


def test_a_launch_opens_no_listening_socket_in_the_coordinator(monkeypatch):
    # The control plane is a pipe per worker: nothing in the launching
    # process listens, so no other local process can claim a node's
    # place and be sent the job spec.  (Workers listen for data, in
    # their own processes, where this patch does not reach.)
    listens = []
    real_listen = socket.socket.listen

    def counted(sock, *args):
        listens.append(sock.getsockname())
        return real_listen(sock, *args)

    monkeypatch.setattr(socket.socket, "listen", counted)
    spec = cluster_spec(["n0", "n1"], [["hash", "edge", 0],
                                       ["hash", "reach", 1]],
                        "tc0: reach(X,Y) <- edge(X,Y).\n"
                        "tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
                        facts=[("edge", (1, 2)), ("edge", (2, 3))],
                        collect=["reach"])
    report = launch(spec, timeout=60)
    assert report.relations[""]["reach"] == {(1, 2), (2, 3), (1, 3)}
    assert listens == []
