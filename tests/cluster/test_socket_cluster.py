"""Cluster evaluation over real sockets: in-process and multiprocess.

Two layers of the socket story:

* the in-process runtime accepts a :class:`SocketNetwork` wherever it
  accepted a :class:`SimulatedNetwork` — ``Cluster(mode="bsp"|"async")``
  runs unchanged, batches crossing loopback TCP instead of the virtual
  queue, and the fixpoint is bit-identical;
* the :mod:`repro.cluster.launch` coordinator puts every node into its
  **own OS process**, exchanging the same wire batches peer-to-peer,
  with the ticket ledger proving quiescence from the control plane —
  and still lands the identical fixpoint.
"""

import random

import pytest

from repro.cluster import Cluster, Partitioner, cluster_spec, launch, spec_nodes
from repro.datalog.errors import ClusterError
from repro.net import SimulatedNetwork, SocketNetwork

PROGRAM = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

NODES = ["node0", "node1", "node2"]


def placement():
    partitioner = Partitioner(NODES)
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=1)
    return partitioner


def graph_facts(vertices=20, degree=2, seed=7):
    rng = random.Random(seed)
    facts = []
    for v in range(vertices):
        for t in rng.sample(range(vertices), degree):
            if t != v:
                facts.append(("edge", (v, t)))
    return facts


def build_cluster(network, mode):
    cluster = Cluster(NODES, network=network, partitioner=placement(),
                      mode=mode)
    cluster.load(PROGRAM)
    for pred, values in graph_facts():
        cluster.assert_fact(pred, values)
    return cluster


@pytest.fixture(scope="module")
def expected_reach():
    cluster = build_cluster(SimulatedNetwork(), "bsp")
    cluster.run()
    return cluster.tuples("reach")


class TestInProcessSocketCluster:
    @pytest.mark.parametrize("mode", ["bsp", "async"])
    def test_fixpoint_identical_to_simulated(self, mode, expected_reach):
        with SocketNetwork() as network:
            cluster = build_cluster(network, mode)
            report = cluster.run()
            assert cluster.tuples("reach") == expected_reach
            assert report.messages == network.total.messages > 0
            # wall clock replaced the virtual clock in the report
            assert 0.0 < report.virtual_time < 60.0

    def test_quiescence_detected_over_sockets(self, expected_reach):
        with SocketNetwork() as network:
            cluster = build_cluster(network, "bsp")
            cluster.run()
            assert network.pending() == 0
            assert cluster.ledger.quiescent()
            assert cluster.ledger.outstanding() == 0

    def test_second_run_is_already_quiet(self, expected_reach):
        with SocketNetwork() as network:
            cluster = build_cluster(network, "bsp")
            first = cluster.run()
            second = cluster.run()
            assert first.new_facts > 0
            # re-derivations may resend once (the dedup generation reset
            # at quiescence) but nothing new is learned anywhere
            assert second.new_facts == 0
            assert cluster.tuples("reach") == expected_reach


class TestMultiprocessLauncher:
    @pytest.mark.parametrize("mode", ["bsp", "async"])
    def test_three_process_fixpoint_identical(self, mode, expected_reach):
        spec = cluster_spec(
            NODES,
            placement=[["hash", "edge", 0], ["hash", "reach", 1]],
            program=PROGRAM,
            facts=graph_facts(),
            collect=["reach"],
        )
        report = launch(spec, mode=mode, timeout=60)
        assert len(report.per_node) == 3
        assert report.relations[""]["reach"] == expected_reach
        assert report.messages > 0
        assert report.new_facts == len(expected_reach)
        # every worker contributed a per-node share
        assert [n.name for n in report.per_node] == NODES
        assert sum(n.db_facts for n in report.per_node) > len(expected_reach)
        # received counts only *novel* arrivals (per-sender dedup means
        # two shards can ship the same fact), so it never exceeds sent
        sent = sum(n.sent_facts for n in report.per_node)
        received = sum(n.received_facts for n in report.per_node)
        assert 0 < received <= sent

    def test_async_cap_counts_causal_depth_not_delivery_events(self):
        # ~100 batches land at causal depth <= 20 (no derivation chain is
        # longer than the graph has vertices); the cap used to be
        # max_rounds * 3 = 63 delivery events and refused this run
        spec = cluster_spec(
            NODES,
            placement=[["hash", "edge", 0], ["hash", "reach", 1]],
            program=PROGRAM, facts=graph_facts(), collect=["reach"])
        report = launch(spec, mode="async", max_rounds=21, timeout=60)
        assert report.rounds == report.depth <= 21
        assert report.events > 21

    def test_async_launch_that_never_quiesces_is_stopped(self):
        spec = cluster_spec(
            NODES, placement=[["hash", "nat", 0]],
            program="n0: nat(Y) <- nat(X), Y = X + 1.\n",
            facts=[("nat", (0,))])
        with pytest.raises(ClusterError, match="causal depth"):
            launch(spec, mode="async", max_rounds=10, timeout=30)

    def test_spec_nodes_and_bad_mode(self):
        spec = cluster_spec(NODES, placement=[], program=PROGRAM)
        assert spec_nodes(spec) == NODES
        with pytest.raises(ClusterError):
            launch(spec, mode="warp")

    def test_worker_failure_surfaces_as_cluster_error(self):
        # negation over an exchanged predicate is rejected at load() in
        # every worker; the coordinator must surface that, not hang
        spec = cluster_spec(
            NODES,
            placement=[["hash", "edge", 0], ["hash", "reach", 1]],
            program=PROGRAM + 'iso: lonely(X) <- edge(X,Y), !reach(X,Y).\n',
        )
        with pytest.raises(ClusterError, match="worker"):
            launch(spec, timeout=30)

    def test_bsp_launch_that_never_quiesces_is_stopped(self):
        # the round cap travels to the workers as a spawn argument and is
        # raised there, by the one scheduler
        spec = cluster_spec(
            NODES, placement=[["hash", "nat", 0]],
            program="n0: nat(Y) <- nat(X), Y = X + 1.\n",
            facts=[("nat", (0,))])
        with pytest.raises(ClusterError, match="within 10 rounds"):
            launch(spec, mode="bsp", max_rounds=10, timeout=30)


PARITY_FIELDS = ("rounds", "productive_rounds", "depth", "messages",
                 "batched_facts", "new_facts", "delivered_facts")


class TestLauncherMatchesInProcessRuntime:
    """A worker runs the same ``ExecutionRuntime`` the in-process hosts
    do and describes the run in the same ``RunReport``, so the merged
    report is the in-process one (``bytes`` is left out: arrival order
    moves it by a byte on either side)."""

    SPEC = dict(placement=[["hash", "edge", 0], ["hash", "reach", 1]],
                program=PROGRAM, facts=graph_facts(), collect=["reach"])

    def test_bsp_report_equals_in_process_field_for_field(self):
        launched = launch(cluster_spec(NODES, **self.SPEC), mode="bsp",
                          timeout=60)
        with SocketNetwork() as network:
            local = build_cluster(network, "bsp").run()
        for name in PARITY_FIELDS + ("per_node",):
            assert getattr(launched, name) == getattr(local, name), name
        assert launched.batched_facts > 0

    def test_async_report_agrees_on_what_is_schedule_independent(
            self, expected_reach):
        launched = launch(cluster_spec(NODES, **self.SPEC), mode="async",
                          timeout=60)
        with SocketNetwork() as network:
            local = build_cluster(network, "async").run()
        assert launched.relations[""]["reach"] == expected_reach
        for name in ("batched_facts", "new_facts", "delivered_facts"):
            assert getattr(launched, name) == getattr(local, name), name
        assert launched.rounds == launched.depth > 0
        assert launched.events == launched.messages


#: one value in each spelling the interner keeps apart, tagged by name
SPELLINGS = [("int", 1), ("float", 1.0), ("bool", True), ("zero", 0.0),
             ("negzero", -0.0)]
EXPECTED_SPELLINGS = {(tag, type(value).__name__, repr(value))
                      for tag, value in SPELLINGS}
#: ``sent`` lives on node0 and ``got`` on node1, so every row crosses
COPY = "copy: got(T,V) <- sent(T,V).\n"
PINS = [["place", pred, [tag], node]
        for pred, node in (("sent", "node0"), ("got", "node1"))
        for tag, _ in SPELLINGS]


def spelled(facts):
    return {(tag, type(value).__name__, repr(value)) for tag, value in facts}


class TestTypedValuesCrossTheWire:
    """``1``, ``1.0``, ``True`` and ``-0.0`` arrive as the facts that were
    sent, over every transport: read from the rows node1 received."""

    def received(self, network):
        partitioner = Partitioner(NODES)
        for _op, pred, key, node in PINS:
            partitioner.place(pred, tuple(key), node)
        cluster = Cluster(NODES, network=network, partitioner=partitioner)
        cluster.load(COPY)
        for fact in SPELLINGS:
            cluster.assert_fact("sent", fact)
        cluster.run()
        node = cluster.nodes["node1"]
        return spelled(map(node.db.interner.materialize_row,
                           node.db.get("got").rows))

    def test_simulated(self):
        assert self.received(SimulatedNetwork()) == EXPECTED_SPELLINGS

    def test_tcp(self):
        with SocketNetwork() as network:
            assert self.received(network) == EXPECTED_SPELLINGS

    def test_launcher(self):
        spec = cluster_spec(NODES, placement=PINS, program=COPY,
                            facts=[("sent", fact) for fact in SPELLINGS],
                            collect=["got"])
        report = launch(spec, timeout=60)
        # one tag per row, so the collected set keeps every spelling
        assert spelled(report.relations[""]["got"]) == EXPECTED_SPELLINGS
