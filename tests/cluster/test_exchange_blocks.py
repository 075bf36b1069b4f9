"""The id-row block exchange: every scheduling and transport lands the
single-node fixpoint, the traffic ledgers agree, and a term is encoded
once per sending process — not once per shipped fact."""

import random

import pytest

import repro.net.transport as transport_module
from repro.cluster import Cluster, Partitioner
from repro.net import SimulatedNetwork, SocketNetwork
from repro.net.batch import MessageBatcher

PROGRAM = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
hub0: hub(X) <- reach(X,X).
via0: via(X,Y) <- reach(X,Y), hub(X).
"""

PREDS = ("reach", "hub", "via")


def graph(vertices=18, degree=2, seed=5):
    rng = random.Random(seed)
    return sorted({(v, t) for v in range(vertices)
                   for t in rng.sample(range(vertices), degree) if t != v})


def build(n_nodes, mode="bsp", network=None, edges=None):
    """``reach``/``via`` hash-partitioned, ``hub`` replicated."""
    names = [f"node{i}" for i in range(n_nodes)]
    partitioner = Partitioner(names)
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=1)
    partitioner.hash_partition("via", column=1)
    partitioner.replicate("hub")
    cluster = Cluster(names, partitioner=partitioner, mode=mode,
                      network=network)
    cluster.load(PROGRAM)
    cluster.assert_facts("edge", graph() if edges is None else edges)
    return cluster


@pytest.fixture(scope="module")
def single_node():
    cluster = build(1)
    report = cluster.run()
    assert report.messages == 0
    expected = {pred: cluster.tuples(pred) for pred in PREDS}
    assert all(expected.values())
    return expected


class TestDifferential:
    @pytest.mark.parametrize("transport", ["simulated", "tcp"])
    @pytest.mark.parametrize("mode", ["bsp", "async"])
    def test_four_nodes_equal_one_node(self, mode, transport, single_node):
        network = SocketNetwork() if transport == "tcp" \
            else SimulatedNetwork()
        try:
            cluster = build(4, mode, network)
            report = cluster.run()
            for pred in PREDS:
                assert cluster.tuples(pred) == single_node[pred]
            # a replicated predicate is whole on every node
            for node in cluster.nodes.values():
                assert node.db.tuples("hub") == single_node["hub"]
            # every row a node drained was batched, and only those
            sent = sum(n.sent_facts for n in report.per_node)
            assert sent == report.batched_facts > 0
            # quiescence evicted exactly one dedup marker per row queued
            assert cluster.total_stats().sent_dedup_evictions == sent
            for node in cluster.nodes.values():
                assert not node._sent and not node.outbox
                assert node.sent_generation == 1
            # a second run may resend (the markers are gone) but ships
            # nothing new: the owners hold every row already
            again = cluster.run()
            assert again.new_facts == 0
            for pred in PREDS:
                assert cluster.tuples(pred) == single_node[pred]
            assert all(node.sent_generation == 2
                       for node in cluster.nodes.values())
        finally:
            if transport == "tcp":
                network.close()

    def test_all_batches_of_a_round_form_one_delta(self, monkeypatch):
        """BSP hands a node every batch of the round in one integrate
        call — one delta, one propagation — however many peers sent."""
        from repro.cluster.node import ClusterNode

        calls = []
        integrate = ClusterNode.integrate

        def spy(self, batches):
            batches = list(batches)
            calls.append(len(batches))
            return integrate(self, batches)

        monkeypatch.setattr(ClusterNode, "integrate", spy)
        cluster = build(4)
        report = cluster.run()
        assert sum(calls) == report.messages
        assert max(calls) > 1
        assert len(calls) < report.messages


class TestTermsAreEncodedOncePerSender:
    """Structural pin: a term's wire text (``encode_entry`` — a bare
    scalar's no longer passes through ``encode_value``) is produced once
    per distinct (sending process, term) pair.  Every shard of an
    in-process cluster ships ids of the registry's one interner through
    one batcher, so a term four shards ship is encoded once (an interner
    per shard encoded it once per shard; the per-fact path twice per
    shipped fact)."""

    VERTICES = 30

    def _closure(self, degree, monkeypatch):
        encoded = []
        encode_entry = transport_module.encode_entry

        def counting(value, registry):
            encoded.append(value)
            return encode_entry(value, registry)

        shipped = set()      # terms, whichever shard ships them
        add = MessageBatcher.add

        def spy(self, src, dst, pred, rows, **kwargs):
            rows = list(rows)
            values = self.registry.terms.values
            shipped.update(values[term_id] for row in rows for term_id in row)
            return add(self, src, dst, pred, rows, **kwargs)

        monkeypatch.setattr(transport_module, "encode_entry", counting)
        monkeypatch.setattr(MessageBatcher, "add", spy)
        cluster = build(4, edges=graph(self.VERTICES, degree, seed=3))
        report = cluster.run()
        return len(encoded), shipped, report.batched_facts

    def test_calls_equal_distinct_sender_term_pairs(self, monkeypatch):
        calls, shipped, facts = self._closure(2, monkeypatch)
        # every vertex ships, from all four nodes, and is encoded once
        assert calls == len(shipped) == self.VERTICES == 30
        # the per-fact path made two calls per shipped fact: 2,136
        assert facts == 1068

    def test_a_denser_graph_ships_more_facts_for_the_same_bound(
            self, monkeypatch):
        sparse_calls, _pairs, sparse_facts = self._closure(2, monkeypatch)
        monkeypatch.undo()
        calls, shipped, facts = self._closure(5, monkeypatch)
        assert facts > sparse_facts
        assert calls == len(shipped) <= self.VERTICES
        assert sparse_calls <= self.VERTICES
