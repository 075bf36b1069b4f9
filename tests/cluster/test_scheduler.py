"""The unified ExecutionRuntime: overlapped vs barrier scheduling."""

import random

import pytest

from repro.cluster import Cluster, Partitioner
from repro.datalog.errors import ClusterError
from repro.net.network import SimulatedNetwork

REACHABILITY = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


def reach_cluster(n_nodes, mode="bsp", vertices=24, degree=2, seed=11,
                  network=None, **kwargs):
    names = [f"node{i}" for i in range(n_nodes)]
    partitioner = Partitioner(names)
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=1)
    cluster = Cluster(names, partitioner=partitioner, mode=mode,
                      network=network, **kwargs)
    cluster.load(REACHABILITY)
    rng = random.Random(seed)
    for v in range(vertices):
        for t in rng.sample(range(vertices), degree):
            if t != v:
                cluster.assert_fact("edge", (v, t))
    return cluster


class TestAsyncParity:
    def test_async_fixpoint_matches_bsp_and_single_node(self):
        single = reach_cluster(1)
        single.run()
        reference = single.tuples("reach")
        assert reference
        for n_nodes in (2, 3, 5):
            bsp = reach_cluster(n_nodes, "bsp")
            bsp.run()
            overlapped = reach_cluster(n_nodes, "async")
            overlapped.run()
            assert bsp.tuples("reach") == reference
            assert overlapped.tuples("reach") == reference

    def test_async_shards_stay_disjoint(self):
        cluster = reach_cluster(3, "async")
        cluster.run()
        seen: set = set()
        for node in cluster.nodes.values():
            shard = node.db.tuples("reach")
            assert not (shard & seen)
            seen |= shard

    def test_async_deterministic_across_runs(self):
        first = reach_cluster(3, "async")
        report_a = first.run()
        second = reach_cluster(3, "async")
        report_b = second.run()
        assert first.tuples("reach") == second.tuples("reach")
        assert report_a.depth == report_b.depth
        assert report_a.messages == report_b.messages


class TestOverlap:
    def test_async_depth_never_exceeds_bsp_rounds(self):
        for n_nodes in (2, 3, 5):
            bsp = reach_cluster(n_nodes, "bsp")
            bsp_report = bsp.run()
            overlapped = reach_cluster(n_nodes, "async")
            async_report = overlapped.run()
            assert async_report.depth <= bsp_report.rounds
            assert async_report.rounds == async_report.depth

    def test_async_wins_the_virtual_clock_on_a_slow_link(self):
        """BSP pays the slowest link at every barrier; overlap only on
        the chains that actually cross it."""
        def slow_network():
            network = SimulatedNetwork(default_latency=1.0)
            for i in range(4):
                network.add_node(f"node{i}")
            network.set_latency("node0", "node1", 5.0)
            return network

        bsp = reach_cluster(4, "bsp", network=slow_network())
        bsp_report = bsp.run()
        overlapped = reach_cluster(4, "async", network=slow_network())
        async_report = overlapped.run()
        assert overlapped.tuples("reach") == bsp.tuples("reach")
        assert async_report.convergence_time < bsp_report.convergence_time

    def test_bsp_rounds_equal_causal_depth_plus_quiet_tail(self):
        cluster = reach_cluster(3, "bsp")
        report = cluster.run()
        # a BSP run is its causal depth plus the bootstrap round and the
        # trailing confirm round(s) that carried no messages
        assert report.depth <= report.rounds <= report.depth + 2


class TestQuiescence:
    def test_async_ledger_is_quiescent_after_run(self):
        cluster = reach_cluster(3, "async")
        cluster.run()
        assert cluster.ledger.outstanding() == 0
        assert cluster.ledger.quiescent()

    def test_ledger_slot_bookkeeping_compacts_at_quiescence(self):
        """Long-lived clusters must not grow ledger slots per run: the
        round-vector and per-round issue counts clear once nothing is in
        flight, while the rounds trail and totals survive."""
        cluster = reach_cluster(2, vertices=10)
        for extra in [(0, 5), (1, 6), (2, 7)]:
            cluster.run()
            cluster.assert_fact("edge", extra)
        cluster.run()
        ledger = cluster.ledger
        assert ledger._vector == {}
        assert ledger._per_round_issued == {}
        assert ledger.issued == ledger.retired > 0
        assert len(ledger.rounds) > 0 and ledger.quiescent()

    def test_async_rerun_converges_after_new_fact(self):
        cluster = reach_cluster(2, "async", vertices=10)
        cluster.run()
        before = len(cluster.tuples("reach"))
        cluster.assert_fact("edge", (0, 7))
        cluster.run()
        assert len(cluster.tuples("reach")) >= before
        assert cluster.ledger.quiescent()


def ring_with_chords(vertices, seed=7):
    """A ring plus one seeded chord per vertex: strongly connected, so
    the closure is ``vertices ** 2`` facts."""
    rng = random.Random(seed)
    edges = set()
    for vertex in range(vertices):
        successor = (vertex + 1) % vertices
        edges.add((vertex, successor))
        edges.add((vertex, rng.choice(
            [t for t in range(vertices) if t not in (vertex, successor)])))
    return sorted(edges)


class TestAsyncRoundCap:
    """``max_rounds`` caps what an async run reports as ``rounds`` — its
    causal depth — not the number of delivery events."""

    def test_many_deliveries_at_shallow_depth_are_not_refused(self):
        # Regression: the cap used to be max_rounds * len(nodes) delivery
        # events, so this closure — correct at causal depth 14 after
        # 4,524 messages — was refused under the default max_rounds=500
        # ("did not quiesce within 2000 delivery events").
        names = [f"node{i}" for i in range(4)]
        partitioner = Partitioner(names)
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        cluster = Cluster(names, partitioner=partitioner, mode="async")
        cluster.load(REACHABILITY)
        cluster.assert_facts("edge", ring_with_chords(100))
        report = cluster.run()
        assert report.rounds == report.depth == 14
        assert report.messages > 500 * len(names)
        assert cluster.tuples("reach") == {
            (x, y) for x in range(100) for y in range(100)}

    def test_cap_between_depth_and_events_passes(self):
        cluster = reach_cluster(3, "async")
        outcome = cluster.runtime.run()
        assert outcome.depth < outcome.events / 3
        capped = reach_cluster(3, "async")
        report = capped.run(max_rounds=outcome.depth)
        assert report.rounds == outcome.depth
        assert capped.tuples("reach") == cluster.tuples("reach")

    @pytest.mark.parametrize("mode", ["bsp", "async"])
    def test_a_run_that_never_quiesces_is_still_stopped(self, mode):
        names = ["a", "b", "c"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("nat", column=0)
        cluster = Cluster(names, partitioner=partitioner, mode=mode)
        cluster.load("n0: nat(Y) <- nat(X), Y = X + 1.")
        cluster.assert_fact("nat", (0,))
        with pytest.raises(ClusterError, match="did not quiesce"):
            cluster.run(max_rounds=25)


class TestSentDedupGeneration:
    """The per-node ``_sent`` set clears at quiescence (bounded memory)."""

    def test_quiescence_clears_the_dedup_set(self):
        cluster = reach_cluster(3)
        report = cluster.run()
        total_sent = sum(n.sent_facts for n in report.per_node)
        assert total_sent > 0
        stats = cluster.total_stats()
        # every queued marker was evicted by the generation clear —
        # exactly one eviction per fact ever queued
        assert stats.sent_dedup_evictions == total_sent
        for node in cluster.nodes.values():
            assert not node._sent
            assert node.sent_generation == 1

    def test_rerun_after_clear_still_reaches_the_same_fixpoint(self):
        reference = reach_cluster(3)
        reference.run()
        expected = reference.tuples("reach")
        cluster = reach_cluster(3)
        cluster.run()
        # second run re-derives and (having lost the markers) re-sends;
        # owners deduplicate on assert, the fixpoint is unchanged
        cluster.run()
        assert cluster.tuples("reach") == expected
        assert cluster.total_stats().sent_dedup_evictions >= \
            reference.total_stats().sent_dedup_evictions
        for node in cluster.nodes.values():
            assert node.sent_generation == 2


class TestModeSelection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(2, mode="wavefront")

    def test_mode_is_reported(self):
        cluster = reach_cluster(2, "async", vertices=8)
        report = cluster.run()
        assert report.mode == "async"
        assert cluster.mode == "async"
        rendered = report.as_dict()
        assert rendered["mode"] == "async"
        assert rendered["depth"] == report.depth
