"""The sharded runtime: fixpoint parity, emission semantics, batching."""

import random

import pytest

from repro.cluster import Cluster, ClusterNode, Partitioner
from repro.cluster.launch import _build_cluster_job, cluster_spec
from repro.datalog.errors import ClusterError
from repro.meta.registry import RuleRegistry

REACHABILITY = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


def reach_cluster(n_nodes, vertices=24, degree=2, seed=11, **kwargs):
    """edge sharded by source; reach sharded by its *second* column so
    the recursive join is co-located at owner(Y) and every derived
    reach(X,Z) ships to owner(Z)."""
    names = [f"node{i}" for i in range(n_nodes)]
    partitioner = Partitioner(names)
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=1)
    cluster = Cluster(names, partitioner=partitioner, **kwargs)
    cluster.load(REACHABILITY)
    rng = random.Random(seed)
    for v in range(vertices):
        for t in rng.sample(range(vertices), degree):
            if t != v:
                cluster.assert_fact("edge", (v, t))
    return cluster


class TestFixpointParity:
    def test_sharded_fixpoint_matches_single_node(self):
        single = reach_cluster(1)
        single.run()
        reference = single.tuples("reach")
        assert reference  # non-trivial workload
        for n_nodes in (2, 3, 5):
            cluster = reach_cluster(n_nodes)
            report = cluster.run()
            assert cluster.tuples("reach") == reference
            assert report.messages > 0 and report.bytes > 0

    def test_partitioned_shards_are_disjoint(self):
        cluster = reach_cluster(3)
        cluster.run()
        seen: set = set()
        for node in cluster.nodes.values():
            shard = node.db.tuples("reach")
            assert not (shard & seen)
            seen |= shard

    def test_per_node_derivations_shrink_with_node_count(self):
        loads = {}
        for n_nodes in (1, 2, 4):
            cluster = reach_cluster(n_nodes, vertices=40)
            report = cluster.run()
            loads[n_nodes] = report.max_node_derivations()
        assert loads[2] < loads[1]
        assert loads[4] < loads[2]

    def test_deterministic_across_runs(self):
        first = reach_cluster(3)
        report_a = first.run()
        second = reach_cluster(3)
        report_b = second.run()
        assert first.tuples("reach") == second.tuples("reach")
        assert report_a.messages == report_b.messages
        assert report_a.bytes == report_b.bytes
        assert report_a.rounds == report_b.rounds


class TestEmissionSemantics:
    def test_remote_facts_are_emitted_not_asserted(self):
        cluster = reach_cluster(3)
        report = cluster.run()
        stats = cluster.total_stats()
        assert stats.remote_emissions > 0
        # every emitted fact left its deriving shard
        for node_report in report.per_node:
            node = cluster.node(node_report.name)
            for fact in node.db.tuples("reach"):
                assert cluster.partitioner.owner("reach", fact) == node.name

    def test_replicated_predicate_lands_everywhere(self):
        names = ["n0", "n1", "n2"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("item", column=0)
        partitioner.replicate("alert")
        cluster = Cluster(names, partitioner=partitioner)
        cluster.load("a1: alert(X) <- item(X, \"bad\").")
        for i in range(12):
            cluster.assert_fact("item", (i, "bad" if i % 3 == 0 else "ok"))
        cluster.run()
        expected = {(i,) for i in range(12) if i % 3 == 0}
        for node in cluster.nodes.values():
            assert node.db.tuples("alert") == expected

    def test_local_mode_predicates_never_travel(self):
        names = ["n0", "n1"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("p", column=0)
        cluster = Cluster(names, partitioner=partitioner)
        cluster.load("d: seen(X) <- p(X).")   # seen is local-mode
        for i in range(8):
            cluster.assert_fact("p", (i,))
        report = cluster.run()
        assert report.messages == 0
        union = cluster.tuples("seen")
        assert union == {(i,) for i in range(8)}

    def test_facts_in_program_source_route_by_placement(self):
        names = ["n0", "n1"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("edge", column=0)
        cluster = Cluster(names, partitioner=partitioner)
        cluster.load('edge(1, 2). edge(2, 3). r(X,Y) <- edge(X,Y).')
        cluster.run()
        assert cluster.tuples("r") == {(1, 2), (2, 3)}
        total = sum(len(n.db.tuples("edge")) for n in cluster.nodes.values())
        assert total == 2  # each fact owned exactly once


class TestBatching:
    def test_one_message_per_link_per_round_when_small(self):
        cluster = reach_cluster(2, vertices=10)
        report = cluster.run()
        # 2 nodes -> at most 2 links carrying traffic per round
        assert report.messages <= 2 * report.rounds
        assert report.batched_facts >= report.messages

    def test_size_cap_splits_large_rounds(self):
        roomy = reach_cluster(2, vertices=40)
        r_roomy = roomy.run()
        capped = reach_cluster(2, vertices=40, max_batch_bytes=512)
        r_capped = capped.run()
        assert capped.tuples("reach") == roomy.tuples("reach")
        assert r_capped.messages > r_roomy.messages

    def test_traffic_counters_measure_batches_not_facts(self):
        cluster = reach_cluster(2, vertices=40)
        report = cluster.run()
        assert report.batched_facts > report.messages


class TestGuards:
    def test_nonmonotone_over_exchanged_pred_rejected(self):
        names = ["n0", "n1"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("p", column=0)
        cluster = Cluster(names, partitioner=partitioner)
        with pytest.raises(ClusterError):
            cluster.load("bad(X) <- q(X), !p(X).")

    def test_nonmonotone_over_local_preds_is_fine(self):
        cluster = Cluster(2)
        cluster.load("ok(X) <- q(X), !p(X).")
        cluster.assert_fact("q", (1,), at="node0")
        cluster.assert_fact("q", (2,), at="node0")
        cluster.assert_fact("p", (2,), at="node0")
        cluster.run()
        assert cluster.node("node0").tuples("ok") == {(1,)}

    def test_constraints_rejected(self):
        cluster = Cluster(2)
        with pytest.raises(ClusterError):
            cluster.load("p(X) -> q(X).")

    def test_unknown_node_errors(self):
        cluster = Cluster(2)
        with pytest.raises(ClusterError):
            cluster.assert_fact("p", (1,), at="nowhere")
        with pytest.raises(ClusterError):
            cluster.node("nowhere")

    @pytest.mark.parametrize("fact", [(2, 3, 4), (5,)])
    def test_a_fact_of_the_wrong_arity_is_refused(self, fact):
        cluster = reach_cluster(2, vertices=0)
        cluster.assert_fact("edge", (1, 2))
        with pytest.raises(ClusterError, match="arity 2"):
            cluster.assert_fact("edge", fact)
        cluster.run()
        assert cluster.tuples("edge") == {(1, 2)}
        assert cluster.tuples("reach") == {(1, 2)}

    def test_a_first_fact_declares_its_predicate(self):
        # With no program loaded, the first fact fixes the arity: the
        # second used to be stored beside it.
        cluster = Cluster(2)
        cluster.assert_fact("zz", (1,))
        with pytest.raises(ClusterError, match="arity 1"):
            cluster.assert_fact("zz", (1, 2))
        cluster.run()
        assert cluster.tuples("zz") == {(1,)}

    def test_a_launched_shard_refuses_a_fact_of_the_wrong_arity(self):
        spec = cluster_spec(["n0", "n1"], [["hash", "edge", 0]],
                            REACHABILITY, facts=[("edge", (1, 2, 3))])
        with pytest.raises(ClusterError, match="arity 2"):
            _build_cluster_job(spec, "n0")

    def test_a_refused_load_teaches_the_catalog_nothing(self):
        names = ["n0", "n1"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("p", column=0)
        cluster = Cluster(names, partitioner=partitioner)
        with pytest.raises(ClusterError):
            cluster.load("bad(X) <- q(X), !p(X).")
        cluster.assert_fact("q", (1, 2))
        assert "bad" not in cluster.catalog

    def test_single_node_cluster_never_messages(self):
        cluster = reach_cluster(1)
        report = cluster.run()
        assert report.messages == 0
        assert report.rounds >= 1


class TestNodeMechanics:
    def test_outbox_dedups_rederived_remote_facts(self):
        partitioner = Partitioner(["a", "b"])
        partitioner.hash_partition("p", column=0)
        registry = RuleRegistry()
        terms = registry.terms
        node = ClusterNode("a", partitioner, registry)
        remote = next(
            fact for fact in (((i,),) for i in range(64))
            for fact in fact if partitioner.owner("p", fact) == "b"
        )
        remote_row = terms.intern_row(remote)
        kept = node._emit_rows("p", {remote_row})
        assert kept == set()
        assert node._emit_rows("p", {remote_row}) == set()
        drained = []
        node.drain_outbox(lambda dst, pred, rows, to="": drained.append(
            (dst, pred, [terms.materialize_row(row) for row in rows])))
        assert drained == [("b", "p", [remote])]
        # re-offered after drain: still deduplicated
        node._emit_rows("p", {remote_row})
        assert node.outbox == {}

    def test_quiescence_even_when_rederivation_reoffers_facts(self):
        # a diamond: reach(0,3) derivable via two paths on different
        # shards; the run must still converge (no resend loop)
        names = ["n0", "n1"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        cluster = Cluster(names, partitioner=partitioner)
        cluster.load(REACHABILITY)
        for edge in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            cluster.assert_fact("edge", edge)
        report = cluster.run(max_rounds=30)
        assert (0, 3) in cluster.tuples("reach")
        assert report.rounds <= 30


class TestRepeatedRuns:
    def test_second_run_reports_only_its_own_rounds(self):
        cluster = reach_cluster(2, vertices=10)
        first = cluster.run()
        cluster.assert_fact("edge", (0, 5))
        second = cluster.run()
        assert len(cluster.ledger.rounds) == first.rounds + second.rounds
        assert second.rounds >= 1


class TestPerRunReports:
    def test_second_run_traffic_fields_are_deltas(self):
        cluster = reach_cluster(2, vertices=10)
        first = cluster.run()
        first_sent = sum(n.sent_facts for n in first.per_node)
        cluster.assert_fact("edge", (0, 5))
        second = cluster.run()
        second_sent = sum(n.sent_facts for n in second.per_node)
        # run 2's report covers run 2 only, like derivations/new_facts —
        # not lifetime totals (node attributes stay cumulative)
        lifetime = sum(n.sent_facts for n in cluster.nodes.values())
        assert first_sent + second_sent == lifetime
        assert second_sent < lifetime


class TestRulesLoadedBetweenRuns:
    def test_a_rule_activated_after_a_run_keeps_the_shards_disjoint(self):
        """A rule loaded after the first run is applied in full where the
        shard's rows already are; what it derives for another shard is
        shipped there, not kept."""
        def staged(n_nodes):
            names = [f"node{i}" for i in range(n_nodes)]
            partitioner = Partitioner(names)
            partitioner.hash_partition("edge", column=0)
            partitioner.hash_partition("reach", column=1)
            cluster = Cluster(names, partitioner=partitioner)
            cluster.load("tc0: reach(X,Y) <- edge(X,Y).")
            rng = random.Random(11)
            for v in range(24):
                for t in rng.sample(range(24), 2):
                    if t != v:
                        cluster.assert_fact("edge", (v, t))
            cluster.run()
            cluster.load("tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).")
            return cluster, cluster.run()

        single, _ = staged(1)
        sharded, report = staged(3)
        assert sharded.tuples("reach") == single.tuples("reach")
        shards = [node.db.tuples("reach") for node in sharded.nodes.values()]
        assert sum(map(len, shards)) == len(sharded.tuples("reach"))
        for name, node in sharded.nodes.items():
            assert all(sharded.partitioner.owner("reach", fact) == name
                       for fact in node.db.tuples("reach"))
        assert sharded.total_stats().remote_emissions > 0
        assert report.messages > 0
