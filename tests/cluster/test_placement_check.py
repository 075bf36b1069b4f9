"""The static join-compatibility checker: machine-checked placement."""

import pytest

from repro.cluster import (
    Cluster,
    Partitioner,
    analyze_join_compatibility,
    check_join_compatibility,
)
from repro.datalog.engine import normalize_rules
from repro.datalog.errors import ClusterError
from repro.datalog.parser import parse_statements
from repro.datalog.terms import Rule

REACHABILITY = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


def engine_rules(source):
    return normalize_rules(
        [s for s in parse_statements(source) if isinstance(s, Rule)])


def mismatched_partitioner(names=("n0", "n1", "n2")):
    """reach on column 0 + edge on column 0: tc1's join keys diverge."""
    partitioner = Partitioner(names)
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=0)
    return partitioner


class TestAnalysis:
    def test_colocated_recursive_join_is_compatible(self):
        partitioner = Partitioner(["n0", "n1", "n2"])
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        assert analyze_join_compatibility(
            engine_rules(REACHABILITY), partitioner) == []

    def test_key_mismatch_is_detected_with_rule_and_column(self):
        issues = analyze_join_compatibility(
            engine_rules(REACHABILITY), mismatched_partitioner())
        assert len(issues) == 1
        issue = issues[0]
        assert issue.rule_label == "tc1"
        assert ("reach", 0) in issue.preds
        assert ("edge", 0) in issue.preds
        assert "column 0" in issue.detail

    def test_single_partitioned_literal_is_always_fine(self):
        partitioner = Partitioner(["n0", "n1"])
        partitioner.hash_partition("item", column=0)
        assert analyze_join_compatibility(
            engine_rules('alert(X) <- item(X, "bad"), config(X).'),
            partitioner) == []

    def test_replicated_and_local_literals_do_not_constrain(self):
        partitioner = Partitioner(["n0", "n1"])
        partitioner.hash_partition("p", column=0)
        partitioner.replicate("ref")
        assert analyze_join_compatibility(
            engine_rules("out(X,Y) <- p(X), ref(Y), scratch(X,Y)."),
            partitioner) == []

    def test_mixed_hash_and_range_schemes_are_incompatible(self):
        partitioner = Partitioner(["n0", "n1", "n2"])
        partitioner.hash_partition("p", column=0)
        partitioner.range_partition("q", 0, [10, 20])
        issues = analyze_join_compatibility(
            engine_rules("j(X) <- p(X), q(X)."), partitioner)
        assert len(issues) == 1
        assert "different placement schemes" in issues[0].detail

    def test_matching_pins_are_compatible_diverging_pins_are_not(self):
        def pinned(pin_q_to):
            partitioner = Partitioner(["n0", "n1"])
            partitioner.hash_partition("p", column=0)
            partitioner.hash_partition("q", column=0)
            partitioner.place("p", ("alice",), "n1")
            partitioner.place("q", ("alice",), pin_q_to)
            return partitioner

        rules = engine_rules("j(X) <- p(X), q(X).")
        assert analyze_join_compatibility(rules, pinned("n1")) == []
        issues = analyze_join_compatibility(rules, pinned("n0"))
        assert len(issues) == 1

    def test_equal_constants_colocate_distinct_variables_do_not(self):
        partitioner = Partitioner(["n0", "n1"])
        partitioner.hash_partition("p", column=0)
        partitioner.hash_partition("q", column=0)
        ok = engine_rules('j(Y) <- p("k"), q("k"), r(Y).')
        # arity-1 p/q with the same constant key: always the same owner
        assert analyze_join_compatibility(ok, partitioner) == []
        bad = engine_rules("j(X,Y) <- p(X), q(Y).")
        assert len(analyze_join_compatibility(bad, partitioner)) == 1

    def test_single_node_cluster_skips_the_analysis(self):
        partitioner = Partitioner(["solo"])
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=0)
        assert analyze_join_compatibility(
            engine_rules(REACHABILITY), partitioner) == []


class TestLoadTimeEnforcement:
    def test_load_rejects_mismatched_placement_naming_rule_and_column(self):
        cluster = Cluster(["n0", "n1", "n2"],
                          partitioner=mismatched_partitioner())
        with pytest.raises(ClusterError) as excinfo:
            cluster.load(REACHABILITY)
        message = str(excinfo.value)
        assert "tc1" in message
        assert "column 0" in message

    def test_check_names_every_offending_rule_and_changes_nothing(self):
        partitioner = mismatched_partitioner()
        before = partitioner.describe()
        rules = engine_rules(REACHABILITY + "tc2: hop(X,Z) <- reach(X,Y), "
                                            "edge(Y,Z).")
        with pytest.raises(ClusterError) as excinfo:
            check_join_compatibility(rules, partitioner)
        assert "'tc1'" in str(excinfo.value)
        assert "'tc2'" in str(excinfo.value)
        assert partitioner.describe() == before
        good = Partitioner(["n0", "n1", "n2"])
        good.hash_partition("edge", column=0)
        good.hash_partition("reach", column=1)
        assert check_join_compatibility(rules, good) is None

    def test_rejected_load_leaves_placement_untouched(self):
        """The static checks only read the placement — a failed load
        leaves the cluster exactly as it was."""
        partitioner = Partitioner(["n0", "n1"])
        partitioner.hash_partition("p", column=0)
        partitioner.hash_partition("q", column=0)
        cluster = Cluster(["n0", "n1"], partitioner=partitioner)
        cluster.assert_fact("q", (1,))
        shards_before = {name: node.db.tuples("q")
                         for name, node in cluster.nodes.items()}
        # j's join keys diverge, and bad negates the exchanged predicate p
        with pytest.raises(ClusterError):
            cluster.load("j(X,Y) <- p(X), q(Y). bad(X) <- w(X), !p(X).")
        assert cluster.partitioner.mode("q") == "partitioned"
        assert {name: node.db.tuples("q")
                for name, node in cluster.nodes.items()} == shards_before
        # a corrected program still loads against the original placement
        cluster.load("j(X) <- p(X), q(X).")

    def test_rejected_load_seeds_no_facts(self):
        """Facts in a rejected program must not reach any shard."""
        partitioner = Partitioner(["n0", "n1"])
        partitioner.hash_partition("p", column=0)
        partitioner.hash_partition("q", column=0)
        cluster = Cluster(["n0", "n1"], partitioner=partitioner)
        with pytest.raises(ClusterError):
            cluster.load("p(1). p(2). j(X,Y) <- p(X), q(Y).")
        assert cluster.tuples("p") == set()
        for node in cluster.nodes.values():
            assert node.base.get("p", set()) == set()

    def test_demo_placement_still_loads(self):
        partitioner = Partitioner(["n0", "n1", "n2", "n3"])
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        cluster = Cluster(["n0", "n1", "n2", "n3"], partitioner=partitioner)
        cluster.load(REACHABILITY)  # must not raise
