"""Placement rules: hash/range partitioning, predNode-style pins."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.cluster.partition import (
    MODE_LOCAL,
    MODE_PARTITIONED,
    MODE_REPLICATED,
    Partitioner,
    stable_hash,
)
from repro.datalog.database import TermInterner
from repro.datalog.errors import ClusterError

NODES = ("a", "b", "c")

REACHABILITY = """
reach(X,Y) <- edge(X,Y).
reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

#: ints, floats, bools and tuples of them — the values that print alike
#: or compare equal under different spellings
NUMERIC = st.recursive(
    st.integers() | st.floats() | st.booleans(),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=6,
)


def respell(data, value):
    """An equal value, each leaf in a spelling drawn from its equals."""
    if isinstance(value, tuple):
        return tuple(respell(data, item) for item in value)
    spellings = [value]
    if isinstance(value, float):
        # the same bits, a different object
        spellings.append(float.fromhex(value.hex()))
        if value.is_integer():
            spellings.append(int(value))
    if isinstance(value, int):
        if float(value) == value:
            spellings.append(float(value))
        if value in (0, 1):
            spellings += [bool(value), int(value)]
    return data.draw(st.sampled_from(spellings))


class TestStableHash:
    def test_deterministic_across_value_types(self):
        # pinned values: placement must be stable across processes/runs
        assert stable_hash("alice") == stable_hash("alice")
        assert stable_hash(7) == stable_hash(7)
        assert stable_hash(b"\x00\x01") == stable_hash(b"\x00\x01")

    def test_str_and_bytes_do_not_collide_by_prefix(self):
        assert stable_hash("ab") != stable_hash(b"ab")

    def test_ints_strings_and_bytes_hash_their_own_spelling(self):
        # an int- or string-keyed placement never moves
        assert stable_hash(7) == zlib.crc32(b"7")
        assert stable_hash(-12) == zlib.crc32(b"-12")
        assert stable_hash("alice") == zlib.crc32(b"s:alice")
        assert stable_hash(b"\x00") == zlib.crc32(b"b:\x00")
        assert stable_hash((1, "x")) == zlib.crc32(b"(1, 'x')")

    def test_equal_spellings_hash_equal(self):
        # one interner id, one hash; a value hashes its own spelling
        terms = TermInterner()
        spellings = [2, 2.0, True, 1, 1.0, False, 0, 0.0, -0.0,
                     (2.0, (True,)), (2, (1,)), float.fromhex("-0x0p+0")]
        for value in spellings:
            for other in spellings:
                if terms.intern(value) == terms.intern(other):
                    assert stable_hash(value) == stable_hash(other)
        assert stable_hash(2.0) == zlib.crc32(b"2.0")
        assert stable_hash(True) == zlib.crc32(b"True")
        assert stable_hash(-0.0) == zlib.crc32(b"-0.0")
        assert len({terms.id_of(v) for v in (0, 0.0, -0.0, False)}) == 4

    @settings(max_examples=300, deadline=None)
    @given(NUMERIC, st.data())
    def test_equal_values_hash_equal(self, value, data):
        other = respell(data, value)
        terms = TermInterner()
        if terms.intern(value) == terms.intern(other):
            assert stable_hash(value) == stable_hash(other)


def reach_cluster(nodes, edges, edge_column=0, reach_column=1):
    names = [f"n{i}" for i in range(nodes)]
    partitioner = Partitioner(names)
    partitioner.hash_partition("edge", column=edge_column)
    partitioner.hash_partition("reach", column=reach_column)
    cluster = Cluster(names, partitioner=partitioner)
    cluster.load(REACHABILITY)
    cluster.assert_facts("edge", edges)
    return cluster


def spelled_reach(cluster):
    """The union of the shards' ``reach`` id rows, each value by type
    and spelling."""
    facts = set()
    for node in cluster.nodes.values():
        relation = node.db.get("reach")
        for row in relation.rows if relation is not None else ():
            facts.add(tuple((type(value).__name__, repr(value)) for value
                            in node.db.interner.materialize_row(row)))
    return facts


class TestEqualValuesOneShard:
    @pytest.mark.parametrize("nodes", [2, 3, 4, 5])
    def test_an_int_and_its_float_spelling_join(self, nodes):
        # 2 and 2.0 are two facts, so edge(2.0,999) does not continue
        # reach(1,2): one node and N nodes agree that reach(1,999) is
        # not derived
        edges = [(1, 2), (2.0, 999)]
        cluster = reach_cluster(nodes, edges)
        cluster.run()
        single = reach_cluster(1, edges)
        single.run()
        assert spelled_reach(cluster) == spelled_reach(single) == {
            (("int", "1"), ("int", "2")), (("float", "2.0"), ("int", "999"))}

    @pytest.mark.parametrize("nodes", [2, 3, 4, 5])
    def test_a_float_joins_by_its_bits(self, nodes):
        # 0.0 and -0.0 are two facts and hash apart; a shard keyed on the
        # value would join them on one node and lose the join on N
        edges = [(1, 0.0), (-0.0, 999), (2, -0.0)]
        cluster = reach_cluster(nodes, edges)
        cluster.run()
        single = reach_cluster(1, edges)
        single.run()
        assert spelled_reach(cluster) == spelled_reach(single)
        assert (("int", "2"), ("int", "999")) in spelled_reach(single)

    def test_a_bool_and_its_int_spelling_join(self):
        cluster = reach_cluster(3, [(0, 1), (True, 5), (5, False)])
        cluster.run()
        single = reach_cluster(1, [(0, 1), (True, 5), (5, False)])
        single.run()
        assert cluster.tuples("reach") == single.tuples("reach")


class TestPartitioner:
    def test_default_mode_is_local(self):
        part = Partitioner(NODES)
        assert part.mode("p") == MODE_LOCAL
        assert part.owner("p", ("x",)) is None
        assert not part.is_exchanged("p")

    def test_hash_partition_covers_all_nodes_deterministically(self):
        part = Partitioner(NODES)
        part.hash_partition("p", column=0)
        owners = {part.owner("p", (i, "v")) for i in range(64)}
        assert owners == set(NODES)
        again = Partitioner(NODES)
        again.hash_partition("p", column=0)
        for i in range(64):
            assert part.owner("p", (i,)) == again.owner("p", (i,))

    def test_single_node_owns_everything(self):
        part = Partitioner(["only"])
        part.hash_partition("p")
        assert part.owner("p", ("anything",)) == "only"

    def test_range_partition(self):
        part = Partitioner(NODES)
        part.range_partition("p", 0, [10, 20])
        assert part.owner("p", (5,)) == "a"
        assert part.owner("p", (10,)) == "a"    # boundary goes left
        assert part.owner("p", (15,)) == "b"
        assert part.owner("p", (99,)) == "c"

    def test_range_partition_validates_boundaries(self):
        part = Partitioner(NODES)
        with pytest.raises(ClusterError):
            part.range_partition("p", 0, [10])          # wrong count
        with pytest.raises(ClusterError):
            part.range_partition("p", 0, [20, 10])      # unsorted

    def test_prednode_style_pin_overrides_hash(self):
        part = Partitioner(NODES)
        part.hash_partition("export", column=0)
        hashed = part.owner("export", ("alice", "rule"))
        target = "c" if hashed != "c" else "a"
        part.place("export", ("alice",), target)
        assert part.owner("export", ("alice", "rule")) == target
        # other keys keep the hash placement
        assert part.owner("export", ("bob", "r")) == \
            Partitioner(NODES).owner("export", ("bob", "r")) or True

    def test_replicated_mode(self):
        part = Partitioner(NODES)
        part.replicate("hop")
        assert part.mode("hop") == MODE_REPLICATED
        assert part.owner("hop", (1, 2)) is None
        assert part.is_exchanged("hop")

    def test_conflicting_placement_rejected(self):
        part = Partitioner(NODES)
        part.hash_partition("p", column=0)
        with pytest.raises(ClusterError):
            part.hash_partition("p", column=1)
        part.hash_partition("p", column=0)  # identical redeclare is fine

    def test_missing_column_is_an_error(self):
        part = Partitioner(NODES)
        part.hash_partition("p", column=3)
        with pytest.raises(ClusterError):
            part.owner("p", ("short",))

    def test_describe_and_exchanged_preds(self):
        part = Partitioner(NODES)
        part.hash_partition("p", column=1)
        part.replicate("q")
        assert part.exchanged_preds() == ["p", "q"]
        description = part.describe()
        assert description["p"] == {"mode": MODE_PARTITIONED, "column": 1,
                                    "strategy": "hash"}
        assert description["q"] == {"mode": MODE_REPLICATED}

    def test_describe_a_one_node_range_partition_as_range(self):
        # no split points is still a range scheme, as scheme_signature says
        part = Partitioner(["only"])
        part.range_partition("p", 0, [])
        assert part.describe()["p"]["strategy"] == "range"
        assert part.scheme_signature("p")[0] == "range"

    def test_duplicate_or_empty_nodes_rejected(self):
        with pytest.raises(ClusterError):
            Partitioner([])
        with pytest.raises(ClusterError):
            Partitioner(["a", "a"])


class TestPinKeyValidation:
    def test_multi_column_pin_keys_rejected(self):
        partitioner = Partitioner(["n0", "n1"])
        with pytest.raises(ClusterError):
            partitioner.place("export", ("alice", "r1"), "n1")
        # single-column pins still work and actually route
        partitioner.place("export", ("alice",), "n1")
        assert partitioner.owner("export", ("alice", "payload")) == "n1"


class TestPlacementFrozenUnderData:
    def test_a_placement_cannot_change_after_a_run(self):
        cluster = reach_cluster(3, [(1, 2), (2, 3)])
        cluster.run()
        partitioner = cluster.partitioner
        node = partitioner.nodes[-1]
        with pytest.raises(ClusterError, match="'edge'"):
            partitioner.place("edge", (3,), node)
        with pytest.raises(ClusterError, match="'reach'"):
            partitioner.place("reach", (3,), node)
        with pytest.raises(ClusterError):
            partitioner.hash_partition("other", column=0)
        with pytest.raises(ClusterError):
            partitioner.range_partition("other", 0, [10, 20])
        with pytest.raises(ClusterError):
            partitioner.replicate("other")
        assert len(partitioner.pins) == 0
        # the declared placement still routes every later fact
        cluster.assert_facts("edge", [(3, 4), (4, 5)])
        cluster.run()
        assert cluster.tuples("reach") == {
            (a, b) for a in range(1, 6) for b in range(a + 1, 6)}

    def test_routing_one_fact_freezes_the_placement(self):
        partitioner = Partitioner(NODES)
        partitioner.hash_partition("p", column=0)
        cluster = Cluster(list(NODES), partitioner=partitioner)
        partitioner.replicate("q")         # nothing placed yet
        cluster.assert_fact("p", (1,))
        with pytest.raises(ClusterError):
            partitioner.replicate("r")

    def test_a_committed_load_freezes_a_refused_one_does_not(self):
        partitioner = Partitioner(NODES)
        partitioner.hash_partition("p", column=0)
        partitioner.hash_partition("q", column=0)
        cluster = Cluster(list(NODES), partitioner=partitioner)
        with pytest.raises(ClusterError):
            cluster.load("j(X,Y) <- p(X), q(Y).")
        partitioner.replicate("r")         # the refused load froze nothing
        cluster.load("j(X) <- p(X), q(X).")
        with pytest.raises(ClusterError):
            partitioner.place("p", (1,), "a")


class TestReplicatedPredicatesHaveNoPins:
    def test_pinning_a_replicated_predicate_is_refused(self):
        part = Partitioner(NODES)
        part.replicate("hop")
        with pytest.raises(ClusterError, match="replicated"):
            part.place("hop", (1,), "b")
        assert len(part.pins) == 0
        assert part.mode("hop") == MODE_REPLICATED

    def test_replicating_a_pinned_predicate_is_a_conflict(self):
        part = Partitioner(NODES)
        part.place("hop", (1,), "b")
        with pytest.raises(ClusterError, match="conflicting"):
            part.replicate("hop")


class TestRangeKeysMustCompare:
    def range_cluster(self):
        partitioner = Partitioner(["n0", "n1"])
        partitioner.range_partition("edge", 0, [10])
        return Cluster(["n0", "n1"], partitioner=partitioner)

    def test_an_asserted_key_that_does_not_compare_is_named(self):
        cluster = self.range_cluster()
        with pytest.raises(ClusterError, match=r"'a' of 'edge'"):
            cluster.assert_fact("edge", ("a", 1))
        assert cluster.tuples("edge") == set()

    def test_a_derived_key_that_does_not_compare_is_named(self):
        cluster = self.range_cluster()
        cluster.load("edge(X,Y) <- label(X,Y).")
        cluster.assert_fact("label", ("a", 1))   # local: stays on n0
        with pytest.raises(ClusterError, match=r"'a' of 'edge'"):
            cluster.run()
