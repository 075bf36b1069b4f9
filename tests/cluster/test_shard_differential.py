"""Shards agree with one node on generated inputs.

Random edge sets over a pool where ``k``, ``float(k)``, ``True`` and
``False`` are equal spellings of each other, under hash and range
placements, on 2–4 nodes, in ``bsp`` and ``async``: the union of the
shards' ``reach`` must be the 1-node fixpoint.  An equal value routed by
one spelling on assert and by another on derivation lands on two shards,
and the join between them is silently lost.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import MODE_ASYNC, MODE_BSP, Cluster, Partitioner

REACHABILITY = """
reach(X,Y) <- edge(X,Y).
reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

POOL = [k for k in range(5)] + [float(k) for k in range(5)] + [True, False]

EDGES = st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)),
                 max_size=10)


def fixpoint(partitioner, mode, edges):
    cluster = Cluster(list(partitioner.nodes), partitioner=partitioner,
                      mode=mode)
    cluster.load(REACHABILITY)
    cluster.assert_facts("edge", edges)
    cluster.run()
    return cluster.tuples("reach")


@st.composite
def placements(draw):
    """``edge`` on column 0 and ``reach`` on column 1 under one scheme:
    the join key ``Y`` of the recursive rule is co-located."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 4)))]
    partitioner = Partitioner(nodes)
    if draw(st.booleans()):
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
    else:
        splits = sorted(draw(st.lists(st.integers(0, 4),
                                      min_size=len(nodes) - 1,
                                      max_size=len(nodes) - 1)))
        partitioner.range_partition("edge", 0, splits)
        partitioner.range_partition("reach", 1, splits)
    return partitioner


@settings(max_examples=120, deadline=None)
@given(placements(), st.sampled_from([MODE_BSP, MODE_ASYNC]), EDGES)
def test_union_of_shards_is_the_single_node_fixpoint(partitioner, mode,
                                                     edges):
    single = fixpoint(Partitioner(["solo"]), MODE_BSP, edges)
    assert fixpoint(partitioner, mode, edges) == single
