"""Shards agree with one node on generated inputs.

Random edge sets over a pool where ``k``, ``float(k)``, ``True``,
``False`` and ``-0.0`` compare equal across spellings but are distinct
facts, under hash and range placements, on 2–4 nodes, in ``bsp`` and
``async``: the union of the shards' ``reach`` rows, read by type and
spelling, must be the 1-node fixpoint's.  A fact routed by one spelling
on assert and by another on derivation lands on two shards, and the join
between them is silently lost.

The second property runs a shard across runs — facts asserted and a rule
loaded after the first — against one workspace fed the same stream.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import MODE_ASYNC, MODE_BSP, Cluster, Partitioner
from repro.workspace.workspace import Workspace

REACHABILITY = """
reach(X,Y) <- edge(X,Y).
reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

POOL = [k for k in range(5)] + [float(k) for k in range(5)] \
    + [True, False, -0.0]

EDGES = st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)),
                 max_size=10)


#: the stream's two loads: the base rule, then the recursive one
FIRST, SECOND = "reach(X,Y) <- edge(X,Y).", \
    "reach(X,Z) <- reach(X,Y), edge(Y,Z)."


def spelled(db):
    """``reach`` rows of one database, each value by type and spelling."""
    relation = db.get("reach")
    return {tuple((type(value).__name__, repr(value)) for value
                  in db.interner.materialize_row(row))
            for row in (relation.rows if relation is not None else ())}


def fixpoint(partitioner, mode, edges):
    cluster = Cluster(list(partitioner.nodes), partitioner=partitioner,
                      mode=mode)
    cluster.load(REACHABILITY)
    cluster.assert_facts("edge", edges)
    cluster.run()
    facts = set()
    for node in cluster.nodes.values():
        relation = node.db.get("reach")
        for row in relation.rows if relation is not None else ():
            facts.add(tuple((type(value).__name__, repr(value)) for value
                            in node.db.interner.materialize_row(row)))
    return facts


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


@settings(max_examples=80, deadline=None)
@given(placements(), st.sampled_from([MODE_BSP, MODE_ASYNC]), EDGES, EDGES)
def test_a_shard_across_runs_is_one_workspace(partitioner, mode, first,
                                              second):
    """load, assert, run, assert, load one more rule, run: the shards'
    union is what one workspace fed the same stream holds."""
    cluster = Cluster(list(partitioner.nodes), partitioner=partitioner,
                      mode=mode)
    workspace = Workspace("solo")
    cluster.load(FIRST)
    workspace.load(FIRST)
    cluster.assert_facts("edge", first)
    workspace.assert_facts("edge", first)
    cluster.run()
    cluster.assert_facts("edge", second)
    workspace.assert_facts("edge", second)
    cluster.load(SECOND)
    workspace.load(SECOND)
    cluster.run()
    shards = [spelled(node.db) for node in cluster.nodes.values()]
    assert set().union(*shards) == spelled(workspace.db)
    assert sum(map(len, shards)) == len(set().union(*shards))
