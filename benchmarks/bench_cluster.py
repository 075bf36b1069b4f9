"""A8 — cluster shard scaling: distributed reachability on 1/2/4/8 nodes.

The PR-3 tentpole workload: hash-partitioned transitive closure where
the recursive join is co-located by placement (``edge`` sharded by
source, ``reach`` by destination) and every derived ``reach`` fact ships
to its owner in a batched, round-stamped delta message.  The figures of
merit besides wall time:

* ``max_node_derivations`` — the per-shard load, which must *decrease*
  as nodes are added while ``reach_facts`` (the fixpoint) stays exactly
  the single-node value;
* ``messages`` / ``bytes`` — batched traffic (one size-capped envelope
  per node pair per round);
* ``virtual_time`` — convergence time on the simulated network's clock.
"""

import random

from benchmarks.harness import benchmark
from repro.cluster import Cluster, Partitioner

REACHABILITY = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


def build_cluster(nodes, vertices, degree=2, seed=7):
    names = [f"node{i}" for i in range(nodes)]
    partitioner = Partitioner(names)
    # edge sharded by source, reach by *destination*: the recursive join
    # reach(X,Y), edge(Y,Z) is then co-located at owner(Y), and each
    # derived reach(X,Z) is emitted to owner(Z).
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=1)
    cluster = Cluster(names, partitioner=partitioner)
    cluster.load(REACHABILITY)
    rng = random.Random(seed)
    for v in range(vertices):
        for t in rng.sample(range(vertices), degree):
            if t != v:
                cluster.assert_fact("edge", (v, t))
    return cluster


@benchmark("cluster_shard_scaling", group="cluster",
           quick=[{"nodes": n, "vertices": 48} for n in (1, 2, 4)],
           full=[{"nodes": n, "vertices": 150} for n in (1, 2, 4, 8)])
def cluster_shard_scaling(case, nodes, vertices):
    """Distributed TC to quiescence: per-node load vs cluster size."""
    cluster = build_cluster(nodes, vertices)
    for node in cluster.nodes.values():
        case.watch(node.stats)
    with case.measure():
        report = cluster.run()
    case.record(
        nodes=nodes,
        rounds=report.rounds,
        messages=report.messages,
        batched_facts=report.batched_facts,
        bytes=report.bytes,
        virtual_time=report.virtual_time,
        convergence_time=report.convergence_time,
        reach_facts=len(cluster.tuples("reach")),
        max_node_derivations=report.max_node_derivations(),
        per_node_derivations=[n.derivations for n in report.per_node],
    )
