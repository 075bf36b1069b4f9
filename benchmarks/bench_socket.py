"""A9 — socket transport: the same distributed exchange, real TCP.

PR-5's tentpole made the cluster runtime transport-agnostic: the same
BSP/async schedulers drive delta batches over the virtual-clock
:class:`SimulatedNetwork` or over real loopback TCP frames
(:class:`SocketNetwork`).  This workload runs the shard-scaling
reachability job on both transports and records what the wire costs:

* ``reach_facts`` must be identical across transports (the fixpoint is
  transport-invariant — the PR-5 acceptance bar);
* ``messages`` / ``bytes`` — batched traffic, comparable across
  transports because both count payload bytes;
* wall time on the socket transport includes real kernel round-trips,
  so the simulated/socket delta is the true cost of leaving the virtual
  clock.

The multiprocess launcher is exercised by the test suite and the
``socket-smoke`` CI job rather than here: process spawn time would
swamp a timing measurement.
"""

import random

from benchmarks.harness import benchmark
from repro.cluster import Cluster, Partitioner
from repro.net import SimulatedNetwork, SocketNetwork

REACHABILITY = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


def build_cluster(network, nodes, vertices, mode, degree=2, seed=7):
    names = [f"node{i}" for i in range(nodes)]
    partitioner = Partitioner(names)
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=1)
    cluster = Cluster(names, network=network, partitioner=partitioner,
                      mode=mode)
    cluster.load(REACHABILITY)
    rng = random.Random(seed)
    for v in range(vertices):
        for t in rng.sample(range(vertices), degree):
            if t != v:
                cluster.assert_fact("edge", (v, t))
    return cluster


_QUICK = [{"transport": t, "mode": m, "nodes": 3, "vertices": 48}
          for t in ("simulated", "socket") for m in ("bsp", "async")]
_FULL = [{"transport": t, "mode": m, "nodes": 4, "vertices": 150}
         for t in ("simulated", "socket") for m in ("bsp", "async")]


@benchmark("socket_transport", group="cluster",
           quick=_QUICK, full=_FULL)
def socket_transport(case, transport, mode, nodes, vertices):
    """Distributed TC to quiescence over virtual-clock vs real TCP."""
    if transport == "socket":
        network = SocketNetwork()
    else:
        network = SimulatedNetwork()
    try:
        cluster = build_cluster(network, nodes, vertices, mode)
        for node in cluster.nodes.values():
            case.watch(node.stats)
        with case.measure():
            report = cluster.run()
        case.record(
            transport=transport,
            mode=mode,
            nodes=nodes,
            rounds=report.rounds,
            depth=report.depth,
            messages=report.messages,
            batched_facts=report.batched_facts,
            bytes=report.bytes,
            reach_facts=len(cluster.tuples("reach")),
        )
    finally:
        if transport == "socket":
            network.close()
