"""A9 — async overlap: BSP barriers vs overlapped scheduling.

The PR-4 tentpole workload: the *same* distributed reachability program
under the unified runtime's two scheduling modes.  ``bsp`` closes a
global barrier every round — the whole cluster waits for its slowest
link; ``async`` re-enters semi-naive at each node the moment a delta
batch arrives.  One deliberately slow link makes the difference visible
on the virtual clock: the barrier pays the slow link every round, the
overlapped scheduler only on the chains that actually cross it.

Figures of merit:

* ``bsp_rounds`` / ``async_depth`` — virtual-clock rounds: BSP's round
  count *is* its causal depth, so depth-to-rounds is the apples-to-apples
  comparison; the acceptance bar is ``async_depth <= bsp_rounds``;
* ``bsp_convergence`` / ``async_convergence`` — virtual time at which
  each mode went quiet (async must not be later);
* ``bsp_elapsed`` vs the measured wall time of the async run;
* ``fixpoint_equal`` — bit-identical union-of-shards, every time.
"""

import random
from time import perf_counter

from benchmarks.harness import benchmark
from repro.cluster import Cluster, Partitioner
from repro.net.network import SimulatedNetwork

REACHABILITY = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

#: One link is this much slower than the rest: the barrier scheduler
#: pays it every round, the overlapped scheduler only per crossing chain.
SLOW_LINK_LATENCY = 4.0


def build_cluster(nodes, vertices, mode, degree=2, seed=7):
    names = [f"node{i}" for i in range(nodes)]
    partitioner = Partitioner(names)
    partitioner.hash_partition("edge", column=0)
    partitioner.hash_partition("reach", column=1)
    network = SimulatedNetwork(default_latency=1.0)
    for name in names:
        network.add_node(name)
    if nodes > 1:
        network.set_latency(names[0], names[1], SLOW_LINK_LATENCY)
    cluster = Cluster(names, network=network, partitioner=partitioner,
                      mode=mode)
    cluster.load(REACHABILITY)
    rng = random.Random(seed)
    for v in range(vertices):
        for t in rng.sample(range(vertices), degree):
            if t != v:
                cluster.assert_fact("edge", (v, t))
    return cluster


@benchmark("async_overlap", group="cluster",
           quick=[{"nodes": n, "vertices": 36} for n in (2, 4)],
           full=[{"nodes": n, "vertices": 120} for n in (2, 4, 8)])
def async_overlap(case, nodes, vertices):
    """Same fixpoint, two schedulers: barrier rounds vs overlapped."""
    bsp = build_cluster(nodes, vertices, "bsp")
    started = perf_counter()
    bsp_report = bsp.run()
    bsp_elapsed = perf_counter() - started
    bsp_fixpoint = bsp.tuples("reach")

    overlapped = build_cluster(nodes, vertices, "async")
    for node in overlapped.nodes.values():
        case.watch(node.stats)
    with case.measure():
        async_report = overlapped.run()
    case.record(
        nodes=nodes,
        fixpoint_equal=overlapped.tuples("reach") == bsp_fixpoint,
        reach_facts=len(bsp_fixpoint),
        bsp_rounds=bsp_report.rounds,
        bsp_depth=bsp_report.depth,
        bsp_convergence=bsp_report.convergence_time,
        bsp_messages=bsp_report.messages,
        bsp_elapsed=bsp_elapsed,
        async_depth=async_report.depth,
        async_convergence=async_report.convergence_time,
        async_messages=async_report.messages,
        overlap_round_win=bsp_report.rounds - async_report.depth,
        overlap_clock_win=bsp_report.convergence_time
        - async_report.convergence_time,
    )
