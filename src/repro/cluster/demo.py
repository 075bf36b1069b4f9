"""``repro cluster`` — run a sharded evaluation demo and print the report.

Distributed transitive closure over a seeded random graph: ``edge``
hash-partitioned by source, ``reach`` by destination (co-locating the
recursive join — a placement the static join-compatibility checker
verifies at load), batched delta exchange, ticket-counted quiescence.
``--mode async`` swaps the BSP barrier for the overlapped scheduler:
every node re-enters semi-naive the moment a delta batch arrives.

``--transport socket`` runs the same exchange over real TCP instead of
the virtual clock — in-process loopback by default, or one **OS process
per node** with ``--procs N`` (the :mod:`repro.cluster.launch`
coordinator: the spec as spawn arguments, control messages over one
pipe per worker, peer-to-peer delta batches, ledger-proved
quiescence).  Prints placement, per-node load, traffic and convergence
figures — the distribution story of paper section 3.5, actually
executed, and actually deployed when asked.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional, TextIO

from ..datalog.errors import ReproError
from ..net.batch import DEFAULT_MAX_BATCH_BYTES
from ..net.network import SimulatedNetwork
from ..net.socket_transport import SocketNetwork
from .launch import cluster_spec, launch
from .partition import Partitioner
from .runtime import Cluster

PROGRAM = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

#: The demo placement, stated once: ``edge`` sharded by source, ``reach``
#: by destination (co-locating the recursive join).  The same ops build
#: the in-process partitioner and the multiprocess launcher spec.
PLACEMENT_OPS = [["hash", "edge", 0], ["hash", "reach", 1]]


def _build_partitioner(names) -> Partitioner:
    partitioner = Partitioner(names)
    for _op, pred, column in PLACEMENT_OPS:
        partitioner.hash_partition(pred, column=column)
    return partitioner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Sharded multi-node evaluation demo (distributed "
                    "reachability with batched delta exchange)",
    )
    parser.add_argument("--nodes", type=int, default=4,
                        help="cluster size (default 4)")
    parser.add_argument("--mode", choices=["bsp", "async"], default="bsp",
                        help="scheduling: bsp barrier rounds, or async "
                             "overlapped rounds (default bsp)")
    parser.add_argument("--transport", choices=["simulated", "socket"],
                        default="simulated",
                        help="simulated: virtual clock + modeled latency; "
                             "socket: real TCP frames, wall clock "
                             "(default simulated)")
    parser.add_argument("--procs", type=int, default=0,
                        help="with --transport socket: run N worker "
                             "processes, one OS process per node "
                             "(overrides --nodes; 0 = in-process)")
    parser.add_argument("--vertices", type=int, default=60,
                        help="graph vertices (default 60)")
    parser.add_argument("--degree", type=int, default=2,
                        help="out-degree per vertex (default 2)")
    parser.add_argument("--seed", type=int, default=7,
                        help="graph RNG seed (default 7)")
    parser.add_argument("--latency", type=float, default=1.0,
                        help="per-link latency on the virtual clock "
                             "(simulated transport only)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="socket transport: per-step control timeout "
                             "in seconds (default 60)")
    parser.add_argument("--max-batch-bytes", type=int,
                        default=DEFAULT_MAX_BATCH_BYTES,
                        help="size cap per delta batch message")
    return parser


def _graph_edges(args) -> list:
    rng = random.Random(args.seed)
    edges = []
    for v in range(args.vertices):
        for t in rng.sample(range(args.vertices),
                            min(args.degree, args.vertices)):
            if t != v:
                edges.append((v, t))
    return edges


def main(argv: Optional[list] = None, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    def emit(line: str = "") -> None:
        print(line, file=out)

    if args.procs and args.transport != "socket":
        emit("error: --procs requires --transport socket")
        return 2
    if args.procs:
        args.nodes = args.procs
    if args.nodes < 1 or args.vertices < 2 or args.degree < 1:
        emit("error: need --nodes >= 1, --vertices >= 2, --degree >= 1")
        return 2
    if not args.timeout > 0:
        emit("error: need --timeout > 0")
        return 2

    names = [f"node{i}" for i in range(args.nodes)]
    edges = _graph_edges(args)
    hosts = (f"{args.procs} worker process(es)" if args.procs
             else f"{args.nodes} node(s)")
    emit(f"cluster: {hosts}, {args.mode} scheduling, "
         f"{args.transport} transport, "
         f"graph: {args.vertices} vertices / {len(edges)} edges "
         f"(seed {args.seed})")
    emit("placement:")
    for pred, rule in sorted(_build_partitioner(names).describe().items()):
        detail = ", ".join(f"{k}={v}" for k, v in sorted(rule.items()))
        emit(f"  {pred:8s} {detail}")

    try:
        run = _run_multiprocess if args.procs else _run_in_process
        report, reach = run(args, names, edges)
    except ReproError as exc:
        emit(f"error: {exc}")
        return 1

    emit()
    emit(f"{'node':10s} {'facts':>6s} {'derived':>8s} "
         f"{'sent':>6s} {'recv':>6s}")
    for row in report.per_node:
        emit(f"{row.name:10s} {row.db_facts:6d} {row.derivations:8d} "
             f"{row.sent_facts:6d} {row.received_facts:6d}")

    emit()
    emit(f"fixpoint: {len(reach)} reach facts in "
         f"{report.rounds} rounds (causal depth {report.depth})")
    emit(f"traffic: {report.messages} batch message(s) carrying "
         f"{report.batched_facts} facts, {report.bytes} bytes")
    kind, unit = (("wall", "s") if args.transport == "socket"
                  else ("virtual", ""))
    emit(f"converged at {kind} time {report.convergence_time:.2f}{unit} "
         f"(clock {report.virtual_time:.2f}{unit})")
    return 0


def _run_in_process(args, names, edges) -> tuple:
    """Every shard in this process; ``(report, reach facts)``."""
    if args.transport == "socket":
        network = SocketNetwork(delivery_timeout=args.timeout)
    else:
        network = SimulatedNetwork(default_latency=args.latency)
    try:
        cluster = Cluster(names, network=network,
                          partitioner=_build_partitioner(names),
                          max_batch_bytes=args.max_batch_bytes, mode=args.mode)
        cluster.load(PROGRAM)
        for edge in edges:
            cluster.assert_fact("edge", edge)
        return cluster.run(), cluster.tuples("reach")
    finally:
        if args.transport == "socket":
            network.close()


def _run_multiprocess(args, names, edges) -> tuple:
    """One OS process per shard; ``(report, reach facts)``."""
    spec = cluster_spec(names, placement=PLACEMENT_OPS, program=PROGRAM,
                        facts=[("edge", edge) for edge in edges],
                        collect=["reach"])
    report = launch(spec, mode=args.mode, timeout=args.timeout,
                    max_batch_bytes=args.max_batch_bytes)
    return report, report.relations[""]["reach"]
