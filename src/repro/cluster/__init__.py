"""Sharded multi-node evaluation — simulated, socket, or multiprocess.

The paper *represents* distribution (``predNode`` placement, section
3.5); this package *executes* it: hash/range-partitioned EDB shards,
per-node semi-naive evaluation with an engine-level delta-exchange
hook, batched delta messages, and ticket-counted distributed
quiescence.  The :mod:`~repro.cluster.scheduler` module is the unified
:class:`ExecutionRuntime` that drives both Datalog shards and principal
workspaces in ``bsp`` or ``async`` (overlapped) mode; the
:mod:`~repro.cluster.placement_check` module statically verifies that a
program's joins are co-located under the placement.  Every runtime runs
over either network transport (virtual-clock
:class:`~repro.net.network.SimulatedNetwork` or TCP
:class:`~repro.net.socket_transport.SocketNetwork`), and the
:mod:`~repro.cluster.launch` module deploys one OS process per node.
See :mod:`repro.cluster.scheduler` for the full protocol.
"""

from .launch import cluster_spec, launch, spec_nodes, system_spec
from .node import ClusterNode
from .partition import (
    MODE_LOCAL,
    MODE_PARTITIONED,
    MODE_REPLICATED,
    Partitioner,
    stable_hash,
)
from .placement_check import (
    PlacementIssue,
    analyze_join_compatibility,
    check_join_compatibility,
)
from .quiescence import RoundRecord, TicketLedger
from .runtime import Cluster
from .scheduler import (
    MODE_ASYNC,
    MODE_BSP,
    SCHEDULER_MODES,
    ExecutionRuntime,
    NodeReport,
    RunReport,
)

__all__ = [
    "Cluster",
    "ClusterNode",
    "ExecutionRuntime",
    "MODE_ASYNC",
    "MODE_BSP",
    "MODE_LOCAL",
    "MODE_PARTITIONED",
    "MODE_REPLICATED",
    "NodeReport",
    "Partitioner",
    "PlacementIssue",
    "RoundRecord",
    "RunReport",
    "SCHEDULER_MODES",
    "TicketLedger",
    "analyze_join_compatibility",
    "check_join_compatibility",
    "cluster_spec",
    "launch",
    "spec_nodes",
    "stable_hash",
    "system_spec",
]
