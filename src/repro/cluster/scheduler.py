"""The unified execution runtime: one scheduler for every host.

The :class:`ExecutionRuntime` is the repo's only distributed driver —
one event loop over a *node protocol*.  Every node it drives hosts
workspaces, maintained by the one workspace loop: a Datalog shard
(:class:`~repro.cluster.node.ClusterNode`) is one workspace that ships
the derived facts it does not own, a principal host
(:class:`~repro.core.system.WorkspaceNode`) holds full principal
workspaces that export by ``predNode`` and import through the checked
pipeline, and the paper's ``predNode`` reconfiguration story — move the
computation, keep the program — holds across both.  Three hosts run
this one loop: :class:`~repro.cluster.runtime.Cluster` (every shard in
one process), :meth:`LBTrustSystem.run` (every workspace host in one
process, open network), and a :mod:`~repro.cluster.launch` worker —
one node per OS process, whose ``network`` and ``ledger`` are the
worker's link to its peers and to the coordinator's real
:class:`~repro.cluster.quiescence.TicketLedger`.  The schedule, the
causal stamps, the round cap and the description of a run
(:class:`RunReport`) are stated here and nowhere else; the node
protocol is the same for all three.

**The node protocol** (duck-typed):

``name``
    the node's network identity;
``bootstrap() -> int``
    run whatever local work is possible before any exchange (a shard
    commits its routed facts and activates its loaded rules; a principal
    host has nothing left, its workspaces committed at assert time);
    returns the number of new local facts;
``integrate(batches) -> int``
    absorb one delivery — a list of decoded
    :class:`~repro.net.transport.Batch` blocks (names, the decoded batch
    dictionary, validated slot arrays; ``batch.rows(interner)`` yields
    each block's ``(to, pred, id rows)``, the one way a host turns a
    batch into facts) — as **one** delta, commit it through the
    workspace's checked import entry, and return the number of facts
    accepted for processing;
``drain_outbox(sink) -> int``
    hand every pending outbound fact to the sink as **blocks** — one
    ``sink(dst, pred, id_rows, to="")`` call per predicate and link, in
    a deterministic order — clear the outbox, and return the number of
    rows handed over.  ``id_rows`` index the runtime registry's
    ``terms``, the one interner every node's database evaluates over
    (nothing is materialized between the join and the wire); ``to``
    names the destination principal.  The sink is
    :meth:`MessageBatcher.add <repro.net.batch.MessageBatcher.add>` bound
    to the node's name and the round stamp;
``quiesce()``
    (optional) called once when the runtime proves global quiescence —
    the hook where bounded-memory maintenance (e.g. generation-tagged
    dedup clears) is safe;
``integration_is_local``
    (optional, default False) set True when ``integrate`` can only ever
    create work in this node's own outbox (Datalog shards); the async
    scheduler then skips offering every other node a drain after a
    delivery here.  Workspace hosts leave it False: an import lands at
    whichever node hosts the destination principal;
``share() -> NodeReport``
    (optional) the node's *lifetime* counters — derivations, new facts,
    rows drained, rows taken in — and its current size.  The runtime
    reads it before and after a run and reports the difference as the
    node's :attr:`RunReport.per_node` row; a node without it has none.

**What the loop asks of its surroundings** (also duck-typed): of the
``network``, ``send`` (through the batcher), ``deliver_all`` /
``deliver_next`` / ``pending``, ``clock`` and ``total``; of the
``ledger``, ``issue`` (through the batcher) / ``retire_guarded`` (False:
no ticket accounts for the arrival) / ``overdrawn``, ``close_round`` /
``close_quiet``, ``quiet`` / ``quiescent`` / ``outstanding``,
``compact``, the ``rounds`` trail and ``convergence_clock``.

**Scheduling modes**:

* ``bsp`` — bulk-synchronous rounds: every node integrates, then all
  outboxes flush at a barrier, then all messages deliver.  Rounds are
  numbered globally; the :class:`~repro.cluster.quiescence.TicketLedger`
  closes one record per barrier.
* ``async`` — overlapped rounds: messages deliver one at a time in
  virtual-clock order and the receiving node re-enters semi-naive
  *immediately*, flushing its consequent deltas without waiting for any
  barrier.  Batches carry a **causal depth** stamp (1 + the deepest
  stamp the sender had integrated), so the ledger's per-sender round
  vectors stay exact under out-of-order delivery and the run can report
  how long its longest message chain was — the async analog of BSP's
  round count.

Both modes stop at the first point where nothing more can arrive — a
barrier that derived and sent nothing (``bsp``) or an empty network
(``async``) — whether or not tickets are outstanding; the round cap
stops only a run still working.  The run then ends in the verdict its
report carries: quiescent (zero tickets outstanding and no node holding
unflushed work, i.e. the distributed fixpoint is complete) or not, with
each transport fault named; the loop never raises for one, and a closed
host refuses a faulted run (:func:`refuse_faults`).  Union-of-node
state equals the single-node fixpoint whenever the run is quiescent and
the placement join-compatible — which
:func:`~repro.cluster.placement_check.check_join_compatibility`
verifies statically at ``load()``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Optional

from ..datalog.errors import ClusterError, NetworkError
from ..net.batch import DEFAULT_MAX_BATCH_BYTES, MessageBatcher
from ..net.transport import Batch, decode_batch_message
from .quiescence import TicketLedger

MODE_BSP = "bsp"
MODE_ASYNC = "async"

#: Valid scheduler modes, in documentation order.
SCHEDULER_MODES = (MODE_BSP, MODE_ASYNC)


@dataclass
class NodeReport:
    """One node's share: lifetime counters as the node's ``share()``
    returns it, per-run differences as a :attr:`RunReport.per_node` row.
    ``db_facts`` is a size, not a counter — always the current one."""

    name: str
    derivations: int = 0
    new_facts: int = 0
    sent_facts: int = 0
    received_facts: int = 0
    db_facts: int = 0


@dataclass
class RunReport:
    """Outcome of one run to quiescence.  :meth:`ExecutionRuntime.run`
    produces it; ``Cluster.run``, ``LBTrustSystem.run`` and
    :func:`~repro.cluster.launch.launch` return it.

    ``depth`` is the causal depth of the exchange — the length of the
    longest send→integrate→send chain.  ``rounds`` counts barrier
    rounds (closing confirm round included) in ``bsp`` mode and equals
    ``depth`` in ``async`` mode, since causal depth *is* the comparable
    round quantity under overlap (BSP's productive round count is its
    causal depth).  ``productive_rounds`` counts barrier rounds in which
    something was delivered in ``bsp`` mode, and delivery events (also
    exposed as ``events``) in ``async`` mode.

    ``delivered`` and ``rejected`` count imports, per **fact**, at nodes
    that import (workspace hosts; shards leave them 0): a fact whose
    import transaction committed, or one refused — a verification or
    authorization constraint failed, or the destination principal is
    unknown.  The runtime adds one ``rejected`` per **blob** it
    could not decode or route, whatever the blob claimed to carry.
    ``rejected_detail`` names each refusal ``(source, reason)``: the
    importing principal and the violated constraint, ``"<decode>"`` and
    the wire error, or the unknown node or principal.

    ``quiescent`` is the verdict: the ledger proved the fixpoint
    complete.  ``outstanding`` counts the tickets in flight when the run
    stopped.  ``faults`` names each transport fault ``(name, message)``
    as it happened: ``"decode"``, ``"unknown node"``, ``"unticketed"``
    (an arrival no ticket accounts for), ``"cap"`` (still working at
    ``max_rounds``) and ``"outstanding"``; a run without one is
    quiescent.

    ``per_node`` has one :class:`NodeReport` per node, in name order.
    ``relations`` (``owner → pred → facts``; owner ``""`` is a
    ``cluster`` job's distributed union) is filled only by the launcher,
    whose caller has no live node to read, and is not in :meth:`as_dict`.
    """

    mode: str = MODE_BSP
    rounds: int = 0
    productive_rounds: int = 0
    depth: int = 0
    events: int = 0
    messages: int = 0
    batched_facts: int = 0
    bytes: int = 0
    new_facts: int = 0
    delivered_facts: int = 0
    delivered: int = 0
    rejected: int = 0
    rejected_detail: list = field(default_factory=list)
    quiescent: bool = False
    outstanding: int = 0
    faults: list = field(default_factory=list)
    virtual_time: float = 0.0
    convergence_time: float = 0.0
    per_node: list = field(default_factory=list)
    relations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the constructor is also the wire decoder: JSON hands back the
        # rows as dicts and the details as lists
        self.per_node = [row if isinstance(row, NodeReport)
                         else NodeReport(**row) for row in self.per_node]
        self.rejected_detail = [tuple(item) for item in self.rejected_detail]
        self.faults = [tuple(item) for item in self.faults]

    #: Read-only alias of ``messages``, kept only while ``e2e_bench``
    #: reads it off :meth:`LBTrustSystem.run`'s report.
    batches = property(lambda self: self.messages)

    def max_node_derivations(self) -> int:
        return max((n.derivations for n in self.per_node), default=0)

    def as_dict(self) -> dict:
        """Every field but ``relations``, JSON-ready: what a launcher
        worker sends its coordinator.  ``RunReport(**d)`` rebuilds it."""
        out = asdict(self)
        del out["relations"]
        return out


class ExecutionRuntime:
    """Drives a set of protocol nodes to a distributed fixpoint.

    One receive path for every host: a transport fault is named in the
    run's report and the run goes on until nothing more can arrive, or
    to the round cap if it is still working there.
    """

    def __init__(self, nodes: dict, network, registry,
                 mode: str = MODE_BSP,
                 max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
                 ledger: Optional[TicketLedger] = None) -> None:
        if mode not in SCHEDULER_MODES:
            raise ClusterError(
                f"unknown scheduler mode {mode!r}; pick one of "
                f"{'/'.join(SCHEDULER_MODES)}")
        self.nodes = dict(nodes)
        self.network = network
        self.registry = registry
        self.mode = mode
        self.ledger = ledger if ledger is not None else TicketLedger()
        self.batcher = MessageBatcher(network, registry,
                                      max_bytes=max_batch_bytes,
                                      ledger=self.ledger)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, max_rounds: int = 500,
            report: Optional[RunReport] = None) -> RunReport:
        """Drive the nodes to quiescence and describe the run.  A host
        whose nodes tally imports passes the ``report`` they count
        into; everyone else gets a fresh one."""
        report = report if report is not None else RunReport()
        report.mode = self.mode
        shares_before = self._shares()
        messages_before = self.batcher.sent_messages
        items_before = self.batcher.sent_items
        bytes_before = self.network.total.bytes
        bootstrapped = sum(self.nodes[name].bootstrap()
                           for name in sorted(self.nodes))
        report.new_facts += bootstrapped
        if self.mode == MODE_ASYNC:
            self._run_async(report, max_rounds, bootstrapped)
        else:
            self._run_bsp(report, max_rounds, bootstrapped)
        report.outstanding = self.ledger.outstanding()
        if report.outstanding:
            report.faults.append(("outstanding", f"{self.mode} runtime "
                                  f"stopped with {report.outstanding} "
                                  f"ticket(s) outstanding"))
        report.quiescent = (self.ledger.quiescent()
                            and not self.network.pending())
        if report.quiescent:
            for name in sorted(self.nodes):
                quiesce = getattr(self.nodes[name], "quiesce", None)
                if quiesce is not None:
                    quiesce()
        # Quiescence is also the safe point to compact the ledger's
        # per-slot bookkeeping (kept: the rounds trail and totals).
        self.ledger.compact()
        report.messages = self.batcher.sent_messages - messages_before
        report.batched_facts = self.batcher.sent_items - items_before
        report.bytes = self.network.total.bytes - bytes_before
        report.virtual_time = self.network.clock
        for before, now in zip(shares_before, self._shares()):
            report.per_node.append(NodeReport(
                now.name,
                now.derivations - before.derivations,
                now.new_facts - before.new_facts,
                now.sent_facts - before.sent_facts,
                now.received_facts - before.received_facts,
                now.db_facts))
        return report

    def _shares(self) -> list:
        """Every reporting node's lifetime :class:`NodeReport`, by name."""
        return [self.nodes[name].share() for name in sorted(self.nodes)
                if hasattr(self.nodes[name], "share")]

    # ------------------------------------------------------------------
    # BSP: barrier rounds
    # ------------------------------------------------------------------

    def _run_bsp(self, report: RunReport, max_rounds: int,
                 bootstrapped: int) -> None:
        ledger = self.ledger
        rounds_before = len(ledger.rounds)
        round_number = rounds_before
        if self._flush_all(round_number):
            report.depth += 1
        ledger.close_round(round_number, bootstrapped, self.network.clock)

        rounds_run = 0
        # Stop after a barrier that derived and sent nothing, with the
        # queue empty (an open network's foreign messages, queued before
        # the run, never show in the ledger): nothing more can arrive.
        # A ticket still outstanding here is a lost or unreadable batch,
        # and the verdict names it; waiting longer cannot retire it.
        while not ledger.quiet() or self.network.pending():
            rounds_run += 1
            if rounds_run > max_rounds:
                report.faults.append(("cap", f"runtime did not quiesce "
                                      f"within {max_rounds} rounds"))
                break
            round_number += 1
            incoming: dict[str, list] = {}
            for src, dst, blob in self.network.deliver_all():
                batch = self._decode(report, src, dst, blob)
                if batch is not None:
                    incoming.setdefault(dst, []).append(batch)
            new_facts = 0
            delivered = 0
            for name in sorted(incoming):
                batches = incoming[name]
                delivered += sum(map(len, batches))
                new_facts += self.nodes[name].integrate(batches)
            report.new_facts += new_facts
            report.delivered_facts += delivered
            if incoming:
                report.productive_rounds += 1
            if self._flush_all(round_number):
                report.depth += 1
            ledger.close_round(round_number, new_facts, self.network.clock)
        report.rounds = len(ledger.rounds) - rounds_before
        report.convergence_time = ledger.convergence_clock()

    def _sink(self, name: str, round_stamp: int) -> Callable:
        """The block sink ``name``'s drain feeds: the batcher's ``add``
        bound to the sending node and the stamp its batches carry."""
        return partial(self.batcher.add, name, round_stamp=round_stamp)

    def _flush_all(self, round_stamp: int) -> int:
        """Drain every node's outbox and flush one barrier's batches."""
        before = self.batcher.sent_messages
        for name in sorted(self.nodes):
            self.nodes[name].drain_outbox(self._sink(name, round_stamp))
        self.batcher.flush(round_stamp)
        return self.batcher.sent_messages - before

    # ------------------------------------------------------------------
    # Async: overlapped rounds
    # ------------------------------------------------------------------

    def _run_async(self, report: RunReport, max_rounds: int,
                   bootstrapped: int) -> None:
        network = self.network
        ledger = self.ledger
        #: causal depth stamp each node's next outgoing batch will carry
        next_stamp = {name: 1 for name in self.nodes}
        productive_clock = network.clock if bootstrapped else 0.0
        for name in sorted(self.nodes):
            report.depth = max(report.depth, self._drain_one(name, 1))

        while True:
            # The cap is on what ``rounds`` reports — causal depth, the
            # stamp the deepest drain so far has sent — not on delivery
            # events: a run that never quiesces has unbounded depth, so
            # this still terminates it.
            if report.depth > max_rounds:
                report.faults.append(("cap", f"async runtime did not "
                                      f"quiesce within causal depth "
                                      f"{max_rounds}"))
                break
            delivered = network.deliver_next()
            if delivered is None:
                break
            report.events += 1
            src, dst, blob = delivered
            batch = self._decode(report, src, dst, blob)
            if batch is None:
                continue
            report.delivered_facts += len(batch)
            stamp = batch.stamp
            node = self.nodes[dst]
            # The heart of overlap: integrate *now*, re-entering the
            # node's semi-naive propagation, and ship its consequent
            # deltas immediately — no barrier, no waiting on peers.
            new_facts = node.integrate([batch])
            report.new_facts += new_facts
            if new_facts:
                productive_clock = network.clock
            next_stamp[dst] = max(next_stamp[dst], stamp + 1)
            # An integration may create work at nodes *other than* the
            # delivery target: a workspace import lands at the
            # destination principal's host, wherever the message was
            # routed (relay-style predNode placements).  Nodes whose
            # integration is strictly local (Datalog shards fill only
            # their own outbox) advertise it and skip the sweep.
            if getattr(node, "integration_is_local", False):
                targets = (dst,)
            else:
                targets = sorted(self.nodes)
            for name in targets:
                candidate = max(next_stamp[name], stamp + 1)
                flushed = self._drain_one(name, candidate)
                if flushed:
                    next_stamp[name] = candidate
                    productive_clock = network.clock
                    report.depth = max(report.depth, flushed)

        # One closing record: ledger.quiescent() holds after the run iff
        # nothing is outstanding.
        ledger.close_quiet(network.clock)
        report.rounds = report.depth
        report.productive_rounds = report.events
        report.convergence_time = productive_clock

    def _drain_one(self, name: str, stamp: int) -> int:
        """Flush one node's outbox under ``stamp``; returns the stamp if
        anything was sent, else 0."""
        if not self.nodes[name].drain_outbox(self._sink(name, stamp)):
            return 0
        self.batcher.flush(stamp)
        return stamp

    # ------------------------------------------------------------------
    # Shared receive path
    # ------------------------------------------------------------------

    def _decode(self, report: RunReport, src: str, dst: str,
                blob: bytes) -> Optional[Batch]:
        """Decode one wire blob for ``dst`` and retire its ticket; None for
        an undecodable blob (it retires nothing: which ticket it carried
        is unreadable), one no node takes, or an empty batch.  An arrival
        no ticket accounts for is still handed on: the importing host
        judges it."""
        try:
            batch = decode_batch_message(blob, self.registry)
        except NetworkError as exc:
            self._reject(report, "<decode>", str(exc), "decode",
                         f"undecodable delta batch: {exc}")
            return None
        if not self.ledger.retire_guarded(batch.stamp, sender=src):
            report.faults.append(
                ("unticketed", self.ledger.overdrawn(batch.stamp, sender=src)))
        if dst not in self.nodes:
            self._reject(report, dst, "unknown node", "unknown node",
                         f"delivery to unknown node {dst!r}")
            return None
        return batch if batch.blocks else None

    @staticmethod
    def _reject(report: RunReport, source: str, reason: str,
                fault: str, message: str) -> None:
        """A blob no node can take: a ``rejected`` one and a fault."""
        report.rejected += 1
        report.rejected_detail.append((source, reason))
        report.faults.append((fault, message))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionRuntime(mode={self.mode!r}, "
                f"nodes={sorted(self.nodes)})")


def refuse_faults(report: RunReport) -> RunReport:
    """The report of a run with no transport fault, else a
    :class:`ClusterError` with the first fault's message: what a closed
    host (``Cluster.run``, a launcher worker) makes of its run."""
    if report.faults:
        raise ClusterError(report.faults[0][1])
    return report
