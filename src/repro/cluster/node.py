"""One shard of a distributed evaluation: local engine + delta outbox.

A :class:`ClusterNode` owns its shard of every partitioned EDB relation
and runs ordinary semi-naive rounds over the *whole* rule program.  The
distribution boundary is the engine's per-round delta-exchange hook
(:attr:`repro.datalog.runtime.EvalContext.remote_emit_rows`): each
freshly derived *id-row* set is partitioned by owner before assertion —

* facts this node owns (or local-mode predicates) join the local delta
  frontier exactly as on a single node;
* facts owned elsewhere are **emitted, not asserted**: they go to the
  owner's outbox entry and leave no trace in the local database, so the
  local fixpoint never branches on another shard's state;
* replicated-predicate facts are both kept and queued to every peer.

Ownership is decided in id space: the partition key is a single column,
so ``(pred, key id)`` → owner is memoized against the append-only
interner every shard of the process shares with the batcher (the cluster
registry's ``terms``).  A row bound for a peer **stays an id row**: the
outbox and the resend-dedup markers hold id rows (ids are stable, so a
marker is as good as the fact), ``drain_outbox`` hands each ``(dst,
pred)`` block to the batcher, which packs the rows as uint32 dictionary
slots behind a small JSON header (the packed envelope of
:mod:`repro.net.transport`) — nothing is materialized on the way out.

On the way in, :meth:`ClusterNode.integrate` reads each received batch
through :meth:`~repro.net.transport.Batch.rows` — the dictionary
interned **once**, each block's slot array mapped straight to id rows,
no Python per row — which :meth:`Relation.add_rows` merges; the
genuinely novel rows are, as they are, the delta :func:`~repro.datalog.engine.propagate_insertions`
takes (the decoder has checked every slot against the dictionary it
arrived with).  All batches of one delivery form one delta and one
propagation.

The node speaks the :class:`~repro.cluster.scheduler.ExecutionRuntime`
protocol (``bootstrap`` / ``integrate`` / ``drain_outbox`` /
``quiesce`` / ``share``), so the same scheduler that drives principal
workspaces drives Datalog shards — one execution model, two node kinds.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..datalog.builtins import BuiltinRegistry, standard_registry
from ..datalog.database import Database, TermInterner
from ..datalog.engine import (
    EngineRule,
    FactSet,
    eval_stratum,
    propagate_insertions,
)
from ..datalog.runtime import EvalContext
from ..datalog.stratify import stratify
from ..datalog.errors import ClusterError
from ..net.transport import Batch
from .partition import MODE_LOCAL, MODE_REPLICATED, Partitioner
from .scheduler import NodeReport


class ClusterNode:
    """A named shard: local database, rules, stats, and a delta outbox."""

    #: integrate() only ever fills *this* node's outbox, so the async
    #: scheduler need not offer other nodes a drain after a delivery
    #: here (unlike workspace hosts, whose imports land at whichever
    #: node hosts the destination principal).
    integration_is_local = True

    def __init__(self, name: str, partitioner: Partitioner,
                 terms: TermInterner,
                 builtins: Optional[BuiltinRegistry] = None) -> None:
        self.name = name
        self.partitioner = partitioner
        self.db = Database(terms)
        #: asserted + received id rows, the node's EDB accessor for
        #: selective stratum recomputation
        self.base: FactSet = {}
        self.rules: list[EngineRule] = []
        self.strata: list = []
        #: id rows awaiting exchange: destination -> pred -> set
        self.outbox: dict[str, dict[str, set]] = {}
        #: id rows already queued, same shape as the outbox — a
        #: re-derived remote fact must not be resent every round its body
        #: delta rematches.  The whole table belongs to one *generation*
        #: (``sent_generation``): :meth:`quiesce` clears it and opens the
        #: next generation once the runtime proves global convergence
        #: (every queued fact has been delivered and asserted at its
        #: owner by then, so a later re-derivation resends at most once
        #: and is deduplicated on arrival), keeping long-running
        #: clusters' memory bounded by one run's traffic instead of
        #: growing forever.
        self._sent: dict[str, dict[str, set]] = {}
        self.sent_generation = 0
        self.sent_facts = 0
        self.received_facts = 0
        self._peers = tuple(n for n in partitioner.nodes if n != name)
        #: pred -> key id -> owner node.  Ids are stable (the interner is
        #: append-only), so a key's placement is computed once per node.
        self._owner_memo: dict[str, dict[int, str]] = {}
        # A single-node cluster owns every fact, so the delta-exchange
        # hook would be an identity function paid once per derived row;
        # leave it uninstalled and the engine stays on the plain
        # single-node id-space path.
        self.context = EvalContext(
            builtins=builtins if builtins is not None else standard_registry(),
            remote_emit_rows=self._emit_rows if self._peers else None,
        )
        self.stats = self.context.stats

    # ------------------------------------------------------------------
    # Program / EDB loading
    # ------------------------------------------------------------------

    def load_rules(self, rules: Iterable[EngineRule]) -> None:
        self.rules.extend(rules)
        self.strata = stratify(self.rules)

    def seed(self, pred: str, fact: tuple) -> bool:
        """Install one EDB fact on this shard (placement already decided)."""
        row = self.db.interner.intern_row(fact)
        if self.db.rel(pred).add_row(row):
            self.base.setdefault(pred, set()).add(row)
            return True
        return False

    # ------------------------------------------------------------------
    # The delta-exchange hook
    # ------------------------------------------------------------------

    def _emit_rows(self, pred: str, rows: set) -> set:
        """Partition freshly derived id rows by owner; return the local
        keep.  Rows bound for a peer are queued as they are."""
        mode = self.partitioner.mode(pred)
        if mode == MODE_LOCAL:
            return rows
        if mode == MODE_REPLICATED:
            for peer in self._peers:
                self._queue(peer, pred, rows)
            return rows
        key_col = self.partitioner.key_column(pred)
        owner_of_key = self.partitioner.owner_of_key
        values = self.db.interner.values
        memo = self._owner_memo.setdefault(pred, {})
        name = self.name
        keep = set()
        remote: dict[str, set] = {}
        for row in rows:
            try:
                key = row[key_col]
            except IndexError:
                raise ClusterError(
                    f"fact {tuple(values[i] for i in row)!r} of "
                    f"{pred!r} has no column {key_col} to partition on"
                ) from None
            owner = memo.get(key)
            if owner is None:
                owner = memo[key] = owner_of_key(pred, values[key])
            if owner == name:
                keep.add(row)
            else:
                bound = remote.get(owner)
                if bound is None:
                    bound = remote[owner] = set()
                bound.add(row)
        for owner, bound in remote.items():
            self._queue(owner, pred, bound)
        return keep

    def _queue(self, dst: str, pred: str, rows: set) -> None:
        """Queue the rows of ``pred`` not yet sent to ``dst`` this
        generation (one set difference, no per-row marker)."""
        sent = self._sent.setdefault(dst, {}).setdefault(pred, set())
        fresh = rows - sent
        if fresh:
            sent |= fresh
            self.outbox.setdefault(dst, {}).setdefault(pred, set()) \
                .update(fresh)

    # ------------------------------------------------------------------
    # The ExecutionRuntime node protocol
    # ------------------------------------------------------------------

    def bootstrap(self) -> int:
        """Run the full local fixpoint over the seeded shard."""
        new_facts = 0
        for stratum in self.strata:
            added = eval_stratum(stratum, self.db, self.context)
            new_facts += sum(len(rows) for rows in added.values())
        return new_facts

    def integrate(self, batches: Iterable[Batch]) -> int:
        """Absorb one delivery's batches; returns new local facts.

        Each batch becomes id rows through :meth:`Batch.rows` (``to`` is
        principal routing, unused by plain shards).  All batches form
        **one** delta: the novel rows are asserted, recorded as received
        EDB, and pushed through the strata semi-naive in a single
        propagation — re-entering ``_emit_rows`` for any further
        derivations they enable.
        """
        interner = self.db.interner
        incoming: dict[str, set] = {}
        for batch in batches:
            for _to, pred, rows in batch.rows(interner):
                incoming.setdefault(pred, set()).update(rows)
        fresh: FactSet = {}
        count = 0
        for pred, rows in incoming.items():
            novel = self.db.rel(pred).add_rows(rows)
            if novel:
                fresh[pred] = novel
                self.base.setdefault(pred, set()).update(novel)
                count += len(novel)
        self.received_facts += count
        if fresh:
            added = propagate_insertions(
                self.strata, self.db, self.context, fresh,
                edb_facts=self._edb_facts)
            count += sum(len(rows) for rows in added.values())
        return count

    def drain_outbox(self, sink: Callable) -> int:
        """Hand the sink one block per ``(dst, pred)`` —
        ``sink(dst, pred, id_rows)`` — and clear the outbox.  Blocks and
        their rows go out in sorted (id) order."""
        drained = 0
        for dst in sorted(self.outbox):
            per_pred = self.outbox[dst]
            for pred in sorted(per_pred):
                rows = sorted(per_pred[pred])
                sink(dst, pred, rows)
                drained += len(rows)
        self.outbox = {}
        self.sent_facts += drained
        return drained

    def quiesce(self) -> None:
        """Global quiescence reached: open a new dedup generation.

        Every row in ``_sent`` describes a fact that has been delivered
        and asserted at its owner, so the markers are only protecting
        against *redundant* resends, not correctness — and a redundant
        resend is deduplicated by the owner's ``Relation.add_rows``.
        Clearing here bounds the table's memory by one run's traffic; the
        evicted count is observable as
        :attr:`EvalStats.sent_dedup_evictions`.
        """
        self.stats.sent_dedup_evictions += sum(
            len(rows) for per_pred in self._sent.values()
            for rows in per_pred.values())
        self._sent = {}
        self.sent_generation += 1

    def share(self) -> NodeReport:
        """Lifetime counters and current size; the runtime reports the
        difference across a run."""
        return NodeReport(self.name, self.stats.derivations,
                          self.stats.new_facts, self.sent_facts,
                          self.received_facts, self.db.total_facts())

    # ------------------------------------------------------------------

    def _edb_facts(self, pred: str) -> set:
        return self.base.get(pred, set())

    def tuples(self, pred: str) -> set:
        return set(self.db.tuples(pred))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterNode({self.name!r}, {self.db.total_facts()} facts, "
                f"{len(self.rules)} rules)")
