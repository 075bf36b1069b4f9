"""One shard of a distributed evaluation: a workspace plus an outbox.

A :class:`ClusterNode` is a :class:`~repro.workspace.workspace.Workspace`
whose derived facts may live elsewhere.  What it adds is the hook its
evaluation context carries (``EvalContext.remote_emit_rows``): each
freshly derived id-row set is split by owner before assertion, and the
rows a peer owns are queued for it instead of kept (replicated rows are
both).  The :class:`Outbox` and its resend-dedup markers hold id rows;
a principal ships through one too, fed by its commits.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..datalog.builtins import BuiltinRegistry
from ..datalog.terms import Rule
from ..meta.model import ACTIVE_PRED
from ..meta.registry import RuleRegistry
from ..net.transport import Batch
from ..workspace.workspace import Workspace
from .partition import MODE_LOCAL, MODE_REPLICATED, Partitioner
from .scheduler import NodeReport


class Outbox:
    """Id rows awaiting exchange, ``(node, to) -> pred -> set`` (``to``
    names the principal a block is for, "" at a shard; a row at no node
    waits, undrained), and the rows queued since their recipient (``to``,
    else the node) was last forgotten (``sent``, ``recipient -> pred ->
    set``), which are not queued again."""

    def __init__(self) -> None:
        self.queue: dict = {}
        self.sent: dict = {}

    def put(self, node: Optional[str], pred: str, rows: set, to: str = "") -> None:
        """Queue for ``to`` at ``node`` the ``rows`` of ``pred`` not
        marked for their recipient, and mark them."""
        sent = self.sent.setdefault(to or node, {}).setdefault(pred, set())
        fresh = rows - sent
        if fresh:
            sent |= fresh
            self.queue.setdefault((node, to), {}).setdefault(pred, set()) \
                .update(fresh)

    def discard(self, pred: str, rows: set) -> None:
        """Unqueue ``rows`` of ``pred`` and drop their markers: what
        never shipped may be queued again."""
        for (node, to), per_pred in self.queue.items():
            if pred in per_pred:
                gone = per_pred[pred] & rows
                per_pred[pred] -= gone
                self.sent[to or node][pred] -= gone

    def drain(self, sink: Callable) -> int:
        """``sink(node, pred, id_rows, to=to)`` per block with a node,
        sorted by node, principal, predicate and row, and unqueue it."""
        drained = 0
        for node, to in sorted(dst for dst in self.queue if dst[0] is not None):
            for pred, rows in sorted(self.queue.pop((node, to)).items()):
                if rows:
                    sink(node, pred, sorted(rows), to=to)
                    drained += len(rows)
        return drained

    def forget(self) -> int:
        """Drop the queue and every marker; returns how many markers went."""
        dropped = sum(len(rows) for per_pred in self.sent.values()
                      for rows in per_pred.values())
        self.queue, self.sent = {}, {}
        return dropped


class ClusterNode:
    """A named shard: a workspace and an outbox."""

    #: integrate() fills no other node's outbox (see the scheduler)
    integration_is_local = True

    def __init__(self, name: str, partitioner: Partitioner,
                 registry: RuleRegistry,
                 builtins: Optional[BuiltinRegistry] = None) -> None:
        self.name = name
        self.partitioner = partitioner
        self.workspace = Workspace(name, registry=registry, builtins=builtins)
        self.db = self.workspace.db
        self.stats = self.workspace.stats
        #: what awaits exchange, deduplicated within a generation (a
        #: re-derived remote row is not resent)
        self._outbox = Outbox()
        self.sent_generation = 0
        self.sent_facts = 0
        self.received_facts = 0
        self._peers = tuple(n for n in partitioner.nodes if n != name)
        self._owner_memo: dict[str, dict[int, str]] = {}
        #: routed EDB rows and loaded rules, committed by :meth:`bootstrap`
        self._staged: dict[str, set] = {}
        self._rules: list[Rule] = []
        if self._peers:   # a lone node owns every row: no per-row toll
            self.workspace.context.remote_emit_rows = self._emit_rows

    def load(self, rules: Iterable[Rule]) -> None:
        self._rules.extend(rules)

    def seed(self, pred: str, fact: tuple) -> None:
        self._staged.setdefault(pred, set()).add(
            self.db.interner.intern_row(fact))

    def _emit_rows(self, pred: str, rows: set) -> set:
        """Queue the rows of ``pred`` a peer owns; return those kept."""
        mode = self.partitioner.mode(pred)
        if mode == MODE_LOCAL:
            return rows
        put = self._outbox.put
        if mode == MODE_REPLICATED:
            for peer in self._peers:
                put(peer, pred, rows)
            return rows
        by_owner = self.partitioner.split_rows(
            pred, rows, self.db.interner.values,
            self._owner_memo.setdefault(pred, {}))
        keep = by_owner.pop(self.name, set())
        for owner, bound in by_owner.items():
            put(owner, pred, bound)
        return keep

    #: read-only views of the outbox's queue and dedup markers
    outbox = property(lambda self: self._outbox.queue)
    _sent = property(lambda self: self._outbox.sent)

    def bootstrap(self) -> int:
        """Commit the staged facts, then activate the staged rules (one
        full application each, then semi-naive rounds); returns the new
        local facts derived."""
        workspace, before = self.workspace, self.stats.new_facts
        staged, self._staged = self._staged, {}
        if staged:
            with workspace.transaction():
                for pred, rows in staged.items():
                    workspace.assert_rows(pred, rows)
        rules, self._rules = self._rules, []
        if rules:
            with self.stats.capture_indexes(), workspace.transaction():
                for rule in rules:
                    workspace.add_rule(rule)
        return self.stats.new_facts - before

    def integrate(self, batches: Iterable[Batch]) -> int:
        """Commit one delivery as one transaction; returns the rows new
        here, received and derived."""
        incoming: dict[str, set] = {}
        for batch in batches:
            for _to, pred, rows in batch.rows(self.db.interner):
                incoming.setdefault(pred, set()).update(rows)
        workspace, before = self.workspace, self.stats.new_facts
        received = 0
        with workspace.transaction():
            for pred, rows in incoming.items():
                received += workspace.assert_rows(pred, rows)
        self.received_facts += received
        return received + self.stats.new_facts - before

    def drain_outbox(self, sink: Callable) -> int:
        """``sink(dst, pred, id_rows, to="")`` per block, sorted; clears it."""
        drained = self._outbox.drain(sink)
        self.sent_facts += drained
        return drained

    def quiesce(self) -> None:
        """Every queued row is asserted at its owner by now: clear the
        dedup markers (``sent_dedup_evictions``), opening a generation."""
        self.stats.sent_dedup_evictions += self._outbox.forget()
        self.sent_generation += 1

    def share(self) -> NodeReport:
        """Lifetime counters; the size leaves out the ``active`` rows."""
        active = self.db.get(ACTIVE_PRED)
        return NodeReport(self.name, self.stats.derivations,
                          self.stats.new_facts, self.sent_facts,
                          self.received_facts,
                          self.db.total_facts() - len(active or ()))

    def tuples(self, pred: str) -> set:
        return set(self.db.tuples(pred))
