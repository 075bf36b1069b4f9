"""The multi-principal LBTrust runtime.

Ties every substrate together: a shared rule registry (whose term
interner is the system's one id space), one workspace per principal, the
simulated network, key provisioning, and the global fixpoint loop.  A
join, in which each other workspace learns where the newcomer is
(``node``, ``prin``, ``loc``) and the key rows the scheme gives that
holder about it, and a scheme swap are each one system transaction.

1. each principal's workspace runs its local fixpoint (this happens
   eagerly inside its transactions);
2. each principal's commits queue the facts of keyed predicates for the
   other principal each one names, at the node the sender's ``predNode``
   relation (paper section 3.5's ld1/ld2 rules, verbatim) names for its
   key, and each physical node's :class:`WorkspaceNode` drains them as
   id rows over the system's one interner, the block form of every host;
3. messages are serialized, sent through the network (FIFO + latency),
   and imported at the destination in a transaction — where the scheme's
   verification constraint (exp3) and any authorization meta-constraints
   either accept them (activating said rules, via says1) or reject the
   import, which is rolled back and audited;
4. repeat until the ticket ledger proves quiescence.

Steps 2–4 are the cluster's
:class:`~repro.cluster.scheduler.ExecutionRuntime` — the same scheduler
that drives Datalog shards — in ``bsp`` (barrier rounds, the default) or
``async`` (overlapped: each arrival imports and re-exports immediately)
mode, and it describes the run in the same
:class:`~repro.cluster.scheduler.RunReport`.

Usage::

    system = LBTrustSystem(auth="rsa")
    alice, bob = system.create_principal("alice"), system.create_principal("bob")
    bob.load('access(P,O,"read") <- good(P), object(O).')
    alice.says(bob, 'good("carol").')
    system.run()
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterable, Optional

from ..cluster.scheduler import (MODE_BSP, ExecutionRuntime, NodeReport,
                                 RunReport)
from ..crypto.datalog_builtins import register_crypto_builtins
from ..datalog.builtins import standard_registry
from ..datalog.database import Journal
from ..datalog.errors import (ActivationLimitError, BuiltinError,
                              ConstraintViolation, CryptoError, SafetyError,
                              StratificationError, WorkspaceError)
from ..meta.registry import RuleRegistry
from ..net.batch import DEFAULT_MAX_BATCH_BYTES
from ..net.network import SimulatedNetwork
from ..workspace.workspace import AuditEvent, Transaction
from .authorization import install_says_authorization
from .delegation import install_delegation, install_depth_restriction
from .principal import Principal
from .says import install_says_machinery
from .schemes import SchemeDef, scheme

#: The paper's placement rules (section 5.2 listing ld1/ld2).
PLACEMENT_RULES = """
ld1: loc(P,N) -> prin(P), node(N).
ld2: predNode(export[P],N) <- loc(P,N).
"""


class WorkspaceNode:
    """Every principal co-located on one physical network node, presented
    to the :class:`~repro.cluster.scheduler.ExecutionRuntime` as a single
    protocol node.

    Like a Datalog shard (:class:`~repro.cluster.node.ClusterNode`, one
    workspace that ships what it does not own), it hosts workspaces that
    ship through an :class:`~repro.cluster.node.Outbox`; what differs is
    what feeds it and how facts come in.  A principal's commits feed its
    own, at the node its ``predNode`` table names (paper section 3.5 —
    the ``loc`` table, not the scheduler, decides where facts go), and
    integration runs the full import pipeline — scheme verification
    constraints, authorization meta-constraints, audited rollback —
    inside each principal's transaction.
    ``says``-attribution therefore survives the exchange path unchanged:
    what travels are the same ``export`` facts, whatever the scheduling
    mode.
    """

    def __init__(self, system: "LBTrustSystem", name: str,
                 principals: Iterable[Principal],
                 report: RunReport) -> None:
        self.system = system
        self.name = name
        self.principals = list(principals)
        #: the run's report: imports tally ``delivered`` / ``rejected``
        #: into it as they commit or are refused
        self.report = report
        self.new_facts = 0
        self.sent_facts = 0
        self.received_facts = 0

    def bootstrap(self) -> int:
        """Workspaces fixpoint eagerly inside their transactions; nothing
        to do before the first exchange."""
        return 0

    def drain_outbox(self, sink) -> int:
        """Ship what the hosted principals' commits queued at a node: one
        ``sink(node, pred, id_rows, to=principal)`` call per block."""
        drained = sum(principal.outbox.drain(sink)
                      for principal in self.principals)
        self.sent_facts += drained
        return drained

    def integrate(self, batches: list) -> int:
        """Import one delivery's facts at their destination principals.

        The id rows of :meth:`Batch.rows` are grouped by destination.
        Returns the number of facts handed to import transactions (the
        quiescence protocol's activity measure); acceptance/rejection
        accounting lands on the run's report.
        """
        delivered_before = self.report.delivered
        interner = self.system.registry.terms
        grouped: dict[str, list] = {}
        for batch in batches:
            for to, pred, rows in batch.rows(interner):
                grouped.setdefault(to, []).append((pred, list(rows)))
        for to, blocks in grouped.items():
            principal = self.system.principals.get(to)
            if principal is None:
                refused = sum(len(rows) for _, rows in blocks)
                self.report.rejected += refused
                self.report.rejected_detail.extend(
                    [(to, "unknown principal")] * refused)
                continue
            self.system._import_batch(principal, blocks, self.report)
        self.new_facts += self.report.delivered - delivered_before
        received = sum(map(len, batches))
        self.received_facts += received
        return received

    def share(self) -> NodeReport:
        """What this host shipped, took in and imported, and what its
        principals' workspaces derived and hold."""
        workspaces = [p.workspace for p in self.principals]
        return NodeReport(
            self.name, sum(w.stats.derivations for w in workspaces),
            self.new_facts, self.sent_facts, self.received_facts,
            sum(w.db.total_facts() for w in workspaces))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkspaceNode({self.name!r}, "
                f"{[p.name for p in self.principals]})")


class LBTrustSystem:
    """A set of principals, their network, and the global run loop."""

    def __init__(self, auth: str = "rsa", rsa_bits: int = 1024,
                 seed: Optional[int] = 7,
                 network: Optional[SimulatedNetwork] = None,
                 enable_provenance: bool = False,
                 authorization: bool = False,
                 delegation: bool = False,
                 max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
                 mode: str = MODE_BSP) -> None:
        self.registry = RuleRegistry()
        #: the one builtins registry every principal's workspace shares
        #: (the crypto builtins find a principal's keys through the
        #: workspace they run in), so an image checked or compiled for
        #: one principal serves the next
        self.builtins = standard_registry().child()
        register_crypto_builtins(self.builtins)
        self.network = network if network is not None else SimulatedNetwork()
        self.max_batch_bytes = max_batch_bytes
        self.principals: dict[str, Principal] = {}
        self.rsa_bits = rsa_bits
        self.rsa_keys: dict = {}
        self.shared_secrets: dict[str, bytes] = {}
        self.rng = random.Random(seed)
        self.enable_provenance = enable_provenance
        self.authorization = authorization
        self.delegation = delegation
        self.auth_name = auth
        self.mode = mode
        self._scheme: SchemeDef = scheme(auth)
        #: the undo log of what a system transaction changes outside the
        #: workspaces: ``principals``, the scheme, scheme bookkeeping
        self.journal = Journal()

    @contextmanager
    def transaction(self):
        """One transaction over every principal's workspace (one
        :class:`~repro.workspace.workspace.Transaction`) and the system
        state :attr:`journal` logs: the body's writes commit everywhere,
        or, if anything raises, nowhere.  A principal registered in the
        body is not a member: its workspace commits on its own."""
        self.journal.begin()
        try:
            with Transaction([principal.workspace
                              for principal in self.principals.values()]):
                yield self
        except BaseException:
            self.journal.rollback()
            raise
        self.journal.commit()

    def _assign(self, holder, **values) -> None:
        """Set attributes of ``holder``, logging their old values."""
        self.journal.log(vars(holder).update,
                         {name: getattr(holder, name) for name in values})
        vars(holder).update(values)

    # ------------------------------------------------------------------
    # Principals
    # ------------------------------------------------------------------

    def create_principal(self, name: str, node: Optional[str] = None) -> Principal:
        """Add a principal.  Its workspace gets the machinery, the scheme
        and where everyone is; every other workspace, in one system
        transaction, where it is and the scheme's key rows about it.  If
        anything raises, none of it is added, so the name can be created
        again; its network node is added once the join has committed."""
        if name in self.principals:
            raise WorkspaceError(f"principal {name!r} already exists")
        principal = Principal(self, name, name if node is None else node)
        with self.transaction():
            self.principals[name] = principal
            self.journal.log(self.principals.pop, name)
            self._join(principal)
        self.network.add_node(principal.node)
        for other in self.principals.values():
            other.release(name)
        return principal

    def _join(self, principal: Principal) -> None:
        install_says_machinery(principal.workspace)
        principal.workspace.load(PLACEMENT_RULES)
        if self.delegation:
            install_delegation(principal.workspace)
            install_depth_restriction(principal.workspace)
        if self.authorization:
            install_says_authorization(principal.workspace)
        self._install_scheme(principal)
        with principal.workspace.transaction():
            for other in self.principals.values():
                _enroll(principal, other)
        for other in self.principals.values():
            if other is not principal:
                _enroll(other, principal)
                self._scheme.provision(self, other, self.rng,
                                       peers=[principal])

    def principal(self, name: str) -> Principal:
        principal = self.principals.get(name)
        if principal is None:
            raise WorkspaceError(f"unknown principal {name!r}")
        return principal

    # ------------------------------------------------------------------
    # Authentication scheme management (the "reconfigurable" part)
    # ------------------------------------------------------------------

    def _install_scheme(self, principal: Principal) -> None:
        """Put ``principal`` under the current scheme in one transaction:
        the scheme it had (none, at creation) goes — exp3 constraints, exp1
        rules, received ``export`` history — and the new one comes in, so no
        committed state lacks a verification constraint and a failure
        leaves the principal, journaled bookkeeping included, as it was."""
        definition = self._scheme
        workspace = principal.workspace
        labels = []
        with workspace.transaction():
            for label in principal.scheme_constraint_labels:
                workspace.remove_constraints(label)
            for ref in principal.scheme_rule_refs:
                workspace.deactivate_rule(ref)
            workspace.retract_facts("export", workspace.edb.get("export", ()))
            refs = workspace.add_rules(self.registry.image(
                definition.exp1_text))
            if definition.exp3_text:
                workspace.add_constraint(definition.exp3_text)
                labels = [statement.label for statement in self.registry.image(
                    definition.exp3_text).statements if statement.label]
            definition.provision(self, principal, self.rng)
        self._assign(principal, scheme_rule_refs=refs,
                     scheme_constraint_labels=labels,
                     auth_scheme=definition.name)

    def reconfigure_auth(self, auth: str) -> None:
        """Swap the authentication scheme system-wide, in one system
        transaction: a failure at any principal switches none.

        Exactly the paper's section 4.1.2 move: the exp1 rules and exp3
        constraints are replaced; every trust policy using ``says`` stays
        untouched.

        Transport state is regime-specific: previously imported exports
        carry old-scheme signatures, which the new verification constraint
        would (correctly) reject.  So reconfiguration flushes the received
        ``export`` history; the *says* facts at each sender are durable
        policy state, and the next :meth:`run` re-signs and re-delivers
        everything under the new scheme — received knowledge reconverges.
        """
        definition = scheme(auth)
        with self.transaction():
            self._assign(self, _scheme=definition, auth_name=auth)
            for principal in self.principals.values():
                self._install_scheme(principal)
        # Everything re-exports under the new regime: a new epoch.
        for principal in self.principals.values():
            principal.outbox.forget()
            principal.route()

    # ------------------------------------------------------------------
    # The global fixpoint
    # ------------------------------------------------------------------

    def run(self, max_rounds: int = 100,
            mode: Optional[str] = None) -> RunReport:
        """Exchange batched messages until the whole system quiesces.

        Principals are grouped by physical node into
        :class:`WorkspaceNode` hosts and an
        :class:`~repro.cluster.scheduler.ExecutionRuntime` drives them
        (``mode`` overrides the system's for this run).  The network
        stays *open*: foreign or corrupted traffic is rejected and
        audited, never fatal.  The hosts tally ``delivered`` /
        ``rejected`` imports into the report the runtime then completes;
        its ``productive_rounds`` are the rounds that delivered messages.
        Whatever the verdict, the report is returned: a frame lost in
        transit reads ``quiescent`` False, its ticket ``outstanding``.
        """
        report = RunReport()
        # Every network node gets a host — including nodes no principal
        # lives on: a predNode placement may route a message *through*
        # such a node, and import still finds the destination principal
        # by the message's ``to`` field, wherever it is hosted.
        hosts: dict[str, list] = {name: [] for name in self.network.nodes()}
        for principal in self.principals.values():
            hosts.setdefault(principal.node, []).append(principal)
        nodes = {
            name: WorkspaceNode(self, name, principals, report)
            for name, principals in hosts.items()
        }

        runtime = ExecutionRuntime(
            nodes, self.network, self.registry,
            mode=mode if mode is not None else self.mode,
            max_batch_bytes=self.max_batch_bytes)
        return runtime.run(max_rounds, report)

    def _import_batch(self, principal: Principal, blocks: list,
                      report: RunReport) -> None:
        """Import ``(pred, id rows)`` blocks in one transaction or, if it
        cannot commit, row by row in sorted id order: a row that cannot
        commit is rejected (counted, named in values, audited)."""
        workspace = principal.workspace
        try:
            _import(workspace, blocks)
            report.delivered += sum(len(rows) for _, rows in blocks)
            return
        except IMPORT_REFUSALS:
            pass  # fall through to per-row isolation
        for pred, row in sorted((pred, row) for pred, rows in blocks
                                for row in rows):
            try:
                _import(workspace, [(pred, [row])])
                report.delivered += 1
            except IMPORT_REFUSALS as exc:
                report.rejected += 1
                report.rejected_detail.append((principal.name, str(exc)))
                fact = workspace.db.interner.materialize_row(row)
                workspace.audit.append(AuditEvent("import_rejected", {
                    "workspace": principal.name, "pred": pred,
                    "fact": tuple(map(str, fact)), "reason": str(exc)}))

    # ------------------------------------------------------------------

    def audit_trail(self) -> list:
        events = []
        for principal in self.principals.values():
            events.extend(principal.workspace.audit)
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LBTrustSystem(auth={self.auth_name!r}, "
                f"principals={sorted(self.principals)})")


#: What refuses one imported row rather than the run: its constraints, the
#: catalog (an arity clash, a Figure 1 relation), or a rule it activates
#: that is unsafe, unstratifiable, never quiescing, or fails in a builtin.
IMPORT_REFUSALS = (ConstraintViolation, WorkspaceError, SafetyError,
                   StratificationError, ActivationLimitError, BuiltinError,
                   CryptoError)


def _enroll(holder: Principal, principal: Principal) -> None:
    """``holder`` learns where ``principal`` is (paper: "users can easily
    enforce various distribution plans by modifying the loc table")."""
    holder.assert_fact("node", (principal.node,))
    holder.assert_fact("prin", (principal.name,))
    holder.assert_fact("loc", (principal.name, principal.node))


def _import(workspace, blocks: list) -> None:
    with workspace.transaction():
        for pred, rows in blocks:
            workspace.assert_rows(pred, rows)
            if pred == "export":
                # Receipt metadata: heard(speaker, rule) — see core.says.
                workspace.assert_rows("heard", [row[1:3] for row in rows])

