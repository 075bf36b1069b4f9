"""The sharded evaluation runtime, scheduled by the unified ExecutionRuntime.

A :class:`Cluster` is N :class:`~repro.cluster.node.ClusterNode` shards
on a :class:`~repro.net.network.SimulatedNetwork`, evaluating one rule
program to a *distributed* fixpoint.  The round loop (``bsp`` barriers
or ``async`` overlap), the ledger-proved quiescence and the description
of a run (:class:`~repro.cluster.scheduler.RunReport`) all live in
:class:`~repro.cluster.scheduler.ExecutionRuntime` — the same scheduler
that drives principal workspaces in
:class:`~repro.core.system.LBTrustSystem`.

The union of all shards equals the single-node fixpoint whenever the
placement is *join-compatible*, which is checked, not trusted:
``load()`` runs the static
:func:`~repro.cluster.placement_check.check_join_compatibility` analysis
and rejects any rule whose body joins cannot be co-located; it never
changes the placement, and the first routed fact or committed load
freezes it.  Negation/aggregation over exchanged predicates is rejected:
a shard cannot prove a fact absent while a delta for it may be in flight.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..datalog.builtins import BuiltinRegistry, standard_registry
from ..datalog.engine import EngineRule, EvalStats, normalize_rules
from ..datalog.errors import ClusterError, WorkspaceError
from ..datalog.parser import parse_statements
from ..datalog.terms import Rule
from ..meta.quote import compile_rule
from ..meta.registry import RuleRegistry
from ..net.batch import DEFAULT_MAX_BATCH_BYTES
from ..net.network import SimulatedNetwork
from ..workspace.catalog import Catalog
from .node import ClusterNode
from .partition import Partitioner
from .placement_check import check_join_compatibility, nonmonotone_exchanges
from .quiescence import TicketLedger
from .scheduler import MODE_BSP, ExecutionRuntime, RunReport, refuse_faults


class Cluster:
    """N shards + partitioner + network + the scheduled fixpoint loop."""

    def __init__(self, nodes: Union[int, Iterable[str]],
                 network: Optional[SimulatedNetwork] = None,
                 partitioner: Optional[Partitioner] = None,
                 builtins: Optional[BuiltinRegistry] = None,
                 registry: Optional[RuleRegistry] = None,
                 max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
                 mode: str = MODE_BSP) -> None:
        if isinstance(nodes, int):
            if nodes < 1:
                raise ClusterError("a cluster needs at least one node")
            names = tuple(f"node{i}" for i in range(nodes))
        else:
            names = tuple(nodes)
        self.partitioner = partitioner if partitioner is not None \
            else Partitioner(names)
        if tuple(self.partitioner.nodes) != names:
            raise ClusterError("partitioner nodes do not match cluster nodes")
        self.network = network if network is not None else SimulatedNetwork()
        for name in names:
            self.network.add_node(name)
        self.registry = registry if registry is not None else RuleRegistry()
        builtins = builtins if builtins is not None else standard_registry()
        self.nodes: dict[str, ClusterNode] = {
            name: ClusterNode(name, self.partitioner, self.registry,
                              builtins=builtins)
            for name in names
        }
        self.ledger = TicketLedger()
        #: diagnostics from the most recent :meth:`load` static check.
        self.last_check: list = []
        #: findings pragma-suppressed during that check.
        self.last_check_suppressed: list = []
        self.runtime = ExecutionRuntime(
            self.nodes, self.network, self.registry, mode=mode,
            max_batch_bytes=max_batch_bytes, ledger=self.ledger)
        self.batcher = self.runtime.batcher
        self._rules: list[EngineRule] = []
        #: the schema every load and fact declares through: a fact of
        #: another arity is refused
        self.catalog = Catalog(builtins=builtins)

    @property
    def mode(self) -> str:
        return self.runtime.mode

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, source: Union[str, Iterable[Rule]]) -> None:
        """Install a program on every node (facts route by placement).

        Loading statically checks the program against the placement:
        join-incompatible rules and nonmonotone strata over exchanged
        predicates are refused.  The checks change nothing, so a refused
        load leaves the cluster as it was; a committed one freezes the
        placement.
        """
        if isinstance(source, str):
            statements = parse_statements(source)
        else:
            statements = list(source)
        rules: list[Rule] = []
        facts: list[tuple[str, tuple]] = []
        for statement in statements:
            if not isinstance(statement, Rule):
                raise ClusterError(
                    "cluster programs take rules and facts only "
                    f"(got {type(statement).__name__})"
                )
            if statement.is_fact():
                for head in statement.heads:
                    values = tuple(
                        term.value for term in head.all_args
                        if hasattr(term, "value")
                    )
                    if len(values) != len(head.all_args):
                        raise ClusterError(
                            f"non-ground fact {head!r} in cluster program")
                    # routed only after the static checks pass, so a
                    # rejected load seeds nothing
                    facts.append((head.pred, values))
            else:
                rules.append(statement)
        if not rules:
            for pred, values in facts:
                self.assert_fact(pred, values)
            return
        sample_builtins = self.catalog.builtins
        # The same analyzer the workspace gate and `repro check` use:
        # errors raise the engine's own exception types (SafetyError,
        # StratificationError, WorkspaceError); warnings are kept.
        from ..analysis.pipeline import (
            GATE_PASSES,
            analyze_statements,
            raise_for_errors,
        )
        suppressed: list = []
        catalog = self.catalog.copy()   # adopted once the load commits
        report = analyze_statements(
            statements, source=source if isinstance(source, str) else None,
            builtins=sample_builtins, placement=self.partitioner,
            catalog=catalog, passes=GATE_PASSES,
            collect_suppressed=suppressed)
        raise_for_errors(report)
        self.last_check = report
        self.last_check_suppressed = suppressed
        engine_rules: list[EngineRule] = []
        for rule in rules:
            compiled = compile_rule(rule, principal=None,
                                    builtins=sample_builtins)
            for engine_rule in normalize_rules([compiled]):
                if engine_rule.label is None:
                    engine_rule.label = f"r{len(self._rules) + len(engine_rules)}"
                engine_rules.append(engine_rule)
        check_join_compatibility(self._rules + engine_rules, self.partitioner)
        refused = nonmonotone_exchanges(self._rules + engine_rules,
                                        self.partitioner)
        if refused:
            raise ClusterError(refused[0][1])
        self.catalog = catalog
        self.partitioner.frozen = True
        for pred, values in facts:
            self.assert_fact(pred, values)
        self._rules.extend(engine_rules)
        for node in self.nodes.values():
            # each shard's workspace activates them at its next bootstrap
            node.load(rules)

    # ------------------------------------------------------------------
    # EDB routing
    # ------------------------------------------------------------------

    def assert_fact(self, pred: str, fact: tuple,
                    at: Optional[str] = None) -> None:
        """Route one EDB fact to its shard(s) per the placement rules.

        ``at`` names the asserting node for local-mode predicates
        (default: the first node).  A predicate's first fact declares it;
        a fact whose arity disagrees with the catalog (the loaded rules,
        an earlier fact) is a :class:`ClusterError`.  Routing a fact
        freezes the placement.
        """
        fact = tuple(fact)
        try:
            self.catalog.observe_fact(pred, fact)
        except WorkspaceError as error:
            raise ClusterError(str(error)) from None
        owner = self.partitioner.owner(pred, fact)
        self.partitioner.frozen = True
        if owner is not None:
            self.nodes[owner].seed(pred, fact)
        elif self.partitioner.mode(pred) == "replicated":
            for node in self.nodes.values():
                node.seed(pred, fact)
        else:
            name = at if at is not None else self.partitioner.nodes[0]
            node = self.nodes.get(name)
            if node is None:
                raise ClusterError(f"unknown node {name!r}")
            node.seed(pred, fact)

    def assert_facts(self, pred: str, facts: Iterable[tuple],
                     at: Optional[str] = None) -> None:
        for fact in facts:
            self.assert_fact(pred, fact, at=at)

    # ------------------------------------------------------------------
    # The distributed fixpoint
    # ------------------------------------------------------------------

    def run(self, max_rounds: int = 500) -> RunReport:
        """Drive the scheduler until the ticket ledger proves quiescence;
        returns the run's :class:`~repro.cluster.scheduler.RunReport`, or
        raises the :class:`ClusterError` naming its first fault."""
        return refuse_faults(self.runtime.run(max_rounds))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def node(self, name: str) -> ClusterNode:
        node = self.nodes.get(name)
        if node is None:
            raise ClusterError(f"unknown node {name!r}")
        return node

    def tuples(self, pred: str) -> set:
        """The distributed relation: union of every shard's tuples."""
        out: set = set()
        for node in self.nodes.values():
            out |= node.db.tuples(pred)
        return out

    def total_stats(self) -> EvalStats:
        merged = EvalStats()
        for node in self.nodes.values():
            merged.merge(node.stats)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster({sorted(self.nodes)}, mode={self.mode!r})"
