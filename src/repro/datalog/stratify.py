"""Predicate dependency analysis and stratification.

LogicBlox (and our engine) evaluates bottom-up with stratified negation and
aggregation: a predicate may only be negated or aggregated over once its
stratum is fully computed.  We build the predicate dependency graph, find
strongly connected components with an iterative Tarjan, and assign stratum
numbers in one pass over the components, each the least level its incoming
edges allow; a negative (or aggregate) edge inside an SCC is a
:class:`StratificationError`.  :func:`stratify` is the one full
stratification, linear in the program.

A host whose program grows rule by rule keeps its strata instead
(:func:`extend_strata`): a new rule whose head is already defined at a
level its body allows joins that stratum, and one whose head nothing
defines or reads yet starts at the level its body needs.  Anything that
would move a predicate already placed — a read head that must rise above
level 0, a head defined too low, a negative cycle — is not extendable and
falls back to :func:`stratify`, as does dropping a rule.

A workspace's ground facts are not rules here: it holds the rows they
state as support-counted base rows, so a predicate only they state is
read like an asserted one, and a stratum never grows with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import StratificationError
from .terms import Literal, Rule


@dataclass
class DepGraph:
    """Predicate dependency graph: edges body-pred → head-pred."""

    preds: set = field(default_factory=set)
    positive: dict = field(default_factory=dict)   # pred -> set of preds it feeds
    negative: dict = field(default_factory=dict)

    def add_pred(self, pred: str) -> None:
        self.preds.add(pred)
        self.positive.setdefault(pred, set())
        self.negative.setdefault(pred, set())

    def add_edge(self, source: str, target: str, negative: bool) -> None:
        self.add_pred(source)
        self.add_pred(target)
        if negative:
            self.negative[source].add(target)
        else:
            self.positive[source].add(target)


def dependency_graph(rules: Iterable[Rule]) -> DepGraph:
    """Build the dependency graph of a (single-head) rule collection.

    Aggregate rules contribute *negative* edges from every body predicate:
    the aggregate value is only meaningful once its inputs are complete,
    exactly like negation.
    """
    graph = DepGraph()
    for rule in rules:
        for head in rule.heads:
            graph.add_pred(head.pred)
            for item in rule.body:
                if not isinstance(item, Literal):
                    continue
                negative = item.negated or rule.agg is not None
                graph.add_edge(item.atom.pred, head.pred, negative)
    return graph


def tarjan_sccs(graph: DepGraph) -> list[frozenset]:
    """Strongly connected components, iteratively (no recursion limit),
    dependents first: a component comes before every component that
    feeds it."""
    index_counter = 0
    stack: list[str] = []
    on_stack: set[str] = set()
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    result: list[frozenset] = []
    children_of: dict[str, list] = {}

    def successors(node: str) -> list[str]:
        children = children_of.get(node)
        if children is None:
            children = children_of[node] = sorted(
                graph.positive.get(node, set())
                | graph.negative.get(node, set()))
        return children

    for root in sorted(graph.preds):
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = successors(node)
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(frozenset(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result


def cycle_path(graph: DepGraph, start: str, goal: str,
               component: frozenset) -> list[str]:
    """Shortest dependency path ``start → … → goal`` inside one SCC (BFS
    over positive+negative edges; both endpoints are in the component, so
    a path exists by the definition of an SCC).  Public because the
    analyzer's dataflow passes render their cycles with it, mirroring
    :func:`find_negative_cycle`'s presentation."""
    if start == goal:
        return [start]
    frontier = [start]
    parent: dict[str, str] = {start: start}
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            successors = (graph.positive.get(node, set())
                          | graph.negative.get(node, set()))
            for succ in sorted(successors):
                if succ not in component or succ in parent:
                    continue
                parent[succ] = node
                if succ == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                next_frontier.append(succ)
        frontier = next_frontier
    return [start, goal]  # pragma: no cover - SCC guarantees a path


def find_negative_cycle(graph: DepGraph, sccs: Optional[list] = None
                        ) -> Optional[tuple[str, str, list[str]]]:
    """The first negative edge inside a cycle, with the cycle spelled out.

    Returns ``(source, target, cycle)`` where ``source -!-> target`` is the
    offending negative dependency and ``cycle`` is the predicate path
    ``target → … → source → target`` that closes the loop, or ``None``
    when the program is stratifiable.  ``sccs`` are the graph's
    :func:`tarjan_sccs`, when the caller has them already.
    """
    if sccs is None:
        sccs = tarjan_sccs(graph)
    component_of: dict[str, frozenset] = {}
    for component in sccs:
        for pred in component:
            component_of[pred] = component
    for source in sorted(graph.negative):
        for target in sorted(graph.negative[source]):
            if component_of[source] is component_of[target]:
                path = cycle_path(graph, target, source,
                                  component_of[source])
                return source, target, path + [target]
    return None


def assign_strata(graph: DepGraph) -> dict[str, int]:
    """Map each predicate to its stratum number (0-based): the least
    level at or above every positive source's and above every negative
    source's.

    Raises :class:`StratificationError` if a negative edge lies inside a
    cycle (negation/aggregation through recursion); the message spells out
    the offending cycle predicate by predicate.
    """
    sccs = tarjan_sccs(graph)
    offending = find_negative_cycle(graph, sccs)
    if offending is not None:
        source, target, cycle = offending
        rendered = " -> ".join(cycle)
        raise StratificationError(
            f"predicate {target!r} depends negatively on {source!r} "
            f"inside a recursive cycle ({rendered}, where {source!r} "
            f"feeds {target!r} through negation or aggregation); "
            f"the program is not stratifiable"
        )

    # Tarjan emits SCCs dependents first; walked reversed, a component's
    # level is final once reached, and it lifts what it feeds.
    level_of: dict[str, int] = {}
    for component in reversed(sccs):
        level = max((level_of.get(pred, 0) for pred in component), default=0)
        for pred in component:
            level_of[pred] = level
        for pred in component:
            for target in graph.positive.get(pred, ()):
                if target not in component and level_of.get(target, 0) < level:
                    level_of[target] = level
            for target in graph.negative.get(pred, ()):
                if level_of.get(target, 0) <= level:
                    level_of[target] = level + 1
    return {pred: level_of[pred] for pred in graph.preds}


@dataclass(frozen=True, eq=False)
class Stratum:
    """One evaluation layer: its predicates and the rules defining them,
    in program order.  Immutable: a stratum that changes is rebuilt
    (:meth:`of`), so what it reads is known once."""

    number: int
    preds: frozenset
    rules: tuple           # non-aggregate rules
    agg_rules: tuple       # aggregate rules (evaluated once, first)
    #: every predicate any of the rules reads
    reads: frozenset = field(repr=False)
    #: ``reads | preds``: a delta batch that names none of these leaves
    #: the stratum as it is (the incremental propagators ask
    #: ``touches.isdisjoint(batch)`` on every batch, which costs what the
    #: batch holds; ``touches & batch.keys()`` would copy the set)
    touches: frozenset = field(repr=False)
    has_negation: bool = field(repr=False)

    @classmethod
    def of(cls, number: int, rules: Iterable,
           base: Optional["Stratum"] = None) -> "Stratum":
        """The stratum ``number`` of ``rules`` in program order: after
        the rules of ``base``, the stratum they join, when there is one."""
        rules = tuple(rules)
        plain = tuple(rule for rule in rules if rule.agg is None)
        aggregates = tuple(rule for rule in rules if rule.agg is not None)
        heads = frozenset(head.pred for rule in rules for head in rule.heads)
        reads = frozenset().union(*(rule.body_preds() for rule in rules))
        negation = any(isinstance(item, Literal) and item.negated
                       for rule in plain for item in rule.body)
        if base is not None:
            heads, reads = base.preds | heads, base.reads | reads
            plain, aggregates = base.rules + plain, base.agg_rules + aggregates
            negation = base.has_negation or negation
        return cls(number, heads, plain, aggregates, reads, reads | heads,
                   negation)

    @property
    def nonmonotone(self) -> bool:
        """True when incremental insertion cannot use plain semi-naive."""
        return self.has_negation or bool(self.agg_rules)


def stratify(rules: list) -> list[Stratum]:
    """Partition rules into an ordered list of strata: the one full
    stratification."""
    graph = dependency_graph(rules)
    levels = assign_strata(graph)
    by_level: dict[int, list] = {}
    for rule in rules:
        level = max(levels[head.pred] for head in rule.heads)
        by_level.setdefault(level, []).append(rule)
    return [Stratum.of(level, by_level[level]) for level in sorted(by_level)]


def extend_strata(strata: list, rules: Iterable) -> Optional[list]:
    """``stratify(old + rules)`` for engine rules (one head each), given
    ``strata == stratify(old)``, or None when the new rules would move a
    predicate already placed.

    Each rule's head needs a level: its positive body predicates' levels,
    and one more than a negated one's (any body predicate's, for an
    aggregate rule); a predicate no rule defines is at level 0.  The old
    levels still hold when the head is defined at that level or higher
    (the rule joins its stratum), or when nothing defines or reads the
    head yet (it starts at the level it needs); a read head that needs
    level 0 joins stratum 0.  Anything else — a read head that must rise,
    a head defined too low, a negative cycle — is None, for the caller to
    run :func:`stratify`.  The cost is the new rules' literals times the
    number of strata; the strata no rule joins are reused.
    """
    placed: dict[str, int] = {}     # the heads these rules define first
    read: set = set()               # what these rules read

    def level_of(pred: str) -> Optional[int]:
        for stratum in strata:
            if pred in stratum.preds:
                return stratum.number
        return placed.get(pred)

    joining: dict[int, list] = {}
    for rule in rules:
        head = rule.head.pred
        lift = rule.agg is not None
        need = 0
        for item in rule.body:
            if not isinstance(item, Literal):
                continue
            negative = lift or item.negated
            pred = item.atom.pred
            if pred == head:
                if negative:
                    return None
                continue
            need = max(need, (level_of(pred) or 0) + negative)
        level = level_of(head)
        if level is None:
            if need and (head in read or any(head in stratum.reads
                                             for stratum in strata)):
                return None
            level = placed[head] = need
        elif level < need:
            return None
        read |= rule.body_preds()
        joining.setdefault(level, []).append(rule)
    by_number = {stratum.number: stratum for stratum in strata}
    return [Stratum.of(number, joining[number], by_number.get(number))
            if number in joining else by_number[number]
            for number in sorted(by_number.keys() | joining.keys())]
