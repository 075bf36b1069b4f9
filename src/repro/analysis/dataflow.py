"""Monotone dataflow analysis over the predicate dependency graph.

The paper's central claim is that trust policies are *programs*; this
module treats them as such and brings classic dataflow machinery to
bear.  A :func:`solve` call runs a monotone framework to fixpoint: each
pass supplies a join-semilattice (:class:`Lattice`), a set of
:class:`FlowEquation` s (one per rule head, body reads as incoming
edges), and optionally a transfer function; the solver iterates
SCC-by-SCC (reusing the engine's own
:func:`~repro.datalog.stratify.tarjan_sccs`) so acyclic programs finish
in one sweep and recursive components converge locally, with widening
as a safety valve for infinite-height lattices.

Three pass families are built on the framework:

* **authority flow** (R601-R603) — a taint lattice over
  ``{edb, attributed, unattributed}``: plainly-loaded EDB facts and
  unattributed ``says`` imports are sources; flow follows rule bodies
  (including the says-stripped import semantics of
  :mod:`repro.core.says`); authorization-decision predicates reachable
  from unattributed input are flagged, as are says-exported predicates
  whose bodies read untrusted relations;
* **delegation depth** (R611-R613) — recursion through delegation
  predicates with no depth-bounding guard column, reported with the
  offending cycle spelled out exactly like
  :func:`~repro.datalog.stratify.find_negative_cycle` does;
* **static cost** (R701-R704) — cardinality/selectivity estimates
  propagated from declared types (and the cluster placement when one is
  supplied, e.g. ``repro check --nodes N``), flagging Cartesian-prone
  bodies and cross-shard join explosions before the runtime cost model
  ever sees them.

All diagnostics preserve source spans; severities follow the analyzer
convention (warnings by default — an authority leak only *rejects*
under ``--strict`` or a strict gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..datalog.stratify import DepGraph, cycle_path, tarjan_sccs
from ..datalog.terms import (
    Comparison,
    Constant,
    Constraint,
    Literal,
    Quote,
    Rule,
    Variable,
)
from .diagnostics import Diagnostic

__all__ = [
    "FlowEdge",
    "FlowEquation",
    "Lattice",
    "SYSTEM_PREDS",
    "Solution",
    "TaintLattice",
    "CardinalityLattice",
    "authority_pass",
    "cost_pass",
    "delegation_pass",
    "quoted_functors",
    "solve",
]

#: Predicates provided by the trust-management machinery itself; they are
#: derivable even when a program fragment does not define them.
SYSTEM_PREDS = frozenset({
    "says", "active", "export", "request", "predNode", "loc", "node",
})


def _meta_preds() -> frozenset:
    from ..meta.model import ALL_META_PREDS
    return ALL_META_PREDS


def quoted_functors(atom) -> set:
    """Concrete predicate names quoted inside an atom's arguments."""
    functors: set = set()
    for term in atom.all_args:
        if isinstance(term, Quote):
            for head in term.pattern.heads:
                if isinstance(head.functor, str):
                    functors.add(head.functor)
    return functors


def _quoted_patterns(atom) -> list:
    """Head :class:`AtomPattern` s quoted inside an atom's arguments."""
    patterns: list = []
    for term in atom.all_args:
        if isinstance(term, Quote):
            patterns.extend(term.pattern.heads)
    return patterns


def _is_anon(name: str) -> bool:
    """Parser-generated anonymous variables (from ``_``)."""
    return name.startswith("_")


def _atom_var_names(atom) -> set:
    return {v.name for v in atom.variables() if not _is_anon(v.name)}


# ---------------------------------------------------------------------------
# The framework
# ---------------------------------------------------------------------------

class Lattice:
    """Join-semilattice protocol for :func:`solve`.

    Implementations supply a least element, a join, and (for lattices of
    unbounded height, like cardinalities) a widening operator applied
    once a component exceeds its round budget.
    """

    def bottom(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def widen(self, old, new):
        """Accelerate past ``new`` when a component fails to stabilize."""
        return new


class TaintLattice(Lattice):
    """Powerset of taint marks under union (finite height — no widening)."""

    def bottom(self):
        return frozenset()

    def join(self, a, b):
        return a | b


class CardinalityLattice(Lattice):
    """Row estimates under max, widened to ``cap`` on divergence."""

    def __init__(self, cap: float = 1e12) -> None:
        self.cap = cap

    def bottom(self):
        return 0.0

    def join(self, a, b):
        return max(a, b)

    def widen(self, old, new):
        return self.cap if new > old else new


@dataclass(frozen=True)
class FlowEdge:
    """One incoming contribution of a :class:`FlowEquation`.

    ``pred`` pulls the current value of another predicate; ``seed``
    injects a constant lattice value (an EDB source, a says import);
    either may be None.  ``note`` is a human rendering of the source for
    witness chains; ``span`` points at the body item responsible.
    """

    pred: Optional[str] = None
    seed: Optional[object] = None
    kind: str = "body"  # body | import | broken-import | seed
    note: str = ""
    span: Optional[object] = None


@dataclass(frozen=True)
class FlowEquation:
    """``head := transfer(reads)`` for one rule head (or seed)."""

    head: str
    reads: tuple
    rule: Optional[Rule] = None
    kind: str = "derive"  # derive | export | seed


@dataclass
class Solution:
    """A fixpoint: predicate values plus the equations that produced it."""

    lattice: Lattice
    values: dict
    by_head: dict
    graph: DepGraph
    unstable: frozenset = frozenset()

    def value(self, pred: str):
        return self.values.get(pred, self.lattice.bottom())


def _join_reads(lattice: Lattice, equation: FlowEquation, values: dict):
    value = lattice.bottom()
    for edge in equation.reads:
        if edge.seed is not None:
            value = lattice.join(value, edge.seed)
        if edge.pred is not None:
            value = lattice.join(
                value, values.get(edge.pred, lattice.bottom()))
    return value


def solve(equations: Iterable[FlowEquation], lattice: Lattice,
          transfer: Optional[Callable] = None,
          max_rounds: int = 12) -> Solution:
    """Run the monotone framework to fixpoint, SCC by SCC.

    ``transfer(equation, values) -> value`` computes one equation's
    contribution from the current environment; the default joins the
    equation's reads.  Components that have not stabilized after
    ``max_rounds`` sweeps are widened (:meth:`Lattice.widen`) and their
    predicates reported in :attr:`Solution.unstable`.
    """
    equations = list(equations)
    if transfer is None:
        def transfer(equation, values):
            return _join_reads(lattice, equation, values)

    graph = DepGraph()
    by_head: dict[str, list] = {}
    for equation in equations:
        graph.add_pred(equation.head)
        by_head.setdefault(equation.head, []).append(equation)
        for edge in equation.reads:
            if edge.pred is not None:
                graph.add_edge(edge.pred, equation.head, negative=False)

    values = {pred: lattice.bottom() for pred in graph.preds}
    unstable: set = set()
    # Tarjan emits SCCs in reverse topological order (dependents first);
    # process them reversed so sources settle before their readers.
    for component in reversed(tarjan_sccs(graph)):
        members = sorted(component)
        local = [eq for pred in members for eq in by_head.get(pred, ())]
        if not local:
            continue
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            widening = rounds > max_rounds
            for equation in local:
                old = values[equation.head]
                new = lattice.join(old, transfer(equation, values))
                if widening and new != old:
                    new = lattice.widen(old, new)
                    if new != old:
                        unstable.add(equation.head)
                if new != old:
                    values[equation.head] = new
                    changed = True
    return Solution(lattice=lattice, values=values, by_head=by_head,
                    graph=graph, unstable=frozenset(unstable))


# ---------------------------------------------------------------------------
# Shared program shape harvesting
# ---------------------------------------------------------------------------

@dataclass
class _Shape:
    """Syntactic facts about a program fragment that every pass needs."""

    rules: list = field(default_factory=list)       # non-fact rules
    fact_counts: dict = field(default_factory=dict)  # pred -> #facts
    derived: set = field(default_factory=set)        # non-says head preds
    declared: set = field(default_factory=set)       # constraint preds
    exported: set = field(default_factory=set)       # says-head functors
    imported: set = field(default_factory=set)       # says-body functors
    read: set = field(default_factory=set)           # positive body preds

    @property
    def shipped_only(self) -> set:
        """Predicates that only ever arrive through says (cf. R401)."""
        return self.imported - self.derived - self.declared


def harvest_shape(statements) -> _Shape:
    """One walk over the program; :meth:`AnalysisContext.shape` keeps the
    result for the three passes that read it."""
    shape = _Shape()
    for statement in statements:
        if isinstance(statement, Constraint):
            for side in (statement.lhs, statement.rhs):
                for alternative in side:
                    for item in alternative:
                        if isinstance(item, Literal):
                            shape.declared.add(item.atom.pred)
            continue
        if not isinstance(statement, Rule):
            continue
        if statement.is_fact():
            for head in statement.heads:
                shape.fact_counts[head.pred] = \
                    shape.fact_counts.get(head.pred, 0) + 1
                shape.derived.add(head.pred)
            continue
        shape.rules.append(statement)
        for head in statement.heads:
            if head.pred == "says":
                shape.exported |= quoted_functors(head)
            else:
                shape.derived.add(head.pred)
        for item in statement.body:
            if not isinstance(item, Literal) or item.negated:
                continue
            if item.atom.pred == "says":
                shape.imported |= quoted_functors(item.atom)
            else:
                shape.read.add(item.atom.pred)
    return shape


def _is_builtin(ctx, pred: str) -> bool:
    return ctx.builtins.lookup(pred) is not None


# ---------------------------------------------------------------------------
# Authority flow — R601 / R602 / R603
# ---------------------------------------------------------------------------

TAINT_EDB = "edb"
TAINT_ATTRIBUTED = "attributed"
TAINT_UNATTRIBUTED = "unattributed"

#: Substrings that mark a predicate as an authorization decision.
_AUTH_MARKERS = ("authoriz", "access", "grant", "permit", "allow",
                 "permission", "acl")


def is_auth_sink(pred: str) -> bool:
    """Heuristic: does this predicate name an authorization decision?"""
    lowered = pred.lower()
    if any(marker in lowered for marker in _AUTH_MARKERS):
        return True
    # mayRead / mayWrite style capability predicates.
    return (pred.startswith("may") and len(pred) > 3
            and pred[3].isupper())


def _speaker_attributed(atom) -> bool:
    """Does a ``says(...)`` body literal name its speaker?

    A constant (including ``me``) or a named variable carries the
    speaker through to the rule; an anonymous ``_`` discards it — the
    paper's says1 deliberately does this, which is exactly why authority
    reaching a decision through such an import deserves a diagnostic.
    """
    args = atom.all_args
    if not args:
        return False
    speaker = args[0]
    if isinstance(speaker, Variable):
        return not _is_anon(speaker.name)
    return True  # constants (me, "bob", ...) are concrete principals


def _authority_equations(ctx, shape: _Shape) -> tuple[list, bool]:
    """Flow equations for the taint lattice, plus a says-import flag."""
    equations: list[FlowEquation] = []
    has_says_import = False
    shipped_only = shape.shipped_only
    exempt = SYSTEM_PREDS | _meta_preds()

    # EDB sources: program facts and read-but-underived predicates.
    for pred, count in sorted(shape.fact_counts.items()):
        equations.append(FlowEquation(pred, (FlowEdge(
            seed=frozenset({TAINT_EDB}), kind="seed",
            note=f"EDB fact {pred!r}"),), kind="seed"))
    for pred in sorted(shape.read - shape.derived - exempt):
        if _is_builtin(ctx, pred) or pred in shipped_only:
            continue
        equations.append(FlowEquation(pred, (FlowEdge(
            seed=frozenset({TAINT_EDB}), kind="seed",
            note=f"EDB relation {pred!r}"),), kind="seed"))

    for rule in shape.rules:
        reads: list[FlowEdge] = []
        for item in rule.body:
            if not isinstance(item, Literal) or item.negated:
                continue
            pred = item.atom.pred
            if pred == "says":
                has_says_import = True
                if _speaker_attributed(item.atom):
                    taint, who = TAINT_ATTRIBUTED, "attributed"
                else:
                    taint, who = TAINT_UNATTRIBUTED, "unattributed"
                reads.append(FlowEdge(
                    seed=frozenset({taint}), kind="import",
                    note=f"{who} says import", span=item.span))
                continue
            if _is_builtin(ctx, pred):
                continue
            seed = None
            note = ""
            kind = "body"
            if pred in shipped_only:
                # A plain read of a says-shipped predicate drops the
                # attribution chain (R401's finding, as a taint source).
                seed = frozenset({TAINT_UNATTRIBUTED})
                kind = "broken-import"
                note = f"plain read of says-shipped {pred!r}"
            reads.append(FlowEdge(pred=pred, seed=seed, kind=kind,
                                  note=note, span=item.span))
        frozen = tuple(reads)
        for head in rule.heads:
            if head.pred == "says":
                for functor in sorted(quoted_functors(head)):
                    equations.append(FlowEquation(
                        functor, frozen, rule=rule, kind="export"))
            else:
                equations.append(FlowEquation(
                    head.pred, frozen, rule=rule, kind="derive"))
    return equations, has_says_import


def _taint_source_chain(solution: Solution, sink: str, bit: str) -> str:
    """Shortest witness ``source -> ... -> sink`` carrying ``bit``."""
    seen = {sink}
    queue: list[tuple[str, list]] = [(sink, [sink])]
    while queue:
        pred, path = queue.pop(0)
        for equation in solution.by_head.get(pred, ()):
            for edge in equation.reads:
                if edge.seed is not None and bit in edge.seed:
                    return " -> ".join(
                        [edge.note or "input"] + list(reversed(path)))
        for equation in solution.by_head.get(pred, ()):
            for edge in equation.reads:
                if (edge.pred is not None and edge.pred not in seen
                        and bit in solution.value(edge.pred)):
                    seen.add(edge.pred)
                    queue.append((edge.pred, path + [edge.pred]))
    return sink  # pragma: no cover - a carrier always has a source


def authority_pass(ctx) -> list[Diagnostic]:
    """Taint analysis: who may influence authorization decisions.

    * R601 — an authorization-decision predicate (``authorize``,
      ``access``, ``grant``, ``mayRead`` ...) is derivable from
      unattributed input: an anonymous says import (``says(_,me,R)``) or
      a plain read of a says-shipped relation;
    * R602 — a says-exported predicate is derived from unattributed
      input, so downstream peers will attribute hearsay to this
      principal's say-so;
    * R603 — the program imports via says somewhere, yet an
      authorization decision consults no attributed input at all.
    """
    shape = ctx.shape()
    equations, has_says_import = _authority_equations(ctx, shape)
    if not equations:
        return []
    solution = solve(equations, TaintLattice())

    diagnostics: list[Diagnostic] = []
    lattice = solution.lattice

    sinks = sorted(pred for pred in shape.derived
                   if is_auth_sink(pred) and not shape.fact_counts.get(pred))
    for sink in sinks:
        value = solution.value(sink)
        if TAINT_UNATTRIBUTED in value:
            culprit = None
            for equation in solution.by_head.get(sink, ()):
                if equation.rule is None:
                    continue
                contributed = _join_reads(lattice, equation, solution.values)
                if TAINT_UNATTRIBUTED in contributed:
                    culprit = equation
                    break
            chain = _taint_source_chain(solution, sink, TAINT_UNATTRIBUTED)
            diagnostics.append(Diagnostic(
                "R601",
                f"authorization decision {sink!r} is derivable from "
                f"unattributed input ({chain}); require an attributed "
                f"says import or guard the decision",
                file=ctx.file,
                span=culprit.rule.span if culprit is not None else None,
                rule_label=culprit.rule.label if culprit is not None
                else None,
                pred=sink))
        elif (has_says_import and value
              and TAINT_ATTRIBUTED not in value):
            culprit = next((eq for eq in solution.by_head.get(sink, ())
                            if eq.rule is not None), None)
            diagnostics.append(Diagnostic(
                "R603",
                f"authorization decision {sink!r} consults no attributed "
                f"input although this program imports via says — the "
                f"decision ignores every speaker",
                file=ctx.file,
                span=culprit.rule.span if culprit is not None else None,
                rule_label=culprit.rule.label if culprit is not None
                else None,
                pred=sink))

    seen_exports: set = set()
    for equations_for in solution.by_head.values():
        for equation in equations_for:
            if equation.kind != "export":
                continue
            contributed = _join_reads(lattice, equation, solution.values)
            if TAINT_UNATTRIBUTED not in contributed:
                continue
            key = (id(equation.rule), equation.head)
            if key in seen_exports:
                continue
            seen_exports.add(key)
            chain = _taint_source_chain(solution, equation.head,
                                        TAINT_UNATTRIBUTED)
            diagnostics.append(Diagnostic(
                "R602",
                f"says-exported predicate {equation.head!r} is derived "
                f"from unattributed input ({chain}); peers receiving it "
                f"will attribute hearsay to this principal",
                file=ctx.file,
                span=equation.rule.span if equation.rule is not None
                else None,
                rule_label=equation.rule.label
                if equation.rule is not None else None,
                pred=equation.head))
    return diagnostics


# ---------------------------------------------------------------------------
# Delegation depth — R611 / R612 / R613
# ---------------------------------------------------------------------------

#: Substrings that mark a predicate as part of a delegation chain.
_DELEGATION_MARKERS = ("deleg", "deldepth")

#: Comparison operators that can bound a decreasing depth column.
_BOUNDING_OPS = frozenset({"<", "<=", ">", ">="})


def is_delegation_pred(pred: str) -> bool:
    lowered = pred.lower()
    return any(marker in lowered for marker in _DELEGATION_MARKERS)


@dataclass(frozen=True)
class _DepEdge:
    source: str
    target: str
    kind: str  # derive | export | import
    rule: Rule


def _delegation_edges(ctx, shape: _Shape) -> list[_DepEdge]:
    """Body→head dependencies, including flow through the says channel:
    a says export feeds its quoted functor, a says import feeds the
    local head — the cross-principal edges dd3-style propagation rides."""
    edges: list[_DepEdge] = []
    for rule in shape.rules:
        body_preds: list[str] = []
        import_functors: list[str] = []
        for item in rule.body:
            if not isinstance(item, Literal) or item.negated:
                continue
            if item.atom.pred == "says":
                import_functors.extend(sorted(quoted_functors(item.atom)))
            elif not _is_builtin(ctx, item.atom.pred):
                body_preds.append(item.atom.pred)
        for head in rule.heads:
            if head.pred == "says":
                for functor in sorted(quoted_functors(head)):
                    for pred in body_preds:
                        edges.append(_DepEdge(pred, functor, "export", rule))
                    for pred in import_functors:
                        edges.append(_DepEdge(pred, functor, "export", rule))
            else:
                for pred in body_preds:
                    edges.append(_DepEdge(pred, head.pred, "derive", rule))
                for pred in import_functors:
                    edges.append(_DepEdge(pred, head.pred, "import", rule))
    return edges


def _cycle_read_vars(rule: Rule, component: frozenset) -> set:
    """Variables bound by reading a cycle predicate in ``rule``'s body
    (plain literals, or quoted patterns inside a says import)."""
    names: set = set()
    for item in rule.body:
        if not isinstance(item, Literal) or item.negated:
            continue
        if item.atom.pred in component:
            names |= _atom_var_names(item.atom)
        if item.atom.pred == "says":
            for pattern in _quoted_patterns(item.atom):
                if pattern.functor in component:
                    for arg in pattern.args:
                        if isinstance(arg, Variable) \
                                and not _is_anon(arg.name):
                            names.add(arg.name)
    return names


def _guard_vars(rule: Rule, component: frozenset) -> set:
    """Cycle-read variables bounded by a comparison in ``rule``."""
    cycle_vars = _cycle_read_vars(rule, component)
    if not cycle_vars:
        return set()
    guarded: set = set()
    for item in rule.body:
        if isinstance(item, Comparison) and item.op in _BOUNDING_OPS:
            names = {v.name for v in item.variables()}
            guarded |= names & cycle_vars
    return guarded


def _recursive_occurrences(rule: Rule, component: frozenset) -> list:
    """``(body_args, head_args)`` pairs for cycle predicates that appear
    in both the body (read) and the head (re-derived or re-exported)."""
    body_args: dict[str, tuple] = {}
    for item in rule.body:
        if not isinstance(item, Literal) or item.negated:
            continue
        if item.atom.pred in component and item.atom.pred not in body_args:
            body_args[item.atom.pred] = tuple(item.atom.all_args)
        if item.atom.pred == "says":
            for pattern in _quoted_patterns(item.atom):
                if (pattern.functor in component
                        and pattern.functor not in body_args):
                    body_args[pattern.functor] = tuple(pattern.args)
    pairs: list = []
    for head in rule.heads:
        if head.pred in body_args:
            pairs.append((body_args[head.pred], tuple(head.all_args)))
        if head.pred == "says":
            for pattern in _quoted_patterns(head):
                if pattern.functor in body_args:
                    pairs.append((body_args[pattern.functor],
                                  tuple(pattern.args)))
    return pairs


def _decreases_guarded_column(rule: Rule, component: frozenset,
                              guarded: set) -> bool:
    """Does any recursive head occurrence rewrite a guarded column?

    dd2b passes ``N-1`` where its body read ``N`` — the head term at a
    guarded variable's position differs from the body term, so the
    chain provably shrinks.  Identical argument tuples never do.
    """
    for body_args, head_args in _recursive_occurrences(rule, component):
        if len(body_args) != len(head_args):
            return True  # shape change: cannot prove non-decrease
        for position, body_term in enumerate(body_args):
            if not isinstance(body_term, Variable):
                continue
            if body_term.name not in guarded:
                continue
            if head_args[position] != body_term:
                return True
    return False


def _render_cycle(edges: list[_DepEdge], component: frozenset,
                  anchor: str) -> str:
    graph = DepGraph()
    for edge in edges:
        graph.add_edge(edge.source, edge.target, negative=False)
    successors = sorted(graph.positive.get(anchor, set()) & component)
    if not successors:  # pragma: no cover - cyclic SCCs always have one
        return anchor
    path = cycle_path(graph, successors[0], anchor, component)
    return " -> ".join([anchor] + path)


def delegation_pass(ctx) -> list[Diagnostic]:
    """Unbounded recursion through delegation predicates.

    * R611 — a delegation predicate recurses with no depth-bounding
      guard column anywhere in the cycle;
    * R612 — the cycle carries a guard, but no participating rule ever
      decreases the guarded column, so the bound never bites;
    * R613 — as R611, but the cycle crosses the says boundary, so a
      remote peer can extend the chain indefinitely.
    """
    shape = ctx.shape()
    edges = _delegation_edges(ctx, shape)
    if not edges:
        return []
    graph = DepGraph()
    for edge in edges:
        graph.add_edge(edge.source, edge.target, negative=False)

    diagnostics: list[Diagnostic] = []
    for component in sorted(tarjan_sccs(graph), key=min):
        internal = [e for e in edges if e.source in component
                    and e.target in component]
        cyclic = len(component) > 1 or any(
            e.source == e.target for e in internal)
        if not cyclic:
            continue
        delegation = sorted(p for p in component if is_delegation_pred(p))
        if not delegation:
            continue
        anchor = delegation[0]
        participating: list[Rule] = []
        seen_rules: set = set()
        for edge in internal:
            if id(edge.rule) not in seen_rules:
                seen_rules.add(id(edge.rule))
                participating.append(edge.rule)

        guarded_rules = [(rule, _guard_vars(rule, component))
                         for rule in participating]
        guarded_rules = [(rule, guards) for rule, guards in guarded_rules
                         if guards]
        rendered = _render_cycle(internal, component, anchor)
        culprit = min(
            participating,
            key=lambda r: (r.span.line if r.span else 0,
                           r.span.column if r.span else 0))

        if not guarded_rules:
            crosses = any(e.kind in ("export", "import") for e in internal)
            code = "R613" if crosses else "R611"
            where = (" and the cycle crosses the says boundary, so a "
                     "remote peer can extend the chain indefinitely"
                     if crosses else "")
            diagnostics.append(Diagnostic(
                code,
                f"delegation through {anchor!r} recurses without a "
                f"depth bound ({rendered}){where}; add a decreasing "
                f"guard column (dd2b-style N > 0 with N-1 in the head)",
                file=ctx.file, span=culprit.span,
                rule_label=culprit.label, pred=anchor))
        elif not any(_decreases_guarded_column(rule, component, guards)
                     for rule, guards in guarded_rules):
            rule = guarded_rules[0][0]
            diagnostics.append(Diagnostic(
                "R612",
                f"delegation cycle through {anchor!r} carries a depth "
                f"guard but never decreases the guarded column "
                f"({rendered}); the recursion stays unbounded",
                file=ctx.file, span=rule.span,
                rule_label=rule.label, pred=anchor))
    return diagnostics


# ---------------------------------------------------------------------------
# Static cost — R701 / R702 / R703 / R704
# ---------------------------------------------------------------------------

#: Estimated distinct values per declared column type (the paper's
#: policies are small; these are deliberately coarse order-of-magnitude
#: figures — only *ratios* between estimates matter to the verdicts).
_TYPE_WIDTH = {
    "int": 1000.0, "float": 1000.0, "number": 1000.0, "string": 1000.0,
    "prin": 100.0, "principal": 100.0, "node": 16.0, "mode": 8.0,
    "rule": 200.0, "predicate": 50.0, "bool": 2.0,
}
_DEFAULT_WIDTH = 100.0
#: Cap on any single EDB relation's estimated cardinality.
_EDB_CAP = 1e4
#: Row estimate at which a Cartesian-prone body becomes an R701 warning.
CARTESIAN_THRESHOLD = 1e7
#: Row estimate at which a rule touching exchanged predicates warns (R702).
EXCHANGE_THRESHOLD = 1e6
#: Widening cap — estimates at or above this are "does not stabilize".
_COST_CAP = 1e12


def _type_width(type_name: Optional[str]) -> float:
    if type_name is None:
        return _DEFAULT_WIDTH
    return _TYPE_WIDTH.get(type_name, _DEFAULT_WIDTH)


def _column_widths(catalog, pred: str, arity: int) -> list[float]:
    info = catalog.get(pred)
    if info is None:
        return [_DEFAULT_WIDTH] * arity
    return [_type_width(info.arg_types[i]
                        if i < len(info.arg_types) else None)
            for i in range(arity)]


def edb_estimate(catalog, pred: str, arity: int) -> float:
    """Estimated cardinality of an EDB relation from its declared types."""
    if arity <= 0:
        return 1.0
    rows = 1.0
    for width in _column_widths(catalog, pred, arity):
        rows *= width
    return min(rows, _EDB_CAP)


def _rule_var_widths(rule: Rule, catalog) -> dict:
    """Per-variable distinct-value estimate: the most selective declared
    column type the variable is bound at (min over its positions)."""
    widths: dict[str, float] = {}
    for item in rule.body:
        if not isinstance(item, Literal) or item.negated:
            continue
        atom = item.atom
        columns = _column_widths(catalog, atom.pred, len(atom.all_args))
        for position, term in enumerate(atom.all_args):
            if isinstance(term, Variable) and not _is_anon(term.name):
                width = columns[position]
                widths[term.name] = min(
                    widths.get(term.name, width), width)
    return widths


def estimate_rule(ctx, rule: Rule, values: dict, catalog
                  ) -> tuple[float, list]:
    """``(row estimate, Cartesian-prone literals)`` for one rule body.

    Standard System-R style arithmetic: literals multiply in their
    cardinality, each equi-join variable divides by its distinct-value
    width, constants select one value out of their column's width.  A
    positive literal sharing no variable with everything bound before it
    is Cartesian-prone.
    """
    rows = 1.0
    bound: set = set()
    first = True
    cartesian: list = []
    var_widths = _rule_var_widths(rule, catalog)
    for item in rule.body:
        if not isinstance(item, Literal) or item.negated:
            continue
        atom = item.atom
        pred = atom.pred
        if pred == "says" or _is_builtin(ctx, pred):
            continue
        arity = len(atom.all_args)
        card = values.get(pred)
        if card is None or card <= 0.0:
            card = edb_estimate(catalog, pred, arity)
        columns = _column_widths(catalog, pred, arity)
        names: set = set()
        for position, term in enumerate(atom.all_args):
            if isinstance(term, Variable):
                if not _is_anon(term.name):
                    names.add(term.name)
            elif isinstance(term, Constant):
                card /= max(columns[position], 1.0)
        card = max(card, 1.0)
        shared = names & bound
        if not first and not shared and card > 1.0:
            cartesian.append(item)
        rows *= card
        for name in sorted(shared):
            rows /= max(var_widths.get(name, _DEFAULT_WIDTH), 1.0)
        rows = max(rows, 1.0)
        bound |= names
        first = False
    return min(rows, _COST_CAP), cartesian


def cost_pass(ctx) -> list[Diagnostic]:
    """Cardinality propagation: Cartesian products and shard explosions.

    * R701 — a body joins literals with no shared variable and the
      estimate crosses :data:`CARTESIAN_THRESHOLD`;
    * R702 — under a multi-node placement, a rule touching exchanged
      predicates estimates above :data:`EXCHANGE_THRESHOLD` rows per
      round of network exchange;
    * R703 — Cartesian-prone body below the R701 threshold (info);
    * R704 — a recursive component's estimate fails to stabilize even
      with widening (info).
    """
    shape = ctx.shape()
    if not shape.rules and not shape.fact_counts:
        return []
    ctx.schema()   # clashes are the types pass's to report
    catalog = ctx.catalog
    exempt = {"says"}

    equations: list[FlowEquation] = []
    arities: dict[str, int] = {}
    for rule in shape.rules:
        for item in rule.body:
            if isinstance(item, Literal):
                arities.setdefault(item.atom.pred, len(item.atom.all_args))
    for pred, count in sorted(shape.fact_counts.items()):
        equations.append(FlowEquation(pred, (FlowEdge(
            seed=float(count), kind="seed"),), kind="seed"))
    for pred in sorted(shape.read - shape.derived - exempt):
        if _is_builtin(ctx, pred):
            continue
        equations.append(FlowEquation(pred, (FlowEdge(
            seed=edb_estimate(catalog, pred, arities.get(pred, 1)),
            kind="seed"),), kind="seed"))
    rule_equations: list[FlowEquation] = []
    for rule in shape.rules:
        reads = tuple(
            FlowEdge(pred=item.atom.pred, span=item.span)
            for item in rule.body
            if isinstance(item, Literal) and not item.negated
            and item.atom.pred != "says"
            and not _is_builtin(ctx, item.atom.pred))
        for head in rule.heads:
            if head.pred == "says":
                continue
            equation = FlowEquation(head.pred, reads, rule=rule)
            equations.append(equation)
            rule_equations.append(equation)

    lattice = CardinalityLattice(cap=_COST_CAP)

    def transfer(equation, values):
        if equation.kind == "seed":
            return _join_reads(lattice, equation, values)
        return estimate_rule(ctx, equation.rule, values, catalog)[0]

    solution = solve(equations, lattice, transfer=transfer, max_rounds=6)

    diagnostics: list[Diagnostic] = []
    seen_rules: set = set()
    placement = ctx.placement
    multi_node = placement is not None and len(placement.nodes) > 1
    for equation in rule_equations:
        rule = equation.rule
        if id(rule) in seen_rules:
            continue
        seen_rules.add(id(rule))
        estimate, cartesian = estimate_rule(ctx, rule, solution.values,
                                            catalog)
        if cartesian:
            literal = cartesian[0]
            if estimate >= CARTESIAN_THRESHOLD:
                diagnostics.append(Diagnostic(
                    "R701",
                    f"body of {equation.head!r} joins "
                    f"{literal.atom.pred!r} with no shared variable; the "
                    f"Cartesian product is estimated at ~{estimate:.0e} "
                    f"rows — bind a join variable or split the rule",
                    file=ctx.file, span=literal.span or rule.span,
                    rule_label=rule.label, pred=equation.head))
            else:
                diagnostics.append(Diagnostic(
                    "R703",
                    f"body of {equation.head!r} joins "
                    f"{literal.atom.pred!r} with no shared variable "
                    f"(Cartesian-prone; ~{estimate:.0e} rows estimated)",
                    file=ctx.file, span=literal.span or rule.span,
                    rule_label=rule.label, pred=equation.head))
        if multi_node and estimate >= EXCHANGE_THRESHOLD:
            from ..cluster.placement_check import exchanged_rule_preds

            touched = exchanged_rule_preds(rule, placement)
            if touched:
                diagnostics.append(Diagnostic(
                    "R702",
                    f"rule for {equation.head!r} is estimated at "
                    f"~{estimate:.0e} rows against exchanged "
                    f"predicate(s) {sorted(touched)} on a "
                    f"{len(placement.nodes)}-node placement; every "
                    f"derivation round ships that volume across shards",
                    file=ctx.file, span=rule.span,
                    rule_label=rule.label, pred=equation.head))

    # A recursive component whose estimate climbs to the cap "converged"
    # only because the lattice is capped — that is non-stabilization too,
    # whether widening forced it there or plain iteration did.
    cyclic_preds: set = set()
    for component in tarjan_sccs(solution.graph):
        if len(component) > 1 or any(
                p in solution.graph.positive.get(p, ())
                for p in component):
            cyclic_preds |= set(component)
    runaway = set(solution.unstable)
    for equation in rule_equations:
        if (equation.head in cyclic_preds
                and solution.value(equation.head) >= _COST_CAP):
            runaway.add(equation.head)
    for pred in sorted(runaway):
        culprit = next((eq.rule for eq in solution.by_head.get(pred, ())
                        if eq.rule is not None), None)
        diagnostics.append(Diagnostic(
            "R704",
            f"recursive cardinality estimate for {pred!r} does not "
            f"stabilize (≥ {_COST_CAP:.0e} rows after widening); add a "
            f"depth bound or a key constraint to make the recursion "
            f"converge",
            file=ctx.file,
            span=culprit.span if culprit is not None else None,
            rule_label=culprit.label if culprit is not None else None,
            pred=pred))
    return diagnostics
