"""The analyzer's pass families.

Each pass is a function ``(ctx) -> list[Diagnostic]`` over an
:class:`~repro.analysis.pipeline.AnalysisContext`.  Passes reuse the
engine's own machinery rather than re-deriving it — safety verdicts come
from :func:`repro.datalog.runtime.check_rule_safety` (the authority the
workspace consults at activation), stratification from
:mod:`repro.datalog.stratify`, and placement from
:func:`repro.cluster.placement_check.analyze_join_compatibility` — so a
program the analyzer rejects is exactly a program the runtime would
reject, and the pass's job is to *explain* the rejection with a stable
code and a source span.

Pass families (see :mod:`repro.analysis.diagnostics` for the code table):

* ``safety`` — R001/R002/R003, range restriction and schedulability;
* ``stratification`` — R101/R102, with the offending cycle spelled out;
* ``types`` — R201 arity clashes (errors), R202 type conflicts
  (warnings; :meth:`Workspace.typecheck` reads the same inference), R203
  a fact or rule head over a Figure 1 relation (errors);
* ``deadcode`` — R301/R302/R303, informational;
* ``attribution`` — R401, says-shipped predicates read unattributed;
* ``placement`` — R501/R502, a placement dry-run without a cluster;
* ``authority`` — R601-R603, taint flow into authorization decisions
  (:mod:`repro.analysis.dataflow`);
* ``delegation`` — R611-R613, unbounded delegation recursion;
* ``cost`` — R701-R704, static cardinality/selectivity estimates.
"""

from __future__ import annotations

from typing import Optional

from ..datalog.errors import ReproError
from ..datalog.stratify import dependency_graph, find_negative_cycle
from ..datalog.terms import (
    BuiltinCall,
    Comparison,
    Constant,
    Constraint,
    Literal,
    Quote,
    Rule,
)
from ..workspace.catalog import Catalog, ReflectedWriteError
from .dataflow import (
    SYSTEM_PREDS as _SYSTEM_PREDS,
    _is_anon,
    _meta_preds,
    authority_pass,
    cost_pass,
    delegation_pass,
    quoted_functors as _quote_functors,
)
from .diagnostics import Diagnostic


def _var_names(item) -> set:
    return {v.name for v in item.variables()}


# ---------------------------------------------------------------------------
# safety — R001 / R002 / R003
# ---------------------------------------------------------------------------

def safety_pass(ctx) -> list[Diagnostic]:
    """Range restriction and body schedulability, of rules and of
    constraints.

    The verdict is the engine's (:func:`check_rule_safety` on the compiled
    rule, :func:`check_constraint_safety` on the compiled constraint —
    what :meth:`Workspace.add_constraint` consults); this pass only runs
    the classification when the engine rejects, so it can never flag a
    program the runtime accepts.
    """
    from ..datalog.runtime import check_rule_safety

    diagnostics: list[Diagnostic] = []
    for rule, compiled, error in ctx.compiled_rules():
        if compiled is None:
            diagnostics.append(Diagnostic(
                "R003", f"rule does not compile: {error}",
                file=ctx.file, span=rule.span, rule_label=rule.label))
            continue
        if compiled.is_fact():
            continue
        diagnostics.extend(_negated_unbound(ctx, rule, compiled))
        try:
            check_rule_safety(compiled, ctx.builtins)
        except ReproError as exc:
            diagnostics.extend(
                _classify_safety(ctx, rule, compiled, exc))
    return diagnostics + _constraint_safety(ctx)


def _constraint_safety(ctx) -> list[Diagnostic]:
    """R003 — a constraint side that cannot be scheduled: an LHS
    alternative from nothing, an RHS one from what its LHS binds."""
    from ..datalog.constraints import check_constraint_safety
    from ..meta.quote import compile_constraint

    found: list[Diagnostic] = []
    for statement in ctx.statements:
        if not isinstance(statement, Constraint):
            continue
        try:
            check_constraint_safety(
                compile_constraint(statement, None, ctx.builtins),
                ctx.builtins)
        except ReproError as exc:
            found.append(Diagnostic(
                "R003", str(exc), file=ctx.file, span=statement.span,
                rule_label=statement.label))
    return found


def _negated_unbound(ctx, rule: Rule, compiled: Rule) -> list[Diagnostic]:
    """R002 — the engine evaluates ``!r(Y)`` with unbound ``Y`` as plain
    non-existence, which is usually an unintended widening; warn."""
    from ..datalog.runtime import bindable_vars

    bound = None
    found: list[Diagnostic] = []
    for item in compiled.body:
        if not isinstance(item, Literal) or not item.negated:
            continue
        if bound is None:
            bound = bindable_vars(compiled.body, ctx.builtins)
        missing = sorted(n for n in _var_names(item)
                         if n not in bound and not _is_anon(n))
        if missing:
            found.append(Diagnostic(
                "R002",
                f"variable(s) {', '.join(missing)} in negated literal "
                f"!{item.atom.pred} are never bound by a positive literal "
                f"(the negation only checks non-existence; use _ if that "
                f"is intended)", file=ctx.file,
                span=item.span or rule.span, rule_label=rule.label,
                pred=item.atom.pred))
    return found


def _classify_safety(ctx, rule: Rule, compiled: Rule,
                     exc: Exception) -> list[Diagnostic]:
    from ..datalog.runtime import bindable_vars

    found: list[Diagnostic] = []
    bound = bindable_vars(compiled.body, ctx.builtins)
    if compiled.agg is not None:
        bound.add(compiled.agg.result.name)

    for item in compiled.body:
        if isinstance(item, Comparison) and item.op != "=":
            missing = sorted(n for n in _var_names(item) if n not in bound)
            if missing:
                found.append(Diagnostic(
                    "R003",
                    f"comparison {item.left!r} {item.op} {item.right!r} "
                    f"reads unbound variable(s) {', '.join(missing)}",
                    file=ctx.file, span=item.span or rule.span,
                    rule_label=rule.label))
        elif isinstance(item, BuiltinCall):
            definition = ctx.builtins.lookup(item.name)
            outputs = set(definition.output_positions) if definition else set()
            missing = sorted(
                name
                for position, arg in enumerate(item.args)
                if position not in outputs
                for name in _var_names(arg)
                if name not in bound)
            if missing:
                found.append(Diagnostic(
                    "R003",
                    f"builtin {item.name} reads unbound variable(s) "
                    f"{', '.join(missing)} at input positions",
                    file=ctx.file, span=rule.span, rule_label=rule.label))

    for head in compiled.heads:
        unsafe: list[str] = []
        for term in head.all_args:
            if isinstance(term, Quote):
                continue  # head templates legitimately keep variables
            unsafe.extend(n for n in _var_names(term) if n not in bound)
        if unsafe:
            found.append(Diagnostic(
                "R001",
                f"head variable(s) {', '.join(sorted(set(unsafe)))} of "
                f"{head.pred!r} are not bound by the rule body "
                f"(not range-restricted)", file=ctx.file,
                span=head.span or rule.span, rule_label=rule.label,
                pred=head.pred))

    if not found:
        found.append(Diagnostic(
            "R003", str(exc), file=ctx.file, span=rule.span,
            rule_label=rule.label))
    return found


# ---------------------------------------------------------------------------
# stratification — R101 / R102
# ---------------------------------------------------------------------------

def stratification_pass(ctx) -> list[Diagnostic]:
    """Negation/aggregation through recursion, with the cycle spelled out."""
    compiled = [c for _, c, _ in ctx.compiled_rules() if c is not None]
    if not compiled:
        return []
    graph = dependency_graph(compiled)
    offending = find_negative_cycle(graph)
    if offending is None:
        return []
    source, target, cycle = offending
    rendered = " -> ".join(cycle)
    # Attribute the cycle to the rule that closes it: a rule deriving
    # ``target`` from ``source`` under negation (R101) or aggregation
    # (R102).
    culprit: Optional[Rule] = None
    code = "R101"
    via = "negation"
    for rule, compiled_rule, _ in ctx.compiled_rules():
        if compiled_rule is None:
            continue
        heads = {h.pred for h in compiled_rule.heads}
        if target not in heads:
            continue
        for item in compiled_rule.body:
            if not isinstance(item, Literal) or item.atom.pred != source:
                continue
            if item.negated:
                culprit, code, via = rule, "R101", "negation"
                break
            if compiled_rule.agg is not None:
                culprit, code, via = rule, "R102", "aggregation"
                break
        if culprit is not None:
            break
    return [Diagnostic(
        code,
        f"predicate {target!r} depends on {source!r} through {via} inside "
        f"a recursive cycle ({rendered}); the program is not stratifiable",
        file=ctx.file,
        span=culprit.span if culprit is not None else None,
        rule_label=culprit.label if culprit is not None else None,
        pred=target)]


# ---------------------------------------------------------------------------
# types — R201 / R202
# ---------------------------------------------------------------------------

_COMPATIBLE = {
    frozenset({"int", "number"}),
    frozenset({"float", "number"}),
}


def compatible_types(a: str, b: str) -> bool:
    """Primitives are compatible with themselves (and ``any``); user types
    are nominal.  ``number`` abstracts over ``int``/``float``."""
    if a == b or "any" in (a, b):
        return True
    return frozenset({a, b}) in _COMPATIBLE


def infer_type_clashes(rule: Rule, catalog: Catalog) -> list[tuple]:
    """``(variable, (types...))`` for variables at incompatible positions.

    Infers, for every variable of a rule, the set of declared types
    implied by the positions it occupies, and reports variables pinned to
    two incompatible ones.  Shared by the R202 pass and
    :meth:`repro.workspace.workspace.Workspace.typecheck`.
    """
    var_types: dict[str, set] = {}

    def observe(atom) -> None:
        from ..datalog.terms import Variable
        info = catalog.get(atom.pred)
        if info is None or not info.declared:
            return
        for position, term in enumerate(atom.all_args):
            if not isinstance(term, Variable):
                continue
            declared = (info.arg_types[position]
                        if position < len(info.arg_types) else None)
            if declared is None:
                continue
            var_types.setdefault(term.name, set()).add(declared)

    for head in rule.heads:
        observe(head)
    for item in rule.body:
        if isinstance(item, Literal):
            observe(item.atom)

    clashes: list[tuple] = []
    for name, types in sorted(var_types.items()):
        concrete = sorted(types)
        clash = any(
            not compatible_types(a, b)
            for i, a in enumerate(concrete)
            for b in concrete[i + 1:]
        )
        if clash:
            clashes.append((name, tuple(concrete)))
    return clashes


def types_pass(ctx) -> list[Diagnostic]:
    """Arity clashes (R201, errors), type conflicts (R202, warnings) and
    writes into a Figure 1 relation (R203, errors), against the host's
    schema with this program observed into it."""
    diagnostics = [
        Diagnostic("R203" if isinstance(exc, ReflectedWriteError) else "R201",
                   str(exc), file=ctx.file,
                   span=getattr(atom, "span", None) or statement.span,
                   rule_label=statement.label,
                   pred=atom.pred if atom is not None else None)
        for statement, atom, exc in ctx.schema()]
    for statement in ctx.statements:
        if not isinstance(statement, Rule):
            continue
        for name, types in infer_type_clashes(statement, ctx.catalog):
            diagnostics.append(Diagnostic(
                "R202",
                f"variable {name} is used at positions typed "
                f"{', '.join(types)}", file=ctx.file, span=statement.span,
                rule_label=statement.label))
    return diagnostics


# ---------------------------------------------------------------------------
# deadcode — R301 / R302 / R303  (informational)
# ---------------------------------------------------------------------------

def deadcode_pass(ctx) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    derivable: set = set()
    declared: set = set()
    says_functors: set = set()

    for statement in ctx.statements:
        if isinstance(statement, Rule):
            for head in statement.heads:
                derivable.add(head.pred)
                says_functors |= _quote_functors(head)
            for item in statement.body:
                if isinstance(item, Literal):
                    says_functors |= _quote_functors(item.atom)
        elif isinstance(statement, Constraint):
            for side in (statement.lhs, statement.rhs):
                for alternative in side:
                    for item in alternative:
                        if isinstance(item, Literal):
                            declared.add(item.atom.pred)

    exempt = (derivable | declared | says_functors | _SYSTEM_PREDS
              | _meta_preds())
    reported: set = set()

    for statement in ctx.statements:
        if not isinstance(statement, Rule) or statement.is_fact():
            continue
        # R301 — a positive body read nothing in the program can supply.
        for item in statement.body:
            if not isinstance(item, Literal) or item.negated:
                continue
            pred = item.atom.pred
            if pred in exempt or pred in reported:
                continue
            if ctx.builtins.lookup(pred) is not None:
                continue
            reported.add(pred)
            diagnostics.append(Diagnostic(
                "R301",
                f"predicate {pred!r} is read here but has no rule, fact, "
                f"or declaration in this program (external EDB input?)",
                file=ctx.file, span=item.span or statement.span,
                rule_label=statement.label, pred=pred))
        # R302 — singleton variables.
        counts: dict[str, int] = {}
        for variable in statement.variables():
            counts[variable.name] = counts.get(variable.name, 0) + 1
        for name in sorted(n for n, c in counts.items()
                           if c == 1 and not _is_anon(n)):
            diagnostics.append(Diagnostic(
                "R302",
                f"variable {name} occurs only once in this rule "
                f"(use _ if the value is deliberately ignored)",
                file=ctx.file, span=statement.span,
                rule_label=statement.label))
        # R303 — unsatisfiable bodies.
        reason = _unsatisfiable(statement)
        if reason is not None:
            diagnostics.append(Diagnostic(
                "R303", f"rule can never fire: {reason}",
                file=ctx.file, span=statement.span,
                rule_label=statement.label))
    return diagnostics


_IRREFLEXIVE = {"<", ">", "!="}


def _unsatisfiable(rule: Rule) -> Optional[str]:
    positive = set()
    negative = set()
    for item in rule.body:
        if isinstance(item, Literal):
            (negative if item.negated else positive).add(item.atom)
        elif isinstance(item, Comparison):
            if item.left == item.right and item.op in _IRREFLEXIVE:
                return (f"comparison {item.left!r} {item.op} "
                        f"{item.right!r} is always false")
            if (isinstance(item.left, Constant)
                    and isinstance(item.right, Constant)):
                try:
                    if not _eval_const(item.op, item.left.value,
                                       item.right.value):
                        return (f"comparison {item.left!r} {item.op} "
                                f"{item.right!r} is always false")
                except TypeError:
                    pass
    clash = positive & negative
    if clash:
        atom = sorted(clash, key=repr)[0]
        return f"body contains both {atom!r} and !{atom!r}"
    return None


def _eval_const(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


# ---------------------------------------------------------------------------
# attribution — R401
# ---------------------------------------------------------------------------

def attribution_pass(ctx) -> list[Diagnostic]:
    """Says-shipped predicates read as plain literals.

    A predicate that only ever arrives through the authenticated ``says``
    channel (it is exported by a ``says(...)`` head or imported by a
    ``says(...)`` body pattern, and no local rule or fact derives it) must
    be read through a ``says`` pattern — a plain read silently drops the
    attribution the paper's section 4.1 machinery establishes.
    """
    exported: set = set()
    imported: set = set()
    derived: set = set()
    declared: set = set()

    for statement in ctx.statements:
        if isinstance(statement, Rule):
            for head in statement.heads:
                if head.pred == "says":
                    exported |= _quote_functors(head)
                else:
                    derived.add(head.pred)
            for item in statement.body:
                if isinstance(item, Literal) and item.atom.pred == "says":
                    imported |= _quote_functors(item.atom)
        elif isinstance(statement, Constraint):
            for side in (statement.lhs, statement.rhs):
                for alternative in side:
                    for item in alternative:
                        if isinstance(item, Literal):
                            declared.add(item.atom.pred)

    # Only *imports* break attribution: a predicate that arrives through a
    # says body pattern carries its speaker, and a plain read discards it.
    # Reading a predicate this context *exports* is ordinary local use
    # (e.g. the paper's dd3 reads inferredDelDepth while shipping it).
    shipped_only = imported - derived - declared
    if not shipped_only:
        return []

    diagnostics: list[Diagnostic] = []
    for statement in ctx.statements:
        if not isinstance(statement, Rule) or statement.is_fact():
            continue
        for item in statement.body:
            if not isinstance(item, Literal) or item.negated:
                continue
            pred = item.atom.pred
            if pred in shipped_only and pred != "says":
                diagnostics.append(Diagnostic(
                    "R401",
                    f"predicate {pred!r} travels through says (it is "
                    f"{'exported' if pred in exported else 'imported'} as "
                    f"a quoted pattern) but is read here as a plain "
                    f"literal with no local derivation — the attribution "
                    f"chain is broken", file=ctx.file,
                    span=item.span or statement.span,
                    rule_label=statement.label, pred=pred))
    return diagnostics


# ---------------------------------------------------------------------------
# placement — R501 / R502
# ---------------------------------------------------------------------------

def placement_pass(ctx) -> list[Diagnostic]:
    """Dry-run the cluster's static placement checks, no cluster needed."""
    if ctx.placement is None:
        return []
    from ..cluster.placement_check import (
        analyze_join_compatibility,
        nonmonotone_exchanges,
    )
    from ..datalog.engine import normalize_rules
    from ..datalog.errors import StratificationError

    spans: dict[str, tuple] = {}
    engine_rules = []
    for rule, compiled, _ in ctx.compiled_rules():
        if compiled is None or compiled.is_fact():
            continue
        for engine_rule in normalize_rules([compiled]):
            label = engine_rule.label or engine_rule.head.pred
            spans.setdefault(label, (rule.span, rule.label))
            engine_rules.append(engine_rule)

    diagnostics: list[Diagnostic] = []
    for issue in analyze_join_compatibility(engine_rules, ctx.placement):
        span, label = spans.get(issue.rule_label, (None, None))
        diagnostics.append(Diagnostic(
            "R501", issue.detail, file=ctx.file, span=span,
            rule_label=label or issue.rule_label,
            pred=issue.preds[0][0] if issue.preds else None))

    try:
        refused = nonmonotone_exchanges(engine_rules, ctx.placement)
    except StratificationError:
        refused = []  # already reported by the stratification pass
    for preds, detail in refused:
        diagnostics.append(Diagnostic("R502", detail, file=ctx.file,
                                      pred=preds[0]))
    return diagnostics


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name → pass function, in canonical execution order.
PASSES = {
    "safety": safety_pass,
    "stratification": stratification_pass,
    "types": types_pass,
    "deadcode": deadcode_pass,
    "attribution": attribution_pass,
    "placement": placement_pass,
    "authority": authority_pass,
    "delegation": delegation_pass,
    "cost": cost_pass,
}

#: Passes every surface runs by default.
DEFAULT_PASSES = tuple(PASSES)

#: Passes the load-time gates run: the engine-equivalent subset plus the
#: dataflow families, whose findings are warnings/infos (they surface in
#: ``last_check`` and the serve-plane load reply, never reject a load
#: unless a strict caller opts in).
GATE_PASSES = ("safety", "stratification", "types",
               "authority", "delegation", "cost")
