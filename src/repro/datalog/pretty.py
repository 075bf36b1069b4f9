"""Deterministic pretty-printer for the Datalog AST.

Two jobs:

* **Readable source** for debugging, error messages and examples (the
  output re-parses to an equal AST — tested by round-trip property tests).
* **Canonical form** for rule interning and signing: the LBTrust registry
  alpha-renames variables in order of first occurrence and prints with this
  module, so structurally identical rules produce byte-identical text.
  Binder-style certificates sign those canonical bytes
  (:mod:`repro.crypto.schemes`), making signatures independent of variable
  naming and whitespace in the original source.
"""

from __future__ import annotations

from .terms import (
    Aggregate,
    Atom,
    AtomPattern,
    BuiltinCall,
    Comparison,
    Constant,
    Constraint,
    EqPattern,
    Expr,
    Literal,
    MeToken,
    PartitionTerm,
    PatternValue,
    PredPartition,
    Quote,
    Rule,
    RulePattern,
    RuleRef,
    Star,
    StarLits,
    Term,
    Variable,
)


def format_value(value) -> str:
    """Print a ground value unambiguously."""
    if isinstance(value, bool):  # bool before int: True is an int
        return "true" if value else "false"
    if isinstance(value, str):
        # Escape exactly what the lexer's escape map can decode: a raw
        # newline/tab inside a string literal would otherwise produce
        # source text that does not re-parse (codec round-trip asymmetry).
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{escaped}"'
    if isinstance(value, float):
        # positional digits: the lexer reads no exponent (repr writes
        # 1e-05 and 1.2345678901234568e+17)
        text = repr(value)
        if "e" in text:
            from decimal import Decimal  # rare; kept off the import path

            text = format(Decimal(text), "f")
            text = text if "." in text else f"{text}.0"
        return text
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, bytes):
        return f"0x{value.hex()}"
    if isinstance(value, MeToken):
        return "me"
    if isinstance(value, RuleRef):
        return repr(value)
    if isinstance(value, PredPartition):
        keys = ",".join(format_value(k) for k in value.keys)
        return f"{value.pred}[{keys}]"
    if isinstance(value, PatternValue):
        return f"[| {format_pattern(value.pattern)} |]"
    if isinstance(value, tuple):
        return "{" + ",".join(format_value(v) for v in value) + "}"
    raise TypeError(f"cannot format value of type {type(value).__name__}: {value!r}")


def format_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Constant):
        return format_value(term.value)
    if isinstance(term, Expr):
        return f"({format_term(term.left)} {term.op} {format_term(term.right)})"
    if isinstance(term, PartitionTerm):
        keys = ",".join(format_term(k) for k in term.keys)
        return f"{term.pred}[{keys}]"
    if isinstance(term, Quote):
        return f"[| {format_pattern(term.pattern)} |]"
    raise TypeError(f"cannot format term {term!r}")


def format_atom(atom: Atom) -> str:
    keys = ""
    if atom.keys:
        keys = "[" + ",".join(format_term(k) for k in atom.keys) + "]"
    args = ",".join(format_term(a) for a in atom.args)
    return f"{atom.pred}{keys}({args})"


def format_body_item(item) -> str:
    if isinstance(item, Literal):
        return ("!" if item.negated else "") + format_atom(item.atom)
    if isinstance(item, Comparison):
        return f"{format_term(item.left)} {item.op} {format_term(item.right)}"
    if isinstance(item, BuiltinCall):
        args = ",".join(format_term(a) for a in item.args)
        return f"{item.name}({args})"
    raise TypeError(f"cannot format body item {item!r}")


def format_aggregate(agg: Aggregate) -> str:
    return f"agg<<{agg.result.name} = {agg.func}({format_term(agg.over)})>>"


def format_pattern_atom(pat: AtomPattern) -> str:
    neg = "!" if pat.negated else ""
    if pat.args is None:
        return f"{neg}{pat.functor.name}"
    name = pat.functor if isinstance(pat.functor, str) else pat.functor.name
    parts = []
    for arg in pat.args:
        if isinstance(arg, Star):
            parts.append(f"{arg.var or ''}*")
        else:
            parts.append(format_term(arg))
    return f"{neg}{name}({','.join(parts)})"


def format_pattern(pattern: RulePattern) -> str:
    heads = ", ".join(format_pattern_atom(h) for h in pattern.heads)
    if not pattern.has_arrow and not pattern.body:
        return f"{heads}."
    body_parts = []
    for lit in pattern.body:
        if isinstance(lit, AtomPattern):
            body_parts.append(format_pattern_atom(lit))
        elif isinstance(lit, StarLits):
            body_parts.append(f"{lit.var or ''}*")
        elif isinstance(lit, EqPattern):
            body_parts.append(f"{lit.var.name} = [| {format_pattern(lit.quote.pattern)} |]")
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot format pattern literal {lit!r}")
    return f"{heads} <- {', '.join(body_parts)}."


def format_rule(rule: Rule) -> str:
    heads = ", ".join(format_atom(h) for h in rule.heads)
    if rule.is_fact():
        return f"{heads}."
    body = ", ".join(format_body_item(item) for item in rule.body)
    if rule.agg is not None:
        body = f"{format_aggregate(rule.agg)} {body}" if body else format_aggregate(rule.agg)
    return f"{heads} <- {body}."


def format_constraint(constraint: Constraint) -> str:
    if constraint.source:
        return constraint.source

    def fmt_dnf(alternatives: tuple) -> str:
        conjs = [
            ", ".join(format_body_item(item) for item in alt)
            for alt in alternatives
        ]
        if len(conjs) == 1:
            return conjs[0]
        return "; ".join(f"({c})" for c in conjs)

    rhs = fmt_dnf(constraint.rhs) if constraint.rhs else ""
    return f"{fmt_dnf(constraint.lhs)} -> {rhs}."


def format_statement(statement) -> str:
    if isinstance(statement, Rule):
        return format_rule(statement)
    if isinstance(statement, Constraint):
        return format_constraint(statement)
    raise TypeError(f"cannot format {statement!r}")


# ---------------------------------------------------------------------------
# Canonical (alpha-renamed) form — used for interning and signing
# ---------------------------------------------------------------------------

def canonical_rule(rule: Rule) -> str:
    """Alpha-rename variables to V0,V1,… in order of appearance and print.

    Two rules that differ only in variable names (or in the freshness
    counter of anonymous variables) produce identical canonical text.
    """
    mapping: dict[str, Variable] = {}

    def rename_var(var: Variable) -> Variable:
        if var.name not in mapping:
            mapping[var.name] = Variable(f"V{len(mapping)}")
        return mapping[var.name]

    def rename_term(term: Term) -> Term:
        if isinstance(term, Variable):
            return rename_var(term)
        if isinstance(term, Expr):
            return Expr(term.op, rename_term(term.left), rename_term(term.right))
        if isinstance(term, PartitionTerm):
            return PartitionTerm(term.pred, tuple(rename_term(k) for k in term.keys))
        if isinstance(term, Quote):
            return Quote(rename_pattern(term.pattern))
        if isinstance(term, Constant) and isinstance(term.value, PatternValue):
            # Pattern values print as quotes; renaming their variables too
            # keeps the canonical text identical whether the pattern is a
            # parsed quote term or a first-class value — signatures must
            # not depend on that representation detail.
            return Constant(PatternValue(rename_pattern(term.value.pattern)))
        return term

    def rename_atom(atom: Atom) -> Atom:
        return Atom(
            atom.pred,
            tuple(rename_term(a) for a in atom.args),
            tuple(rename_term(k) for k in atom.keys),
        )

    def rename_pattern_atom(pat: AtomPattern) -> AtomPattern:
        functor = pat.functor
        if isinstance(functor, Variable):
            functor = rename_var(functor)
        args = None
        if pat.args is not None:
            new_args = []
            for arg in pat.args:
                if isinstance(arg, Star):
                    new_args.append(Star(None))  # star names are irrelevant
                else:
                    new_args.append(rename_term(arg))
            args = tuple(new_args)
        return AtomPattern(functor, args, pat.negated)

    def rename_pattern(pattern: RulePattern) -> RulePattern:
        heads = tuple(rename_pattern_atom(h) for h in pattern.heads)
        body = []
        for lit in pattern.body:
            if isinstance(lit, AtomPattern):
                body.append(rename_pattern_atom(lit))
            elif isinstance(lit, StarLits):
                body.append(StarLits(None))
            elif isinstance(lit, EqPattern):
                body.append(EqPattern(rename_var(lit.var), Quote(rename_pattern(lit.quote.pattern))))
        return RulePattern(heads, tuple(body), pattern.has_arrow)

    def rename_item(item):
        if isinstance(item, Literal):
            return Literal(rename_atom(item.atom), item.negated)
        if isinstance(item, Comparison):
            return Comparison(item.op, rename_term(item.left), rename_term(item.right))
        if isinstance(item, BuiltinCall):
            return BuiltinCall(item.name, tuple(rename_term(a) for a in item.args))
        raise TypeError(f"unexpected body item {item!r}")  # pragma: no cover

    agg = None
    if rule.agg is not None:
        agg = Aggregate(rule.agg.func, rename_var(rule.agg.result), rename_term(rule.agg.over))
        # note: aggregate variables are renamed before the body so the
        # result variable gets a stable index.
    heads = tuple(rename_atom(h) for h in rule.heads)
    body = tuple(rename_item(i) for i in rule.body)
    return format_rule(Rule(heads, body, agg, None))


def canonical_constraint(constraint: Constraint) -> str:
    """Alpha-normalized text of a constraint (for deduplication).

    Each DNF side is rendered through :func:`canonical_rule` with a dummy
    head so variable naming from quote compilation does not affect
    equality.
    """
    def canon_side(alternatives: tuple) -> str:
        rendered = [
            canonical_rule(Rule((Atom("$c", ()),), alternative))
            for alternative in alternatives
        ]
        return " ; ".join(rendered)

    return f"{canon_side(constraint.lhs)} -> {canon_side(constraint.rhs)}"
