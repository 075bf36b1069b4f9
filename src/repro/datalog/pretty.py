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

import math

from .errors import SafetyError
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
        return _format_expr(format_term(term.left), term.op,
                            format_term(term.right))
    if isinstance(term, PartitionTerm):
        keys = ",".join(format_term(k) for k in term.keys)
        return f"{term.pred}[{keys}]"
    if isinstance(term, Quote):
        return f"[| {format_pattern(term.pattern)} |]"
    raise TypeError(f"cannot format term {term!r}")


def _format_expr(left: str, op: str, right: str) -> str:
    # modulo is glued: the lexer reads an unglued ``%`` as a line comment
    if op == "%":
        return f"({left}%{right})"
    return f"({left} {op} {right})"


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
    One walk renames and prints.  Variables are numbered in the order the
    aggregate, then the heads (arguments before partition keys), then
    the body are visited — not the order they print — which keeps every
    canonical text, and so every signature and content address, stable.

    A rule with no context-free text is refused with :class:`SafetyError`:
    one still holding ``me`` (principals resolve it before a rule becomes
    data), or one holding a non-finite float, which prints as a name that
    reads back as a different value.
    """
    names: dict[str, str] = {}

    def var(variable: Variable) -> str:
        name = names.get(variable.name)
        if name is None:
            name = names[variable.name] = f"V{len(names)}"
        return name

    def term(t: Term) -> str:
        if isinstance(t, Variable):
            return var(t)
        if isinstance(t, Constant):
            if isinstance(t.value, PatternValue):
                # Pattern values print as quotes; renaming their variables
                # too keeps the canonical text identical whether the
                # pattern is a parsed quote term or a first-class value.
                return f"[| {pattern(t.value.pattern)} |]"
            return _canonical_value(t.value)
        if isinstance(t, Expr):
            return _format_expr(term(t.left), t.op, term(t.right))
        if isinstance(t, PartitionTerm):
            return f"{t.pred}[{','.join(map(term, t.keys))}]"
        if isinstance(t, Quote):
            return f"[| {pattern(t.pattern)} |]"
        raise TypeError(f"cannot format term {t!r}")

    def atom(a: Atom) -> str:
        args = ",".join(map(term, a.args))
        if a.keys:
            return f"{a.pred}[{','.join(map(term, a.keys))}]({args})"
        return f"{a.pred}({args})"

    def item(i) -> str:
        if isinstance(i, Literal):
            return ("!" if i.negated else "") + atom(i.atom)
        if isinstance(i, Comparison):
            return f"{term(i.left)} {i.op} {term(i.right)}"
        if isinstance(i, BuiltinCall):
            return f"{i.name}({','.join(map(term, i.args))})"
        raise TypeError(f"cannot format body item {i!r}")

    def pattern_atom(p: AtomPattern) -> str:
        neg = "!" if p.negated else ""
        functor = p.functor if isinstance(p.functor, str) else var(p.functor)
        if p.args is None:
            return neg + functor
        # star names are irrelevant
        args = ",".join("*" if isinstance(a, Star) else term(a) for a in p.args)
        return f"{neg}{functor}({args})"

    def pattern_lit(lit) -> str:
        if isinstance(lit, AtomPattern):
            return pattern_atom(lit)
        if isinstance(lit, StarLits):
            return "*"
        if isinstance(lit, EqPattern):
            return f"{var(lit.var)} = [| {pattern(lit.quote.pattern)} |]"
        raise TypeError(f"cannot format pattern literal {lit!r}")

    def pattern(p: RulePattern) -> str:
        heads = ", ".join(map(pattern_atom, p.heads))
        if not p.has_arrow and not p.body:
            return f"{heads}."
        return f"{heads} <- {', '.join(map(pattern_lit, p.body))}."

    agg = rule.agg
    if agg is not None:
        agg_text = f"agg<<{var(agg.result)} = {agg.func}({term(agg.over)})>>"
    heads = ", ".join(map(atom, rule.heads))
    if not rule.body and agg is None:
        return f"{heads}."
    body = ", ".join(map(item, rule.body))
    if agg is not None:
        body = f"{agg_text} {body}" if body else agg_text
    return f"{heads} <- {body}."


def _canonical_value(value) -> str:
    if isinstance(value, MeToken):
        raise SafetyError(
            "cannot intern a rule still containing 'me'; resolve the local "
            "principal first (Workspace does this on load)"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise SafetyError(f"a rule holding the float {value!r} has no "
                          "canonical text: it would read back as a name")
    if isinstance(value, tuple):
        return "{" + ",".join(map(_canonical_value, value)) + "}"
    return format_value(value)


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
