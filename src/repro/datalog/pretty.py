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
from typing import Optional

from .errors import SafetyError
from .terms import (
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


def _format_expr(left: str, op: str, right: str) -> str:
    # modulo is glued: the lexer reads an unglued ``%`` as a line comment
    if op == "%":
        return f"({left}%{right})"
    return f"({left} {op} {right})"


class _Printer:
    """One walk that prints a rule, a body item or a pattern: as written,
    or canonical — variables renamed ``V0``, ``V1``, … in the order the
    walk visits them, star names dropped, ``me`` and non-finite floats
    refused (:func:`canonical_rule`)."""

    def __init__(self, canonical: bool = False) -> None:
        self.names: Optional[dict] = {} if canonical else None

    def var(self, variable: Variable) -> str:
        names = self.names
        if names is None:
            return variable.name
        name = names.get(variable.name)
        if name is None:
            name = names[variable.name] = f"V{len(names)}"
        return name

    def term(self, t: Term) -> str:
        if isinstance(t, Variable):
            return self.var(t)
        if isinstance(t, Constant):
            if isinstance(t.value, PatternValue):
                # Pattern values print as quotes; renaming their variables
                # too keeps the canonical text identical whether the
                # pattern is a parsed quote term or a first-class value.
                return f"[| {self.pattern(t.value.pattern)} |]"
            if self.names is None:
                return format_value(t.value)
            return _canonical_value(t.value)
        if isinstance(t, Expr):
            return _format_expr(self.term(t.left), t.op, self.term(t.right))
        if isinstance(t, PartitionTerm):
            return f"{t.pred}[{','.join(map(self.term, t.keys))}]"
        if isinstance(t, Quote):
            return f"[| {self.pattern(t.pattern)} |]"
        raise TypeError(f"cannot format term {t!r}")

    def atom(self, a: Atom) -> str:
        args = ",".join(map(self.term, a.args))   # numbered before the keys
        if a.keys:
            return f"{a.pred}[{','.join(map(self.term, a.keys))}]({args})"
        return f"{a.pred}({args})"

    def item(self, i) -> str:
        if isinstance(i, Literal):
            return ("!" if i.negated else "") + self.atom(i.atom)
        if isinstance(i, Comparison):
            return f"{self.term(i.left)} {i.op} {self.term(i.right)}"
        if isinstance(i, BuiltinCall):
            return f"{i.name}({','.join(map(self.term, i.args))})"
        raise TypeError(f"cannot format body item {i!r}")

    def star(self, name: Optional[str]) -> str:
        return "*" if self.names is not None else f"{name or ''}*"

    def pattern_atom(self, p: AtomPattern) -> str:
        neg = "!" if p.negated else ""
        functor = p.functor if isinstance(p.functor, str) else self.var(p.functor)
        if p.args is None:
            return neg + functor
        args = ",".join(self.star(a.var) if isinstance(a, Star) else self.term(a)
                        for a in p.args)
        return f"{neg}{functor}({args})"

    def pattern_lit(self, lit) -> str:
        if isinstance(lit, AtomPattern):
            return self.pattern_atom(lit)
        if isinstance(lit, StarLits):
            return self.star(lit.var)
        if isinstance(lit, EqPattern):
            return f"{self.var(lit.var)} = [| {self.pattern(lit.quote.pattern)} |]"
        raise TypeError(f"cannot format pattern literal {lit!r}")

    def pattern(self, p: RulePattern) -> str:
        heads = ", ".join(map(self.pattern_atom, p.heads))
        if not p.has_arrow and not p.body:
            return f"{heads}."
        return f"{heads} <- {', '.join(map(self.pattern_lit, p.body))}."

    def rule(self, rule: Rule) -> str:
        agg = rule.agg
        if agg is not None:   # numbered first
            agg_text = (f"agg<<{self.var(agg.result)} = "
                        f"{agg.func}({self.term(agg.over)})>>")
        heads = ", ".join(map(self.atom, rule.heads))
        if not rule.body and agg is None:
            return f"{heads}."
        body = ", ".join(map(self.item, rule.body))
        if agg is not None:
            body = f"{agg_text} {body}" if body else agg_text
        return f"{heads} <- {body}."


def format_pattern(pattern: RulePattern) -> str:
    return _Printer().pattern(pattern)


def format_rule(rule: Rule) -> str:
    return _Printer().rule(rule)


def format_constraint(constraint: Constraint) -> str:
    if constraint.source:
        return constraint.source
    item = _Printer().item

    def fmt_dnf(alternatives: tuple) -> str:
        conjs = [", ".join(map(item, alt)) for alt in alternatives]
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
    return _Printer(canonical=True).rule(rule)


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
