"""Quoted-code compilation and the statement compile pipeline.

Two halves:

1. :func:`compile_pattern` — a *body-position* quote becomes a conjunction
   of meta-model atoms, exactly the translation the paper shows in
   section 3.3::

       owner(U, [| A <- P(T2*), A*. |]) -> access(U,P,read).
         ⇒
       owner(U,R1), rule(R1), body(R1,A1), atom(A1), functor(A1,P)
         -> access(U,P,read).

   Conventions (DESIGN.md section 6): meta-variables in functor position
   bind predicate names; in term position they bind *constant values* (via
   ``value``); a Kleene star ends constraint emission for the remaining
   positions; argument lists without a star constrain ``arity``; a quoted
   fact (no ``<-``) additionally requires ``factrule``.

2. :func:`compile_rule` / :func:`compile_constraint` — the full
   normalization a workspace applies when loading source: resolve ``me``
   to the owning principal (:func:`resolve_me`, one
   :func:`~repro.datalog.terms.substitute` walk), replace body quotes by
   fresh variables plus their compiled meta-atoms, and turn body literals
   whose functor is a registered builtin into
   :class:`repro.datalog.terms.BuiltinCall` items.  Head-position quotes
   survive as templates — they are code generation and run inside the
   engine.
"""

from __future__ import annotations

from typing import Optional

from ..datalog.builtins import BuiltinRegistry
from ..datalog.errors import SafetyError
from ..datalog.terms import (
    ME,
    Atom,
    AtomPattern,
    BuiltinCall,
    Comparison,
    Constant,
    Constraint,
    EqPattern,
    Literal,
    Quote,
    Rule,
    RulePattern,
    Star,
    StarLits,
    Term,
    Variable,
    fresh_var,
    is_anonymous,
    substitute,
)


# ---------------------------------------------------------------------------
# me resolution
# ---------------------------------------------------------------------------

def resolve_me(node, principal: str):
    """``node`` (a rule, constraint, atom, term or pattern) with every
    ``me`` the owning principal's name: one :func:`substitute` walk, so a
    node with no ``me`` comes back as it is."""
    here = Constant(principal)

    def rewrite(term: Term) -> Term:
        return here if isinstance(term, Constant) and term.value is ME else term

    return substitute(node, rewrite)


# ---------------------------------------------------------------------------
# Pattern compilation (body-position quotes)
# ---------------------------------------------------------------------------

def compile_pattern(pattern: RulePattern, rule_var: Variable) -> list:
    """Meta-model atoms expressing that ``rule_var`` matches ``pattern``."""
    items: list = [Literal(Atom("rule", (rule_var,)))]
    if not pattern.has_arrow and not pattern.body:
        items.append(Literal(Atom("factrule", (rule_var,))))
    for atom_pattern in pattern.heads:
        items.extend(_compile_atom_pattern(atom_pattern, rule_var, "head"))
    for lit in pattern.body:
        if isinstance(lit, AtomPattern):
            items.extend(_compile_atom_pattern(lit, rule_var, "body"))
        elif isinstance(lit, StarLits):
            continue
        elif isinstance(lit, EqPattern):
            items.extend(compile_pattern(lit.quote.pattern, lit.var))
        else:  # pragma: no cover - parser prevents
            raise SafetyError(f"unexpected pattern literal {lit!r}")
    return items


def _compile_atom_pattern(atom_pattern: AtomPattern, rule_var: Variable,
                          role: str) -> list:
    items: list = []
    if atom_pattern.is_bare_metavar():
        # A bare meta-variable matches any atom in this role; anonymous
        # ones impose no constraint at all (the paper's translation drops
        # the unconstrained head entirely).
        if is_anonymous(atom_pattern.functor):
            return []
        atom_var = atom_pattern.functor
        items.append(Literal(Atom(role, (rule_var, atom_var))))
        items.append(Literal(Atom("atom", (atom_var,))))
        return items

    atom_var = fresh_var("_MA")
    items.append(Literal(Atom(role, (rule_var, atom_var))))
    items.append(Literal(Atom("atom", (atom_var,))))
    functor = atom_pattern.functor
    functor_term: Term = Constant(functor) if isinstance(functor, str) else functor
    items.append(Literal(Atom("functor", (atom_var, functor_term))))
    if atom_pattern.negated:
        items.append(Literal(Atom("negated", (atom_var,))))

    args = atom_pattern.args or ()
    has_star = any(isinstance(arg, Star) for arg in args)
    for index, arg in enumerate(args):
        if isinstance(arg, Star):
            break
        if isinstance(arg, Variable) and is_anonymous(arg):
            continue  # don't-care position
        term_var = fresh_var("_MT")
        items.append(Literal(Atom("arg", (atom_var, Constant(index), term_var))))
        if isinstance(arg, Quote):
            items.append(Literal(Atom("quoteterm", (term_var,))))
            continue
        # Constants and (meta-)variables both match through `value`: the
        # meta-variable binds the constant's value (or joins when bound).
        items.append(Literal(Atom("value", (term_var, arg))))
    if not has_star:
        items.append(Literal(Atom("arity", (atom_var, Constant(len(args))))))
    return items


# ---------------------------------------------------------------------------
# Statement compilation
# ---------------------------------------------------------------------------

def resolve_me_rule(rule: Rule, principal: str) -> Rule:
    """Resolve ``me`` only, keeping quotes and body structure intact.

    This is the form rules are *interned* in: context-independent (no
    ``me``) but still carrying their quoted patterns, so reification
    exposes them (``quoteterm`` + pattern values) and activation compiles
    them in the receiving context.  A rule with no ``me`` comes back
    as it is.
    """
    return resolve_me(rule, principal)


def compile_rule(rule: Rule, principal: Optional[str],
                 builtins: Optional[BuiltinRegistry] = None) -> Rule:
    """Normalize one source rule for the engine.

    Resolves ``me``, compiles body quotes to meta-atom joins, and converts
    builtin functors.  Head quotes remain as instantiation templates.
    """
    if principal is not None:
        rule = resolve_me(rule, principal)
    body = compile_body_items(rule.body, builtins)
    return Rule(rule.heads, tuple(body), rule.agg, rule.label, span=rule.span)


def compile_constraint(constraint: Constraint, principal: Optional[str],
                       builtins: Optional[BuiltinRegistry] = None) -> Constraint:
    """Normalize a constraint: both DNF sides get the body treatment."""
    if principal is not None:
        constraint = resolve_me(constraint, principal)
    lhs, rhs = (
        tuple(tuple(compile_body_items(alternative, builtins))
              for alternative in side)
        for side in (constraint.lhs, constraint.rhs))
    return Constraint(lhs, rhs, constraint.label, constraint.source,
                      span=constraint.span)


def compile_body_items(items: tuple,
                       builtins: Optional[BuiltinRegistry]) -> list:
    compiled: list = []
    for item in items:
        if isinstance(item, Literal):
            atom, extra = _extract_quotes(item.atom)
            if extra and item.negated:
                raise SafetyError(
                    f"negated literal {item!r} cannot contain a quoted "
                    f"pattern (the match is existential)"
                )
            if builtins is not None and builtins.lookup(atom.pred) is not None:
                if item.negated:
                    raise SafetyError(
                        f"cannot negate builtin {atom.pred!r}; use its "
                        f"positive complement (e.g. list_not_member)"
                    )
                compiled.append(BuiltinCall(atom.pred, atom.all_args))
            else:
                compiled.append(Literal(atom, item.negated, span=item.span))
            compiled.extend(extra)
        elif isinstance(item, Comparison):
            left, right = item.left, item.right
            if item.op == "=" and isinstance(right, Quote) and isinstance(left, Variable):
                compiled.extend(compile_pattern(right.pattern, left))
            elif item.op == "=" and isinstance(left, Quote) and isinstance(right, Variable):
                compiled.extend(compile_pattern(left.pattern, right))
            elif isinstance(left, Quote) or isinstance(right, Quote):
                raise SafetyError(
                    f"quotes may only appear in '=' pattern bindings or as "
                    f"atom arguments, not in {item!r}"
                )
            else:
                compiled.append(item)
        elif isinstance(item, BuiltinCall):
            compiled.append(item)
        else:  # pragma: no cover - defensive
            raise SafetyError(f"unexpected body item {item!r}")
    return compiled


def _extract_quotes(atom: Atom) -> tuple:
    """Replace quote args and keys of a body atom by fresh vars + pattern
    atoms."""
    extra: list = []
    args_keys: list = []
    for terms in (atom.args, atom.keys):
        unquoted = []
        for term in terms:
            if isinstance(term, Quote):
                quote_var = fresh_var("_Q")
                extra.extend(compile_pattern(term.pattern, quote_var))
                term = quote_var
            unquoted.append(term)
        args_keys.append(tuple(unquoted))
    return Atom(atom.pred, *args_keys), extra
