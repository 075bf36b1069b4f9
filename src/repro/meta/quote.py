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

2. :func:`compile_statement` — the full normalization a workspace applies
   when loading source: resolve ``me`` to the owning principal, replace
   body quotes by fresh variables plus their compiled meta-atoms, and turn
   body literals whose functor is a registered builtin into
   :class:`repro.datalog.terms.BuiltinCall` items.  Head-position quotes
   survive as templates — they are code generation and run inside the
   engine.
"""

from __future__ import annotations

from typing import Optional

from ..datalog.builtins import BuiltinRegistry
from ..datalog.errors import SafetyError
from ..datalog.terms import (
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
    Quote,
    Rule,
    RulePattern,
    Star,
    StarLits,
    Term,
    Variable,
    fresh_var,
    is_anonymous,
)


# ---------------------------------------------------------------------------
# me resolution
# ---------------------------------------------------------------------------

def resolve_me_term(term: Term, principal: str) -> Term:
    if isinstance(term, Constant) and isinstance(term.value, MeToken):
        return Constant(principal)
    if isinstance(term, Expr):
        return Expr(term.op,
                    resolve_me_term(term.left, principal),
                    resolve_me_term(term.right, principal))
    if isinstance(term, PartitionTerm):
        return PartitionTerm(term.pred,
                             tuple(resolve_me_term(k, principal) for k in term.keys))
    if isinstance(term, Quote):
        return Quote(resolve_me_pattern(term.pattern, principal))
    return term


def resolve_me_pattern(pattern: RulePattern, principal: str) -> RulePattern:
    def resolve_atom(atom_pattern: AtomPattern) -> AtomPattern:
        if atom_pattern.args is None:
            return atom_pattern
        args = tuple(
            arg if isinstance(arg, Star) else resolve_me_term(arg, principal)
            for arg in atom_pattern.args
        )
        return AtomPattern(atom_pattern.functor, args, atom_pattern.negated)

    heads = tuple(resolve_atom(h) for h in pattern.heads)
    body: list = []
    for lit in pattern.body:
        if isinstance(lit, AtomPattern):
            body.append(resolve_atom(lit))
        elif isinstance(lit, EqPattern):
            body.append(EqPattern(lit.var,
                                  Quote(resolve_me_pattern(lit.quote.pattern, principal))))
        else:
            body.append(lit)
    return RulePattern(heads, tuple(body), pattern.has_arrow)


def _term_holds_me(term: Term) -> bool:
    if isinstance(term, Constant):
        return isinstance(term.value, MeToken)
    if isinstance(term, Expr):
        return _term_holds_me(term.left) or _term_holds_me(term.right)
    if isinstance(term, PartitionTerm):
        return any(map(_term_holds_me, term.keys))
    if isinstance(term, Quote):
        return _pattern_holds_me(term.pattern)
    return False


def _pattern_holds_me(pattern: RulePattern) -> bool:
    for lit in pattern.heads + pattern.body:
        if isinstance(lit, AtomPattern):
            if any(map(_term_holds_me, lit.args or ())):
                return True
        elif isinstance(lit, EqPattern) and _pattern_holds_me(lit.quote.pattern):
            return True
    return False


def _rule_holds_me(rule: Rule) -> bool:
    """True when ``me`` occurs where :func:`resolve_me_rule` resolves it
    (or the body holds an item it cannot resolve)."""
    for head in rule.heads:
        if any(map(_term_holds_me, head.all_args)):
            return True
    for item in rule.body:
        if isinstance(item, Literal):
            terms = item.atom.all_args
        elif isinstance(item, Comparison):
            terms = (item.left, item.right)
        elif isinstance(item, BuiltinCall):
            terms = item.args
        else:
            return True
        if any(map(_term_holds_me, terms)):
            return True
    return False


def resolve_me_atom(atom: Atom, principal: str) -> Atom:
    return Atom(
        atom.pred,
        tuple(resolve_me_term(t, principal) for t in atom.args),
        tuple(resolve_me_term(t, principal) for t in atom.keys),
        span=atom.span,
    )


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
    if not _rule_holds_me(rule):
        return rule
    heads = tuple(resolve_me_atom(h, principal) for h in rule.heads)
    body: list = []
    for item in rule.body:
        if isinstance(item, Literal):
            body.append(Literal(resolve_me_atom(item.atom, principal),
                                item.negated, span=item.span))
        elif isinstance(item, Comparison):
            body.append(Comparison(item.op,
                                   resolve_me_term(item.left, principal),
                                   resolve_me_term(item.right, principal),
                                   span=item.span))
        elif isinstance(item, BuiltinCall):
            body.append(BuiltinCall(item.name, tuple(
                resolve_me_term(t, principal) for t in item.args)))
        else:  # pragma: no cover - defensive
            raise SafetyError(f"unexpected body item {item!r}")
    return Rule(heads, tuple(body), rule.agg, rule.label, span=rule.span)


def compile_rule(rule: Rule, principal: Optional[str],
                 builtins: Optional[BuiltinRegistry] = None) -> Rule:
    """Normalize one source rule for the engine.

    Resolves ``me``, compiles body quotes to meta-atom joins, and converts
    builtin functors.  Head quotes remain as instantiation templates.
    """
    heads = tuple(
        resolve_me_atom(h, principal) if principal is not None else h
        for h in rule.heads
    )
    body = compile_body_items(rule.body, principal, builtins)
    return Rule(heads, tuple(body), rule.agg, rule.label, span=rule.span)


def compile_constraint(constraint: Constraint, principal: Optional[str],
                       builtins: Optional[BuiltinRegistry] = None) -> Constraint:
    """Normalize a constraint: both DNF sides get the body treatment."""
    lhs = tuple(
        tuple(compile_body_items(alternative, principal, builtins))
        for alternative in constraint.lhs
    )
    rhs = tuple(
        tuple(compile_body_items(alternative, principal, builtins))
        for alternative in constraint.rhs
    )
    return Constraint(lhs, rhs, constraint.label, constraint.source,
                      span=constraint.span)


def compile_body_items(items: tuple, principal: Optional[str],
                       builtins: Optional[BuiltinRegistry]) -> list:
    compiled: list = []
    for item in items:
        if isinstance(item, Literal):
            atom = item.atom
            if principal is not None:
                atom = resolve_me_atom(atom, principal)
            atom, extra = _extract_quotes(atom)
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
            left = resolve_me_term(item.left, principal) if principal else item.left
            right = resolve_me_term(item.right, principal) if principal else item.right
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
                compiled.append(Comparison(item.op, left, right,
                                           span=item.span))
        elif isinstance(item, BuiltinCall):
            args = tuple(
                resolve_me_term(t, principal) if principal else t
                for t in item.args
            )
            compiled.append(BuiltinCall(item.name, args))
        else:  # pragma: no cover - defensive
            raise SafetyError(f"unexpected body item {item!r}")
    return compiled


def _extract_quotes(atom: Atom) -> tuple:
    """Replace quote args of a body atom by fresh vars + pattern atoms."""
    extra: list = []
    new_args: list = []
    for term in atom.args:
        if isinstance(term, Quote):
            quote_var = fresh_var("_Q")
            new_args.append(quote_var)
            extra.extend(compile_pattern(term.pattern, quote_var))
        else:
            new_args.append(term)
    new_keys: list = []
    for term in atom.keys:
        if isinstance(term, Quote):
            quote_var = fresh_var("_Q")
            new_keys.append(quote_var)
            extra.extend(compile_pattern(term.pattern, quote_var))
        else:
            new_keys.append(term)
    return Atom(atom.pred, tuple(new_args), tuple(new_keys)), extra
