"""The one rewrite walk over rules as data, held to the walkers it replaced.

``me`` resolution (:func:`repro.meta.quote.resolve_me`) and template
filling (:func:`repro.meta.registry.substitute_bindings`) are each one
:func:`repro.datalog.terms.substitute` call.  Before that, each had a
hand-written walker of its own; those are copied below as oracles (as
``copy_then_format`` holds the canonical printer), and generated rules,
constraints and patterns must come out of the new walk exactly as they
came out of the old ones: equal, with the same canonical text and the
same spans, with no ``me`` left, and — where nothing is rewritten — as
the very same object.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog.errors import ReproError, SafetyError
from repro.datalog.pretty import canonical_rule, format_pattern, format_statement
from repro.datalog.runtime import EvalContext, eval_term
from repro.datalog.terms import (
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
    substitute,
)
from repro.meta.quote import resolve_me, resolve_me_rule
from repro.meta.registry import instantiate_pattern, substitute_bindings
from strategies import (
    constraint_texts,
    identifiers,
    pattern_texts,
    rule_texts,
    the_statement,
    var_names,
)

# -- the walkers substitute replaced (oracles) --------------------------------


def old_resolve_me_term(term, principal):
    if isinstance(term, Constant) and isinstance(term.value, MeToken):
        return Constant(principal)
    if isinstance(term, Expr):
        return Expr(term.op, old_resolve_me_term(term.left, principal),
                    old_resolve_me_term(term.right, principal))
    if isinstance(term, PartitionTerm):
        return PartitionTerm(term.pred, tuple(
            old_resolve_me_term(k, principal) for k in term.keys))
    if isinstance(term, Quote):
        return Quote(old_resolve_me_pattern(term.pattern, principal))
    return term


def old_resolve_me_pattern(pattern, principal):
    def resolve_atom(atom_pattern):
        if atom_pattern.args is None:
            return atom_pattern
        args = tuple(arg if isinstance(arg, Star)
                     else old_resolve_me_term(arg, principal)
                     for arg in atom_pattern.args)
        return AtomPattern(atom_pattern.functor, args, atom_pattern.negated)

    heads = tuple(map(resolve_atom, pattern.heads))
    body = []
    for lit in pattern.body:
        if isinstance(lit, AtomPattern):
            body.append(resolve_atom(lit))
        elif isinstance(lit, EqPattern):
            body.append(EqPattern(lit.var, Quote(old_resolve_me_pattern(
                lit.quote.pattern, principal))))
        else:
            body.append(lit)
    return RulePattern(heads, tuple(body), pattern.has_arrow)


def old_resolve_me_atom(atom, principal):
    return Atom(atom.pred,
                tuple(old_resolve_me_term(t, principal) for t in atom.args),
                tuple(old_resolve_me_term(t, principal) for t in atom.keys),
                span=atom.span)


def old_resolve_me_items(items, principal):
    body = []
    for item in items:
        if isinstance(item, Literal):
            body.append(Literal(old_resolve_me_atom(item.atom, principal),
                                item.negated, span=item.span))
        elif isinstance(item, Comparison):
            body.append(Comparison(item.op,
                                   old_resolve_me_term(item.left, principal),
                                   old_resolve_me_term(item.right, principal),
                                   span=item.span))
        else:
            body.append(BuiltinCall(item.name, tuple(
                old_resolve_me_term(t, principal) for t in item.args)))
    return tuple(body)


def old_resolve_me_rule(rule, principal):
    heads = tuple(old_resolve_me_atom(h, principal) for h in rule.heads)
    return Rule(heads, old_resolve_me_items(rule.body, principal), rule.agg,
                rule.label, span=rule.span)


def old_instantiate_term(term, bindings, eval_term):
    if isinstance(term, Variable):
        if term.name in bindings:
            return Constant(bindings[term.name])
        return term
    if isinstance(term, Constant):
        return term
    if isinstance(term, Expr):
        names = {v.name for v in term.variables()}
        if names <= set(bindings):
            return Constant(eval_term(term, bindings))
        return Expr(term.op,
                    old_instantiate_term(term.left, bindings, eval_term),
                    old_instantiate_term(term.right, bindings, eval_term))
    if isinstance(term, Quote):
        return Quote(old_substitute_pattern(term.pattern, bindings, eval_term))
    if isinstance(term, PartitionTerm):
        return PartitionTerm(term.pred, tuple(
            old_instantiate_term(k, bindings, eval_term) for k in term.keys))
    raise SafetyError(f"cannot instantiate template term {term!r}")


def old_substitute_pattern(pattern, bindings, eval_term):
    def sub_atom(atom_pattern):
        functor = atom_pattern.functor
        if isinstance(functor, Variable) and functor.name in bindings:
            value = bindings[functor.name]
            if not isinstance(value, str):
                raise SafetyError(
                    f"pattern functor {functor.name} bound to non-predicate "
                    f"value {value!r}")
            functor = value
        args = None
        if atom_pattern.args is not None:
            args = tuple(
                arg if isinstance(arg, Star)
                else old_instantiate_term(arg, bindings, eval_term)
                for arg in atom_pattern.args)
        return AtomPattern(functor, args, atom_pattern.negated)

    heads = tuple(sub_atom(h) for h in pattern.heads)
    body = []
    for lit in pattern.body:
        if isinstance(lit, AtomPattern):
            body.append(sub_atom(lit))
        elif isinstance(lit, EqPattern):
            body.append(EqPattern(lit.var, Quote(old_substitute_pattern(
                lit.quote.pattern, bindings, eval_term))))
        else:
            body.append(lit)
    return RulePattern(heads, tuple(body), pattern.has_arrow)


def old_instantiate_atom(atom_pattern, bindings, eval_term):
    functor = atom_pattern.functor
    if isinstance(functor, Variable):
        if functor.name not in bindings:
            raise SafetyError(f"template functor {functor.name} is unbound")
        functor = bindings[functor.name]
        if not isinstance(functor, str):
            raise SafetyError(f"template functor bound to {functor!r}")
    if atom_pattern.args is None:
        raise SafetyError("bare meta-variable atom in a template")
    args = []
    for arg in atom_pattern.args:
        if isinstance(arg, Star):
            raise SafetyError("a Kleene star argument in a template")
        args.append(old_instantiate_term(arg, bindings, eval_term))
    return Atom(functor, tuple(args))


def old_instantiate_pattern(pattern, bindings, eval_term):
    heads = tuple(old_instantiate_atom(a, bindings, eval_term)
                  for a in pattern.heads)
    body = []
    for lit in pattern.body:
        if isinstance(lit, AtomPattern):
            body.append(Literal(old_instantiate_atom(lit, bindings, eval_term),
                                lit.negated))
        elif isinstance(lit, EqPattern):
            quote = Quote(old_substitute_pattern(lit.quote.pattern, bindings,
                                                 eval_term))
            left = Variable(lit.var.name)
            if lit.var.name in bindings:
                left = Constant(bindings[lit.var.name])
            body.append(Comparison("=", left, quote))
        elif isinstance(lit, StarLits):
            raise SafetyError("a Kleene star over body literals in a template")
    return Rule(heads, tuple(body), None, None)


# -- checks ------------------------------------------------------------------


def holds_me(node) -> bool:
    """Whether a ``me`` is anywhere in ``node``, found by a walk over
    every dataclass field (none of the walkers' own boundaries)."""
    if isinstance(node, MeToken):
        return True
    if isinstance(node, tuple):
        return any(map(holds_me, node))
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return any(holds_me(getattr(node, f.name))
                   for f in dataclasses.fields(node))
    return False


def spans(rule: Rule) -> list:
    """Every span a rewrite must keep: the rule's, each head's, each body
    literal's and its atom's, each comparison's."""
    found = [rule.span] + [head.span for head in rule.heads]
    for item in rule.body:
        if isinstance(item, Literal):
            found += [item.span, item.atom.span]
        elif isinstance(item, Comparison):
            found.append(item.span)
    return found


def with_builtins(rule: Rule) -> Rule:
    """``rule`` with each positive literal whose predicate starts with a
    ``b`` a builtin call, the form a compiled body holds them in."""
    return Rule(rule.heads, tuple(
        BuiltinCall(item.atom.pred, item.atom.all_args)
        if isinstance(item, Literal) and not item.negated
        and item.atom.pred.startswith("b") else item
        for item in rule.body), rule.agg, rule.label, span=rule.span)


def identity(term: Term) -> Term:
    return term


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type of what it raises."""
    try:
        return "value", call(*args)
    except (ReproError, ArithmeticError, TypeError) as exc:
        return "raised", type(exc)


def evaluate(term, bindings):
    return eval_term(term, bindings, EvalContext())


ME_RULES = [
    "h(me, X) <- p[me](X), X != me, q(f[me, X]).",
    "keep([| p(me) <- q(me), R = [| r(me). |]. |]) <- link(me, D).",
    "w(X) <- says(U, me, [| wrap(R, me). |]), R = me, bcall(me, X).",
    "c(N) <- agg<<N = count(X)>> s(X, me), X + me > 1.",
]

# -- properties --------------------------------------------------------------


@given(text=rule_texts(me=True))
@settings(max_examples=300, deadline=None)
@example(text=ME_RULES[0])
@example(text=ME_RULES[1])
@example(text=ME_RULES[2])
@example(text=ME_RULES[3])
def test_resolve_me_matches_the_old_walkers_on_rules(text):
    rule = with_builtins(the_statement(text))
    resolved = resolve_me(rule, "alice")
    expected = old_resolve_me_rule(rule, "alice")
    assert resolved == expected
    assert format_statement(resolved) == format_statement(expected)
    assert spans(resolved) == spans(expected)
    assert resolve_me_rule(rule, "alice") == expected
    assert not holds_me(resolved)
    assert canonical_rule(resolved)
    assert (resolved is rule) == (not holds_me(rule))
    assert substitute(rule, identity) is rule


@given(text=constraint_texts(me=True))
@settings(max_examples=150, deadline=None)
@example(text="p[me](X), me != X -> q(X, [| r(me). |]).")
def test_resolve_me_matches_the_old_walkers_on_constraints(text):
    constraint = the_statement(text, Constraint)
    resolved = resolve_me(constraint, "alice")
    for side, old in ((resolved.lhs, constraint.lhs),
                      (resolved.rhs, constraint.rhs)):
        expected = tuple(old_resolve_me_items(alternative, "alice")
                         for alternative in old)
        assert side == expected
        for alternative, want in zip(side, expected):
            assert spans(Rule((), alternative)) == spans(Rule((), want))
    assert resolved.span == constraint.span
    assert resolved.source == constraint.source
    assert not holds_me(resolved)
    assert (resolved is constraint) == (not holds_me(constraint))
    assert substitute(constraint, identity) is constraint


def quoted(text) -> RulePattern:
    """The pattern of ``text`` written as a quote."""
    return the_statement(f"h([| {text} |]).").heads[0].args[0].pattern


#: values a template variable can be bound to (a name, so a predicate
#: variable can take it, a number, and a value no predicate is)
binding_values = st.one_of(identifiers, st.integers(-5, 5),
                           st.sampled_from([0, 2.5, True, b"\x01"]))


@given(text=pattern_texts(me=True), data=st.data())
@settings(max_examples=300, deadline=None)
@example(text="d(U, P, N - 1) <- P(me), R = [| q(R). |].", data=None)
def test_substitution_matches_the_old_walkers_on_patterns(text, data):
    pattern = quoted(text)
    resolved = resolve_me(pattern, "alice")
    assert resolved == old_resolve_me_pattern(pattern, "alice")
    assert not holds_me(resolved)
    assert (resolved is pattern) == (not holds_me(pattern))
    assert substitute(pattern, identity) is pattern

    names = sorted({v.name for v in resolved.variables()})
    if data is None:
        bindings = {"U": "bob", "P": "perm", "N": 3, "R": 7}
    else:
        bindings = data.draw(st.dictionaries(
            st.sampled_from(names) if names else var_names, binding_values))
    filled = outcome(substitute_bindings, resolved, bindings, evaluate)
    expected = outcome(old_substitute_pattern, resolved, bindings, evaluate)
    assert filled == expected
    if filled[0] == "value":
        assert format_pattern(filled[1]) == format_pattern(expected[1])
        assert substitute_bindings(filled[1], {}, evaluate) is filled[1]
    # a template refused for two reasons may name either: the old walk
    # stopped at a star before evaluating the arguments after it
    made = outcome(lambda: instantiate_pattern(
        substitute_bindings(resolved, bindings, evaluate), bindings))
    want = outcome(old_instantiate_pattern, resolved, bindings, evaluate)
    assert made[0] == want[0]
    if made[0] == "value":
        assert made[1] == want[1]
        assert format_statement(made[1]) == format_statement(want[1])
