"""A ground fact is its head row: the fast path against the walker.

A rule with no body, no aggregate and only constants in its head (the
common said credential, ``ping("x").``) skips compilation and planning:
``RuleRegistry.compiled`` returns it as it is, and ``apply_rule`` interns
its head values as its one row.  Each generated fact here goes both
ways — the fast ``apply_rule`` and ``derive_rows`` over the same rule's
own plan — and the two must give the same row, the same ``derivations``
and ``rule_firings``, and the same provenance entry, whether the row is
new or already held.  The facts cover every value kind the interner
keys apart (str, int, float, bool, rule refs, nested tuples),
partitioned ``export[bob](...)`` heads and multi-head facts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.builtins import standard_registry
from repro.datalog.database import Database
from repro.datalog.engine import (
    ProvenanceStore,
    apply_rule,
    derive_rows,
    normalize_rules,
)
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext, check_rule_safety
from repro.datalog.stratify import stratify
from repro.datalog.terms import Atom, Constant, Rule, RuleRef
from repro.meta.quote import compile_rule
from repro.meta.registry import RuleRegistry

scalars = st.one_of(
    st.text(max_size=4), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(), st.builds(RuleRef, st.integers(1, 4)))
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6)
constants = values.map(Constant)


@st.composite
def ground_heads(draw):
    """``p(...)`` or a partitioned ``export[bob](...)``."""
    args = tuple(draw(st.lists(constants, min_size=0, max_size=3)))
    if draw(st.booleans()):
        return Atom("export", args, (Constant(draw(st.sampled_from(
            ["bob", "carol"]))),))
    return Atom(draw(st.sampled_from(["p", "q"])), args)


ground_facts = st.lists(ground_heads(), min_size=1, max_size=3).map(
    lambda heads: Rule(tuple(heads)))


def both_ways(rule, held: bool):
    """``(row set, derivations, rule_firings, provenance)`` of the fast
    path and of the walker, each over a fresh database of one interner
    (the walker's plan interns the same values to the same ids)."""
    interner = Database().interner
    results = []
    for fast in (True, False):
        db, context = Database(interner), EvalContext()
        provenance = ProvenanceStore(db)
        if held:
            db.rel(rule.head.pred).add_rows(
                {interner.intern_row(rule.fact)})
        if fast:
            produced = apply_rule(rule, db, context, provenance=provenance)
        else:
            produced = set()
            fired = derive_rows(rule, rule.plan(context, None, db),
                                db, context, None, None,
                                db.rel(rule.head.pred).rows, produced,
                                provenance)
            context.stats.derivations += fired
            context.stats.fire(rule.label or rule.head.pred, fired)
        results.append((produced, context.stats.derivations,
                        dict(context.stats.rule_firings),
                        provenance.derivations))
    return results


@given(fact=ground_facts, held=st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_ground_fact_applies_as_the_walker_would(fact, held):
    assert fact.is_ground_fact()
    engine_rules = normalize_rules([fact])
    assert len(engine_rules) == len(fact.heads)
    for rule in engine_rules:
        rule.label = "r1"
        assert rule.fact == tuple(term.value for term in rule.head.all_args)
        fast, walked = both_ways(rule, held)
        assert fast == walked
        assert fast[1] == 1 and fast[2] == {"r1": 1}
        assert bool(fast[0]) is not held


@given(fact=ground_facts)
@settings(max_examples=50, deadline=None)
def test_a_ground_fact_is_its_own_compiled_form(fact):
    """What ``compiled`` skips is a no-op on a ground fact: compiling it
    gives an equal rule, and it is safe."""
    builtins = standard_registry()
    assert compile_rule(fact, principal=None, builtins=builtins) == fact
    check_rule_safety(fact, builtins)
    registry = RuleRegistry()
    ref = registry.intern(fact)
    assert registry.compiled(ref, builtins) is registry.rule_of(ref)


def test_only_a_ground_fact_takes_the_row_path():
    """A fact with a computed head term, or a rule with any body, plans
    as before; a stratum's delta walk holds only the rules with a
    positive body literal, in program order."""
    rules = normalize_rules(parse_statements(
        "a(1). b(X) <- a(X). c(1+1). d(1) <- 1 < 2. e(X) <- a(X), b(X)."))
    assert [rule.fact for rule in rules] == [(1,), None, None, None, None]
    [stratum] = stratify(rules)
    assert [rule.head.pred for rule in stratum.delta_rules] == ["b", "e"]
