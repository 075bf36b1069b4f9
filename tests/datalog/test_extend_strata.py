"""``extend_strata`` against the full ``stratify``: extending the strata
of a program by a batch of rules gives exactly the strata of the whole
program (numbers, predicates, rules by identity and in order), or None,
and None only where a predicate already placed would have to move."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.engine import normalize_rules
from repro.datalog.errors import StratificationError
from repro.datalog.parser import parse_statements
from repro.datalog.stratify import extend_strata, stratify

from strategies import activation_rules


def shape(strata):
    return [(stratum.number, stratum.preds,
             [id(rule) for rule in stratum.rules],
             [id(rule) for rule in stratum.agg_rules])
            for stratum in strata]


def levels(strata):
    return {pred: stratum.number for stratum in strata
            for pred in stratum.preds}


def rule_of(text):
    return normalize_rules(parse_statements(text))[0]


def justified(before, after):
    """Why an extension may give up: a predicate already placed moves,
    or one already read (at level 0) must rise."""
    placed, now = levels(before), levels(after)
    read = set().union(*(stratum.reads for stratum in before))
    return any(now.get(pred, 0) != level for pred, level in placed.items()) \
        or any(now.get(pred, 0) > 0 for pred in read - placed.keys())


@given(st.lists(activation_rules(), max_size=8),
       st.lists(activation_rules(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_extension_is_the_full_stratification(old, new):
    old, new = list(map(rule_of, old)), list(map(rule_of, new))
    try:
        before = stratify(old)
    except StratificationError:
        return
    extended = extend_strata(before, new)
    try:
        after = stratify(old + new)
    except StratificationError:
        assert extended is None     # every negative cycle falls back
        return
    if extended is not None:
        assert shape(extended) == shape(after)
        # a stratum no new rule joins is the very object it was
        joined = {rule.head.pred for rule in new}
        for stratum in extended:
            if stratum.preds.isdisjoint(joined):
                assert any(stratum is kept for kept in before)
    # one rule at a time, a fallback is always for a reason
    rules = list(old)
    for rule in new:
        extended = extend_strata(stratify(rules), [rule])
        if extended is None:
            assert justified(stratify(rules), stratify(rules + [rule]))
        rules.append(rule)
