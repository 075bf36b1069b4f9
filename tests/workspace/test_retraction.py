"""Retraction through the workspace: what a revocation must leave behind.

Three contracts.  A fact asserted and retracted inside one transaction
leaves nothing — in a trust manager, a grant must not survive its own
revocation.  With provenance on, the explanations of every surviving
fact after any assert/retract sequence equal those of a workspace built
fresh from the same EDB: DRed's re-derivation machinery must not leak
into (or drop from) the recorded supports.  And the differential
contract: whatever sequence of fact and *rule* changes, committed or
aborted, a workspace has been through, it equals one asserted fresh from
its final EDB — relations and provenance store alike.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datalog.errors import BuiltinError, ConstraintViolation
from repro.datalog.pretty import canonical_constraint
from repro.workspace.workspace import Workspace

PATHS = """
    base: path(X,Y) <- edge(X,Y).
    step: path(X,Z) <- path(X,Y), edge(Y,Z).
    far: reach(X) <- path(1,X).
"""


def workspace(**kwargs):
    ws = Workspace("w", **kwargs)
    ws.load(PATHS)
    return ws


class TestAssertThenRetractInOneTransaction:
    def test_consequences_do_not_survive(self):
        ws = workspace()
        ws.assert_fact("edge", (1, 2))
        with ws.transaction():
            ws.assert_fact("edge", (2, 3))
            ws.retract_fact("edge", (2, 3))
        assert ws.tuples("edge") == {(1, 2)}
        assert ws.tuples("path") == {(1, 2)}

    def test_needs_no_deletion_maintenance(self):
        ws = workspace()
        ws.assert_fact("edge", (1, 2))
        before = ws.stats.copy()
        with ws.transaction():
            ws.assert_fact("edge", (2, 3))
            ws.retract_fact("edge", (2, 3))
        assert ws.stats.diff(before).dred_strata == 0

    def test_retract_assert_retract_of_a_standing_fact(self):
        ws = workspace()
        ws.assert_fact("edge", (1, 2))
        ws.assert_fact("edge", (2, 3))
        with ws.transaction():
            ws.retract_fact("edge", (2, 3))
            ws.assert_fact("edge", (2, 3))
            ws.retract_fact("edge", (2, 3))
        assert ws.tuples("edge") == {(1, 2)}
        assert ws.tuples("path") == {(1, 2)}

    def test_retract_then_reassert_keeps_everything(self):
        ws = workspace()
        ws.assert_fact("edge", (1, 2))
        ws.assert_fact("edge", (2, 3))
        with ws.transaction():
            ws.retract_fact("edge", (2, 3))
            ws.assert_fact("edge", (2, 3))
        assert ws.tuples("path") == {(1, 2), (2, 3), (1, 3)}

    def test_fresh_assertion_of_a_derived_predicate(self):
        ws = workspace()
        ws.assert_fact("edge", (3, 4))
        with ws.transaction():
            ws.assert_fact("path", (1, 3))
            ws.retract_fact("path", (1, 3))
        assert ws.tuples("path") == {(3, 4)}
        assert ws.tuples("reach") == set()


class Aborted(Exception):
    """Raised inside a transaction to roll it back."""


def run_stream(seed, ws, abort_rate):
    """Drive ``ws`` with a random assert/retract stream; after every
    transaction yield the value-space shadow model of its asserted facts.

    One to three updates per transaction, so a fact can be asserted and
    retracted (or the reverse) before one commit; a transaction aborts
    with probability ``abort_rate`` and must then leave no trace.
    """
    rng = random.Random(seed)
    nodes = list(range(1, rng.randint(3, 6)))
    alive = {"edge": set(), "path": set()}
    for _ in range(rng.randint(3, 12)):
        staged = {pred: set(facts) for pred, facts in alive.items()}
        abort = rng.random() < abort_rate
        try:
            with ws.transaction():
                for _ in range(rng.randint(1, 3)):
                    pred = "path" if rng.random() < 0.3 else "edge"
                    if staged[pred] and rng.random() < 0.45:
                        victim = rng.choice(sorted(staged[pred]))
                        staged[pred].discard(victim)
                        ws.retract_fact(pred, victim)
                    else:
                        fact = (rng.choice(nodes), rng.choice(nodes))
                        staged[pred].add(fact)
                        ws.assert_fact(pred, fact)
                if abort:
                    raise Aborted
        except Aborted:
            pass
        else:
            alive = staged
        yield alive


def edb_values(ws):
    return {pred: ws.edb.get(pred, set()) for pred in ("edge", "path")}


def scratch_like(ws):
    fresh = workspace(enable_provenance=True)
    with fresh.transaction():
        for pred, facts in sorted(ws.edb.items()):
            if pred in ("edge", "path"):
                fresh.assert_facts(pred, sorted(facts))
    return fresh


def assert_provenance_parity(ws):
    fresh = scratch_like(ws)
    for pred in ("edge", "path", "reach"):
        assert ws.tuples(pred) == fresh.tuples(pred)
        for fact in ws.tuples(pred):
            assert ws.provenance.of(pred, fact) == \
                fresh.provenance.of(pred, fact), (pred, fact)
    known = {"edge", "path", "reach"}
    for (pred, row), derivations in ws.provenance.derivations.items():
        if pred not in known:
            continue
        # nothing is remembered about a fact that is gone
        assert row in ws.db.rel(pred).rows, (pred, row)
        for label, supports in derivations:
            assert label in ("$edb", "base", "step", "far")
            assert {support_pred for support_pred, _ in supports} <= known


class TestProvenanceParity:
    def test_alternative_derivation_survives_with_exact_supports(self):
        ws = workspace(enable_provenance=True)
        for edge in [(1, 2), (2, 3), (1, 3), (3, 4)]:
            ws.assert_fact("edge", edge)
        ws.retract_fact("edge", (1, 2))
        assert ws.provenance.of("path", (1, 3)) == {
            ("base", (("edge", (1, 3)),))}
        assert ws.provenance.of("path", (1, 4)) == {
            ("step", (("path", (1, 3)), ("edge", (3, 4))))}
        assert_provenance_parity(ws)

    def test_retracted_assertion_of_derivable_fact_loses_only_edb(self):
        ws = workspace(enable_provenance=True)
        for edge in [(1, 2), (2, 3)]:
            ws.assert_fact("edge", edge)
        ws.assert_fact("path", (1, 3))
        assert ("$edb", ()) in ws.provenance.of("path", (1, 3))
        ws.retract_fact("path", (1, 3))
        assert ws.provenance.of("path", (1, 3)) == {
            ("step", (("path", (1, 2)), ("edge", (2, 3))))}
        assert_provenance_parity(ws)

    def test_retracted_edb_fact_is_forgotten(self):
        ws = workspace(enable_provenance=True)
        ws.assert_fact("edge", (1, 2))
        ws.retract_fact("edge", (1, 2))
        assert ws.provenance.of("edge", (1, 2)) == set()
        assert_provenance_parity(ws)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_property_random_streams(self, seed):
        ws = workspace(enable_provenance=True)
        for alive in run_stream(seed, ws, abort_rate=0.0):
            assert edb_values(ws) == alive
            assert_provenance_parity(ws)


class TestEdbView:
    """``Workspace.edb`` — the value view over the asserted id rows —
    tracks a value-space shadow model through commits and rollbacks."""

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_property_view_equals_shadow_model(self, seed):
        ws = workspace()
        for alive in run_stream(seed, ws, abort_rate=0.25):
            assert edb_values(ws) == alive
            fresh = workspace()
            with fresh.transaction():
                for pred, facts in alive.items():
                    fresh.assert_facts(pred, sorted(facts))
            for pred in ("edge", "path", "reach"):
                assert ws.tuples(pred) == fresh.tuples(pred)


#: Rules a differential stream activates and deactivates: recursion,
#: negation, aggregation, comparison, a predicate both asserted and
#: derived, derived activations one and two levels deep, and one an
#: insertion (of ``gate(1)``) takes out of ``active``.
POOL = [
    "path(X,Y) <- edge(X,Y).",
    "path(X,Z) <- path(X,Y), edge(Y,Z).",
    "path(X,X) <- node(X).",
    "node(X) <- edge(X,_).",
    "reach(X) <- path(1,X).",
    "sym(X,Y) <- edge(X,Y).",
    "sym(X,Y) <- sym(Y,X).",
    "lone(X) <- node(X), !reach(X).",
    "deg(X,N) <- agg<<N = count(Y)>> edge(X,Y).",
    "hub(X) <- deg(X,N), N > 1.",
    "far(X) <- reach(X), !hub(X), X > 2.",
    "active([| mark(X) <- node(X). |]) <- flag(1).",
    "active([| active([| deep(X) <- reach(X). |]) <- gate(1). |]) <- flag(1).",
    "active([| twin(X,X) <- node(X). |]) <- flag(1), !gate(1).",
]


#: Constraints a differential stream installs and removes by label: each
#: can refuse a commit, and the second is a type declaration (it changes
#: the catalog entry of ``gate``).
CONSTRAINTS = {
    "apart": "apart: flag(X) -> !gate(X).",
    "typed": "typed: gate(X) -> node(X).",
}

#: A program a stream loads: a fact, and a declaration of a predicate
#: nothing else mentions (a new catalog entry, declared and typed).
LOADED = "gate(1).\nspare(X,Y) -> node(X), node(Y)."


def spelled(fact):
    """A fact as its values' types and spellings: ``1``, ``1.0`` and
    ``True`` are three facts, as they are to the interner."""
    return tuple((type(value).__name__, repr(value)) for value in fact)


def id_rows(database):
    return {pred: set(relation.rows)
            for pred, relation in database.relations.items()}


def asserted_rows(ws):
    return {pred: {row for row, held in rows.items() if "$edb" in held}
            for pred, rows in ws._base.items()}


def observable(ws):
    """Everything a transaction can change, in id rows: what an aborted
    one must leave exactly as it found it."""
    return {
        "tuples": id_rows(ws.db),
        "base": {pred: dict(rows) for pred, rows in ws._base.items()},
        "catalog": {name: (info.arity, info.key_arity, info.declared,
                           list(info.arg_types))
                    for name in ws.catalog.names()
                    for info in [ws.catalog.info(name)]},
        "constraints": list(ws.constraints),
        # in activation order: stratification reads it
        "active": list(ws._activated.items()),
        "reified": set(ws._reified),
        "proofs": None if ws.provenance is None
        else dict(ws.provenance.derivations),
    }


def run_program_stream(seed, ws, steps=10):
    """Drive ``ws`` with random transactions of one to three changes —
    assert / retract a fact (all but ``edge`` are derived too, ``reach``
    is negated, ``lone`` has a negation), activate / deactivate a
    :data:`POOL` rule, install / remove one of :data:`CONSTRAINTS`, load
    :data:`LOADED` — a quarter of them aborted and some refused by a
    constraint or a comparison, which must leave :func:`observable` as
    it was; yields
    after every transaction."""
    rng = random.Random(seed)
    # ``True`` is not ``1``, nor ``2.0`` ``2``, nor ``-0.0`` a ``0``
    values = list(range(1, rng.randint(3, 5))) + [True, 2.0, -0.0]
    arity = {"edge": 2, "path": 2, "node": 1, "reach": 1, "lone": 1,
             "flag": 1, "gate": 1}
    # pred -> {spelled fact: fact}: a set of values would merge spellings
    facts = {pred: {} for pred in arity}
    rules = {}
    with ws.transaction():
        pass    # any commit mirrors the meta-model's own predicates
    for _ in range(steps):
        staged_facts = {pred: dict(held) for pred, held in facts.items()}
        staged_rules = dict(rules)
        before = observable(ws)
        try:
            with ws.transaction():
                for _ in range(rng.randint(1, 3)):
                    roll = rng.random()
                    if roll < 0.3:
                        text = rng.choice(POOL)
                        staged_rules[text] = ws.add_rule(text)
                    elif roll < 0.5 and staged_rules:
                        text = rng.choice(sorted(staged_rules))
                        ws.deactivate_rule(staged_rules.pop(text))
                    elif roll < 0.58:
                        label = rng.choice(sorted(CONSTRAINTS))
                        if not ws.remove_constraints(label):
                            ws.add_constraint(CONSTRAINTS[label])
                    elif roll < 0.62:
                        ws.load(LOADED)
                        staged_facts["gate"][spelled((1,))] = (1,)
                    else:
                        pred = rng.choice(sorted(arity))
                        held = staged_facts[pred]
                        if held and rng.random() < 0.45:
                            victim = held.pop(rng.choice(sorted(held)))
                            ws.retract_fact(pred, victim)
                        else:
                            fact = tuple(rng.choice(values)
                                         for _ in range(arity[pred]))
                            held[spelled(fact)] = fact
                            ws.assert_fact(pred, fact)
                if rng.random() < 0.25:
                    raise Aborted
        except (Aborted, ConstraintViolation, BuiltinError):
            # ``BuiltinError``: ``X > 2`` refuses to order ``True``
            assert observable(ws) == before
        else:
            facts, rules = staged_facts, staged_rules
        assert ws.journal.entries is None and ws._txn_depth == 0
        # the duplicate check's keys, kept at install, stay in step with
        # the installed constraints through removals and aborts
        assert ws._constraint_keys == {
            (c.label, canonical_constraint(c)) for c in ws.constraints}
        yield facts, rules


def fresh_from_edb(ws):
    """A workspace that never saw a retraction, a deactivation or an
    abort: ``ws``'s asserted facts (``active`` rows and the reified rules
    among them), asserted in one transaction over the same registry."""
    fresh = Workspace("fresh", registry=ws.registry,
                      enable_provenance=ws.provenance is not None)
    materialize = ws.db.interner.materialize_row
    with fresh.transaction():
        for pred, held in sorted(asserted_rows(ws).items()):
            fresh.assert_facts(pred, map(materialize, held))
    return fresh


#: The catalog's mirror in the meta-model is brought up to date when a
#: commit starts, so it names a relation first populated *during* a
#: commit only from the next one on: a subset of the fresh workspace's.
MIRROR = ("predicate", "pname")


def assert_equals_fresh(ws):
    """``fresh_from_edb(ws)`` holds the same id rows and proofs: the two
    share the registry, so an id row is the same fact in both."""
    fresh = fresh_from_edb(ws)
    assert ws.active_refs() == fresh.active_refs()
    held, expected = id_rows(ws.db), id_rows(fresh.db)
    for pred in held.keys() | expected.keys():
        if pred in MIRROR:
            assert held.get(pred, set()) <= expected[pred], pred
        else:
            assert held.get(pred, set()) == expected.get(pred, set()), pred
    if ws.provenance is not None:
        kept, expected = (
            {key: held for key, held in store.derivations.items()
             if key[0] not in MIRROR}
            for store in (ws.provenance, fresh.provenance))
        assert kept == expected


class TestDifferentialContract:
    """Rule removal is a deletion like any other (it used to rebuild the
    workspace), and an aborted transaction leaves no trace — the
    provenance store included (it used to keep the proofs an aborted
    assert recorded, and lose those an aborted retract forgot)."""

    @given(st.integers(0, 2 ** 30))
    @example(seed=1533)
    @settings(max_examples=40, deadline=None)
    def test_property_maintained_equals_fresh(self, seed):
        ws = Workspace("w")
        materialize = ws.db.interner.materialize_row
        for facts, rules in run_program_stream(seed, ws):
            asserted = asserted_rows(ws)
            assert {p: {spelled(materialize(row))
                        for row in asserted.get(p, ())} for p in facts} == \
                {p: set(held) for p, held in facts.items()}
            assert set(rules.values()) <= ws.active_refs()
            assert_equals_fresh(ws)

    @given(st.integers(0, 2 ** 30))
    @example(seed=1533)
    @settings(max_examples=25, deadline=None)
    def test_property_provenance_equals_fresh(self, seed):
        ws = Workspace("w", enable_provenance=True)
        for _ in run_program_stream(seed, ws):
            assert_equals_fresh(ws)

    def test_aborted_assert_leaves_no_proof(self):
        ws = workspace(enable_provenance=True)
        for edge in [(1, 2), (2, 3)]:
            ws.assert_fact("edge", edge)
        before = {key: set(held)
                  for key, held in ws.provenance.derivations.items()}
        try:
            with ws.transaction():
                ws.assert_fact("edge", (3, 4))
                raise Aborted
        except Aborted:
            pass
        assert ws.provenance.of("path", (1, 4)) == set()
        assert ws.provenance.derivations == before

    def test_aborted_retract_keeps_every_proof(self):
        ws = workspace(enable_provenance=True)
        for edge in [(1, 2), (2, 3)]:
            ws.assert_fact("edge", edge)
        ws.add_constraint("path(1,2) -> path(1,3).")
        before = {key: set(held)
                  for key, held in ws.provenance.derivations.items()}
        with pytest.raises(ConstraintViolation):
            # the commit itself fails, after DRed forgot three facts
            ws.retract_fact("edge", (2, 3))
        assert ws.tuples("path") == {(1, 2), (2, 3), (1, 3)}
        assert ws.provenance.of("path", (1, 3)) == {
            ("step", (("path", (1, 2)), ("edge", (2, 3))))}
        assert ws.provenance.derivations == before

    @pytest.mark.parametrize("provenance", [False, True])
    def test_a_fresh_fact_does_not_hide_what_a_dropped_rule_derived(
            self, provenance):
        """``r(1)`` is asserted in the transaction that deactivates
        ``p(X) <- q(X), !r(X)``: the rule must still find the ``p(1)`` it
        derived before.  (Fails when the dropped rule is applied with the
        transaction's fresh rows left in ``db``.)"""
        ws = Workspace("w", enable_provenance=provenance)
        rule = ws.add_rule("p(X) <- q(X), !r(X).")
        ws.assert_fact("q", (1,))
        assert ws.tuples("p") == {(1,)}
        with ws.transaction():
            ws.assert_fact("r", (1,))
            ws.deactivate_rule(rule)
        assert ws.tuples("p") == set()
        assert_equals_fresh(ws)

    def test_two_level_derived_activation_cascades_out_and_back(self):
        ws = Workspace("w")
        ws.add_rule("active([| active([| deep(X) <- reach(X). |]) <- gate(1)."
                    " |]) <- flag(1).")
        ws.add_rule("reach(X) <- seen(X).")
        ws.assert_fact("seen", (7,))
        ws.assert_fact("gate", (1,))
        assert ws.tuples("deep") == set()
        ws.assert_fact("flag", (1,))
        assert ws.tuples("deep") == {(7,)}
        assert len(ws.active_refs()) == 4
        ws.retract_fact("flag", (1,))       # both levels leave, in turn
        assert ws.tuples("deep") == set()
        assert len(ws.active_refs()) == 2
        assert ws.stats.full_recomputes == 0
        assert_equals_fresh(ws)
        ws.assert_fact("flag", (1,))
        assert ws.tuples("deep") == {(7,)}
        assert_equals_fresh(ws)

    @pytest.mark.parametrize("provenance", [False, True])
    def test_an_insertion_under_negation_drops_the_rule(self, provenance):
        """``blocked(r)`` takes ``r`` out of ``active`` by an insertion,
        not a retraction: ``r`` is dropped with everything it derived, and
        derives nothing from a later ``q(2)``."""
        ws = Workspace("w", enable_provenance=provenance)
        ws.load("act: active(R) <- cand(R), !blocked(R).")
        rule = ws.registry.intern_text("p(X) <- q(X).")
        ws.assert_fact("cand", (rule,))
        ws.assert_fact("q", (1,))
        assert rule in ws.active_refs()
        assert ws.tuples("p") == {(1,)}
        ws.assert_fact("blocked", (rule,))
        assert rule not in ws.active_refs()
        assert ws.tuples("p") == set()
        assert_equals_fresh(ws)
        ws.assert_fact("q", (2,))
        assert ws.tuples("p") == set()
        assert_equals_fresh(ws)
