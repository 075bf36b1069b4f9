"""Retraction through the workspace: what a revocation must leave behind.

Two contracts.  A fact asserted and retracted inside one transaction
leaves nothing — in a trust manager, a grant must not survive its own
revocation.  And with provenance on, the explanations of every surviving
fact after any assert/retract sequence equal those of a workspace built
fresh from the same EDB: DRed's re-derivation machinery must not leak
into (or drop from) the recorded supports.
"""

import random

from hypothesis import given, settings, strategies as st

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
    for (pred, fact), derivations in ws.provenance.derivations.items():
        if pred not in known:
            continue
        # nothing is remembered about a fact that is gone
        assert fact in ws.tuples(pred), (pred, fact)
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

    # The provenance store is not part of the transaction snapshot, so
    # this stream (the one with aborted transactions) runs without it.
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
