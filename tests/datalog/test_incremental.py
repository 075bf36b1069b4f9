"""Incremental maintenance: insertions (semi-naive) and deletions (DRed)
always agree with from-scratch recomputation."""

import random

from hypothesis import given, settings, strategies as st

from repro.datalog.database import Database
from repro.datalog.engine import evaluate, normalize_rules, propagate_insertions
from repro.datalog.incremental import propagate_deletions
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.stratify import stratify
from repro.datalog.terms import Rule

TC = "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."
TC_NEG = TC + " un(X,Y) <- n(X), n(Y), !r(X,Y)."
TC_AGG = TC + " cnt(X,N) <- agg<<N = count(Y)>> r(X,Y)."


def rules_of(source):
    return [s for s in parse_statements(source) if isinstance(s, Rule)]


def rows_of(db, facts):
    """Value tuples -> the id rows the engine's maintenance API speaks."""
    return {db.interner.intern_row(tuple(fact)) for fact in facts}


class Harness:
    """A tiny EDB-tracking wrapper around the raw engine primitives
    (``edb`` holds id rows over ``db.interner``, as a host's does)."""

    def __init__(self, source):
        self.rules = normalize_rules(rules_of(source))
        self.strata = stratify(self.rules)
        self.context = EvalContext()
        self.db = Database()
        self.edb: dict[str, set] = {}
        evaluate(self.rules, self.db, self.context)

    def insert(self, pred, fact):
        (row,) = rows_of(self.db, [fact])
        self.edb.setdefault(pred, set()).add(row)
        if self.db.rel(pred).add_row(row):
            propagate_insertions(self.strata, self.db, self.context,
                                 {pred: {row}},
                                 edb_facts=lambda p: self.edb.get(p, set()))

    def delete(self, pred, fact):
        (row,) = rows_of(self.db, [fact])
        self.edb.get(pred, set()).discard(row)
        self.db.rel(pred).discard_row(row)
        propagate_deletions(self.strata, self.db, self.context,
                            {pred: {row}},
                            edb_facts=lambda p: self.edb.get(p, set()))

    def scratch_model(self):
        fresh = Database()
        materialize = self.db.interner.materialize_row
        for pred, rows in self.edb.items():
            for row in rows:
                fresh.add(pred, materialize(row))
        evaluate(self.rules, fresh, EvalContext())
        return {n: set(r.tuples) for n, r in fresh.relations.items() if r.tuples}

    def model(self):
        return {n: set(r.tuples) for n, r in self.db.relations.items() if r.tuples}

    def check(self):
        assert self.model() == self.scratch_model()


class TestInsertions:
    def test_chain_extension(self):
        harness = Harness(TC)
        for i in range(5):
            harness.insert("e", (i, i + 1))
        harness.check()
        assert (0, 5) in harness.db.tuples("r")

    def test_insert_into_negation_stratum(self):
        harness = Harness(TC_NEG)
        harness.insert("n", ("a",))
        harness.insert("n", ("b",))
        harness.check()
        assert ("a", "b") in harness.db.tuples("un")
        harness.insert("e", ("a", "b"))
        harness.check()
        # the new edge must *retract* the unreachability fact
        assert ("a", "b") not in harness.db.tuples("un")

    def test_insert_updates_aggregate(self):
        harness = Harness(TC_AGG)
        harness.insert("e", ("a", "b"))
        harness.check()
        harness.insert("e", ("b", "c"))
        harness.check()
        assert ("a", 2) in harness.db.tuples("cnt")
        assert ("a", 1) not in harness.db.tuples("cnt")

    def test_duplicate_insert_noop(self):
        harness = Harness(TC)
        harness.insert("e", ("a", "b"))
        before = harness.model()
        harness.insert("e", ("a", "b"))
        assert harness.model() == before


class TestDeletions:
    def test_delete_breaks_chain(self):
        harness = Harness(TC)
        for i in range(4):
            harness.insert("e", (i, i + 1))
        harness.delete("e", (1, 2))
        harness.check()
        assert (0, 3) not in harness.db.tuples("r")
        assert (2, 4) in harness.db.tuples("r")

    def test_delete_with_alternative_derivation_keeps_fact(self):
        harness = Harness(TC)
        harness.insert("e", ("a", "b"))
        harness.insert("e", ("b", "c"))
        harness.insert("e", ("a", "c"))     # alternative path a→c
        harness.delete("e", ("a", "b"))
        harness.check()
        assert ("a", "c") in harness.db.tuples("r")
        assert ("a", "b") not in harness.db.tuples("r")

    def test_delete_on_cycle(self):
        harness = Harness(TC)
        for edge in [("a", "b"), ("b", "a")]:
            harness.insert("e", edge)
        harness.delete("e", ("b", "a"))
        harness.check()
        assert harness.db.tuples("r") == {("a", "b")}

    def test_delete_updates_negation(self):
        harness = Harness(TC_NEG)
        for fact in [("a",), ("b",)]:
            harness.insert("n", fact)
        harness.insert("e", ("a", "b"))
        assert ("a", "b") not in harness.db.tuples("un")
        harness.delete("e", ("a", "b"))
        harness.check()
        assert ("a", "b") in harness.db.tuples("un")

    def test_delete_updates_aggregate(self):
        harness = Harness(TC_AGG)
        harness.insert("e", ("a", "b"))
        harness.insert("e", ("a", "c"))
        harness.delete("e", ("a", "c"))
        harness.check()
        assert ("a", 1) in harness.db.tuples("cnt")

    def test_edb_fact_also_derivable_survives(self):
        harness = Harness(TC)
        harness.insert("e", ("a", "b"))
        harness.insert("r", ("a", "b"))     # also asserted directly
        harness.delete("e", ("a", "b"))
        harness.check()
        assert ("a", "b") in harness.db.tuples("r")

    def test_retracted_assertion_of_derivable_fact_stays(self):
        # r(1,3) is both asserted and derivable (1→2→3).  Retracting the
        # assertion is not over-deletion: nothing upstream of r(1,3) went
        # away, so only re-deriving the retracted fact itself keeps it.
        harness = Harness(TC)
        harness.insert("e", (1, 2))
        harness.insert("e", (2, 3))
        harness.insert("e", (3, 4))
        harness.insert("r", (1, 3))
        harness.delete("r", (1, 3))
        harness.check()
        assert (1, 3) in harness.db.tuples("r")
        assert (1, 4) in harness.db.tuples("r")    # its consequence too
        # ... and once its derivation goes as well, so does the fact.
        harness.delete("e", (2, 3))
        harness.check()
        assert (1, 3) not in harness.db.tuples("r")
        assert harness.db.tuples("r") == {(1, 2), (3, 4)}

    def test_retracted_underivable_assertion_goes_with_consequences(self):
        harness = Harness(TC)
        harness.insert("e", (3, 4))
        harness.insert("r", (1, 3))                # asserted only
        assert (1, 4) in harness.db.tuples("r")
        harness.delete("r", (1, 3))
        harness.check()
        assert harness.db.tuples("r") == {(3, 4)}


@given(st.integers(0, 2 ** 30))
@settings(max_examples=40, deadline=None)
def test_property_mixed_stream_matches_scratch(seed):
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(rng.randint(2, 6))]
    harness = Harness(TC_NEG)
    for node in nodes:
        harness.insert("n", (node,))
    # The stream asserts and retracts the EDB predicate ``e`` and, a third
    # of the time, the derived predicate ``r`` directly — so it meets
    # facts that are asserted *and* derivable, in both retraction orders.
    alive: dict = {"e": set(), "r": set()}
    for _ in range(rng.randint(3, 16)):
        pred = "r" if rng.random() < 0.35 else "e"
        if alive[pred] and rng.random() < 0.4:
            victim = rng.choice(sorted(alive[pred]))
            alive[pred].discard(victim)
            harness.delete(pred, victim)
        else:
            fact = (rng.choice(nodes), rng.choice(nodes))
            alive[pred].add(fact)
            harness.insert(pred, fact)
        harness.check()


@given(st.integers(0, 2 ** 30))
@settings(max_examples=15, deadline=None)
def test_property_aggregate_stream_matches_scratch(seed):
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(rng.randint(2, 5))]
    harness = Harness(TC_AGG)
    alive: set = set()
    for _ in range(rng.randint(3, 10)):
        if alive and rng.random() < 0.35:
            victim = rng.choice(sorted(alive))
            alive.discard(victim)
            harness.delete("e", victim)
        else:
            edge = (rng.choice(nodes), rng.choice(nodes))
            alive.add(edge)
            harness.insert("e", edge)
        harness.check()


class TestPlansOutliveBandMoves:
    """A plan cache's one bound is its FIFO: a plan keyed to a band its
    relations have left stays cached, and is served again when they grow
    back — a deletion commit walks no rule to evict it."""

    SOURCE = "j: j(X,Z) <- a(X,Y), b(Y,Z)."

    def test_a_plan_survives_its_relation_shrinking_and_growing_back(self):
        harness = Harness(self.SOURCE)
        gone = [(i, i + 1) for i in range(10, 100)]
        for i in range(100):
            harness.insert("a", (i, i + 1))
            harness.insert("b", (i + 1, i))
        for edge in gone:                    # a leaves its band...
            harness.delete("a", edge)
        harness.check()
        stats = harness.context.stats
        built = stats.plans_built
        for edge in gone:                    # ... and comes back to it
            harness.insert("a", edge)
        harness.check()
        assert stats.plans_built == built
        assert stats.plans_evicted == 0

    def test_maintained_state_matches_scratch_across_a_band_drop(self):
        harness = Harness("base: r(X,Y) <- e(X,Y). "
                          "step: r(X,Z) <- r(X,Y), e(Y,Z).")
        for i in range(100):
            harness.insert("e", (i, i + 1))
        for i in range(10, 100):
            harness.delete("e", (i, i + 1))
        harness.check()
        # the next insertion plans cleanly at the new band
        harness.insert("e", (3, 9))
        harness.check()
