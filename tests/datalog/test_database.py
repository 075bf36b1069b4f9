"""Relations, indexes, copy-on-write snapshots, index integrity."""

import pytest

from repro.datalog.database import Database, Relation, TermInterner
from repro.datalog.errors import IndexIntegrityError, InternerMismatchError


class TestRelation:
    def test_add_dedupes(self):
        relation = Relation("p")
        assert relation.add(("a", 1))
        assert not relation.add(("a", 1))
        assert len(relation) == 1

    def test_discard(self):
        relation = Relation("p", [("a", 1)])
        assert relation.discard(("a", 1))
        assert not relation.discard(("a", 1))
        assert len(relation) == 0

    def test_lookup_builds_index(self):
        relation = Relation("p", [("a", 1), ("a", 2), ("b", 3)])
        assert sorted(relation.lookup((0,), ("a",))) == [("a", 1), ("a", 2)]
        assert relation.lookup((0,), ("z",)) == []

    def test_index_maintained_on_add(self):
        relation = Relation("p", [("a", 1)])
        relation.lookup((0,), ("a",))  # build the index
        relation.add(("a", 2))
        assert sorted(relation.lookup((0,), ("a",))) == [("a", 1), ("a", 2)]

    def test_index_maintained_on_discard(self):
        relation = Relation("p", [("a", 1), ("a", 2)])
        relation.lookup((0,), ("a",))
        relation.discard(("a", 1))
        assert relation.lookup((0,), ("a",)) == [("a", 2)]

    def test_multi_column_index(self):
        relation = Relation("p", [("a", 1, "x"), ("a", 2, "x"), ("a", 3, "y")])
        hits = relation.lookup((0, 2), ("a", "x"))
        assert set(hits) == {("a", 1, "x"), ("a", 2, "x")}
        assert relation.lookup((0, 2), ("b", "x")) == []

    def test_copy_is_independent(self):
        relation = Relation("p", [("a",)])
        clone = relation.copy()
        relation.add(("b",))
        assert ("b",) not in clone


class TestLookupStability:
    def test_lookup_view_unaffected_by_later_insert(self):
        relation = Relation("p", [("a", 1)])
        view = relation.lookup((0,), ("a",))
        relation.add(("a", 2))
        assert view == [("a", 1)]

    def test_scan_does_not_observe_mid_iteration_inserts(self):
        # Regression: deriving into the relation being scanned used to
        # extend the live bucket mid-iteration, so a semi-naive pass could
        # observe its own round's output.
        relation = Relation("r", [(0, 1), (1, 2), (2, 3)])
        relation.lookup((0,), (0,))  # build the index
        seen = []
        for row in relation.lookup((0,), (1,)):
            seen.append(row)
            relation.add((1, row[1] + 10))  # derive into the scanned bucket
        assert seen == [(1, 2)]
        assert (1, 12) in relation.tuples

    def test_match_literal_yields_stable_view(self):
        from repro.datalog.database import Database
        from repro.datalog.runtime import EvalContext, solve
        from repro.datalog.terms import Atom, Constant, Literal, Variable

        db = Database()
        db.add("r", ("a", 1))
        db.add("r", ("a", 2))
        relation = db.rel("r")
        relation.lookup((0,), ("a",))
        body = (Literal(Atom("r", (Constant("a"), Variable("X")))),)
        seen = []
        for bindings in solve(body, db, EvalContext()):
            seen.append(bindings["X"])
            relation.add(("a", bindings["X"] + 100))
        assert sorted(seen) == [1, 2]


class TestDiscardIntegrity:
    def test_discard_raises_on_missing_bucket(self):
        relation = Relation("p", [("a", 1)])
        relation.lookup((0,), ("a",))
        relation._indexes[(0,)].clear()  # simulate corruption
        with pytest.raises(IndexIntegrityError):
            relation.discard(("a", 1))

    def test_discard_raises_on_missing_bucket_entry(self):
        relation = Relation("p", [("a", 1), ("a", 2)])
        relation.lookup((0,), ("a",))
        key = relation.interner.id_of("a")
        row = relation.interner.row_of(("a", 1))
        relation._indexes[(0,)][key].remove(row)  # simulate corruption
        with pytest.raises(IndexIntegrityError):
            relation.discard(("a", 1))

    def test_healthy_discard_keeps_index_exact(self):
        relation = Relation("p", [("a", 1), ("a", 2), ("b", 3)])
        relation.lookup((0,), ("a",))
        assert relation.discard(("a", 1))
        assert relation.lookup((0,), ("a",)) == [("a", 2)]
        assert relation.discard(("a", 2))
        assert relation.lookup((0,), ("a",)) == []


class TestCopyOnWrite:
    def test_view_is_o1_until_mutation(self):
        relation = Relation("p", [("a",), ("b",)])
        view = relation.view()
        assert view.rows is relation.rows
        assert view.interner is relation.interner

    def test_mutating_original_leaves_view_intact(self):
        relation = Relation("p", [("a",)])
        view = relation.view()
        relation.add(("b",))
        assert view.tuples == {("a",)}
        assert relation.tuples == {("a",), ("b",)}

    def test_mutating_view_leaves_original_intact(self):
        relation = Relation("p", [("a",)])
        view = relation.view()
        view.discard(("a",))
        assert relation.tuples == {("a",)}
        assert len(view) == 0

    def test_wrap_never_mutates_the_donor_set(self):
        interner = TermInterner()
        donor = {interner.intern_row(("a",)), interner.intern_row(("b",))}
        before = set(donor)
        wrapped = Relation.wrap_rows("d", donor, interner)
        assert wrapped.rows is donor  # adopted, not copied
        assert wrapped.lookup((0,), ("a",)) == [("a",)]
        wrapped.add(("c",))
        wrapped.discard(("a",))
        assert donor == before
        assert wrapped.tuples == {("b",), ("c",)}

    def test_shared_index_serves_both_handles(self):
        relation = Relation("p", [("a", 1)])
        relation.lookup((0,), ("a",))
        view = relation.view()
        assert view._indexes is relation._indexes
        relation.add(("a", 2))  # unshares: view keeps the old index
        assert view.lookup((0,), ("a",)) == [("a", 1)]
        assert sorted(relation.lookup((0,), ("a",))) == [("a", 1), ("a", 2)]


class TestDatabase:
    def test_rel_creates_on_demand(self):
        database = Database()
        assert len(database.rel("p")) == 0
        assert "p" in database.relations

    def test_tuples_of_missing_is_empty(self):
        assert Database().tuples("nope") == set()

    def test_snapshot_restore(self):
        database = Database()
        database.add("p", ("a",))
        snapshot = database.snapshot()
        database.add("p", ("b",))
        database.add("q", ("c",))
        database.restore(snapshot)
        assert database.tuples("p") == {("a",)}
        assert database.tuples("q") == set()

    def test_snapshot_isolated_from_source(self):
        database = Database()
        database.add("p", ("a",))
        snapshot = database.snapshot()
        database.add("p", ("b",))
        assert snapshot.tuples("p") == {("a",)}

    def test_total_facts(self):
        database = Database()
        database.add("p", ("a",))
        database.add("q", ("b",))
        assert database.total_facts() == 2


class TestSnapshotRestoreCOW:
    def test_untouched_relation_identity_and_indexes_survive(self):
        from repro.datalog.engine import EvalStats

        database = Database()
        database.add("hot", ("a", 1))
        database.add("cold", ("x", 9))
        cold = database.rel("cold")
        cold.lookup((0,), ("x",))  # build an index on the untouched relation
        snapshot = database.snapshot()
        database.add("hot", ("b", 2))
        database.restore(snapshot)
        # identity survives the round-trip for the relation nobody touched
        assert database.rel("cold") is cold
        # and its index was neither dropped nor rebuilt: the next probe
        # counts as a hit, not a build
        stats = EvalStats()
        with stats.capture_indexes():
            assert database.rel("cold").lookup((0,), ("x",)) == [("x", 9)]
        assert (stats.index_builds, stats.index_hits) == (0, 1)

    def test_touched_relation_reverts_and_snapshot_stays_valid(self):
        database = Database()
        database.add("p", ("a",))
        snapshot = database.snapshot()
        database.add("p", ("b",))
        database.restore(snapshot)
        assert database.tuples("p") == {("a",)}
        database.add("p", ("c",))
        database.restore(snapshot)  # the same snapshot restores again
        assert database.tuples("p") == {("a",)}
        assert snapshot.tuples("p") == {("a",)}

    def test_relation_created_after_snapshot_is_dropped_on_restore(self):
        database = Database()
        database.add("p", ("a",))
        snapshot = database.snapshot()
        database.add("fresh", ("z",))
        database.restore(snapshot)
        assert database.get("fresh") is None

    def test_restore_refuses_a_snapshot_over_another_interner(self):
        database = Database()
        database.add("p", ("a",))
        foreign = Database()
        foreign.add("p", ("b",))
        with pytest.raises(InternerMismatchError):
            database.restore(foreign.snapshot())
        assert database.tuples("p") == {("a",)}

    def test_snapshot_shares_until_either_side_mutates(self):
        database = Database()
        database.add("p", ("a",))
        snapshot = database.snapshot()
        assert snapshot.rel("p").rows is database.rel("p").rows
        assert snapshot.interner is database.interner
        snapshot.add("p", ("b",))  # mutating the snapshot copy is also safe
        assert database.tuples("p") == {("a",)}
        assert snapshot.tuples("p") == {("a",), ("b",)}


class TestDistinctCounts:
    def test_scan_then_cache(self):
        relation = Relation("p", {(0, "a"), (1, "a"), (2, "b")})
        assert relation.distinct_count(0) == 3
        assert relation.distinct_count(1) == 2
        # cached: mutating invalidates, unchanged reads do not recompute
        assert relation._col_stats[0][1] == 3
        relation.add((3, "c"))
        assert relation.distinct_count(0) == 4
        assert relation.distinct_count(1) == 3
        relation.discard((3, "c"))
        assert relation.distinct_count(1) == 2

    def test_single_column_index_answers_without_scan(self):
        from repro.datalog.database import set_index_stats
        from repro.datalog.engine import EvalStats

        relation = Relation("p", {(i % 4, i) for i in range(20)})
        relation.lookup((0,), (1,))  # builds the (0,) index
        stats = EvalStats()
        previous = set_index_stats(stats)
        try:
            assert relation.distinct_count(0) == 4   # from the index
            assert relation.distinct_count(1) == 20  # needs a scan
        finally:
            set_index_stats(previous)
        assert stats.column_stats_built == 1

    def test_views_do_not_share_stat_caches(self):
        relation = Relation("p", {(0,), (1,)})
        assert relation.distinct_count(0) == 2
        view = relation.view()
        assert view.distinct_count(0) == 2
        view.add((2,))
        assert view.distinct_count(0) == 3
        assert relation.distinct_count(0) == 2

    def test_short_tuples_are_skipped(self):
        relation = Relation("p", {(0,), (1, 2)})
        assert relation.distinct_count(1) == 1
