"""Relations, indexes, the undo journal, index integrity."""

import pytest

from repro.datalog.database import Database, Journal, Relation, TermInterner
from repro.datalog.errors import IndexIntegrityError, TransactionError


def probe(relation: Relation, positions: tuple, key: tuple) -> list:
    """The value rows of ``relation`` whose ``positions`` hold ``key``,
    sorted, through the id-row index (:meth:`Relation.bucket_rows`); an
    unknown value matches nothing and interns nothing."""
    id_key = relation.interner.row_of(key)
    if id_key is None:
        return []
    bucket = relation.bucket_rows(
        positions, id_key[0] if len(positions) == 1 else id_key)
    return sorted(map(relation.interner.materialize_row, bucket))


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

    def test_a_probe_builds_the_index(self):
        relation = Relation("p", [("a", 1), ("a", 2), ("b", 3)])
        assert probe(relation, (0,), ("a",)) == [("a", 1), ("a", 2)]
        assert list(relation._indexes) == [(0,)]
        assert probe(relation, (0,), ("z",)) == []
        assert relation.interner.id_of("z") is None

    def test_index_maintained_on_add(self):
        relation = Relation("p", [("a", 1)])
        relation.index_for((0,))  # builds the (0,) index
        relation.add(("a", 2))
        assert probe(relation, (0,), ("a",)) == [("a", 1), ("a", 2)]

    def test_index_maintained_on_discard(self):
        relation = Relation("p", [("a", 1), ("a", 2)])
        relation.index_for((0,))
        relation.discard(("a", 1))
        assert probe(relation, (0,), ("a",)) == [("a", 2)]

    def test_multi_column_index(self):
        relation = Relation("p", [("a", 1, "x"), ("a", 2, "x"), ("a", 3, "y")])
        assert probe(relation, (0, 2), ("a", "x")) == \
            [("a", 1, "x"), ("a", 2, "x")]
        assert probe(relation, (0, 2), ("b", "x")) == []


class TestScanStability:
    def test_match_literal_yields_stable_view(self):
        from repro.datalog.database import Database
        from repro.datalog.runtime import EvalContext, solve
        from repro.datalog.terms import Atom, Constant, Literal, Variable

        db = Database()
        db.add("r", ("a", 1))
        db.add("r", ("a", 2))
        relation = db.rel("r")
        relation.index_for((0,))
        body = (Literal(Atom("r", (Constant("a"), Variable("X")))),)
        seen = []
        for bindings in solve(body, db, EvalContext()):
            seen.append(bindings["X"])
            relation.add(("a", bindings["X"] + 100))
        assert sorted(seen) == [1, 2]


class TestDiscardIntegrity:
    def test_discard_raises_on_missing_bucket(self):
        relation = Relation("p", [("a", 1)])
        relation.index_for((0,))
        relation._indexes[(0,)].clear()  # simulate corruption
        with pytest.raises(IndexIntegrityError):
            relation.discard(("a", 1))

    def test_discard_raises_on_missing_bucket_entry(self):
        relation = Relation("p", [("a", 1), ("a", 2)])
        relation.index_for((0,))
        key = relation.interner.id_of("a")
        row = relation.interner.row_of(("a", 1))
        relation._indexes[(0,)][key].remove(row)  # simulate corruption
        with pytest.raises(IndexIntegrityError):
            relation.discard(("a", 1))

    def test_healthy_discard_keeps_index_exact(self):
        relation = Relation("p", [("a", 1), ("a", 2), ("b", 3)])
        relation.index_for((0,))
        assert relation.discard(("a", 1))
        assert probe(relation, (0,), ("a",)) == [("a", 2)]
        assert relation.discard(("a", 2))
        assert probe(relation, (0,), ("a",)) == []


class TestJournal:
    def test_outside_a_transaction_nothing_is_logged(self):
        relation = Relation("p", [("a",)])
        relation.add(("b",))
        relation.discard(("a",))
        assert relation.journal.entries is None
        assert relation._changed == []

    def test_a_relation_logs_one_change_list_per_transaction(self):
        journal = Journal()
        relation = Relation("p", [("a",)], journal=journal)
        journal.begin()
        relation.add(("b",))
        relation.add(("a",))            # no change: not logged
        relation.discard(("zzz",))      # no change: not logged
        relation.add(("c",))
        assert len(journal.entries) == 1
        assert len(relation._changed) == 2
        journal.commit()
        assert journal.entries is None
        journal.begin()
        relation.discard(("b",))
        assert len(journal.entries) == 1 and len(relation._changed) == 1
        journal.rollback()
        assert relation.tuples == {("a",), ("b",), ("c",)}

    @pytest.mark.parametrize("present", [False, True])
    def test_one_row_toggled_three_times_rolls_back_exactly(self, present):
        """Added-removed-added (and removed-added-removed): the change
        list holds the row three times, and toggling it newest first lands
        where it started — rows, indexes and distinct counts alike."""
        journal = Journal()
        relation = Relation("p", [("a", 1)] + ([("a", 2)] if present else []),
                            journal=journal)
        relation.index_for((0,))
        relation.index_for((0, 1))
        before = set(relation.tuples)
        journal.begin()
        for _ in range(3):
            if ("a", 2) in relation:
                assert relation.discard(("a", 2))
            else:
                assert relation.add(("a", 2))
        assert (("a", 2) in relation) != present
        assert len(relation._changed) == 3
        journal.rollback()
        assert relation.tuples == before
        assert probe(relation, (0,), ("a",)) == sorted(before)
        assert probe(relation, (0, 1), ("a", 2)) == \
            ([("a", 2)] if present else [])
        assert relation.distinct_count(1) == len(before)
        for index in relation._indexes.values():
            assert sorted(row for bucket in index.values()
                          for row in bucket) == sorted(relation.rows)

    def test_rollback_replays_newest_first_with_logging_off(self):
        journal = Journal()
        order = []
        journal.begin()
        journal.entries.append((order.append, "first"))
        journal.entries.append((order.append, "second"))
        journal.entries.append(
            (lambda _: order.append(journal.entries), None))
        journal.rollback()
        assert order == [None, "second", "first"]
        assert journal.entries is None

    def test_a_transaction_inside_a_transaction_is_refused(self):
        journal = Journal()
        journal.begin()
        with pytest.raises(TransactionError):
            journal.begin()

    def test_a_wrapped_delta_relation_is_read_only(self):
        interner = TermInterner()
        donor = {interner.intern_row(("a",)), interner.intern_row(("b",))}
        before = set(donor)
        wrapped = Relation.wrap_rows("d", donor, interner)
        assert wrapped.rows is donor  # adopted, not copied
        assert probe(wrapped, (0,), ("a",)) == [("a",)]
        assert wrapped.tuples == {("a",), ("b",)}
        with pytest.raises(TransactionError):
            wrapped.add(("c",))
        with pytest.raises(TransactionError):
            wrapped.discard(("a",))
        with pytest.raises(TransactionError):
            wrapped.add_rows({interner.intern_row(("c",))})
        assert donor == before


class TestDatabase:
    def test_rel_creates_on_demand(self):
        database = Database()
        assert len(database.rel("p")) == 0
        assert "p" in database.relations

    def test_tuples_of_missing_is_empty(self):
        assert Database().tuples("nope") == set()

    def test_rollback_restores_rows_and_drops_created_relations(self):
        database = Database()
        database.add("p", ("a",))
        database.journal.begin()
        database.add("p", ("b",))
        database.add("q", ("c",))
        database.discard("p", ("a",))
        database.journal.rollback()
        assert database.tuples("p") == {("a",)}
        assert database.get("q") is None

    def test_commit_keeps_the_changes_and_logs_nothing(self):
        database = Database()
        database.journal.begin()
        database.add("p", ("a",))
        database.journal.commit()
        assert database.tuples("p") == {("a",)}
        assert database.journal.entries is None

    def test_two_databases_roll_back_under_one_journal(self):
        journal = Journal()
        derived = Database(journal=journal)
        asserted = Database(derived.interner, journal)
        derived.add("p", ("a",))
        journal.begin()
        asserted.add("p", ("b",))
        derived.add("p", ("b",))
        journal.rollback()
        assert derived.tuples("p") == {("a",)}
        assert asserted.relations == {}

    def test_total_facts(self):
        database = Database()
        database.add("p", ("a",))
        database.add("q", ("b",))
        assert database.total_facts() == 2


class TestRollbackCostsWhatChanged:
    def test_untouched_relation_identity_and_indexes_survive(self):
        from repro.datalog.engine import EvalStats

        database = Database()
        database.add("hot", ("a", 1))
        database.add("cold", ("x", 9))
        hot, cold = database.rel("hot"), database.rel("cold")
        hot.index_for((0,))
        cold.index_for((0,))
        cold_rows, cold_index = cold.rows, cold._indexes[(0,)]
        hot_rows, hot_index = hot.rows, hot._indexes[(0,)]
        database.journal.begin()
        database.add("hot", ("b", 2))
        database.journal.rollback()
        # nothing was copied: the same relations, row sets and indexes
        assert database.rel("cold") is cold and database.rel("hot") is hot
        assert cold.rows is cold_rows and cold._indexes[(0,)] is cold_index
        assert hot.rows is hot_rows and hot._indexes[(0,)] is hot_index
        # and the untouched index was neither dropped nor rebuilt: the
        # next probe counts as a hit, not a build
        stats = EvalStats()
        with stats.capture_indexes():
            assert probe(cold, (0,), ("x",)) == [("x", 9)]
            assert probe(hot, (0,), ("b",)) == []
        assert (stats.index_builds, stats.index_hits) == (0, 2)

    def test_an_index_built_inside_the_transaction_stays_exact(self):
        database = Database()
        database.add("p", ("a", 1))
        database.journal.begin()
        database.add("p", ("a", 2))
        assert probe(database.rel("p"), (0,), ("a",)) == [("a", 1), ("a", 2)]
        database.journal.rollback()
        assert probe(database.rel("p"), (0,), ("a",)) == [("a", 1)]

    def test_query_magic_leaves_the_database_as_found(self):
        from repro.datalog.magic import query_magic
        from repro.datalog.parser import parse_program, parse_atom

        rules = parse_program("""
            reach(X,Y) <- edge(X,Y).
            reach(X,Z) <- reach(X,Y), edge(Y,Z).
        """).rules
        database = Database()
        for edge in [(1, 2), (2, 3), (7, 8)]:
            database.add("edge", edge)
        database.add("reach", (7, 8))    # a row under the query's predicate
        database.rel("edge").index_for((1,))
        found = {name: (relation, set(relation.rows))
                 for name, relation in database.relations.items()}

        def assert_as_found():
            assert set(database.relations) == set(found)
            for name, (relation, rows) in found.items():
                assert database.relations[name] is relation
                assert relation.rows == rows
                for index in relation._indexes.values():
                    assert sorted(row for bucket in index.values()
                                  for row in bucket) == sorted(rows)
            assert database.journal.entries is None

        assert query_magic(rules, database, parse_atom("reach(1,X)")) == \
            {(1, 2), (1, 3)}
        assert_as_found()

        class Boom(Exception):
            pass

        def explode(*_args, **_kwargs):
            raise Boom

        import repro.datalog.magic as magic
        evaluate, magic.evaluate = magic.evaluate, explode
        try:
            with pytest.raises(Boom):
                query_magic(rules, database, parse_atom("reach(1,X)"))
        finally:
            magic.evaluate = evaluate
        assert_as_found()            # the seed fact is gone too

        database.journal.begin()
        with pytest.raises(TransactionError):
            query_magic(rules, database, parse_atom("reach(1,X)"))
        database.journal.rollback()


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
        relation.index_for((0,))  # builds the (0,) index
        stats = EvalStats()
        previous = set_index_stats(stats)
        try:
            assert relation.distinct_count(0) == 4   # from the index
            assert relation.distinct_count(1) == 20  # needs a scan
        finally:
            set_index_stats(previous)
        assert stats.column_stats_built == 1

    def test_a_rollback_invalidates_the_cached_counts(self):
        journal = Journal()
        relation = Relation("p", {(0,), (1,)}, journal=journal)
        assert relation.distinct_count(0) == 2
        journal.begin()
        relation.add((2,))
        assert relation.distinct_count(0) == 3
        journal.rollback()
        assert relation.distinct_count(0) == 2

    def test_short_tuples_are_skipped(self):
        relation = Relation("p", {(0,), (1, 2)})
        assert relation.distinct_count(1) == 1
