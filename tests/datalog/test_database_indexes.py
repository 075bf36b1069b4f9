"""Property tests: relation hash indexes and the undo journal agree.

Indexes are built lazily by a probe (``bucket_rows``) and maintained
incrementally by ``add``/``discard``/``add_rows``; a transaction's
``rollback`` toggles the rows it changed back through those same
mutators.  The invariant under any interleaving of mutations, probes and
transactions: a probe, ``tuples`` and ``distinct_count`` agree with a
brute-force scan of a value-space model, every maintained index contains
exactly the rows of its relation under the right keys, a rollback lands
on the model saved at ``begin``, and a commit leaves nothing logged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database, Journal, Relation, _row_key
from test_database import probe

VALUES = st.integers(0, 3)
ROWS = st.tuples(VALUES, VALUES)
INDEXED = ((0,), (1,), (0, 1))


def ops(*targets):
    """Operation streams over the relations named in ``targets``."""
    target = st.sampled_from(targets)
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["add", "discard"]), target, ROWS),
            st.tuples(st.just("add_rows"), target,
                      st.frozensets(ROWS, max_size=4)),
            st.tuples(st.just("probe"), target,
                      st.tuples(st.sampled_from(INDEXED), ROWS)),
            st.tuples(st.sampled_from(["begin", "commit", "rollback"]),
                      st.none(), st.none()),
        ),
        min_size=1, max_size=60,
    )


def brute_lookup(tuples, positions, key):
    return sorted(row for row in tuples
                  if tuple(row[p] for p in positions) == key)


def assert_matches_model(relation: Relation, model: set) -> None:
    """The relation reads as ``model`` through every read path, and each
    maintained index equals one rebuilt from its rows (bucket order
    aside, no empty bucket left behind)."""
    assert relation.tuples == model
    assert len(relation) == len(model)
    for column in (0, 1):
        assert relation.distinct_count(column) == \
            len({row[column] for row in model})
    for positions in INDEXED:
        for row in model | {(0, 0), (3, 3)}:
            key = tuple(row[p] for p in positions)
            assert probe(relation, positions, key) == \
                brute_lookup(model, positions, key)
    for positions, index in relation._indexes.items():
        rebuilt: dict = {}
        for row in relation.rows:
            rebuilt.setdefault(_row_key(row, positions), []).append(row)
        assert {key: sorted(bucket) for key, bucket in index.items()} == \
            {key: sorted(bucket) for key, bucket in rebuilt.items()}


def drive(journal: Journal, relation_of, exists, stream, eager=()):
    """Run ``stream`` against the relations ``relation_of(name)`` yields,
    beside a value-space model; check everything after every step.

    ``exists(name)`` is the relation if it currently exists, else None.
    """
    models: dict = {}
    saved = None                    # models at ``begin``
    held = None                     # name -> (relation, rows, indexes) then
    for name in eager:
        for positions in INDEXED:
            relation_of(name).index_for(positions)
        models[name] = set()

    for op, name, arg in stream:
        if op == "begin":
            if journal.entries is None:
                journal.begin()
                saved = {n: set(m) for n, m in models.items()}
                held = {n: (exists(n), exists(n).rows,
                            dict(exists(n)._indexes)) for n in models}
        elif op == "commit":
            if journal.entries is not None:
                journal.commit()
                assert journal.entries is None
                saved = None
        elif op == "rollback":
            if journal.entries is not None:
                journal.rollback()
                for created in set(models) - set(saved):
                    assert exists(created) is None
                models = saved
                saved = None
                for n, (relation, rows, indexes) in held.items():
                    # nothing was copied, touched or not: same objects
                    assert exists(n) is relation and relation.rows is rows
                    for positions, index in indexes.items():
                        assert relation._indexes[positions] is index
        else:
            relation = relation_of(name)
            model = models.setdefault(name, set())
            if op == "add":
                assert relation.add(arg) == (arg not in model)
                model.add(arg)
            elif op == "discard":
                assert relation.discard(arg) == (arg in model)
                model.discard(arg)
            elif op == "add_rows":
                id_rows = {relation.interner.intern_row(row) for row in arg}
                fresh = relation.add_rows(id_rows)
                assert {relation.interner.materialize_row(row)
                        for row in fresh} == set(arg) - model
                model |= arg
            else:
                positions, row = arg
                key = tuple(row[p] for p in positions)
                assert probe(relation, positions, key) == \
                    brute_lookup(model, positions, key)
        for n, model in models.items():
            assert_matches_model(exists(n), model)


@given(ops("e"))
@settings(max_examples=80, deadline=None)
def test_three_index_relation_under_mutation_and_transactions(stream):
    journal = Journal()
    relation = Relation("e", journal=journal)
    drive(journal, lambda _name: relation, lambda _name: relation, stream,
          eager=("e",))
    if journal.entries is not None:
        journal.commit()
    assert journal.entries is None
    # after a commit the next transaction starts a new change list
    held = set(relation.tuples)
    journal.begin()
    relation.add((9, 9))
    assert len(journal.entries) == 1 and len(relation._changed) == 1
    journal.rollback()
    assert relation.tuples == held


@given(ops("e", "f"))
@settings(max_examples=80, deadline=None)
def test_two_relation_database_under_mutation_and_transactions(stream):
    """``f`` does not exist until the stream first writes to it: created
    inside a transaction that rolls back, it is gone again."""
    db = Database()
    drive(db.journal, db.rel, db.get, stream, eager=("e",))
    assert set(db.relations) >= {"e"}
    for relation in db.relations.values():
        assert relation.journal is db.journal
