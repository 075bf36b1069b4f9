"""Property test: Relation hash indexes stay consistent under mutation.

Indexes are built lazily by ``lookup`` and maintained incrementally by
``add``/``discard``; ``copy``/``snapshot``/``restore`` share them
copy-on-write.  The invariant under any operation interleaving: ``lookup``
agrees with a brute-force scan of ``tuples``, and every maintained index
contains exactly the tuples of the relation, keyed correctly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database, Relation, _row_key

VALUES = st.integers(0, 3)
ROWS = st.tuples(VALUES, VALUES)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ROWS),
        st.tuples(st.just("discard"), ROWS),
        st.tuples(st.just("lookup"), st.tuples(
            st.sampled_from([(0,), (1,), (0, 1)]), ROWS)),
        st.tuples(st.just("copy"), st.none()),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("restore"), st.none()),
    ),
    min_size=1, max_size=40,
)


def brute_lookup(tuples, positions, key):
    return sorted(row for row in tuples
                  if tuple(row[p] for p in positions) == key)


def check_relation(relation: Relation, model: set) -> None:
    assert relation.tuples == model
    for positions in ((0,), (1,), (0, 1)):
        for row in set(model) | {(0, 0), (3, 3)}:
            key = tuple(row[p] for p in positions)
            assert sorted(relation.lookup(positions, key)) == \
                brute_lookup(model, positions, key)


@given(OPS)
@settings(max_examples=60, deadline=None)
def test_relation_indexes_consistent_under_mutation(ops):
    relation = Relation("e")
    model: set = set()
    # Force eager index builds so adds/discards exercise maintenance.
    relation.lookup((0,), (0,))
    relation.lookup((1,), (0,))
    for op, arg in ops:
        if op == "add":
            assert relation.add(arg) == (arg not in model)
            model.add(arg)
        elif op == "discard":
            assert relation.discard(arg) == (arg in model)
            model.discard(arg)
        elif op == "lookup":
            positions, row = arg
            key = tuple(row[p] for p in positions)
            assert sorted(relation.lookup(positions, key)) == \
                brute_lookup(model, positions, key)
        elif op == "copy":
            relation = relation.copy()
        check_relation(relation, model)


@given(OPS, OPS)
@settings(max_examples=40, deadline=None)
def test_database_snapshot_restore_keeps_indexes_consistent(before, after):
    db = Database()
    model: set = set()

    def apply(ops):
        nonlocal model
        for op, arg in ops:
            if op == "add":
                db.add("e", arg)
                model.add(arg)
            elif op == "discard":
                db.discard("e", arg)
                model.discard(arg)
            elif op == "lookup":
                positions, row = arg
                key = tuple(row[p] for p in positions)
                assert sorted(db.rel("e").lookup(positions, key)) == \
                    brute_lookup(model, positions, key)
            elif op == "snapshot":
                pass  # handled below; plain ops here

    apply(before)
    snap = db.snapshot()
    saved = set(model)
    check_relation(db.rel("e"), model)

    apply(after)
    check_relation(db.rel("e"), model)

    db.restore(snap)
    model = saved
    check_relation(db.rel("e"), model)
    # and the restored relation keeps maintaining its (rebuilt) indexes
    db.add("e", (0, 0))
    model.add((0, 0))
    check_relation(db.rel("e"), model)


def assert_every_index_agrees(relation: Relation) -> None:
    """Every maintained index holds exactly the relation's id rows, and
    the interner is a bijection consistent with the stored rows."""
    interner = relation.interner
    for positions, index in relation._indexes.items():
        indexed = []
        for key, bucket in index.items():
            assert bucket, f"empty bucket left behind for {key!r}"
            for row in bucket:
                row_key = row[positions[0]] if len(positions) == 1 \
                    else tuple(row[p] for p in positions)
                assert row_key == key
                assert row in relation.rows
            indexed.extend(bucket)
        assert len(indexed) == len(relation.rows)
        assert set(indexed) == relation.rows
    # Interner agreement: every stored id maps to a value that maps back
    # to the same id (append-only bijection), and materializing the rows
    # reproduces exactly the value-level contents.
    assert len(interner.ids) == len(interner.values)
    for row in relation.rows:
        for term_id in row:
            value = interner.values[term_id]
            assert interner.ids[value] == term_id
    assert {interner.materialize_row(row) for row in relation.rows} \
        == relation.tuples


MIXED_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ROWS),
        st.tuples(st.just("discard"), ROWS),
        st.tuples(st.just("lookup"), st.tuples(
            st.sampled_from([(0,), (1,), (0, 1)]), ROWS)),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("restore"), st.none()),
    ),
    min_size=1, max_size=60,
)


@given(MIXED_OPS)
@settings(max_examples=80, deadline=None)
def test_interleaved_snapshot_restore_keeps_every_index_exact(ops):
    """The ISSUE-2 property: add/discard/snapshot/restore/lookup in any
    order, with every index checked against ``tuples`` after each step —
    on the live database *and* on every outstanding snapshot."""
    db = Database()
    model: set = set()
    db.rel("e").lookup((0,), (0,))   # eager index so mutations maintain it
    db.rel("e").lookup((1,), (0,))
    snapshots: list = []             # (snapshot_db, model_copy) stack

    for op, arg in ops:
        if op == "add":
            assert db.add("e", arg) == (arg not in model)
            model.add(arg)
        elif op == "discard":
            assert db.discard("e", arg) == (arg in model)
            model.discard(arg)
        elif op == "lookup":
            positions, row = arg
            key = tuple(row[p] for p in positions)
            assert sorted(db.rel("e").lookup(positions, key)) == \
                brute_lookup(model, positions, key)
        elif op == "snapshot":
            snapshots.append((db.snapshot(), set(model)))
        elif op == "restore":
            if snapshots:
                snapshot, saved = snapshots[-1]
                db.restore(snapshot)
                model = set(saved)
        relation = db.get("e")
        if relation is not None:
            assert relation.tuples == model
            assert_every_index_agrees(relation)
        for snapshot, saved in snapshots:
            snap_rel = snapshot.get("e")
            if snap_rel is not None:
                assert snap_rel.tuples == saved
                assert_every_index_agrees(snap_rel)

    # After the stream, every snapshot must still restore faithfully.
    for snapshot, saved in reversed(snapshots):
        db.restore(snapshot)
        relation = db.rel("e")
        assert relation.tuples == saved
        assert_every_index_agrees(relation)
        relation.lookup((0, 1), (0, 0))  # index building still works
        assert_every_index_agrees(relation)


INDEXED = ((0,), (1,), (0, 1))


def assert_indexes_equal_rebuild(relation: Relation) -> None:
    """Each maintained index equals one rebuilt from the handle's own
    rows (bucket order aside)."""
    assert set(relation._indexes) == set(INDEXED)
    for positions, index in relation._indexes.items():
        rebuilt: dict = {}
        for row in relation.rows:
            rebuilt.setdefault(_row_key(row, positions), []).append(row)
        assert {key: sorted(bucket) for key, bucket in index.items()} == \
            {key: sorted(bucket) for key, bucket in rebuilt.items()}


TWO_HANDLE_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "discard"]), st.integers(0, 1), ROWS),
        st.tuples(st.just("view"), st.integers(0, 1), st.none()),
    ),
    min_size=1, max_size=50,
)


@given(st.lists(ROWS, max_size=10), TWO_HANDLE_OPS)
@settings(max_examples=80, deadline=None)
def test_view_interleaved_with_mutations_on_both_handles(initial, ops):
    """Bucket-granular copy-on-write: two handles of one indexed relation,
    mutated in any interleaving, with ``view()`` re-taken from either side
    at any point.  Each handle's indexes stay exact for its own rows, and
    a bucket neither handle wrote to since they last shared state is
    still one list object — sharing is per bucket, not per index."""
    base = Relation("e", initial)
    for positions in INDEXED:
        base.index_for(positions)
    handles = [base, base.view()]
    models = [set(initial), set(initial)]
    touched: set = set()                 # (positions, id key) since last view

    for op, side, row in ops:
        relation = handles[side]
        if op == "view":
            handles[1 - side] = relation.view()
            models[1 - side] = set(models[side])
            touched = set()
        else:
            if op == "add":
                changed = relation.add(row)
                models[side].add(row)
            else:
                changed = relation.discard(row)
                models[side].discard(row)
            if changed:
                id_row = relation.interner.row_of(row)
                touched.update((positions, _row_key(id_row, positions))
                               for positions in INDEXED)
        for relation, model in zip(handles, models):
            assert relation.tuples == model
            assert_indexes_equal_rebuild(relation)
        for positions in INDEXED:
            ours, theirs = (h._indexes[positions] for h in handles)
            for key in ours.keys() & theirs.keys():
                if (positions, key) not in touched:
                    assert ours[key] is theirs[key], (positions, key)


def test_first_write_after_view_copies_only_the_touched_buckets():
    relation = Relation("e", [(a, b) for a in range(4) for b in range(4)])
    for positions in INDEXED:
        relation.index_for(positions)
    ids = relation.interner.ids

    def copied_since(snapshot: Relation) -> dict:
        """positions -> keys whose bucket is no longer the shared list."""
        return {positions: {key for key, bucket in shared.items()
                            if relation._indexes[positions].get(key)
                            is not bucket}
                for positions, shared in snapshot._indexes.items()}

    snapshot = relation.view()
    before = {positions: {key: list(bucket) for key, bucket in index.items()}
              for positions, index in snapshot._indexes.items()}
    assert relation.add((0, 9))
    # one existing bucket written (column 0 = 0); the other two keys are new
    assert copied_since(snapshot) == {(0,): {ids[0]}, (1,): set(),
                                      (0, 1): set()}
    assert relation.discard((1, 1))
    # one more per index: k indexes, k buckets
    assert copied_since(snapshot) == {
        (0,): {ids[0], ids[1]}, (1,): {ids[1]},
        (0, 1): {(ids[1], ids[1])}}
    # the other handle saw none of it
    assert {positions: dict(index)
            for positions, index in snapshot._indexes.items()} == before

    # a second write to an owned bucket copies nothing more
    owned = relation._indexes[(0,)][ids[0]]
    assert relation.add((0, 8))
    assert relation._indexes[(0,)][ids[0]] is owned
    assert_indexes_equal_rebuild(relation)
    assert_indexes_equal_rebuild(snapshot)


def test_never_shared_relation_keeps_no_ownership_bookkeeping():
    relation = Relation("e", [(0, 0), (1, 1)])
    relation.index_for((0,))
    relation.add((0, 1))
    relation.discard((1, 1))
    assert relation._owned == {}
    assert_every_index_agrees(relation)
