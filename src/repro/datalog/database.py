"""Interned columnar fact storage: id-space relations under an undo journal.

Ground terms are *interned* at relation boundaries: the system's one
:class:`TermInterner` maps each distinct ground value to a dense integer
id (with an inverse table for materialization), so :class:`Relation` rows
are ``tuple[int, ...]`` and every hash index maps id-keys to id-row
buckets.  The join core (:mod:`repro.datalog.runtime`) probes and binds in
id space; boxed Python values are materialized only at output boundaries
— builtins, comparisons, aggregation, wire encoding, and user-facing
reads through the value-level API (``tuples``, iteration).

Why ids win: equality of interned values is equality of small ints, so
row hashing, index probes and duplicate checks stop touching the boxed
values entirely; single-column index keys are the bare id (no 1-tuple
allocation per probe).

Rollback is an **undo journal**: everything one transaction can change
shares one :class:`Journal`, and between its ``begin`` and ``commit`` each
mutator logs what it *really* changed — a relation, the rows it added or
removed — so ``rollback`` puts back exactly that, through the same
index-maintaining mutators.  A transaction costs what it changes, never
what the store holds.  The interner itself is **append only** — ids are
never reassigned or dropped — so a rollback leaves it alone, and no other
database sharing it ever sees an id change meaning.

Index maintenance is *checked*: a row present in ``rows`` whose index
entry is missing raises :class:`~repro.datalog.errors.IndexIntegrityError`
instead of silently returning wrong join results.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Iterator, Optional

from .errors import IndexIntegrityError, TransactionError
from .pretty import format_pattern
from .terms import PatternValue, PredPartition, RuleRef

#: When set, an object with integer counter attributes (an
#: :class:`repro.datalog.stats.EvalStats`) that the storage layer
#: increments: ``index_builds``/``index_hits`` on :meth:`Relation` index
#: activity, ``terms_interned``/``intern_hits`` on :class:`TermInterner`
#: traffic, and ``value_materializations`` on id-row → value-tuple
#: conversions.  Installed/removed via :func:`set_index_stats`; the
#: common path pays one ``is None`` check.
_index_stats: Optional[Any] = None


def set_index_stats(stats: Optional[Any]) -> Optional[Any]:
    """Install ``stats`` as the active storage-counter sink; return the old one.

    Callers must restore the returned previous value when done (see
    ``EvalStats.capture_indexes``), so nested captures compose.
    """
    global _index_stats
    previous = _index_stats
    _index_stats = stats
    return previous


def term_key(value: Any) -> Any:
    """The interner's key for ``value``: equal keys are one fact.

    A bool or a float is keyed with its type, so ``True``, ``1`` and
    ``1.0`` are three facts; a float by its exact bits (``-0.0`` is not
    ``0.0``, every NaN is one).  Tuples and partition names are typed
    inside, and a quoted pattern is keyed by its text (its constants
    compare as Python values, so ``[| p(0). |]`` would equal
    ``[| p(false). |]``).  Any other value (ints, strings, rules, bytes)
    is its own key: Python equality already keeps it apart from every
    other type's.
    """
    kind = type(value)
    if kind is float:
        return (float, value.hex())
    if kind is bool:
        return (bool, value)
    if kind is tuple:
        return (tuple, tuple([term_key(item) for item in value]))
    if kind is PredPartition:
        return (PredPartition, value.pred, term_key(value.keys))
    if kind is PatternValue:
        return (PatternValue, format_pattern(value.pattern))
    return value


#: The types :func:`term_key` keys with their type.
_TYPED = frozenset((float, bool, tuple, PredPartition, PatternValue))


class TermInterner:
    """A bijection between ground values and dense integer ids.

    ``values`` is the id → value table (a plain list indexed by id) and
    ``ids`` its inverse, keyed by :func:`term_key`: the interner is the
    one place that decides when two values are the same fact, and joins,
    provenance, aggregate groups and shard placement follow its ids.
    ``True``, ``1`` and ``1.0`` get three ids; comparisons and builtins
    still see values.  A system has one (``RuleRegistry.terms``), shared
    by reference by every relation, delta and wire block of its
    principals and shards.  It is **append-only**: interning never
    reassigns or frees an id, so a rolled-back transaction leaves it alone.
    ``named`` holds the ids of the values that can name a rule (a
    :class:`RuleRef` or a tuple, which may nest one), recorded as they
    are assigned, so a scan for rule names intersects with it.
    """

    __slots__ = ("ids", "values", "named")

    def __init__(self) -> None:
        self.ids: dict[Any, int] = {}
        self.values: list[Any] = []
        self.named: set[int] = set()

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: Any) -> int:
        """The id for ``value``, allocating the next dense id if new."""
        key = term_key(value)
        found = self.ids.get(key)
        if found is not None:
            if _index_stats is not None:
                _index_stats.intern_hits += 1
            return found
        values = self.values
        assigned = len(values)
        self.ids[key] = assigned
        values.append(value)
        if isinstance(value, (RuleRef, tuple)):
            self.named.add(assigned)
        if _index_stats is not None:
            _index_stats.terms_interned += 1
        return assigned

    def id_of(self, value: Any) -> Optional[int]:
        """The id for ``value``, or None — never allocates (lookups)."""
        return self.ids.get(term_key(value))

    def intern_row(self, fact: tuple) -> tuple:
        """Intern every term of a ground fact: value tuple → id row."""
        ids = self.ids
        try:
            # All-hits fast path: one subscript per term, no call.
            row = tuple([ids[term_key(value) if type(value) in _TYPED
                             else value] for value in fact])
        except KeyError:
            intern = self.intern
            return tuple([intern(value) for value in fact])
        if _index_stats is not None:
            _index_stats.intern_hits += len(fact)
        return row

    def row_of(self, fact: tuple) -> Optional[tuple]:
        """The id row for ``fact``, or None if any term was never interned.

        The non-creating twin of :meth:`intern_row`: membership tests and
        discards use it so probing for unknown values cannot grow the
        table.
        """
        ids = self.ids
        try:
            return tuple([ids[term_key(value) if type(value) in _TYPED
                              else value] for value in fact])
        except KeyError:
            return None

    def materialize_row(self, row: tuple) -> tuple:
        """Id row → value tuple (an output-boundary conversion)."""
        values = self.values
        if _index_stats is not None:
            _index_stats.value_materializations += 1
        return tuple([values[i] for i in row])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TermInterner({len(self.values)} terms)"


class Journal:
    """The undo log of one transaction at a time.

    ``entries`` is ``None`` outside a transaction — the only check a
    mutator pays — else a list of ``(undo, argument)`` pairs, appended by
    whoever changes something.  :meth:`rollback` calls them newest first
    with logging off, so an undo may itself be a logging mutator.
    ``epoch`` counts transactions: a holder that logs once per transaction
    (a :class:`Relation`'s change list) compares it to tell its first touch.
    ``touched`` lists the relations whose change list the open transaction
    started, so a reader of what it changed visits only them.
    """

    __slots__ = ("entries", "epoch", "touched")

    def __init__(self) -> None:
        self.entries: Optional[list] = None
        self.epoch = 0
        self.touched: list = []

    def begin(self) -> None:
        if self.entries is not None:
            raise TransactionError("a transaction is already open on this journal")
        self.epoch += 1
        self.entries = []
        self.touched = []

    def log(self, undo, argument) -> None:
        """Record ``undo(argument)`` if a transaction is open."""
        if self.entries is not None:
            self.entries.append((undo, argument))

    def commit(self) -> None:
        self.entries = None
        self.touched = []

    def rollback(self) -> None:
        entries, self.entries = self.entries, None
        self.touched = []
        for undo, argument in reversed(entries):
            undo(argument)


def _row_key(row: tuple, positions: tuple):
    """The index key of ``row`` at ``positions``.

    Single-column indexes are keyed by the **bare id** — the hot probe
    path then hashes one small int instead of allocating a 1-tuple per
    probe.  Multi-column keys are id tuples in position order.
    """
    if len(positions) == 1:
        return row[positions[0]]
    return tuple([row[p] for p in positions])


class Relation:
    """A named set of equal-length id rows with incremental hash indexes.

    ``rows`` holds ``tuple[int, ...]`` rows over the shared ``interner``.
    Inside a transaction of ``journal`` the three mutators append each row
    they really changed to ``_changed``, the list of transaction
    ``_changed_epoch``, logged on first touch.  A row's changes alternate
    added/removed, so toggling that list newest first through the same
    mutators *is* the rollback, indexes included.

    The value-level API (``tuples``, ``add``, ``discard``, iteration,
    membership) interns/materializes at the boundary; the
    id-level API (``rows``, ``add_row``, ``discard_row``,
    ``bucket_rows``) is the join core's hot path.
    """

    __slots__ = ("name", "rows", "interner", "journal", "_indexes",
                 "_changed", "_changed_epoch",
                 "_version", "_col_stats", "_values")

    def __init__(self, name: str, tuples: Optional[Iterable[tuple]] = None,
                 interner: Optional[TermInterner] = None,
                 journal: Optional[Journal] = None) -> None:
        self.name = name
        self.interner = interner if interner is not None else TermInterner()
        self.journal = journal if journal is not None else Journal()
        intern_row = self.interner.intern_row
        self.rows: set[tuple] = (
            {intern_row(fact) for fact in tuples} if tuples else set())
        self._indexes: dict[tuple, dict[Any, list[tuple]]] = {}
        self._changed: list[tuple] = []
        self._changed_epoch = 0
        self._version = 0
        self._col_stats: dict[int, tuple[int, int]] = {}
        self._values: Optional[tuple[int, set]] = None

    @classmethod
    def wrap_rows(cls, name: str, rows: set,
                  interner: TermInterner) -> "Relation":
        """A read-only relation adopting an existing *id-row* set — no copy.

        Reads (including lazy index builds) touch the donor set directly;
        the three mutators refuse.  Used for semi-naive delta relations;
        the rows must be interned against ``interner`` (the database's, so
        id-space probes against them are meaningful).
        """
        relation = _DeltaRelation.__new__(_DeltaRelation)
        relation.name = name
        relation.interner = interner
        relation.rows = rows
        relation._indexes = {}
        relation._version = 0
        relation._col_stats = {}
        relation._values = None
        return relation

    def _undo_changes(self, changed: list) -> None:
        """Roll back: toggle each logged row, newest first."""
        for row in reversed(changed):
            if row in self.rows:
                self.discard_row(row)
            else:
                self.add_row(row)

    # ------------------------------------------------------------------
    # Value-level API (interns / materializes at the boundary)
    # ------------------------------------------------------------------

    @property
    def tuples(self) -> set:
        """The relation's contents as a set of *value* tuples.

        Materialized lazily from the id rows and cached until the next
        mutation, so repeated reads of a quiescent relation pay one
        conversion.  Callers must treat the set as read-only.
        """
        cached = self._values
        version = self._version
        if cached is not None and cached[0] == version:
            return cached[1]
        values = self.interner.values
        materialized = {tuple([values[i] for i in row]) for row in self.rows}
        if _index_stats is not None:
            _index_stats.value_materializations += len(materialized)
        self._values = (version, materialized)
        return materialized

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.tuples)

    def __contains__(self, item: tuple) -> bool:
        row = self.interner.row_of(item)
        return row is not None and row in self.rows

    def add(self, item: tuple) -> bool:
        """Insert a value tuple; return True if it was new."""
        return self.add_row(self.interner.intern_row(item))

    def discard(self, item: tuple) -> bool:
        """Remove a value tuple; return True if it was present."""
        row = self.interner.row_of(item)
        if row is None:
            return False
        return self.discard_row(row)

    # ------------------------------------------------------------------
    # Id-level API (the join core's hot path)
    # ------------------------------------------------------------------

    def add_row(self, row: tuple) -> bool:
        """Insert an id row; return True if it was new."""
        if row in self.rows:
            return False
        journal = self.journal
        if journal.entries is not None:
            if self._changed_epoch != journal.epoch:
                self._first_touch(journal)
            self._changed.append(row)
        self._version += 1
        self.rows.add(row)
        self._index_rows((row,))
        return True

    def add_rows(self, rows: set) -> set:
        """Bulk :meth:`add_row`: insert many id rows, return the new ones.

        The dedup against existing rows is one C-level set difference
        (the semi-naive merge loop calls this once per rule application
        instead of paying a Python call per derived fact); index
        maintenance runs only over the genuinely fresh rows.
        """
        fresh = rows - self.rows
        if not fresh:
            return fresh
        journal = self.journal
        if journal.entries is not None:
            if self._changed_epoch != journal.epoch:
                self._first_touch(journal)
            self._changed.extend(fresh)
        self._version += 1
        self.rows |= fresh
        self._index_rows(fresh)
        return fresh

    def changes(self) -> list:
        """The open transaction's change list: every row a mutator really
        changed, in order (the live list, which later changes extend);
        empty outside a transaction or when none touched this relation."""
        journal = self.journal
        if journal.entries is None or self._changed_epoch != journal.epoch:
            return []
        return self._changed

    def net_change(self) -> tuple[set, set]:
        """The rows the open transaction inserted and deleted, net.  A
        row's changes alternate, so one that changed an odd number of
        times was inserted if it is present now, else deleted."""
        changed = self.changes()
        toggled = set(changed)
        if len(toggled) != len(changed):
            toggled = {row for row, count in Counter(changed).items()
                       if count & 1}
        inserted = toggled & self.rows
        return inserted, toggled - inserted

    def _first_touch(self, journal: Journal) -> None:
        """Start this transaction's change list and log it, once."""
        self._changed_epoch = journal.epoch
        self._changed = []
        journal.entries.append((self._undo_changes, self._changed))
        journal.touched.append(self)

    def _index_rows(self, fresh: Iterable[tuple]) -> None:
        """Enter rows just added to ``rows`` into every maintained index."""
        for positions, index in self._indexes.items():
            single = len(positions) == 1
            column = positions[0]
            for row in fresh:
                key = row[column] if single \
                    else tuple([row[p] for p in positions])
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)

    def discard_row(self, row: tuple) -> bool:
        """Remove an id row; return True if it was present.

        Every maintained index must agree with ``rows``; a missing
        bucket or bucket entry means maintenance went wrong somewhere and
        raises :class:`IndexIntegrityError` rather than silently leaving
        the index disagreeing with the row set.
        """
        if row not in self.rows:
            return False
        journal = self.journal
        if journal.entries is not None:
            if self._changed_epoch != journal.epoch:
                self._first_touch(journal)
            self._changed.append(row)
        self._version += 1
        self.rows.discard(row)
        for positions, index in self._indexes.items():
            key = _row_key(row, positions)
            bucket = index.get(key)
            if bucket is None:
                raise IndexIntegrityError(
                    f"relation {self.name!r}: index {positions} has no bucket "
                    f"for {row!r}"
                )
            try:
                bucket.remove(row)
            except ValueError:
                raise IndexIntegrityError(
                    f"relation {self.name!r}: index {positions} bucket is "
                    f"missing {row!r}"
                ) from None
            if not bucket:
                del index[key]
        return True

    def index_for(self, positions: tuple) -> dict:
        """The live id-row hash index on ``positions`` (built on first use).

        Returns the raw ``key -> bucket`` dict so hot join loops can bind
        ``index.get`` once per rule application instead of paying a
        method call per probe; counts one ``index_builds`` or
        ``index_hits`` per call, so the flat join core's prefetch counts
        index traffic per rule application while per-probe callers
        (:meth:`bucket_rows`) keep per-probe counts.
        Keys are bare ids for single-column indexes, id tuples otherwise.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            single = len(positions) == 1
            column = positions[0]
            for row in self.rows:
                row_key = row[column] if single \
                    else tuple([row[p] for p in positions])
                bucket = index.get(row_key)
                if bucket is None:
                    index[row_key] = [row]
                else:
                    bucket.append(row)
            self._indexes[positions] = index
            if _index_stats is not None:
                _index_stats.index_builds += 1
        elif _index_stats is not None:
            _index_stats.index_hits += 1
        return index

    def bucket_rows(self, positions: tuple, id_key):
        """The raw id-row index bucket for ``id_key`` (no copy).

        Zero-copy fast path for the engine's staged rule application,
        where the relation is by contract not mutated while the bucket
        is being iterated.  ``id_key`` is a bare id for single-column
        indexes, an id tuple otherwise.  Returns ``()`` on a miss.
        """
        return self.index_for(positions).get(id_key, ())

    def distinct_count(self, position: int) -> int:
        """Number of distinct values in one column (cached per version).

        Interning is a bijection, so distinct ids ≡ distinct values.
        Feeds the join cost model's per-column selectivity (``1/distinct``
        rather than an assumed constant).  An existing single-column hash
        index answers in O(1); otherwise one scan computes the count, and
        the result stays cached until the relation next mutates.
        """
        cached = self._col_stats.get(position)
        version = self._version
        if cached is not None and cached[0] == version:
            return cached[1]
        index = self._indexes.get((position,))
        if index is not None:
            count = len(index)
        else:
            count = len({
                row[position] for row in self.rows if len(row) > position
            })
            if _index_stats is not None:
                _index_stats.column_stats_built += 1
        self._col_stats[position] = (version, count)
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name}, {len(self.rows)} rows)"


class _DeltaRelation(Relation):
    """What :meth:`Relation.wrap_rows` returns: the donor's rows, read-only."""

    __slots__ = ()

    def _refuse(self, _rows) -> bool:
        raise TransactionError(
            f"delta relation {self.name!r} is read-only: its rows are lent")

    add_row = add_rows = discard_row = _refuse


class Database:
    """A mutable mapping from predicate name to :class:`Relation`.

    All relations share one append-only :class:`TermInterner`, so id rows
    are comparable across relations and deltas, and one :class:`Journal`
    (the host's), which also undoes the creation of a relation.
    """

    __slots__ = ("relations", "interner", "journal")

    def __init__(self, interner: Optional[TermInterner] = None,
                 journal: Optional[Journal] = None) -> None:
        self.relations: dict[str, Relation] = {}
        self.interner = interner if interner is not None else TermInterner()
        self.journal = journal if journal is not None else Journal()

    def rel(self, name: str) -> Relation:
        """The relation for ``name``, created empty on first reference."""
        relation = self.relations.get(name)
        if relation is None:
            relation = Relation(name, None, self.interner, self.journal)
            self.relations[name] = relation
            self.journal.log(self.relations.pop, name)
        return relation

    def get(self, name: str) -> Optional[Relation]:
        return self.relations.get(name)

    def tuples(self, name: str) -> set[tuple]:
        relation = self.relations.get(name)
        return relation.tuples if relation is not None else set()

    def add(self, name: str, item: tuple) -> bool:
        return self.rel(name).add(item)

    def discard(self, name: str, item: tuple) -> bool:
        relation = self.relations.get(name)
        return relation.discard(item) if relation is not None else False

    def preds(self) -> list[str]:
        return sorted(self.relations)

    def total_facts(self) -> int:
        return sum(len(r) for r in self.relations.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.total_facts()} facts in {len(self.relations)} relations)"
