"""Point queries: served answers are reads of the maintained fixpoint.

``Workspace.point_query`` is the serving plane's read path.  Its contract
is bit-identical answers to filtering the incrementally maintained
database (which every commit leaves at fixpoint) — through an index probe
on the bound columns, with nothing derived on the request path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.errors import ParseError, WorkspaceError
from repro.workspace.workspace import Workspace

POLICY = """
object("f1"). object("f2").
access(P,O,"read") <- good(P), object(O).
reach(X,Y) <- edge(X,Y).
reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


def fixpoint_read(workspace, pred, pattern):
    """Reference answer: filter the full relation by the bound pattern."""
    return {fact for fact in workspace.tuples(pred)
            if all(want is None or have == want
                   for have, want in zip(fact, pattern))}


def build():
    workspace = Workspace("srv")
    workspace.load(POLICY)
    workspace.assert_fact("good", ("alice",))
    workspace.assert_fact("good", ("bob",))
    for edge in [(1, 2), (2, 3), (3, 4), (2, 5)]:
        workspace.assert_fact("edge", edge)
    return workspace


class TestAnswersMatchFixpoint:
    def test_bound_derived_query(self):
        workspace = build()
        assert workspace.point_query('access("alice",O,"read")') == \
            fixpoint_read(workspace, "access", ("alice", None, "read"))

    def test_recursive_query(self):
        workspace = build()
        assert workspace.point_query("reach(1,Y)") == \
            fixpoint_read(workspace, "reach", (1, None))

    def test_unbound_query_reads_directly(self):
        workspace = build()
        assert workspace.point_query("access(P,O,M)") == \
            workspace.tuples("access")

    def test_edb_only_predicate(self):
        workspace = build()
        assert workspace.point_query('object("f1")') == {("f1",)}
        assert workspace.point_query('object("nope")') == set()

    def test_unknown_predicate_is_empty(self):
        workspace = build()
        assert workspace.point_query("nothing(X)") == set()

    def test_atom_string_with_trailing_dot(self):
        workspace = build()
        assert workspace.point_query('access("bob",O,"read").') == \
            fixpoint_read(workspace, "access", ("bob", None, "read"))

    def test_non_atom_source_rejected(self):
        workspace = build()
        with pytest.raises(WorkspaceError):
            workspace.point_query("a(X) <- b(X)")

    @pytest.mark.parametrize("query", [
        "reach(1,Y), reach(Y,Z)", "reach(1,Y). reach(2,Y)",
        "reach(1,Y); reach(2,Y)", "reach(X,Y) -> object(X)",
    ])
    def test_text_past_one_atom_is_not_answered(self, query):
        # The atom is parsed on its own: a conjunction used to be read as
        # one fact with two heads and answered for the first.
        workspace = build()
        with pytest.raises(WorkspaceError, match="expects a single atom"):
            workspace.point_query(query)

    @pytest.mark.parametrize("query", ["reach(\u00b2,Y)", "!reach(1,Y)",
                                       "reach(1,", "X = 1", ""])
    def test_text_that_is_no_atom_is_a_parse_error(self, query):
        workspace = build()
        with pytest.raises(ParseError):
            workspace.point_query(query)

    def test_me_resolves_to_the_owner(self):
        workspace = Workspace("alice")
        workspace.load("mine(X) <- owns(me,X).")
        workspace.assert_fact("owns", ("alice", "f1"))
        assert workspace.point_query("mine(X)") == {("f1",)}

    def test_mixed_edb_and_derived_head(self):
        # a head predicate can also hold directly asserted facts
        workspace = build()
        workspace.assert_fact("access", ("eve", "f9", "read"))
        assert workspace.point_query('access("eve",O,"read")') == \
            {("eve", "f9", "read")}
        assert workspace.point_query('access("alice",O,"read")') == \
            fixpoint_read(workspace, "access", ("alice", None, "read"))

    def test_negation_is_read_from_the_maintained_fixpoint(self):
        workspace = Workspace("w")
        workspace.load("""
            person("a"). person("b"). banned("b").
            allowed(X) <- person(X), !banned(X).
        """)
        assert workspace.point_query('allowed("a")') == {("a",)}
        assert workspace.point_query('allowed("b")') == set()

    def test_tracks_incremental_updates(self):
        workspace = build()
        query = 'access("alice",O,"read")'
        assert len(workspace.point_query(query)) == 2
        workspace.assert_fact("object", ("f3",))
        assert workspace.point_query(query) == \
            fixpoint_read(workspace, "access", ("alice", None, "read"))
        workspace.retract_facts("good", [("alice",)])
        assert workspace.point_query(query) == set()

    def test_fully_bound_query_is_row_membership(self):
        workspace = build()
        assert workspace.point_query("reach(1,4)") == {(1, 4)}
        assert workspace.point_query("reach(4,1)") == set()
        assert workspace.point_query("reach(1,99)") == set()
        # a float spelling is another fact: no join, no membership
        assert workspace.point_query("reach(1.0,4)") == set()

    def test_a_repeated_variable_is_a_typed_join(self):
        # 1 and True, 2 and 2.0 compare equal but are two facts each: a
        # repeated variable joins ids, in a point query as in a query
        workspace = Workspace("w")
        workspace.assert_facts("d", [(1, True), (2, 2.0), (3, 3)])
        assert workspace.point_query("d(X,X)") == {(3, 3)}
        assert workspace.query("d(X,X)") == [{"X": 3}]

    def test_a_repeated_variable_requires_equal_columns(self):
        workspace = Workspace("w")
        workspace.load('delegates("a","a"). delegates("a","b"). '
                       'delegates("c","c"). q(1,2,3,3). q(1,1,3,4).')
        want = {("a", "a"), ("c", "c")}
        assert workspace.point_query("delegates(X,X)") == want
        assert {(row["X"], row["X"])
                for row in workspace.query("delegates(X,X)")} == want
        assert workspace.point_query('delegates("a",X)') == \
            {("a", "a"), ("a", "b")}
        # ``_X`` is a named variable; each bare ``_`` is a distinct one
        assert workspace.point_query("q(_,_,_X,_X)") == {(1, 2, 3, 3)}
        assert workspace.point_query("q(X,X,_,_)") == {(1, 1, 3, 4)}
        assert workspace.point_query("q(1,_X,_X,_)") == set()
        assert workspace.point_query("q(_,_,_,_)") == \
            {(1, 2, 3, 3), (1, 1, 3, 4)}

    def test_wrong_arity_rejected(self):
        # an index probe on the bound prefix would otherwise hand back
        # three-column facts for a one-column question
        workspace = build()
        for query in ('access("alice")', 'access("alice",O)',
                      'access("alice",O,"read",X)', "reach(1)"):
            with pytest.raises(WorkspaceError, match="has arity"):
                workspace.point_query(query)

    def test_open_transaction_reads_what_tuples_reads(self):
        workspace = build()
        with workspace.transaction():
            workspace.assert_fact("good", ("carol",))
            workspace.retract_fact("good", ("alice",))
            # the asserted facts so far, not yet their consequences
            assert workspace.point_query('good("carol")') == {("carol",)}
            assert workspace.point_query('good("alice")') == set()
            for name in ("alice", "carol"):
                assert workspace.point_query(f'access("{name}",O,M)') == \
                    fixpoint_read(workspace, "access", (name, None, None))
        assert workspace.point_query('access("alice",O,M)') == set()
        assert len(workspace.point_query('access("carol",O,M)')) == 2


STREAM_POLICY = """
path(X,Y) <- edge(X,Y).
path(X,Z) <- path(X,Y), edge(Y,Z).
"""

NODES = st.integers(1, 5)
#: one update: (retract?, predicate, fact) — ``path`` is both asserted
#: and derived, the shape whose asserted rows a demand rewrite misses
UPDATES = st.tuples(st.booleans(), st.sampled_from(["edge", "edge", "path"]),
                    st.tuples(NODES, NODES))
#: one transaction: its updates, and whether it aborts at the end
TRANSACTIONS = st.tuples(st.lists(UPDATES, min_size=1, max_size=3),
                         st.booleans())


class Aborted(Exception):
    """Raised inside a transaction to roll it back."""


def assert_reads_agree(workspace):
    """Every predicate, every binding pattern, every value (6 was never
    interned): the point query is the filtered relation.  A variable named
    twice is the diagonal the body solver finds."""
    values = [None, *range(1, 7)]
    for pred in ("edge", "path"):
        for first in values:
            for second in values:
                want = fixpoint_read(workspace, pred, (first, second))
                args = ",".join(f"V{i}" if value is None else str(value)
                                for i, value in enumerate((first, second)))
                assert workspace.point_query(f"{pred}({args})") == want, \
                    (pred, first, second)
        diagonal = {(row["V"], row["V"])
                    for row in workspace.query(f"{pred}(V,V)")}
        assert workspace.point_query(f"{pred}(V,V)") == diagonal, pred
        assert workspace.point_query(f"{pred}(_V,_V)") == diagonal, pred


class TestGeneratedStreams:
    @given(st.lists(TRANSACTIONS, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_property_point_query_equals_filtered_tuples(self, stream):
        workspace = Workspace("srv")
        workspace.load(STREAM_POLICY)
        for updates, abort in stream:
            try:
                with workspace.transaction():
                    for retract, pred, fact in updates:
                        asserted = fact in workspace.edb.get(pred, ())
                        if retract and asserted:
                            workspace.retract_fact(pred, fact)
                        elif not retract:
                            workspace.assert_fact(pred, fact)
                    # mid-transaction the indexes a query probes and the
                    # rows ``tuples()`` reads have both seen the updates
                    assert_reads_agree(workspace)
                    if abort:
                        raise Aborted
            except Aborted:
                pass
            assert_reads_agree(workspace)


class TestServingCounters:
    def test_queries_on_a_quiescent_workspace_derive_nothing(self):
        workspace = build()
        before = workspace.stats.copy()
        for query in ('access("alice",O,"read")', 'access("bob",O,"read")',
                      'access("alice",O,"read")', "reach(1,Y)", "reach(X,4)",
                      "reach(1,4)", "reach(X,Y)", 'object("f1")'):
            workspace.point_query(query)
        delta = workspace.stats.diff(before)
        for counter in ("derivations", "rounds", "plans_built",
                        "magic_programs_built", "magic_cache_hits"):
            assert getattr(delta, counter) == 0, counter

    def test_retraction_uses_dred_not_full_recompute(self):
        workspace = build()
        before = workspace.stats.copy()
        workspace.retract_facts("good", [("alice",)])
        delta = workspace.stats.diff(before)
        assert delta.dred_strata > 0
        assert delta.full_recomputes == 0

    def test_nonmonotone_stratum_recompute_counted(self):
        workspace = Workspace("w")
        workspace.load("""
            person("a"). person("b"). banned("b").
            allowed(X) <- person(X), !banned(X).
        """)
        before = workspace.stats.copy()
        workspace.retract_facts("banned", [("b",)])
        delta = workspace.stats.diff(before)
        assert delta.strata_recomputed > 0
        assert delta.full_recomputes == 0
        assert workspace.tuples("allowed") == {("a",), ("b",)}
