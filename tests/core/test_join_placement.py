"""A join writes each workspace once, and a row leaves for the node the
sender's ``predNode`` relation names when it is sent (paper section
3.5: every principal holds the ``loc`` table).  A commit queues a row at
the node its key's owner names then, and a commit that changes
``predNode`` queues the rows of the keys it names again.

A stream of principals created on random nodes, ``says``, ``run()``,
relocations (a ``loc`` row retracted and another asserted in one
transaction), extra ``loc`` rows, and a principal's only ``loc`` row
retracted and later restored runs in two systems: one creates each
batch of principals in the order drawn, the other in reverse.  After
every step:

* each principal's owner read (:meth:`Principal.owner`) names, for each
  placed key, what a reference builds from its ``predNode`` relation
  alone: the smallest node of the key's rows;
* both systems hold equal relations at every principal (key ids, not
  key bytes, which depend on the order keys were drawn in);
* every ``export`` row a speaker holds for a known principal is queued
  or sent to that principal;
* every queued row's node is its key's owner now, a row waits (queued
  at no node) exactly when its key has no owner or names no principal,
  and a held row not queued is held by the principal it names; after a
  run no row is queued at a node.

An owner picked by set order, or one that missed a relocation's deleted
rows, fails the first check; a join that wrote another principal's keys
or roster rows in the wrong workspace, the second; a commit that did not
queue a row for the principal it names, the third; a ``predNode`` delete
that does not queue its key's rows again, or a drain that ships waiting
rows, the fourth.  A relocation sends nothing again
(:func:`test_a_relocation_resends_nothing`): a principal's markers are
keyed by the principal, not by its node.
"""

from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LBTrustSystem
from repro.core.schemes import SchemeDef, scheme
from repro.datalog.terms import PredPartition, RuleRef
from repro.meta.model import ALL_META_PREDS

NAMES = ("alice", "bob", "carol", "dave")
NODES = ("n0", "n1", "n2")

names = st.sampled_from(NAMES)
nodes = st.sampled_from(NODES)
#: a created principal, by its index in the sorted names of those created
created = st.integers(0, len(NAMES) - 1)
ops = st.one_of(
    st.tuples(st.just("create"),
              st.lists(st.tuples(names, nodes), min_size=1, max_size=3,
                       unique_by=lambda pair: pair[0])),
    st.tuples(st.just("says"), created, names, st.integers(0, 2)),
    st.tuples(st.just("run")),
    st.tuples(st.just("relocate"), created, created, nodes),
    st.tuples(st.just("extra"), created, created, nodes),
    st.tuples(st.just("unloc"), created, created),
    st.tuples(st.just("restore"), created, created),
)


def reference(principal) -> dict:
    """``(pred, key) -> owner`` from the ``predNode`` relation alone."""
    placed = defaultdict(set)
    for partition, node in principal.tuples("predNode"):
        placed[(partition.pred, partition.keys)].add(node)
    return {slot: min(owners) for slot, owners in placed.items()}


def relations(system) -> dict:
    """Every relation outside the meta-model at every principal, rule
    references spelled out and ``export``'s signature column dropped."""
    return {
        (principal.name, pred): Counter(
            tuple(principal.workspace.rule_text(value)
                  if isinstance(value, RuleRef) else value
                  for value in (fact[:3] if pred == "export" else fact))
            for fact in principal.tuples(pred))
        for principal in system.principals.values()
        for pred in principal.workspace.db.preds()
        if pred not in ALL_META_PREDS and principal.tuples(pred)}


def apply(system, op, reverse: bool) -> None:
    known = system.principals
    if op[0] == "create":
        batch = [(name, node) for name, node in op[1] if name not in known]
        for name, node in reversed(batch) if reverse else batch:
            system.create_principal(name, node=node)
        return
    if op[0] == "run":
        assert system.run().rejected == 0
        return
    if not known:
        return
    order = sorted(known)
    principal = known[order[op[1] % len(order)]]
    if op[0] == "says":
        principal.says(op[2], f'msg("{op[3]}").')
        return
    holder, name = principal, order[op[2] % len(order)]
    located = sorted(row for row in holder.tuples("loc") if row[0] == name)
    if op[0] == "unloc":        # the key of ``name`` is placed nowhere
        if len(located) == 1:
            holder.retract_fact("loc", located[0])
        return
    if op[0] == "restore":      # and is placed again, at its home node
        if not located:
            holder.assert_fact("loc", (name, known[name].node))
        return
    with holder.workspace.transaction():
        holder.assert_fact("node", (op[3],))
        if op[0] == "relocate" and located:
            holder.retract_fact("loc", located[0])
        holder.assert_fact("loc", (name, op[3]))


def check_routed(system) -> None:
    """Every ``export`` row a principal holds for another known one is
    queued or sent to that principal."""
    values = system.registry.terms.values
    for principal in system.principals.values():
        relation = principal.workspace.db.get("export")
        for row in relation.rows if relation is not None else ():
            listener = values[row[0]]
            if listener != principal.name and listener in system.principals:
                sent = principal.outbox.sent.get(listener, {})
                assert row in sent.get("export", ())


def check_placed(system) -> None:
    """Every queued ``export`` row is queued for the principal it names,
    at the node its sender's :meth:`Principal.owner` names for its key
    now; a row waits (is queued at no node) exactly when its key has no
    owner or names no principal; and a held row not queued is held by
    the principal it names."""
    values = system.registry.terms.values
    for principal in system.principals.values():
        queued = {row: (node, to)
                  for (node, to), per_pred in principal.outbox.queue.items()
                  for row in per_pred.get("export", ())}
        for row, (node, to) in queued.items():
            owner = to in system.principals and principal.owner("export", (to,))
            assert (values[row[0]], owner or None) == (to, node)
        relation = principal.workspace.db.get("export")
        for row in relation.rows if relation is not None else ():
            listener = system.principals.get(values[row[0]])
            if listener is not principal and row not in queued:
                assert row in listener.workspace.db.get("export").rows


def check_delivered(system) -> None:
    """After a run no row is queued at a node: with
    :func:`check_placed`, every ``export`` row that does not wait is
    held by the principal it names."""
    for principal in system.principals.values():
        assert not any(rows for (node, _), per_pred in principal.outbox.queue.items()
                       if node is not None for rows in per_pred.values())


#: bob holds three credentials from alice, then alice moves bob's ``loc``
#: row from ``bob`` to ``r1`` and says one more
RELOCATION = [("create", [("alice", "alice"), ("bob", "bob")]),
              ("says", 0, "bob", 0), ("says", 0, "bob", 1),
              ("says", 0, "bob", 2), ("run",), ("relocate", 0, 1, "r1"),
              ("run",), ("says", 0, "bob", 3), ("run",)]


#: alice takes bob off her ``loc`` table, says to him, puts him back at
#: his home node, and says again
UNPLACED = [("create", [("alice", "n0"), ("bob", "n1")]),
            ("says", 0, "bob", 0), ("unloc", 0, 1), ("says", 0, "bob", 1),
            ("run",), ("restore", 0, 1), ("says", 0, "bob", 2), ("run",)]


@settings(max_examples=40, deadline=None)
@given(auth=st.sampled_from(["hmac", "plaintext"]),
       stream=st.lists(ops, max_size=12))
@example(auth="hmac", stream=RELOCATION)
@example(auth="plaintext", stream=UNPLACED)
def test_placement_and_relations_follow_the_loc_table(auth, stream):
    systems = []
    for _ in range(2):
        system = LBTrustSystem(auth=auth, seed=3)
        for node in (*NODES, "r1"):
            system.network.add_node(node)
        systems.append(system)
    for op in stream:
        for reverse, system in enumerate(systems):
            apply(system, op, bool(reverse))
            for principal in system.principals.values():
                expected = reference(principal)
                assert {slot: principal.owner(*slot)
                        for slot in expected} == expected
            check_routed(system)
            check_placed(system)
            if op[0] == "run":
                check_delivered(system)
        assert relations(systems[0]) == relations(systems[1])


def test_a_relocation_resends_nothing():
    """bob holds three credentials from alice; alice moves bob's ``loc``
    row to ``r1`` in one transaction.  The next run sends nothing (3
    rows in 355 bytes while the markers were keyed by node and
    principal), and a credential said after the move reaches bob through
    ``r1``."""
    system = LBTrustSystem(auth="hmac", seed=3)
    system.network.add_node("r1")
    for op in RELOCATION[:6]:
        apply(system, op, False)
    moved = system.run()
    assert (moved.delivered, moved.bytes, moved.messages) == (0, 0, 0)
    alice, bob = system.principal("alice"), system.principal("bob")
    assert alice.owner("export", ("bob",)) == "r1"
    alice.says(bob, 'msg("3").')
    after = system.run()
    assert after.delivered == 1 and after.rejected == 0
    assert {row.name: row.received_facts for row in after.per_node} == {
        "alice": 0, "bob": 0, "r1": 1}
    assert {("0",), ("1",), ("2",), ("3",)} == bob.tuples("msg")


def test_a_join_releases_the_rows_waiting_for_the_newcomer():
    """alice places ``tag[ghost]`` on her own node before ghost exists,
    so her ``tag`` rows for ghost wait (they name no principal).  ghost's
    join changes no ``predNode`` row of ``tag`` at alice, yet the rows
    ship on the next run: a join queues the rows waiting for the
    newcomer again."""
    system = LBTrustSystem(auth="plaintext")
    alice = system.create_principal("alice")
    alice.load("tag[P](Y) <- item(P,Y).")
    alice.assert_fact("predNode", (PredPartition("tag", ("ghost",)), "alice"))
    alice.assert_facts("item", [("ghost", 1), ("ghost", 2)])
    assert system.run().delivered == 0
    ghost = system.create_principal("ghost")
    assert system.run().delivered == 2
    assert ghost.tuples("tag") == {("ghost", 1), ("ghost", 2)}


class TestOwnerRead:
    """A block's node is read from the sender's ``predNode`` rows."""

    @staticmethod
    def alice():
        system = LBTrustSystem(auth="plaintext")
        return system.create_principal("alice")

    def test_rows_of_other_shapes_are_ignored(self):
        alice = self.alice()
        bob = PredPartition("export", ("bob",))
        alice.assert_facts("predNode", [
            ("not-a-partition", "n0"),       # not a partition name
            (bob, 5),                         # not a node name
            (PredPartition("export", ("carol",)), "n2")])
        assert alice.owner("export", ("bob",)) is None
        assert alice.owner("export", ("carol",)) == "n2"
        assert alice.owner("export", ("alice",)) == "alice"
        assert alice.owner("export", ("dave",)) is None
        alice.assert_fact("predNode", (bob, "n1"))
        assert alice.owner("export", ("bob",)) == "n1"

    def test_the_smallest_node_owns_a_key_placed_twice(self):
        """The owner is a function of the key's rows: the smallest node
        name, whatever order the rows came in."""
        bob = PredPartition("export", ("bob",))
        for order in (("r2", "r3", "r1"), ("r1", "r3", "r2"),
                      ("r3", "r1", "r2")):
            alice = self.alice()
            for node in order:
                alice.assert_fact("predNode", (bob, node))
            assert alice.owner("export", ("bob",)) == "r1"
            alice.retract_fact("predNode", (bob, "r1"))
            assert alice.owner("export", ("bob",)) == "r2"

    def test_a_relocation_in_one_commit_moves_the_owner_once(self):
        """Deletes and inserts of one commit are read together: a
        relocation names the new node, and the queued block goes there
        alone."""
        alice = self.alice()
        system = alice.system
        for node in ("r1", "b"):
            system.network.add_node(node)
        system.create_principal("bob", node="r1")
        alice.says("bob", 'msg("x").')
        assert alice.owner("export", ("bob",)) == "r1"
        with alice.workspace.transaction():
            alice.assert_fact("node", ("b",))
            alice.retract_fact("loc", ("bob", "r1"))
            alice.assert_fact("loc", ("bob", "b"))
        assert alice.owner("export", ("bob",)) == "b"
        shipped = []
        alice.outbox.drain(lambda node, pred, rows, to: shipped.append(
            ((node, to), pred, len(rows))))
        assert shipped == [(("b", "bob"), "export", 1)]
        assert alice.outbox.queue == {}


@pytest.mark.parametrize("failing", ["carol", "bob"])
def test_a_failed_creation_can_be_retried(monkeypatch, failing):
    """A ``create_principal`` whose scheme provisioning raises, in its
    own workspace or in a peer's, adds no principal: a retry succeeds
    and leaves the relations a creation that never failed leaves."""
    def build(fail: bool):
        system = LBTrustSystem(auth="hmac", seed=3)
        for name in ("alice", "bob"):
            system.create_principal(name)
        hmac, calls = scheme("hmac"), []

        def flaky(system, holder, rng, peers=None):
            calls.append(holder.name)
            if holder.name == failing and calls.count(failing) == 1:
                raise RuntimeError("provisioning failed")
            hmac.provision(system, holder, rng, peers)

        if fail:
            monkeypatch.setattr(system, "_scheme", SchemeDef(
                "hmac", hmac.exp1_text, hmac.exp3_text, flaky))
            before = dict(system.principals)
            with pytest.raises(RuntimeError, match="provisioning failed"):
                system.create_principal("carol")
            after_failure = dict(system.principals)
        system.create_principal("carol")
        if fail:
            assert after_failure == before
        monkeypatch.undo()
        system.principal("alice").says("carol", 'msg("hi").')
        assert system.run().delivered == 1
        return relations(system)

    assert build(fail=True) == build(fail=False)


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(NAMES))
def test_creation_order_leaves_equal_relations_under_every_scheme(order):
    """rsa and mixed too: each principal holds every principal's public
    key id and shared-secret id, whatever order they joined in."""
    for auth in ("rsa", "mixed"):
        built = []
        for names_in_order in (NAMES, order):
            system = LBTrustSystem(auth=auth, rsa_bits=256, seed=3)
            for name in names_in_order:
                system.create_principal(name, node=f"at-{name}")
            built.append(relations(system))
        assert built[0] == built[1]
