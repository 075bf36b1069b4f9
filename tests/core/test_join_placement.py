"""A join writes each workspace once, and placement follows ``predNode``
by delta (paper section 3.5: every principal holds the ``loc`` table).

A stream of principals created on random nodes, ``says``, ``run()``,
relocations (a ``loc`` row retracted and another asserted in one
transaction) and extra ``loc`` rows runs in two systems: one creates
each batch of principals in the order drawn, the other in reverse.
After every step:

* each principal's placement is the one a reference builds from its
  ``predNode`` relation alone: the smallest node of each key's rows;
* both systems hold equal relations at every principal (key ids, not
  key bytes, which depend on the order keys were drawn in);
* every ``export`` row a speaker holds for a known principal is queued
  or sent to that principal at its owner node, and after a run it is
  held there too.

Placement that missed a relocation's deleted rows, or an owner picked
by set order, fails the first check; a join that wrote another
principal's keys or roster rows in the wrong workspace, the second; a
commit that did not route the held rows under a key whose owner moved,
the third.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LBTrustSystem
from repro.datalog.terms import RuleRef
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
    holder, name, node = principal, order[op[2] % len(order)], op[3]
    with holder.workspace.transaction():
        holder.assert_fact("node", (node,))
        if op[0] == "relocate":
            _, old = min(row for row in holder.tuples("loc") if row[0] == name)
            holder.retract_fact("loc", (name, old))
        holder.assert_fact("loc", (name, node))


def check_routed(system) -> None:
    """Every ``export`` row a principal holds for another known one is
    queued or sent to that principal at its owner node."""
    values = system.registry.terms.values
    for principal in system.principals.values():
        relation = principal.workspace.db.get("export")
        for row in relation.rows if relation is not None else ():
            listener = values[row[0]]
            if listener != principal.name and listener in system.principals:
                node = principal.placement.owner("export", (listener,))
                sent = principal.outbox.sent.get((node, listener), {})
                assert row in sent.get("export", ())


def check_delivered(system) -> None:
    for principal in system.principals.values():
        for fact in principal.tuples("export"):
            listener = system.principals.get(fact[0])
            if listener is not None and listener is not principal:
                assert fact in listener.tuples("export")


@settings(max_examples=40, deadline=None)
@given(auth=st.sampled_from(["hmac", "plaintext"]),
       stream=st.lists(ops, max_size=12))
def test_placement_and_relations_follow_the_loc_table(auth, stream):
    systems = []
    for _ in range(2):
        system = LBTrustSystem(auth=auth, seed=3)
        for node in NODES:
            system.network.add_node(node)
        systems.append(system)
    for op in stream:
        for reverse, system in enumerate(systems):
            apply(system, op, bool(reverse))
            for principal in system.principals.values():
                placement = principal.placement
                expected = reference(principal)
                assert len(placement) == len(expected)
                assert {slot: placement.owner(*slot)
                        for slot in expected} == expected
            check_routed(system)
            if op[0] == "run":
                check_delivered(system)
        assert relations(systems[0]) == relations(systems[1])


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
