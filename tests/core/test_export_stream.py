"""Export in id space: a stream of ``says`` / retract / ``reconfigure_auth``
/ ``run()`` over three principals, two of them co-located — so one link
carries blocks of two workspaces, over the system's one interner.

What ``WorkspaceNode.drain_outbox`` owes, whatever the stream:

* every exportable fact reaches its principal, and crosses the wire
  exactly once per scheme epoch (each principal's ``Outbox`` keeps the
  id rows it queued across runs; ``reconfigure_auth`` opens the next
  epoch);
* a second ``run()`` with nothing new sends 0 messages;
* ``bsp`` and ``async`` leave equal relations;
* every message is the canonical envelope of its own items, in order.

The stream property must fail under this hand mutation (checked when
the test was written): a new epoch that forgets nothing (drop the
``outbox.forget()`` call of ``reconfigure_auth``) — after a scheme swap
nothing is shipped again.  Not recording queued rows (drop ``sent |=
fresh`` in ``Outbox.put``) ships a fact retracted and said again within
its epoch a second time; the stream's explicit example of says, run,
retract, run, says, run fails under it every time (checked by hand
mutation), as does
``test_schemes.py::test_a_refused_swap_switches_no_principal``.  Keying
the markers by predicate alone
was caught too while each workspace had its own interner (equal ids
then meant different terms); with one id space per system equal id
rows are equal facts, and each principal keeps its own outbox because
its own ``predNode`` table routes its rows.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LBTrustSystem
from repro.datalog.terms import RuleRef
from repro.meta.model import ALL_META_PREDS
from repro.net.network import SimulatedNetwork
from repro.net.transport import decode_batch_message, encode_batch_message_dict

#: principal -> node: alice and bob share a node, hence every link
NODES = {"alice": "shared", "bob": "shared", "carol": "apart"}

pairs = st.sampled_from(
    [(a, b) for a in NODES for b in NODES if a != b])
ops = st.one_of(
    st.tuples(st.just("says"), pairs, st.integers(0, 3)),
    st.tuples(st.just("retract"), pairs, st.integers(0, 3)),
    st.tuples(st.just("reconfigure"), st.sampled_from(["hmac", "plaintext"])),
    st.tuples(st.just("run")),
)


class TappedNetwork(SimulatedNetwork):
    """Keeps every payload sent, in order."""

    def __init__(self):
        super().__init__()
        self.payloads = []

    def send(self, src, dst, payload, at=None):
        self.payloads.append(payload)
        super().send(src, dst, payload, at=at)


def exportable(system):
    """Every ``(to, "export", fact)`` a principal holds for another one."""
    return {(fact[0], "export", fact)
            for principal in system.principals.values()
            for fact in principal.tuples("export")
            if fact[0] != principal.name}


def relations(system):
    """Every relation of every principal outside the meta-model (its
    anonymous variables are numbered per process), rule references
    spelled out."""
    return {
        (principal.name, pred): Counter(
            tuple(principal.workspace.rule_text(value)
                  if isinstance(value, RuleRef) else value for value in fact)
            for fact in principal.tuples(pred))
        for principal in system.principals.values()
        for pred in principal.workspace.db.preds()
        if pred not in ALL_META_PREDS}


class Driver:
    """One system under one scheduling mode, checked after every run."""

    def __init__(self, mode):
        self.system = LBTrustSystem(auth="plaintext", seed=42, mode=mode,
                                    network=TappedNetwork())
        for name, node in NODES.items():
            self.system.create_principal(name, node=node)
        self.epoch = []          # (to, pred, fact) shipped this epoch

    def apply(self, op):
        system = self.system
        if op[0] == "says":
            (speaker, listener), k = op[1:]
            system.principal(speaker).says(listener, f'msg("{k}").')
        elif op[0] == "retract":
            (speaker, listener), k = op[1:]
            principal = system.principal(speaker)
            fact = (speaker, listener, principal.intern(f'msg("{k}").'))
            if fact in principal.workspace.edb.get("says", ()):
                principal.retract_fact("says", fact)
        elif op[0] == "reconfigure":
            system.reconfigure_auth(op[1])
            self.epoch = []
        else:
            self.run()

    def run(self):
        system, network = self.system, self.system.network
        network.payloads.clear()
        report = system.run()
        assert report.rejected == 0
        assert report.messages == len(network.payloads)
        for blob in network.payloads:
            batch = decode_batch_message(blob, system.registry)
            items = [(to, pred, system.registry.terms.materialize_row(row))
                     for to, pred, rows in batch.rows(system.registry.terms)
                     for row in rows]
            assert blob == encode_batch_message_dict(
                items, system.registry, batch.stamp)
            self.epoch.extend(items)
        # once per epoch, and nothing exportable left behind
        assert len(set(self.epoch)) == len(self.epoch)
        assert exportable(system) <= set(self.epoch)
        for to, _pred, fact in exportable(system):
            assert fact in system.principal(to).tuples("export")
        # nothing new: nothing sent
        again = system.run()
        assert (again.messages, again.delivered) == (0, 0)
        assert len(network.payloads) == report.messages


@given(stream=st.lists(ops, min_size=1, max_size=10))
# alice and bob say one rule to carol: two rows differing in the speaker
@example(stream=[("says", ("alice", "carol"), 1),
                 ("says", ("bob", "carol"), 1)])
# a fact retracted and said again within its epoch, with runs between
@example(stream=[("says", ("alice", "carol"), 1), ("run",),
                 ("retract", ("alice", "carol"), 1), ("run",),
                 ("says", ("alice", "carol"), 1), ("run",)])
@settings(max_examples=50, deadline=None)
def test_export_stream_ships_each_fact_once_per_epoch(stream):
    bsp, overlapped = Driver("bsp"), Driver("async")
    for op in stream + [("run",)]:
        bsp.apply(op)
        overlapped.apply(op)
        if op[0] == "run":
            assert relations(bsp.system) == relations(overlapped.system)
