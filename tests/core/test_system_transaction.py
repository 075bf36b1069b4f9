"""A join and a scheme swap are one system transaction: everywhere or
nowhere.

``LBTrustSystem.transaction`` opens every principal's workspace, prepares
them all (maintenance and constraint check) and finishes them only if
every one prepared; what lives outside the workspaces — ``principals``,
the scheme, each principal's scheme bookkeeping — is on the system's own
journal, and the network node of a newcomer is added only once its join
has committed.

The property injects one failure at a random point of a join or a swap —
a ``provision`` that raises (an error or an interrupt) at a random
principal, a constraint violation at a random principal, or an interrupt
at the k-th workspace commit — and checks that everything the system
held before is held again, to the row: every workspace's relations,
labels, catalog, constraints, active rules and outbox, the principals,
the scheme, the bookkeeping, the key material (``shared_secrets``,
``rsa_keys`` and every keystore's bindings: each one a transaction
creates is logged on the system's journal) and the network's nodes.  The audit gains the refusal event alone, no relation
names material of a principal that does not exist, and a retry of the
same join or swap goes through.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LBTrustSystem
from repro.datalog.errors import ConstraintViolation
from repro.workspace.workspace import Workspace

PEERS = ("alice", "bob", "dave")
#: relations whose rows name a principal in their first two columns
NAMING = {"prin": 1, "loc": 1, "sharedsecret": 2, "rsapubkey": 1,
          "rsaprivkey": 1}


def build(auth: str) -> LBTrustSystem:
    """alice, bob and dave; one exchange run, one ``says`` still queued."""
    system = LBTrustSystem(auth=auth, rsa_bits=256, seed=5)
    alice, bob, dave = (system.create_principal(name) for name in PEERS)
    bob.load('seen(X) <- msg(X).')
    alice.says(bob, 'msg("one").')
    system.run()
    alice.says(dave, 'msg("two").')
    return system


def held(system) -> dict:
    """What the system holds, for equality: nothing aliased."""
    def outbox(box) -> tuple:
        return tuple({dst: {pred: set(rows) for pred, rows in per.items()}
                      for dst, per in table.items()}
                     for table in (box.queue, box.sent))

    def workspace(ws: Workspace) -> tuple:
        return ({pred: set(relation.rows)
                 for pred, relation in ws.db.relations.items()},
                {pred: dict(rows) for pred, rows in ws._base.items()},
                ws.catalog.entries(), list(ws.catalog.added),
                list(ws.constraints), ws.active_refs(), set(ws._activated))

    def keys(store) -> tuple:
        return (dict(store._rsa_private), dict(store._rsa_public),
                dict(store._secrets))

    return {
        "principals": dict(system.principals),
        "scheme": (system._scheme, system.auth_name),
        "nodes": system.network.nodes(),
        "keys": (dict(system.shared_secrets), dict(system.rsa_keys)),
        "each": {name: (list(p.scheme_rule_refs),
                        list(p.scheme_constraint_labels), p.auth_scheme,
                        workspace(p.workspace), outbox(p.outbox),
                        keys(p.keystore))
                 for name, p in system.principals.items()},
    }


def audits(system) -> dict:
    return {name: list(p.audit) for name, p in system.principals.items()}


def assert_names_only_principals(system) -> None:
    for principal in system.principals.values():
        for pred, width in NAMING.items():
            for fact in principal.tuples(pred):
                assert set(fact[:width]) <= set(system.principals), \
                    (principal.name, pred, fact)


def join(system) -> None:
    system.create_principal("carol")


def swap_to(auth: str):
    def swap(system) -> None:
        system.reconfigure_auth(auth)
    return swap


def fail_provision(system, monkeypatch, at: str, error: BaseException):
    """The scheme a join or a swap installs raises ``error`` as it
    provisions ``at``, after its own provisioning went through."""
    import repro.core.schemes as schemes

    def failing(definition):
        def provision(system, holder, rng, peers=None):
            definition.provision(system, holder, rng, peers)
            if holder.name == at:
                raise error
        return replace(definition, provision=provision)

    monkeypatch.setattr(system, "_scheme", failing(system._scheme))
    for name, definition in list(schemes.SCHEMES.items()):
        monkeypatch.setitem(schemes.SCHEMES, name, failing(definition))


def interrupt_commit(monkeypatch, k: int) -> None:
    """The k-th workspace commit (a prepare) from now is interrupted."""
    commit, calls = Workspace._commit, []

    def interrupted(self):
        calls.append(self.name)
        if len(calls) == k:
            raise KeyboardInterrupt
        return commit(self)

    monkeypatch.setattr(Workspace, "_commit", interrupted)


#: a join of the 4th principal commits 5 times at the newcomer and once at
#: each of the 3 others; a swap once at each of the 3
COMMITS = {"join": 8, "swap": 3}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_failure_anywhere_in_a_join_or_swap_changes_nothing(data):
    op = data.draw(st.sampled_from(["join", "swap"]), label="op")
    system = build("hmac" if op == "join" else "plaintext")
    run = join if op == "join" else swap_to(
        data.draw(st.sampled_from(["hmac", "rsa"]), label="to"))
    kind = data.draw(st.sampled_from(
        ["provision", "interrupt", "constraint", "commit"]), label="kind")
    at = data.draw(st.sampled_from(
        PEERS + ("carol",) if op == "join" and kind != "constraint"
        else PEERS), label="at")
    if kind == "constraint":
        target = system.principal(at)
        if op == "join":    # a roster row for carol is refused at ``at``
            target.add_constraint('prin(P) -> P != "carol".')
        else:               # a say no export backs: exp3 refuses it
            speaker = "bob" if at == "alice" else "alice"
            target.workspace.assert_fact(
                "says", (speaker, at, target.intern("ping(1).")))
    before, audit = held(system), audits(system)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if kind in ("provision", "interrupt"):
            fail_provision(system, monkeypatch, at,
                           RuntimeError("no keys") if kind == "provision"
                           else KeyboardInterrupt())
        elif kind == "commit":
            interrupt_commit(monkeypatch, data.draw(
                st.integers(1, COMMITS[op]), label="k"))
        with pytest.raises((RuntimeError, KeyboardInterrupt,
                            ConstraintViolation)):
            run(system)
    assert held(system) == before
    after = audits(system)
    assert {name: after[name][:len(events)]
            for name, events in audit.items()} == audit
    gained = {name: after[name][len(events):]
              for name, events in audit.items()}
    if kind == "constraint":
        assert [event.kind for event in gained.pop(at)] == \
            ["constraint_violation"]
    assert not any(gained.values()), gained
    assert_names_only_principals(system)
    if kind != "constraint":    # a retry goes through, and so does a run
        run(system)
        assert_names_only_principals(system)
        assert system.run().rejected == 0


def test_a_failed_join_is_not_applied_anywhere(monkeypatch):
    """A ``provision`` raising at dave during carol's join: alice and bob
    hold no roster or key row for carol, nor a shared secret with her,
    and carol is neither a principal nor a network node.  (While each
    workspace was its own transaction, both kept ``prin("carol")`` and a
    ``sharedsecret`` row for her, and node ``carol`` stayed; until key
    material was journaled, ``shared_secrets`` and both keystores kept
    their secrets with her.)"""
    system = LBTrustSystem(auth="hmac", seed=5)
    for name in PEERS:
        system.create_principal(name)
    fail_provision(system, monkeypatch, "dave", RuntimeError("no keys"))
    with pytest.raises(RuntimeError):
        system.create_principal("carol")
    for name in ("alice", "bob"):
        principal = system.principal(name)
        assert ("carol",) not in principal.tuples("prin")
        for pred in ("loc", "sharedsecret"):
            assert not [fact for fact in principal.tuples(pred)
                        if "carol" in fact[:2]], (name, pred)
    assert "carol" not in system.principals
    assert "carol" not in system.network.nodes()
    for key_ids in (system.shared_secrets, *(system.principal(name).keystore._secrets
                                             for name in PEERS)):
        assert not [key_id for key_id in key_ids if "carol" in key_id]
