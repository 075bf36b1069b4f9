"""A workspace keeps its strata as rules activate, and restores them on
rollback: activating a rule costs what it adds, not a restratification.

The oracle is :func:`~repro.datalog.stratify.stratify` over the active
rules: after every commit and every rollback the kept strata are None or
equal to it — the same stratum numbers and predicates, and the same rules
by identity in the same order — and the maintained database equals a
fresh workspace built from the same EDB and the same active rules, the
labels of every base row and every proof included.  The
counts pin where a full stratification still runs: a rule drop, and a
rule that does not extend the strata (a negative cycle among them).
"""

import pytest
from hypothesis import example, given, settings

from repro import LBTrustSystem
from repro.apps.filesystem import AccessDenied, DistributedFileSystem
from repro.datalog.errors import ConstraintViolation, StratificationError
from repro.datalog.stratify import stratify
from repro.workspace import workspace as workspace_module
from repro.workspace.workspace import Workspace

from strategies import (
    ACTIVATION_CONSTRAINT,
    ACTIVATION_HEADS,
    LISTENING,
    UNACTIVATABLE,
    ActivationStream,
    activation_streams,
)


def shape(strata):
    """A stratification, field by field, its rules by identity."""
    return [(stratum.number, stratum.preds,
             [id(rule) for rule in stratum.rules],
             [id(rule) for rule in stratum.agg_rules])
            for stratum in strata]


def assert_strata_current(ws):
    if ws._strata is not None:
        assert shape(ws._strata) == shape(stratify(ws._all_engine_rules()))


def supported(ws):
    """Each base row's supporters' labels, sorted."""
    return {(pred, row): sorted(held)
            for pred, rows in ws._base.items()
            for row, held in rows.items()}


def assert_equals_fresh(ws):
    """A workspace over the same registry that asserts ``ws``'s EDB — the
    ``active`` rows among it — in one transaction derives the same, holds
    the same supported rows and records the same proofs."""
    fresh = Workspace("fresh", registry=ws.registry, enable_provenance=True)
    materialize = ws.db.interner.materialize_row
    with fresh.transaction():
        for pred, rows in sorted(ws._base.items()):
            fresh.assert_facts(pred, [materialize(row) for row, held
                                      in rows.items() if "$edb" in held])
    assert ws.active_refs() == fresh.active_refs()
    for pred in ACTIVATION_HEADS + ("s", "e", "active"):
        assert ws.tuples(pred) == fresh.tuples(pred), pred
    assert supported(ws) == supported(fresh)
    assert ws.provenance.derivations == fresh.provenance.derivations


def run(stream):
    ws = Workspace("w", enable_provenance=True)
    ws.add_constraint(ACTIVATION_CONSTRAINT)
    added = []
    for step in stream.steps:
        kind = step[0]
        strata, active = ws._strata, list(ws._activated)
        try:
            if kind == "add":
                added.append(ws.add_rule(step[1]))
            elif kind == "deactivate":
                live = [ref for ref in added if ref in ws._activated]
                if live:
                    ws.deactivate_rule(live[step[1] % len(live)])
            elif kind == "assert":
                ws.assert_fact(step[1], step[2])
            elif kind == "retract":
                if step[1] in ws.edb and step[2] in ws.edb[step[1]]:
                    ws.retract_fact(step[1], step[2])
            else:   # activated at the commit, then refused by ``small``
                with ws.transaction():
                    ws.add_rule(step[1])
                    ws.assert_fact("s", (99,))
        except (ConstraintViolation, StratificationError):
            assert ws._strata is strata
            assert list(ws._activated) == active
        assert ws.journal.entries is None
        assert_strata_current(ws)
        assert_equals_fresh(ws)


class TestMaintainedStrata:
    @given(activation_streams())
    # a read head that must rise: ``a`` is read at level 0, then defined
    # by an aggregate one level up (and ``b`` reading it must follow)
    @example(ActivationStream((
        ("add", "b(X) <- a(X), s(X)."),
        ("add", "a(N) <- agg<<N = count(X)>> s(X)."),
        ("assert", "s", (1,)))))
    # a refused activation leaves the strata it found
    @example(ActivationStream((
        ("add", "a(X) <- s(X), s(X)."),
        ("violate", "c(X) <- s(X), !a(X)."),
        ("add", "c(X) <- a(X), s(X)."),
        ("assert", "s", (2,)))))
    # a negated literal lifts the head a level
    @example(ActivationStream((
        ("add", "a(X) <- s(X), s(X)."),
        ("add", "b(X) <- s(X), !a(X)."),
        ("assert", "s", (1,)))))
    # a said row that is also asserted stays when its assertion goes
    @example(ActivationStream((
        ("assert", "s", (1,)),
        ("add", "s(1)."),
        ("retract", "s", (1,)))))
    # a row two ground facts state stays when either leaves
    @example(ActivationStream((
        ("add", "a(1), b(1)."),
        ("add", "a(1)."),
        ("deactivate", 0))))
    @example(ActivationStream((
        ("add", "a(1), b(1)."),
        ("add", "a(1)."),
        ("deactivate", 1))))
    # an over-deleted row a ground fact states comes straight back
    @example(ActivationStream((
        ("assert", "s", (1,)),
        ("add", "a(X) <- s(X), s(X)."),
        ("add", "a(1)."),
        ("retract", "s", (1,)))))
    # a refused commit takes its ground fact's support back
    @example(ActivationStream((
        ("violate", "a(2)."),
        ("add", "b(X) <- a(X), a(X)."),
        ("assert", "s", (2,)))))
    @settings(max_examples=150, deadline=None)
    def test_property_kept_strata_equal_stratify(self, stream):
        run(stream)

    def test_a_negative_cycle_is_refused_at_its_commit(self):
        ws = Workspace("w")
        ws.add_rule("calm(X) <- ping(X), !alarm(X).")
        with pytest.raises(StratificationError,
                           match=r"predicate 'calm' depends negatively on "
                                 r"'alarm' inside a recursive cycle"):
            ws.add_rule("alarm(X) <- calm(X).")
        assert_strata_current(ws)
        assert [s.preds for s in ws._strata] == [frozenset({"calm"})]


# -- how many full stratifications ---------------------------------------------

@pytest.fixture
def stratifications(monkeypatch):
    """Counts the workspace's calls of the full ``stratify``."""
    calls = []
    real = workspace_module.stratify

    def counted(rules):
        calls.append(len(rules))
        return real(rules)

    monkeypatch.setattr(workspace_module, "stratify", counted)
    return calls


def fs_round():
    """The fs_demo workload's shape: a delegating owner, a depth-0
    manager, three requesters each granted one file and refused another,
    and the six reads in a fixed order."""
    fs = DistributedFileSystem(auth="hmac", seed=7)
    fs.add_store("store")
    fs.add_owner("owner", mode="delegated")
    fs.add_manager("mgr")
    requesters = ["r0", "r1", "r2"]
    files = ["f0", "f1", "f2"]
    for requester in requesters:
        fs.add_requester(requester)
    fs.owner_trusts_manager("owner", "mgr", delegate=True, depth=0)
    for name in files:
        fs.create_file(name, "owner", "store", f"data-{name}")
    granted = sorted(zip(requesters, files))
    for requester, name in granted:
        fs.manager_grant("mgr", requester, name, "read")
    fs.system.run()
    reads = granted + [(requesters[i], files[(i + 1) % 3]) for i in range(3)]
    return fs, set(granted), reads


def read_all(fs, granted, reads):
    for requester, name in reads:
        if (requester, name) in granted:
            assert fs.read(requester, name, "store") == f"data-{name}"
        else:
            with pytest.raises(AccessDenied):
                fs.read(requester, name, "store")


class TestStratificationCounts:
    def test_reads_activate_without_restratifying(self, stratifications):
        fs, granted, reads = fs_round()
        stratifications.clear()
        read_all(fs, granted, reads)
        assert stratifications == []     # 24 when activation restratified
        fs.system.reconfigure_auth("plaintext")
        fs.system.run()
        assert stratifications           # the drops fall back
        stratifications.clear()
        read_all(fs, granted, reads)
        assert stratifications == []

    def test_a_refused_cycle_leaves_the_strata_it_found(self, stratifications):
        system = LBTrustSystem(auth="hmac", seed=1)
        alice, bob = map(system.create_principal, ("alice", "bob"))
        bob.load(LISTENING)
        system.run()
        stratifications.clear()
        alice.says(bob, UNACTIVATABLE["negative cycle"])
        assert system.run().rejected == 1
        assert [event.kind for event in bob.workspace.audit] \
            == ["import_rejected"]
        assert stratifications           # the cycle is found by stratify
        assert_strata_current(bob.workspace)
        stratifications.clear()
        alice.says(bob, 'ping("honest").')
        assert system.run().rejected == 0
        assert bob.tuples("calm") == {("honest",)}
        assert stratifications == []     # 1 when a rollback dropped them

    def test_a_drop_restratifies_once(self, stratifications):
        ws = Workspace("w")
        ws.assert_facts("e", [(1, 2), (2, 3)])
        ref = ws.add_rule("p(X,Y) <- e(X,Y).")
        ws.add_rule("p(X,Z) <- p(X,Y), e(Y,Z).")
        ws.add_rule("q(X) <- e(X,_), !p(X,3).")
        assert stratifications == []
        ws.deactivate_rule(ref)
        assert len(stratifications) == 1
        assert ws.tuples("q") == {(1,), (2,)}
        assert_strata_current(ws)
