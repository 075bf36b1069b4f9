"""A commit costs what it changed: held credentials are not re-verified,
and a new one ships without re-reading those held.

exp3 (paper section 4.1.2) checks every imported ``says`` at the commit
that imports it.  A later commit that changes nothing exp3 reads must
neither verify a held credential again nor visit a constraint whose
relations it did not change.  A speaker's outbox takes what a commit
added, so shipping one more credential reads the placement of its own
block only, and a run reads none of the rows no ``predNode`` row
places.  A held credential is a ground fact, held as a
supported base row and compiled to no rule: the receiver's rules and
strata do not grow with it, and no semi-naive round, over-delete or
re-derivation visits it; taking one back copies nothing bob holds, and
two arriving at once are ordered without reading his other ``active``
rows.  A said fact no one reads the Figure 1 relations of is never
reified.  A principal's join commits once to each existing workspace
and routes no row it holds again.  Counts, not wall time.
"""

from collections import Counter

import pytest

from repro import LBTrustSystem
from repro.core.principal import Principal
from repro.crypto import datalog_builtins
from repro.datalog import constraints
from repro.datalog.database import TermInterner
from repro.datalog.engine import EngineRule
from repro.datalog.stratify import Stratum
from repro.datalog.terms import PredPartition
from repro.meta import registry as registry_module
from repro.meta.model import ALL_META_PREDS
from repro.net.batch import MessageBatcher
from repro.workspace.workspace import Workspace


@pytest.fixture
def traced(monkeypatch):
    """Counts of ``hmacverify`` calls and the conjunctions the constraint
    checker plans, from the moment it is read."""
    seen = {"verify": 0, "planned": []}
    verify, plan = datalog_builtins.verify_hmac_sha1, constraints._plan

    def counting_verify(*args):
        seen["verify"] += 1
        return verify(*args)

    def recording_plan(plan_cache, analyses, alternative, *args, **kwargs):
        seen["planned"].append(alternative)
        return plan(plan_cache, analyses, alternative, *args, **kwargs)

    monkeypatch.setattr(datalog_builtins, "verify_hmac_sha1", counting_verify)
    monkeypatch.setattr(constraints, "_plan", recording_plan)
    return seen


def bob_holding(held: int):
    system = LBTrustSystem(auth="hmac", seed=1)
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    bob.load("gotA(X) <- ping(X).")
    for k in range(held):
        alice.says(bob, f"ping({k}).")
    report = system.run()
    assert report.delivered == held and report.rejected == 0
    return system, alice, bob


@pytest.mark.parametrize("held", [0, 50, 200])
def test_an_unrelated_commit_verifies_no_held_credential(traced, held):
    _, _, bob = bob_holding(held)
    assert len(bob.tuples("gotA")) == held
    traced["verify"], traced["planned"] = 0, []
    bob.workspace.assert_fact("unrelated", (1,))
    assert traced["verify"] == 0
    assert traced["planned"] == []   # no constraint was visited


@pytest.mark.parametrize("held", [0, 50])
def test_an_import_verifies_only_what_it_brings(traced, held):
    system, alice, bob = bob_holding(held)
    traced["verify"] = 0
    alice.says(bob, "ping(-1).")
    assert system.run().delivered == 1
    assert traced["verify"] == 1
    assert (-1,) in bob.tuples("gotA")


def test_a_scheme_swap_verifies_each_redelivered_credential_once(traced):
    """Key rotation is a scheme change: received history is flushed,
    re-delivered under the new scheme and verified as it enters, once."""
    system, _, bob = bob_holding(20)
    system.reconfigure_auth("plaintext")
    assert system.run().delivered == 20
    traced["verify"] = 0
    system.reconfigure_auth("hmac")
    assert system.run().delivered == 20
    assert traced["verify"] == 20
    traced["verify"] = 0
    bob.workspace.assert_fact("unrelated", (1,))
    assert traced["verify"] == 0


def test_shipping_one_credential_looks_up_only_its_own_rows(monkeypatch):
    """``alice.says`` one more credential and ``run()``, twice: alice
    reads the owner of each drained block from her ``predNode`` relation
    once (:meth:`Principal.owner`), whatever she has said to bob before.
    A drain that re-read every held row made 9 lookups at 0 held and
    3,009 at 500."""
    owner, calls = Principal.owner, []

    def counting_owner(self, pred, key):
        calls.append((self.name, pred, key))
        return owner(self, pred, key)

    lookups = []
    for held in (0, 500, 2000):
        system, alice, bob = bob_holding(held)
        monkeypatch.setattr(Principal, "owner", counting_owner)
        calls.clear()
        for k in range(2):
            alice.says(bob, f"ping({-1 - k}).")
            assert system.run().delivered == 1
        lookups.append(list(calls))
        monkeypatch.setattr(Principal, "owner", owner)
    assert lookups == [[("alice", "export", ("bob",))] * 2] * 3


@pytest.mark.parametrize("unplaced", [0, 2000])
def test_rows_no_predNode_places_cost_a_run_nothing(monkeypatch, unplaced):
    """alice derives ``unplaced`` ``tag[bob]`` rows that no ``predNode``
    row places: they wait, and a ``run()`` reads no owner and hands no
    row to the sink (while every drain regrouped the queued rows by key,
    each run read the owner of ``tag[bob]`` again, at 2,000 rows for
    0.3–0.6 ms).  A ``predNode`` insert for ``tag[bob]`` places them as
    it commits, and the next run ships exactly those rows to bob."""
    system = LBTrustSystem(auth="plaintext", seed=1)
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    alice.load("tag[P](Y) <- item(P,Y).")
    alice.assert_facts("item", [("bob", k) for k in range(unplaced)])
    owner, add = Principal.owner, MessageBatcher.add
    reads, shipped = [], []

    def counting_owner(self, pred, key):
        reads.append((self.name, pred, key))
        return owner(self, pred, key)

    def counting_add(self, src, dst, pred, rows, to="", round_stamp=0):
        rows = list(rows)
        shipped.append((dst, pred, to, len(rows)))
        return add(self, src, dst, pred, rows, to, round_stamp)

    monkeypatch.setattr(Principal, "owner", counting_owner)
    monkeypatch.setattr(MessageBatcher, "add", counting_add)
    for _ in range(2):
        assert system.run().delivered == 0
    assert (reads, shipped) == ([], [])
    alice.assert_fact("predNode", (PredPartition("tag", ("bob",)), "bob"))
    reads.clear()
    report = system.run()
    assert reads == []
    assert shipped == ([("bob", "tag", "bob", unplaced)] if unplaced else [])
    assert report.delivered == unplaced and report.rejected == 0
    assert len(bob.tuples("tag")) == unplaced


def test_a_held_credential_costs_a_later_import_nothing(monkeypatch):
    """``alice.says`` one more credential and ``run()``, twice: the rules
    the receiver's semi-naive rounds visit (``EngineRule.patterns``
    calls) do not grow with the credentials bob holds.  While every rule
    of the stratum was visited, the two runs made 75 calls at 0 held and
    5,075 at 500."""
    patterns, visits = EngineRule.patterns, []

    def counting_patterns(self):
        visits.append(self)
        return patterns(self)

    counts = []
    for held in (0, 500, 2000):
        system, alice, bob = bob_holding(held)
        monkeypatch.setattr(EngineRule, "patterns", counting_patterns)
        visits.clear()
        for k in range(2):
            alice.says(bob, f"ping({-1 - k}).")
            assert system.run().delivered == 1
        counts.append(len(visits))
        monkeypatch.setattr(EngineRule, "patterns", patterns)
    assert counts[0] == counts[1] == counts[2] > 0


def test_a_retract_at_the_receiver_plans_no_held_credential(monkeypatch):
    """One DRed retract of a ``ping`` row asserted at bob: its
    over-delete phase visits no bodiless rule (each held credential's
    ``positive_positions`` was read there), and its re-derivation binds
    no held credential to a plan (each built a head-bound plan: 2,001
    at 2,000 held).  Both counts are equal at 0, 500 and 2,000 held."""
    positions, bound = EngineRule.positive_positions, EngineRule.head_bound_plan
    visited, planned = [], []

    def counting_positions(self):
        visited.append(self)
        return positions(self)

    def counting_bound(self, *args, **kwargs):
        planned.append(self)
        return bound(self, *args, **kwargs)

    counts = []
    for held in (0, 500, 2000):
        _, _, bob = bob_holding(held)
        workspace = bob.workspace
        workspace.assert_fact("ping", (-5,))
        assert (-5,) in bob.tuples("gotA")
        dred = workspace.stats.dred_strata
        monkeypatch.setattr(EngineRule, "positive_positions",
                            counting_positions)
        monkeypatch.setattr(EngineRule, "head_bound_plan", counting_bound)
        visited.clear()
        planned.clear()
        workspace.retract_fact("ping", (-5,))
        monkeypatch.setattr(EngineRule, "positive_positions", positions)
        monkeypatch.setattr(EngineRule, "head_bound_plan", bound)
        assert workspace.stats.dred_strata > dred
        assert (-5,) not in bob.tuples("gotA")
        assert len(bob.tuples("gotA")) == held
        assert not [rule for rule in visited if not rule.body]
        counts.append((len(visited), len(planned)))
    assert counts[0] == counts[1] == counts[2]


def test_a_retract_at_the_receiver_interns_no_held_credential(monkeypatch):
    """One DRed retract of a ``ping`` row asserted at bob: its
    re-derivation finds the ground facts of a candidate by the
    candidate's row, so no held credential's row is interned again
    (``TermInterner.intern_row``: 2,000 calls at 2,000 held while every
    held fact was interned to be compared).  Equal at 0, 500 and 2,000
    held."""
    intern_row, calls = TermInterner.intern_row, []

    def counting_intern_row(self, fact):
        calls.append(fact)
        return intern_row(self, fact)

    counts = []
    for held in (0, 500, 2000):
        _, _, bob = bob_holding(held)
        workspace = bob.workspace
        workspace.assert_fact("ping", (-5,))
        monkeypatch.setattr(TermInterner, "intern_row", counting_intern_row)
        calls.clear()
        workspace.retract_fact("ping", (-5,))
        monkeypatch.setattr(TermInterner, "intern_row", intern_row)
        assert (-5,) not in bob.tuples("gotA")
        assert len(bob.tuples("gotA")) == held
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


def test_held_credentials_are_rows_not_rules(monkeypatch):
    """Bob's engine rules, and the rules the strata built on one more
    import hold (``Stratum.of``), are equal at 0, 500 and 2,000 held
    credentials.  While each credential was an engine rule bob had 5 /
    505 / 2,005, and each import's activation rebuilt the stratum of all
    the ``ping`` facts he held."""
    of, built = Stratum.__dict__["of"], []

    def counting_of(cls, *args, **kwargs):
        stratum = of.__func__(cls, *args, **kwargs)
        built.append(len(stratum.rules) + len(stratum.agg_rules))
        return stratum

    counts = []
    for held in (0, 500, 2000):
        system, alice, bob = bob_holding(held)
        rules = len(bob.workspace._all_engine_rules())
        monkeypatch.setattr(Stratum, "of", classmethod(counting_of))
        built.clear()
        alice.says(bob, "ping(-1).")
        assert system.run().delivered == 1
        monkeypatch.setattr(Stratum, "of", of)
        assert (-1,) in bob.tuples("gotA")
        counts.append((rules, sum(built)))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0][0] == 5


def test_withdrawing_a_credential_rebinds_nothing_bob_holds(monkeypatch):
    """Bob takes back one credential (its ``export`` and ``heard`` rows, in
    one transaction): the ground fact leaves ``active`` and is dropped.
    The containers the drop re-binds for rollback (``_log_rebind``) hold
    as many entries at 0, 500 and 2,000 held.  While every drop re-bound
    a copy of ``_activated``, they held 6 / 506 / 2,006."""
    log_rebind, rebound = Workspace._log_rebind, []

    def counting_rebind(self, name):
        held = getattr(self, name)
        rebound.append(len(held) if isinstance(held, (dict, list, set))
                       else 0)
        return log_rebind(self, name)

    counts = []
    for held in (0, 500, 2000):
        system, alice, bob = bob_holding(held)
        alice.says(bob, "ping(-1).")
        assert system.run().delivered == 1
        ref, workspace = bob.intern("ping(-1)."), bob.workspace
        [export] = [row for row in workspace.edb["export"] if row[2] == ref]
        monkeypatch.setattr(Workspace, "_log_rebind", counting_rebind)
        rebound.clear()
        with workspace.transaction():
            workspace.retract_fact("export", export)
            workspace.retract_fact("heard", ("alice", ref))
        monkeypatch.setattr(Workspace, "_log_rebind", log_rebind)
        assert ref not in workspace.active_refs()
        assert (-1,) not in bob.tuples("gotA")
        assert len(bob.tuples("gotA")) == held
        counts.append(sum(rebound))
    assert counts[0] == counts[1] == counts[2]


class _CountingRows(set):
    """A relation's row set that counts the rows Python loops walk."""

    walked = 0

    def __iter__(self):
        _CountingRows.walked += len(self)
        return super().__iter__()


def test_two_credentials_entering_at_once_walk_no_held_row():
    """``alice.says`` two more credentials and ``run()``: both enter bob's
    ``active`` in one pass, and ordering them walks none of his ``active``
    rows.  While several entering refs were ordered as the set of every
    active ref, the walk read 7 / 507 / 2,007 rows."""
    counts = []
    for held in (0, 500, 2000):
        system, alice, bob = bob_holding(held)
        relation = bob.workspace.db.rel("active")
        relation.rows = _CountingRows(relation.rows)
        _CountingRows.walked = 0
        alice.says(bob, "ping(-1).")
        alice.says(bob, "ping(-2).")
        assert system.run().delivered == 2
        assert {(-1,), (-2,)} <= bob.tuples("gotA")
        counts.append(_CountingRows.walked)
    assert counts[0] == counts[1] == counts[2]


def fig2_pair(said: int, eager: bool, registry=None):
    """alice says ``said`` facts to bob in one transaction, as a Figure 2
    round does; the ``eager`` twin reads every Figure 1 relation first."""
    system = LBTrustSystem(auth="hmac", seed=1)
    if registry is not None:
        system.registry = registry
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    alice.load("gotB(X) <- pong(X).")
    bob.load("gotA(X) <- ping(X).")
    if eager:
        for principal in (alice, bob):
            for pred in sorted(ALL_META_PREDS):
                principal.tuples(pred)
    return system, alice, bob


def exchange(system, alice, said: int) -> None:
    with alice.workspace.transaction():
        for k in range(said):
            ref = alice.intern(f'ping("{k:08x}").')
            alice.workspace.assert_fact("says", ("alice", "bob", ref))
    report = system.run()
    assert report.delivered == said and report.rejected == 0


@pytest.mark.parametrize("said", [0, 200, 2000])
def test_a_fig2_exchange_reifies_no_said_fact(monkeypatch, said):
    """After the principals are loaded, a Figure 2 exchange of ``said``
    facts reifies none of them: a ref is recorded where it is named and
    reified at the first read of a Figure 1 relation, which no Figure 2
    workspace makes (reifying at interning made ``said`` calls).  Read
    afterwards, ``rule`` and ``factrule`` answer what eager reflection
    does."""
    system, alice, bob = fig2_pair(said, eager=False)
    calls = []
    reify = registry_module._reify
    monkeypatch.setattr(registry_module, "_reify",
                        lambda ref, rule: calls.append(ref) or reify(ref, rule))
    exchange(system, alice, said)
    assert bob.tuples("gotA") == {(f"{k:08x}",) for k in range(said)}
    assert calls == []
    twin, twin_alice, twin_bob = fig2_pair(said, eager=True,
                                           registry=system.registry)
    exchange(twin, twin_alice, said)
    for pred in ("rule", "factrule"):
        assert bob.tuples(pred) == twin_bob.tuples(pred)
        assert alice.tuples(pred) == twin_alice.tuples(pred)
    assert len(bob.tuples("factrule")) >= said


@pytest.mark.parametrize("n", [10, 50, 100])
def test_a_join_commits_once_to_each_workspace(monkeypatch, n):
    """The n-th HMAC principal's creation commits once to each of the
    n−1 existing workspaces (its roster rows and its shared secret
    there) and as often to its own at every n, and rebuilds no
    placement: no workspace reads its whole ``predNode`` relation and no
    principal routes every row it holds.  While every roster row and
    every shared secret was its own commit and each ``predNode`` change
    rebuilt the map, the n-th made 3n+2 commits and 2n−1 rebuilds."""
    system = LBTrustSystem(auth="hmac", seed=1)
    for k in range(n - 1):
        system.create_principal(f"p{k}")
    commits, rebuilds = Counter(), []
    commit, tuples, route = Workspace._commit, Workspace.tuples, Principal.route

    def counting_commit(self):
        commits[self.name] += 1
        return commit(self)

    def counting_tuples(self, pred):
        if pred == "predNode":
            rebuilds.append(self.name)
        return tuples(self, pred)

    def counting_route(self, to=None):
        rebuilds.append(self.name)
        return route(self, to)

    monkeypatch.setattr(Workspace, "_commit", counting_commit)
    monkeypatch.setattr(Workspace, "tuples", counting_tuples)
    monkeypatch.setattr(Principal, "route", counting_route)
    newcomer = system.create_principal("new")
    monkeypatch.undo()
    assert commits.pop("new") == 5
    assert commits == {f"p{k}": 1 for k in range(n - 1)}
    assert rebuilds == []
    assert ("new", newcomer.node) in system.principal("p0").tuples("loc")
    assert ("p0", "new", "hmac:new:p0") in system.principal(
        "p0").tuples("sharedsecret")
