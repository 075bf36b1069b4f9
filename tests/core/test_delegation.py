"""Delegation (section 4.2): speaks-for, del1, depth, width, thresholds."""

import pytest

from repro.core.delegation import (
    install_delegation,
    install_speaks_for,
    install_threshold,
    install_weighted_threshold,
    install_width_restriction,
)
from repro.datalog.errors import ConstraintViolation
from repro.datalog.parser import parse_rule
from repro.meta.registry import RuleRegistry
from repro.workspace.workspace import Workspace


def fresh(name="alice"):
    registry = RuleRegistry()
    return registry, Workspace(name, registry=registry)


class TestSpeaksFor:
    def test_sf0_activates_everything_from_one_principal(self):
        registry, workspace = fresh()
        install_speaks_for(workspace, "bob")
        ref = registry.intern(parse_rule('claim("x").'))
        workspace.assert_fact("says", ("bob", "alice", ref))
        assert workspace.tuples("claim") == {("x",)}

    def test_sf0_ignores_other_speakers(self):
        registry, workspace = fresh()
        install_speaks_for(workspace, "bob")
        ref = registry.intern(parse_rule('claim("x").'))
        workspace.assert_fact("says", ("carol", "alice", ref))
        assert workspace.tuples("claim") == set()


class TestDel1:
    def test_delegated_predicate_activates(self):
        registry, workspace = fresh()
        install_delegation(workspace)
        workspace.load('creditOK(C) -> string(C). prin("alice"). prin("bob"). prin("carol").')
        workspace.assert_fact("delegates", ("alice", "bob", "creditOK"))
        ok = registry.intern(parse_rule('creditOK("acme").'))
        other = registry.intern(parse_rule('gossip("x").'))
        workspace.assert_fact("says", ("bob", "alice", ok))
        workspace.assert_fact("says", ("bob", "alice", other))
        assert workspace.tuples("creditOK") == {("acme",)}
        assert workspace.tuples("gossip") == set()

    def test_delegation_is_per_principal(self):
        registry, workspace = fresh()
        install_delegation(workspace)
        workspace.load('creditOK(C) -> string(C). prin("alice"). prin("bob"). prin("carol").')
        workspace.assert_fact("delegates", ("alice", "bob", "creditOK"))
        ok = registry.intern(parse_rule('creditOK("acme").'))
        workspace.assert_fact("says", ("carol", "alice", ok))
        assert workspace.tuples("creditOK") == set()

    def test_delegated_rules_not_just_facts(self):
        registry, workspace = fresh()
        install_delegation(workspace)
        workspace.load('creditOK(C) -> string(C). prin("alice"). prin("bob"). prin("carol").')
        workspace.assert_fact("delegates", ("alice", "bob", "creditOK"))
        workspace.assert_fact("rating", ("acme", 800))
        conditional = registry.intern(
            parse_rule("creditOK(C) <- rating(C,N), N >= 700."))
        workspace.assert_fact("says", ("bob", "alice", conditional))
        assert workspace.tuples("creditOK") == {("acme",)}

    def test_del0_requires_known_predicate(self):
        registry, workspace = fresh()
        install_delegation(workspace)
        with pytest.raises(ConstraintViolation):
            workspace.assert_fact("delegates", ("alice", "bob", "nonexistent"))

    def test_a_predicate_known_only_by_its_facts_can_be_delegated(
            self, make_system):
        # A bare assert declares its predicate, so `predicate` lists it
        # and del0 admits the delegation; it used to wait for a rule
        # that mentioned `grade`.
        system = make_system("plaintext", delegation=True)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        alice.assert_fact("grade", ("carol", 3))
        assert ("grade",) in alice.tuples("predicate")
        alice.delegate(bob, "grade")
        assert ("alice", "bob", "grade") in alice.tuples("delegates")


class TestDepthRestrictions:
    def test_depth_zero_blocks_redelegation(self, make_system):
        system = make_system("plaintext", delegation=True)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        for principal in (alice, bob, carol):
            principal.load("perm(A) -> prin(A).")
        alice.delegate(bob, "perm", depth=0)
        system.run()
        assert ("alice", "bob", "perm", 0) in bob.tuples("inferredDelDepth")
        with pytest.raises(ConstraintViolation):
            bob.delegate(carol, "perm")

    @pytest.mark.parametrize("depth", ["two", 1.5, True])
    def test_a_refused_depth_leaves_no_delegation(self, make_system, depth):
        # dd0 refuses a depth that is not an int; the delegation asserted
        # with it used to commit on its own, with no depth limit at all
        system = make_system("plaintext", delegation=True)
        alice = system.create_principal("alice")
        system.create_principal("bob")
        alice.load("perm(A) -> prin(A).")
        with pytest.raises(ConstraintViolation):
            alice.delegate("bob", "perm", depth=depth)
        assert alice.tuples("delegates") == set()
        assert alice.tuples("delDepth") == set()
        assert alice.tuples("inferredDelDepth") == set()

    def test_depth_one_allows_exactly_one_hop(self, make_system):
        system = make_system("plaintext", delegation=True)
        names = ["a", "b", "c", "d"]
        principals = {n: system.create_principal(n) for n in names}
        for principal in principals.values():
            principal.load("perm(A) -> prin(A).")
        principals["a"].delegate("b", "perm", depth=1)
        system.run()
        principals["b"].delegate("c", "perm")
        system.run()
        assert ("b", "c", "perm", 0) in principals["c"].tuples("inferredDelDepth")
        with pytest.raises(ConstraintViolation):
            principals["c"].delegate("d", "perm")

    def test_late_restriction_detected_locally(self, make_system):
        """Section 4.2.1's 'non-conforming delegation' scenario: the
        violation surfaces at the offender, upstream stays unaware."""
        system = make_system("plaintext", delegation=True)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        for principal in (alice, bob, carol):
            principal.load("perm(A) -> prin(A).")
        bob.delegate(carol, "perm")        # pre-existing delegation
        system.run()
        alice.delegate(bob, "perm", depth=0)   # restriction arrives later
        report = system.run()
        assert report.rejected >= 1
        assert any(e.kind == "import_rejected" for e in bob.audit)
        # upstream (alice) has no violation recorded
        assert not any(e.kind == "constraint_violation" for e in alice.audit)


class TestWidthRestrictions:
    def test_width_allows_listed_principals(self):
        registry, workspace = fresh()
        install_width_restriction(workspace)
        workspace.load("perm(A) -> string(A). "
                       'prin("alice"). prin("bob"). prin("eve").')
        workspace.assert_fact("delWidthOn", ("alice", "perm"))
        workspace.assert_fact("delWidth", ("alice", "bob", "perm"))
        workspace.assert_fact("delegates", ("alice", "bob", "perm"))

    def test_width_blocks_unlisted_principals(self):
        registry, workspace = fresh()
        install_width_restriction(workspace)
        workspace.load("perm(A) -> string(A). "
                       'prin("alice"). prin("bob"). prin("eve").')
        workspace.assert_fact("delWidthOn", ("alice", "perm"))
        workspace.assert_fact("delWidth", ("alice", "bob", "perm"))
        with pytest.raises(ConstraintViolation):
            workspace.assert_fact("delegates", ("alice", "eve", "perm"))

    def test_unrestricted_predicates_unaffected(self):
        registry, workspace = fresh()
        install_width_restriction(workspace)
        workspace.load("perm(A) -> string(A). other(A) -> string(A). "
                       'prin("alice"). prin("eve").')
        workspace.assert_fact("delegates", ("alice", "eve", "other"))


class TestThresholds:
    """wd0-wd2 and the weighted variant (section 4.2.2)."""

    def _bank(self, bureaus=4):
        registry, workspace = fresh("bank")
        install_threshold(workspace, "creditOK", "creditBureau", 3,
                          result="creditOK")
        for i in range(bureaus):
            workspace.assert_fact("pringroup", (f"b{i}", "creditBureau"))
        return registry, workspace

    def test_below_threshold_not_derived(self):
        registry, workspace = self._bank()
        ok = registry.intern(parse_rule('creditOK("acme").'))
        for bureau in ("b0", "b1"):
            workspace.assert_fact("says", (bureau, "bank", ok))
        assert workspace.tuples("creditOK") == set()

    def test_at_threshold_derived(self):
        registry, workspace = self._bank()
        ok = registry.intern(parse_rule('creditOK("acme").'))
        for bureau in ("b0", "b1", "b2"):
            workspace.assert_fact("says", (bureau, "bank", ok))
        assert workspace.tuples("creditOK") == {("acme",)}
        assert ("acme", 3) in workspace.tuples("creditOKCount")

    def test_non_members_do_not_count(self):
        registry, workspace = self._bank()
        ok = registry.intern(parse_rule('creditOK("acme").'))
        for speaker in ("b0", "b1", "stranger"):
            workspace.assert_fact("says", (speaker, "bank", ok))
        assert workspace.tuples("creditOK") == set()

    def test_duplicate_votes_count_once(self):
        registry, workspace = self._bank()
        ok = registry.intern(parse_rule('creditOK("acme").'))
        workspace.assert_fact("says", ("b0", "bank", ok))
        workspace.assert_fact("says", ("b0", "bank", ok))  # EDB dedupe
        workspace.assert_fact("says", ("b1", "bank", ok))
        assert workspace.tuples("creditOK") == set()

    def test_per_subject_counting(self):
        registry, workspace = self._bank()
        acme = registry.intern(parse_rule('creditOK("acme").'))
        globex = registry.intern(parse_rule('creditOK("globex").'))
        for bureau in ("b0", "b1", "b2"):
            workspace.assert_fact("says", (bureau, "bank", acme))
        workspace.assert_fact("says", ("b3", "bank", globex))
        assert workspace.tuples("creditOK") == {("acme",)}

    def test_weighted_threshold(self):
        registry, workspace = fresh("bank")
        install_weighted_threshold(workspace, "creditOK", "creditBureau",
                                   5, result="creditOK")
        weights = {"big": 4, "mid": 2, "small": 1}
        for name, weight in weights.items():
            workspace.assert_fact("pringroup", (name, "creditBureau"))
            workspace.assert_fact("weight", (name, weight))
        ok = registry.intern(parse_rule('creditOK("acme").'))
        workspace.assert_fact("says", ("small", "bank", ok))
        workspace.assert_fact("says", ("mid", "bank", ok))
        assert workspace.tuples("creditOK") == set()     # 3 < 5
        workspace.assert_fact("says", ("big", "bank", ok))
        assert workspace.tuples("creditOK") == {("acme",)}   # 7 >= 5

    def test_heard_channel_threshold(self, make_system):
        """The system-mode variant counting the receipt log (E2E)."""
        system = make_system("plaintext")
        bank = system.create_principal("bank")
        install_threshold(bank.workspace, "creditOK", "creditBureau", 2,
                          result="approved", channel="heard")
        bureaus = [system.create_principal(f"b{i}") for i in range(3)]
        for bureau in bureaus:
            bank.workspace.assert_fact("pringroup",
                                       (bureau.name, "creditBureau"))
        bureaus[0].says(bank, 'creditOK("acme").')
        system.run()
        assert bank.tuples("approved") == set()
        bureaus[1].says(bank, 'creditOK("acme").')
        system.run()
        assert bank.tuples("approved") == {("acme",)}
