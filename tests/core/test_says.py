"""The says machinery (section 4.1): says0/says1, exp0-exp3."""

import pytest

from repro.core.says import SAYS1, EXP2, install_says_machinery
from repro.datalog.errors import ConstraintViolation
from repro.datalog.parser import parse_rule
from repro.meta.registry import RuleRegistry
from repro.workspace.workspace import Workspace


class TestSays1:
    def test_said_fact_activates(self):
        registry = RuleRegistry()
        workspace = Workspace("alice", registry=registry)
        workspace.load(SAYS1)
        ref = registry.intern(parse_rule('good("dave").'))
        workspace.assert_fact("says", ("bob", "alice", ref))
        assert workspace.tuples("good") == {("dave",)}

    def test_said_rule_activates_and_runs(self):
        registry = RuleRegistry()
        workspace = Workspace("alice", registry=registry)
        workspace.load(SAYS1)
        workspace.assert_fact("localdata", ("x",))
        ref = registry.intern(parse_rule("derived(X) <- localdata(X)."))
        workspace.assert_fact("says", ("bob", "alice", ref))
        assert workspace.tuples("derived") == {("x",)}

    def test_says_to_other_principal_does_not_activate(self):
        registry = RuleRegistry()
        workspace = Workspace("alice", registry=registry)
        workspace.load(SAYS1)
        ref = registry.intern(parse_rule('good("dave").'))
        workspace.assert_fact("says", ("bob", "carol", ref))
        assert workspace.tuples("good") == set()

    def test_self_says_activates(self):
        registry = RuleRegistry()
        workspace = Workspace("alice", registry=registry)
        workspace.load(SAYS1)
        ref = registry.intern(parse_rule('note("self").'))
        workspace.assert_fact("says", ("alice", "alice", ref))
        assert workspace.tuples("note") == {("self",)}


class TestRevocation:
    @pytest.mark.parametrize("provenance", [False, True])
    def test_revoking_the_speaker_drops_what_it_said(self, make_system,
                                                     provenance):
        """bob activates what is said to him unless its speaker is revoked;
        ``revoked("alice")`` is an insertion, and it must take alice's
        rule out of bob's context as a retraction would."""
        system = make_system("plaintext", enable_provenance=provenance)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        bob.load("trust: active(R) <- says(U,me,R), !revoked(U).\n"
                 "ok(X) <- good(X).")
        bob.workspace.deactivate_rule(bob.intern(SAYS1))
        said = alice.says(bob, 'good("carol").')
        system.run()

        def assert_equals_fresh():
            fresh = Workspace("fresh", registry=system.registry,
                              builtins=system.builtins,
                              enable_provenance=provenance)
            with fresh.transaction():
                for pred, held in sorted(bob.workspace.edb.items()):
                    fresh.assert_facts(pred, held)
            assert fresh.active_refs() == bob.workspace.active_refs()
            assert fresh.tuples("ok") == bob.tuples("ok")

        assert said in bob.workspace.active_refs()
        assert bob.tuples("ok") == {("carol",)}
        assert_equals_fresh()
        bob.assert_fact("revoked", ("alice",))
        assert said not in bob.workspace.active_refs()
        assert bob.tuples("ok") == set()
        assert_equals_fresh()


class TestExp2:
    def test_export_to_me_becomes_says(self):
        registry = RuleRegistry()
        workspace = Workspace("alice", registry=registry)
        install_says_machinery(workspace)
        ref = registry.intern(parse_rule('fact("f").'))
        # received export: partition key = me
        workspace.assert_fact("export", ("alice", "bob", ref, "sig"))
        assert ("bob", "alice", ref) in workspace.tuples("says")
        assert workspace.tuples("fact") == {("f",)}

    def test_export_to_other_partition_ignored(self):
        registry = RuleRegistry()
        workspace = Workspace("alice", registry=registry)
        install_says_machinery(workspace)
        ref = registry.intern(parse_rule('fact("f").'))
        workspace.assert_fact("export", ("carol", "bob", ref, "sig"))
        assert workspace.tuples("says") == set()


class TestEndToEndExport(object):
    def test_exp1_exports_with_hmac(self, make_system):
        system = make_system("hmac")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        ref = alice.says(bob, 'greeting("hi").')
        # exp1 derived an export tuple in alice's export relation
        exports = alice.tuples("export")
        assert any(f[0] == "bob" and f[2] == ref for f in exports)
        # the signature is a real HMAC over the canonical text
        (fact,) = [f for f in exports if f[2] == ref]
        signature = fact[3]
        from repro.crypto.hmac_sha1 import hmac_sha1_hex
        from repro.crypto.keystore import shared_secret_id
        secret = alice.keystore.secret(shared_secret_id("alice", "bob"))
        expected = hmac_sha1_hex(secret,
                                 system.registry.canonical_text(ref).encode())
        assert signature == expected

    def test_exp3_rejects_unverifiable_says(self, make_system):
        system = make_system("hmac")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        ref = alice.intern('lie("x").')
        with pytest.raises(ConstraintViolation):
            bob.assert_fact("says", ("alice", "bob", ref))

    def test_heard_receipts_recorded(self, make_system):
        system = make_system("plaintext")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        ref = alice.says(bob, 'g("1").')
        system.run()
        assert ("alice", ref) in bob.tuples("heard")
