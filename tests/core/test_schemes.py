"""Authentication schemes: all four, tampering, reconfiguration (§4.1.2)."""

import pytest

from repro.datalog.errors import ConstraintViolation
from repro.net.transport import decode_fact_message, encode_fact_message


SCHEMES = ["plaintext", "hmac", "rsa", "mixed"]


def two_principals(make_system, auth):
    system = make_system(auth)
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    if auth == "mixed":
        for principal, peer in ((alice, "bob"), (bob, "alice")):
            principal.assert_fact("authpolicy", (peer, "hmac"))
    bob.load('seen(X) <- msg(X).')
    return system, alice, bob


class TestAllSchemesDeliver:
    @pytest.mark.parametrize("auth", SCHEMES)
    def test_fact_flows(self, make_system, auth):
        system, alice, bob = two_principals(make_system, auth)
        alice.says(bob, 'msg("hello").')
        report = system.run()
        assert report.delivered == 1 and report.rejected == 0
        assert bob.tuples("seen") == {("hello",)}

    @pytest.mark.parametrize("auth", SCHEMES)
    def test_rule_flows(self, make_system, auth):
        system, alice, bob = two_principals(make_system, auth)
        bob.assert_fact("raw", ("r1",))
        alice.says(bob, "msg(X) <- raw(X).")
        system.run()
        assert bob.tuples("seen") == {("r1",)}

    def test_byte_cost_ordering(self, make_system):
        """RSA signatures are bigger than HMAC tags than nothing."""
        sizes = {}
        for auth in ("plaintext", "hmac", "rsa"):
            system, alice, bob = two_principals(make_system, auth)
            alice.says(bob, 'msg("hello").')
            report = system.run()
            sizes[auth] = report.bytes
        assert sizes["plaintext"] < sizes["hmac"] < sizes["rsa"]


class TestTampering:
    def test_modified_payload_rejected(self, make_system):
        """A man-in-the-middle rewriting the rule invalidates the signature."""
        system = make_system("hmac")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        alice.says(bob, 'msg("genuine").')
        # intercept: take alice's export, swap the rule, keep the signature
        (fact,) = [f for f in alice.tuples("export") if f[0] == "bob"]
        forged_ref = alice.intern('msg("forged").')
        forged = ("bob", "alice", forged_ref, fact[3])
        blob = encode_fact_message("export", forged, system.registry, to="bob")
        to, pred, decoded = decode_fact_message(blob, system.registry)
        with pytest.raises(ConstraintViolation):
            bob.assert_fact(pred, decoded)
        assert not bob.tuples("msg")

    def test_wrong_speaker_rejected(self, make_system):
        """Claiming someone else said it fails their verification key."""
        system = make_system("hmac")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        alice.says(bob, 'msg("from-alice").')
        (fact,) = [f for f in alice.tuples("export") if f[0] == "bob"]
        # replay alice's message claiming carol said it
        forged = ("bob", "carol", fact[2], fact[3])
        with pytest.raises(ConstraintViolation):
            bob.assert_fact("export", forged)

    def test_rsa_cross_principal_replay_rejected(self, make_system):
        system = make_system("rsa")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        alice.says(bob, 'msg("secret-for-bob").')
        (fact,) = [f for f in alice.tuples("export") if f[0] == "bob"]
        # For RSA the signature covers the rule only, so re-addressing the
        # envelope *is* accepted by exp3 — but only as alice's words.
        carol.assert_fact("export", ("carol", "alice", fact[2], fact[3]))
        assert ("alice", "carol", fact[2]) in carol.tuples("says")

    def test_audit_trail_records_rejections(self, make_system):
        system = make_system("hmac")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        ref = alice.intern('msg("x").')
        try:
            bob.assert_fact("says", ("alice", "bob", ref))
        except ConstraintViolation:
            pass
        assert any(e.kind == "constraint_violation" for e in bob.audit)
        assert system.audit_trail()


class TestReconfiguration:
    """Section 4.1.2: swapping schemes changes two rules, nothing else."""

    def test_scheme_definitions_differ_only_in_exp1_exp3(self):
        from repro.core.schemes import scheme
        rsa = scheme("rsa")
        hmac = scheme("hmac")
        assert rsa.exp1_text != hmac.exp1_text
        assert rsa.exp3_text != hmac.exp3_text
        # and that is all a scheme consists of (plus provisioning)
        assert set(vars(rsa)) == {"name", "exp1_text", "exp3_text",
                                  "provision", "rule_labels"}

    @pytest.mark.parametrize("path", [
        ("rsa", "hmac"), ("hmac", "plaintext"), ("plaintext", "rsa"),
        ("hmac", "hmac"),
    ])
    def test_reconfigure_preserves_knowledge(self, make_system, path):
        before, after = path
        system, alice, bob = two_principals(make_system, before)
        alice.says(bob, 'msg("one").')
        system.run()
        system.reconfigure_auth(after)
        alice.says(bob, 'msg("two").')
        system.run()
        assert bob.tuples("seen") == {("one",), ("two",)}
        assert system.auth_name == after

    def test_policies_untouched_by_reconfiguration(self, make_system):
        system, alice, bob = two_principals(make_system, "rsa")
        old_scheme_refs = set(bob.scheme_rule_refs)
        policy_refs = bob.workspace.active_refs() - old_scheme_refs
        system.reconfigure_auth("hmac")
        # policy rules (seen <- msg, says1, exp2, …) survive; only the
        # exp1-family rules were swapped
        still_active = bob.workspace.active_refs()
        assert policy_refs <= still_active
        assert not old_scheme_refs & still_active

    def test_teardown_is_one_maintenance_pass_per_principal(self, make_system):
        # ROADMAP item 1: constraints, every scheme rule and the export
        # history go in one transaction, so a principal rebuilds at most
        # once per reconfiguration — not once per deactivated scheme rule
        # and once more for the said rules its export history activated.
        system, alice, bob = two_principals(make_system, "rsa")
        alice.says(bob, 'msg("one").')
        system.run()
        before = {p.name: p.workspace.stats.full_recomputes
                  for p in (alice, bob)}
        system.reconfigure_auth("hmac")
        for principal in (alice, bob):
            spent = principal.workspace.stats.full_recomputes \
                - before[principal.name]
            assert spent <= 1, (principal.name, spent)
        alice.says(bob, 'msg("two").')
        system.run()
        assert bob.tuples("seen") == {("one",), ("two",)}

    def test_old_signatures_do_not_verify_under_new_scheme(self, make_system):
        system, alice, bob = two_principals(make_system, "rsa")
        alice.says(bob, 'msg("one").')
        system.run()
        (old_export,) = [f for f in bob.workspace.edb.get("export", set())]
        system.reconfigure_auth("hmac")
        with pytest.raises(ConstraintViolation):
            bob.assert_fact("export", old_export)


class TestMixedPolicy:
    def test_per_peer_schemes(self, make_system):
        system = make_system("mixed")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        alice.assert_fact("authpolicy", ("bob", "rsa"))
        alice.assert_fact("authpolicy", ("carol", "plaintext"))
        bob.assert_fact("authpolicy", ("alice", "rsa"))
        carol.assert_fact("authpolicy", ("alice", "plaintext"))
        bob.load("seen(X) <- msg(X).")
        carol.load("seen(X) <- msg(X).")
        alice.says(bob, 'msg("signed").')
        alice.says(carol, 'msg("clear").')
        report = system.run()
        assert report.rejected == 0
        assert bob.tuples("seen") == {("signed",)}
        assert carol.tuples("seen") == {("clear",)}

    def test_no_policy_no_export(self, make_system):
        system = make_system("mixed")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        bob.load("seen(X) <- msg(X).")
        alice.says(bob, 'msg("dropped").')   # no authpolicy for bob
        report = system.run()
        assert report.delivered == 0
        assert bob.tuples("seen") == set()
