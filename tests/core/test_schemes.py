"""Authentication schemes: all four, tampering, reconfiguration (§4.1.2)."""

import itertools
from collections import Counter

import pytest

from repro.datalog.errors import ConstraintViolation
from repro.datalog.terms import RuleRef
from repro.meta.model import ALL_META_PREDS
from repro.net.transport import encode_batch_message_dict


SCHEMES = ["plaintext", "hmac", "rsa", "mixed"]

#: What a scheme walk legitimately leaves different from a fresh build:
#: key material (old keys stay provisioned) and the meta-model, which
#: keeps every rule ever reified and every predicate ever named as
#: asserted facts.
SCHEME_MATERIAL = ALL_META_PREDS | {"rsapubkey", "rsaprivkey", "sharedsecret"}


def plain_relations(principal):
    """Every other non-empty relation as a multiset of facts: rule
    references spelled out (two systems number the same rule differently)
    and the signature column of ``export`` dropped (the keys differ) — a
    multiset, so an export left behind under an old signature shows."""
    workspace = principal.workspace
    return {
        pred: Counter(
            tuple(workspace.rule_text(value)
                  if isinstance(value, RuleRef) else value
                  for value in (fact[:3] if pred == "export" else fact))
            for fact in workspace.tuples(pred))
        for pred in workspace.db.preds()
        if pred not in SCHEME_MATERIAL and workspace.tuples(pred)}


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
        blob = encode_batch_message_dict([("bob", "export", forged)],
                                         system.registry)
        system.network.send("alice", "bob", blob)
        report = system.run()
        assert bob.tuples("msg") == {("genuine",)}
        assert report.delivered == 1 and report.rejected == 1
        assert [e.detail["pred"] for e in bob.audit
                if e.kind == "import_rejected"] == ["export"]
        with pytest.raises(ConstraintViolation):
            bob.assert_fact("export", forged)

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
                                  "provision"}

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
        # ROADMAP item 1: constraints, every scheme rule, the export
        # history and the new scheme go in one transaction per principal,
        # and a rule that leaves is a deletion: nothing is rebuilt.
        system, alice, bob = two_principals(make_system, "rsa")
        alice.says(bob, 'msg("one").')
        system.run()
        untouched = {p.name: p.workspace.db.get("loc") for p in (alice, bob)}
        system.reconfigure_auth("hmac")
        for principal in (alice, bob):
            assert principal.workspace.stats.full_recomputes == 0
            assert principal.workspace.db.get("loc") \
                is untouched[principal.name]
        alice.says(bob, 'msg("two").')
        system.run()
        assert bob.tuples("seen") == {("one",), ("two",)}

    @pytest.mark.parametrize("path", [
        *itertools.permutations(("plaintext", "hmac", "rsa"), 2),
        ("rsa", "hmac", "plaintext", "rsa"),
    ], ids="-".join)
    def test_reconfigured_equals_built_under_the_final_scheme(
            self, make_system, path):
        """The differential contract, system level: after any walk through
        the schemes, what every principal knows equals what it would know
        had the system been built under the last one.  (Fails if a
        deactivated scheme rule leaves a derived row behind, or takes an
        unrelated one with it.)"""
        def build(auth):
            system, alice, bob = two_principals(make_system, auth)
            bob.assert_fact("raw", ("r1",))
            alice.says(bob, 'msg("one").')
            alice.says(bob, "msg(X) <- raw(X).")
            bob.says(alice, 'ack("one").')
            system.run()
            return system, alice, bob

        system, *walked = build(path[0])
        for auth in path[1:]:
            system.reconfigure_auth(auth)
            report = system.run()
            assert report.rejected == 0
        _, *fresh = build(path[-1])
        for got, want in zip(walked, fresh):
            assert got.workspace.stats.full_recomputes == 0
            assert plain_relations(got) == plain_relations(want)
            assert got.tuples("says")
        assert walked[1].tuples("seen") == {("one",), ("r1",)}

    def test_a_failed_install_leaves_the_principal_under_its_old_scheme(
            self, make_system, monkeypatch):
        """Teardown and install are one transaction per principal: with
        ``_install_scheme`` raising for bob at its last step (the new
        rules and constraints already in), bob keeps his scheme rules,
        his exp3 constraints and his received exports.  (At PR 18 the
        teardown had committed before any install began.)  The swap is
        all or nothing: alice, switched before bob failed, is put back
        under rsa.  Every relation of bob's, key rows included, is as it
        was: alice's install writes only her own workspace."""
        from dataclasses import replace

        from repro.core.schemes import SCHEMES

        system, alice, bob = two_principals(make_system, "rsa")
        alice.says(bob, 'msg("one").')
        system.run()
        workspace = bob.workspace
        held = {pred: bob.tuples(pred) for pred in workspace.db.preds()}
        before = (list(bob.scheme_rule_refs),
                  list(bob.scheme_constraint_labels), bob.auth_scheme,
                  workspace.active_refs(), list(workspace.constraints),
                  workspace.edb["export"], bob.tuples("seen"))
        assert before[0] and before[1] and before[5]
        provision = SCHEMES["hmac"].provision

        def failing(system, principal, rng):
            provision(system, principal, rng)
            if principal is bob:
                raise RuntimeError("no keys for bob")

        monkeypatch.setitem(SCHEMES, "hmac",
                            replace(SCHEMES["hmac"], provision=failing))
        with pytest.raises(RuntimeError):
            system.reconfigure_auth("hmac")
        assert alice.auth_scheme == "rsa" and system.auth_name == "rsa"
        assert before == (
            bob.scheme_rule_refs, bob.scheme_constraint_labels,
            bob.auth_scheme, workspace.active_refs(), workspace.constraints,
            workspace.edb["export"], bob.tuples("seen"))
        # every relation, key rows included: alice's install wrote none
        assert held == {pred: bob.tuples(pred) for pred in workspace.db.preds()}
        # and bob still verifies under the scheme he was left with
        with pytest.raises(ConstraintViolation):
            bob.assert_fact("export", ("bob", "alice",
                                       alice.intern('msg("x").'), "bad"))

    def test_a_refused_swap_switches_no_principal(self, make_system):
        """A ``says`` at bob that no export backs is refused by exp3' when
        bob's workspace prepares: the swap is one system transaction, so
        alice, installed first, never leaves plaintext, the system's
        scheme and name are as they were, alice keeps what she had
        received, and nothing is shipped again at the next run."""
        system, alice, bob = two_principals(make_system, "plaintext")
        alice.load('heardof(X) <- msg(X).')
        bob.says(alice, 'msg("b1").')
        alice.says(bob, 'msg("a1").')
        system.run()
        unbacked = ("alice", "bob", alice.intern("ping(1)."))
        bob.workspace.assert_fact("says", unbacked)
        scheme = system._scheme
        with pytest.raises(ConstraintViolation):
            system.reconfigure_auth("hmac")
        assert system._scheme is scheme and system.auth_name == "plaintext"
        assert [p.auth_scheme for p in (alice, bob)] == ["plaintext"] * 2
        assert alice.tuples("heardof") == {("b1",)}
        report = system.run()
        assert {row.name: row.sent_facts for row in report.per_node} == {
            "alice": 0, "bob": 0}
        assert report.delivered == 0
        assert alice.tuples("heardof") == {("b1",)}
        assert bob.tuples("seen") == {("a1",)}
        bob.workspace.retract_fact("says", unbacked)
        system.reconfigure_auth("rsa")   # nothing holds the swap back now
        system.run()
        assert alice.tuples("heardof") == {("b1",)}

    def test_a_swap_failing_at_two_principals_switches_none(
            self, make_system, monkeypatch):
        """The swap to hmac fails at alice and at carol: the first failure,
        alice's, is raised, and no principal, nor the system, leaves rsa."""
        from dataclasses import replace

        from repro.core.schemes import SCHEMES

        system, alice, bob = two_principals(make_system, "rsa")
        carol = system.create_principal("carol")
        hmac = SCHEMES["hmac"]

        def provision(system, principal, rng):
            hmac.provision(system, principal, rng)
            if principal.name in ("alice", "carol"):
                raise RuntimeError(f"no keys for {principal.name}")

        monkeypatch.setitem(SCHEMES, "hmac", replace(hmac, provision=provision))
        with pytest.raises(RuntimeError, match="alice"):
            system.reconfigure_auth("hmac")
        assert system.auth_name == "rsa" and system._scheme.name == "rsa"
        assert [p.auth_scheme for p in (alice, bob, carol)] == ["rsa"] * 3
        assert not any(p.tuples("sharedsecret") for p in (alice, bob, carol))

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
