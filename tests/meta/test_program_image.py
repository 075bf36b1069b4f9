"""One program image per system: a text installed at many principals is
parsed once, gated once per catalog and compiled once.

* *parse once* — every install of a text (``load``, ``add_rule(str)``,
  ``add_constraint(str)``, a scheme's exp1/exp3) reads the registry's
  image of it; a second system parses it again (no process-global memo);
  only an install that succeeds keeps an image, and the table is bounded;
* *gate once per catalog* — a report is reused only under equal builtins
  and equal catalog entries: a conflicting catalog is checked again and
  refused with the code a fresh check gives, and every principal still
  audits its own warnings;
* *compile once* — a ref is compiled and checked safe once per system,
  and each principal normalizes and plans engine rules of its own; a
  rule or constraint holding ``me`` is each speaker's own;
* *builtins isolation* — Binder's ``factsmatching`` is registered into a
  registry of its principal's own, and nowhere else.
"""

import pytest

from repro import LBTrustSystem
from repro.core.says import SAYS1
from repro.core.schemes import PLAINTEXT_EXP1
from repro.core.system import PLACEMENT_RULES
from repro.datalog.errors import (ConstraintViolation, ReproError,
                                  SafetyError, WorkspaceError)
from repro.datalog.pretty import canonical_constraint
from repro.datalog.terms import BuiltinCall, Literal
from repro.languages.binder import PULL1, BinderContext
from repro.meta import registry as registry_module
from repro.meta.quote import compile_constraint
from repro.net.network import SimulatedNetwork
from repro.serve import TrustServer
from repro.workspace.workspace import Workspace

#: a program the gate warns about: ``Y`` is never bound (R002)
WARNED = "lonely(X) <- num(X), !edge(X,Y)."


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def build(names=("alice", "bob", "carol"), **kwargs):
    system = LBTrustSystem(auth="hmac", delegation=True, authorization=True,
                           **kwargs)
    return system, [system.create_principal(name) for name in names]


class TestParseOnce:
    def test_each_text_is_parsed_once_per_system(self, monkeypatch):
        parsed = count_calls(monkeypatch, registry_module, "parse_statements")
        system, _ = build()
        assert sorted(parsed) == sorted(system.registry._images)
        assert len(parsed) == len(set(parsed))
        # says1, exp2, ld1/ld2, del0/del1, dd0-dd4, authzread, authzwrite
        # and the scheme's exp1/exp3, the same nine at every principal
        assert len(system.registry._images) == 9
        again, _ = build()
        assert len(parsed) == 18   # a second system parses for itself

    def test_every_install_route_reads_the_image(self, monkeypatch):
        system, (alice, bob, _carol) = build()
        parsed = count_calls(monkeypatch, registry_module, "parse_statements")
        for principal in (alice, bob):
            principal.load("a(X) <- b(X).")
            principal.add_rule("c(X) <- b(X).")
            principal.add_constraint("b(X) -> int(X).")
        system.reconfigure_auth("plaintext")
        system.reconfigure_auth("hmac")
        # plaintext's exp1 once for three principals; hmac's was parsed
        assert parsed == ["a(X) <- b(X).", "c(X) <- b(X).", "b(X) -> int(X).",
                          PLAINTEXT_EXP1]

    def test_a_text_the_parser_refuses_makes_no_image(self):
        system, (alice, _bob, _carol) = build()
        held = dict(system.registry._images)
        for _ in range(2):
            with pytest.raises(Exception) as refused:
                alice.load("p(X) <- .")
            assert type(refused.value).__name__ == "ParseError"
        assert system.registry._images == held

    def test_a_refused_install_keeps_no_image(self):
        system, (alice, _bob, _carol) = build()
        alice.load("num(X) -> int(X).")
        held = dict(system.registry._images)
        refusals = [
            (SafetyError, lambda: alice.load("p(X,Y) <- q(X).")),
            (ConstraintViolation, lambda: alice.load('num("x").')),
            (WorkspaceError, lambda: alice.add_rule("a(X) <- b(X). b(X) -> .")),
            (WorkspaceError, lambda: alice.add_constraint("a(X) <- b(X).")),
        ]
        for error, install in refusals:
            with pytest.raises(error):
                install()
        assert system.registry._images == held

    def test_a_refused_served_load_keeps_no_image(self):
        system = LBTrustSystem(auth="plaintext", seed=7)
        system.create_principal("srv")
        network = SimulatedNetwork()
        network.add_node("cli")
        server = TrustServer(system, network)
        held = dict(system.registry._images)
        for source in ("p(X,Y) <- q(X).", "p(X) <- .",
                       'num(X) -> int(X). num("x").'):
            with pytest.raises(ReproError):
                server._dispatch("cli", "load", {"principal": "srv",
                                                 "source": source})
        assert system.registry._images == held

    def test_the_image_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(registry_module, "MAX_IMAGES", 12)
        system, (alice, _bob, _carol) = build()
        texts = [f"seed({k})." for k in range(12)]
        for text in texts:
            alice.load(text)
        assert len(system.registry._images) == 12
        assert list(system.registry._images)[-12:] == texts
        alice.load("seed(12).")   # the oldest goes
        assert list(system.registry._images) == texts[1:] + ["seed(12)."]


class TestGateOncePerCatalog:
    def test_equal_catalogs_share_one_check(self, monkeypatch):
        import repro.analysis.pipeline as pipeline

        checked = count_calls(monkeypatch, pipeline, "analyze_statements")
        system, _ = build(names=("alice",))
        first = len(checked)
        system.create_principal("bob")
        system.create_principal("carol")
        assert first == 5 and len(checked) == first

    def test_a_report_serves_the_catalog_it_was_checked_against(
            self, monkeypatch):
        import repro.analysis.pipeline as pipeline

        system, (alice, bob, carol) = build()
        bob.assert_fact("extra", (1,))   # bob's catalog names one more
        checked = count_calls(monkeypatch, pipeline, "analyze_statements")
        text = "big(X) <- num(X), X > 2."
        alice.load(text)
        system.create_principal("dave").load(text)   # as alice's: no run
        assert len(checked) == 1
        bob.load(text)
        carol.load(text)
        # one report per image, the last catalog's: carol's catalog is
        # alice's, but bob's check took the slot
        assert len(checked) == 3

    def test_a_conflicting_catalog_is_refused_with_the_fresh_code(self):
        system, (alice, _bob, _carol) = build()
        # the image holds a clean report for the machinery's catalog
        assert alice.workspace.last_check == []
        refusals = []
        for registry, builtins in ((system.registry, system.builtins),
                                   (None, None)):
            dave = Workspace("dave", registry=registry, builtins=builtins)
            dave.assert_fact("loc", ("dave", "n1", "extra"))
            before = dave.catalog.entries()
            with pytest.raises(WorkspaceError) as refused:
                dave.load(PLACEMENT_RULES)
            assert dave.catalog.entries() == before
            refusals.append(str(refused.value))
        assert "[R201]" in refusals[0]
        assert refusals[0] == refusals[1]

    def test_every_principal_audits_its_own_warnings(self):
        system, principals = build()
        for principal in principals:
            principal.load(WARNED)
        lone = Workspace("lone")
        lone.load(WARNED)
        for principal in principals:
            workspace = principal.workspace
            audited = [event for event in workspace.audit
                       if event.kind == "static_check_warnings"]
            assert len(audited) == 1
            assert audited[0].detail["workspace"] == principal.name
            assert audited[0].detail["warnings"] == \
                lone.audit[0].detail["warnings"]
            assert [d.code for d in workspace.last_check] == ["R002"]
            assert workspace.last_check == lone.last_check
            assert workspace.last_check is not lone.last_check

    def test_a_builtin_registered_since_is_checked_again(self):
        system, _ = build(names=("alice",))
        first = Workspace("w1", registry=system.registry,
                          builtins=system.builtins)
        first.load("r(X) <- foo(X).")     # foo is a relation here
        system.builtins.register("foo", "i", lambda value: True)
        second = Workspace("w2", registry=system.registry,
                           builtins=system.builtins)
        with pytest.raises(Exception) as refused:
            second.load("r(X) <- foo(X).")  # now X is never bound
        assert "[R001]" in str(refused.value) or \
            "[R003]" in str(refused.value)


class TestCompileOnce:
    def test_a_speakerless_rule_is_compiled_once(self, monkeypatch):
        system, principals = build()
        compiled = count_calls(monkeypatch, registry_module, "compile_rule")
        refs = {principal.add_rule("reach(X,Y) <- edge(X,Y).")
                for principal in principals}
        assert len(refs) == 1 and len(compiled) == 1
        [ref] = refs
        # each principal plans engine rules of its own
        engine = [principal.workspace._activated[ref][0]
                  for principal in principals]
        assert len({id(rule) for rule in engine}) == 3
        assert len({id(rule._plans) for rule in engine}) == 3
        assert all(rule.source is engine[0].source for rule in engine)

    def test_a_rule_naming_me_is_each_speakers_own(self, monkeypatch):
        system, (alice, bob, _carol) = build()
        compiled = count_calls(monkeypatch, registry_module, "compile_rule")
        alice_says1, bob_says1 = alice.intern(SAYS1), bob.intern(SAYS1)
        assert alice_says1 != bob_says1
        assert '"alice"' in system.registry.canonical_text(alice_says1)
        assert alice.workspace._activated[alice_says1][0].source is not \
            bob.workspace._activated[bob_says1][0].source
        assert compiled == []   # both were compiled at creation

    def test_a_constraint_naming_me_resolves_to_each_speaker(self):
        system, principals = build()
        image = system.registry.image(system._scheme.exp3_text)
        [statement] = image.statements
        for principal in principals:
            [installed] = [c for c in principal.workspace.constraints
                           if c.label == statement.label]
            exact = compile_constraint(statement, principal.name,
                                       system.builtins)
            assert canonical_constraint(installed) == \
                canonical_constraint(exact)
            assert f'"{principal.name}"' in canonical_constraint(installed)


class TestBuiltinsIsolation:
    CALLERS = ("got(F) <- want(R), factsmatching(R,F).",
               "x(F) <- factsmatching(F).")

    def outcomes(self, principal):
        found = []
        for text in self.CALLERS:
            try:
                principal.load(text)
                found.append(("loaded", principal.workspace.last_check))
            except WorkspaceError as refused:
                found.append((type(refused).__name__, str(refused)))
        return found

    def test_a_rule_is_compiled_per_builtins_registry(self):
        system = LBTrustSystem(auth="plaintext")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        BinderContext(bob).install_pull()
        # one speakerless ref; factsmatching is a builtin at bob alone
        [ref] = {principal.add_rule(self.CALLERS[0])
                 for principal in (carol, bob)}
        called = [type(principal.workspace._activated[ref][0].body[-1])
                  for principal in (carol, bob)]
        assert called == [Literal, BuiltinCall]

    def test_factsmatching_is_its_principals_alone(self):
        system = LBTrustSystem(auth="plaintext")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        bob.assert_fact("rating", ("acme", "good"))
        BinderContext(bob).install_pull()
        asker = BinderContext(alice)
        asker.install_pull()
        asker.load("approved(C) :- bob says rating(C, good).")
        system.run()
        assert alice.tuples("approved") == {("acme",)}
        assert "factsmatching" in bob.workspace.builtins
        assert "factsmatching" not in system.builtins
        assert "factsmatching" not in carol.workspace.builtins
        # pull1 compiled at bob calls the builtin; carol's reads a relation
        carol.load(PULL1)
        compiled = {name: [item for rule
                           in principal.workspace._all_engine_rules()
                           if rule.label == "pull1" for item in rule.body
                           if getattr(item, "name", None) == "factsmatching"
                           or isinstance(item, Literal)
                           and item.atom.pred == "factsmatching"]
                    for name, principal in (("bob", bob), ("carol", carol))}
        assert [type(item) for item in compiled["bob"]] == [BuiltinCall]
        assert [type(item) for item in compiled["carol"]] == [Literal]
        # and carol's loads go exactly as in a system with no Binder
        control = LBTrustSystem(auth="plaintext")
        control.create_principal("alice")
        control.create_principal("bob")
        twin = control.create_principal("carol")
        twin.load(PULL1)
        outcomes = self.outcomes(carol)
        assert outcomes == self.outcomes(twin)
        assert outcomes[0][0] == "loaded" and outcomes[1][0] == "WorkspaceError"
