"""Every shipped program, as its users load it.

* *canonical text is a fixpoint* — canonical text is what principals sign,
  what content-addresses a rule and what crosses the wire, so printing
  then parsing it must give it back.  Every statement of every shipped
  program: the examples, the paper listings, the says / delegation /
  authorization machinery (templates as their installers fill them),
  every scheme's exp1/exp3 text and apps/filesystem.  A constraint is
  checked side by side, each DNF alternative as the body of a rule
  ``c()``; ``me`` is resolved first, as on load.
* *type-checks as loaded* — a load is checked against its host's catalog,
  the one schema every fact, rule and constraint declares through, so
  R201 / R202 fire across loads exactly as ``typecheck()`` reports them.
  The shipped machinery, every scheme's exp1/exp3 and the section 9 file
  system in each owner mode must load clean that way: no principal's
  ``typecheck()`` finds a clash and no load's audited warnings name R201
  or R202.  A bare ``grade`` fact declares its predicate, so del0 admits
  its delegation.
"""

from pathlib import Path

from repro import LBTrustSystem
from repro.analysis.cli import extract_programs
from repro.analysis.corpus import iter_corpus
from repro.analysis.pipeline import parse_dialect
from repro.apps import filesystem
from repro.apps.filesystem import DistributedFileSystem
from repro.core import authorization, delegation, says, schemes
from repro.core.schemes import SCHEMES
from repro.datalog.parser import parse_rule
from repro.datalog.pretty import canonical_rule
from repro.datalog.terms import Atom, Rule
from repro.meta.quote import resolve_me_rule

ROOT = Path(__file__).resolve().parent.parent

CHANNELS = ("rsa", "hmac", "plaintext")


def test_canonical_text_is_a_fixpoint_over_shipped_programs():
    class Loaded:
        def load(self, text):
            programs.append(("installed template", text))

    files = sorted((ROOT / "examples").glob("*.py")) + [
        Path(module.__file__) for module in
        (says, delegation, authorization, schemes, filesystem)]
    programs = [(f"{path}:{line + 1}", text) for path in files
                for label, line, text in extract_programs(path.read_text())
                if not label.endswith("_TEMPLATE")]
    programs += [(name, text) for name, _, text in iter_corpus()]
    delegation.install_speaks_for(Loaded(), "bob")
    for channel in ("says", "heard"):
        delegation.install_threshold(Loaded(), "creditOK", "banks", 2,
                                     arity=2, channel=channel)
        delegation.install_weighted_threshold(
            Loaded(), "creditOK", "banks", 1.5, channel=channel)
    checked = 0
    for where, text in programs:
        for statement in parse_dialect(text):
            if isinstance(statement, Rule):
                rules = [statement]
            else:
                rules = [Rule((Atom("c", ()),), alternative) for alternative
                         in statement.lhs + statement.rhs]
            for rule in rules:
                canonical = canonical_rule(resolve_me_rule(rule, "alice"))
                again = canonical_rule(parse_rule(canonical))
                assert again == canonical, (where, canonical, again)
                checked += 1
    assert checked and programs


def build(auth):
    return LBTrustSystem(auth=auth, rsa_bits=512, seed=1,
                         delegation=True, authorization=True)


def agree_on_channels(system):
    # under "mixed" a speaker signs, and its listener checks, by the
    # channel their authpolicy facts name: each pair names the same one
    if system.auth_name == "mixed":
        names = sorted(system.principals)
        for i, name in enumerate(names):
            for j, peer in enumerate(names):
                if i != j:
                    system.principal(name).assert_fact(
                        "authpolicy", (peer, CHANNELS[(i + j) % 3]))


def clean(system, where):
    for name, principal in sorted(system.principals.items()):
        issues = principal.workspace.typecheck()
        assert issues == [], (where, name, issues)
        for event in principal.workspace.audit:
            if event.kind == "static_check_warnings":
                found = [w for w in event.detail["warnings"]
                         if "[R201]" in w or "[R202]" in w]
                assert not found, (where, name, found)
    return len(system.principals)


def test_shipped_programs_type_check_as_they_are_loaded():
    checked = 0
    for auth in sorted(SCHEMES):
        system = build(auth)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        agree_on_channels(system)
        alice.assert_fact("grade", ("dave", 1))
        alice.grant_write(bob, "grade")
        bob.grant_write(alice, "inferredDelDepth")
        alice.delegate(bob, "grade", depth=0)
        bob.says(alice, "grade(\"carol\", 2).")
        report = system.run()
        assert report.rejected == 0, (auth, report.rejected_detail)
        assert ("carol", 2) in alice.tuples("grade"), auth
        checked += clean(system, auth)
        for mode in ("direct", "delegated", "threshold"):
            fs = DistributedFileSystem(system=build(auth))
            fs.add_store("store")
            fs.add_owner("owner", mode=mode, threshold=1)
            fs.add_requester("reader")
            fs.add_manager("manager")
            fs.owner_trusts_manager("owner", "manager",
                                    delegate=mode == "delegated")
            agree_on_channels(fs.system)
            fs.create_file("doc", owner="owner", store="store", data="text")
            fs.grant("owner", "reader", "doc", "read")
            fs.manager_grant("manager", "reader", "doc", "read")
            assert fs.read("reader", "doc", "store") == "text", (auth, mode)
            checked += clean(fs.system, f"{auth}/{mode}")
    assert checked == 4 * 2 + 4 * 3 * 4
