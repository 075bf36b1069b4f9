"""One id space per system: the rule registry's ``terms`` is the only
interner a system's workspaces, a cluster's shards and their batcher use.

* *identity* — every principal's ``db`` and ``_edb``, every shard of an
  in-process ``Cluster`` or of a launcher-built job, and the batcher of
  the runtime that ships their rows all hold ``registry.terms``;
* *sharing* — a second principal's machinery is mostly hits: only what
  names it allocates ids;
* *typed terms* — ``77``, ``77.0`` and ``True`` are three ids, so a
  principal reads back the spelling it asserted, whatever another
  principal interned first;
* *isolation* — sharing the table shares nothing else: a step at one
  principal (load, assert, retract, deactivate, an aborted transaction)
  leaves the other's relations, catalog and active rules as they were,
  and never changes what an existing id means;
* *images* — principals that share the system's program images and
  compiled rules equal principals of a system that parses, gates and
  compiles every install afresh, field for field, and a step at one
  (a plan eviction included) leaves the other's answers alone.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LBTrustSystem
from repro.cluster import Cluster, Partitioner
from repro.cluster.launch import (
    _build_cluster_job,
    _build_system_job,
    cluster_spec,
    system_spec,
)
from repro.datalog.errors import BuiltinError
from repro.datalog.parser import parse_statements, parse_term
from repro.datalog.runtime import check_rule_safety
from repro.datalog.pretty import canonical_constraint, format_pattern
from repro.datalog.terms import PatternValue, PredPartition, RuleRef
from repro.meta.image import ProgramImage
from repro.meta.quote import compile_rule
from repro.meta.registry import RuleRegistry
from repro.net import batch as batch_module
from repro.net.transport import encode_entry

PROGRAM = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


def spy_batchers(monkeypatch):
    """Every MessageBatcher built from now on, in construction order."""
    built = []
    init = batch_module.MessageBatcher.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(batch_module.MessageBatcher, "__init__", recording)
    return built


class TestIdentity:
    def test_every_principal_and_the_batcher_use_the_registry_terms(
            self, monkeypatch):
        built = spy_batchers(monkeypatch)
        system = LBTrustSystem(auth="hmac")
        alice = system.create_principal("alice")
        system.create_principal("bob")
        terms = system.registry.terms
        for principal in system.principals.values():
            assert principal.workspace.db.interner is terms
        alice.says("bob", 'good("carol").')
        system.run()
        for principal in system.principals.values():
            workspace = principal.workspace
            assert all(rows.keys() <= workspace.db.rel(pred).rows
                       for pred, rows in workspace._base.items())
        assert built and all(b.registry.terms is terms for b in built)
        texts = system.registry.term_texts
        assert texts and all(
            text == encode_entry(terms.values[term_id], system.registry)
            for term_id, text in texts.items())

    def test_every_shard_of_an_in_process_cluster(self):
        names = ["n0", "n1", "n2"]
        partitioner = Partitioner(names)
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        cluster = Cluster(names, partitioner=partitioner)
        cluster.load(PROGRAM)
        cluster.assert_facts("edge", [(i, (i + 1) % 9) for i in range(9)])
        cluster.run()
        terms = cluster.registry.terms
        assert all(node.db.interner is terms
                   for node in cluster.nodes.values())
        assert cluster.batcher.registry.terms is terms
        assert cluster.registry.term_texts
        assert len(cluster.tuples("reach")) == 81

    def test_a_launcher_built_shard_and_host(self):
        spec = cluster_spec(["n0", "n1"], [["hash", "edge", 0]], PROGRAM,
                            facts=[("edge", (1, 2)), ("edge", (2, 3))])
        node, registry, _report, _sources = _build_cluster_job(spec, "n1")
        assert node.db.interner is registry.terms
        spec = system_spec([("alice", "x"), ("bob", "y")], auth="plaintext")
        host, registry, _report, _sources = _build_system_job(spec, "y")
        [bob] = host.principals
        assert bob.workspace.db.interner is registry.terms
        assert all(rows.keys() <= bob.workspace.db.rel(pred).rows
                   for pred, rows in bob.workspace._base.items())


class TestSharing:
    def test_a_second_principal_allocates_only_what_names_it(self):
        system = LBTrustSystem(auth="plaintext")
        system.create_principal("alice")
        terms = system.registry.terms
        before = len(terms)
        system.create_principal("bob")
        new = terms.values[before:]
        # An interner per workspace allocated every id bob's workspace
        # held.  Now the says machinery's constants are hits; what is new
        # is bob's name, his export partition, and the three machinery
        # rules that name him.  Nothing in bob's workspace reads a Figure
        # 1 relation, so none is materialized and their atom and term ids
        # (25 more while reflection was eager) are never interned.
        assert len(new) == 5
        refs = [v for v in new if isinstance(v, RuleRef)]
        assert len(refs) == 3
        assert all('"bob"' in system.registry.canonical_text(ref)
                   for ref in refs)
        assert {v for v in new if not isinstance(v, (str, RuleRef))} == \
            {PredPartition("export", ("bob",))}
        assert [v for v in new if isinstance(v, str)] == ["bob"]


class TestSpelling:
    def test_the_first_spelling_interned_is_what_every_principal_reads(self):
        # each principal reads back its own spelling, whatever another
        # interned first
        system = LBTrustSystem(auth="plaintext")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        alice.assert_fact("p", (77.0,))
        bob.assert_fact("q", (77,))
        [(read,)] = bob.tuples("q")
        assert read == 77 and type(read) is int

    def test_a_quoted_patterns_constants_keep_their_type(self):
        # A pattern's constants compare as Python values, so keyed by
        # equality [| q(false). |] was the id of an earlier [| q(0). |]
        # and read back as it.
        system = LBTrustSystem(auth="plaintext")
        alice = system.create_principal("alice")
        spellings = ("0", "false", "0.0", "-0.0", '"0"')
        patterns = [parse_term(f"[| q({text}). |]").pattern
                    for text in spellings]
        for pattern in patterns:
            alice.assert_fact("held", (PatternValue(pattern),))
        # read as id rows: a value-level set would hold them as one
        values = system.registry.terms.values
        held = [values[i] for (i,) in alice.workspace.db.rel("held").rows]
        assert sorted(format_pattern(value.pattern) for value in held) == \
            sorted(f"q({text})." for text in spellings)

    def test_a_lone_principals_true_is_a_bool(self):
        system = LBTrustSystem(auth="plaintext")
        alice = system.create_principal("alice")
        alice.load("q(true).\nisbool(X) <- q(X), bool(X).")
        [(read,)] = alice.tuples("isbool")
        assert read is True

    def test_another_principals_float_does_not_change_a_type_test(self):
        system = LBTrustSystem(auth="plaintext")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        alice.assert_fact("p", (77.0,))
        bob.load("isint(X) <- q(X), int(X).\n"
                 "isfloat(X) <- q(X), float(X).")
        bob.assert_fact("q", (77,))
        [(read,)] = bob.tuples("isint")
        assert type(read) is int
        assert bob.tuples("isfloat") == set()


# -- isolation ----------------------------------------------------------------

RULES = ["path(X,Y) <- edge(X,Y).", "path(X,Z) <- path(X,Y), edge(Y,Z).",
         "big(X) <- num(X), X > 2.", "node(X) <- edge(X,_)."]
#: equal values in every spelling: ``k``, ``float(k)``, the bools, ``-0.0``
#: (the machinery interns 0..4 itself, so ``k`` also runs past it)
NUMBERS = [1, 2, 7, 8] + [1.0, 2.0, 7.0, 8.0] + [True, False, -0.0]
VALUES = NUMBERS + ["x", "y"]
USER_PREDS = ("edge", "path", "num", "big", "node")

steps = st.lists(st.tuples(
    st.sampled_from(["alice", "bob"]),
    st.sampled_from(["load", "assert", "retract", "deactivate", "abort"]),
    st.integers(0, 1000)), min_size=1, max_size=10)


def observable(workspace):
    return {
        "tuples": {pred: set(workspace.tuples(pred))
                   for pred in workspace.db.preds()},
        "edb": dict(workspace.edb.items()),
        "catalog": {name: (info.arity, info.key_arity, info.declared,
                           list(info.arg_types))
                    for name in workspace.catalog.names()
                    for info in [workspace.catalog.info(name)]},
        "active": list(workspace._activated),
    }


def spelled(fact):
    return tuple((type(value).__name__, repr(value)) for value in fact)


def typed_rows(workspace):
    """The program's relations as stored: each id row's values by type
    and spelling (a set of values would merge ``1`` with ``True``)."""
    materialize = workspace.db.interner.materialize_row
    return {pred: {spelled(materialize(row)) for row in relation.rows}
            for pred in USER_PREDS
            for relation in [workspace.db.get(pred)] if relation is not None}


class Aborted(Exception):
    pass


def act(principal, op, pick, loaded):
    """One step at ``principal``; ``loaded`` collects the refs it loads."""
    workspace = principal.workspace
    if op == "load":
        active = set(workspace._activated)
        principal.load(RULES[pick % len(RULES)])
        loaded.extend(set(workspace._activated) - active)
    elif op == "assert" and pick % 2:
        principal.assert_fact("num", (NUMBERS[pick % len(NUMBERS)],))
    elif op == "assert":
        principal.assert_fact("edge", (VALUES[pick % len(VALUES)],
                                       VALUES[pick // 7 % len(VALUES)]))
    elif op == "retract":
        asserted = workspace._base.get("num", {})
        held = sorted([workspace.db.interner.materialize_row(row)
                       for row, labels in asserted.items()
                       if "$edb" in labels], key=spelled)
        if held:
            principal.retract_fact("num", held[pick % len(held)])
    elif op == "deactivate":
        refs = [ref for ref in loaded if ref in workspace._activated]
        if refs:
            workspace.deactivate_rule(refs[pick % len(refs)])
    else:
        try:
            with workspace.transaction():
                workspace.assert_fact("num", (f"fresh{pick}",))
                loaded.append(workspace.add_rule(RULES[pick % len(RULES)]))
                raise Aborted
        except Aborted:
            pass


def attempt(principal, op, pick, loaded):
    """:func:`act`, where a refused commit (``X > 2`` cannot order
    ``True``) is a step that changed nothing."""
    try:
        act(principal, op, pick, loaded)
    except BuiltinError:
        pass


class TestIsolation:
    @given(steps)
    # alice's num(8.0), then bob's num(8): one fact under a value key
    @example([("alice", "assert", 7), ("bob", "assert", 3)])
    @settings(max_examples=50, deadline=None)
    def test_a_step_at_one_principal_leaves_the_other_alone(self, stream):
        system = LBTrustSystem(auth="plaintext")
        principals = {name: system.create_principal(name)
                      for name in ("alice", "bob")}
        terms = system.registry.terms
        loaded = {name: [] for name in principals}
        # per principal, a system fed only that principal's steps
        solos = {}
        for name in principals:
            solo = LBTrustSystem(auth="plaintext")
            solos[name] = {each: solo.create_principal(each)
                           for each in principals}[name]
        solo_loaded = {name: [] for name in principals}
        for name, op, pick in stream:
            other = principals["bob" if name == "alice" else "alice"]
            before = observable(other.workspace)
            meanings = list(terms.values)
            attempt(principals[name], op, pick, loaded[name])
            attempt(solos[name], op, pick, solo_loaded[name])
            assert observable(other.workspace) == before
            assert len(terms) >= len(meanings)
            assert all(now is then for now, then
                       in zip(terms.values, meanings))
            assert all(terms.id_of(value) == term_id
                       for term_id, value in enumerate(meanings))
            for each, principal in principals.items():
                assert typed_rows(principal.workspace) == \
                    typed_rows(solos[each].workspace), each


# -- images -------------------------------------------------------------------

#: what an imaged stream loads besides ``RULES``: a text the gate warns
#: about, a rule and a constraint naming their speaker, a declaration
IMAGED = RULES + ["lonely(X) <- num(X), !edge(X,Y).",
                  "tagged(X,me) <- num(X).",
                  "mine: tagged(X,P) -> P = me.",
                  "num(X) -> ."]
IMAGED_PREDS = USER_PREDS + ("lonely", "tagged")

imaged_steps = st.lists(st.tuples(
    st.sampled_from(["alice", "bob"]),
    st.sampled_from(["load", "assert", "retract", "deactivate", "abort",
                     "evict"]),
    st.integers(0, 1000)), min_size=1, max_size=12)


class TextImage(ProgramImage):
    """An image that decides nothing ahead: every install gates its
    statements as a lone workspace would."""

    __slots__ = ()

    def report(self, builtins, catalog):
        return None


class TextRegistry(RuleRegistry):
    """A registry with no images: each install parses its text afresh,
    and each activation compiles its rule afresh."""

    def compiled(self, ref, builtins):
        rule = compile_rule(self.rule_of(ref), principal=None,
                            builtins=builtins)
        check_rule_safety(rule, builtins)
        return rule

    def image(self, source):
        return TextImage(source, parse_statements(source))


def fields(workspace):
    """Everything an install leaves in a workspace, comparable across
    systems: rule refs by their canonical text."""
    text = workspace.registry.canonical_text
    materialize = workspace.db.interner.materialize_row
    return {
        "relations": {pred: {spelled(materialize(row))
                             for row in relation.rows}
                      for pred in IMAGED_PREDS
                      for relation in [workspace.db.get(pred)]
                      if relation is not None},
        "catalog": observable(workspace)["catalog"],
        "constraints": [(c.label, canonical_constraint(c))
                        for c in workspace.constraints],
        "active": sorted(map(text, workspace._activated)),
        "audit": workspace.audit,
        "last_check": workspace.last_check,
        "last_check_suppressed": workspace.last_check_suppressed,
    }


def imaged_act(principal, op, pick, loaded):
    workspace = principal.workspace
    if op == "load":
        active = set(workspace._activated)
        principal.load(IMAGED[pick % len(IMAGED)])
        loaded.extend(set(workspace._activated) - active)
    elif op == "evict":
        # every plan this principal's rules hold
        for rule in workspace._all_engine_rules():
            rule._plans.clear()
    else:
        act(principal, op, pick, loaded)


class TestImages:
    @given(imaged_steps)
    @example([("alice", "load", 4), ("bob", "load", 4),
              ("alice", "load", 5), ("bob", "load", 5), ("alice", "load", 6),
              ("bob", "assert", 1), ("bob", "load", 7), ("alice", "evict", 0),
              ("bob", "assert", 3), ("alice", "deactivate", 0)])
    @settings(max_examples=40, deadline=None)
    def test_principals_built_from_images_equal_ones_built_from_text(
            self, stream):
        """Two principals share one system's images and compiled rules;
        a twin system has none.  After every step each principal equals
        its twin field for field, and a step at one principal — a
        deactivation, a rollback, a plan eviction — leaves the other's
        answers as they were."""
        systems = []
        for registry in (None, TextRegistry()):
            system = LBTrustSystem(auth="plaintext")
            if registry is not None:
                system.registry = registry
            systems.append({name: system.create_principal(name)
                            for name in ("alice", "bob")})
        imaged, twins = systems
        loaded = [{name: [] for name in imaged} for _ in systems]
        for name, op, pick in stream:
            other = "bob" if name == "alice" else "alice"
            before = fields(imaged[other].workspace)
            for principals, refs in zip(systems, loaded):
                try:
                    imaged_act(principals[name], op, pick, refs[name])
                except BuiltinError:
                    pass
            assert fields(imaged[other].workspace) == before
            for each in imaged:
                assert fields(imaged[each].workspace) == \
                    fields(twins[each].workspace), each
