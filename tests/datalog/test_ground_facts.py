"""A ground fact is a supported row: the held row against the walker.

A rule with no body, no aggregate and only constants in its head (the
common said credential, ``ping("x").``) compiles to no engine rule: a
workspace that activates it holds the rows it states as supported base
rows, each counting the active facts that state it.  Each generated
fact here goes both ways — activated in a workspace, and
``derive_rows`` over the same rule's own plan — and the two must give
the same id row per head and the same provenance label, whether the row
was asserted before or not.  The facts cover every value kind the
interner keys apart (str, int, float, bool, rule refs, nested tuples),
partitioned ``export[bob](...)`` heads and multi-head facts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.engine import ProvenanceStore, derive_rows, normalize_rules
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Atom, Constant, Rule, RuleRef
from repro.meta.registry import RuleRegistry
from repro.workspace import workspace as workspace_module
from repro.workspace.workspace import Workspace

scalars = st.one_of(
    st.text(max_size=4), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(), st.builds(RuleRef, st.integers(1, 4)))
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6)
constants = values.map(Constant)


@st.composite
def ground_heads(draw, arity: int):
    """``p(...)`` or a partitioned ``export[bob](...)``."""
    args = tuple(draw(st.lists(constants, min_size=arity, max_size=arity)))
    if draw(st.booleans()):
        return Atom("export", args, (Constant(draw(st.sampled_from(
            ["bob", "carol"]))),))
    return Atom(draw(st.sampled_from(["p", "q"])), args)


@st.composite
def ground_facts(draw):
    """One to three heads of one arity (a workspace's catalog fixes it)."""
    arity = draw(st.integers(0, 3))
    return Rule(tuple(draw(st.lists(ground_heads(arity), min_size=1,
                                    max_size=3))))


def provenance_workspace() -> Workspace:
    """A workspace whose registry knows ``RuleRef(1)`` .. ``RuleRef(4)``,
    the refs a generated value may name."""
    registry = RuleRegistry()
    for k in range(1, 5):
        registry.intern(parse_statements(f"known({k}).")[0])
    return Workspace("w", registry=registry, enable_provenance=True)


def walked(rule, label: str, interner) -> tuple:
    """``(row, provenance)`` of one engine rule walked over its own plan,
    in a fresh database over ``interner``."""
    rule.label = label
    db, context = Database(interner), EvalContext()
    provenance = ProvenanceStore(db)
    produced: set = set()
    fired = derive_rows(rule, rule.plan(context, None, db), db, context,
                        None, None, (), produced, provenance)
    [row] = produced
    assert fired == 1
    return row, provenance.derivations[(rule.head.pred, row)]


@given(fact=ground_facts(), held=st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_ground_fact_holds_the_row_the_walker_derives(fact, held):
    assert fact.is_ground_fact()
    ws = provenance_workspace()
    interner = ws.db.interner
    heads = [(head.pred, interner.intern_row(tuple(
        term.value for term in head.all_args))) for head in fact.heads]
    if held:   # asserted first: the fact adds a proof, not a row
        for head in fact.heads:
            ws.assert_atom(head)
    ref = ws.add_rule(fact)
    label = f"r{ref.rid}"
    assert ws._activated[ref] == [] and ws._all_engine_rules() == []
    engine_rules = normalize_rules([ws.registry.rule_of(ref)])
    assert len(engine_rules) == len(fact.heads)
    for rule, (pred, row) in zip(engine_rules, heads):
        walked_row, walked_proofs = walked(rule, label, interner)
        assert walked_row == row
        assert walked_proofs == {(label, ())}
        assert row in ws.db.rel(pred).rows
        assert ws._base[pred][row].count(label) \
            == heads.count((pred, row))
        proofs = ws.provenance.derivations[(pred, row)]
        assert proofs == walked_proofs | ({("$edb", ())} if held else set())
    ws.deactivate_rule(ref)
    for pred, row in heads:
        assert ws._base.get(pred, {}).get(row, ()) \
            == (("$edb",) if held else ())
        assert (row in ws.db.rel(pred).rows) is held
        assert ws.provenance.derivations.get((pred, row)) \
            == ({("$edb", ())} if held else None)


def test_a_ground_fact_compiles_to_no_rule(monkeypatch):
    """Activating a ground fact compiles, normalizes and plans nothing:
    the registry's ``compiled`` is never asked for it."""
    asked = []
    compiled = RuleRegistry.compiled
    monkeypatch.setattr(RuleRegistry, "compiled", lambda self, ref, b: (
        asked.append(ref), compiled(self, ref, b))[1])
    monkeypatch.setattr(workspace_module, "normalize_rules", None)
    ws = Workspace("w")
    ref = ws.add_rule('ping("x", 1, 2.5).')
    assert asked == [] and ws._activated[ref] == []
    assert ws.tuples("ping") == {("x", 1, 2.5)}
    assert ws._strata == []


def test_only_a_ground_fact_is_held_as_a_row():
    """A fact with a computed head term, or a rule with any body, is an
    engine rule in the strata as before; the ground fact is a row only."""
    ws = Workspace("w")
    ws.add_rule("a(1). b(X) <- a(X). c(1+1). d(1) <- 1 < 2. "
                "e(X) <- a(X), b(X).")
    assert sorted(rule.head.pred for rule in ws._all_engine_rules()) \
        == ["b", "c", "d", "e"]
    assert sorted(rule.head.pred for stratum in ws._strata
                  for rule in stratum.rules) == ["b", "c", "d", "e"]
    assert [pred for pred, rows in ws._base.items()
            if any("$edb" not in held for held in rows.values())] == ["a"]
    assert ws.tuples("e") == {(1,)} and ws.tuples("c") == {(2,)}


def test_a_shard_supports_only_the_rows_it_owns():
    """A ground fact's rows pass the delta-exchange hook as a rule's do:
    a row the hook sends elsewhere is neither held nor supported here,
    and dropping the fact later takes nothing out."""
    ws = Workspace("w")
    sent = []

    def emit(pred, rows):
        if pred == "far":
            sent.append((pred, set(rows)))
            return set()
        return rows

    ws.context.remote_emit_rows = emit
    ref = ws.add_rule("near(1), far(2).")
    assert ws.tuples("near") == {(1,)} and ws.tuples("far") == set()
    assert [pred for pred, _ in sent] == ["far"]
    assert list(ws._base["near"].values()) == [(f"r{ref.rid}",)]
    assert not ws._base.get("far")
    assert ws.stats.remote_emissions == 1
    ws.deactivate_rule(ref)
    assert ws.tuples("near") == set() and not ws._base["near"]
