"""Quoted patterns are maintained like any other rule body.

A body quote compiles to a join over the Figure 1 relations, and when an
ordinary literal carries the quoted rule (``says(U,me,R)``,
``active(R)``, ``made(R)``) the join fires from that literal's rows
only: a new ``rule(R)`` re-runs the carrier over the rows holding ``R``
(``datalog/engine.py`` ``pattern_groups``).  Whatever order rows and
reflection arrive in, a maintained workspace must hold what one built
fresh from its final EDB holds.
"""

from hypothesis import given, settings

from repro.datalog.engine import pattern_groups
from repro.datalog.parser import parse_rule
from repro.datalog.terms import Atom, Constant, Rule
from repro.meta.model import ALL_META_PREDS
from repro.meta.quote import compile_rule
from repro.workspace.workspace import Workspace

from strategies import PATTERNS, SAYS1, pattern_streams


def said_ref(registry, said):
    """The ref a speaker says: a rule text, or ``("wrap", text)``."""
    if isinstance(said, tuple):
        inner = registry.intern_text(said[1])
        return registry.intern(Rule((Atom("wrap", (Constant(inner),)),)))
    return registry.intern_text(said)


def apply(ws, step):
    """One step of a :class:`strategies.PatternStream`, in its own
    transaction; a step that would change nothing is skipped."""
    kind, first, second = step
    if kind in ("say", "unsay"):
        pred = "says"
        fact = (first, ws.me, said_ref(ws.registry, second))
    else:
        pred, fact = first, second
    row = ws.db.interner.row_of(fact)
    held = "$edb" in ws._base.get(pred, {}).get(row, ())
    if kind in ("say", "assert") and not held:
        ws.assert_fact(pred, fact)
    elif kind in ("unsay", "retract") and held:
        ws.retract_fact(pred, fact)


def fresh_from_edb(ws):
    """A workspace that met the same rules (reflection is never undone)
    and was handed ``ws``'s final asserted facts in one transaction —
    the Figure 1 rows are reflection's to write, not the EDB's."""
    fresh = Workspace(ws.name, registry=ws.registry,
                      enable_provenance=ws.provenance is not None)
    materialize = ws.db.interner.materialize_row
    with fresh.transaction():
        for ref in sorted(ws._reified, key=lambda ref: ref.rid):
            fresh._ensure_reified(ref)
        for pred, rows in sorted(ws._base.items()):
            if pred not in ALL_META_PREDS:
                fresh.assert_facts(pred, [materialize(row) for row, held
                                          in rows.items() if "$edb" in held])
    return fresh


def user_rows(ws):
    return {pred: set(relation.rows)
            for pred, relation in ws.db.relations.items()
            if pred not in ALL_META_PREDS and relation.rows}


def assert_equals_fresh(ws):
    fresh = fresh_from_edb(ws)
    assert ws.active_refs() == fresh.active_refs()
    assert user_rows(ws) == user_rows(fresh)
    if ws.provenance is not None:
        def proofs(workspace):
            return {key: held for key, held
                    in workspace.provenance.derivations.items()
                    if key[0] not in ALL_META_PREDS}
        assert proofs(ws) == proofs(fresh)


class TestPatternMaintenance:
    @given(pattern_streams())
    @settings(max_examples=100, deadline=None)
    def test_property_maintained_equals_fresh(self, stream):
        ws = Workspace("w")
        ws.load(stream.program)
        for step in stream.steps:
            apply(ws, step)
            assert_equals_fresh(ws)

    @given(pattern_streams())
    @settings(max_examples=50, deadline=None)
    def test_property_provenance_equals_fresh(self, stream):
        ws = Workspace("w", enable_provenance=True)
        ws.load(stream.program)
        for step in stream.steps:
            apply(ws, step)
            assert_equals_fresh(ws)
            # every row held has a proof: an aggregate's head included
            assert not [(pred, row)
                        for pred, relation in ws.db.relations.items()
                        for row in relation.rows
                        if (pred, row) not in ws.provenance.derivations]

    def test_every_shape_at_once(self):
        for provenance in (False, True):
            ws = Workspace("w", enable_provenance=provenance)
            ws.load(SAYS1 + "".join(PATTERNS.values()))
            steps = [("say", "alice", "p(1)."), ("say", "alice", "p(2)."),
                     ("assert", "trigger", (2,)),
                     ("say", "carol", ("wrap", "p(3).")),
                     ("say", "alice", "p(1) <- q(1,2)."),
                     ("assert", "q", (1, 2)), ("unsay", "alice", "p(1)."),
                     ("retract", "trigger", (2,)),
                     ("say", "carol", "q(X,Y) <- p(X), p(Y).")]
            for step in steps:
                apply(ws, step)
                assert_equals_fresh(ws)
            assert ws.tuples("wrapped") == {("carol", 3)}
            # the wrap atom that satisfies it came after alice's says row
            assert ws.tuples("sawwrap") == {("alice",)}
            assert ws.tuples("heardrule") == {("alice", 1, 2)}
            assert ("alice", "q") in ws.tuples("reads")


class TestDelayedReflection:
    PROGRAM = ("made([| p(X). |]) <- trigger(X).\n"
               "q(Y) <- made([| p(Y). |]).\n")

    def test_a_template_made_during_evaluation_fires_its_pattern(self):
        """``made(R)`` is derived before R is reflected (a template ref
        is reified after the pass that made it): the pattern fires one
        pass later, when ``rule(R)`` arrives and re-runs the carrier over
        the ``made`` rows holding R.  Four derivations: two ``made``, two
        ``q`` (18 while every Figure 1 literal was a delta position)."""
        for provenance in (False, True):
            ws = Workspace("w", enable_provenance=provenance)
            ws.load(self.PROGRAM)
            ws.assert_facts("trigger", [(1,), (2,)])
            assert ws.tuples("q") == {(1,), (2,)}
            assert ws.stats.derivations == 4

    def test_loaded_with_its_facts(self):
        """The same program and facts in one load: six derivations, the
        two ``active`` rows of the loaded rules included (22 before)."""
        for provenance in (False, True):
            ws = Workspace("w", enable_provenance=provenance)
            ws.load(self.PROGRAM + "trigger(1). trigger(2).")
            assert ws.tuples("q") == {(1,), (2,)}
            assert ws.stats.derivations == 6


class TestPatternGroups:
    def groups(self, text):
        body = tuple(compile_rule(parse_rule(text), "me").body)
        grouped, carriers = pattern_groups(body)
        return [item.atom.pred for item in body], grouped, carriers

    def test_a_carried_quote_leaves_only_its_carrier(self):
        preds, grouped, carriers = self.groups(
            "got(U,X) <- says(U,me,[| p(X). |]), ok(U).")
        assert carriers == {preds.index("says"): (2,)}
        # rule factrule head atom functor arg value arity
        assert sorted(preds[i] for i in grouped) == sorted(
            set(preds) - {"says", "ok"})

    def test_a_nested_quote_joins_the_group_that_reaches_it(self):
        preds, grouped, carriers = self.groups(
            "w(X) <- says(U,me,[| wrap(R). |]), R = [| p(X). |].")
        assert carriers == {0: (2,)}
        assert preds.count("rule") == 2
        assert grouped == set(range(1, len(preds)))

    def test_a_quote_with_no_carrier_stays_semi_naive(self):
        assert self.groups("anyp(X) <- R = [| p(X). |].")[1:] \
            == (frozenset(), {})

    def test_a_figure_1_literal_unreached_from_the_root_stays(self):
        preds, grouped, carriers = self.groups(
            'x(U) <- says(U,me,[| p(1). |]), functor(_, "q").')
        assert carriers == {0: (2,)}
        assert len(preds) - 1 not in grouped
        assert preds.index("functor") in grouped
