"""Rule interning and Figure 1 reification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.errors import ReproError, SafetyError
from repro.datalog.parser import parse_rule
from repro.datalog.terms import PatternValue, RuleRef
from repro.meta.model import ALL_META_PREDS, PAPER_META_PREDS
from repro.meta.registry import RuleRegistry, _reify, is_open_fact_pattern
from strategies import reflected_rules


class TestInterning:
    def setup_method(self):
        self.registry = RuleRegistry()

    def test_same_rule_same_ref(self):
        left = self.registry.intern(parse_rule("p(X) <- q(X)."))
        right = self.registry.intern(parse_rule("p(X) <- q(X)."))
        assert left == right
        assert len(self.registry) == 1

    def test_alpha_variants_share_ref(self):
        left = self.registry.intern(parse_rule("p(X,Y) <- q(X,Y)."))
        right = self.registry.intern(parse_rule("p(A,B) <- q(A,B)."))
        assert left == right

    def test_different_rules_different_refs(self):
        left = self.registry.intern(parse_rule("p(X) <- q(X)."))
        right = self.registry.intern(parse_rule("p(X) <- r(X)."))
        assert left != right

    def test_rule_of_round_trip(self):
        rule = parse_rule('access(P,O,"read") <- good(P), object(O).')
        ref = self.registry.intern(rule)
        assert self.registry.rule_of(ref) == rule

    def test_canonical_text_reparses_to_same_ref(self):
        ref = self.registry.intern(parse_rule("p(Xyz) <- q(Xyz, 42)."))
        text = self.registry.canonical_text(ref)
        assert self.registry.intern(parse_rule(text)) == ref

    def test_unknown_ref_rejected(self):
        with pytest.raises(ReproError):
            self.registry.rule_of(RuleRef(999))

    def test_me_rules_rejected(self):
        with pytest.raises(SafetyError):
            self.registry.intern(parse_rule("p(X) <- says(me,X)."))

    def test_me_inside_quote_rejected(self):
        with pytest.raises(SafetyError):
            self.registry.intern(
                parse_rule("p(U) <- says(U,X,[| ok(me). |])."))

    def test_refs_in_value_finds_nested(self):
        ref = self.registry.intern(parse_rule("p(1)."))
        assert list(self.registry.refs_in_value(ref)) == [ref]
        assert list(self.registry.refs_in_value(("a", (ref, 1)))) == [ref]
        assert list(self.registry.refs_in_value("plain")) == []


class TestReification:
    def setup_method(self):
        self.registry = RuleRegistry()

    def facts_for(self, source):
        ref = self.registry.intern(parse_rule(source))
        return ref, self.registry.meta_facts(ref)

    def preds(self, facts):
        return {pred for pred, _ in facts}

    def test_fact_rule(self):
        ref, facts = self.facts_for('good("carol").')
        assert ("rule", (ref,)) in facts
        assert ("factrule", (ref,)) in facts
        head_ids = [f[1][1] for f in facts if f[0] == "head"]
        assert len(head_ids) == 1
        atom_id = head_ids[0]
        assert ("functor", (atom_id, "good")) in facts
        assert ("arity", (atom_id, 1)) in facts
        arg_facts = [f for f in facts if f[0] == "arg"]
        assert len(arg_facts) == 1
        term_id = arg_facts[0][1][2]
        assert ("constant", (term_id,)) in facts
        assert ("value", (term_id, "carol")) in facts

    def test_rule_with_body(self):
        ref, facts = self.facts_for("p(X) <- q(X), !r(X).")
        assert ("factrule", (ref,)) not in facts
        body_atoms = [f[1][1] for f in facts if f[0] == "body"]
        assert len(body_atoms) == 2
        negated = [f[1][0] for f in facts if f[0] == "negated"]
        assert len(negated) == 1

    def test_variables_reified(self):
        _, facts = self.facts_for("p(X) <- q(X).")
        names = {f[1][1] for f in facts if f[0] == "vname"}
        assert names == {"X"}
        assert any(f[0] == "variable" for f in facts)

    def test_predicate_and_pname(self):
        _, facts = self.facts_for("p(X) <- q(X).")
        pred_names = {f[1][0] for f in facts if f[0] == "predicate"}
        assert pred_names == {"p", "q"}
        assert ("pname", ("p", "p")) in facts

    def test_quote_arg_reified_as_pattern_value(self):
        _, facts = self.facts_for('req([| ok(C). |]).')
        quote_terms = [f[1][0] for f in facts if f[0] == "quoteterm"]
        assert len(quote_terms) == 1
        values = [f for f in facts if f[0] == "value"]
        assert any(isinstance(f[1][1], PatternValue) for f in values)

    def test_only_known_meta_preds_emitted(self):
        _, facts = self.facts_for(
            "active([| a(R) <- s(U,R), R = [| P(T*) <- A*. |]. |]) <- d(U,P).")
        assert self.preds(facts) <= ALL_META_PREDS | PAPER_META_PREDS

    def test_meta_facts_stable(self):
        ref, first = self.facts_for("p(X) <- q(X).")
        again = self.registry.meta_facts(ref)
        assert first == again


class TestTemplates:
    def setup_method(self):
        self.registry = RuleRegistry()

    def eval_term(self, term, bindings):
        from repro.datalog.runtime import EvalContext, eval_term
        return eval_term(term, bindings, EvalContext())

    def test_ground_fact_template(self):
        rule = parse_rule('h(T) <- b(U,P,N), T = [| d(U,P,N-1). |].')
        quote = rule.body[1].right
        ref = self.registry.instantiate_template(
            quote, {"U": "bob", "P": "perm", "N": 3}, self.eval_term)
        generated = self.registry.canonical_text(ref)
        assert generated == 'd("bob","perm",2).'

    def test_unbound_vars_stay_variables(self):
        rule = parse_rule("h(T) <- b(U), T = [| a(R) <- s(U,R). |].")
        quote = rule.body[1].right
        ref = self.registry.instantiate_template(quote, {"U": "bob"},
                                                 self.eval_term)
        text = self.registry.canonical_text(ref)
        assert '"bob"' in text and "V0" in text

    def test_functor_metavar_substituted(self):
        rule = parse_rule("h(T) <- b(P), T = [| a(R) <- s(R), R = [| P(T2*) <- A*. |]. |].")
        quote = rule.body[1].right
        ref = self.registry.instantiate_template(quote, {"P": "perm"},
                                                 self.eval_term)
        assert '"perm"' in self.registry.canonical_text(ref) or \
            "perm(" in self.registry.canonical_text(ref)

    def test_open_fact_pattern_detection(self):
        open_quote = parse_rule("h(T) <- b(X), T = [| p(Y). |].").body[1].right
        closed_quote = parse_rule("h(T) <- b(X), T = [| p(X). |].").body[1].right
        assert is_open_fact_pattern(open_quote.pattern)
        # after substituting X the closed one is ground
        from repro.meta.registry import substitute_bindings
        substituted = substitute_bindings(closed_quote.pattern, {"X": 1},
                                          self.eval_term)
        assert not is_open_fact_pattern(substituted)


@pytest.mark.parametrize("program, kind", [
    ("made([| p(X). |]) <- trigger(X).", RuleRef),
    ("made([| p(Y). |]) <- trigger(X).", PatternValue),
])
def test_a_head_quote_is_filled_once_per_instantiation(monkeypatch, program,
                                                       kind):
    """``instantiate_template`` fills the template once and answers an
    open fact template with its pattern value; the workspace does not
    fill it again to find out (a closed quote was filled twice)."""
    from repro.meta import registry as registry_module
    from repro.workspace.workspace import Workspace

    fills = []
    fill = registry_module.substitute_bindings

    def counting(*args):
        fills.append(args[0])
        return fill(*args)

    monkeypatch.setattr(registry_module, "substitute_bindings", counting)
    workspace = Workspace("w")
    workspace.load(program)
    workspace.assert_fact("trigger", (1,))
    workspace.assert_fact("trigger", (2,))
    made = [value for (value,) in workspace.tuples("made")]
    assert all(isinstance(value, kind) for value in made) and made
    assert len(fills) == 2, len(fills)


@given(st.lists(reflected_rules(), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_property_on_demand_reflection_equals_eager(texts):
    """A ref is reified at its first read, not at interning: what that
    read answers — the meta facts, the relations they populate and the
    other refs they name — is what reifying at interning gave, and the
    named refs are known before the first read."""
    registry = RuleRegistry()
    for text in ("p(X) <- q(X).", "r(1)."):     # $r1 and $r2
        registry.intern_text(text)
    for text in texts:
        held = len(registry)
        ref = registry.intern_text(text)
        if len(registry) > held:    # new: interning reified nothing
            assert registry._by_ref[ref].meta_facts is None
        nested = set(registry.nested(ref))
        facts = _reify(ref, registry.rule_of(ref))
        assert registry.meta_facts(ref) == facts
        got, relations, named = registry.reflection(ref)
        assert got is registry.meta_facts(ref)
        assert relations == frozenset(pred for pred, _fact in facts)
        assert set(named) == nested == {
            other for pred, fact in facts if pred == "value"
            for other in registry.refs_in_value(fact[1]) if other != ref}
