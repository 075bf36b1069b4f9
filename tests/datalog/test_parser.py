"""Parser coverage: every construct the paper's listings use."""

import pytest

from repro.datalog.errors import ParseError
from repro.datalog.parser import (
    parse_atom,
    parse_rule,
    parse_statements,
    parse_term,
)
from repro.datalog.terms import (
    ME,
    Aggregate,
    Atom,
    AtomPattern,
    BuiltinCall,
    Comparison,
    Constant,
    Constraint,
    EqPattern,
    Expr,
    Literal,
    PartitionTerm,
    Quote,
    Rule,
    Star,
    StarLits,
    Variable,
)


class TestFactsAndRules:
    def test_fact(self):
        rule = parse_rule('good("carol").')
        assert rule.is_fact()
        assert rule.head == Atom("good", (Constant("carol"),))

    def test_simple_rule(self):
        rule = parse_rule("access(P,O) <- good(P), object(O).")
        assert rule.head.pred == "access"
        assert [item.atom.pred for item in rule.body] == ["good", "object"]

    def test_lowercase_ident_is_string_constant(self):
        rule = parse_rule("access(P,O,read) <- good(P), object(O).")
        assert rule.head.args[2] == Constant("read")

    def test_multi_head_fact(self):
        statements = parse_statements('mode("read"), mode("write").')
        assert len(statements) == 1
        assert len(statements[0].heads) == 2

    def test_label(self):
        rule = parse_rule("b1: access(P) <- good(P).")
        assert rule.label == "b1"

    def test_qualified_predicate_name(self):
        rule = parse_rule("message:id(M,N) <- message(M), int(N).")
        assert rule.head.pred == "message:id"

    def test_label_before_qualified_name(self):
        statements = parse_statements("m2: message:id(M,N) <- message(M).")
        assert statements[0].label == "m2"
        assert statements[0].head.pred == "message:id"

    def test_negation(self):
        rule = parse_rule("p(X) <- q(X), !r(X).")
        assert rule.body[1].negated

    def test_anonymous_variables_are_fresh(self):
        rule = parse_rule("p(X) <- q(X,_,_).")
        anon = [a for a in rule.body[0].atom.args[1:]]
        assert anon[0] != anon[1]

    def test_me_keyword(self):
        rule = parse_rule("says(me,U,R) <- q(U,R).")
        assert rule.head.args[0] == Constant(ME)

    def test_comparisons(self):
        rule = parse_rule("p(N) <- q(N), N >= 3, N != 7.")
        comparisons = [item for item in rule.body if isinstance(item, Comparison)]
        assert [c.op for c in comparisons] == [">=", "!="]

    def test_arithmetic_expression(self):
        rule = parse_rule("p(N) <- q(M), N = M - 1.")
        comparison = rule.body[1]
        assert isinstance(comparison.right, Expr)
        assert comparison.right.op == "-"

    def test_glued_percent_is_modulo(self):
        rule = parse_rule("p(Y) <- q(X), Y = X%2 + 1.")
        assert rule.body[1].right == Expr(
            "+", Expr("%", Variable("X"), Constant(2)), Constant(1))

    def test_unglued_percent_starts_a_comment(self):
        # the text reads as "p(Y) <- q(X), Y = X", with no closing '.'
        with pytest.raises(ParseError, match="expected '.'"):
            parse_rule("p(Y) <- q(X), Y = X % 2.")

    def test_precedence(self):
        term = parse_term("1 + 2 * 3")
        assert term.op == "+"
        assert term.right.op == "*"

    def test_unary_minus_folds(self):
        assert parse_term("-5") == Constant(-5)

    def test_partitioned_atom(self):
        rule = parse_rule("export[U2](U,R,S) <- says(U,U2,R), sig(R,S).")
        assert rule.head.keys == (Variable("U2"),)
        assert rule.head.arity == 4

    def test_partition_term_as_argument(self):
        rule = parse_rule("predNode(export[P],N) <- loc(P,N).")
        assert isinstance(rule.head.args[0], PartitionTerm)

    def test_statement_without_terminator_fails(self):
        with pytest.raises(ParseError):
            parse_statements("p(X) <- q(X)")

    def test_negated_head_fails(self):
        with pytest.raises(ParseError):
            parse_statements("!p(X) <- q(X).")


class TestDisjunctionDNF:
    def test_disjunctive_body_splits(self):
        statements = parse_statements("p(X) <- q(X); r(X).")
        assert len(statements) == 2
        assert {s.body[0].atom.pred for s in statements} == {"q", "r"}

    def test_nested_negation_demorgan(self):
        statements = parse_statements("p(X) <- s(X), !(q(X), r(X)).")
        assert len(statements) == 2
        negated = {s.body[1].atom.pred for s in statements}
        assert negated == {"q", "r"}
        assert all(s.body[1].negated for s in statements)

    def test_negated_comparison_flips(self):
        rule = parse_rule("p(X) <- q(X), !(X < 3).")
        assert rule.body[1].op == ">="

    def test_conjunction_of_disjunctions(self):
        statements = parse_statements("p(X) <- (a(X); b(X)), (c(X); d(X)).")
        assert len(statements) == 4


class TestConstraints:
    def test_type_declaration(self):
        constraint = parse_statements(
            "access(P,O,M) -> principal(P), object(O), mode(M).")[0]
        assert isinstance(constraint, Constraint)
        assert len(constraint.lhs) == 1 and len(constraint.rhs) == 1

    def test_bare_declaration(self):
        constraint = parse_statements("rule(R) -> .")[0]
        assert constraint.is_declaration()

    def test_negated_rhs(self):
        constraint = parse_statements(
            "inferredDelDepth(_,me,P,0) -> !delegates(me,_,P).")[0]
        item = constraint.rhs[0][0]
        assert item.negated

    def test_disjunctive_rhs(self):
        constraint = parse_statements("p(X) -> q(X) ; r(X).")[0]
        assert len(constraint.rhs) == 2

    def test_labelled_constraint(self):
        constraint = parse_statements("exp3: says(U) -> export(U).")[0]
        assert constraint.label == "exp3"


class TestAggregates:
    def test_count(self):
        rule = parse_rule(
            'c(C,N) <- agg<<N = count(U)>> pringroup(U,"g"), says(U,C).')
        assert isinstance(rule.agg, Aggregate)
        assert rule.agg.func == "count"
        assert rule.agg.result == Variable("N")

    def test_total(self):
        rule = parse_rule("t(C,W) <- agg<<W = total(Wt)>> w(C,Wt).")
        assert rule.agg.func == "total"

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ParseError):
            parse_statements("t(C,W) <- agg<<W = median(Wt)>> w(C,Wt).")


class TestQuotes:
    def test_fact_pattern(self):
        rule = parse_rule("p(U) <- says(U,me,[| creditOK(C). |]).")
        quote = rule.body[0].atom.args[2]
        assert isinstance(quote, Quote)
        assert not quote.pattern.has_arrow
        head = quote.pattern.heads[0]
        assert head.functor == "creditOK"
        assert head.args == (Variable("C"),)

    def test_fact_pattern_without_period(self):
        # the paper writes [|access(P,O,read)|] without a final period
        rule = parse_rule("p(U) <- says(U,me,[|access(P,O,read)|]).")
        quote = rule.body[0].atom.args[2]
        assert quote.pattern.heads[0].functor == "access"

    def test_rule_pattern_with_stars(self):
        rule = parse_rule("owner(U,R) <- x(U), R = [| A <- P(T2*), A*. |].")
        eq = rule.body[1]
        assert isinstance(eq.right, Quote)
        pattern = eq.right.pattern
        assert pattern.has_arrow
        head = pattern.heads[0]
        assert head.is_bare_metavar()
        body_atom = pattern.body[0]
        assert isinstance(body_atom.functor, Variable)
        assert isinstance(body_atom.args[0], Star)
        assert isinstance(pattern.body[1], StarLits)

    def test_nested_quote(self):
        rule = parse_rule(
            "del1: active([| active(R) <- says(U2,me,R), "
            "R = [| P(T*) <- A*. |]. |]) <- delegates(me,U2,P).")
        outer = rule.head.args[0]
        assert isinstance(outer, Quote)
        inner = outer.pattern.body[1]
        assert isinstance(inner, EqPattern)
        assert isinstance(inner.quote.pattern.heads[0].functor, Variable)

    def test_template_with_arithmetic(self):
        rule = parse_rule(
            "dd3: says(me,U,[| d(me,U,P,N-1). |]) <- d2(me,U,P,N), N > 0.")
        template = rule.head.args[2]
        arg = template.pattern.heads[0].args[3]
        assert isinstance(arg, Expr)

    def test_negated_pattern_atom(self):
        rule = parse_rule("p(R) <- R = [| H(X) <- !q(X). |].")
        pattern = rule.body[0].right.pattern
        assert pattern.body[0].negated


class TestEntryPoints:
    def test_parse_atom(self):
        atom = parse_atom("access(P,O,read)")
        assert atom.pred == "access" and atom.arity == 3

    def test_parse_atom_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_atom("access(P) extra")

    def test_parse_rule_rejects_constraint(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) -> q(X).")

    def test_parse_term_quote(self):
        term = parse_term("[| p(X). |]")
        assert isinstance(term, Quote)
