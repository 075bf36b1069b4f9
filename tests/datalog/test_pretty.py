"""Pretty-printer round-trips and canonicalization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_rule, parse_statements
from repro.datalog.pretty import (
    canonical_constraint,
    canonical_rule,
    format_statement,
    format_value,
)
from repro.datalog.terms import RuleRef

ROUND_TRIP_SOURCES = [
    'good("carol").',
    'access(P,O,"read") <- good(P), object(O).',
    "p(X) <- q(X), !r(X).",
    "p(N) <- q(M), N = M - 1, N >= 0.",
    "export[U2](U,R,S) <- says(U,U2,R).",
    "predNode(export[P],N) <- loc(P,N).",
    'c(C,N) <- agg<<N = count(U)>> pringroup(U,"g"), s(U,C).',
    'p(U) <- says(U,me,[| creditOK(C). |]).',
    "owner(U,R) <- x(U), R = [| A <- P(T2*), A*. |].",
    "active([| active(R) <- says(U2,me,R), R = [| P(T*) <- A*. |]. |]) <- delegates(me,U2,P).",
    'says(me,U,[| d(me,U,P,(N - 1)). |]) <- d2(me,U,P,N), N > 0.',
    "t(F) <- data(F,D), strlen(D,N), N > 3.",
    'p(X) <- q(X), X != "z".',
    # arithmetic left of a comparison prints parenthesised
    "p(Y) <- q(X), X + 1 = Y, (X - 2) * 3 < Y, -X < 0.",
    "p(0.00001, 12345678901234567.5, -0.5) <- (q(X), r(X)).",
    # modulo prints glued: an unglued '%' starts a comment
    "p(Y) <- q(X), Y = X%2, (X + 1)%3 = 0.",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_parse_format_parse(self, source):
        first = parse_statements(source)
        printed = [format_statement(s) for s in first]
        second = parse_statements(" ".join(printed))
        reprinted = [format_statement(s) for s in second]
        assert printed == reprinted

    def test_constraint_round_trip(self):
        source = "access(P,O,M) -> principal(P), object(O), mode(M)."
        statement = parse_statements(source)[0]
        printed = format_statement(statement)
        again = parse_statements(printed)[0]
        assert format_statement(again) == printed


class TestFormatValue:
    def test_bool_before_int(self):
        assert format_value(True) == "true"
        assert format_value(1) == "1"

    def test_a_bare_non_finite_float_prints_unchanged(self):
        # signing covers a bare value's text; only a rule holding one is
        # refused (canonical_rule)
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"

    def test_string_escaping(self):
        assert format_value('a"b') == '"a\\"b"'

    def test_bytes(self):
        assert format_value(b"\xde\xad") == "0xdead"

    def test_floats_print_without_exponent(self):
        # the lexer reads digits.digits only
        assert format_value(1e-05) == "0.00001"
        assert format_value(1e16) == "10000000000000000.0"
        assert format_value(-2.5) == "-2.5"

    def test_rule_ref(self):
        assert format_value(RuleRef(7)) == "$r7"

    def test_tuple_as_list(self):
        assert format_value(("a", 1)) == '{"a",1}'

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            format_value(object())


class TestCanonical:
    def test_alpha_renaming_equates_variants(self):
        left = parse_rule("p(X,Y) <- q(X,Y), r(Y).")
        right = parse_rule("p(A,B) <- q(A,B), r(B).")
        assert canonical_rule(left) == canonical_rule(right)

    def test_different_structure_differs(self):
        left = parse_rule("p(X,Y) <- q(X,Y).")
        right = parse_rule("p(X,Y) <- q(Y,X).")
        assert canonical_rule(left) != canonical_rule(right)

    def test_constants_preserved(self):
        rule = parse_rule('p(X) <- q(X,"k").')
        assert '"k"' in canonical_rule(rule)

    def test_anonymous_variable_naming_is_stable(self):
        left = parse_rule("p(X) <- q(X,_).")
        right = parse_rule("p(X) <- q(X,_).")
        assert canonical_rule(left) == canonical_rule(right)

    def test_canonical_output_reparses(self):
        from repro.meta.quote import resolve_me_rule
        rule = resolve_me_rule(parse_rule(
            "active([| active(R) <- says(U2,me,R), R = [| P(T*) <- A*. |]. |])"
            " <- delegates(me,U2,P)."), "alice")
        text = canonical_rule(rule)
        assert canonical_rule(parse_rule(text)) == text

    @pytest.mark.parametrize("source", [
        "p(me).", "p(X) <- q(X), X != me.", "p(X) <- q([| r(me). |], X).",
        "p(X) <- q(X + me).", "p(X) <- q(X), f[me](X).",
    ])
    def test_a_rule_holding_me_has_no_canonical_text(self, source):
        # the local principal is resolved before a rule becomes data
        with pytest.raises(SafetyError, match="'me'"):
            canonical_rule(parse_rule(source))

    def test_quote_canonicalization(self):
        left = parse_rule('p(U) <- says(U,"srv",[| ok(C). |]).')
        right = parse_rule('p(V) <- says(V,"srv",[| ok(D). |]).')
        assert canonical_rule(left) == canonical_rule(right)

    def test_constraint_canonical_dedup_key(self):
        from repro.meta.quote import compile_constraint
        from repro.datalog.parser import parse_statements as ps
        source = "says(U,me,[| A <- P(T2*), A*. |]) -> mayRead(U,P)."
        one = compile_constraint(ps(source)[0], "alice", None)
        two = compile_constraint(ps(source)[0], "alice", None)
        # fresh quote-compilation variables differ, canonical form agrees
        assert canonical_constraint(one) == canonical_constraint(two)


@st.composite
def simple_rules(draw):
    """Random small rules over a fixed vocabulary."""
    preds = st.sampled_from(["p", "q", "r", "s"])
    variables = st.sampled_from(["X", "Y", "Z"])
    constants = st.sampled_from(['"a"', '"b"', "1", "2"])
    def atom():
        name = draw(preds)
        args = draw(st.lists(st.one_of(variables, constants),
                             min_size=1, max_size=3))
        return f"{name}({','.join(args)})"
    head = atom()
    body = [atom() for _ in range(draw(st.integers(1, 3)))]
    # keep it safe: reuse head vars in the first body atom
    return f"{head} <- {', '.join(body + [head])}."


@given(simple_rules())
@settings(max_examples=60, deadline=None)
def test_property_round_trip(source):
    statements = parse_statements(source)
    printed = [format_statement(s) for s in statements]
    second = parse_statements(" ".join(printed))
    assert [format_statement(s) for s in second] == printed


@given(simple_rules())
@settings(max_examples=60, deadline=None)
def test_property_canonical_idempotent(source):
    rule = parse_statements(source)[0]
    text = canonical_rule(rule)
    assert canonical_rule(parse_rule(text)) == text
