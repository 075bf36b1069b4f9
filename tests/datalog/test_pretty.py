"""Pretty-printer round-trips and canonicalization."""

import dataclasses

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
from repro.datalog.terms import RuleRef, Star, StarLits, Variable
from repro.meta.quote import resolve_me_rule

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


#: every kind of constant the lexer reads: string escapes, negative and
#: hex numbers (hex is a byte string), floats, booleans, names and lists
CONSTANTS = st.one_of(
    st.sampled_from(['"a"', r'"q\"uote"', r'"back\\slash"', r'"new\nline"',
                     r'"tab\tstop"', "true", "false", "alice", "{1,\"b\"}"]),
    st.integers(-40, 40).map(str),
    st.tuples(st.integers(-9, 9), st.integers(0, 99)).map(
        lambda whole: f"{whole[0]}.{whole[1]:02d}"),
    st.binary(min_size=1, max_size=3).map(lambda raw: "0x" + raw.hex()))
TERMS = st.one_of(st.sampled_from(["X", "Y", "Z", "_"]), CONSTANTS)
#: plain, qualified and partitioned predicate names
PREDS = ("p", "q", "r", "msg:id", "export[me]", "cell[1,X]")
#: quoted patterns, some with starred arguments and starred literals
QUOTES = ("[| p(X). |]", "[| P(T*) <- A*. |]", "[| q(X,*) <- r(X), *. |]",
          "[| A <- says(U,me,R), A*. |]")


@st.composite
def simple_rules(draw):
    """Random small statements over a fixed vocabulary: every kind of
    constant, qualified names, ``export[me](…)``, labels, aggregates,
    starred quoted patterns, negation, comparisons and ``;``."""
    def atom():
        args = [draw(TERMS) for _ in range(draw(st.integers(1, 3)))]
        return f"{draw(st.sampled_from(PREDS))}({','.join(args)})"

    def literal():
        shape = draw(st.sampled_from(("atom", "atom", "negated", "compare",
                                      "quote")))
        if shape == "negated":
            return "!" + atom()
        if shape == "compare":
            return f"X {draw(st.sampled_from(['<', '>=', '!=']))} {draw(TERMS)}"
        if shape == "quote":
            return f"heard(U, {draw(st.sampled_from(QUOTES))})"
        return atom()

    label = draw(st.sampled_from(["", "r1: ", "exp3: "]))
    heads = ", ".join(atom() for _ in range(draw(st.integers(1, 2))))
    shape = draw(st.sampled_from(("fact", "rule", "rule", "agg", "or")))
    if shape == "fact":
        return f"{label}{heads}."
    body = ", ".join(literal() for _ in range(draw(st.integers(1, 3))))
    if shape == "agg":
        func = draw(st.sampled_from(["count", "total", "min", "max"]))
        return f"{label}{heads} <- agg<<N = {func}(X)>> {body}."
    if shape == "or":
        body += "; " + ", ".join(literal() for _ in range(
            draw(st.integers(1, 2))))
    return f"{label}{heads} <- {body}."


def alpha_equal(one, other, names=None) -> bool:
    """``one`` and ``other`` are one AST up to a renaming of variables,
    labels and star names (canonical text keeps neither)."""
    names = {} if names is None else names
    if isinstance(one, Variable) and isinstance(other, Variable):
        return names.setdefault(one.name, other.name) == other.name \
            and names.setdefault(("back", other.name), one.name) == one.name
    if type(one) is not type(other):
        return False
    if isinstance(one, (Star, StarLits)):
        return True
    if isinstance(one, tuple):
        return len(one) == len(other) and all(
            alpha_equal(a, b, names) for a, b in zip(one, other))
    if dataclasses.is_dataclass(one):
        return all(alpha_equal(getattr(one, f.name), getattr(other, f.name),
                               names)
                   for f in dataclasses.fields(one)
                   if f.compare and f.name != "label")
    return one == other


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
    rule = resolve_me_rule(parse_statements(source)[0], "alice")
    text = canonical_rule(rule)
    assert canonical_rule(parse_rule(text)) == text


@given(simple_rules())
@settings(max_examples=200, deadline=None)
def test_property_canonical_text_reads_back_as_the_statement(source):
    """Each statement of a source reads back from its printed text as
    itself (its label aside: no printer writes one), and from its
    canonical text as itself up to variable names; the canonical text
    of what reads back is that text again."""
    for statement in parse_statements(source):
        unlabeled = dataclasses.replace(statement, label=None)
        assert parse_statements(format_statement(statement)) == [unlabeled]
        rule = resolve_me_rule(statement, "alice")
        text = canonical_rule(rule)
        [again] = parse_statements(text)
        assert alpha_equal(again, rule), (text, again, rule)
        assert canonical_rule(again) == text
