"""Wire codec: tagged values, rules-as-text, cross-registry transfer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.errors import NetworkError
from repro.datalog.parser import parse_rule, parse_term
from repro.datalog.terms import PatternValue, PredPartition, Quote
from repro.meta.registry import RuleRegistry
from repro.net.transport import (
    decode_batch_message,
    decode_value,
    encode_batch_message_dict,
    encode_value,
)

#: Payloads that are not an encoded value, each failing a different check.
MALFORMED_VALUES = [
    5,                                        # not a tagged object
    {"t": "int"},                             # no payload
    {"t": ["int"]},                           # a tag that is not a string
    {"t": "rule", "v": 123},
    {"t": "rule", "v": ["p(1)."]},
    {"t": "rule", "v": "p(X) -> q(X)."},      # a constraint, not a rule
    {"t": "rule", "v": "p(1). q(2)."},        # two rules
    {"t": "rule", "v": "p(me)."},             # me with no speaker
    {"t": "rule", "v": "p(1"},                # the parser refuses it
    {"t": "pattern", "v": 7},
    {"t": "pattern", "v": "p(1)"},            # parses, but not a quote
    {"t": "list", "v": 5},
    {"t": "list", "v": [{"t": "int", "v": "1"}]},
    {"t": "part", "p": "x", "k": 5},
    {"t": "part", "p": 5, "k": []},
    {"t": "bytes", "v": "zz"},                # bad hex
    {"t": "nope", "v": 1},
]


class TestValues:
    def setup_method(self):
        self.registry = RuleRegistry()

    def round_trip(self, value):
        return decode_value(encode_value(value, self.registry), self.registry)

    @pytest.mark.parametrize("value", [
        "hello", 42, -1, 3.5, True, False, b"\x00\xff", (), ("a", 1, ("b",)),
    ])
    def test_plain_values(self, value):
        assert self.round_trip(value) == value

    def test_bool_not_collapsed_to_int(self):
        assert self.round_trip(True) is True
        assert self.round_trip(1) == 1 and self.round_trip(1) is not True

    def test_a_tagged_float_decodes_as_a_float(self):
        # JSON may spell an integral float without its point
        value = decode_value({"t": "float", "v": 1}, self.registry)
        assert value == 1.0 and type(value) is float
        with pytest.raises(NetworkError):
            decode_value({"t": "float", "v": True}, self.registry)

    def test_a_tagged_float_in_a_list_decodes_as_a_float(self):
        (value,) = decode_value(
            {"t": "list", "v": [{"t": "float", "v": 2}]}, self.registry)
        assert value == 2.0 and type(value) is float

    def test_rule_ref(self):
        ref = self.registry.intern(parse_rule("p(X) <- q(X)."))
        assert self.round_trip(ref) == ref

    def test_pattern_value(self):
        quote = parse_term("[| ok(C). |]")
        assert isinstance(quote, Quote)
        value = PatternValue(quote.pattern)
        assert self.round_trip(value) == value

    def test_pred_partition(self):
        assert self.round_trip(PredPartition("export", ("alice",))) == \
            PredPartition("export", ("alice",))

    def test_unserializable_rejected(self):
        with pytest.raises(NetworkError):
            encode_value(object(), self.registry)

    @pytest.mark.parametrize("encoded", MALFORMED_VALUES)
    def test_malformed_value_fails_closed(self, encoded):
        """Every shape is a NetworkError from decode_value itself — no
        caller's catch-all needed (a bare 5 was an AttributeError, a
        missing "v" a KeyError, a constraint as a rule an AttributeError
        from the registry, bad hex a ValueError)."""
        with pytest.raises(NetworkError):
            decode_value(encoded, self.registry)


class TestMessages:
    def test_fact_round_trip(self):
        registry = RuleRegistry()
        ref = registry.intern(parse_rule('good("carol").'))
        blob = encode_batch_message_dict(
            [("bob", "export", ("bob", "alice", ref, "sig"))], registry)
        [(to, pred, rows)] = decode_batch_message(blob, registry).rows(
            registry.terms)
        [fact] = map(registry.terms.materialize_row, rows)
        assert to == "bob" and pred == "export"
        assert fact == ("bob", "alice", ref, "sig")

    def test_cross_registry_transfer(self):
        """Decoding into a different registry re-interns by canonical text."""
        sender = RuleRegistry()
        receiver = RuleRegistry()
        # skew the receiver's id counter so refs cannot accidentally align
        receiver.intern(parse_rule("unrelated(1)."))
        ref = sender.intern(parse_rule("p(X) <- q(X, 42)."))
        blob = encode_batch_message_dict([("b", "says", ("a", "b", ref))],
                                         sender)
        [(_, _, rows)] = decode_batch_message(blob, receiver).rows(
            receiver.terms)
        [fact] = map(receiver.terms.materialize_row, rows)
        received_ref = fact[2]
        assert receiver.canonical_text(received_ref) == sender.canonical_text(ref)

    def test_garbage_rejected(self):
        with pytest.raises(NetworkError):
            decode_batch_message(b"not json at all \xff", RuleRegistry())
        with pytest.raises(NetworkError):
            decode_batch_message(b'{"no": "pred"}', RuleRegistry())

    def test_byte_count_is_payload_length(self):
        registry = RuleRegistry()
        blob = encode_batch_message_dict([("y", "p", ("x",))], registry)
        assert isinstance(blob, bytes) and len(blob) > 10


@pytest.fixture
def lexer_runs(monkeypatch):
    """The texts the parser tokenizes from here on — every parse entry
    point (``parse_statements``, ``parse_rule``, ``parse_term``) starts
    with one ``tokenize``, however the caller imported it."""
    import repro.datalog.parser as parser

    texts = []
    real = parser.tokenize

    def counting(source):
        texts.append(source)
        return real(source)

    monkeypatch.setattr(parser, "tokenize", counting)
    return texts


def says_envelope(registry, count):
    refs = [registry.intern(parse_rule(f'ping("t{i}").'))
            for i in range(count)]
    blob = encode_batch_message_dict(
        [("bob", "export", ("alice", "bob", ref)) for ref in refs], registry)
    return refs, blob


def received_refs(blob, registry):
    values = registry.terms.values
    return [values[row[2]] for _, _, rows
            in decode_batch_message(blob, registry).rows(registry.terms)
            for row in rows]


class TestKnownRulesAreNotParsed:
    """The canonical text is the content address: a rule value the
    receiving registry already holds is a dict hit, not a parse."""

    def test_known_rules_decode_with_no_parse(self, lexer_runs):
        registry = RuleRegistry()
        refs, blob = says_envelope(registry, 20)
        lexer_runs.clear()
        assert received_refs(blob, registry) == refs
        assert lexer_runs == []

    def test_fresh_registry_parses_each_text_once(self, lexer_runs):
        sender, receiver = RuleRegistry(), RuleRegistry()
        refs, blob = says_envelope(sender, 20)
        lexer_runs.clear()
        first = received_refs(blob, receiver)
        assert sorted(lexer_runs) == sorted(
            sender.canonical_text(ref) for ref in refs)
        lexer_runs.clear()
        assert received_refs(blob, receiver) == first
        assert lexer_runs == []

    def test_other_spelling_of_a_known_rule_parses_to_its_ref(self,
                                                              lexer_runs):
        registry = RuleRegistry()
        ref = registry.intern(parse_rule("p(X) <- q(X, 1)."))
        assert registry.canonical_text(ref) == "p(V0) <- q(V0,1)."
        lexer_runs.clear()
        spelled = {"t": "rule", "v": "p( Y )  <-  q(Y , 1) ."}
        assert decode_value(spelled, registry) == ref
        assert len(lexer_runs) == 1

    def test_says_of_a_known_canonical_text_is_the_parsed_ref(self,
                                                              lexer_runs):
        from repro.core.system import LBTrustSystem

        system = LBTrustSystem(auth="plaintext")
        alice = system.create_principal("alice")
        ref = alice.says("bob", "p(X) <- q(X, me).")
        text = system.registry.canonical_text(ref)
        assert text == 'p(V0) <- q(V0,"alice").'
        lexer_runs.clear()
        assert alice.says("bob", text) == ref
        assert lexer_runs == []

    def test_says_keeps_its_errors(self):
        from repro.core.system import LBTrustSystem
        from repro.datalog.errors import ParseError, WorkspaceError

        alice = LBTrustSystem(auth="plaintext").create_principal("alice")
        for text in ("p(X) -> q(X).", "p(1). q(2)."):
            with pytest.raises(WorkspaceError):
                alice.says("bob", text)
        with pytest.raises(ParseError):
            alice.says("bob", "p(1")


@given(st.recursive(
    st.one_of(st.text(max_size=10), st.integers(-1000, 1000),
              st.booleans(), st.binary(max_size=8)),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=8,
))
@settings(max_examples=100, deadline=None)
def test_property_value_round_trip(value):
    registry = RuleRegistry()
    assert decode_value(encode_value(value, registry), registry) == value
