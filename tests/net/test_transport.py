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


class TestMessages:
    def test_fact_round_trip(self):
        registry = RuleRegistry()
        ref = registry.intern(parse_rule('good("carol").'))
        blob = encode_batch_message_dict(
            [("bob", "export", ("bob", "alice", ref, "sig"))], registry)
        [(to, pred, fact)] = decode_batch_message(blob, registry).items()
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
        [(_, _, fact)] = decode_batch_message(blob, receiver).items()
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
