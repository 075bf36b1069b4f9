"""Hypothesis round-trip property for the wire codec.

``decode_value(encode_value(v))`` must reproduce ``v`` exactly — same
value, same type — for every tagged value type the codec supports,
including arbitrarily nested lists, partition terms, quoted patterns and
interned rules.  The pattern/rule cases additionally exercise the
pretty-printer → lexer → parser pipeline (canonical text is the wire
representation), which is where asymmetries hide: this property caught
``format_value`` emitting raw newlines/tabs inside string literals that
the lexer then refused to re-read (fixed in PR 3).

The generated-rule case, which holds up the registry's canonical-text
hit, caught floats printed with an exponent the lexer cannot read, a
parenthesised arithmetic left side of a comparison the parser took for
a group of literals, and modulo printed as ``(X % 2)``, which reads back
as the start of a comment.  The same rules hold the one-walk
``canonical_rule`` to the copy-then-print path it replaced
(:func:`copy_then_format`, kept here as an oracle).
"""

import json
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog.database import term_key
from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_rule
from repro.datalog.pretty import canonical_rule, format_rule
from repro.datalog.terms import (
    Aggregate,
    Atom,
    AtomPattern,
    BuiltinCall,
    Comparison,
    Constant,
    EqPattern,
    Expr,
    Literal,
    PartitionTerm,
    PatternValue,
    PredPartition,
    Quote,
    Rule,
    RulePattern,
    RuleRef,
    Star,
    StarLits,
    Variable,
)
from repro.meta.registry import RuleRegistry
from repro.net.transport import (
    decode_batch_message,
    decode_reply_frame,
    decode_request_frame,
    decode_value,
    encode_batch_message,
    encode_batch_message_dict,
    encode_entry,
    encode_facts,
    encode_reply_frame,
    encode_request_frame,
    encode_value,
    frame_kind,
)
from strategies import identifiers, names, rule_texts, the_statement, var_names

# -- strategies -------------------------------------------------------------

# Scalars the codec tags directly.  Floats: NaN can never satisfy an
# equality round-trip (NaN != NaN) and infinities are not valid strict
# JSON — both are rejected at encode time in real traffic, so the
# property quantifies over finite floats.
scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=24),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.builds(
            PredPartition,
            identifiers,
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
    ),
    max_leaves=12,
)

# Constants that can appear inside a quoted pattern must survive the
# pretty-print → re-parse pipeline, which is exactly what this property
# is probing.
pattern_constants = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.text(max_size=20),
    st.binary(min_size=1, max_size=8),
)

pattern_args = st.one_of(
    st.builds(Constant, pattern_constants),
    st.builds(Variable, var_names),
    st.just(Star(None)),
)

atom_patterns = st.builds(
    lambda functor, args: AtomPattern(functor, tuple(args)),
    identifiers,
    st.lists(pattern_args, min_size=1, max_size=3),
)

# has_arrow tracks body presence: `p(X).` is a fact pattern, an arrow
# with an empty body is unrepresentable in source syntax (parser invariant)
rule_patterns = st.builds(
    lambda heads, body: RulePattern(tuple(heads), tuple(body), bool(body)),
    st.lists(atom_patterns, min_size=1, max_size=2),
    st.lists(atom_patterns, max_size=2),
)

pattern_values = rule_patterns.map(PatternValue)


#: values a rule can hold that no canonical text reads back as
non_finite = st.sampled_from([float("inf"), float("-inf"), float("nan")])


def copy_then_format(rule):
    """The canonical printer before it became one walk: an alpha-renamed
    copy of ``rule`` (variables numbered aggregate first, then heads with
    arguments before keys, then body), printed by ``format_rule``."""
    mapping = {}

    def rename_var(var):
        if var.name not in mapping:
            mapping[var.name] = Variable(f"V{len(mapping)}")
        return mapping[var.name]

    def rename_term(term):
        if isinstance(term, Variable):
            return rename_var(term)
        if isinstance(term, Expr):
            return Expr(term.op, rename_term(term.left), rename_term(term.right))
        if isinstance(term, PartitionTerm):
            return PartitionTerm(term.pred, tuple(rename_term(k) for k in term.keys))
        if isinstance(term, Quote):
            return Quote(rename_pattern(term.pattern))
        if isinstance(term, Constant) and isinstance(term.value, PatternValue):
            return Constant(PatternValue(rename_pattern(term.value.pattern)))
        return term

    def rename_atom(atom):
        return Atom(atom.pred, tuple(rename_term(a) for a in atom.args),
                    tuple(rename_term(k) for k in atom.keys))

    def rename_pattern_atom(pat):
        functor = pat.functor
        if isinstance(functor, Variable):
            functor = rename_var(functor)
        args = None
        if pat.args is not None:
            args = tuple(Star(None) if isinstance(arg, Star) else rename_term(arg)
                         for arg in pat.args)
        return AtomPattern(functor, args, pat.negated)

    def rename_pattern(pattern):
        heads = tuple(rename_pattern_atom(h) for h in pattern.heads)
        body = []
        for lit in pattern.body:
            if isinstance(lit, AtomPattern):
                body.append(rename_pattern_atom(lit))
            elif isinstance(lit, StarLits):
                body.append(StarLits(None))
            elif isinstance(lit, EqPattern):
                body.append(EqPattern(rename_var(lit.var),
                                      Quote(rename_pattern(lit.quote.pattern))))
        return RulePattern(heads, tuple(body), pattern.has_arrow)

    def rename_item(item):
        if isinstance(item, Literal):
            return Literal(rename_atom(item.atom), item.negated)
        if isinstance(item, Comparison):
            return Comparison(item.op, rename_term(item.left), rename_term(item.right))
        return BuiltinCall(item.name, tuple(rename_term(a) for a in item.args))

    agg = None
    if rule.agg is not None:
        agg = Aggregate(rule.agg.func, rename_var(rule.agg.result),
                        rename_term(rule.agg.over))
    heads = tuple(rename_atom(h) for h in rule.heads)
    body = tuple(rename_item(i) for i in rule.body)
    return format_rule(Rule(heads, body, agg, None))


def with_pattern_values(rule):
    """``rule`` with every head quote a first-class pattern value, the
    form template instantiation produces."""
    def value(term):
        return Constant(PatternValue(term.pattern)) \
            if isinstance(term, Quote) else term

    heads = tuple(Atom(h.pred, tuple(map(value, h.args)), h.keys)
                  for h in rule.heads)
    return Rule(heads, rule.body, rule.agg)


def wire_roundtrip(value, registry):
    encoded = json.loads(json.dumps(encode_value(value, registry)))
    return decode_value(encoded, registry)


class TestValueRoundtrip:
    @given(value=values)
    @settings(max_examples=200, deadline=None)
    def test_tagged_values_roundtrip(self, value):
        registry = RuleRegistry()
        decoded = wire_roundtrip(value, registry)
        assert decoded == value
        assert type(decoded) is type(value)

    @given(pattern=pattern_values)
    @settings(max_examples=200, deadline=None)
    def test_quoted_patterns_roundtrip(self, pattern):
        registry = RuleRegistry()
        decoded = wire_roundtrip(pattern, registry)
        assert isinstance(decoded, PatternValue)
        # compare through the canonical renderer: Star(None) vs Star("")
        # and variable spellings must already be identical here
        from repro.datalog.pretty import format_pattern

        assert format_pattern(decoded.pattern) == \
            format_pattern(pattern.pattern)

    @given(constant=pattern_constants)
    @settings(max_examples=150, deadline=None)
    def test_interned_rules_roundtrip(self, constant):
        from repro.datalog.terms import Atom

        registry = RuleRegistry()
        rule = Rule((Atom("marker", (Constant(constant),)),))
        ref = registry.intern(rule)
        decoded = wire_roundtrip(ref, registry)
        assert decoded == ref
        assert registry.canonical_text(decoded) == \
            registry.canonical_text(ref)

    @given(text=rule_texts())
    @settings(max_examples=300, deadline=None)
    def test_cross_registry_rule_transfer(self, text):
        """The equivalence a registry hit relies on: a canonical text
        parses back to a rule with that same canonical text, so the
        sender's registry (a dict hit) and a fresh one (a parse) decode a
        rule value to the same rule."""
        rule = the_statement(text)
        canonical = canonical_rule(rule)
        assert canonical_rule(parse_rule(canonical)) == canonical
        sender, receiver = RuleRegistry(), RuleRegistry()
        ref = sender.intern(rule)
        encoded = json.loads(json.dumps(encode_value(ref, sender)))
        assert decode_value(encoded, sender) == ref
        received = decode_value(encoded, receiver)
        assert receiver.canonical_text(received) == canonical

    @given(text=rule_texts())
    @settings(max_examples=300, deadline=None)
    def test_one_walk_canonical_text_matches_the_renamed_copy(self, text):
        rule = the_statement(text)
        assert canonical_rule(rule) == copy_then_format(rule)
        valued = with_pattern_values(rule)
        assert canonical_rule(valued) == copy_then_format(valued)

    @given(text=rule_texts(),
           value=st.one_of(non_finite, non_finite.map(lambda v: (1, v))))
    @settings(max_examples=100, deadline=None)
    def test_a_non_finite_float_has_no_canonical_text(self, text, value):
        """``inf`` and ``nan`` print as names that read back as strings,
        so a rule holding one is refused rather than signed and content
        addressed under text meaning something else."""
        rule = the_statement(text)
        head = rule.heads[0]
        held = Rule((Atom(head.pred, head.args + (Constant(value),),
                          head.keys),) + rule.heads[1:], rule.body, rule.agg)
        with pytest.raises(SafetyError, match="float"):
            canonical_rule(held)
        registry = RuleRegistry()
        with pytest.raises(SafetyError, match="float"):
            registry.intern(held)
        assert len(registry) == 0


def decoded(blob, registry):
    """``(round stamp, [(to, pred, fact), ...])`` of one batch message."""
    batch = decode_batch_message(blob, registry)
    materialize = registry.terms.materialize_row
    return batch.stamp, [(to, pred, materialize(row)) for to, pred, rows
                         in batch.rows(registry.terms) for row in rows]


class TestBatchRoundtrip:
    @given(
        facts=st.lists(
            st.tuples(identifiers, st.lists(values, max_size=3).map(tuple)),
            min_size=1, max_size=8),
        round_stamp=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_packed_batches_roundtrip(self, facts, round_stamp):
        """Packed envelopes round-trip every value type at every arity
        (zero included) — same value, same type: ``repr`` tells ``1``
        from ``1.0`` from ``True``, and ``-0.0`` from ``0.0``."""
        registry = RuleRegistry()
        triples = [("x", pred, fact) for pred, fact in facts]
        blob = encode_batch_message_dict(triples, registry, round_stamp)
        assert repr(decoded(blob, registry)) == repr((round_stamp, triples))

    @given(
        facts=st.lists(
            st.tuples(identifiers, st.lists(values, min_size=1,
                                            max_size=3).map(tuple)),
            min_size=1, max_size=8),
        round_stamp=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_batcher_splicing_matches_canonical_encoder(self, facts,
                                                        round_stamp):
        """The batcher's incremental emitter (spliced header, packed
        body) must produce the same bytes as the canonical one-shot
        encoder, for any items in any order (dictionary slots and block
        boundaries depend on insertion order)."""
        from repro.net.batch import MessageBatcher

        registry = RuleRegistry()

        class _Sink:
            blob = None

            def send(self, src, dst, blob):
                self.blob = blob

        sink = _Sink()
        batcher = MessageBatcher(sink, registry)
        terms = registry.terms
        rows = [terms.intern_row(fact) for _pred, fact in facts]
        for (pred, _fact), row in zip(facts, rows):
            batcher.add("a", "b", pred, [row], to="x")
        batcher.flush(round_stamp)
        # 1, 1.0 and True share an id: the wire carries the
        # first-interned representative
        expected = encode_batch_message_dict(
            [("x", pred, terms.materialize_row(row))
             for (pred, _fact), row in zip(facts, rows)],
            registry, round_stamp)
        assert sink.blob == expected


# Every value kind a workspace holds: the codec's scalars, bytes, nested
# tuples and partition terms, quoted patterns, and rules (interned into
# the sending side's registry when drawn, see TestServedRoundtrip).
marker_rules = pattern_constants.map(
    lambda constant: Rule((Atom("marker", (Constant(constant),)),)))
engine_values = st.one_of(
    st.sampled_from([1, 1.0, True, "1", -0.0, 0.0, 0, False, b"1"]),
    values, pattern_values, marker_rules)


def entry_text(encoded):
    """The compact JSON text :func:`encode_entry` writes."""
    return json.dumps(encoded, separators=(",", ":"))


def spelling(value, registry):
    """``value`` as its type and its text, all the way down: ``repr``
    for scalars (``1`` / ``1.0`` / ``True`` / ``'1'`` apart), canonical
    text for rules and patterns (each side has its own registry)."""
    if isinstance(value, RuleRef):
        return "rule", registry.canonical_text(value)
    if isinstance(value, PatternValue):
        from repro.datalog.pretty import format_pattern

        return "pattern", format_pattern(value.pattern)
    if isinstance(value, PredPartition):
        return "part", value.pred, spelling(value.keys, registry)
    if isinstance(value, tuple):
        return "tuple", tuple(spelling(item, registry) for item in value)
    return type(value).__name__, repr(value)


@pytest.fixture(scope="module")
def served():
    """One server (the system's registry) and one client (its own)."""
    from repro.core.system import LBTrustSystem
    from repro.net.network import SimulatedNetwork
    from repro.serve import ServeClient, ServeRouter, TrustServer

    system = LBTrustSystem(auth="plaintext", seed=1)
    system.create_principal("srv")
    network = SimulatedNetwork()
    server = TrustServer(system, network)
    client = ServeClient(network, "c1", router=ServeRouter(network, server))
    client.connect()
    return system, client


class TestServedRoundtrip:
    @given(drawn=st.tuples(engine_values, engine_values))
    @example(drawn=(1, 1.0))
    @example(drawn=(True, "1"))
    @example(drawn=(b"1", (1, (1.0, True), "1")))
    @settings(max_examples=150, deadline=None)
    def test_a_served_assert_reads_back_as_it_was(self, served, drawn):
        """A value asserted through the serve plane and read back by a
        query is the value sent — same type, same spelling — and every
        value on either frame is what a batch dictionary holds for it."""
        system, client = served
        fact = tuple(client.registry.intern(value) if isinstance(value, Rule)
                     else value for value in drawn)
        sent = [encode_entry(value, client.registry) for value in fact]
        (request_row,) = encode_facts([fact], client.registry)
        assert list(map(entry_text, request_row)) == sent
        client.assert_fact("held", fact)
        try:
            reply = client.call("query", {"principal": "srv",
                                          "query": "held(X,Y)"})
            (row,) = reply["answers"]
            (held,) = system.principal("srv").tuples("held")
            assert list(map(entry_text, row)) == sent == \
                [encode_entry(value, system.registry) for value in held]
            (answer,) = client.query("held(X,Y)", principal="srv")
            assert spelling(answer, client.registry) == \
                spelling(fact, client.registry)
        finally:
            client.retract_fact("held", fact)

    @given(drawn=st.lists(engine_values, min_size=1, max_size=8))
    @example(drawn=[1, 1.0, True, "1", 0, 0.0, -0.0, False, b"1", "x"])
    @settings(max_examples=60, deadline=None)
    def test_several_served_rows_read_back_apart(self, served, drawn):
        """Rows that differ only in the type of equal values are each an
        answer: a relation holding ``1``, ``1.0``, ``True`` and ``"1"``
        answers all four, each as sent, rows in the order of their
        texts."""
        system, client = served
        facts = {}
        for value in drawn:
            if isinstance(value, Rule):
                value = client.registry.intern(value)
            facts.setdefault(term_key(value), (value,))
        for fact in facts.values():
            client.assert_fact("many", fact)
        try:
            reply = client.call("query", {"principal": "srv",
                                          "query": "many(X)"})
            sent = sorted(f"[{encode_entry(value, client.registry)}]"
                          for (value,) in facts.values())
            assert list(map(entry_text, reply["answers"])) == sent
            answers = client.query("many(X)", principal="srv")
            assert len(answers) == len(facts)
            assert sorted(spelling(answer, client.registry)
                          for answer in answers) == \
                sorted(spelling(fact, client.registry)
                       for fact in facts.values())
        finally:
            for fact in facts.values():
                client.retract_fact("many", fact)


# JSON-safe request/reply bodies: the serve layer runs fact values through
# encode_facts before they reach the frame codec, so the frame property
# quantifies over arbitrary JSON objects, not tagged values.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
)
json_bodies = st.dictionaries(
    st.text(max_size=12),
    st.recursive(
        json_scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=8), children, max_size=3),
        ),
        max_leaves=10,
    ),
    max_size=4,
)

request_ids = st.integers(min_value=0, max_value=2 ** 62)


class TestServeFrameRoundtrip:
    @given(request_id=request_ids,
           op=names(string.ascii_lowercase, 15, string.ascii_lowercase + "_"),
           body=json_bodies)
    @settings(max_examples=150, deadline=None)
    def test_request_frames_roundtrip(self, request_id, op, body):
        blob = encode_request_frame(request_id, op, body)
        assert frame_kind(blob) == "request"
        decoded_id, decoded_op, decoded_body = decode_request_frame(blob)
        assert decoded_id == request_id
        assert decoded_op == op
        assert decoded_body == body

    @given(request_id=request_ids, ok=st.booleans(), body=json_bodies,
           error=st.text(max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_reply_frames_roundtrip(self, request_id, ok, body, error):
        blob = encode_reply_frame(request_id, ok, body, error)
        assert frame_kind(blob) == "reply"
        decoded = decode_reply_frame(blob)
        assert decoded == (request_id, ok, body, error)

    @given(request_id=request_ids, op=st.just("query"), body=json_bodies)
    @settings(max_examples=50, deadline=None)
    def test_serve_frames_rejected_as_batch_traffic(self, request_id, op,
                                                    body):
        from repro.datalog.errors import NetworkError
        import pytest

        registry = RuleRegistry()
        for blob in (encode_request_frame(request_id, op, body),
                     encode_reply_frame(request_id, True, body)):
            with pytest.raises(NetworkError):
                decode_batch_message(blob, registry)

    @given(request_id=request_ids, ok=st.booleans(), body=json_bodies)
    @settings(max_examples=50, deadline=None)
    def test_frame_families_never_cross_decode(self, request_id, ok, body):
        from repro.datalog.errors import NetworkError
        import pytest

        reply = encode_reply_frame(request_id, ok, body)
        request = encode_request_frame(request_id, "ping", body)
        with pytest.raises(NetworkError):
            decode_request_frame(reply)
        with pytest.raises(NetworkError):
            decode_reply_frame(request)

    def test_batch_frames_classified(self):
        from repro.datalog.errors import NetworkError
        import pytest

        registry = RuleRegistry()
        blob = encode_batch_message_dict([("x", "p", (1,))], registry, 3)
        assert frame_kind(blob) == "batch"
        # the all-JSON envelopes no decoder reads are no frame class either
        item = {"to": "x", "pred": "p", "fact": [encode_value(1, registry)]}
        rows = {"round": 3, "names": ["x", "p"],
                "dict": [encode_value(1, registry)], "rows": [[0, 1, 0]]}
        for legacy in (json.dumps(item).encode("utf-8"),
                       json.dumps(rows).encode("utf-8"),
                       encode_batch_message([item], 3)):
            with pytest.raises(NetworkError):
                frame_kind(legacy)
