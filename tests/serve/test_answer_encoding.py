"""The served answer is encoded from id rows: its contract.

A ``query`` reply is written straight from the rows
:meth:`Workspace.point_rows` probes, one cached text per term
(``registry.term_texts``), rows in the order of their texts.  Drawn over
small relations whose values collide as Python values (``1``, ``1.0``,
``True``, ``"1"``) and over binding patterns with repeated variables, the
reply must be

* the rows an independent filter of the asserted facts picks, each
  typed as asserted, and as a set what ``point_query`` reads;
* byte for byte the compact ``json.dumps`` of the whole reply, the rows
  in the order of their compact texts;
* the same bytes from a system that interned the same values in the
  opposite order;

and a query naming constants the system never saw interns nothing.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.system import LBTrustSystem
from repro.datalog.database import term_key
from repro.net.network import SimulatedNetwork
from repro.net.transport import decode_reply_frame, encode_request_frame
from repro.net.transport import decode_facts
from repro.serve import TrustServer

#: Values that are equal, or print alike, as Python values and are
#: distinct facts; the last two are never asserted.
POOL = [1, 1.0, True, "1", 0, 0.0, False, "a", 2.5, 7]
UNKNOWN = ["zz", 99, 3.25]


def compact(value):
    return json.dumps(value, separators=(",", ":"))


def query_constant(value):
    if type(value) is bool:
        return "true" if value else "false"
    return compact(value) if type(value) is str else repr(value)


arities = st.integers(min_value=1, max_value=3)


@st.composite
def cases(draw):
    arity = draw(arities)
    facts = draw(st.lists(st.tuples(*[st.sampled_from(POOL)] * arity),
                          max_size=12))
    pattern = draw(st.lists(
        st.one_of(st.sampled_from(POOL + UNKNOWN).map(lambda v: ("c", v)),
                  st.sampled_from(["X", "Y", "_X", "_"]).map(
                      lambda name: ("v", name))),
        min_size=arity, max_size=arity))
    return facts, pattern


def query_text(pattern):
    return "t(" + ",".join(query_constant(term) if kind == "c" else term
                           for kind, term in pattern) + ")"


def expected_rows(facts, pattern):
    """The facts the pattern picks, by the interner's identity (typed),
    in the order of their compact texts: an oracle that shares no code
    with the read core."""
    distinct = {tuple(map(term_key, fact)): fact for fact in facts}
    picked = []
    for keys, fact in distinct.items():
        bound: dict = {}
        if all(keys[i] == term_key(term) if kind == "c"
               else term == "_" or bound.setdefault(term, keys[i]) == keys[i]
               for i, (kind, term) in enumerate(pattern)):
            picked.append(list(fact))
    return sorted(picked, key=compact)


def typed(rows):
    return [[(type(value), repr(value)) for value in row] for row in rows]


def served_system(facts, intern_order):
    system = LBTrustSystem(auth="plaintext")
    srv = system.create_principal("srv")
    for value in intern_order:
        system.registry.terms.intern(value)
    if facts:
        srv.workspace.assert_facts("t", facts)
    network = SimulatedNetwork()
    network.add_node("c1")
    return system, TrustServer(system, network)


def reply_blob(server, text):
    server.handle("c1", encode_request_frame(
        1, "query", {"principal": "srv", "query": text}))
    _src, _dst, blob = server.network.deliver_next()
    return blob


class TestServedAnswerContract:
    @given(case=cases())
    @example(case=([(1,), (1.0,), (True,), ("1",), (0,), (0.0,), (False,),
                    ("a",), (2.5,), (7,)], [("v", "X")]))
    @example(case=([(1, True), (True, True), (1, 1), (1.0, 1.0)],
                   [("v", "X"), ("v", "X")]))
    @example(case=([(1, 2.5, 1), (1, 2.5, True)],
                   [("c", 1), ("v", "_X"), ("v", "_X")]))
    @settings(max_examples=150, deadline=None)
    def test_the_reply_is_the_typed_rows_in_text_order(self, case):
        facts, pattern = case
        text = query_text(pattern)
        system, server = served_system(facts, POOL)
        want = expected_rows(facts, pattern)
        terms_before = len(system.registry.terms)
        blob = reply_blob(server, text)
        assert len(system.registry.terms) == terms_before
        assert blob == compact({"kind": "reply", "id": 1, "ok": True,
                                "body": {"answers": want},
                                "error": ""}).encode("utf-8")
        _id, ok, body, _error = decode_reply_frame(blob)
        answers = decode_facts(body["answers"], system.registry)
        assert ok and typed(answers) == typed(want)
        workspace = system.principal("srv").workspace
        assert set(answers) == workspace.point_query(text)
        assert len(answers) == len(workspace.point_rows(text))
        _other, mirrored = served_system(facts, POOL[::-1])
        assert reply_blob(mirrored, text) == blob

    def test_unknown_constants_intern_nothing(self):
        system, server = served_system([(1, "a")], POOL)
        terms = len(system.registry.terms)
        for text in ('t("zz",X)', "t(99,3.25)", 't(X,"never")', "t(X,X)"):
            _id, ok, body, _error = decode_reply_frame(
                reply_blob(server, text))
            assert ok and body == {"answers": []}, text
        assert len(system.registry.terms) == terms
