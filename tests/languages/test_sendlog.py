"""SeNDlog (section 5.2): translation, reachability, path-vector."""

import pytest

from repro.datalog.errors import ParseError
from repro.datalog.pretty import format_statement
from repro.datalog.terms import Quote
from repro.languages.sendlog import install_sendlog, parse_sendlog

REACHABILITY = """
At S:
s1: reachable(S,D) :- neighbor(S,D).
s1b: reachable(S,D)@S :- neighbor(S,D).
s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
"""

#: Authenticated path-vector (the paper: "one can easily construct more
#: complex secure networking protocols, such as an authenticated
#: path-vector protocol").  Paths are value lists; loop-freedom comes from
#: the list_not_member check.
PATH_VECTOR = """
At S:
p1: path(S,D,P) :- neighbor(S,D), list_nil(E), list_cons(D,E,P0),
    list_cons(S,P0,P).
p1b: path(S,D,P)@S :- path(S,D,P).
p2: path(Z,D,P2)@Z :- neighbor(S,Z), W says path(S,D,P),
    list_not_member(Z,P), list_cons(Z,P,P2).
"""


class TestTranslation:
    def test_ls1_ls2_shapes(self):
        """The paper's own translation: s1→ls1, s2→ls2."""
        blocks = parse_sendlog("""
            At S:
            s1: reachable(S,D) :- neighbor(S,D).
            s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
        """)
        assert len(blocks) == 1
        ls1, ls2 = blocks[0].statements
        assert format_statement(ls1) == "reachable(me,D) <- neighbor(me,D)."
        assert format_statement(ls2) == (
            "says(me,Z,[| reachable(Z,D). |]) <- neighbor(me,Z), "
            "says(W,me,[| reachable(me,D). |]).")

    def test_named_context_not_substituted(self):
        blocks = parse_sendlog("At alice:\nr1: local(X) :- base(X).")
        assert not blocks[0].is_generic
        assert blocks[0].context == "alice"

    def test_multiple_blocks(self):
        blocks = parse_sendlog("""
            At alice:
            a1: p(X) :- q(X).
            At bob:
            b1: r(X) :- s(X).
        """)
        assert [b.context for b in blocks] == ["alice", "bob"]

    def test_export_to_variable_destination(self):
        blocks = parse_sendlog("At S:\ne1: msg(D)@D :- target(S,D).")
        (rule,) = blocks[0].statements
        says = rule.heads[0]
        assert says.pred == "says"
        assert isinstance(says.args[2], Quote)

    def test_missing_block_header_rejected(self):
        with pytest.raises(ParseError):
            parse_sendlog("p(X) :- q(X).")

    def test_unknown_named_context_rejected(self, make_system):
        system = make_system("plaintext")
        system.create_principal("alice")
        with pytest.raises(ParseError):
            install_sendlog(system, "At ghost:\np(X) :- q(X).")


class TestContextVariable:
    """The context variable becomes ``me`` wherever it occurs, partition
    keys and quoted bodies included."""

    def test_a_partition_key_is_the_local_principal(self, make_system):
        system = make_system("plaintext")
        principals = {name: system.create_principal(name, node=node)
                      for name, node in (("alice", "n1"), ("bob", "n2"))}
        install_sendlog(system, "At S:\nhome(S,N) :- predNode(export[S],N).")
        system.run(max_rounds=10)
        assert principals["alice"].tuples("home") == {("alice", "n1")}
        assert principals["bob"].tuples("home") == {("bob", "n2")}

    def test_a_quoted_body_is_localised(self):
        (block,) = parse_sendlog(
            "At S:\nkeep([| p(S) <- q(S). |]) :- link(S,D).")
        (rule,) = block.statements
        assert format_statement(rule) == \
            "keep([| p(me) <- q(me). |]) <- link(me,D)."


class TestReachability:
    def build(self, make_system, edges, auth="hmac"):
        system = make_system(auth)
        names = sorted({n for edge in edges for n in edge})
        principals = {n: system.create_principal(n) for n in names}
        install_sendlog(system, REACHABILITY)
        for source, target in edges:
            principals[source].assert_fact("neighbor", (source, target))
            principals[target].assert_fact("neighbor", (target, source))
        system.run(max_rounds=40)
        return system, principals

    def test_chain_converges(self, make_system):
        _, principals = self.build(make_system,
                                   [("a", "b"), ("b", "c"), ("c", "d")])
        for name, principal in principals.items():
            reached = {d for (s, d) in principal.tuples("reachable")
                       if s == name}
            assert set(principals) - {name} <= reached

    def test_disconnected_components_stay_apart(self, make_system):
        _, principals = self.build(make_system, [("a", "b"), ("x", "y")])
        a_reach = {d for (s, d) in principals["a"].tuples("reachable")}
        assert "x" not in a_reach and "y" not in a_reach

    def test_ring_converges(self, make_system):
        _, principals = self.build(
            make_system, [("a", "b"), ("b", "c"), ("c", "a")],
            auth="plaintext")
        for name, principal in principals.items():
            reached = {d for (s, d) in principal.tuples("reachable") if s == name}
            assert set(principals) <= reached | {name}

    def test_messages_are_authenticated(self, make_system):
        system, principals = self.build(make_system, [("a", "b")],
                                        auth="hmac")
        # every delivered reachable fact arrived through a verifying export
        b = principals["b"]
        says_from_a = [f for f in b.tuples("says") if f[0] == "a"]
        assert says_from_a
        exports = {f[2] for f in b.tuples("export")}
        assert all(f[2] in exports for f in says_from_a)


class TestPathVector:
    def test_paths_computed_with_loop_freedom(self, make_system):
        system = make_system("plaintext")
        names = ["a", "b", "c"]
        principals = {n: system.create_principal(n) for n in names}
        install_sendlog(system, PATH_VECTOR)
        edges = [("a", "b"), ("b", "c")]
        for source, target in edges:
            principals[source].assert_fact("neighbor", (source, target))
            principals[target].assert_fact("neighbor", (target, source))
        system.run(max_rounds=40)
        c_paths = principals["c"].tuples("path")
        # c learns a path to a: c-b-a (as lists, stored head-first)
        paths_to_a = {p for (s, d, p) in c_paths if s == "c" and d == "a"}
        assert ("c", "b", "a") in paths_to_a
        # loop-freedom: no path visits a node twice
        for (_s, _d, path) in c_paths:
            assert len(set(path)) == len(path)
