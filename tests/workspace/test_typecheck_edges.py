"""Nominal-vs-primitive edge cases of the static type inference
(`repro.analysis.passes.infer_type_clashes`): ``(variable, types)`` per
clash; :meth:`Workspace.typecheck` prefixes the rule label.
"""

from repro.analysis.passes import infer_type_clashes
from repro.analysis.pipeline import AnalysisContext
from repro.datalog.parser import parse_statements
from repro.datalog.terms import Rule
from repro.workspace.workspace import Workspace


def schema_of(statements):
    """The catalog the load gate checks a program against."""
    context = AnalysisContext(statements=list(statements))
    context.schema()
    return context.catalog


def issues(source):
    statements = parse_statements(source)
    catalog = schema_of(statements)
    return [clash for rule in statements if isinstance(rule, Rule)
            for clash in infer_type_clashes(rule, catalog)]


def test_same_user_type_twice_is_fine():
    found = issues(
        "knows(A,B) -> principal(A), principal(B).\n"
        "peer(A,B) <- knows(A,B), knows(B,A).")
    assert found == []


def test_primitive_vs_user_type_clashes():
    found = issues(
        "age(P,N) -> principal(P), int(N).\n"
        "label(P) -> string(P).\n"
        "odd(P) <- age(P,_), label(P).")
    assert found == [
        ("P", ("principal", "string"))]


def test_two_user_types_are_nominal():
    found = issues(
        "cat(C) -> feline(C).\n"
        "dog(D) -> canine(D).\n"
        "both(X) <- cat(X), dog(X).")
    assert found == [
        ("X", ("canine", "feline"))]


def test_variable_in_three_positions_reports_once():
    found = issues(
        "a(X) -> int(X).\n"
        "b(X) -> string(X).\n"
        "c(X) -> principal(X).\n"
        "r(V) <- a(V), b(V), c(V).")
    assert found == [
        ("V", ("int", "principal", "string"))]


def test_unlabeled_rule_gets_placeholder_label():
    decls = ("good(P) -> principal(P).\n"
             "size(O,N) -> object(O), int(N).\n")
    clash = ("X", ("object", "principal"))
    for label, rule in (("<unlabeled>", "oops(X) <- good(X), size(X,N)."),
                        ("t9", "t9: oops(X) <- good(X), size(X,N).")):
        workspace = Workspace("w")
        workspace.load(decls + rule)
        assert workspace.typecheck() == [(label, *clash)]
