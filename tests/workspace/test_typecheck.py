"""Static type checking from declarations."""

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


DECLS = """
access(P,O,M) -> principal(P), object(O), mode(M).
good(P) -> principal(P).
size(O,N) -> object(O), int(N).
"""


def check(rule_source):
    """``(variable, types)`` clashes of every rule in the source."""
    statements = parse_statements(DECLS + rule_source)
    catalog = schema_of(statements)
    return [clash for rule in statements if isinstance(rule, Rule)
            for clash in infer_type_clashes(rule, catalog)]


class TestClean:
    def test_well_typed_rule(self):
        assert check("access(P,O,M) <- good(P), size(O,N), mode(M).") == []

    def test_undeclared_predicates_unconstrained(self):
        assert check("x(A) <- y(A), z(A).") == []

    def test_repeated_consistent_use(self):
        assert check("twice(P) <- good(P), access(P,O,M).") == []


class TestClashes:
    def test_principal_vs_object(self):
        issues = check("oops(X) <- good(X), size(X,N).")
        assert issues == [("X", ("object", "principal"))]

    def test_int_vs_principal(self):
        issues = check("oops(X) <- good(X), size(O,X).")
        assert issues == [("X", ("int", "principal"))]

    def test_int_compatible_with_number(self):
        extra = "wt(O,N) -> object(O), number(N).\n"
        assert check(extra + "both(N) <- size(O,N), wt(O,N).") == []

    def test_issue_reports_rule_label(self):
        workspace = Workspace("w")
        workspace.load(DECLS + "lbl: oops(X) <- good(X), size(X,N).")
        assert workspace.typecheck() == [
            ("lbl", "X", ("object", "principal"))]
