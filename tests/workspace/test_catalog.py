"""Catalog: declarations, arity discipline, type harvesting."""

import pytest

from repro.datalog.builtins import standard_registry
from repro.datalog.errors import WorkspaceError
from repro.datalog.parser import parse_atom, parse_statements
from repro.datalog.terms import Rule
from repro.meta.quote import compile_constraint
from repro.workspace.catalog import Catalog


def harvest_catalog(statements):
    catalog = Catalog()
    for statement in statements:
        if isinstance(statement, Rule):
            catalog.observe_rule(statement)
        else:
            catalog.observe_constraint(statement)
    return catalog


class TestObservation:
    def test_auto_declare_on_first_use(self):
        catalog = Catalog()
        info = catalog.observe_atom(parse_atom("p(X,Y)"))
        assert info.arity == 2 and not info.declared

    def test_arity_clash(self):
        catalog = Catalog()
        catalog.observe_atom(parse_atom("p(X,Y)"))
        with pytest.raises(WorkspaceError):
            catalog.observe_atom(parse_atom("p(X)"))

    def test_partition_key_recorded(self):
        catalog = Catalog()
        info = catalog.observe_atom(parse_atom("export[U](V,R,S)"))
        assert info.key_arity == 1 and info.arity == 4

    def test_partition_key_clash(self):
        catalog = Catalog()
        catalog.observe_atom(parse_atom("export[U](V,R,S)"))
        with pytest.raises(WorkspaceError):
            catalog.observe_atom(parse_atom("export[U,V](R,S)"))

    def test_fact_arity_check(self):
        catalog = Catalog()
        catalog.observe_atom(parse_atom("p(X,Y)"))
        catalog.check_fact_arity("p", ("a", "b"))
        with pytest.raises(WorkspaceError):
            catalog.check_fact_arity("p", ("a",))
        catalog.check_fact_arity("unknown", ("anything",))  # undeclared: ok


class TestTypeHarvesting:
    def test_type_declaration_harvested(self):
        statements = parse_statements(
            "access(P,O,M) -> principal(P), object(O), mode(M).")
        catalog = harvest_catalog(statements)
        info = catalog.info("access")
        assert info.declared
        assert info.arg_types == ("principal", "object", "mode")

    def test_partial_types(self):
        statements = parse_statements("p(X,Y) -> t(X).")
        catalog = harvest_catalog(statements)
        assert catalog.info("p").arg_types == ("t", None)

    def test_non_declaration_shapes_ignored(self):
        # constraint with a constant argument is not a type declaration
        statements = parse_statements('p(X,"k") -> t(X).')
        catalog = harvest_catalog(statements)
        assert catalog.info("p").arg_types == (None, None)

    def test_repeated_variable_not_a_declaration(self):
        statements = parse_statements("p(X,X) -> t(X).")
        catalog = harvest_catalog(statements)
        assert catalog.info("p").arg_types == (None, None)

    def test_raw_and_compiled_declarations_record_the_same_types(self):
        # `int(N)` is a literal as parsed and a builtin call as compiled:
        # both are a type, and neither is a predicate.
        builtins = standard_registry()
        raw = parse_statements("age(P,N) -> string(P), int(N).")[0]
        for constraint in (raw, compile_constraint(raw, None, builtins)):
            catalog = Catalog(builtins=builtins)
            catalog.observe_constraint(constraint)
            assert catalog.info("age").arg_types == ("string", "int")
            assert catalog.names() == ["age"]

    def test_rules_observed_too(self):
        statements = parse_statements("p(X) <- q(X,Y), r(Y).")
        catalog = harvest_catalog(statements)
        assert catalog.info("q").arity == 2
        assert catalog.info("r").arity == 1
