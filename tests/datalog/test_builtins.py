"""Builtin registry, arithmetic/comparison semantics, standard library."""

import pytest

from repro.datalog.builtins import (
    BuiltinDef,
    BuiltinRegistry,
    apply_arith,
    apply_comparison,
    invoke_builtin,
    standard_registry,
)
from repro.datalog.errors import BuiltinError


class TestArithmetic:
    def test_int_ops(self):
        assert apply_arith("+", 2, 3) == 5
        assert apply_arith("-", 2, 3) == -1
        assert apply_arith("*", 2, 3) == 6
        assert apply_arith("%", 7, 3) == 1

    def test_exact_int_division_stays_int(self):
        result = apply_arith("/", 6, 3)
        assert result == 2 and isinstance(result, int)

    def test_inexact_division_floats(self):
        assert apply_arith("/", 7, 2) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(BuiltinError):
            apply_arith("/", 1, 0)

    def test_string_concatenation_via_plus(self):
        assert apply_arith("+", "a", "b") == "ab"

    def test_mixed_types_rejected(self):
        with pytest.raises(BuiltinError):
            apply_arith("+", "a", 1)

    def test_bool_is_not_a_number(self):
        with pytest.raises(BuiltinError):
            apply_arith("+", True, 1)


class TestComparison:
    def test_equality_any_type(self):
        assert apply_comparison("=", "a", "a")
        assert apply_comparison("!=", "a", 1)

    def test_numeric_ordering(self):
        assert apply_comparison("<", 1, 2)
        assert apply_comparison(">=", 2.5, 2)

    def test_string_ordering(self):
        assert apply_comparison("<", "a", "b")

    def test_cross_type_ordering_rejected(self):
        with pytest.raises(BuiltinError):
            apply_comparison("<", "a", 1)


class TestRegistry:
    def test_register_and_lookup(self):
        registry = BuiltinRegistry()
        definition = registry.register("f", "io", lambda x: [(x + 1,)])
        assert registry.lookup("f") is definition
        assert definition.input_positions == (0,)
        assert definition.output_positions == (1,)

    def test_positions_are_computed_once_and_do_not_change_identity(self):
        def func(x, y):
            return [(x + y,)]

        definition = BuiltinRegistry().register("add", "iio", func)
        assert definition.output_positions is definition.output_positions
        assert definition.input_positions is definition.input_positions
        # equality, hashing and repr read the declared fields alone
        assert definition == BuiltinDef("add", "iio", func)
        assert hash(definition) == hash(("add", "iio", func, False, False))
        assert repr(definition) == repr(BuiltinDef("add", "iio", func))

    def test_bad_mode_string(self):
        with pytest.raises(BuiltinError):
            BuiltinRegistry().register("f", "ix", lambda x: x)

    def test_child_sees_parent(self):
        parent = BuiltinRegistry()
        parent.register("f", "i", lambda x: True)
        child = parent.child()
        assert "f" in child
        child.register("g", "i", lambda x: True)
        assert "g" not in parent

    def test_invoke_test_builtin(self):
        definition = BuiltinRegistry().register("pos", "i", lambda x: x > 0)
        assert list(invoke_builtin(definition, (1,))) == [()]
        assert list(invoke_builtin(definition, (-1,))) == []

    def test_invoke_scalar_normalization(self):
        definition = BuiltinRegistry().register("inc", "io", lambda x: [x + 1])
        assert list(invoke_builtin(definition, (1,))) == [(2,)]

    def test_invoke_wrong_width(self):
        definition = BuiltinRegistry().register("bad", "io", lambda x: [(1, 2)])
        with pytest.raises(BuiltinError):
            list(invoke_builtin(definition, (0,)))


class TestStandardLibrary:
    def setup_method(self):
        self.registry = standard_registry()

    def call(self, name, *inputs):
        return list(invoke_builtin(self.registry.lookup(name), inputs))

    def test_type_predicates(self):
        assert self.call("int", 3) == [()]
        assert self.call("int", True) == []      # bool is not int
        assert self.call("string", "x") == [()]
        assert self.call("float", 1.5) == [()]
        assert self.call("float", 1) == []
        assert self.call("number", 1) == [()]
        assert self.call("bool", False) == [()]
        assert self.call("any", object()) == [()]

    def test_strlen(self):
        assert self.call("strlen", "abcd") == [(4,)]

    def test_concat(self):
        assert self.call("concat", "a", "b") == [("ab",)]

    def test_list_builtins(self):
        assert self.call("list_nil") == [((),)]
        assert self.call("list_cons", "a", ("b",)) == [(("a", "b"),)]
        assert self.call("list_append", ("a",), "b") == [(("a", "b"),)]
        assert self.call("list_member", "a", ("a", "b")) == [()]
        assert self.call("list_member", "z", ("a", "b")) == []
        assert self.call("list_not_member", "z", ("a", "b")) == [()]
        assert self.call("list_length", ("a", "b")) == [(2,)]
        assert self.call("list_first", ("a", "b")) == [("a",)]
        assert self.call("list_first", ()) == []
