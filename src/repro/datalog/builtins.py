"""Builtin predicate registry and arithmetic/comparison evaluation.

The paper relies on builtins in two places: ordinary comparisons and
arithmetic (``N >= 3``, ``N-1``) and *application-defined libraries of
custom predicates* — the cryptographic functions ``rsasign``, ``rsaverify``,
``hmacsign``, ``hmacverify`` (section 3).  This module provides the
registry those libraries plug into; :mod:`repro.crypto.schemes` registers
the actual cryptographic builtins.

A builtin is declared with a *mode string*: one character per argument,
``i`` for an input that must be bound, ``o`` for an output the builtin
binds.  Functions receive the evaluated input values (plus an optional
context object) and return:

* for all-input builtins: a truth value, or
* for builtins with outputs: an iterable of output tuples (possibly empty),
  one element per ``o`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Optional

from .errors import BuiltinError


@dataclass(frozen=True)
class BuiltinDef:
    """A registered builtin: name, mode string, implementation."""

    name: str
    mode: str                      # e.g. "iio" — inputs and outputs per arg
    func: Callable[..., Any]
    needs_context: bool = False    # pass the EvalContext as first argument
    #: a volatile builtin reads state outside its arguments (e.g. the
    #: whole database); rules using one are re-evaluated on every commit
    #: because semi-naive deltas cannot see their hidden dependencies
    volatile: bool = False

    @property
    def arity(self) -> int:
        return len(self.mode)

    # read per call, so cached; not fields: equality and hashing stay
    @cached_property
    def output_positions(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mode) if m == "o")

    @cached_property
    def input_positions(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mode) if m == "i")


class BuiltinRegistry:
    """Name → :class:`BuiltinDef` lookup used at rule-compile time."""

    def __init__(self, parent: Optional["BuiltinRegistry"] = None) -> None:
        self._defs: dict[str, BuiltinDef] = {}
        self._parent = parent
        #: registrations so far: with the parents', what a compile or a
        #: static check made under this registry depends on
        self._version = 0

    def register(self, name: str, mode: str, func: Callable[..., Any],
                 needs_context: bool = False,
                 volatile: bool = False) -> BuiltinDef:
        if any(m not in "io" for m in mode):
            raise BuiltinError(f"bad mode string {mode!r} for builtin {name!r}")
        definition = BuiltinDef(name, mode, func, needs_context, volatile)
        self._defs[name] = definition
        self._version += 1
        return definition

    def signature(self) -> tuple:
        """This registry and its parents, each with its registration
        count: equal signatures look every name up alike, so a result
        cached under one (a gate report, a compiled rule) holds under the
        other."""
        signature: tuple = (self, self._version)
        if self._parent is not None:
            signature += self._parent.signature()
        return signature

    def lookup(self, name: str) -> Optional[BuiltinDef]:
        definition = self._defs.get(name)
        if definition is None and self._parent is not None:
            return self._parent.lookup(name)
        return definition

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def child(self) -> "BuiltinRegistry":
        """A registry layered on this one (workspace-local builtins)."""
        return BuiltinRegistry(parent=self)


def invoke_builtin(definition: BuiltinDef, inputs: tuple, context: Any = None) -> Iterable[tuple]:
    """Call a builtin; normalize the result to an iterable of output rows.

    All-input builtins return truthiness → ``[()]`` or ``[]``.
    Builtins with outputs return an iterable of tuples (a bare value is
    accepted for single-output builtins).
    """
    args = (context, *inputs) if definition.needs_context else inputs
    result = definition.func(*args)
    width = len(definition.output_positions)
    if not width:
        return [()] if result else []
    if result is None:
        return []
    rows = []
    for row in result:
        if not isinstance(row, tuple):
            row = (row,)
        if len(row) != width:
            raise BuiltinError(
                f"builtin {definition.name!r} returned a row of width {len(row)}, "
                f"expected {width}"
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Arithmetic and comparisons
# ---------------------------------------------------------------------------

_NUMERIC = (int, float)


def apply_arith(op: str, left: Any, right: Any) -> Any:
    """Evaluate one arithmetic operator with light type discipline."""
    if op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        _require_numeric(op, left, right)
        return left + right
    _require_numeric(op, left, right)
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise BuiltinError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return left // right
        return result
    if op == "%":
        if right == 0:
            raise BuiltinError("modulo by zero")
        return left % right
    raise BuiltinError(f"unknown arithmetic operator {op!r}")  # pragma: no cover


def _require_numeric(op: str, left: Any, right: Any) -> None:
    if not isinstance(left, _NUMERIC) or isinstance(left, bool) \
            or not isinstance(right, _NUMERIC) or isinstance(right, bool):
        raise BuiltinError(
            f"arithmetic {op!r} needs numbers, got {type(left).__name__} "
            f"and {type(right).__name__}"
        )


def apply_comparison(op: str, left: Any, right: Any) -> bool:
    """Evaluate a comparison; ordering requires like-typed operands."""
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    ordered_ok = (
        (isinstance(left, _NUMERIC) and not isinstance(left, bool)
         and isinstance(right, _NUMERIC) and not isinstance(right, bool))
        or (isinstance(left, str) and isinstance(right, str))
    )
    if not ordered_ok:
        raise BuiltinError(
            f"cannot order {type(left).__name__} against {type(right).__name__}"
        )
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise BuiltinError(f"unknown comparison {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# A small standard library (strings, lists-as-tuples)
# ---------------------------------------------------------------------------

def standard_registry() -> BuiltinRegistry:
    """The default builtins every workspace starts from."""
    registry = BuiltinRegistry()
    # Primitive type predicates (LogicBlox treats types as unary
    # predicates; the primitive ones are satisfied by a dynamic check).
    registry.register("int", "i",
                      lambda v: isinstance(v, int) and not isinstance(v, bool))
    registry.register("string", "i", lambda v: isinstance(v, str))
    registry.register("float", "i", lambda v: isinstance(v, float))
    registry.register("number", "i",
                      lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
    registry.register("bool", "i", lambda v: isinstance(v, bool))
    registry.register("any", "i", lambda v: True)
    registry.register("strlen", "io", lambda s: [(len(s),)] if isinstance(s, str) else [])
    registry.register("concat", "iio", lambda a, b: [(str(a) + str(b),)])
    registry.register("tostring", "io", lambda v: [(_value_to_string(v),)])
    # Tuples double as immutable lists (used by SeNDlog path-vector rules).
    registry.register("list_nil", "o", lambda: [((),)])
    registry.register("list_cons", "iio", lambda head, rest: [((head,) + tuple(rest),)])
    registry.register("list_append", "iio", lambda rest, last: [(tuple(rest) + (last,),)])
    registry.register("list_member", "ii", lambda item, items: item in tuple(items))
    registry.register("list_not_member", "ii",
                      lambda item, items: item not in tuple(items))
    registry.register("list_length", "io", lambda items: [(len(tuple(items)),)])
    registry.register("list_first", "io",
                      lambda items: [(items[0],)] if len(tuple(items)) > 0 else [])
    return registry


def _value_to_string(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
