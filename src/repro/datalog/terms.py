"""Abstract syntax for the LogicBlox-style Datalog dialect used by LBTrust.

The grammar (paper sections 2.1 and 3.2-3.4) extends textbook Datalog with:

* schema constraints written ``F1 -> F2.`` (including bare declarations
  ``p(X) -> .``),
* arbitrary nesting of conjunction/disjunction/negation in bodies
  (normalized to DNF before evaluation, see :mod:`repro.datalog.logic`),
* aggregation ``h(G,N) <- agg<<N = count(X)>> body.``,
* partitioned ("curried") atoms ``p[K1,...](X1,...)``,
* quoted code terms ``[| head <- body. |]`` with meta-variables and Kleene
  stars, used for meta-programming (paper section 3.3),
* the ``me`` keyword denoting the local principal,
* arithmetic expressions and infix comparisons.

Everything here is an immutable value object: terms hash and compare
structurally, which the unifier, the rule-interning registry, and the
hypothesis test-suite all rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from .errors import SafetyError


# ---------------------------------------------------------------------------
# Source spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """A source position (1-based line and column) attached to parsed nodes.

    Spans ride along as ``compare=False`` fields so structural equality and
    hashing — which the unifier, the rule-interning registry, and the wire
    codecs rely on — are unaffected: two alpha-equal rules parsed from
    different places still compare equal.  The static analyzer
    (:mod:`repro.analysis`) turns spans into ``file:line:col`` diagnostics.
    """

    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# Sentinel values
# ---------------------------------------------------------------------------

class MeToken:
    """Singleton sentinel standing for the local principal (``me``).

    The parser produces ``Constant(ME)``; workspace loading substitutes the
    owning principal's name before any evaluation happens, so the engine
    itself never sees the sentinel.
    """

    _instance: Optional["MeToken"] = None

    def __new__(cls) -> "MeToken":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "me"


ME = MeToken()


@dataclass(frozen=True)
class RuleRef:
    """A first-class reference to an interned rule (rules-as-data).

    ``rid`` is assigned by a :class:`repro.meta.registry.RuleRegistry`;
    equality of refs within one registry implies structural (alpha-renamed)
    equality of the underlying rules.  Refs print as ``$r<id>``.
    """

    rid: int

    def __repr__(self) -> str:
        return f"$r{self.rid}"


@dataclass(frozen=True)
class PredPartition:
    """A ground value naming one partition of a curried predicate.

    ``predNode(export[alice], n1)`` stores the tuple
    ``(PredPartition("export", ("alice",)), "n1")``.
    """

    pred: str
    keys: tuple

    def __repr__(self) -> str:
        inner = ",".join(repr(k) for k in self.keys)
        return f"{self.pred}[{inner}]"


#: Python types allowed as constant values inside relations.  (Also
#: ``PatternValue``, defined below — patterns are first-class values.)
Value = Union[str, int, float, bool, bytes, tuple, RuleRef, PredPartition, MeToken]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for argument positions of atoms."""

    __slots__ = ()

    def variables(self) -> Iterator["Variable"]:
        """Yield every variable occurring in this term (with repeats)."""
        return iter(())


@dataclass(frozen=True)
class Variable(Term):
    """A logic variable.  Names conventionally start uppercase or ``_``."""

    name: str

    def variables(self) -> Iterator["Variable"]:
        yield self

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant(Term):
    """A ground value (string, number, bool, RuleRef, …)."""

    value: Value

    def variables(self) -> Iterator[Variable]:
        return iter(())

    def __repr__(self) -> str:
        return repr(self.value)


_ARITH_OPS = {"+", "-", "*", "/", "%"}


@dataclass(frozen=True)
class Expr(Term):
    """A binary arithmetic expression, e.g. ``N-1`` in rule dd3."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def variables(self) -> Iterator[Variable]:
        yield from self.left.variables()
        yield from self.right.variables()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class PartitionTerm(Term):
    """A partition-reference term such as ``export[P]`` (paper section 3.5).

    Evaluates to a :class:`PredPartition` value once the key terms are bound.
    """

    pred: str
    keys: tuple  # tuple[Term, ...]

    def variables(self) -> Iterator[Variable]:
        for key in self.keys:
            yield from key.variables()

    def __repr__(self) -> str:
        inner = ",".join(repr(k) for k in self.keys)
        return f"{self.pred}[{inner}]"


# ---------------------------------------------------------------------------
# Quoted code (meta-programming)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Star:
    """A Kleene star inside a quoted pattern: ``T*`` or ``A*``.

    ``var`` is the (meta-)variable the star was written on; it is retained
    for printing but a star imposes no join constraints when the pattern is
    compiled (paper section 3.3: the star "represents a repetition of the
    pattern preceding it").
    """

    var: Optional[str] = None

    def __repr__(self) -> str:
        return f"{self.var or ''}*"


#: One argument slot of an atom pattern: a concrete term or a star.
ArgElem = Union[Term, Star]


@dataclass(frozen=True)
class AtomPattern:
    """An atom inside a quoted code term.

    ``functor`` is either a concrete predicate name (str) or a Variable
    meta-variable ranging over predicates (like ``P`` in ``P(T*)``).
    ``args`` may mix terms and stars.  A bare meta-variable standing for a
    whole atom (the ``A`` in ``A <- P(T*)``) is represented as functor=
    Variable with ``args=None``.
    """

    functor: Union[str, Variable]
    args: Optional[tuple] = None  # tuple[ArgElem, ...] | None
    negated: bool = False

    def is_bare_metavar(self) -> bool:
        return isinstance(self.functor, Variable) and self.args is None

    def variables(self) -> Iterator[Variable]:
        if isinstance(self.functor, Variable):
            yield self.functor
        for arg in self.args or ():
            if isinstance(arg, Term):
                yield from arg.variables()

    def __repr__(self) -> str:
        neg = "!" if self.negated else ""
        if self.args is None:
            return f"{neg}{self.functor!r}"
        inner = ",".join(repr(a) for a in self.args)
        name = self.functor if isinstance(self.functor, str) else repr(self.functor)
        return f"{neg}{name}({inner})"


@dataclass(frozen=True)
class StarLits:
    """A Kleene star over the remaining body literals (``A*``)."""

    var: Optional[str] = None

    def __repr__(self) -> str:
        return f"{self.var or ''}*"


@dataclass(frozen=True)
class EqPattern:
    """A pattern binding ``Var = [| ... |]`` inside a quoted rule body."""

    var: Variable
    quote: "Quote"

    def variables(self) -> Iterator[Variable]:
        yield self.var
        yield from self.quote.variables()

    def __repr__(self) -> str:
        return f"{self.var!r} = {self.quote!r}"


#: One element of a quoted rule body.
PatternLit = Union[AtomPattern, StarLits, EqPattern]


@dataclass(frozen=True)
class RulePattern:
    """The contents of a quoted code term: head atoms and body elements.

    A quoted *fact* (``[| creditOK(C). |]``) has ``has_arrow=False`` and an
    empty body; it only matches rules with empty bodies.  A quoted pattern
    with ``<-`` matches any rule containing at least the given head/body
    structure ("at least" semantics; see DESIGN.md section 6).
    """

    heads: tuple  # tuple[AtomPattern, ...]
    body: tuple = ()  # tuple[PatternLit, ...]
    has_arrow: bool = False

    def variables(self) -> Iterator[Variable]:
        for head in self.heads:
            yield from head.variables()
        for lit in self.body:
            if isinstance(lit, (AtomPattern, EqPattern)):
                yield from lit.variables()

    def __repr__(self) -> str:
        heads = ", ".join(repr(h) for h in self.heads)
        if not self.has_arrow and not self.body:
            return f"{heads}."
        body = ", ".join(repr(b) for b in self.body)
        return f"{heads} <- {body}."


@dataclass(frozen=True)
class PatternValue:
    """A quoted pattern as a first-class *value* (rules-about-patterns).

    When a rule containing a body quote is reified, the quote argument's
    term gets ``value(T, PatternValue(pattern))`` in addition to
    ``quoteterm(T)``, so meta-rules like the Binder pull rewrite (pull0)
    can extract *what* a rule imports and ship that request across
    contexts.  Equality is structural on the underlying pattern.
    """

    pattern: "RulePattern"

    def __repr__(self) -> str:
        return f"[| {self.pattern!r} |]"


@dataclass(frozen=True)
class Quote(Term):
    """A quoted code term ``[| ... |]``.

    In *body* position the quote is a pattern: the compiler replaces it by a
    fresh variable plus joins over the meta-model (paper section 3.3).  In
    *head* position it is a template: at derivation time the bound variables
    are substituted and the resulting rule is interned, yielding a
    :class:`RuleRef` value.
    """

    pattern: RulePattern

    def variables(self) -> Iterator[Variable]:
        yield from self.pattern.variables()

    def __repr__(self) -> str:
        return f"[| {self.pattern!r} |]"


# ---------------------------------------------------------------------------
# Atoms, literals, body items
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """``pred[keys](args)`` — a predicate applied to terms.

    ``keys`` is the (possibly empty) partition-key tuple of a curried atom
    (paper section 3.4).  Storage and evaluation flatten the keys in front
    of the arguments; the catalog records the key arity for placement.
    """

    pred: str
    args: tuple = ()  # tuple[Term, ...]
    keys: tuple = ()  # tuple[Term, ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def all_args(self) -> tuple:
        """Partition keys followed by regular arguments (storage layout)."""
        return self.keys + self.args

    @property
    def arity(self) -> int:
        return len(self.keys) + len(self.args)

    def variables(self) -> Iterator[Variable]:
        for term in self.all_args:
            yield from term.variables()

    def __repr__(self) -> str:
        keys = f"[{','.join(repr(k) for k in self.keys)}]" if self.keys else ""
        args = ",".join(repr(a) for a in self.args)
        return f"{self.pred}{keys}({args})"


@dataclass(frozen=True)
class Literal:
    """A possibly-negated relational atom in a rule body."""

    atom: Atom
    negated: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def variables(self) -> Iterator[Variable]:
        return self.atom.variables()

    def __repr__(self) -> str:
        return ("!" if self.negated else "") + repr(self.atom)


_COMPARE_OPS = {"=", "!=", "<", "<=", ">", ">="}


@dataclass(frozen=True)
class Comparison:
    """An infix comparison between two terms, e.g. ``N >= 3`` or ``X != me``.

    ``=`` doubles as an assignment when one side is an unbound variable and
    the other side is fully bound (the engine picks the mode at run time).
    """

    op: str
    left: Term
    right: Term
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in _COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> Iterator[Variable]:
        yield from self.left.variables()
        yield from self.right.variables()

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


@dataclass(frozen=True)
class BuiltinCall:
    """A call to a registered builtin predicate, e.g. ``rsasign(R,S,K)``.

    Whether a body atom is a builtin call is decided at compile time by
    looking the functor up in the workspace's builtin registry; the parser
    always produces :class:`Literal` and the compiler rewrites.
    """

    name: str
    args: tuple  # tuple[Term, ...]

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            yield from arg.variables()

    def __repr__(self) -> str:
        args = ",".join(repr(a) for a in self.args)
        return f"{self.name}({args})"


#: One element of a compiled (DNF) rule body.
BodyItem = Union[Literal, Comparison, BuiltinCall]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

AGG_FUNCS = ("count", "total", "min", "max")


@dataclass(frozen=True)
class Aggregate:
    """``agg<<Result = func(Over)>>`` prefix of an aggregate rule (wd2)."""

    func: str
    result: Variable
    over: Term

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")

    def __repr__(self) -> str:
        return f"agg<<{self.result!r} = {self.func}({self.over!r})>>"


# ---------------------------------------------------------------------------
# Rules, constraints, programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """A (possibly multi-head) rule: ``h1, h2 <- body.`` or a fact ``h.``

    ``body`` is a tuple of :data:`BodyItem` — disjunction has already been
    split away by DNF normalization in the parser.  ``agg`` is the optional
    aggregate prefix.  ``label`` is the optional source label (``exp1:``).
    """

    heads: tuple  # tuple[Atom, ...]
    body: tuple = ()  # tuple[BodyItem, ...]
    agg: Optional[Aggregate] = None
    label: Optional[str] = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def head(self) -> Atom:
        """The single head (raises if the rule is multi-headed)."""
        if len(self.heads) != 1:
            raise ValueError(f"rule has {len(self.heads)} heads, expected 1")
        return self.heads[0]

    def is_fact(self) -> bool:
        return not self.body and self.agg is None

    def is_ground_fact(self) -> bool:
        """A fact whose every head argument is a :class:`Constant`: safe
        by definition, with nothing to compile or plan."""
        return self.is_fact() and all(isinstance(term, Constant)
                                      for head in self.heads
                                      for term in head.all_args)

    def variables(self) -> Iterator[Variable]:
        for head in self.heads:
            yield from head.variables()
        if self.agg is not None:
            yield self.agg.result
            yield from self.agg.over.variables()
        for item in self.body:
            yield from item.variables()

    def __repr__(self) -> str:
        heads = ", ".join(repr(h) for h in self.heads)
        if self.is_fact():
            return f"{heads}."
        parts = []
        if self.agg is not None:
            parts.append(repr(self.agg))
        parts.extend(repr(item) for item in self.body)
        return f"{heads} <- {' '.join(parts[:1])}{', '.join([''] + parts[1:]) if len(parts) > 1 else ''}."


@dataclass(frozen=True)
class Constraint:
    """A schema constraint ``F1 -> F2.`` (paper section 3.2).

    Logical meaning: ``fail() <- F1, !(F2)``.  ``lhs`` is a DNF list of
    conjunctions (each a tuple of body items); ``rhs`` likewise, and may be
    empty (a bare declaration ``p(X) -> .``, which never fails and only
    declares types/arity).  The original source text is kept for error
    messages.
    """

    lhs: tuple  # tuple[tuple[BodyItem, ...], ...]  (DNF alternatives)
    rhs: tuple  # tuple[tuple[BodyItem, ...], ...]  (DNF alternatives)
    label: Optional[str] = None
    source: Optional[str] = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def is_declaration(self) -> bool:
        """True when the RHS is trivially satisfiable (pure declaration)."""
        return len(self.rhs) == 0

    def __repr__(self) -> str:
        return self.source or f"<constraint {self.label or ''}>"


Statement = Union[Rule, Constraint]


@dataclass
class Program:
    """An ordered collection of parsed statements."""

    statements: list = field(default_factory=list)

    @property
    def rules(self) -> list:
        return [s for s in self.statements if isinstance(s, Rule)]

    @property
    def constraints(self) -> list:
        return [s for s in self.statements if isinstance(s, Constraint)]

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count()


def fresh_var(prefix: str = "_G") -> Variable:
    """Return a globally fresh variable (used for ``_`` and quote compilation)."""
    return Variable(f"{prefix}{next(_fresh_counter)}")


def is_anonymous(var: Variable) -> bool:
    """True for parser-generated anonymous variables (from ``_``)."""
    return var.name.startswith("_")


def substitute(node, rewrite: Callable[[Term], Term]):
    """``node`` with ``rewrite`` applied to each of its terms, bottom up.

    The one walk over the terms of a rule as data: ``me`` resolution,
    template filling and SeNDlog's context variable all go through it.
    It enters a term's parts (an expression's operands, a partition's
    keys, a quote's pattern) before handing the term to ``rewrite``; an
    atom's keys and arguments; literals, comparisons and builtin calls;
    a rule's heads and body (its aggregate is kept as is); both sides of
    a constraint; and a pattern's atoms and nested ``V = [| … |]`` quotes
    (stars and the ``V`` stay).  A predicate variable of a pattern that
    ``rewrite`` turns into a constant takes the constant's value, which
    must be a name.  A node none of whose parts changed comes back as the
    very same object, so a rewrite that finds nothing to do allocates
    nothing.
    """
    return _WALKS[type(node)](node, rewrite)


def _each(items: tuple, rewrite) -> tuple:
    changed = None
    for index, item in enumerate(items):
        kind = type(item)
        new = rewrite(item) if kind is Variable or kind is Constant \
            else _WALKS[kind](item, rewrite)
        if new is not item:
            if changed is None:
                changed = list(items)
            changed[index] = new
    return items if changed is None else tuple(changed)


def _expr(term: Expr, rewrite) -> Term:
    left, right = substitute(term.left, rewrite), substitute(term.right, rewrite)
    if left is not term.left or right is not term.right:
        term = Expr(term.op, left, right)
    return rewrite(term)


def _partition(term: PartitionTerm, rewrite) -> Term:
    keys = _each(term.keys, rewrite)
    return rewrite(term if keys is term.keys else PartitionTerm(term.pred, keys))


def _quote(term: Quote, rewrite) -> Term:
    pattern = _pattern(term.pattern, rewrite)
    return rewrite(term if pattern is term.pattern else Quote(pattern))


def _atom_pattern(atom: AtomPattern, rewrite) -> AtomPattern:
    functor = atom.functor
    if isinstance(functor, Variable):
        functor = rewrite(functor)
        if isinstance(functor, Constant):
            if not isinstance(functor.value, str):
                raise SafetyError(
                    f"pattern functor {atom.functor.name} bound to "
                    f"non-predicate value {functor.value!r}")
            functor = functor.value
    args = atom.args if atom.args is None else _each(atom.args, rewrite)
    if functor is atom.functor and args is atom.args:
        return atom
    return AtomPattern(functor, args, atom.negated)


def _eq_pattern(lit: EqPattern, rewrite) -> EqPattern:
    quote = _quote(lit.quote, rewrite)
    return lit if quote is lit.quote else EqPattern(lit.var, quote)


def _pattern(pattern: RulePattern, rewrite) -> RulePattern:
    heads, body = _each(pattern.heads, rewrite), _each(pattern.body, rewrite)
    if heads is pattern.heads and body is pattern.body:
        return pattern
    return RulePattern(heads, body, pattern.has_arrow)


def _atom(atom: Atom, rewrite) -> Atom:
    args, keys = _each(atom.args, rewrite), _each(atom.keys, rewrite)
    if args is atom.args and keys is atom.keys:
        return atom
    return Atom(atom.pred, args, keys, span=atom.span)


def _literal(lit: Literal, rewrite) -> Literal:
    atom = _atom(lit.atom, rewrite)
    return lit if atom is lit.atom else Literal(atom, lit.negated, span=lit.span)


def _comparison(item: Comparison, rewrite) -> Comparison:
    left, right = substitute(item.left, rewrite), substitute(item.right, rewrite)
    if left is item.left and right is item.right:
        return item
    return Comparison(item.op, left, right, span=item.span)


def _builtin(item: BuiltinCall, rewrite) -> BuiltinCall:
    args = _each(item.args, rewrite)
    return item if args is item.args else BuiltinCall(item.name, args)


def _rule(rule: Rule, rewrite) -> Rule:
    heads, body = _each(rule.heads, rewrite), _each(rule.body, rewrite)
    if heads is rule.heads and body is rule.body:
        return rule
    return Rule(heads, body, rule.agg, rule.label, span=rule.span)


def _constraint(constraint: Constraint, rewrite) -> Constraint:
    lhs, rhs = _each(constraint.lhs, rewrite), _each(constraint.rhs, rewrite)
    if lhs is constraint.lhs and rhs is constraint.rhs:
        return constraint
    return Constraint(lhs, rhs, constraint.label, constraint.source,
                      span=constraint.span)


def _leaf(node, rewrite):
    return rewrite(node)


def _kept(node, rewrite):
    return node


_WALKS = {
    Variable: _leaf, Constant: _leaf, Expr: _expr, PartitionTerm: _partition,
    Quote: _quote, Star: _kept, StarLits: _kept, AtomPattern: _atom_pattern,
    EqPattern: _eq_pattern, RulePattern: _pattern, Atom: _atom,
    Literal: _literal, Comparison: _comparison, BuiltinCall: _builtin,
    Rule: _rule, Constraint: _constraint, tuple: _each,
}
