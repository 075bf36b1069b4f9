"""Recursive-descent parser for the LBTrust Datalog dialect.

Grammar summary (see DESIGN.md S1 and the paper sections 2.1, 3.2-3.4)::

    program    := statement*
    statement  := [label ':'] (rule | constraint)
    rule       := formula ('<-' [aggspec] formula)? '.'
    constraint := formula '->' [formula] '.'
    formula    := disjunct (';' disjunct)*
    disjunct   := conjunct (',' conjunct)*
    conjunct   := '!' conjunct | '(' formula ')' | literal | comparison
    literal    := predname ['[' terms ']'] '(' [terms] ')'
    comparison := term ('='|'!='|'<'|'<='|'>'|'>=') term
    aggspec    := 'agg' '<<' VAR '=' func '(' term ')' '>>'
    term       := arithmetic over primary
    primary    := const | VAR | 'me' | quote | partition-ref | '(' term ')'
    quote      := '[|' pattern '|]'

A statement whose top connective is ``<-`` is a rule; ``->`` a constraint;
a bare conjunction of atoms is a fact.  Disjunction is normalized to DNF
and split into one rule per alternative, exactly as the paper prescribes;
:func:`parse_statement` therefore returns a *list*.

Labels (``exp1: …``) are distinguished from qualified predicate names
(``message:id``) by token gluing — see :mod:`repro.datalog.lexer`.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import ParseError
from .lexer import Token, tokenize
from .logic import And, Formula, Not, conj, disj, to_dnf
from .terms import (
    AGG_FUNCS,
    ME,
    Aggregate,
    Atom,
    AtomPattern,
    Comparison,
    Constant,
    Constraint,
    EqPattern,
    Expr,
    Literal,
    PartitionTerm,
    Program,
    Quote,
    Rule,
    RulePattern,
    RuleRef,
    Span,
    Star,
    StarLits,
    Statement,
    Term,
    Variable,
    fresh_var,
)

_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: the keywords that are terms, and their values
_KEYWORD_TERMS = {"me": ME, "true": True, "false": False}

#: a literal token's kind -> its value.  ``$r<N>`` is a rule reference,
#: meaningful only where the producing registry is shared (as in one
#: LBTrust system); the wire codec documents this limitation.
_LITERALS: dict[str, Callable[[str], object]] = {
    "STRING": str, "INT": int, "FLOAT": float,
    "HEX": lambda text: bytes.fromhex(text[2:]),
    "REFID": lambda text: RuleRef(int(text[2:])),
}

#: binary arithmetic operators -> binding power (all left-associative)
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}


class Parser:
    """One-pass recursive-descent parser over a token list: the cursor
    ``_pos`` indexes ``_tokens``, which the hot paths read in place."""

    def __init__(self, tokens: list[Token]) -> None:
        # The cursor stops at the EOF token and looks at most two tokens
        # past it, so two more EOF tokens make every index it reads valid.
        self._tokens = tokens + [tokens[-1]] * 2
        self._pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def at(self, text: str) -> bool:
        token = self._tokens[self._pos]
        return token.text == text and token.kind == "PUNCT"

    def expect(self, text: str) -> Token:
        token = self._tokens[self._pos]
        if token.text != text or token.kind != "PUNCT":
            raise ParseError(
                f"expected {text!r}, found {token.text or 'end of input'!r}",
                token.line, token.column,
            )
        self._pos += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    # -- program / statements -------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        tokens = self._tokens
        while tokens[self._pos].kind != "EOF":
            program.statements.extend(self.parse_statement())
        return program

    def parse_statement(self) -> list[Statement]:
        start = self._tokens[self._pos]
        span = Span(start.line, start.column)
        label = self._try_label()
        lhs = self.parse_formula()
        token = self._tokens[self._pos]
        if token.kind == "PUNCT":
            if token.text == ".":
                self._pos += 1
                return [Rule(self._heads_from_formula(lhs), (), None, label,
                             span=span)]
            if token.text == "<-":
                self._pos += 1
                agg = self._try_aggregate()
                body = self.parse_formula()
                self.expect(".")
                heads = self._heads_from_formula(lhs)
                return [Rule(heads, alternative, agg, label, span=span)
                        for alternative in to_dnf(body)]
            if token.text == "->":
                self._pos += 1
                rhs = None if self.at(".") else self.parse_formula()
                self.expect(".")
                return [Constraint(to_dnf(lhs), () if rhs is None
                                   else to_dnf(rhs), label, span=span)]
        raise self.error("expected '.', '<-' or '->' after formula")

    def _try_label(self) -> Optional[str]:
        pos = self._pos
        token, nxt = self._tokens[pos], self._tokens[pos + 1]
        if (token.kind == "IDENT" and nxt.text == ":" and nxt.kind == "PUNCT"
                and not self._tokens[pos + 2].glued):
            self._pos = pos + 2
            return token.text
        return None

    def _heads_from_formula(self, formula: Formula) -> tuple:
        if isinstance(formula, Literal) and not formula.negated:
            return (formula.atom,)
        items = formula.parts if isinstance(formula, And) else (formula,)
        heads = []
        for item in items:
            if isinstance(item, Literal) and not item.negated:
                heads.append(item.atom)
            else:
                raise self.error(f"rule head must be positive atoms, found {item!r}")
        return tuple(heads)

    # -- aggregation -------------------------------------------------------------

    def _try_aggregate(self) -> Optional[Aggregate]:
        token = self._tokens[self._pos]
        if token.text != "agg" or token.kind != "KEYWORD":
            return None
        self._pos += 1
        self.expect("<<")
        result_token = self.advance()
        if result_token.kind != "VAR":
            raise self.error("aggregate result must be a variable")
        self.expect("=")
        func_token = self.advance()
        if func_token.kind != "IDENT" or func_token.text not in AGG_FUNCS:
            raise self.error(f"unknown aggregate function {func_token.text!r}")
        self.expect("(")
        over = self.parse_term()
        self.expect(")")
        self.expect(">>")
        return Aggregate(func_token.text, Variable(result_token.text), over)

    # -- formulas --------------------------------------------------------------

    def parse_formula(self) -> Formula:
        """Disjuncts of conjuncts; a lone part is returned as it is."""
        disjuncts: list = []
        while True:
            parts = self._separated(self._parse_conjunct)
            disjuncts.append(parts[0] if len(parts) == 1 else conj(parts))
            if not self.at(";"):
                return disjuncts[0] if len(disjuncts) == 1 else disj(disjuncts)
            self._pos += 1

    def _separated(self, item: Callable[[], object]) -> list:
        """One or more ``item()`` separated by ``,``."""
        items = [item()]
        tokens = self._tokens
        while tokens[self._pos].text == "," and tokens[self._pos].kind == "PUNCT":
            self._pos += 1
            items.append(item())
        return items

    def _parse_conjunct(self) -> Formula:
        token = self._tokens[self._pos]
        if token.kind == "PUNCT":
            if token.text == "!":
                self._pos += 1
                return Not(self._parse_conjunct())
            if token.text == "(" and not self._at_parenthesised_term():
                self._pos += 1
                inner = self.parse_formula()
                self.expect(")")
                return inner
        return self._parse_basic()

    def _at_parenthesised_term(self) -> bool:
        """True when the ``(`` ahead opens a comparison's first term —
        ``(X + 1) * 2 = Y``, which is how the printer writes an
        arithmetic left side — rather than a group of literals: the
        token after its matching ``)`` is an operator."""
        end = self._closed(self._pos, "(", ")")
        after = self._tokens[end]
        return end > 0 and after.kind == "PUNCT" and (
            after.text in _COMPARE_OPS or after.text in _BINARY)

    def _closed(self, at: int, opener: str, closer: str) -> int:
        """The index past the ``closer`` matching the ``opener`` at
        ``at``; 0 if the input ends first."""
        tokens, depth = self._tokens, 0
        while tokens[at].kind != "EOF":
            token = tokens[at]
            at += 1
            if token.kind == "PUNCT" and token.text in (opener, closer):
                depth += 1 if token.text == opener else -1
                if depth == 0:
                    return at
        return 0

    def _parse_basic(self) -> Formula:
        """An atom, or a comparison between two terms."""
        if self._at_atom_start():
            atom = self.parse_atom()
            return Literal(atom, span=atom.span)
        start = self._tokens[self._pos]
        left = self.parse_term()
        op_token = self._tokens[self._pos]
        if op_token.kind == "PUNCT" and op_token.text in _COMPARE_OPS:
            self._pos += 1
            right = self.parse_term()
            return Comparison(op_token.text, left, right,
                              span=Span(start.line, start.column))
        raise self.error(f"expected comparison operator, found {op_token.text!r}")

    def _at_atom_start(self) -> bool:
        """True when the next tokens begin a relational atom ``name(...)``."""
        tokens = self._tokens
        at = self._pos
        if tokens[at].kind != "IDENT":
            return False
        at = self._after_predname(at)
        nxt = tokens[at]
        if nxt.kind == "PUNCT" and nxt.text == "[" and nxt.glued:
            # Partitioned atom head: name[keys](args).  Scan past the keys.
            at = self._closed(at, "[", "]")
            nxt = tokens[at]
            return at > 0 and nxt.kind == "PUNCT" and nxt.text == "("
        return nxt.kind == "PUNCT" and nxt.text == "(" and nxt.glued

    def _after_predname(self, at: int) -> int:
        """The index past the (qualified) name whose first IDENT is at
        ``at``: its segments are glued ``:`` IDENT pairs."""
        tokens = self._tokens
        at += 1
        colon = tokens[at]
        while (colon.text == ":" and colon.kind == "PUNCT" and colon.glued
               and tokens[at + 1].kind == "IDENT" and tokens[at + 1].glued):
            at += 2
            colon = tokens[at]
        return at

    def _parse_predname(self) -> str:
        token = self.advance()
        if token.kind != "IDENT":
            raise self.error(f"expected predicate name, found {token.text!r}")
        end = self._after_predname(self._pos - 1)
        if end == self._pos:
            return token.text
        name = ":".join([t.text for t in self._tokens[self._pos - 1:end:2]])
        self._pos = end
        return name

    def parse_atom(self) -> Atom:
        start = self._tokens[self._pos]
        name = self._parse_predname()
        keys: tuple = ()
        token = self._tokens[self._pos]
        if token.text == "[" and token.kind == "PUNCT" and token.glued:
            self._pos += 1
            keys = tuple(self._separated(self.parse_term))
            self.expect("]")
        self.expect("(")
        args = () if self.at(")") else tuple(self._separated(self.parse_term))
        self.expect(")")
        return Atom(name, args, keys, span=Span(start.line, start.column))

    # -- terms -----------------------------------------------------------------

    def parse_term(self, floor: int = 1) -> Term:
        """A term whose binary operators bind at least ``floor`` tightly
        (precedence climbing: ``*`` ``/`` ``%`` over ``+`` ``-``, each
        left-associative, unary ``-`` tightest)."""
        left = self._parse_unary()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            power = _BINARY.get(token.text) if token.kind == "PUNCT" else None
            if power is None or power < floor:
                return left
            self._pos += 1
            left = Expr(token.text, left, self.parse_term(power + 1))

    def _parse_unary(self) -> Term:
        token = self._tokens[self._pos]
        if token.text == "-" and token.kind == "PUNCT":
            self._pos += 1
            inner = self._parse_unary()
            if isinstance(inner, Constant) and isinstance(inner.value, (int, float)):
                return Constant(-inner.value)
            return Expr("-", Constant(0), inner)
        kind = token.kind
        value = _LITERALS.get(kind)
        if value is not None:
            self._pos += 1
            return Constant(value(token.text))
        if kind == "VAR":
            self._pos += 1
            if token.text == "_":
                return fresh_var("_Anon")
            return Variable(token.text)
        if kind == "KEYWORD":
            if token.text in _KEYWORD_TERMS:
                self._pos += 1
                return Constant(_KEYWORD_TERMS[token.text])
            raise self.error(f"keyword {token.text!r} cannot be a term")
        if kind == "IDENT":
            name = self._parse_predname()
            token = self._tokens[self._pos]
            if token.text == "[" and token.kind == "PUNCT" and token.glued:
                self._pos += 1
                keys = tuple(self._separated(self.parse_term))
                self.expect("]")
                return PartitionTerm(name, keys)
            return Constant(name)
        if kind == "PUNCT":
            if token.text == "[|":
                return self.parse_quote()
            if token.text == "{":
                return self._parse_list()
            if token.text == "(":
                self._pos += 1
                inner = self.parse_term()
                self.expect(")")
                return inner
        raise self.error(f"expected a term, found {token.text or 'end of input'!r}")

    def _parse_list(self) -> Constant:
        """A ground list value: ``{v1,v2,...}`` (how tuples print)."""
        self._pos += 1
        values = () if self.at("}") else self._separated(self._list_value)
        self.expect("}")
        return Constant(tuple(values))

    def _list_value(self):
        element = self.parse_term()
        if not isinstance(element, Constant):
            raise self.error("list values must be ground")
        return element.value

    # -- quoted code ---------------------------------------------------------------

    def parse_quote(self) -> Quote:
        self.expect("[|")
        pattern = self._parse_pattern()
        self.expect("|]")
        return Quote(pattern)

    def _parse_pattern(self) -> RulePattern:
        heads = self._separated(self._parse_pattern_atom)
        has_arrow = self.at("<-")
        body: list = []
        if has_arrow:
            self._pos += 1
            body = self._separated(self._parse_pattern_literal)
        if self.at("."):
            self._pos += 1
        return RulePattern(tuple(heads), tuple(body), has_arrow)

    def _star(self) -> Optional[tuple]:
        """``(name,)`` for a star ahead — ``*`` (name None) or a glued
        ``V*`` — consumed; else None."""
        token, nxt = self.peek(), self.peek(1)
        if self.at("*"):
            self._pos += 1
            return (None,)
        if token.kind == "VAR" and nxt.text == "*" and nxt.kind == "PUNCT" \
                and nxt.glued:
            self._pos += 2
            return (token.text,)
        return None

    def _parse_pattern_literal(self):
        star = self._star()
        if star is not None:
            return StarLits(*star)
        token = self.peek()
        if token.kind == "VAR":
            nxt = self.peek(1)
            if nxt.kind == "PUNCT" and nxt.text == "=":
                self.advance()
                self.advance()
                quote = self.parse_quote()
                return EqPattern(Variable(token.text), quote)
        return self._parse_pattern_atom()

    def _parse_pattern_atom(self) -> AtomPattern:
        negated = False
        if self.at("!"):
            self.advance()
            negated = True
        token = self.peek()
        if token.kind == "VAR":
            nxt = self.peek(1)
            if nxt.kind == "PUNCT" and nxt.text == "(" and nxt.glued:
                self.advance()
                self.advance()
                args = self._parse_pattern_args()
                self.expect(")")
                return AtomPattern(Variable(token.text), args, negated)
            # Bare meta-variable matching a whole atom.
            self.advance()
            return AtomPattern(Variable(token.text), None, negated)
        if token.kind == "IDENT":
            name = self._parse_predname()
            self.expect("(")
            args = self._parse_pattern_args()
            self.expect(")")
            return AtomPattern(name, args, negated)
        raise self.error(f"expected an atom pattern, found {token.text!r}")

    def _parse_pattern_args(self) -> tuple:
        return () if self.at(")") \
            else tuple(self._separated(self._parse_pattern_arg))

    def _parse_pattern_arg(self):
        star = self._star()
        return self.parse_term() if star is None else Star(*star)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def _read(source: str, method: Callable, trailing: Optional[str] = None):
    """What the :class:`Parser` method ``method`` reads from ``source``.
    A :class:`ParseError` names the offending source line (see
    errors.py); with ``trailing``, text left over is
    ``ParseError(trailing)``."""
    try:
        parser = Parser(tokenize(source))
        result = method(parser)
    except ParseError as exc:
        enriched = exc.with_source(source)
        if enriched is exc:
            raise
        raise enriched from None
    if trailing is not None and parser.peek().kind != "EOF":
        raise ParseError(trailing)
    return result


def parse_program(source: str) -> Program:
    """Parse a multi-statement source string into a :class:`Program`."""
    return _read(source, Parser.parse_program)


def parse_statements(source: str) -> list[Statement]:
    """Parse source and return the flat statement list."""
    return _read(source, Parser.parse_program).statements


def parse_rule(source: str) -> Rule:
    """Parse exactly one rule (raises if the source is not a single rule)."""
    statements = _read(source, Parser.parse_program).statements
    if len(statements) != 1 or not isinstance(statements[0], Rule):
        raise ParseError(f"expected a single rule, got {len(statements)} statements")
    return statements[0]


def parse_constraint(source: str) -> Constraint:
    """Parse exactly one constraint."""
    statements = _read(source, Parser.parse_program).statements
    if len(statements) != 1 or not isinstance(statements[0], Constraint):
        raise ParseError("expected a single constraint")
    constraint = statements[0]
    return Constraint(constraint.lhs, constraint.rhs, constraint.label,
                      source.strip())


#: :func:`parse_atom`'s message for text that goes on past a whole atom.
TRAILING_ATOM_INPUT = "trailing input after atom"


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. ``"access(P,O,read)"``."""
    return _read(source, Parser.parse_atom, TRAILING_ATOM_INPUT)


def parse_term(source: str) -> Term:
    """Parse a single term."""
    return _read(source, Parser.parse_term, "trailing input after term")
