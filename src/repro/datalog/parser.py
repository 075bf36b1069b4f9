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

from typing import Optional

from .errors import ParseError
from .lexer import Token, tokenize
from .logic import And, Formula, Not, conj, disj, dnf_body, to_dnf
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
    Span,
    Star,
    StarLits,
    Statement,
    Term,
    Variable,
    fresh_var,
)

_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Parser:
    """One-pass recursive-descent parser over a token list."""

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

    def at_keyword(self, word: str) -> bool:
        token = self._tokens[self._pos]
        return token.text == word and token.kind == "KEYWORD"

    def expect(self, text: str) -> Token:
        if not self.at(text):
            token = self.peek()
            raise ParseError(
                f"expected {text!r}, found {token.text or 'end of input'!r}",
                token.line, token.column,
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    # -- program / statements -------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while self.peek().kind != "EOF":
            program.statements.extend(self.parse_statement())
        return program

    def parse_statement(self) -> list[Statement]:
        start = self.peek()
        span = Span(start.line, start.column)
        label = self._try_label()
        lhs = self.parse_formula()
        if self.at("."):
            self.advance()
            return self._make_facts(lhs, label, span)
        if self.at("<-"):
            self.advance()
            agg = self._try_aggregate()
            body = self.parse_formula()
            self.expect(".")
            return self._make_rules(lhs, body, agg, label, span)
        if self.at("->"):
            self.advance()
            rhs: Optional[Formula] = None
            if not self.at("."):
                rhs = self.parse_formula()
            self.expect(".")
            return [self._make_constraint(lhs, rhs, label, span)]
        raise self.error("expected '.', '<-' or '->' after formula")

    def _try_label(self) -> Optional[str]:
        token = self.peek()
        nxt = self.peek(1)
        after = self.peek(2)
        if (token.kind == "IDENT" and nxt.kind == "PUNCT" and nxt.text == ":"
                and not after.glued):
            self.advance()
            self.advance()
            return token.text
        return None

    def _heads_from_formula(self, formula: Formula) -> tuple:
        items = formula.parts if isinstance(formula, And) else (formula,)
        heads = []
        for item in items:
            if isinstance(item, Literal) and not item.negated:
                heads.append(item.atom)
            else:
                raise self.error(f"rule head must be positive atoms, found {item!r}")
        return tuple(heads)

    def _make_facts(self, formula: Formula, label: Optional[str],
                    span: Optional[Span] = None) -> list[Statement]:
        heads = self._heads_from_formula(formula)
        return [Rule(heads, (), None, label, span=span)]

    def _make_rules(self, head_formula: Formula, body: Formula,
                    agg: Optional[Aggregate], label: Optional[str],
                    span: Optional[Span] = None) -> list[Statement]:
        heads = self._heads_from_formula(head_formula)
        alternatives = dnf_body(body)
        return [Rule(heads, alt, agg, label, span=span) for alt in alternatives]

    def _make_constraint(self, lhs: Formula, rhs: Optional[Formula],
                         label: Optional[str],
                         span: Optional[Span] = None) -> Constraint:
        lhs_dnf = to_dnf(lhs)
        rhs_dnf = to_dnf(rhs) if rhs is not None else ()
        return Constraint(lhs_dnf, rhs_dnf, label, span=span)

    # -- aggregation -------------------------------------------------------------

    def _try_aggregate(self) -> Optional[Aggregate]:
        if not self.at_keyword("agg"):
            return None
        self.advance()
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
        parts = [self._parse_disjunct()]
        while self.at(";"):
            self.advance()
            parts.append(self._parse_disjunct())
        return disj(parts)

    def _parse_disjunct(self) -> Formula:
        parts = [self._parse_conjunct()]
        while self.at(","):
            self.advance()
            parts.append(self._parse_conjunct())
        return conj(parts)

    def _parse_conjunct(self) -> Formula:
        if self.at("!"):
            self.advance()
            return Not(self._parse_conjunct())
        if self.at("(") and not self._at_parenthesised_term():
            self.advance()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        return self._parse_basic()

    def _at_parenthesised_term(self) -> bool:
        """True when the ``(`` ahead opens a comparison's first term —
        ``(X + 1) * 2 = Y``, which is how the printer writes an
        arithmetic left side — rather than a group of literals: the
        token after its matching ``)`` is an operator."""
        depth, offset = 0, 0
        while True:
            token = self.peek(offset)
            if token.kind == "EOF":
                return False
            if token.kind == "PUNCT" and token.text in ("(", ")"):
                depth += 1 if token.text == "(" else -1
                if depth == 0:
                    after = self.peek(offset + 1)
                    return after.kind == "PUNCT" and after.text in (
                        *_COMPARE_OPS, "+", "-", "*", "/", "%")
            offset += 1

    def _parse_basic(self) -> Formula:
        """An atom, or a comparison between two terms."""
        if self._at_atom_start():
            atom = self.parse_atom()
            return Literal(atom, span=atom.span)
        start = self.peek()
        left = self.parse_term()
        op_token = self.peek()
        if op_token.kind == "PUNCT" and op_token.text in _COMPARE_OPS:
            self.advance()
            right = self.parse_term()
            return Comparison(op_token.text, left, right,
                              span=Span(start.line, start.column))
        raise self.error(f"expected comparison operator, found {op_token.text!r}")

    def _at_atom_start(self) -> bool:
        """True when the next tokens begin a relational atom ``name(...)``."""
        token = self.peek()
        if token.kind != "IDENT":
            return False
        offset = 1
        # Qualified name segments: glued ':' IDENT pairs.
        while (self.peek(offset).kind == "PUNCT" and self.peek(offset).text == ":"
               and self.peek(offset).glued
               and self.peek(offset + 1).kind == "IDENT"
               and self.peek(offset + 1).glued):
            offset += 2
        nxt = self.peek(offset)
        if nxt.kind == "PUNCT" and nxt.text == "[" and nxt.glued:
            # Partitioned atom head: name[keys](args).  Scan past the keys.
            depth = 1
            offset += 1
            while depth > 0:
                token_k = self.peek(offset)
                if token_k.kind == "EOF":
                    return False
                if token_k.kind == "PUNCT" and token_k.text == "[":
                    depth += 1
                elif token_k.kind == "PUNCT" and token_k.text == "]":
                    depth -= 1
                offset += 1
            nxt = self.peek(offset)
            return nxt.kind == "PUNCT" and nxt.text == "("
        return nxt.kind == "PUNCT" and nxt.text == "(" and nxt.glued

    def _parse_predname(self) -> str:
        token = self.advance()
        if token.kind != "IDENT":
            raise self.error(f"expected predicate name, found {token.text!r}")
        name = token.text
        while (self.peek().kind == "PUNCT" and self.peek().text == ":"
               and self.peek().glued
               and self.peek(1).kind == "IDENT" and self.peek(1).glued):
            self.advance()
            name += ":" + self.advance().text
        return name

    def parse_atom(self) -> Atom:
        start = self.peek()
        name = self._parse_predname()
        keys: tuple = ()
        if self.at("[") and self.peek().glued:
            self.advance()
            keys = tuple(self._parse_term_list("]"))
            self.expect("]")
        self.expect("(")
        args: tuple = ()
        if not self.at(")"):
            args = tuple(self._parse_term_list(")"))
        self.expect(")")
        return Atom(name, args, keys, span=Span(start.line, start.column))

    def _parse_term_list(self, closer: str) -> list[Term]:
        terms = [self.parse_term()]
        while self.at(","):
            self.advance()
            terms.append(self.parse_term())
        return terms

    # -- terms -----------------------------------------------------------------

    def parse_term(self) -> Term:
        return self._parse_additive()

    def _parse_additive(self) -> Term:
        left = self._parse_multiplicative()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            right = self._parse_multiplicative()
            left = Expr(op, left, right)
        return left

    def _parse_multiplicative(self) -> Term:
        left = self._parse_unary()
        while self.at("*") or self.at("/") or self.at("%"):
            op = self.advance().text
            right = self._parse_unary()
            left = Expr(op, left, right)
        return left

    def _parse_unary(self) -> Term:
        if self.at("-"):
            self.advance()
            inner = self._parse_unary()
            if isinstance(inner, Constant) and isinstance(inner.value, (int, float)):
                return Constant(-inner.value)
            return Expr("-", Constant(0), inner)
        return self._parse_primary()

    def _parse_primary(self) -> Term:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return Constant(int(token.text))
        if token.kind == "FLOAT":
            self.advance()
            return Constant(float(token.text))
        if token.kind == "STRING":
            self.advance()
            return Constant(token.text)
        if token.kind == "HEX":
            self.advance()
            return Constant(bytes.fromhex(token.text[2:]))
        if token.kind == "REFID":
            # $r<N>: a rule reference.  Registry-scoped — meaningful only
            # where the producing registry is shared (as in one LBTrust
            # system); the wire codec documents this limitation.
            from .terms import RuleRef
            self.advance()
            return Constant(RuleRef(int(token.text[2:])))
        if token.kind == "KEYWORD":
            if token.text == "me":
                self.advance()
                return Constant(ME)
            if token.text == "true":
                self.advance()
                return Constant(True)
            if token.text == "false":
                self.advance()
                return Constant(False)
            raise self.error(f"keyword {token.text!r} cannot be a term")
        if token.kind == "VAR":
            self.advance()
            if token.text == "_":
                return fresh_var("_Anon")
            return Variable(token.text)
        if token.kind == "IDENT":
            name = self._parse_predname()
            if self.at("[") and self.peek().glued:
                self.advance()
                keys = tuple(self._parse_term_list("]"))
                self.expect("]")
                return PartitionTerm(name, keys)
            return Constant(name)
        if self.at("[|"):
            return self.parse_quote()
        if self.at("{"):
            # A ground list value: {v1,v2,...} (how tuples print).
            self.advance()
            values = []
            if not self.at("}"):
                while True:
                    element = self.parse_term()
                    if not isinstance(element, Constant):
                        raise self.error("list values must be ground")
                    values.append(element.value)
                    if not self.at(","):
                        break
                    self.advance()
            self.expect("}")
            return Constant(tuple(values))
        if self.at("("):
            self.advance()
            inner = self.parse_term()
            self.expect(")")
            return inner
        raise self.error(f"expected a term, found {token.text or 'end of input'!r}")

    # -- quoted code ---------------------------------------------------------------

    def parse_quote(self) -> Quote:
        self.expect("[|")
        pattern = self._parse_pattern()
        self.expect("|]")
        return Quote(pattern)

    def _parse_pattern(self) -> RulePattern:
        heads = [self._parse_pattern_atom()]
        while self.at(","):
            self.advance()
            heads.append(self._parse_pattern_atom())
        has_arrow = False
        body: list = []
        if self.at("<-"):
            has_arrow = True
            self.advance()
            body.append(self._parse_pattern_literal())
            while self.at(","):
                self.advance()
                body.append(self._parse_pattern_literal())
        if self.at("."):
            self.advance()
        return RulePattern(tuple(heads), tuple(body), has_arrow)

    def _parse_pattern_literal(self):
        token = self.peek()
        if self.at("*"):
            self.advance()
            return StarLits(None)
        if token.kind == "VAR":
            nxt = self.peek(1)
            if nxt.kind == "PUNCT" and nxt.text == "*" and nxt.glued:
                self.advance()
                self.advance()
                return StarLits(token.text)
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
        if self.at(")"):
            return ()
        args = [self._parse_pattern_arg()]
        while self.at(","):
            self.advance()
            args.append(self._parse_pattern_arg())
        return tuple(args)

    def _parse_pattern_arg(self):
        token = self.peek()
        if token.kind == "VAR":
            nxt = self.peek(1)
            if nxt.kind == "PUNCT" and nxt.text == "*" and nxt.glued:
                self.advance()
                self.advance()
                return Star(token.text)
        if self.at("*"):
            self.advance()
            return Star(None)
        return self.parse_term()


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def _with_excerpt(exc: ParseError, source: str) -> ParseError:
    """Enrich a ParseError with the offending source line (see errors.py)."""
    return exc.with_source(source)


def parse_program(source: str) -> Program:
    """Parse a multi-statement source string into a :class:`Program`."""
    try:
        return Parser(tokenize(source)).parse_program()
    except ParseError as exc:
        enriched = _with_excerpt(exc, source)
        if enriched is exc:
            raise
        raise enriched from None


def parse_statements(source: str) -> list[Statement]:
    """Parse source and return the flat statement list."""
    return parse_program(source).statements


def parse_rule(source: str) -> Rule:
    """Parse exactly one rule (raises if the source is not a single rule)."""
    statements = parse_statements(source)
    if len(statements) != 1 or not isinstance(statements[0], Rule):
        raise ParseError(f"expected a single rule, got {len(statements)} statements")
    return statements[0]

def parse_constraint(source: str) -> Constraint:
    """Parse exactly one constraint."""
    statements = parse_statements(source)
    if len(statements) != 1 or not isinstance(statements[0], Constraint):
        raise ParseError("expected a single constraint")
    constraint = statements[0]
    return Constraint(constraint.lhs, constraint.rhs, constraint.label,
                      source.strip())


#: :func:`parse_atom`'s message for text that goes on past a whole atom.
TRAILING_ATOM_INPUT = "trailing input after atom"


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. ``"access(P,O,read)"``."""
    try:
        parser = Parser(tokenize(source))
        atom = parser.parse_atom()
    except ParseError as exc:
        enriched = _with_excerpt(exc, source)
        if enriched is exc:
            raise
        raise enriched from None
    if parser.peek().kind != "EOF":
        raise ParseError(TRAILING_ATOM_INPUT)
    return atom


def parse_term(source: str) -> Term:
    """Parse a single term."""
    try:
        parser = Parser(tokenize(source))
        term = parser.parse_term()
    except ParseError as exc:
        enriched = _with_excerpt(exc, source)
        if enriched is exc:
            raise
        raise enriched from None
    if parser.peek().kind != "EOF":
        raise ParseError("trailing input after term")
    return term
