"""SeNDlog — Secure Network Datalog on LBTrust (paper section 5.2).

SeNDlog unifies Binder with Network Datalog: rules run *at* a context,
import with ``N says p(...)`` and export with ``p(...)@X`` heads::

    At S:
    s1: reachable(S,D) :- neighbor(S,D).
    s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).

Compilation follows the paper's ls1/ls2 translation exactly:

* the block's context variable (``S``) becomes ``me``;
* an ``@Z`` head becomes ``says(me,Z,[| p(args). |])`` — export;
* ``W says p(args)`` becomes a ``says(W,me,[| p(args). |])`` pattern join
  — authenticated import (the scheme the system is configured with).

Placement (ld1/ld2) is installed by the System; modifying the ``loc``
table redistributes principals over physical nodes without touching any
protocol rule — location transparency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..datalog.errors import ParseError
from ..datalog.lexer import Token, tokenize
from ..datalog.terms import (
    ME,
    Atom,
    AtomPattern,
    Constant,
    Quote,
    Rule,
    RulePattern,
    Statement,
    Term,
    Variable,
    substitute,
)
from .binder import BinderParser


@dataclass
class SendlogBlock:
    """One ``At X:`` block: the context term and its rules."""

    context: Union[str, Variable]
    statements: list = field(default_factory=list)

    @property
    def is_generic(self) -> bool:
        """True when the context is a variable (installed at *every*
        principal, each reading it as itself)."""
        return isinstance(self.context, Variable)


class _SendlogParser(BinderParser):
    """Binder syntax plus ``@dest`` head annotations."""

    def parse_head_atom(self):
        atom = self.parse_atom()
        dest = None
        if self.at("@"):
            self.advance()
            token = self.advance()
            if token.kind == "IDENT":
                dest = Constant(token.text)
            elif token.kind == "VAR":
                dest = Variable(token.text)
            elif token.kind == "KEYWORD" and token.text == "me":
                dest = Constant(ME)
            else:
                raise ParseError("expected a destination after '@'",
                                 token.line, token.column)
        return atom, dest


def parse_sendlog(source: str) -> list[SendlogBlock]:
    """Split a SeNDlog program into ``At`` blocks of compiled statements."""
    try:
        return _parse_sendlog(source)
    except ParseError as exc:
        raise exc.with_source(source) from None


def _parse_sendlog(source: str) -> list[SendlogBlock]:
    tokens = tokenize(source)
    blocks: list[SendlogBlock] = []
    index = 0

    def at_block_header(i: int) -> bool:
        return (tokens[i].kind in ("IDENT", "VAR") and tokens[i].text == "At"
                and tokens[i + 1].kind in ("IDENT", "VAR")
                and tokens[i + 2].kind == "PUNCT" and tokens[i + 2].text == ":")

    while tokens[index].kind != "EOF":
        if not at_block_header(index):
            raise ParseError("SeNDlog programs start blocks with 'At X:'",
                             tokens[index].line, tokens[index].column)
        context_token = tokens[index + 1]
        context: Union[str, Variable]
        if context_token.kind == "VAR":
            context = Variable(context_token.text)
        else:
            context = context_token.text
        index += 3
        # collect tokens until the next block header / EOF
        body: list[Token] = []
        while tokens[index].kind != "EOF" and not at_block_header(index):
            body.append(tokens[index])
            index += 1
        eof = tokens[index]
        block_tokens = body + [Token("EOF", "", eof.line, eof.column, False)]
        block = SendlogBlock(context)
        block.statements = _parse_block(block_tokens, context)
        blocks.append(block)
    return blocks


def _parse_block(tokens: list[Token], context) -> list[Statement]:
    from .binder import _arrow

    parser = _SendlogParser([_arrow(t) for t in tokens])
    statements: list[Statement] = []
    while parser.peek().kind != "EOF":
        label = parser._try_label()
        heads = [parser.parse_head_atom()]
        while parser.at(","):
            parser.advance()
            heads.append(parser.parse_head_atom())
        body_formula = None
        if parser.at("<-"):
            parser.advance()
            body_formula = parser.parse_formula()
        parser.expect(".")
        statements.extend(_compile_rule(heads, body_formula, label, context))
    return statements


def _compile_rule(heads, body_formula, label, context) -> list[Rule]:
    from ..datalog.logic import to_dnf

    # p(args)@Z  →  says(me, Z, [| p(args). |])   (paper ls2)
    head_atoms = tuple(
        atom if dest is None else Atom("says", (
            Constant(ME), dest,
            Quote(RulePattern((AtomPattern(atom.pred, atom.all_args),)))),
            span=atom.span)
        for atom, dest in heads)
    here = Constant(ME)

    def localize(term: Term) -> Term:
        # a named context is a str, which no term equals
        return here if term == context else term

    return [
        substitute(Rule(head_atoms, tuple(alternative), None, label,
                        span=head_atoms[0].span), localize)
        for alternative in (to_dnf(body_formula) if body_formula is not None
                            else ((),))]


def install_sendlog(system_or_principals, source: str) -> None:
    """Install a SeNDlog program.

    Generic blocks (``At S:`` with a variable) load into every principal;
    named blocks (``At alice:``) load into that principal only.
    """
    principals = getattr(system_or_principals, "principals", None)
    if principals is not None:
        principal_map = dict(principals)
    else:
        principal_map = {p.name: p for p in system_or_principals}
    for block in parse_sendlog(source):
        if block.is_generic:
            targets = list(principal_map.values())
        else:
            name = block.context
            if name not in principal_map:
                raise ParseError(f"unknown SeNDlog context {name!r}")
            targets = [principal_map[name]]
        for principal in targets:
            workspace = principal.workspace
            with workspace.transaction():
                for statement in block.statements:
                    workspace._install(statement)
