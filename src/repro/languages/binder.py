"""The Binder trust-management language on LBTrust (paper section 5.1).

Binder (DeTreville 2002) is Datalog plus contexts and ``says``::

    access(P,O,read) :- good(P).
    access(P,O,read) :- bob says access(P,O,read).

This front-end compiles Binder-syntax programs to the LBTrust core:
``X says atom`` body literals become ``says(X,me,[|atom|])`` quoted-
pattern joins (exactly the paper's bex1' translation), and each Binder
context is a principal's workspace.  Authentication is whatever scheme the
system is configured with — Binder's signed certificates correspond to the
``rsa`` scheme.

Two ways for derived tuples to cross contexts:

* :meth:`BinderContext.publish` — a push rule
  ``says(me,to,[|p(X…)|]) <- p(X…)`` (the bottom-up reading);
* :func:`install_pull` — the section 5.1 **top-down to bottom-up
  rewrite**: pull0 turns every import dependency of an active rule into a
  ``request`` shipped to the source, and pull1 answers requests with the
  matching local facts.  The paper's printed pull1 is schematic ("responds
  to a request with the desired data"); we realize "the desired data"
  with a ``factsmatching`` builtin that enumerates local facts matching
  the requested pattern and returns them as interned fact-rules.

Paper rules b1/b2 are not range-restricted (``O`` is free in b1); Binder
tolerates this, strict Datalog does not.  ``universe_guard`` optionally
names a unary predicate used to guard such head variables; without it the
engine raises :class:`SafetyError` on unsafe rules.
"""

from __future__ import annotations

from typing import Optional, Union

from ..datalog.errors import ParseError, WorkspaceError
from ..datalog.lexer import Token, tokenize
from ..datalog.parser import Parser
from ..datalog.terms import (
    ME,
    Atom,
    AtomPattern,
    Constant,
    Literal,
    PatternValue,
    Quote,
    Rule,
    RulePattern,
    RuleRef,
    Star,
    Term,
    Variable,
)
from ..workspace.workspace import Workspace

#: pull0 — the paper's listing: any active rule that imports from X
#: produces a request to X for the imported pattern.
PULL0 = """
pull0: says(me,X,[| request(R). |]) <-
       active([| A <- says(X,me,R), A*. |]), X != me.
"""

#: pull1 — answer a request with every matching local fact.
PULL1 = """
pull1: says(me,X,F) <- says(X,me,Q), Q = [| request(R). |],
       factsmatching(R,F).
"""


class BinderParser(Parser):
    """Extends the core parser with ``X says atom`` body literals."""

    def _parse_basic(self):
        token = self.peek()
        nxt = self.peek(1)
        if token.kind in ("IDENT", "VAR") and nxt.kind == "IDENT" \
                and nxt.text == "says":
            speaker: Term
            if token.kind == "IDENT":
                speaker = Constant(token.text)
            else:
                speaker = Variable(token.text)
            self.advance()
            self.advance()
            atom = self.parse_atom()
            return Literal(_says_import(speaker, atom), span=atom.span)
        return super()._parse_basic()


def _says_import(speaker: Term, atom: Atom) -> Atom:
    """``X says p(args)`` → ``says(X, me, [| p(args). |])``."""
    pattern = RulePattern(
        heads=(AtomPattern(atom.pred, tuple(atom.all_args)),),
        body=(),
        has_arrow=False,
    )
    return Atom("says", (speaker, Constant(ME), Quote(pattern)),
                span=atom.span)


def parse_binder(source: str) -> list:
    """Parse a Binder program (``:-`` or ``<-`` rules, says literals)."""
    try:
        tokens = [_arrow(t) for t in tokenize(source)]
        return BinderParser(tokens).parse_program().statements
    except ParseError as exc:
        raise exc.with_source(source) from None


def _arrow(token: Token) -> Token:
    if token.kind == "PUNCT" and token.text == ":-":
        return Token("PUNCT", "<-", token.line, token.column, token.glued)
    return token


class BinderContext:
    """One Binder context, hosted on a principal's workspace."""

    def __init__(self, principal_or_workspace,
                 universe_guard: Optional[str] = None) -> None:
        workspace = getattr(principal_or_workspace, "workspace",
                            principal_or_workspace)
        if not isinstance(workspace, Workspace):
            raise WorkspaceError("BinderContext needs a Principal or Workspace")
        self.principal = principal_or_workspace
        self.workspace = workspace
        self.universe_guard = universe_guard

    def load(self, source: str) -> None:
        """Load a Binder-syntax program into this context."""
        statements = parse_binder(source)
        with self.workspace.transaction():
            for statement in statements:
                if isinstance(statement, Rule) and not statement.is_fact():
                    statement = self._guard(statement)
                self.workspace._install(statement)

    def _guard(self, rule: Rule) -> Rule:
        """Guard head variables unbound by the body with the universe pred."""
        if self.universe_guard is None:
            return rule
        bound: set[str] = set()
        for item in rule.body:
            for variable in item.variables():
                bound.add(variable.name)
        extra = []
        seen: set[str] = set()
        for head in rule.heads:
            for variable in head.variables():
                if variable.name not in bound and variable.name not in seen:
                    seen.add(variable.name)
                    extra.append(Literal(Atom(self.universe_guard,
                                              (Variable(variable.name),))))
        if not extra:
            return rule
        return Rule(rule.heads, rule.body + tuple(extra), rule.agg, rule.label)

    # ------------------------------------------------------------------

    def publish(self, pred: str, arity: int, to: Union[str, object]) -> None:
        """Push derived tuples of ``pred`` to another context (exp-style)."""
        to_name = getattr(to, "name", to)
        variables = ",".join(f"X{i}" for i in range(arity))
        self.workspace.add_rule(
            f'says(me,"{to_name}",[| {pred}({variables}). |]) <- {pred}({variables}).'
        )

    def install_pull(self) -> None:
        """Install the top-down→bottom-up rewrite (pull0 + pull1)."""
        register_factsmatching(self.workspace)
        self.workspace.load(PULL0)
        self.workspace.load(PULL1)


def install_pull(workspace_or_principal) -> None:
    """Module-level convenience: install pull0/pull1 on a context."""
    BinderContext(workspace_or_principal).install_pull()


# ---------------------------------------------------------------------------
# The factsmatching builtin (pull1's "desired data")
# ---------------------------------------------------------------------------

def register_factsmatching(workspace: Workspace) -> None:
    """Register ``factsmatching`` at ``workspace`` alone: into a registry
    of its own, since a system's principals share one."""
    if "factsmatching" in workspace.builtins:
        return

    def bi_factsmatching(ws, requested):
        return list(_facts_matching(ws, requested))

    workspace.own_builtins().register("factsmatching", "io",
                                      bi_factsmatching, needs_context=True,
                                      volatile=True)


def _facts_matching(workspace: Workspace, requested):
    """Yield fact-rule refs for local facts matching a requested pattern."""
    if isinstance(requested, RuleRef):
        # A ground request: answer it iff the exact fact holds locally.
        rule = workspace.registry.rule_of(requested)
        if rule.is_fact() and len(rule.heads) == 1:
            head = rule.heads[0]
            values = tuple(
                term.value for term in head.all_args
                if isinstance(term, Constant)
            )
            relation = workspace.relation(head.pred)
            if len(values) == head.arity and relation is not None \
                    and values in relation:
                yield (requested,)
        return
    if not isinstance(requested, PatternValue):
        return
    pattern = requested.pattern
    if pattern.has_arrow or pattern.body or len(pattern.heads) != 1:
        return
    head = pattern.heads[0]
    if not isinstance(head.functor, str) or head.args is None:
        return
    args = head.args
    has_star = any(isinstance(a, Star) for a in args)
    relation = workspace.relation(head.functor)
    for fact in relation.tuples if relation is not None else ():
        if not has_star and len(fact) != len(args):
            continue
        if len(fact) < sum(1 for a in args if not isinstance(a, Star)):
            continue
        bindings: dict[str, object] = {}
        ok = True
        for position, arg in enumerate(args):
            if isinstance(arg, Star):
                break
            value = fact[position]
            if isinstance(arg, Constant):
                if arg.value != value:
                    ok = False
                    break
            elif isinstance(arg, Variable):
                existing = bindings.get(arg.name)
                if existing is None:
                    bindings[arg.name] = value
                elif existing != value:
                    ok = False
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        fact_rule = Rule((Atom(head.functor,
                               tuple(Constant(v) for v in fact)),), ())
        yield (workspace.registry.intern(fact_rule),)
