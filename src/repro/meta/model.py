"""The meta-model (paper Figure 1): rules as data.

Every rule a workspace knows about is reflected into these relations, so
ordinary Datalog rules can do reflection (read program structure) and code
generation (derive ``active(R)`` facts that activate new rules), and
schema constraints over them become *meta-constraints*.

Paper relations::

    rule(R)           head(R,A)        body(R,A)       atom(A)
    functor(A,P)      arg(A,I,T)       negated(A)      term(T)
    variable(X)       vname(X,N)       constant(C)     value(C,V)
    predicate(P)      pname(P,N)

Our deviations (DESIGN.md section 6):

* predicate ids *are* their name strings, so ``functor(A,P)`` binds P to
  the predicate name directly and ``pname(P,P)`` holds — every paper rule
  (``access(U,P,read)``, ``mayRead(U,P)``) works unchanged;
* two extension relations give quoted patterns their intended semantics:
  ``arity(A,N)`` (atom argument count — patterns without a Kleene star
  constrain it) and ``factrule(R)`` (rules with empty bodies — quoted
  *fact* patterns only match these);
* ``quoteterm(T)`` marks argument terms that are themselves quoted code
  (nested templates), which patterns treat as opaque.

``active(R)`` is the activation relation (paper section 3.3): deriving
``active(r)`` turns the reified rule ``r`` into a running rule.  The
workspace watches it after every fixpoint.

Only reflection writes these relations: a fact or a rule head over one
of them is refused wherever it enters (see :data:`ALL_META_PREDS`).
"""

from __future__ import annotations

#: Relations from Figure 1 of the paper.
PAPER_META_PREDS = frozenset({
    "rule", "head", "body", "atom", "functor", "arg", "negated",
    "term", "variable", "vname", "constant", "value",
    "predicate", "pname",
})

#: Our documented extensions.
EXTENSION_META_PREDS = frozenset({"arity", "factrule", "quoteterm"})

#: The activation relation.
ACTIVE_PRED = "active"

#: Placement relation for distribution (paper section 3.5).
PREDNODE_PRED = "predNode"

#: Every relation the registry maintains; user programs may read these but
#: never write them (``active`` and ``predNode`` are not among them —
#: deriving those is exactly how code generation and placement work).
#: The host catalog enforces it: a fact or a rule head over one is
#: refused (``repro.workspace.catalog.ReflectedWriteError``; ``R203`` at
#: the load gate), and said or generated code over one stays inert.  The
#: engine relies on it: reflection adds all of a rule's rows at once, so
#: a quoted pattern fires from the row that carries the rule
#: (``repro.datalog.engine.pattern_groups``).
ALL_META_PREDS = PAPER_META_PREDS | EXTENSION_META_PREDS

#: Source text of the meta-model type declarations, loadable into a
#: workspace to enforce Figure 1 as dynamic constraints (and used by tests
#: to check our reification against the paper's schema).
META_MODEL_DECLARATIONS = """
rule(R) -> .
head(R,A) -> rule(R), atom(A).
body(R,A) -> rule(R), atom(A).
atom(A) -> .
functor(A,P) -> atom(A), predicate(P).
arg(A,I,T) -> atom(A), int(I), term(T).
negated(A) -> atom(A).
term(T) -> .
variable(X) -> term(X).
vname(X,N) -> variable(X), string(N).
constant(C) -> term(C).
value(C,V) -> constant(C).
predicate(P) -> .
pname(P,N) -> predicate(P), string(N).
arity(A,N) -> atom(A), int(N).
factrule(R) -> rule(R).
quoteterm(T) -> term(T).
"""
