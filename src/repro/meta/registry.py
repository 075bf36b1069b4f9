"""Rule interning and reification: the bridge between rules and data.

The :class:`RuleRegistry` is shared by every workspace of an LBTrust
system, every shard of a ``Cluster`` and the batcher that ships their
rows (the paper's demonstration likewise runs all principals inside one
LogicBlox instance).  It provides:

* **interning** — structurally identical rules (up to variable renaming)
  map to the same :class:`repro.datalog.terms.RuleRef`; the canonical text
  is what authentication schemes sign, so certificates are independent of
  variable naming;
* **content addressing** — the canonical text is also the rule's name:
  :meth:`RuleRegistry.intern_text`, the one place rule text becomes a
  ref, answers a text it already holds from a dict and parses only text
  it has not seen (a ``says`` from a speaker, a rule value off the
  wire).  Printing then parsing a canonical text yields that text again
  (``tests/net/test_transport_roundtrip.py`` generates rules to hold the
  printer and the parser to it), so the shortcut returns the ref a
  parse would;
* **reification** — the meta-model facts (Figure 1) describing a rule,
  computed at the rule's first read (:meth:`RuleRegistry.reflection`)
  with the relations they populate, and kept; the other refs they name
  are found at interning, from the rule's constants.  A workspace that
  encounters the ref asserts those of the relations something in it
  reads, so a rule no workspace reads is interned and never reified;
* **template instantiation** — code generation: a head-position quote is
  filled with its bindings (:func:`substitute_bindings`, the same
  :func:`~repro.datalog.terms.substitute` walk that resolves ``me``) and
  becomes a new interned rule (paper section 3.3: "if the evaluation of a
  rule puts new facts into the meta-model, then those new facts turn into
  a new rule which must itself be evaluated");
* **program images** — one :class:`~repro.meta.image.ProgramImage` per
  program text its workspaces have installed (:meth:`image`,
  :meth:`keep`, a bounded table): the text parsed once, the gate's last
  report with the catalog it was checked against;
* **compiled rules** — :meth:`RuleRegistry.compiled`, a ref's rule
  compiled and checked safe once per builtins registry for every
  workspace that activates it, kept with the ref's other derived data;
* **term texts** — :attr:`RuleRegistry.term_texts`, each term's wire
  entry text, encoded the first time any wire ships the term
  (:func:`repro.net.transport.term_texts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from ..datalog.database import TermInterner
from ..datalog.errors import ReproError, SafetyError, WorkspaceError
from ..datalog.parser import parse_statements
from ..datalog.pretty import canonical_rule
from ..datalog.runtime import check_rule_safety
from ..datalog.terms import (
    Atom,
    AtomPattern,
    Comparison,
    Constant,
    EqPattern,
    Expr,
    Literal,
    PatternValue,
    Quote,
    Rule,
    RulePattern,
    RuleRef,
    Star,
    Term,
    Variable,
    substitute,
)
from .image import MAX_IMAGES, ProgramImage
from .quote import compile_rule, resolve_me_rule

MetaFact = tuple  # (pred_name, fact_tuple)


@dataclass
class InternedRule:
    """Registry bookkeeping for one interned rule."""

    ref: RuleRef
    rule: Rule
    canonical: str
    #: the other refs ``meta_facts`` name, reified together with this one
    nested: tuple = ()
    #: the Figure 1 facts (None until the first :meth:`~RuleRegistry.reflection`)
    meta_facts: Optional[list] = None
    #: the relations ``meta_facts`` populate (one shared set per shape)
    relations: Optional[frozenset] = None
    #: builtins signature -> the rule compiled and checked safe under it
    compiled: dict = field(default_factory=dict)


class RuleRegistry:
    """Interns rules and produces their meta-model reification: one
    system's two content-address tables, rules by canonical text and
    ground terms by typed value (:attr:`terms`, every database's
    interner)."""

    def __init__(self) -> None:
        self._by_text: dict[str, InternedRule] = {}
        self._by_ref: dict[RuleRef, InternedRule] = {}
        self._relation_sets: dict[frozenset, frozenset] = {}
        self._next_id = 1
        self.terms = TermInterner()
        #: {id of :attr:`terms`: its wire entry text}, filled by
        #: :func:`repro.net.transport.term_texts`; append-only like the
        #: interner it mirrors, and bounded by it
        self.term_texts: dict[int, str] = {}
        #: source text -> the image of a text installed here (:meth:`keep`)
        self._images: dict[str, ProgramImage] = {}

    # -- program images -----------------------------------------------------

    def image(self, source: str) -> ProgramImage:
        """The image of a program text: the kept one, or a new parse (the
        parser's ``ParseError`` for text it refuses)."""
        image = self._images.get(source)
        if image is None:
            image = ProgramImage(source, parse_statements(source))
        return image

    def keep(self, image: ProgramImage) -> None:
        """Keep ``image``, whose install just succeeded, for the next
        install of its text (past :data:`MAX_IMAGES`, the oldest goes)."""
        if image.source not in self._images:
            if len(self._images) >= MAX_IMAGES:
                del self._images[next(iter(self._images))]
            self._images[image.source] = image

    # -- interning ----------------------------------------------------------

    def intern_text(self, text: str, me: Optional[str] = None) -> RuleRef:
        """The ref of one rule given as source text — the only way rule
        text becomes a :class:`RuleRef`.

        A canonical text this registry already holds is its content
        address: the ref comes back with no lexer, parser or
        reification.  Any other text must parse to exactly one rule
        (``WorkspaceError`` otherwise; the parser's ``ParseError`` for
        text it refuses), has ``me`` resolved to the speaker named by
        ``me`` when one is given, and is interned.
        """
        entry = self._by_text.get(text)
        if entry is not None:
            return entry.ref
        statements = parse_statements(text)
        if len(statements) != 1 or not isinstance(statements[0], Rule):
            raise WorkspaceError("expected exactly one rule or fact statement")
        rule = statements[0]
        if me is not None and "me" in text:    # no keyword without the word
            rule = resolve_me_rule(rule, me)
        return self.intern(rule)

    def intern(self, rule: Rule) -> RuleRef:
        """Intern a rule; structurally equal rules share one ref.

        The rule must be ``me``-free: principals resolve ``me`` before any
        rule becomes data (otherwise a rule's meaning would change as it
        crossed contexts); :func:`canonical_rule` refuses it otherwise.
        """
        canonical = canonical_rule(rule)
        entry = self._by_text.get(canonical)
        if entry is None:
            ref = RuleRef(self._next_id)
            self._next_id += 1
            entry = InternedRule(ref, rule, canonical)
            # a constant argument's value is the only place another ref
            # can be (the ``value`` facts reification makes of it)
            atoms = rule.heads + tuple([item.atom for item in rule.body
                                        if isinstance(item, Literal)])
            nested = set()
            for atom in atoms:
                for term in atom.all_args:
                    if isinstance(term, Constant) and isinstance(
                            term.value, (RuleRef, tuple)):
                        nested.update(self.refs_in_value(term.value))
            nested.discard(ref)
            if nested:
                entry.nested = tuple(nested)
            self._by_text[canonical] = entry
            self._by_ref[ref] = entry
        return entry.ref

    def rule_of(self, ref: RuleRef) -> Rule:
        return self._entry(ref).rule

    def compiled(self, ref: RuleRef, builtins) -> Rule:
        """``ref``'s rule compiled under ``builtins`` and checked safe
        (``SafetyError`` if it is not): made at the first workspace to
        activate it and read by the rest.  Each workspace normalizes it
        into engine rules of its own, so a plan is ordered against the
        relations of the workspace it runs in (a ground fact is never
        compiled: a workspace holds the rows it states)."""
        entry = self._entry(ref)
        signature = builtins.signature()
        compiled = entry.compiled.get(signature)
        if compiled is None:
            compiled = compile_rule(entry.rule, principal=None,
                                    builtins=builtins)
            check_rule_safety(compiled, builtins)
            entry.compiled[signature] = compiled
        return compiled

    def canonical_text(self, ref: RuleRef) -> str:
        """The canonical bytes-source for signing and wire transfer."""
        return self._entry(ref).canonical

    def meta_facts(self, ref: RuleRef) -> list[MetaFact]:
        return self.reflection(ref)[0]

    def reflection(self, ref: RuleRef) -> tuple[list, frozenset, tuple]:
        """``ref``'s meta facts, the relations they populate, and the
        other refs they name: reified here at the first call."""
        entry = self._entry(ref)
        if entry.meta_facts is None:
            facts = _reify(ref, entry.rule)
            relations = frozenset([pred for pred, _fact in facts])
            entry.relations = self._relation_sets.setdefault(relations,
                                                             relations)
            entry.meta_facts = facts
        return entry.meta_facts, entry.relations, entry.nested

    def nested(self, ref: RuleRef) -> tuple:
        """The other refs ``ref``'s meta facts name, without reifying it."""
        return self._entry(ref).nested

    def refs_in_value(self, value) -> Iterable[RuleRef]:
        """Every RuleRef reachable inside a ground value (tuples nest)."""
        if isinstance(value, RuleRef):
            yield value
        elif isinstance(value, tuple):
            for element in value:
                yield from self.refs_in_value(element)

    def __len__(self) -> int:
        return len(self._by_ref)

    def _entry(self, ref: RuleRef) -> InternedRule:
        entry = self._by_ref.get(ref)
        if entry is None:
            raise ReproError(f"unknown rule reference {ref!r}")
        return entry

    # -- template instantiation (code generation) ------------------------------

    def instantiate_template(self, quote: Quote, bindings: dict,
                             eval_term: Callable[[Term, dict], object]
                             ) -> Union[RuleRef, PatternValue]:
        """Turn a head-position quote into a concrete rule and intern it.

        Bound variables are substituted with their values (becoming
        constants); unbound variables remain variables of the generated
        rule.  Nested ``V = [| … |]`` patterns survive substitution as
        patterns — they compile when the generated rule is activated.
        A fact template still open once filled (a pull request's payload,
        a delegated permission pattern) is returned as a pattern value.
        """
        filled = substitute_bindings(quote.pattern, bindings, eval_term)
        if is_open_fact_pattern(filled):
            return PatternValue(filled)
        return self.intern(instantiate_pattern(filled, bindings))


# ---------------------------------------------------------------------------
# Reification (rule -> Figure 1 facts)
# ---------------------------------------------------------------------------

def _reify(ref: RuleRef, rule: Rule) -> list[MetaFact]:
    """Compute the meta-model facts describing one rule."""
    facts: list[MetaFact] = [("rule", (ref,))]
    counter = {"atom": 0, "term": 0}
    preds_seen: set[str] = set()

    def fresh_atom_id() -> str:
        counter["atom"] += 1
        return f"$a{ref.rid}_{counter['atom']}"

    def fresh_term_id() -> str:
        counter["term"] += 1
        return f"$t{ref.rid}_{counter['term']}"

    def collect_pattern_preds(pattern: RulePattern) -> None:
        # Concrete functors inside quoted patterns are part of the rule's
        # vocabulary: a context whose rules mention `permitted` in a
        # template defines that predicate as far as `predicate(P)` type
        # constraints are concerned.
        for atom_pattern in pattern.heads:
            if isinstance(atom_pattern.functor, str):
                preds_seen.add(atom_pattern.functor)
        for lit in pattern.body:
            if isinstance(lit, AtomPattern) and isinstance(lit.functor, str):
                preds_seen.add(lit.functor)
            elif isinstance(lit, EqPattern):
                collect_pattern_preds(lit.quote.pattern)

    def reify_atom(atom: Atom, role: str, negated: bool) -> None:
        atom_id = fresh_atom_id()
        facts.append((role, (ref, atom_id)))
        facts.append(("atom", (atom_id,)))
        facts.append(("functor", (atom_id, atom.pred)))
        preds_seen.add(atom.pred)
        if negated:
            facts.append(("negated", (atom_id,)))
        all_args = atom.all_args
        facts.append(("arity", (atom_id, len(all_args))))
        for index, term in enumerate(all_args):
            term_id = fresh_term_id()
            facts.append(("arg", (atom_id, index, term_id)))
            facts.append(("term", (term_id,)))
            if isinstance(term, Variable):
                facts.append(("variable", (term_id,)))
                facts.append(("vname", (term_id, term.name)))
            elif isinstance(term, Constant):
                facts.append(("constant", (term_id,)))
                facts.append(("value", (term_id, term.value)))
            elif isinstance(term, Quote):
                # A quoted pattern is a *code constant*: pull0-style
                # meta-rules bind it through `value` and ship it as a
                # request.  `constant` keeps Figure 1's value(C,V) ->
                # constant(C) declaration satisfied.
                facts.append(("quoteterm", (term_id,)))
                facts.append(("constant", (term_id,)))
                facts.append(("value", (term_id, PatternValue(term.pattern))))
                collect_pattern_preds(term.pattern)
            # Expr / PartitionTerm args stay opaque: term(T) only.

    for head in rule.heads:
        reify_atom(head, "head", negated=False)
    for item in rule.body:
        if isinstance(item, Literal):
            reify_atom(item.atom, "body", item.negated)
        # Comparisons and builtin calls are not part of the Figure 1 model;
        # they are invisible to reflection (the paper's patterns only match
        # relational atoms).
    if rule.is_fact():
        facts.append(("factrule", (ref,)))
    for pred in sorted(preds_seen):
        facts.append(("predicate", (pred,)))
        facts.append(("pname", (pred, pred)))
    return facts


# ---------------------------------------------------------------------------
# Template instantiation
# ---------------------------------------------------------------------------

def is_open_fact_pattern(pattern: RulePattern) -> bool:
    """True for a bodyless pattern that still has pattern-ness left.

    Such a quote cannot (and should not) become a concrete rule: a fact
    template with free variables, a star, or a meta-variable functor is a
    *pattern value* — e.g. the payload of a pull request, or the paper's
    section 9 delegation of ``[| permission(me,_,F,_). |]``.
    """
    if pattern.has_arrow or pattern.body:
        return False
    for atom_pattern in pattern.heads:
        if isinstance(atom_pattern.functor, Variable):
            return True
        for arg in atom_pattern.args or ():
            if isinstance(arg, Star):
                return True
            if isinstance(arg, Term) and any(True for _ in arg.variables()):
                return True
    return False


def substitute_bindings(pattern: RulePattern, bindings: dict,
                        eval_term: Callable[[Term, dict], object]) -> RulePattern:
    """A template filled in: each variable ``bindings`` names becomes a
    constant and each expression that is left ground is evaluated.
    Unbound variables, stars and ``V = [| … |]`` variables stay, so the
    result may still be a pattern."""

    def rewrite(term: Term) -> Term:
        if isinstance(term, Variable):
            if term.name in bindings:
                return Constant(bindings[term.name])
        elif isinstance(term, Expr) and next(term.variables(), None) is None:
            return Constant(eval_term(term, bindings))
        return term

    return substitute(pattern, rewrite)


def instantiate_pattern(pattern: RulePattern, bindings: dict) -> Rule:
    """The rule a filled template (:func:`substitute_bindings`) generates;
    a star or a predicate variable still in it is a ``SafetyError``.  A
    body ``V = [| … |]`` becomes a comparison, ``V`` its value if bound."""
    body: list = []
    for lit in pattern.body:
        if isinstance(lit, AtomPattern):
            body.append(Literal(_template_atom(lit), lit.negated))
        elif isinstance(lit, EqPattern):
            var = lit.var
            left = Constant(bindings[var.name]) if var.name in bindings else var
            body.append(Comparison("=", left, lit.quote))
        else:
            raise SafetyError(
                "a Kleene star over body literals cannot appear in a "
                "generated rule template"
            )
    return Rule(tuple(map(_template_atom, pattern.heads)), tuple(body))


def _template_atom(atom_pattern: AtomPattern) -> Atom:
    functor = atom_pattern.functor
    if isinstance(functor, Variable):
        raise SafetyError(
            f"template functor {functor.name} is unbound; cannot "
            f"generate a rule with an unknown predicate"
        )
    if atom_pattern.args is None:
        raise SafetyError(
            f"bare meta-variable atom {atom_pattern!r} cannot appear in a "
            f"generated rule template"
        )
    if Star in map(type, atom_pattern.args):
        raise SafetyError(
            "a Kleene star argument cannot appear in a generated rule "
            "template"
        )
    return Atom(functor, atom_pattern.args)
