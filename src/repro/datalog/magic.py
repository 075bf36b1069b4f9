"""The magic-sets rewrite (Bancilhon et al., the paper's reference [6]).

Paper section 7: *"traditional database optimizations such as magic-sets
can potentially bridge the top-down evaluation approach used in access
control, versus the typical bottom-up continuous evaluation of network
protocols."*  We build that bridge: given a query with some arguments
bound, the program is rewritten so the bottom-up engine only derives
facts relevant to the query.

Standard construction, left-to-right sideways information passing:

* every IDB predicate occurrence gets an *adornment* (``b``/``f`` per
  argument) describing which arguments are bound at that point;
* each adorned rule is guarded by a ``magic$p$ad`` literal over its bound
  head arguments;
* for each IDB body occurrence, a *magic rule* derives the callee's magic
  facts from the caller's magic guard plus the body prefix;
* the query's constants seed the initial magic fact.

This is the engine's demand evaluator for a database that is *not*
maintained: rules plus an EDB nobody has run to fixpoint, and one bound
question about it.  A :class:`~repro.workspace.workspace.Workspace` is
the other half of the paper's bridge — the continuous bottom-up evaluator
— and needs none of this: every commit leaves its database at fixpoint,
so its ``point_query`` reads the answer instead of re-deriving it.

Restrictions: positive rules without aggregates (negation would need
doubled/supplementary predicates); callers fall back to plain bottom-up.
``choose_strategy`` implements the section 7 "adaptive" heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .database import Database
from .engine import EngineRule, evaluate, normalize_rules
from .errors import SafetyError
from .runtime import EvalContext
from .terms import (
    Atom,
    BuiltinCall,
    Comparison,
    Constant,
    Literal,
    Rule,
    Term,
)


def _adorned_name(pred: str, adornment: str) -> str:
    return f"{pred}${adornment}"


def _magic_name(pred: str, adornment: str) -> str:
    return f"magic${pred}${adornment}"


def _query_adornment(query: Atom) -> tuple[str, tuple, tuple]:
    """``(adornment, bound values, query pattern)`` of one query atom.

    The single source of truth for what counts as a bound argument —
    shared by the rewrite itself and the program cache's key, which must
    never disagree about a query's shape.
    """
    pattern = []
    chars = []
    bound = []
    for term in query.all_args:
        if isinstance(term, Constant):
            pattern.append(("b", term.value))
            chars.append("b")
            bound.append(term.value)
        else:
            pattern.append(("f", None))
            chars.append("f")
    return "".join(chars), tuple(bound), tuple(pattern)


@dataclass
class MagicProgram:
    """Result of the rewrite: run ``rules`` after seeding ``seed``."""

    rules: list
    seed_pred: str
    seed_fact: tuple
    answer_pred: str
    query_pattern: tuple  # (mode, value) per position

    def answers(self, db: Database) -> set:
        """Query answers, filtered back to the original bound pattern."""
        result = set()
        for fact in db.tuples(self.answer_pred):
            if all(mode == "f" or fact[i] == value
                   for i, (mode, value) in enumerate(self.query_pattern)):
                result.add(fact)
        return result


def magic_transform(rules: Iterable[Rule], query: Atom) -> MagicProgram:
    """Rewrite ``rules`` for goal-directed bottom-up evaluation of ``query``.

    ``query`` is an atom whose constant arguments are the bound ones
    (e.g. ``reach("a", X)`` → adornment ``bf``).
    """
    rule_list = list(rules)
    if not all(isinstance(r, EngineRule) for r in rule_list):
        rule_list = normalize_rules(rule_list)
    by_pred: dict[str, list[EngineRule]] = {}
    for rule in rule_list:
        if rule.agg is not None:
            raise SafetyError("magic-sets rewrite does not support aggregates")
        for item in rule.body:
            if isinstance(item, Literal) and item.negated:
                raise SafetyError("magic-sets rewrite does not support negation")
        by_pred.setdefault(rule.head.pred, []).append(rule)

    query_adornment, bound_values, query_pattern = _query_adornment(query)

    if query.pred not in by_pred:
        raise SafetyError(f"query predicate {query.pred!r} has no rules "
                          f"(query the EDB directly)")

    out_rules: list[Rule] = []
    done: set[tuple] = set()
    worklist = [(query.pred, query_adornment)]

    while worklist:
        pred, adornment = worklist.pop()
        if (pred, adornment) in done:
            continue
        done.add((pred, adornment))
        magic_head_name = _magic_name(pred, adornment)
        adorned_head_name = _adorned_name(pred, adornment)
        for rule in by_pred[pred]:
            head_args = rule.head.all_args
            if len(head_args) != len(adornment):
                raise SafetyError(
                    f"arity mismatch for {pred!r} in magic rewrite"
                )
            bound: set[str] = set()
            magic_args = []
            for term, mode in zip(head_args, adornment):
                if mode == "b":
                    magic_args.append(term)
                    bound.update(v.name for v in term.variables())
            guard = Literal(Atom(magic_head_name, tuple(magic_args)))
            new_body: list = [guard]
            prefix: list = [guard]
            for item in rule.body:
                if isinstance(item, Literal) and item.atom.pred in by_pred:
                    callee = item.atom
                    callee_adornment = "".join(
                        "b" if {v.name for v in term.variables()} <= bound
                               and not _has_free_const_expr(term, bound)
                        else "f"
                        for term in callee.all_args
                    )
                    # magic rule for the callee
                    callee_bound_args = tuple(
                        term for term, mode in zip(callee.all_args, callee_adornment)
                        if mode == "b"
                    )
                    out_rules.append(Rule(
                        (Atom(_magic_name(callee.pred, callee_adornment),
                              callee_bound_args),),
                        tuple(prefix),
                        None,
                        f"magic:{callee.pred}:{callee_adornment}",
                    ))
                    worklist.append((callee.pred, callee_adornment))
                    adorned = Literal(Atom(
                        _adorned_name(callee.pred, callee_adornment),
                        callee.all_args))
                    new_body.append(adorned)
                    prefix.append(adorned)
                    bound.update(v.name for v in callee.variables())
                else:
                    new_body.append(item)
                    prefix.append(item)
                    if isinstance(item, Literal):
                        bound.update(v.name for v in item.variables())
                    elif isinstance(item, Comparison) and item.op == "=":
                        bound.update(v.name for v in item.left.variables())
                        bound.update(v.name for v in item.right.variables())
                    elif isinstance(item, BuiltinCall):
                        bound.update(v.name for v in item.variables())
            out_rules.append(Rule(
                (Atom(adorned_head_name, head_args),),
                tuple(new_body),
                None,
                f"adorned:{pred}:{adornment}",
            ))

    return MagicProgram(
        rules=out_rules,
        seed_pred=_magic_name(query.pred, query_adornment),
        seed_fact=tuple(bound_values),
        answer_pred=_adorned_name(query.pred, query_adornment),
        query_pattern=tuple(query_pattern),
    )


def _has_free_const_expr(term: Term, bound: set) -> bool:
    """Constants count as bound; anything else with no vars is bound too."""
    return False  # vars-⊆-bound is the whole condition for our term forms


#: Cached magic programs: ``(rule identities, pred, adornment) ->
#: (source rules, normalized EngineRules, seed_pred, answer_pred)``.
#: The rewrite depends only on the *binding pattern* of the query — not
#: its bound values — so one cached program answers every point query of
#: that shape, and because the entry holds the normalized
#: :class:`EngineRule` objects, their band-keyed join-plan caches carry
#: across queries too: repeated point lookups stop replanning entirely
#: (the band in the key reacts if the EDB's cardinality moves).  A plan
#: is compiled for one database's interner, so a query over a database
#: with another interner plans again (``banded_plan`` counts that a
#: miss).  Keys use object identities; entries hold strong references to
#: the source rules so an identity can never be recycled while its entry
#: lives, and the FIFO bound keeps abandoned rule lists from accumulating.
_PROGRAM_CACHE: dict = {}
MAX_CACHED_PROGRAMS = 32


def _cached_program(rule_list: list, query: Atom,
                    context: EvalContext) -> tuple[list, str, str, tuple, tuple]:
    """The normalized magic program for ``query``'s binding pattern."""
    adornment, bound_values, pattern = _query_adornment(query)
    key = (tuple(id(rule) for rule in rule_list), query.pred, adornment)
    entry = _PROGRAM_CACHE.get(key)
    if entry is None:
        program = magic_transform(rule_list, query)
        engine_rules = normalize_rules(program.rules)
        if len(_PROGRAM_CACHE) >= MAX_CACHED_PROGRAMS:
            _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
        entry = (list(rule_list), engine_rules,
                 program.seed_pred, program.answer_pred)
        _PROGRAM_CACHE[key] = entry
        context.stats.magic_programs_built += 1
    else:
        context.stats.magic_cache_hits += 1
    _rules_ref, engine_rules, seed_pred, answer_pred = entry
    return engine_rules, seed_pred, answer_pred, bound_values, pattern


def query_magic(rules: Iterable[Rule], db: Database, query: Atom,
                context: Optional[EvalContext] = None) -> set:
    """Run a magic-sets query on ``db`` and undo what it wrote.

    Returns the set of answer facts for the query predicate.  The seed
    and everything the rewrite derives are written under ``db.journal``
    and rolled back before returning — also when the evaluation raises —
    so ``db`` is left as found (plus any index the joins built on it).
    Refuses to run inside an open transaction of that journal.

    The rewrite itself is cached per ``(rules, query predicate, binding
    pattern)``: repeated point queries — same shape, any bound values —
    reuse the normalized rules *and their join plans* instead of
    rebuilding both per call (observable as
    ``EvalStats.magic_cache_hits`` / zero incremental ``plans_built``).
    """
    context = context or EvalContext()
    rule_list = list(rules)
    engine_rules, seed_pred, answer_pred, bound_values, pattern = \
        _cached_program(rule_list, query, context)
    program = MagicProgram(
        rules=engine_rules,
        seed_pred=seed_pred,
        seed_fact=bound_values,
        answer_pred=answer_pred,
        query_pattern=pattern,
    )
    db.journal.begin()
    try:
        db.add(program.seed_pred, program.seed_fact)
        # The caller's context carries its stats: the planner's work
        # (plans built, reorders won, distinct counts computed) is
        # attributed to the query.
        evaluate(program.rules, db, context)
        return program.answers(db)
    finally:
        db.journal.rollback()


def choose_strategy(rules: Iterable[Rule], query: Atom,
                    db: Database) -> str:
    """The section 7 'adaptive' heuristic: goal-directed when selective.

    Magic-sets pays off when the query has bound arguments and the
    relevant EDB is large; continuous bottom-up wins for unbound queries
    (it computes everything anyway, once).
    """
    has_bound = any(isinstance(t, Constant) for t in query.all_args)
    if not has_bound:
        return "bottomup"
    try:
        magic_transform(rules, query)
    except SafetyError:
        return "bottomup"
    return "magic"
