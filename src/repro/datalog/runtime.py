"""The join core: term evaluation, plan compilation, the register walker.

Everything that enumerates satisfying assignments of a conjunctive body —
bottom-up rule application, semi-naive deltas, DRed over-deletion,
aggregation, constraint checking, workspace queries — runs on one
executor: :func:`build_plan` compiles the conjunction to a
:class:`FlatPlan` and :func:`run_flat` walks it, so correctness fixes and
index use land in one place.  (``benchmarks/oracles.py``'s top-down
evaluator has its own SLD resolver and shares no join code: it is the
independent oracle the tests compare this walker against.)

Plans order body items so that every comparison, builtin call and
negated literal runs as soon as its inputs are bound (they are cheap
filters).  Positive literals are ordered by a *cost model* when live
relation sizes are available (estimated scan cost; a bound column keeps
``1/distinct`` of the rows using the relation's per-column distinct
counts, 10x selective as the statistics-free fallback), falling back to
the greedy most-bound-columns heuristic otherwise; ties always break the
greedy way, so plans only change when cardinalities actually justify it.

Plans are *compiled* for one id space: variables live in numbered
registers holding interned term ids, constants are interned into the
same interner when the plan compiles, and scheduling decides once, per
step, which argument positions are index-probe keys, which bind fresh
registers, and which need an intra-tuple equality check, so the per-row
inner loop does no term classification at all.  Variables the caller
binds up front (:attr:`FlatPlan.assumes` — e.g. a constraint's LHS witness
seeding its RHS probe) get the first registers, by sorted name, so a
seed is an id row and one prepared walk tests many (:func:`unsatisfied`);
:func:`solve` plans again when handed bindings with a different shape.

Planning costs what it decides: a conjunction is *analysed* once per
owner (:class:`BodyAnalysis`), *ordered* once per cardinality-band
signature (:func:`order_body`, served by :func:`banded_plan`) and
*compiled* once per distinct order (:func:`build_plan`).  The plan is the
compiled :class:`FlatPlan` itself, and one cache policy serves every
conjunction: :func:`banded_plan`, bounded by a FIFO alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse, product
from typing import Any, Callable, Iterable, Iterator, Optional

from .builtins import (
    BuiltinRegistry,
    apply_arith,
    apply_comparison,
    invoke_builtin,
    standard_registry,
)
from .database import Database, Relation, TermInterner
from .errors import BuiltinError, SafetyError
from .stats import EvalStats
from .terms import (
    Atom,
    BuiltinCall,
    Comparison,
    Constant,
    Expr,
    Literal,
    PartitionTerm,
    PredPartition,
    Quote,
    Term,
    Variable,
)

Bindings = dict[str, Any]


@dataclass
class EvalContext:
    """Everything a body evaluation needs besides the database.

    ``instantiate_quote`` is provided by the meta layer
    (:mod:`repro.meta.registry`): it turns a head-position quote template
    plus current bindings into a :class:`repro.datalog.terms.RuleRef`.
    Pure-Datalog programs never exercise it.
    """

    builtins: BuiltinRegistry = field(default_factory=standard_registry)
    instantiate_quote: Optional[Callable[[Quote, Bindings], Any]] = None
    #: opaque payload handed to context-needing builtins (e.g. the keystore)
    payload: Any = None
    #: the one route engine counters take: every evaluation handed this
    #: context counts into it, never elsewhere (a bare context makes its
    #: own; a host's ``stats`` is its context's)
    stats: EvalStats = field(default_factory=EvalStats)
    #: the delta-exchange hook for distributed evaluation: called as
    #: ``remote_emit_rows(pred, rows)`` with each rule application's
    #: freshly derived *id rows* (over the evaluating database's
    #: interner) before they are asserted; returns the rows to keep
    #: locally — the rest has been diverted to a remote owner (a cluster
    #: shard queues them as id rows all the way to the wire envelope, see
    #: :mod:`repro.cluster`).  None on single-node evaluation (no cost).
    remote_emit_rows: Optional[Callable[[str, set], set]] = None


class Unbound(Exception):
    """Internal signal: a term mentioned an unbound variable."""


def eval_term(term: Term, bindings: Bindings, context: EvalContext) -> Any:
    """Evaluate a term to a ground value; raise :class:`Unbound` if it can't."""
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        try:
            return bindings[term.name]
        except KeyError:
            raise Unbound(term.name) from None
    if isinstance(term, Expr):
        left = eval_term(term.left, bindings, context)
        right = eval_term(term.right, bindings, context)
        return apply_arith(term.op, left, right)
    if isinstance(term, PartitionTerm):
        keys = tuple(eval_term(k, bindings, context) for k in term.keys)
        return PredPartition(term.pred, keys)
    if isinstance(term, Quote):
        if context.instantiate_quote is None:
            raise BuiltinError(
                "quote template encountered but no meta registry is attached"
            )
        return context.instantiate_quote(term, bindings)
    raise BuiltinError(f"cannot evaluate term {term!r}")  # pragma: no cover


def term_vars(term: Term) -> set[str]:
    return {v.name for v in term.variables()}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

#: Fallback selectivity of one bound column in the cost model, used only
#: when no live relation is available to report a real distinct count:
#: the column is then taken to keep 1/10th of the relation's rows.
_BOUND_COLUMN_SELECTIVITY = 0.1

#: The cost model only overrides the boundness-greedy order when its
#: estimate is at least this many times cheaper.  Near-ties go to the
#: greedy choice: with no per-column statistics the estimates are rough,
#: and preferring a small unbound scan over an indexed probe multiplies
#: branching when the estimates are close.
_REORDER_MARGIN = 4.0

#: Below this many facts in every body relation the cost model is skipped
#: entirely: any join order finishes in microseconds, while sized plans
#: cost real build time and churn the plan cache as relations grow.
_COST_MODEL_MIN_SIZE = 64


def cardinality_band(size: int) -> int:
    """Coarse size band for plan-cache keys: empty / small / per power of 4.

    Below :data:`_COST_MODEL_MIN_SIZE` facts join order barely matters, so
    every small size shares one band (rebuilding plans while a relation
    fills up 1, 2, 3, … facts would thrash the cache); beyond that, one
    band per 4x growth.  Bands deliberately trade cost-model reactivity
    for cache stability: a plan only goes stale when some input relation
    changes by an order of magnitude, which is when a different join
    order could actually win.
    """
    if size < _COST_MODEL_MIN_SIZE:
        return 1 if size else 0
    return size.bit_length() >> 1


def _compile_term(term: Term, slot_of: dict) -> Callable:
    """Compile a term into a ``(registers, values, context) -> value`` getter.

    Registers hold interned term *ids*; ``values`` is the interner's
    inverse table, so a variable getter materializes its slot with one
    list index.  Registers are reused across branches of the walk, so a
    getter may read only slots the plan order has bound *at this step* —
    exactly the names in ``slot_of`` when it is compiled.  A variable
    with no slot yet compiles to a getter raising :class:`Unbound` (the
    caller names the error when, and only when, the step actually runs);
    a quote materializes just its pattern variables bound so far and
    defers to the meta registry through ``context.instantiate_quote``,
    leaving the others as variables of the generated rule.
    """
    if isinstance(term, Constant):
        value = term.value
        return lambda registers, values, context: value
    if isinstance(term, Variable):
        slot = slot_of.get(term.name)
        if slot is None:
            name = term.name

            def unbound(registers, values, context):
                raise Unbound(name)
            return unbound
        return lambda registers, values, context: values[registers[slot]]
    if isinstance(term, Expr):
        op = term.op
        left = _compile_term(term.left, slot_of)
        right = _compile_term(term.right, slot_of)
        return lambda registers, values, context: apply_arith(
            op, left(registers, values, context),
            right(registers, values, context))
    if isinstance(term, PartitionTerm):
        pred = term.pred
        keys = tuple(_compile_term(k, slot_of) for k in term.keys)
        return lambda registers, values, context: PredPartition(
            pred, tuple(k(registers, values, context) for k in keys))
    if isinstance(term, Quote):
        bound = tuple((name, slot_of[name])
                      for name in sorted(term_vars(term)) if name in slot_of)

        def instantiate(registers, values, context):
            if context.instantiate_quote is None:
                raise BuiltinError(
                    "quote template encountered but no meta registry is "
                    "attached")
            return context.instantiate_quote(
                term, {name: values[registers[slot]] for name, slot in bound})
        return instantiate
    raise BuiltinError(f"cannot evaluate term {term!r}")  # pragma: no cover


class _LiteralStep:
    """Compiled positive/negated literal: a precomputed access path.

    ``key_positions`` are the argument positions probed through the
    relation index.  Constants are interned into the plan's id space
    (``terms``) when the step compiles: ``key_const`` is the probe key of
    a fully constant key (a bare id for one column), else
    ``key_template`` holds the constant ids, ``var_fills`` copy bound
    registers into it and ``eval_fills`` compute expression/quote-valued
    key columns.  ``single_var`` short-circuits the hottest shape — a
    single-column key filled from one register — to a bare id with no
    template copy.  ``free`` binds first-occurrence variables from the
    matched row into fresh registers; ``checks`` are intra-tuple
    equalities for repeated free variables (``p(X, X)``).
    """

    kind = 0

    __slots__ = ("index", "pred", "negated", "arity", "key_positions",
                 "key_single", "key_const", "key_template", "var_fills",
                 "eval_fills", "single_var", "free", "checks")

    def __init__(self, index: int, item: Literal, slot_of: dict,
                 terms: TermInterner) -> None:
        atom = item.atom
        args = atom.all_args
        self.index = index
        self.pred = atom.pred
        self.negated = item.negated
        self.arity = len(args)
        key_positions: list[int] = []
        template: list = []
        var_fills: list = []
        eval_fills: list = []
        free: list = []
        checks: list = []
        first_at: dict[str, int] = {}
        for position, term in enumerate(args):
            if isinstance(term, Variable):
                name = term.name
                if name in slot_of:
                    key_positions.append(position)
                    var_fills.append((len(template), slot_of[name]))
                    template.append(None)
                elif name in first_at:
                    checks.append((position, first_at[name]))
                else:
                    first_at[name] = position
                    free.append((position, name))
            elif isinstance(term, Constant):
                key_positions.append(position)
                template.append(terms.intern(term.value))
            else:
                key_positions.append(position)
                eval_fills.append(
                    (len(template), _compile_term(term, slot_of), term))
                template.append(None)
        self.key_positions = tuple(key_positions)
        self.key_single = len(key_positions) == 1
        self.key_template = template
        self.var_fills = tuple(var_fills)
        self.eval_fills = tuple(eval_fills)
        if var_fills or eval_fills:
            self.key_const = None
        else:
            self.key_const = template[0] if self.key_single \
                else tuple(template)
        self.single_var = (
            var_fills[0][1] if self.key_single and var_fills else None)
        # Fresh registers are allocated only after the whole literal is
        # classified (so ``p(X, X)`` is a check, not a probe on itself);
        # a negation is existential — no bindings escape it.
        self.free = () if item.negated else tuple(
            (position, slot_of.setdefault(name, len(slot_of)))
            for position, name in free)
        self.checks = tuple(checks)


_CMP_FILTER, _CMP_ASSIGN = 0, 1


class _CompareStep:
    """Compiled comparison: a filter, or an '='-assignment to a register
    whose direction is decided statically."""

    kind = 1

    __slots__ = ("mode", "op", "left", "right", "slot", "value")

    def __init__(self, item: Comparison, slot_of: dict) -> None:
        self.op = item.op
        self.left = self.right = self.slot = self.value = None
        target = source = None
        if item.op == "=":
            left_free = (isinstance(item.left, Variable)
                         and item.left.name not in slot_of)
            right_free = (isinstance(item.right, Variable)
                          and item.right.name not in slot_of)
            if left_free and not right_free:
                target, source = item.left, item.right
            elif right_free and not left_free:
                target, source = item.right, item.left
        if target is None:
            self.mode = _CMP_FILTER
            self.left = _compile_term(item.left, slot_of)
            self.right = _compile_term(item.right, slot_of)
        else:
            self.mode = _CMP_ASSIGN
            self.value = _compile_term(source, slot_of)
            self.slot = slot_of.setdefault(target.name, len(slot_of))


#: Builtin output actions: bind a fresh slot / compare against a slot
#: bound earlier / compare against a computed value.
_OUT_BIND, _OUT_CHECK_SLOT, _OUT_CHECK_VALUE = 0, 1, 2


class _BuiltinStep:
    """Compiled builtin call: definition and argument positions resolved;
    inputs are getters, outputs either bind fresh slots or check
    already-bound values."""

    kind = 2

    __slots__ = ("definition", "inputs", "outputs")

    def __init__(self, item: BuiltinCall, definition, slot_of: dict) -> None:
        self.definition = definition
        self.inputs = tuple(
            _compile_term(item.args[position], slot_of)
            for position in definition.input_positions)
        outputs = []
        for position in definition.output_positions:
            target = item.args[position]
            if isinstance(target, Variable):
                slot = slot_of.get(target.name)
                if slot is None:
                    slot = slot_of[target.name] = len(slot_of)
                    outputs.append((_OUT_BIND, slot))
                else:
                    outputs.append((_OUT_CHECK_SLOT, slot))
            else:
                outputs.append(
                    (_OUT_CHECK_VALUE, _compile_term(target, slot_of)))
        self.outputs = tuple(outputs)


class FlatPlan:
    """A conjunction's plan: its evaluation order, compiled to a register
    program that runs in interned-id space.

    Variables live in numbered slots instead of binding dicts — and the
    slots hold term *ids*, so the innermost join loop does no dict
    copies, no generator suspensions and no boxed-value hashing —
    :func:`run_flat` walks it with plain recursion.  Every body item
    compiles: literals, comparisons ('=' assignment included), builtin
    calls, and expression- or quote-valued literal keys.  Values are
    materialized only where semantics demand them: ordered comparisons,
    arithmetic, builtin invocation and quote instantiation.  ``terms`` is
    the id space the plan was compiled for: its constants are ids there.

    ``order`` is the item indices in scheduling order (``steps`` compiles
    them one for one).  ``assumes`` is the initially-bound variable set
    the compilation relied on — reuse with a different binding shape
    makes :func:`solve` plan again.  ``reordered`` is True when the cost
    model picked a different positive-literal order than the
    boundness-greedy baseline would have.  ``analysis`` is the
    :class:`BodyAnalysis` it was built from: together with ``assumes``,
    ``order`` and ``terms`` it determines every other field, which is how
    :func:`build_plan` recognises an order it has already compiled.
    """

    __slots__ = ("steps", "nslots", "slot_of", "terms", "order", "assumes",
                 "reordered", "analysis", "head_spec", "supports", "join2")

    def __init__(self, steps: tuple, slot_of: dict, terms: TermInterner,
                 order: tuple, assumes: frozenset, reordered: bool,
                 analysis: "BodyAnalysis") -> None:
        self.steps = steps
        self.nslots = len(slot_of)
        self.slot_of = slot_of
        self.terms = terms
        self.order = order
        self.assumes = assumes
        self.reordered = reordered
        self.analysis = analysis
        #: lazily cached by the engine for the owning rule: the head's
        #: ``(id template, has-computed-term)`` and, under provenance, the
        #: positive body atoms' :func:`compile_head` templates
        self.head_spec = None
        self.supports = None
        self.join2 = None      # lazily compiled by run_flat (False: no)


#: :func:`compile_head` entry kinds: a constant's id / a register / a
#: computed term (getter).  The first two are the ``(is_slot, payload)``
#: pairs of :func:`run_flat`'s ``id_spec``.
HEAD_CONST, HEAD_SLOT, HEAD_COMPUTED = 0, 1, 2


def compile_head(atom: Atom, flat: FlatPlan) -> tuple:
    """The template of ``atom`` in register terms: ``(kind, payload)`` pairs.

    The one head instantiator: rule heads, the body atoms provenance
    records as supports and an aggregate's group terms all compile here
    against the finished plan, their constants interned into its id
    space (:func:`fill_row` instantiates them).  Raises
    :class:`SafetyError` for a variable the body never binds.  Variables
    inside quote templates are exempt — they legitimately remain
    variables of the generated rule.
    """
    slot_of = flat.slot_of
    spec = []
    for term in atom.all_args:
        if isinstance(term, Constant):
            spec.append((HEAD_CONST, flat.terms.intern(term.value)))
            continue
        if not isinstance(term, Quote):
            missing = term_vars(term) - slot_of.keys()
            if missing:
                raise SafetyError(
                    f"head variable {min(missing)!r} of {atom.pred} is not "
                    f"bound by the body")
        if isinstance(term, Variable):
            spec.append((HEAD_SLOT, slot_of[term.name]))
        else:
            spec.append((HEAD_COMPUTED, _compile_term(term, slot_of)))
    return tuple(spec)


def fill_row(spec: tuple, registers: list, values: list,
             context: EvalContext, intern: Callable) -> tuple:
    """The id row a :func:`compile_head` template names for one solution."""
    return tuple([
        registers[payload] if kind == HEAD_SLOT
        else payload if kind == HEAD_CONST
        else intern(payload(registers, values, context))
        for kind, payload in spec])


#: Per-call literal-step access tags (see the prepare pass in
#: :func:`run_flat`): full scan of the source rows / prefetched constant
#: bucket / single-register index probe / templated index probe /
#: positive literal with no delta source (dead, uncounted) / negated
#: literal with no delta source (vacuously true, uncounted).
_P_SCAN, _P_BUCKET, _P_PROBE_SV, _P_PROBE_FILL, _P_DEAD, _P_SKIP = range(6)

_DEAD_ENTRY = (_P_DEAD, None, None)
_SKIP_ENTRY = (_P_SKIP, None, None)


def run_flat(flat: FlatPlan, db: Database, context: EvalContext,
             delta, delta_position, id_spec: Optional[tuple],
             head_rows: Optional[set], produced: Optional[set],
             seeds: Optional[Iterable[tuple]] = None,
             on_solution: Optional[Callable] = None) -> int:
    """Run a flat plan in id space; returns the number of solutions.

    There are two leaves.  By default every solution instantiates
    ``id_spec`` — the head template in id terms: ``(True, slot)`` for a
    register, ``(False, id)`` for a constant — and the
    row lands in ``produced`` unless it is already in ``head_rows`` or
    ``produced`` (rule-application dedup, inlined here so no per-solution
    callback frame exists).  With ``on_solution`` the walker instead
    hands each solution's live register list to the callback, which must
    read what it needs before returning (registers are reused across
    branches) and may raise to stop the walk — that is how bindings
    dicts, existence checks, computed heads and provenance ride the same
    walker.  ``seeds`` are id rows binding the plan's
    :attr:`FlatPlan.assumes` variables (its first registers, by sorted
    name): the prepared plan is walked once per seed, and a
    :class:`_Found` the callback raises ends only that seed's walk.

    The plan was compiled for ``db.interner`` (its constants are ids
    there), so a prepare pass only picks each literal step's source —
    the delta or the database relation — and its hash index via
    :meth:`Relation.index_for`: index traffic is counted once per walk,
    while probes bind a plain ``dict.get``.  ``literal_scans`` counts
    every literal step executed, ``full_scans`` those with no bound
    column, ``id_joins`` every indexed id-space probe.
    """
    steps = flat.steps
    nsteps = len(steps)
    stats = context.stats
    interner = db.interner
    values = interner.values
    intern = interner.intern
    id_of = interner.id_of

    # Specialized non-recursive loop for the hottest rule shape — two
    # positive, check-free literals joined through a single-column index
    # on a register the first literal binds (transitive closure, and most
    # EDB joins, compile to exactly this).  The shape analysis is cached
    # on the plan; only the sources and the index resolve per call.
    if nsteps == 2 and on_solution is None and seeds is None:
        join2 = flat.join2
        if join2 is None:
            join2 = flat.join2 = _compile_join2(steps, id_spec)
        if join2 is not False:
            return _run_flat_join2(join2, steps, db, delta, delta_position,
                                   head_rows, produced, context)

    prepared: list = [None] * nsteps
    for number, step in enumerate(steps):
        if step.kind != 0:
            continue
        if delta is not None and step.index == delta_position:
            source = delta.get(step.pred)
            if source is None:
                prepared[number] = _SKIP_ENTRY if step.negated \
                    else _DEAD_ENTRY
                continue
        else:
            source = db.rel(step.pred)
        positions = step.key_positions
        if not positions:
            prepared[number] = (_P_SCAN, source.rows, None)
        elif step.key_const is not None:
            prepared[number] = (_P_BUCKET, source.index_for(positions).get(
                step.key_const, ()), None)
        elif step.single_var is not None:
            prepared[number] = (_P_PROBE_SV, source.index_for(positions).get,
                                step.single_var)
        else:
            prepared[number] = (_P_PROBE_FILL, source.index_for(positions).get,
                                step.key_template)

    registers = flat.nslots * [None]
    fired = 0

    def run(number: int) -> None:
        nonlocal fired
        if number == nsteps:
            fired += 1
            if on_solution is not None:
                on_solution(registers)
                return
            out = tuple([registers[payload] if is_slot else payload
                         for is_slot, payload in id_spec])
            if out not in head_rows and out not in produced:
                produced.add(out)
            return
        step = steps[number]
        kind = step.kind
        if kind == 1:  # comparison: assignment or filter, then continue
            if step.mode == _CMP_ASSIGN:
                registers[step.slot] = intern(
                    step.value(registers, values, context))
            elif not apply_comparison(
                    step.op, step.left(registers, values, context),
                    step.right(registers, values, context)):
                return
            run(number + 1)
            return
        if kind == 2:  # builtin call: bind/check outputs per result row
            inputs = tuple(g(registers, values, context)
                           for g in step.inputs)
            following = number + 1
            for row in invoke_builtin(step.definition, inputs,
                                      context.payload):
                ok = True
                for (action, payload), value in zip(step.outputs, row):
                    if action == _OUT_BIND:
                        registers[payload] = intern(value)
                    elif action == _OUT_CHECK_SLOT:
                        if values[registers[payload]] != value:
                            ok = False
                            break
                    elif payload(registers, values, context) != value:
                        ok = False
                        break
                if ok:
                    run(following)
            return
        tag, access, extra = prepared[number]
        if tag == _P_SCAN:
            stats.literal_scans += 1
            stats.full_scans += 1
            candidates = access
        elif tag == _P_PROBE_SV:
            stats.literal_scans += 1
            stats.id_joins += 1
            # Hottest shape: single-column key from one register — the
            # register already holds the id, the probe is one dict.get.
            candidates = access(registers[extra])
            if candidates is None:
                candidates = ()
        elif tag == _P_BUCKET:
            stats.literal_scans += 1
            stats.id_joins += 1
            candidates = access
        elif tag == _P_PROBE_FILL:
            stats.literal_scans += 1
            stats.id_joins += 1
            filled = extra.copy()
            for template_slot, register in step.var_fills:
                filled[template_slot] = registers[register]
            missed = False
            for template_slot, getter, term in step.eval_fills:
                try:
                    value_id = id_of(getter(registers, values, context))
                except Unbound as exc:
                    raise SafetyError(
                        f"argument {term!r} of {step.pred} is not bound "
                        f"at join time") from exc
                if value_id is None:
                    missed = True
                    break
                filled[template_slot] = value_id
            if missed:
                candidates = ()
            else:
                # Zero-copy bucket: rule application stages its output,
                # the database is not mutated while this plan runs.
                candidates = access(
                    filled[0] if step.key_single else tuple(filled))
                if candidates is None:
                    candidates = ()
        elif tag == _P_SKIP:
            run(number + 1)
            return
        else:  # _P_DEAD: positive literal with no delta source
            return
        arity = step.arity
        checks = step.checks
        free = step.free
        if step.negated:
            for row in candidates:
                if len(row) != arity:
                    continue
                for position, first in checks:
                    if row[position] != row[first]:
                        break
                else:
                    return  # a witness exists: the negation fails
            run(number + 1)
            return
        following = number + 1
        if checks:
            for row in candidates:
                if len(row) != arity:
                    continue
                ok = True
                for position, first in checks:
                    if row[position] != row[first]:
                        ok = False
                        break
                if not ok:
                    continue
                for position, register in free:
                    registers[register] = row[position]
                run(following)
        elif following == nsteps and on_solution is None:
            # Terminal literal: emit inline, no frame per solution.
            for row in candidates:
                if len(row) != arity:
                    continue
                for position, register in free:
                    registers[register] = row[position]
                fired += 1
                out = tuple([registers[payload] if is_slot else payload
                             for is_slot, payload in id_spec])
                if out not in head_rows and out not in produced:
                    produced.add(out)
        else:
            for row in candidates:
                if len(row) != arity:
                    continue
                for position, register in free:
                    registers[register] = row[position]
                run(following)

    try:
        if seeds is None:
            run(0)
        else:
            width = len(flat.assumes)
            for seed in seeds:
                registers[:width] = seed
                try:
                    run(0)
                except _Found:
                    pass
    finally:
        # ``run`` refers to itself through its own closure cell: clear it
        # so each walk's frame state is freed by reference count instead
        # of piling up as cyclic garbage for the collector.
        run = None  # type: ignore[assignment]
    return fired


def _compile_join2(steps: tuple, id_spec: tuple):
    """Shape analysis for the two-literal fast join; False if ineligible.

    Eligible: two positive check-free literals, the first scanned or
    probed on a constant key, the second probed through a single-column
    index on a register the first binds.  Returns ``(key0_pos,
    emit_struct, simple)`` — ``key0_pos`` is the outer-row column feeding
    the probe; ``emit_struct`` entries are ``(0, pos)``/``(1, pos)``
    (head term from the outer/probed row) or ``(2, id)`` (a head
    constant, from the plan's ``id_spec``); ``simple`` is ``(mirrored,
    outer_pos, inner_pos)`` for the dominant one-term-from-each-side
    binary head (mirrored: the inner row's term first), else None.
    """
    step0, step1 = steps
    if not (step0.kind == 0 and step1.kind == 0
            and not step0.negated and not step1.negated
            and not step0.checks and not step1.checks
            and (not step0.key_positions or step0.key_const is not None)
            and step1.single_var is not None):
        return False
    reg0 = {register: position for position, register in step0.free}
    key0_pos = reg0.get(step1.single_var)
    if key0_pos is None:
        return False
    reg1 = {register: position for position, register in step1.free}
    emit_struct = []
    for is_slot, payload in id_spec:
        if not is_slot:
            emit_struct.append((2, payload))
        elif payload in reg1:
            emit_struct.append((1, reg1[payload]))
        elif payload in reg0:
            emit_struct.append((0, reg0[payload]))
        else:  # pragma: no cover - every register comes from some free
            return False
    simple = None
    if len(emit_struct) == 2:
        (src_a, pos_a), (src_b, pos_b) = emit_struct
        if src_a == 0 and src_b == 1:
            simple = (0, pos_a, pos_b)   # (row0[a], row1[b])
        elif src_a == 1 and src_b == 0:
            simple = (1, pos_b, pos_a)   # (row1[a], row0[b])
    return key0_pos, tuple(emit_struct), simple


def _run_flat_join2(join2: tuple, steps: tuple, db: Database,
                    delta, delta_position,
                    head_rows: set, produced: set,
                    context: EvalContext) -> int:
    """The two-literal id-join inner loop (see :func:`run_flat`).

    Solutions flow outer row → index bucket → head row with no register
    list, no recursion and no per-solution frames; a binary head with one
    term from each side is emitted a probe key at a time, the ``product``
    of the key's outer and inner head terms flowing through
    ``filterfalse(head_rows.__contains__)`` into ``produced``.  Stats are
    batched: one scan/probe for the outer literal, one probe per outer row
    that reaches the inner literal — identical totals to the general walk.
    """
    key0_pos, emit_struct, simple = join2
    step0, step1 = steps
    if delta is not None and step0.index == delta_position:
        source0 = delta.get(step0.pred)
        if source0 is None:
            return 0    # dead positive literal: uncounted, like the walk
    else:
        source0 = db.rel(step0.pred)
    if delta is not None and step1.index == delta_position:
        source1 = delta.get(step1.pred)
    else:
        source1 = db.rel(step1.pred)
    stats = context.stats
    positions0 = step0.key_positions
    scan0 = not positions0
    rows0 = source0.rows if scan0 \
        else source0.index_for(positions0).get(step0.key_const, ())
    if source1 is None:
        # Dead inner literal: the outer literal still executed once.
        stats.literal_scans += 1
        if scan0:
            stats.full_scans += 1
        else:
            stats.id_joins += 1
        return 0
    bucket_get = source1.index_for(step1.key_positions).get
    arity0 = step0.arity
    arity1 = step1.arity

    fired = 0
    outer_rows = 0
    if simple is not None:
        mirrored, pos0, pos1 = simple
        groups: dict = {}
        group = groups.get
        for row0 in rows0:
            if len(row0) == arity0:
                key = row0[key0_pos]
                terms0 = group(key)
                if terms0 is None:
                    groups[key] = [row0[pos0]]
                else:
                    terms0.append(row0[pos0])
        outer_rows = sum(map(len, groups.values()))
        known = head_rows.__contains__
        for key, terms0 in groups.items():
            bucket = bucket_get(key)
            if bucket is None:
                continue
            terms1 = [row1[pos1] for row1 in bucket if len(row1) == arity1]
            fired += len(terms0) * len(terms1)
            produced.update(filterfalse(known, product(terms1, terms0)
                                        if mirrored
                                        else product(terms0, terms1)))
    else:
        for row0 in rows0:
            if len(row0) != arity0:
                continue
            outer_rows += 1
            bucket = bucket_get(row0[key0_pos])
            if bucket is None:
                continue
            for row1 in bucket:
                if len(row1) != arity1:
                    continue
                fired += 1
                out = tuple([row0[p] if s == 0 else
                             row1[p] if s == 1 else p
                             for s, p in emit_struct])
                if out in head_rows or out in produced:
                    continue
                produced.add(out)
    stats.literal_scans += 1 + outer_rows
    stats.id_joins += outer_rows + (0 if scan0 else 1)
    if scan0:
        stats.full_scans += 1
    return fired


#: FIFO bound of every band-keyed plan cache (a rule's, a workspace's
#: constraint plans): band-keyed entries go stale as relations move
#: between cardinality bands.
MAX_CACHED_PLANS = 128


def positive_preds(items: tuple) -> tuple:
    """Distinct positive body predicates in source order: the columns of
    a conjunction's cardinality-band signature."""
    return tuple(dict.fromkeys(
        item.atom.pred for item in items
        if isinstance(item, Literal) and not item.negated))


def body_relations(preds: tuple, db: Database) -> list:
    """The live relation of each of ``preds``, None where ``db`` has none.

    The one pass over a body's relations: the list tells whether the
    conjunction can fire at all (``all(relations)`` — a missing or empty
    positive relation matches nothing) and feeds :func:`banded_plan` its
    band signature and, on a miss, the cost model's statistics.
    """
    relations = db.relations
    return [relations.get(pred) for pred in preds]


class BodyAnalysis:
    """Everything planning derives from a conjunction's items alone.

    The first of planning's three lifetimes: computed once per rule (or
    constraint alternative) and kept by its owner, so neither an ordering
    nor a compilation re-derives a variable set.  Per item: its variables
    (``item_vars``), what scheduling it binds (``binds`` — a positive
    literal's or an '='-comparison's variables, a builtin's outputs) and,
    for the filters (everything but a positive literal), what it waits
    for (``needs``: a variable set — a negated literal's *shared*
    variables, a comparison's or a builtin's inputs — or, for '=', the
    two sides and whether each is a bare variable it could assign).
    Variables occurring only inside one negated literal are existential
    within the negation ("no matching tuple exists", the paper's dd4
    constraint ``... -> !delegates(me,_,P)``), so they are not shared.
    ``preds`` are the :func:`positive_preds`, the relations whose live
    sizes band the conjunction's plans (:func:`banded_plan`).
    Per positive literal: ``arg_info``, the cost model's view of each
    argument — None (statically ground), a variable name, or the variable
    set of a computed term.  ``literals_of`` maps a variable to the
    positive literals mentioning it: the candidates whose bound-column
    count and scan cost move when it gets bound.

    Raises :class:`SafetyError` for an unknown builtin or a wrong arity.
    """

    __slots__ = ("items", "preds", "item_vars", "positives", "filters",
                 "binds", "needs", "builtin_defs", "arg_info", "literals_of")

    def __init__(self, items: tuple,
                 builtins: Optional[BuiltinRegistry] = None) -> None:
        self.items = items
        self.preds = positive_preds(items)
        self.item_vars: list[frozenset] = [
            frozenset(v.name for v in item.variables()) for item in items]
        self.positives: list[int] = []
        self.filters: list[int] = []
        self.binds: list[frozenset] = []
        self.needs: dict[int, Any] = {}
        self.builtin_defs: dict[int, Any] = {}
        self.arg_info: dict[int, list] = {}
        self.literals_of: dict[str, list[int]] = {}
        occurrences: dict[str, int] = {}
        for vars_in in self.item_vars:
            for name in vars_in:
                occurrences[name] = occurrences.get(name, 0) + 1
        nothing: frozenset = frozenset()
        for index, item in enumerate(items):
            vars_in = self.item_vars[index]
            if isinstance(item, Literal):
                if item.negated:
                    self.filters.append(index)
                    self.binds.append(nothing)
                    self.needs[index] = frozenset(
                        name for name in vars_in if occurrences[name] > 1)
                    continue
                self.positives.append(index)
                self.binds.append(vars_in)
                for name in vars_in:
                    self.literals_of.setdefault(name, []).append(index)
                info: list = []
                for position, term in enumerate(item.atom.all_args):
                    if isinstance(term, Variable):
                        info.append((position, term.name))
                    else:
                        info.append((position, frozenset(term_vars(term))
                                     or None))
                self.arg_info[index] = info
                continue
            self.filters.append(index)
            if isinstance(item, Comparison):
                left, right = term_vars(item.left), term_vars(item.right)
                if item.op == "=":
                    self.binds.append(vars_in)
                    self.needs[index] = (
                        left, right, isinstance(item.left, Variable),
                        isinstance(item.right, Variable))
                else:
                    self.binds.append(nothing)
                    self.needs[index] = frozenset(left | right)
            elif isinstance(item, BuiltinCall):
                definition = builtins.lookup(item.name) if builtins else None
                if definition is None:
                    raise SafetyError(f"unknown builtin {item.name!r}")
                if definition.arity != len(item.args):
                    raise SafetyError(
                        f"builtin {item.name!r} expects {definition.arity} "
                        f"args, got {len(item.args)}")
                self.builtin_defs[index] = definition
                self.needs[index] = frozenset().union(*(
                    term_vars(item.args[position])
                    for position in definition.input_positions))
                self.binds.append(frozenset().union(*(
                    term_vars(item.args[position])
                    for position in definition.output_positions)))
            else:
                raise TypeError(  # pragma: no cover
                    f"unexpected body item {item!r}")


def order_body(analysis: BodyAnalysis,
               initially_bound: frozenset = frozenset(),
               first: Optional[int] = None,
               sizes: Optional[dict] = None) -> tuple:
    """The evaluation order of a conjunction: ``(order, reordered)``.

    Planning's second lifetime, run whenever a band signature is first
    seen: a pure function of the analysis, the initially-bound variables,
    the forced ``first`` item and the live ``sizes``.  Filters
    (comparisons, builtin calls, negated literals) run as soon as their
    inputs are bound; the next positive literal is the cheapest estimated
    scan when ``sizes`` is given — if it beats the boundness-greedy choice
    by :data:`_REORDER_MARGIN` — else the one with most bound variables,
    ties to source order.  ``reordered`` says the cost model overrode the
    greedy choice somewhere.

    Incremental: a candidate's bound-variable count and scan cost are
    recomputed only when the item just scheduled bound a variable it
    mentions, and a ``(literal, column)`` selectivity is read from
    :meth:`Relation.distinct_count` lazily — only for a column that is
    bound when a choice between candidates is actually made — and at most
    once.  Raises :class:`SafetyError` when some item can never have its
    inputs bound (unsafe conjunction).
    """
    items = analysis.items
    item_vars = analysis.item_vars
    binds = analysis.binds
    needs = analysis.needs
    literals_of = analysis.literals_of
    arg_info = analysis.arg_info
    bound: set[str] = set(initially_bound)
    order: list[int] = []
    reordered = False
    filters = list(analysis.filters)
    #: unscheduled positive literal -> its bound-variable count, in
    #: source order (dicts keep it)
    columns: dict[int, int] = {
        index: len(item_vars[index] & bound) if bound else 0
        for index in analysis.positives}
    costs: dict[int, float] = {}        # absent: stale, recompute on demand
    selectivity: dict[tuple, float] = {}

    def schedule(index: int) -> None:
        order.append(index)
        fresh = binds[index] - bound
        if fresh:
            bound.update(fresh)
            for name in fresh:
                for literal in literals_of.get(name, ()):
                    if literal in columns:
                        columns[literal] += 1
                        costs.pop(literal, None)

    def ready(index: int) -> bool:
        need = needs[index]
        if need.__class__ is frozenset:
            return need <= bound
        left, right, left_is_var, right_is_var = need
        # '=': both sides bound, or one side bound and the other a bare
        # variable to assign
        if left <= bound:
            return right_is_var or right <= bound
        return left_is_var and right <= bound

    def scan_cost(index: int) -> float:
        """Estimated rows touched after index-probing the bound columns.

        Each bound column keeps ``1/distinct`` of the rows when the live
        relation can report its distinct count, falling back to the fixed
        :data:`_BOUND_COLUMN_SELECTIVITY` otherwise (plain cardinality).
        """
        source = sizes.get(items[index].atom.pred, 0)
        relation = None if source.__class__ is int else source
        cost = float(len(relation) if relation is not None else source)
        if not cost:
            return 0.0
        for position, entry in arg_info[index]:
            if entry is None:
                pass  # statically ground: always bound
            elif entry.__class__ is str:
                if entry not in bound:
                    continue
            elif not entry <= bound:
                continue
            factor = selectivity.get((index, position))
            if factor is None:
                factor = _BOUND_COLUMN_SELECTIVITY
                if relation is not None:
                    distinct = relation.distinct_count(position)
                    if distinct > 0:
                        factor = 1.0 / distinct
                selectivity[index, position] = factor
            cost *= factor
        return cost

    if first is not None:
        if first in columns:
            del columns[first]
        else:
            filters.remove(first)
        schedule(first)

    flushed = -1    # len(bound) when the filters last ran dry
    while filters or columns:
        # 1. flush every ready filter; none can have become ready unless
        # something was bound since the last flush ran dry
        if filters and len(bound) != flushed:
            progressed = True
            while progressed:
                progressed = False
                for index in list(filters):
                    if ready(index):
                        filters.remove(index)
                        schedule(index)
                        progressed = True
            flushed = len(bound)
        if not columns:
            if filters:
                unready = [repr(items[i]) for i in filters]
                raise SafetyError(
                    f"unsafe conjunction; cannot schedule: {unready}")
            break
        # 2. choose the next positive literal: cheapest estimated scan when
        # cardinalities are known, else most bound variables; ties (and
        # the no-cost-model path) fall back to boundness then source order.
        if len(columns) == 1:
            (best,) = columns
        else:
            best, most = -1, -1
            for index, count in columns.items():
                if count > most:
                    best, most = index, count
            if sizes is not None:
                candidate, cheapest, widest = -1, 0.0, -1
                for index, count in columns.items():
                    cost = costs.get(index)
                    if cost is None:
                        cost = costs[index] = scan_cost(index)
                    if (candidate < 0 or cost < cheapest
                            or (cost == cheapest and count > widest)):
                        candidate, cheapest, widest = index, cost, count
                if (candidate != best
                        and cheapest * _REORDER_MARGIN < costs[best]):
                    best = candidate
                    reordered = True
        del columns[best]
        schedule(best)
    return tuple(order), reordered


def _compile_order(analysis: BodyAnalysis, initially_bound: frozenset,
                   order: tuple, reordered: bool,
                   terms: TermInterner) -> FlatPlan:
    """The register program of ``order``: planning's third lifetime.

    A pure function of the items, the initially-bound set (those
    variables get the first registers), the order — live sizes only
    ever reach it through the order they produced — and the id space
    ``terms`` its constants are interned into.
    """
    items = analysis.items
    builtin_defs = analysis.builtin_defs
    #: variable -> register; grows as steps compile, so at each step it
    #: holds exactly the variables the plan order has bound so far
    slot_of: dict[str, int] = {
        name: slot for slot, name in enumerate(sorted(initially_bound))}
    steps: list = []
    for index in order:
        item = items[index]
        if isinstance(item, Literal):
            steps.append(_LiteralStep(index, item, slot_of, terms))
        elif isinstance(item, Comparison):
            steps.append(_CompareStep(item, slot_of))
        else:
            steps.append(_BuiltinStep(item, builtin_defs[index], slot_of))
    return FlatPlan(tuple(steps), slot_of, terms, order,
                    frozenset(initially_bound), reordered, analysis)


def build_plan(items: tuple, terms: TermInterner,
               initially_bound: frozenset = frozenset(),
               first: Optional[int] = None,
               builtins: Optional[BuiltinRegistry] = None,
               sizes: Optional[dict] = None,
               analysis: Optional[BodyAnalysis] = None,
               built: Iterable[FlatPlan] = ()) -> FlatPlan:
    """Order ``items`` for evaluation and compile per-step access paths.

    The one function that turns a conjunction into a :class:`FlatPlan` for
    the id space ``terms`` (the interner of the database it will run
    over), in three steps with three lifetimes.  *Analyse*: ``analysis``
    is the caller's kept :class:`BodyAnalysis` of ``items`` (made here
    when the caller keeps none).  *Order* (:func:`order_body`): ``first``
    optionally forces one positive literal to the front (the semi-naive
    delta position); ``sizes`` maps positive body predicates to their
    live :class:`Relation` objects (or plain cardinalities) — when
    provided, positive literals are chosen by estimated scan cost, with
    per-column distinct-count selectivities where a relation is
    available, instead of bound-variable count alone.  *Compile*: only
    for an order not compiled before — ``built`` are plans the caller
    still holds, and one built from this same ``analysis`` and
    ``initially_bound`` in this same order for this same ``terms`` *is*
    the plan (the register program depends on nothing else), so it is
    returned as it stands.  Raises :class:`SafetyError` when some item
    can never have its inputs bound (unsafe rule).
    """
    if analysis is None:
        analysis = BodyAnalysis(items, builtins)
    order, reordered = order_body(analysis, initially_bound, first, sizes)
    for plan in built:
        if (plan.analysis is analysis and plan.order == order
                and plan.assumes == initially_bound
                and plan.terms is terms):
            return plan
    return _compile_order(analysis, initially_bound, order, reordered, terms)


def banded_plan(cache: dict, key, analysis: BodyAnalysis,
                relations: Optional[list], context: EvalContext,
                terms: TermInterner,
                initially_bound: frozenset = frozenset(),
                first: Optional[int] = None) -> FlatPlan:
    """The plan for an analysed conjunction, served from a band-keyed
    bounded cache.

    The one plan cache policy, shared by rules
    (:meth:`repro.datalog.engine.EngineRule.plan`), constraint
    alternatives and the conjunctions :func:`solve` plans on a throwaway
    cache.  Entries are keyed ``(key, bands)``: ``bands`` maps the
    size of each of ``relations`` (the :func:`body_relations` of
    ``analysis.preds``) through :func:`cardinality_band`, so a cached
    plan is reused until some input relation grows or shrinks past a band
    boundary — coarse enough to keep re-orderings rare, fine enough that
    the cost model reacts to order-of-magnitude cardinality shifts.
    ``bands`` is None (one shared greedy plan) without relations, when
    everything is small, or with a single distinct predicate: every
    candidate literal then has the same cardinality, so the cost model
    cannot change the order and size churn must not invalidate the plan.

    A miss costs what it decides (:func:`build_plan`): the body is
    ordered against the live relations — handed to the cost model only
    here, the hot path is a keyed hit — and compiled only if no plan
    still in ``cache`` has that order; a band change that re-derives an
    order caches the plan it already has under the new signature.  The
    compiled programs so live and die with the cache that bounds them.
    A plan is compiled for one id space: a cached plan whose constants
    are ids of another ``terms`` than the caller's (a rule list
    evaluated over a second database) is a miss.
    Accounts ``plans_built`` (orderings run) / ``plans_compiled`` (those
    that had to compile) / ``reorder_wins`` / ``plan_cache_hits`` /
    ``plans_evicted`` to ``context.stats``.
    """
    stats = context.stats
    bands = None
    if relations is not None and len(relations) > 1:
        signature = tuple([
            0 if relation is None else cardinality_band(len(relation))
            for relation in relations])
        if max(signature) > 1:
            bands = signature
    full_key = (key, bands)
    plan = cache.get(full_key)
    if plan is not None and plan.terms is not terms:
        del cache[full_key]
        plan = None
    if plan is None:
        held = cache.values()
        plan = build_plan(analysis.items, terms, initially_bound, first,
                          context.builtins,
                          {pred: relation or 0 for pred, relation
                           in zip(analysis.preds, relations)} if bands
                          else None, analysis, held)
        stats.plans_built += 1
        if plan.order and all(plan is not other for other in held):
            stats.plans_compiled += 1   # a new order, and not an empty body
        if plan.reordered:
            stats.reorder_wins += 1
        if len(cache) >= MAX_CACHED_PLANS:
            # FIFO, not clear-all: that would thrash a rule whose many
            # (delta position, band) keys are all still live
            cache.pop(next(iter(cache)))
            stats.plans_evicted += 1
        cache[full_key] = plan
    else:
        stats.plan_cache_hits += 1
    return plan


# ---------------------------------------------------------------------------
# Conjunction solving
# ---------------------------------------------------------------------------

def _usable_plan(items: tuple, db: Database, context: EvalContext,
                 seed: Bindings, plan: Optional[FlatPlan],
                 first: Optional[int]) -> FlatPlan:
    """``plan`` if its compiled binding assumptions match ``seed``, else
    one planned through :func:`banded_plan` on a throwaway cache (which
    interns the conjunction's constants into ``db.interner``)."""
    if plan is not None and plan.assumes == seed.keys():
        return plan
    analysis = BodyAnalysis(items, context.builtins)
    return banded_plan({}, None, analysis, body_relations(analysis.preds, db),
                       context, db.interner, frozenset(seed), first)


def _seed_row(seed: Bindings, db: Database) -> tuple:
    return tuple([db.interner.intern(seed[name]) for name in sorted(seed)])


def solve(items: tuple, db: Database, context: EvalContext,
          bindings: Optional[Bindings] = None,
          plan: Optional[FlatPlan] = None,
          delta: Optional[dict[str, Relation]] = None,
          delta_position: Optional[int] = None) -> Iterator[Bindings]:
    """Enumerate all satisfying assignments of a conjunction.

    The one enumeration entry point: each solution is a fresh dict over
    every variable the conjunction binds (caller ``bindings`` included),
    materialized from the registers at the walker's leaf.
    ``delta``/``delta_position`` implement semi-naive evaluation: the
    literal at ``delta_position`` scans the delta relation instead of the
    full one.  The walk completes before the first solution is returned,
    so callers may mutate ``db`` while iterating.
    """
    seed = bindings or {}
    flat = _usable_plan(items, db, context, seed, plan, delta_position)
    slots = tuple(flat.slot_of.items())
    values = db.interner.values
    solutions: list[Bindings] = []
    run_flat(flat, db, context, delta, delta_position, None, None, None,
             [_seed_row(seed, db)] if seed else None,
             lambda registers: solutions.append(
                 {name: values[registers[slot]] for name, slot in slots}))
    return iter(solutions)


class _Found(Exception):
    """Internal signal: a seed's walk met its first solution."""


def unsatisfied(flat: FlatPlan, db: Database, context: EvalContext,
                seeds: list) -> list:
    """The ``seeds`` no solution of ``flat`` extends, in order: one
    prepared walk (sources and indexes resolve once), each seed's
    stopping at its first solution, whose registers still hold it."""
    width = len(flat.assumes)
    met: set = set()

    def stop(registers: list) -> None:
        met.add(tuple(registers[:width]))
        raise _Found

    run_flat(flat, db, context, None, None, None, None, None, seeds, stop)
    return [seed for seed in seeds if seed not in met] if met else seeds


def satisfiable(items: tuple, db: Database, context: EvalContext,
                bindings: Optional[Bindings] = None,
                plan: Optional[FlatPlan] = None) -> bool:
    """True iff the conjunction has a solution extending ``bindings``:
    the one-seed case of :func:`unsatisfied`."""
    seed = bindings or {}
    flat = _usable_plan(items, db, context, seed, plan, None)
    return not unsatisfied(flat, db, context, [_seed_row(seed, db)])


def bindable_vars(items: tuple, builtins: Optional[BuiltinRegistry] = None) -> set:
    """Variables a conjunction can bind (positive literals, '=', outputs)."""
    bound: set = set()
    for item in items:
        if isinstance(item, Literal) and not item.negated:
            bound.update(v.name for v in item.variables())
        elif isinstance(item, Comparison) and item.op == "=":
            bound.update(term_vars(item.left) | term_vars(item.right))
        elif isinstance(item, BuiltinCall) and builtins is not None:
            definition = builtins.lookup(item.name)
            if definition is not None:
                for position in definition.output_positions:
                    if position < len(item.args):
                        bound.update(term_vars(item.args[position]))
    return bound


def check_rule_safety(rule, builtins: Optional[BuiltinRegistry] = None) -> None:
    """Raise :class:`SafetyError` for unschedulable bodies or unbound heads.

    Schedulability is the planner's verdict, so this runs its analysis
    and ordering — and stops there: no register program is compiled only
    to be thrown away.  Variables inside head-position quote templates
    are exempt: they may legitimately remain variables of the generated
    rule.
    """
    order_body(BodyAnalysis(rule.body, builtins))
    bound = bindable_vars(rule.body, builtins)
    if rule.agg is not None:
        bound.add(rule.agg.result.name)
    for head in rule.heads:
        for term in head.all_args:
            if isinstance(term, Quote):
                continue
            missing = term_vars(term) - bound
            if missing:
                raise SafetyError(
                    f"head variable(s) {sorted(missing)} of {head.pred!r} "
                    f"are not bound by the rule body (not range-restricted)"
                )
