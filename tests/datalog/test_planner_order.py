"""Planning decides the same as ever; it only stops redoing its work.

The planner orders a body incrementally — a candidate literal's bound
count and scan cost move only when a variable it mentions gets bound,
and a column's selectivity is read once.  ``reference_order`` below is the
straightforward loop it replaced (every candidate re-costed at every
step), kept here as the oracle: on generated bodies, generated relation
contents and the paper's section 9 fixture the two must return the
identical ``(order, reordered)`` — or the identical ``SafetyError``.

The second half pins the hazard of serving one compiled order under
several band signatures: a compiled plan carries per-head state, so a
plan may be re-served to the rule that owns it and to nobody else.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_one_executor import section9_file_system

from repro.datalog.builtins import standard_registry
from repro.datalog.database import Database
from repro.datalog.engine import (
    EvalStats,
    evaluate,
    normalize_rules,
)
from repro.datalog.errors import ParseError, SafetyError
from repro.datalog.incremental import propagate_deletions
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import (
    _BOUND_COLUMN_SELECTIVITY,
    _REORDER_MARGIN,
    BodyAnalysis,
    EvalContext,
    order_body,
    term_vars,
)
from repro.datalog.stratify import stratify
from repro.datalog.terms import (
    BuiltinCall,
    Comparison,
    Constant,
    Literal,
    Rule,
    Variable,
)
from repro.meta.quote import compile_rule

BUILTINS = standard_registry()


def reference_order(items, initially_bound=frozenset(), first=None,
                    builtins=None, sizes=None):
    """The ordering loop as it was: nothing kept between steps."""
    remaining = list(range(len(items)))
    bound = set(initially_bound)
    order, reordered = [], False
    item_vars = [{v.name for v in item.variables()} for item in items]
    positive = [isinstance(item, Literal) and not item.negated
                for item in items]
    definitions = {}
    for index, item in enumerate(items):
        if isinstance(item, BuiltinCall):
            definition = builtins.lookup(item.name) if builtins else None
            if definition is None:
                raise SafetyError(f"unknown builtin {item.name!r}")
            if definition.arity != len(item.args):
                raise SafetyError(
                    f"builtin {item.name!r} expects {definition.arity} "
                    f"args, got {len(item.args)}")
            definitions[index] = definition
    occurrences = {}
    for vars_in in item_vars:
        for name in vars_in:
            occurrences[name] = occurrences.get(name, 0) + 1

    def ready(index):
        item = items[index]
        if isinstance(item, Literal):
            return all(occurrences[name] == 1 and name not in initially_bound
                       or name in bound for name in item_vars[index])
        if isinstance(item, Comparison):
            left, right = term_vars(item.left), term_vars(item.right)
            if item.op != "=":
                return left | right <= bound
            return (left <= bound and right <= bound
                    or left <= bound and isinstance(item.right, Variable)
                    or right <= bound and isinstance(item.left, Variable))
        return all(term_vars(item.args[position]) <= bound
                   for position in definitions[index].input_positions)

    def schedule(index):
        item = items[index]
        order.append(index)
        remaining.remove(index)
        if positive[index] or isinstance(item, Comparison) and item.op == "=":
            bound.update(item_vars[index])
        elif isinstance(item, BuiltinCall):
            for position in definitions[index].output_positions:
                bound.update(term_vars(item.args[position]))

    def scan_cost(index):
        source = sizes.get(items[index].atom.pred, 0)
        relation = None if isinstance(source, int) else source
        cost = float(len(relation) if relation is not None else source)
        if not cost:
            return 0.0
        for position, term in enumerate(items[index].atom.all_args):
            if isinstance(term, Variable):
                if term.name not in bound:
                    continue
            elif not isinstance(term, Constant) \
                    and not term_vars(term) <= bound:
                continue
            distinct = relation.distinct_count(position) \
                if relation is not None else 0
            cost *= 1.0 / distinct if distinct > 0 \
                else _BOUND_COLUMN_SELECTIVITY
        return cost

    if first is not None:
        schedule(first)
    while remaining:
        progressed = True
        while progressed:
            progressed = False
            for index in list(remaining):
                if not positive[index] and ready(index):
                    schedule(index)
                    progressed = True
        if not remaining:
            break
        candidates = [i for i in remaining if positive[i]]
        if not candidates:
            unready = [repr(items[i]) for i in remaining]
            raise SafetyError(
                f"unsafe conjunction; cannot schedule: {unready}")
        ranked = [(len(item_vars[i] & bound), i) for i in candidates]
        best = greedy = max(ranked, key=lambda pair: (pair[0], -pair[1]))[1]
        if sizes is not None and len(candidates) > 1:
            cheapest, _, candidate = min(
                (scan_cost(i), -columns, i) for columns, i in ranked)
            if (candidate != greedy
                    and cheapest * _REORDER_MARGIN < scan_cost(greedy)):
                best, reordered = candidate, True
        schedule(best)
    return tuple(order), reordered


def outcome(thunk):
    try:
        return thunk()
    except SafetyError as exc:
        return "unsafe", str(exc)


def assert_same_order(items, bound=frozenset(), first=None, sizes=None,
                      builtins=BUILTINS):
    expected = outcome(
        lambda: reference_order(items, bound, first, builtins, sizes))
    actual = outcome(
        lambda: order_body(BodyAnalysis(items, builtins), bound, first,
                           sizes))
    assert actual == expected
    return actual


# -- generated bodies ---------------------------------------------------------
#
# The rule/fact soup of tests/analysis/test_dataflow_property.py, narrowed
# to what steers the planner: few predicates and few variables (so
# literals share them), fixed arities (so relations can be filled), and
# builtins and '='-assignments among the literals.

ARITY = {"p": 1, "q": 2, "r": 2, "s": 3, "t": 1, "u": 2}
VARS = ["X", "Y", "Z", "W", "V"]
var_names = st.sampled_from(VARS)
constants = st.one_of(st.integers(min_value=0, max_value=5).map(str),
                      st.sampled_from(['"a"', '"b"']))
terms = st.one_of(var_names, var_names, constants, st.just("_"),
                  st.tuples(var_names, st.sampled_from("+-*"),
                            st.integers(min_value=1, max_value=3))
                  .map(lambda e: f"{e[0]} {e[1]} {e[2]}"))


@st.composite
def atoms(draw):
    pred = draw(st.sampled_from(sorted(ARITY)))
    args = [draw(terms) for _ in range(ARITY[pred])]
    return f"{pred}({', '.join(args)})"


@st.composite
def literals(draw):
    kind = draw(st.integers(min_value=0, max_value=11))
    if kind == 0:
        return "!" + draw(atoms())
    if kind == 1:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "=", "!="]))
        return f"{draw(terms)} {op} {draw(terms)}"
    if kind == 2:
        return draw(st.sampled_from([
            "strlen({0}, {1})", "concat({0}, {1}, {2})", "number({0})",
            "list_nil({0})", "tostring({0}, {1})"])).format(
                draw(terms), draw(terms), draw(terms))
    return draw(atoms())


@st.composite
def relations(draw, pred):
    """Rows for ``pred``: missing, empty, below or above the cost model's
    64-row floor, each column cycling through its own number of values."""
    size = draw(st.sampled_from([None, 0, 1, 5, 40, 63, 64, 100, 300]))
    if size is None:
        return None
    spread = [draw(st.sampled_from([1, 2, 7, size or 1]))
              for _ in range(ARITY[pred])]
    return {tuple(i % distinct for distinct in spread) for i in range(size)}


@st.composite
def planning_problems(draw):
    body = draw(st.lists(literals(), min_size=1, max_size=7))
    source = f"h(1) <- {', '.join(body)}."
    try:
        (rule,) = parse_statements(source)
    except ParseError:
        return None    # the property quantifies over parser-accepted bodies
    items = compile_rule(rule, None, BUILTINS).body
    db = Database()
    for pred in sorted(ARITY):
        rows = draw(relations(pred))
        if rows is not None:
            db.rel(pred)
            for row in rows:
                db.add(pred, row)
    positives = [index for index, item in enumerate(items)
                 if isinstance(item, Literal) and not item.negated]
    first = draw(st.sampled_from([None] + positives))
    bound = frozenset(draw(st.sets(var_names, max_size=2)))
    live = {pred: db.get(pred) or 0 for pred in ARITY}
    sizes = draw(st.sampled_from([
        None, live, {pred: len(db.tuples(pred)) for pred in ARITY}]))
    return items, bound, first, sizes


@settings(max_examples=300, deadline=None)
@given(problem=planning_problems())
def test_incremental_ordering_equals_the_reference(problem):
    if problem is not None:
        assert_same_order(*problem)


class TestFixedBodies:
    def body(self, source):
        (rule,) = [s for s in parse_statements(source) if isinstance(s, Rule)]
        return compile_rule(rule, None, BUILTINS).body

    @pytest.mark.parametrize("source", [
        "h(X) <- X > 3.",
        "h(X) <- p(X), !q(Y, Z), Y < 2.",
        "h(X) <- strlen(X, N).",
    ])
    def test_unsafe_bodies_raise_the_same_error(self, source):
        verdict = assert_same_order(self.body(source))
        assert verdict[0] == "unsafe"
        assert verdict[1].startswith("unsafe conjunction; cannot schedule: ")

    def test_unknown_builtin_and_arity_texts(self):
        unknown = (BuiltinCall("nosuch", (Variable("X"),)),)
        assert assert_same_order(unknown) == (
            "unsafe", "unknown builtin 'nosuch'")
        short = (BuiltinCall("strlen", (Variable("X"),)),)
        assert assert_same_order(short) == (
            "unsafe", "builtin 'strlen' expects 2 args, got 1")

    def test_equal_costs_go_to_the_more_bound_candidate(self):
        # a and b are both empty (cost 0.0, far below c's probe); of the
        # two, b has a bound column and a has none
        body = self.body("h(X) <- c(X, Y), a(Z), b(X, W).")
        order, reordered = assert_same_order(
            body, frozenset({"X"}), None, {"a": 0, "b": 0, "c": 100})
        assert order[0] == 2 and reordered

    def test_a_selectivity_is_read_lazily_and_once(self):
        """``column_stats_built`` is pinned elsewhere: the planner may ask
        a relation for a column's distinct count only once that column is
        bound at a step that chooses between candidates — and then once."""
        asked = []

        class Stub:
            def __init__(self, name, size):
                self.name, self.size = name, size

            def __len__(self):
                return self.size

            def distinct_count(self, position):
                asked.append((self.name, position))
                return 10

        sizes = {"a": Stub("a", 5), "b": Stub("b", 500), "c": Stub("c", 400),
                 "d": Stub("d", 300)}
        body = self.body("h(W) <- a(X), b(X, Y), c(Y, Z), d(Z, W).")
        assert order_body(BodyAnalysis(body, BUILTINS), frozenset(), None,
                          sizes) == ((0, 1, 2, 3), False)
        # Three choices are made (among 4, 3 and 2 candidates): b's first
        # column is bound at the second, c's at the third, each asked
        # once.  d goes last, the only candidate left — no choice to
        # make, so its statistics are never read.
        assert asked == [("b", 0), ("c", 0)]


def test_section9_bodies_order_the_same_at_their_live_sizes():
    """The fixed corpus: every rule body (each delta position, and the
    head-guarded body DRed re-derives through) and every constraint
    alternative the section 9 system planned, against its live database."""
    system = section9_file_system()
    checked = reorders = 0
    for principal in system.principals.values():
        workspace = principal.workspace
        db, builtins = workspace.db, workspace.builtins
        problems = []
        for rule in workspace._all_engine_rules():
            for first in [None] + rule.positive_positions():
                problems.append((rule.body, frozenset(), first))
            problems.append(((Literal(rule.head),) + rule.body,
                             frozenset(), 0))
        for (alternative, shape, first), _ in workspace._constraint_plans:
            problems.append((alternative, shape, first))
        for items, bound, first in problems:
            live = {item.atom.pred: db.get(item.atom.pred) or 0
                    for item in items if isinstance(item, Literal)}
            counts = {pred: len(relation) if relation else 0
                      for pred, relation in live.items()}
            for sizes in (None, live, counts):
                verdict = assert_same_order(items, bound, first, sizes,
                                            builtins)
                assert verdict[0] != "unsafe"
                checked += 1
                reorders += verdict[1]
    assert checked > 1000 and reorders > 0


# -- a compiled order is re-served to its owner only ---------------------------

def grow(db, pred, rows):
    for row in rows:
        db.add(pred, row)


class TestCompiledOrderSharing:
    @pytest.mark.parametrize("source, heads", [
        ("a(X), b(X) <- p(X), q(X).",
         {"a": lambda x: (x,), "b": lambda x: (x,)}),
        ("a(X), b(Y,X) <- p(X), q(X), Y = X + 1.",
         {"a": lambda x: (x,), "b": lambda x: (x + 1, x)}),
    ])
    def test_each_head_of_a_two_head_rule_derives_into_itself(self, source,
                                                              heads):
        rules = normalize_rules(
            s for s in parse_statements(source) if isinstance(s, Rule))
        assert rules[0].body is rules[1].body   # what made sharing tempting
        db = Database()
        grow(db, "p", [(i,) for i in range(10)])
        grow(db, "q", [(i,) for i in range(5, 15)])
        stats = EvalStats()
        context = EvalContext(stats=stats)
        evaluate(rules, db, context)
        assert (stats.plans_built, stats.plans_compiled) == (2, 2)
        # Both relations cross into a sized band together: equal costs,
        # so each head's rule re-derives the order it has — and re-serves
        # its own compiled plan, not its sibling's.
        grow(db, "p", [(i,) for i in range(10, 100)])
        grow(db, "q", [(i,) for i in range(15, 105)])
        evaluate(rules, db, context)
        assert (stats.plans_built, stats.plans_compiled) == (4, 2)
        for rule in rules:
            first, second = rule._plans.values()
            assert first is second
        assert not ({id(p) for p in rules[0]._plans.values()}
                    & {id(p) for p in rules[1]._plans.values()})
        for pred, row_of in heads.items():
            assert db.tuples(pred) == {row_of(x) for x in range(5, 100)}

    def test_head_bound_and_delta_plans_coexist_under_dred(self):
        """``tests/datalog/test_incremental.py``'s chain: ``step`` holds
        full-pass, delta and head-bound plans at once while deletions
        take ``e`` back across the cost model's floor."""
        source = "base: r(X,Y) <- e(X,Y). step: r(X,Z) <- r(X,Y), e(Y,Z)."
        rules = normalize_rules(
            s for s in parse_statements(source) if isinstance(s, Rule))
        step = next(rule for rule in rules if rule.label == "step")
        db = Database()
        edges = [(i, i + 1) for i in range(70)]
        grow(db, "e", edges)
        edb = {"e": set(db.rel("e").rows)}
        stats = EvalStats()
        context = EvalContext(stats=stats)
        evaluate(rules, db, context)
        coexisted = False
        for cut in (69, 40, 10):
            gone = [edge for edge in edges if edge[0] >= cut]
            edges = edges[:cut]
            deleted = {"e": {db.interner.row_of(edge) for edge in gone}}
            for row in deleted["e"]:
                db.rel("e").discard_row(row)
                edb["e"].discard(row)
            propagate_deletions(stratify(rules), db, context, deleted,
                                edb_facts=lambda p: edb.get(p, set()))
            scratch = Database()
            grow(scratch, "e", edges)
            evaluate(normalize_rules(
                s for s in parse_statements(source) if isinstance(s, Rule)),
                scratch)
            assert db.tuples("r") == scratch.tuples("r")
            # an order is never re-served across the guarded and the
            # plain body (plans of bands the cuts left stay cached)
            guarded = {id(plan) for key, plan in step._plans.items()
                       if key[0] == "head"}
            plain = {id(plan) for key, plan in step._plans.items()
                     if key[0] != "head"}
            assert guarded and not guarded & plain
            coexisted = coexisted or bool(plain)
            assert all(len(plan.order) == 3
                       for key, plan in step._plans.items()
                       if key[0] == "head")
        assert coexisted
        # some order was re-served under a second band signature
        assert stats.plans_compiled < stats.plans_built
