"""Shared Hypothesis strategies for properties over generated programs.

One generator every property draws from, grown piece by piece; the
first piece is the schema: typed declarations (primitive and nominal
types) plus positive rules over them, split across loads.  The second
is quoted patterns: listening rules whose bodies hold quotes, and
streams of says, asserts and retracts that feed them.  The third is
hostile deliveries: honest says between principals, interleaved with
injected blocks and said rules no receiver can activate.  The fourth is
transaction streams under constraints: asserts, retracts and says,
rollbacks, and constraints installed, removed and reinstalled mid-stream.
The next two drive the join core directly: two-literal rules in the
join kernel's shape, and constraints of several alternatives per side
over fact streams.  The last is rule source texts: every term, literal
and quote kind the lexer reads, ``me`` included on request.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from hypothesis import assume
from hypothesis import strategies as st

from repro.datalog.errors import ParseError
from repro.datalog.parser import parse_statements
from repro.datalog.terms import Rule

#: builtin type predicates (``int(N)`` compiles to a builtin call)
PRIMITIVES = ("int", "string", "float", "number", "any")
#: user types: relation literals, compatible only with themselves
NOMINALS = ("principal", "object", "mode")
VARIABLES = ("X", "Y", "Z", "W")


@dataclass(frozen=True)
class SchemaProgram:
    """Declarations and rules, as the loads that install them."""

    loads: tuple      # program texts, in load order
    arities: dict     # declared predicate -> arity

    @property
    def text(self) -> str:
        """Every statement in one program text."""
        return "".join(self.loads)


@st.composite
def declarations(draw, count=st.integers(1, 4)):
    """``(pred, arity, statement)``: ``dI(A,B) -> int(A), object(B).``,
    some positions left untyped, at least one typed."""
    found = []
    for index in range(draw(count)):
        arity = draw(st.integers(1, 3))
        types = draw(st.lists(st.sampled_from(PRIMITIVES + NOMINALS + (None,)),
                              min_size=arity, max_size=arity))
        if all(t is None for t in types):
            types[0] = draw(st.sampled_from(PRIMITIVES + NOMINALS))
        args = "ABC"[:arity]
        rhs = ", ".join(f"{t}({a})" for t, a in zip(types, args) if t)
        found.append((f"d{index}", arity,
                      f"d{index}({','.join(args)}) -> {rhs}.\n"))
    return found


@st.composite
def typed_rules(draw, arities: dict, count=st.integers(1, 4)):
    """``(preds read or derived, statement)``: positive rules whose
    body joins declared predicates, each head a fresh predicate or a
    declared one, over body variables only (so every rule is safe).
    No two differ only by label or variable names: a registry interns
    those as one rule."""
    preds = sorted(arities)
    found = []
    seen = set()
    for index in range(draw(count)):
        body = []
        for pred in draw(st.lists(st.sampled_from(preds),
                                  min_size=1, max_size=3)):
            body.append((pred, draw(st.lists(
                st.sampled_from(VARIABLES), min_size=arities[pred],
                max_size=arities[pred]))))
        bound = sorted({v for _, args in body for v in args})
        head = draw(st.sampled_from([f"h{index}"] + preds))
        arity = arities.get(head) or draw(st.integers(1, len(bound)))
        head_args = draw(st.lists(st.sampled_from(bound),
                                  min_size=arity, max_size=arity))
        atoms = [(head, head_args)] + body
        order: dict = {}
        shape = tuple((p, tuple(order.setdefault(v, len(order)) for v in a))
                      for p, a in atoms)
        if shape not in seen:
            seen.add(shape)
            found.append((
                {p for p, _ in body} | {head} & set(arities),
                f"r{index}: {head}({','.join(head_args)}) <- "
                + ", ".join(f"{p}({','.join(a)})" for p, a in body) + ".\n"))
    return found


@st.composite
def schema_programs(draw, max_loads: int = 3) -> SchemaProgram:
    """Declarations and rules split across 1..``max_loads`` loads, each
    declaration in a load no later than any rule that uses it; the
    statements of one load come in any order."""
    decls = draw(declarations())
    arities = {pred: arity for pred, arity, _ in decls}
    loads_count = draw(st.integers(1, max_loads))
    loads: list = [[] for _ in range(loads_count)]
    placed: dict = {}
    for pred, _, text in decls:
        placed[pred] = draw(st.integers(0, loads_count - 1))
        loads[placed[pred]].append(text)
    for uses, text in draw(typed_rules(arities)):
        earliest = max(placed[pred] for pred in uses)
        loads[draw(st.integers(earliest, loads_count - 1))].append(text)
    return SchemaProgram(
        tuple("".join(draw(st.permutations(load))) for load in loads if load),
        arities)


@st.composite
def arity_clashes(draw, arities: dict) -> str:
    """One statement using a declared predicate at another arity: a
    fact, a rule body literal or a rule head."""
    pred = draw(st.sampled_from(sorted(arities)))
    wrong = draw(st.sampled_from(
        [n for n in (arities[pred] - 1, arities[pred] + 1) if n > 0]))
    args = ",".join(VARIABLES[:wrong])
    return draw(st.sampled_from([
        f"{pred}({','.join('1' * wrong)}).",
        f"clash(X) <- {pred}({args}).",
        f"{pred}({args}) <- src{wrong}({args}).",
    ]))


# ---------------------------------------------------------------------------
# Quoted patterns, and the update streams that maintain them
# ---------------------------------------------------------------------------

#: Listening rules over body quotes, named by the shape each exercises.
#: Every quote but the carrier-less one's is bound by an ordinary literal
#: (``says``, ``active``, ``made``) before its Figure 1 join; the
#: unreached literal reads a Figure 1 relation outside any quote, and the
#: aggregates count what is said and the ``p`` it makes hold.
PATTERNS = {
    "quoted fact": "heardp(U,X) <- says(U,me,[| p(X). |]).\n",
    "quoted rule": "heardrule(U,X,Y) <- says(U,me,[| p(X) <- q(X,Y). |]).\n",
    "kleene star": "heardq(U,X) <- says(U,me,[| q(X,T*). |]).\n",
    "functor variable": "reads(U,P) <- says(U,me,[| A <- P(T*), A*. |]).\n",
    "nested under active": "activep(X) <- active(R), R = [| p(X). |].\n",
    "nested value":
        "wrapped(U,X) <- says(U,me,[| wrap(R). |]), R = [| p(X). |].\n",
    "carrier-less": "anyp(X) <- R = [| p(X). |].\n",
    "unreached literal":
        'sawwrap(U) <- says(U,me,[| p(2). |]), functor(_, "wrap").\n',
    "delayed reflection":
        "made([| p(X). |]) <- trigger(X).\nmadep(Y) <- made([| p(Y). |]).\n",
    "aggregates": ("saidby(U,N) <- agg<<N = count(R)>> says(U,me,R).\n"
                   "pcount(N) <- agg<<N = count(X)>> p(X).\n"),
}

#: says1 (paper section 4.1): every rule said to ``me`` is activated.
SAYS1 = "active(R) <- says(_,me,R).\n"

#: What a speaker says: rule texts, and ``("wrap", text)`` for the fact
#: ``wrap(R)`` whose constant ``R`` is the ref of ``text`` — a ref named
#: inside another, reflected with it.
SAID = (
    "p(1).", "p(2).", "q(1,2).", "q(2,1).", "p(1) <- q(1,2).",
    "p(X) <- q(X,Y).", "q(X,Y) <- p(X), p(Y).",
    ("wrap", "p(1)."), ("wrap", "p(3)."),
)
SPEAKERS = ("alice", "carol")
#: Facts a stream asserts and retracts directly (``p`` is derived too).
STREAM_EDB = (("trigger", (1,)), ("trigger", (2,)), ("q", (1, 2)),
              ("q", (2, 2)), ("p", (3,)))


@dataclass(frozen=True)
class PatternStream:
    """One program of listening rules and the steps that feed it."""

    program: str
    #: ``("say" | "unsay", speaker, said)`` and ``("assert" | "retract",
    #: pred, fact)``; a step that would change nothing is skipped
    steps: tuple


@st.composite
def pattern_streams(draw, max_steps: int = 8) -> PatternStream:
    """says1 plus a non-empty choice of :data:`PATTERNS`, and a stream
    mixing says, un-says, asserts and retracts."""
    names = draw(st.lists(st.sampled_from(sorted(PATTERNS)), min_size=1,
                          unique=True))
    says = st.tuples(st.sampled_from(("say", "say", "unsay")),
                     st.sampled_from(SPEAKERS), st.sampled_from(SAID))
    updates = st.tuples(st.sampled_from(("assert", "assert", "retract")),
                        st.sampled_from(STREAM_EDB)).map(
        lambda step: (step[0], *step[1]))
    steps = draw(st.lists(st.one_of(says, updates), min_size=1,
                          max_size=max_steps))
    return PatternStream(SAYS1 + "".join(PATTERNS[name] for name in names),
                         tuple(steps))


# ---------------------------------------------------------------------------
# Hostile deliveries beside honest says
# ---------------------------------------------------------------------------

PEERS = ("alice", "bob", "carol")
#: What every principal loads: a listener, and a rule that a said
#: ``alarm`` rule would close a negative cycle through.
LISTENING = "gotA(X) <- ping(X).\ncalm(X) <- ping(X), !alarm(X).\n"
#: Injected blocks: ``kind -> (to, pred, fact)`` for a receiver ``to``.
INJECTED = {
    "wrong arity": lambda to: (to, "gotA", (1, 2)),
    "figure 1": lambda to: (to, "functor", ("a", "b")),
    "unknown principal": lambda to: ("nobody", "ping", ("x",)),
}
#: Said rules a receiver cannot activate.
UNACTIVATABLE = {
    "unsafe": "evil(X) <- !q(X).",
    "negative cycle": "alarm(X) <- calm(X).",
}


@dataclass(frozen=True)
class HostileStream:
    """``("say", (speaker, listener), k)`` says ``ping("tk")``;
    ``("inject", receiver, kind)`` sends an :data:`INJECTED` block from
    a node no principal lives on; ``("say rule", (speaker, listener),
    kind)`` says an :data:`UNACTIVATABLE` rule; ``("run",)`` runs.  The
    stream ends with a run."""

    steps: tuple

    @property
    def honest(self) -> tuple:
        """The stream without its hostile steps."""
        return tuple(step for step in self.steps
                     if step[0] in ("say", "run"))


@st.composite
def hostile_streams(draw, max_steps: int = 10) -> HostileStream:
    pairs = st.permutations(PEERS).map(lambda peers: peers[:2])
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("say"), pairs, st.integers(0, 3)),
        st.tuples(st.just("inject"), st.sampled_from(PEERS),
                  st.sampled_from(sorted(INJECTED))),
        st.tuples(st.just("say rule"), pairs,
                  st.sampled_from(sorted(UNACTIVATABLE))),
        st.just(("run",))), min_size=1, max_size=max_steps))
    return HostileStream(tuple(steps) + (("run",),))


# ---------------------------------------------------------------------------
# Transaction streams under constraints
# ---------------------------------------------------------------------------

#: Constraints a stream installs and removes, by label: both sides
#: negated, existential right-hand sides, a left-hand side with no
#: positive literal, a volatile builtin, and quoted left-hand patterns
#: over the Figure 1 relations — carried by ``says`` and carrier-less.
CONSTRAINTS = {
    "implies": "implies: p(X) -> q(X) ; s(X).",
    "negated rhs": "negrhs: p(X) -> !r(X).",
    "negated lhs": "neglhs: q(X), !r(X) -> p(X).",
    "join": "join: p(X), q(X) -> s(X) ; (r(Y), Y > X).",
    "existential": "exists: !p(_) -> s(_).",
    "builtin": "small: q(X) -> X < 2 ; trusted(X).",
    "volatile": "vol: s(X), rsize(N) -> N < 2 ; q(X).",
    "says": "saysok: says(U,me,R) -> trusted(U) ; U = me.",
    "quoted": "quoted: says(U,me,[| p(X). |]) -> q(X) ; trusted(U).",
    "quoted rule": 'qrule: says(U,me,[| A <- B*. |]), functor(A,"q") -> '
                   "trusted(U).",
    "carrier-less": "anyp: R = [| p(X). |] -> !r(X).",
}
#: Rules a stream's workspace may hold: says1, a rule whose negation
#: makes deletions, and one that makes ``trusted`` derived too.
TXN_RULES = {
    "says1": "active(R) <- says(_,me,R).\n",
    "negation": "s(X) <- q(X), !r(X).\n",
    "trust": "trusted(U) <- vouch(U).\n",
}
TXN_FACTS = (("p", (1,)), ("p", (2,)), ("q", (1,)), ("q", (2,)),
             ("r", (1,)), ("r", (2,)), ("s", (2,)), ("vouch", ("alice",)),
             ("trusted", ("carol",)), ("trusted", (1,)))
#: What a speaker says: fact rules a quote matches, and rules (which
#: says1 activates)
TXN_SAID = ("p(1).", "p(2).", "p(3).", "q(1).", "q(X) <- p(X).",
            "r(X) <- p(X), q(X).")


@dataclass(frozen=True)
class TransactionStream:
    """A workspace's rules and first constraints, then transactions:
    ``(ops, abort)``, rolled back when ``abort``.  An op is ``("assert" |
    "retract", pred, fact)``, ``("say" | "unsay", speaker, text)``,
    ``("install" | "remove" | "reinstall", label)`` — a reinstall removes
    the constraint and installs it again, in the one transaction."""

    rules: str
    constraints: tuple
    transactions: tuple


@st.composite
def transaction_streams(draw, max_transactions: int = 8
                        ) -> TransactionStream:
    rules = draw(st.lists(st.sampled_from(sorted(TXN_RULES)), unique=True))
    labels = st.sampled_from(sorted(CONSTRAINTS))
    first = draw(st.lists(labels, unique=True, max_size=4))
    facts = st.tuples(st.sampled_from(("assert", "assert", "retract")),
                      st.sampled_from(TXN_FACTS)).map(
        lambda step: (step[0], *step[1]))
    says = st.tuples(st.sampled_from(("say", "say", "unsay")),
                     st.sampled_from(SPEAKERS), st.sampled_from(TXN_SAID))
    changes = st.tuples(st.sampled_from(("install", "remove", "reinstall")),
                        labels)
    ops = st.one_of(facts, facts, says, changes)
    transactions = draw(st.lists(
        st.tuples(st.lists(ops, min_size=1, max_size=4).map(tuple),
                  st.sampled_from((False, False, False, True))),
        min_size=1, max_size=max_transactions))
    return TransactionStream("".join(TXN_RULES[name] for name in rules),
                             tuple(first), tuple(transactions))


# ---------------------------------------------------------------------------
# Activation streams
# ---------------------------------------------------------------------------

#: Derived predicates (unary) and the EDB: ``s(X)`` and the edge ``e(X,Y)``.
#: Only a rule defines a derived predicate, so a head is new until some
#: rule reads or defines it.
ACTIVATION_HEADS = ("a", "b", "c", "d")
ACTIVATION_EDB = (("s", (1,)), ("s", (2,)), ("s", (3,)), ("e", (1, 2)),
                  ("e", (2, 3)), ("e", (3, 1)))
#: What an activation stream's workspace checks: ``s(99)`` violates it.
ACTIVATION_CONSTRAINT = "small: s(X) -> X < 50."


@st.composite
def activation_rules(draw) -> str:
    """A rule over the pool: a positive join, a negated literal, a
    ``count`` aggregate, or recursion through ``e``; any body literal
    may read a derived predicate at any stratum, the head's own too.  Or
    a ground fact of one or two heads, over a derived predicate or over
    ``s``, so a said row may coincide with a derived or asserted one."""
    head = draw(st.sampled_from(ACTIVATION_HEADS))
    body = st.sampled_from(ACTIVATION_HEADS + ("s",))
    shape = draw(st.sampled_from(("join", "negation", "count", "recursion",
                                  "fact")))
    first = draw(body)
    if shape == "fact":
        heads = draw(st.lists(st.tuples(body, st.integers(1, 3)),
                              min_size=1, max_size=2))
        return ", ".join(f"{pred}({k})" for pred, k in heads) + "."
    if shape == "join":
        return f"{head}(X) <- {first}(X), {draw(body)}(X)."
    if shape == "negation":
        return f"{head}(X) <- {first}(X), !{draw(body)}(X)."
    if shape == "count":
        return f"{head}(N) <- agg<<N = count(X)>> {first}(X)."
    return f"{head}(Y) <- {head}(X), e(X,Y), {first}(Y)."


@dataclass(frozen=True)
class ActivationStream:
    """Steps on one workspace: ``("add", rule)`` activates (a negative
    cycle refuses it), ``("deactivate", k)`` retracts the k-th rule
    activated so far (modulo), ``("violate", rule)`` activates it in a
    transaction whose constraint check then fails, ``("assert", pred,
    fact)`` adds an EDB fact and ``("retract", pred, fact)`` takes it
    out again (nothing, when it is not asserted)."""

    steps: tuple


@st.composite
def activation_streams(draw, max_steps: int = 12) -> ActivationStream:
    rules = activation_rules()
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), rules),
        st.tuples(st.just("add"), rules),
        st.tuples(st.just("deactivate"), st.integers(0, 20)),
        st.tuples(st.just("violate"), rules),
        st.sampled_from(ACTIVATION_EDB).map(
            lambda fact: ("assert", *fact)),
        st.sampled_from(ACTIVATION_EDB).map(
            lambda fact: ("retract", *fact))),
        min_size=1, max_size=max_steps))
    return ActivationStream(tuple(steps))


# ---------------------------------------------------------------------------
# Reflection: rules of every shape reification describes
# ---------------------------------------------------------------------------

#: constant arguments of every value type a meta fact can hold; ``$r1``
#: and ``$r2`` name rules interned before any drawn one
REFLECTED_VALUES = ('"a"', "7", "-2.5", "true", "$r1", '{1,"b",$r2}', "0x0f")
#: bodies over a quoted pattern (starred or not), a negation, a
#: comparison (invisible to reflection) and a partitioned atom
REFLECTED_BODIES = (
    'says(U,"bob",[| P(T*) <- A*. |])',
    'says(U,"bob",[| creditOK(X). |])',
    "!q(X,Y)",
    "X > 1",
    'cell["k"](X)',
)


@st.composite
def reflected_rules(draw) -> str:
    """A rule text of a shape reification describes: a ground fact of one
    or two heads over str / int / float / bool / rule-ref / tuple values,
    or a rule of one or two heads (one partitioned, ``cell["k"]``) over
    positive atoms, quoted patterns, negation and comparisons."""
    value = st.sampled_from(REFLECTED_VALUES)
    preds = st.sampled_from(["p", "msg:id", 'cell["k"]'])

    def atom(args) -> str:
        return f"{draw(preds)}({','.join(draw(st.lists(args, min_size=1, max_size=3)))})"

    heads = draw(st.integers(1, 2))
    if draw(st.booleans()):
        return ", ".join(atom(value) for _ in range(heads)) + "."
    term = st.one_of(value, st.sampled_from(["X", "Y"]))
    body = draw(st.lists(st.sampled_from(REFLECTED_BODIES), max_size=3))
    return (", ".join(atom(term) for _ in range(heads)) + " <- "
            + ", ".join(["r(X,Y)"] + body) + ".")


# ---------------------------------------------------------------------------
# Two-literal joins
# ---------------------------------------------------------------------------

#: Bodies of the two-literal join kernel's shape: an outer literal,
#: scanned or keyed on a constant, and an inner one probed on the
#: variable they share (``e`` twice is the closure's own join)
JOIN_BODIES = ("p(X,Y), q(Y,Z)", 'k("a",X,Y), q(Y,Z)', "e(X,Y), e(Y,Z)")
#: Binary heads with one term from each literal, plain and mirrored, and
#: heads the kernel emits term by term
JOIN_HEADS = ("h(X,Z)", "h(Z,X)", "h(Y,Z)", "h(X,Y)", 'h(X,"c")',
              "h3(X,Y,Z)")
JOIN_VALUES = (0, 1, 2, 3)


@dataclass(frozen=True)
class JoinCase:
    """A two-literal rule over a database, and how one application of it
    runs: ``lead`` is the body literal the plan puts first, ``delta``
    the rows of the literal at ``delta_position`` (None: no delta),
    ``known`` whether the head relation's rows are the dedup set (else
    ``()``, as DRed passes), ``produced`` the rows already produced."""

    rule: str
    rows: tuple
    lead: int
    delta_position: object
    delta: tuple
    known: bool
    produced: tuple


@st.composite
def join_cases(draw) -> JoinCase:
    body = draw(st.sampled_from(JOIN_BODIES))
    head = draw(st.sampled_from(JOIN_HEADS))
    value = st.sampled_from(JOIN_VALUES)
    pair = st.tuples(value, value)
    # a few rows of the wrong arity in every body relation: longer ones,
    # since an index on a column a row lacks is no join's business
    binary = st.lists(st.one_of(pair, pair, pair,
                                st.tuples(value, value, value)), max_size=12)
    keyed = st.lists(st.one_of(
        st.tuples(st.sampled_from(("a", "a", "b")), value, value),
        st.tuples(st.just("a"), value, value, value)), max_size=8)
    relations = {"p": binary, "q": binary, "e": binary, "k": keyed,
                 "h": st.lists(pair, max_size=6),
                 "h3": st.lists(st.tuples(value, value, value), max_size=4)}
    rows = tuple((pred, row) for pred, strategy in relations.items()
                 for row in draw(strategy))
    delta_position = draw(st.sampled_from((None, 0, 1)))
    delta: tuple = ()
    if delta_position is not None:
        pred = body.split(", ")[delta_position].split("(")[0]
        delta = tuple(draw(relations[pred]))
    head_pred = head.split("(")[0]
    return JoinCase(f"{head} <- {body}.", rows, draw(st.sampled_from((0, 1))),
                    delta_position, delta, draw(st.booleans()),
                    tuple(draw(relations[head_pred])))


# ---------------------------------------------------------------------------
# Constraint checks
# ---------------------------------------------------------------------------

#: LHS alternatives, each binding X and Y; ``odd`` and ``half`` fail on
#: some values, and a negation may sit on either side
CHECK_LHS = ("p(X,Y)", "p(X,Y), !q(X)", "r(X,Y), odd(X)",
             "q(X), q(Y), X < Y", "p(X,Y), half(X,H)", "r(Y,X), !r(X,Y)")
#: RHS alternatives over X and Y, some with existential variables
CHECK_RHS = ("q(X)", "r(Y,Z)", "p(Y,X)", "!r(X,Y)", "odd(Y)",
             "half(Y,H2), q(H2)", "r(X,Z), !q(Z)", "X = Y")
CHECK_VALUES = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class CheckStream:
    """Constraints of several alternatives on each side, the facts they
    start over, then transactions of ``("assert" | "retract", pred,
    fact)`` ops, and the ``limit`` a direct check is run with."""

    constraints: tuple
    facts: tuple
    transactions: tuple
    limit: object


def _check_fact(pred: str, value):
    return st.tuples(value) if pred == "q" else st.tuples(value, value)


@st.composite
def check_streams(draw, max_transactions: int = 6) -> CheckStream:
    value = st.sampled_from(CHECK_VALUES)

    def side(pool) -> str:
        return " ; ".join(f"({alternative})" for alternative in draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                     unique=True)))

    constraints = tuple(
        f"c{number}: {side(CHECK_LHS)} -> {side(CHECK_RHS)}."
        for number in range(draw(st.integers(1, 2))))
    pred = st.sampled_from(("p", "q", "r"))
    fact = pred.flatmap(lambda name: _check_fact(name, value).map(
        lambda row: (name, row)))
    facts = tuple(draw(st.lists(fact, max_size=10)))
    op = st.tuples(st.sampled_from(("assert", "assert", "retract")),
                   fact).map(lambda step: (step[0], *step[1]))
    transactions = tuple(tuple(ops) for ops in draw(st.lists(
        st.lists(op, min_size=1, max_size=3), max_size=max_transactions)))
    return CheckStream(constraints, facts, transactions,
                       draw(st.sampled_from((None, 1, 2, 3))))


# ---------------------------------------------------------------------------
# Rule source texts
# ---------------------------------------------------------------------------

# Rule *source texts*, the form a speaker says: bodies with negation,
# comparisons over arithmetic, aggregates, partitioned atoms, quotes,
# labels, and every literal kind the lexer reads.  Built as text (like
# tests/analysis/test_dataflow_property.py) so the printer under test
# never writes its own input.  Names are drawn as a first character and
# a rest, not from a regex: the same language, generated several times
# faster.

#: lexer keywords, which are never a functor or a predicate
KEYWORDS = {"me", "true", "false", "agg"}
_NAME_CHARS = string.ascii_letters + string.digits + "_"


def names(first: str, max_rest: int, rest: str = _NAME_CHARS):
    """``[first][rest]{0,max_rest}``."""
    return st.builds(str.__add__, st.sampled_from(first),
                     st.text(rest, max_size=max_rest))


identifiers = names(string.ascii_lowercase, 8).filter(
    lambda name: name not in KEYWORDS)
var_names = names(string.ascii_uppercase, 6)
_digits = st.text(string.digits, min_size=1, max_size=18)


def string_literal(text):
    """``text`` as a string literal, escaped exactly as the lexer reads."""
    escaped = (text.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\t", "\\t"))
    return f'"{escaped}"'


constant_texts = st.one_of(
    st.integers(min_value=-10 ** 12, max_value=10 ** 12).map(str),
    # positional floats of any magnitude: 0.00001 and 12345678901234567.5
    # print with an exponent under repr
    st.builds("{}.{}".format, _digits, _digits),
    st.text(max_size=12).map(string_literal),
    st.binary(min_size=1, max_size=6).map(lambda raw: "0x" + raw.hex()),
    st.sampled_from(["true", "false"]),
    identifiers,                       # a bare name is a string constant
)
arith_ops = st.sampled_from(["+", "-", "*", "/", "%"])
compare_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def term_texts(draw, depth=2, me=False):
    """A term; ``me`` among them when ``me`` is set."""
    kind = draw(st.integers(min_value=-1 if me else 0,
                            max_value=7 if depth else 2))
    if kind == -1:
        return "me"
    if kind == 0:
        return draw(var_names)
    if kind == 1:
        return draw(constant_texts)
    if kind == 2:
        return "_"
    inner = term_texts(depth - 1, me)
    if kind == 3:
        left, op, right = draw(inner), draw(arith_ops), draw(inner)
        if op == "%":   # modulo is glued: an unglued '%' starts a comment
            return f"{left}%{right}"
        return f"{left} {op} {right}"
    if kind == 4:
        return f"({draw(inner)})"
    if kind == 5:
        return f"-{draw(inner)}"
    if kind == 6:
        keys = draw(st.lists(inner, min_size=1, max_size=2))
        return f"{draw(identifiers)}[{', '.join(keys)}]"
    return f"[| {draw(pattern_texts(me))} |]"


@st.composite
def pattern_atom_texts(draw, negatable=False, me=False):
    arg = st.one_of(var_names, constant_texts, st.just("*"),
                    var_names.map(lambda name: name + "*"),
                    st.builds("{} - {}".format, var_names,
                              st.one_of(var_names, constant_texts)))
    args = draw(st.lists(st.one_of(arg, st.just("me")) if me else arg,
                         max_size=3))
    functor = draw(st.one_of(identifiers, var_names))
    negation = draw(st.sampled_from(["", "!"])) if negatable else ""
    return f"{negation}{functor}({', '.join(args)})"


@st.composite
def pattern_texts(draw, me=False):
    heads = ", ".join(draw(st.lists(pattern_atom_texts(me=me), min_size=1,
                                    max_size=2)))
    body = draw(st.lists(st.one_of(
        pattern_atom_texts(negatable=True, me=me), st.just("*"), var_names,
        var_names.map(lambda name: f"{name} = [| q({name}). |]")),
        max_size=2))
    return f"{heads} <- {', '.join(body)}." if body else f"{heads}."


@st.composite
def atom_texts(draw, me=False):
    name = draw(st.one_of(identifiers, st.builds(
        "{}:{}".format, identifiers, identifiers)))     # qualified name
    keys = draw(st.lists(term_texts(1, me), max_size=2))
    args = draw(st.lists(term_texts(me=me), max_size=3))
    prefix = f"{name}[{', '.join(keys)}]" if keys else name
    return f"{prefix}({', '.join(args)})"


@st.composite
def literal_texts(draw, me=False):
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return "!" + draw(atom_texts(me))
    if kind == 1:
        return (f"{draw(term_texts(me=me))} {draw(compare_ops)} "
                f"{draw(term_texts(me=me))}")
    if kind == 2:
        return (f"!({draw(var_names)} {draw(compare_ops)} "
                f"{draw(term_texts(me=me))})")
    return draw(atom_texts(me))


@st.composite
def rule_texts(draw, me=False):
    """A rule; ``me`` may stand for a term anywhere but in an aggregate
    when ``me`` is set."""
    heads = ", ".join(draw(st.lists(atom_texts(me), min_size=1, max_size=2)))
    label = draw(st.one_of(st.just(""), identifiers.map(lambda name: name + ": ")))
    if draw(st.booleans()):
        return f"{label}{heads}."
    body = ", ".join(draw(st.lists(literal_texts(me), min_size=1,
                                   max_size=3)))
    if draw(st.booleans()):
        result, over = draw(var_names), draw(term_texts(1))
        func = draw(st.sampled_from(["count", "total", "min", "max"]))
        body = f"agg<<{result} = {func}({over})>> {body}"
    return f"{label}{heads} <- {body}."


@st.composite
def constraint_texts(draw, me=False):
    """A constraint ``F1 -> F2.``, its right side possibly empty."""
    lhs, rhs = (", ".join(draw(st.lists(literal_texts(me), min_size=low,
                                        max_size=3)))
                for low in (1, 0))
    return f"{lhs} -> {rhs}."


def the_statement(text, kind=Rule):
    """The one statement of ``kind`` that ``text`` parses to (a generated
    text that is not exactly one is discarded)."""
    try:
        statements = parse_statements(text)
    except ParseError:
        assume(False)
    assume(len(statements) == 1 and isinstance(statements[0], kind))
    return statements[0]
