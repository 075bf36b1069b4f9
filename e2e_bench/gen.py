"""Seeded input generators — everything a workload feeds the program.

Two random sources, on purpose:

* ``SHAPE_SEED`` fixes the *shape* of every input (the graph, group
  hierarchy, grant fan-out, which users are hot, the RSA keys).  It is part
  of the benchmark definition, like a size.
* ``--seed`` relabels that shape (user/group/object/principal names,
  message tokens) and draws every order (edge insertion, request streams,
  update choices, read order).

The driver compares medians of runs made with *different* seeds, so the
amount of work must not depend on the seed: isomorphic inputs give equal
derivation counts, and only names and orders move.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

SHAPE_SEED = 20090104  # CIDR 2009; never derived from --seed

GRAPH_VERTICES = 100
USERS, GROUPS, OBJECTS = 500, 40, 200
ROOT_GROUPS = 8
GROUPS_PER_USER = 2
GRANTS_PER_GROUP = 12
ZIPF_S = 1.0

REACH_PROGRAM = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""

#: The served RBAC policy: recursive membership through nested groups,
#: access via group grants and via ownership.
RBAC_POLICY = """
rb1: member(U,G) <- memberOf(U,G).
rb2: member(U,G) <- member(U,H), subgroup(H,G).
rb3: access(U,O,P) <- member(U,G), grant(G,O,P).
rb4: access(U,O,P) <- owner(U,O), perm(P).
perm("read"). perm("write").
"""


def rng_for(seed, *salt) -> random.Random:
    """A stream keyed by ``seed`` and a purpose; str seeding hashes with
    SHA-512, so it does not depend on ``PYTHONHASHSEED``."""
    return random.Random(":".join(str(part) for part in (seed, *salt)))


def _relabel(seed, purpose: str, prefix: str, count: int) -> list:
    order = list(range(count))
    rng_for(seed, purpose).shuffle(order)
    return [f"{prefix}{i}" for i in order]


# -- fixpoint_* ---------------------------------------------------------------

def reach_edges(seed, vertices: int = GRAPH_VERTICES) -> list:
    """A ring plus one chord per vertex (out-degree 2, strongly connected,
    so the closure is always ``vertices**2`` facts), in a seeded order.

    The vertex ids are the shape's own: relabelling them moves vertices
    between the hash partitions of the sharded run, and over ten seeds
    that moved the facts shipped by +-8% (11,600 to 13,700) and the BSP
    rounds between 11 and 13 — work that depends on the seed."""
    shape = rng_for(SHAPE_SEED, "graph", vertices)
    edges = set()
    for vertex in range(vertices):
        successor = (vertex + 1) % vertices
        chord = shape.choice([t for t in range(vertices)
                              if t not in (vertex, successor)])
        edges.add((vertex, successor))
        edges.add((vertex, chord))
    edges = sorted(edges)
    rng_for(seed, "graph").shuffle(edges)
    return edges


# -- serve_* ------------------------------------------------------------------

@dataclass
class Policy:
    users: list
    groups: list
    objects: list
    member_of: set = field(default_factory=set)   # (user, group)
    subgroup: set = field(default_factory=set)    # (child, parent)
    grant: set = field(default_factory=set)       # (group, object, "read")
    owner: set = field(default_factory=set)       # (user, object)
    zipf_cum: list = field(default_factory=list)  # cumulative, aligned with users

    def facts(self) -> dict:
        return {"subgroup": self.subgroup, "grant": self.grant,
                "owner": self.owner, "memberOf": self.member_of}


def rbac_policy(seed, users: int = USERS, groups: int = GROUPS,
                objects: int = OBJECTS) -> Policy:
    shape = rng_for(SHAPE_SEED, "rbac", users, groups, objects)
    policy = Policy(_relabel(seed, "users", "u", users),
                    _relabel(seed, "groups", "g", groups),
                    _relabel(seed, "objects", "o", objects))
    for child in range(ROOT_GROUPS, groups):  # a forest under the roots
        policy.subgroup.add((policy.groups[child],
                             policy.groups[shape.randrange(child)]))
    for user in policy.users:
        for group in shape.sample(policy.groups, GROUPS_PER_USER):
            policy.member_of.add((user, group))
    for group in policy.groups:
        for obj in shape.sample(policy.objects, GRANTS_PER_GROUP):
            policy.grant.add((group, obj, "read"))
    for obj in policy.objects:
        policy.owner.add((shape.choice(policy.users), obj))
    # users[r] has Zipf rank r: the hot users are the same *shape* users
    # under every seed, only their names change.
    policy.zipf_cum = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(users)))
    return policy


class RequestStream:
    """The closed-loop client's request sequence for one pass.

    ``block`` is a string over ``Q`` (query), ``A`` (assert a fresh
    ``memberOf``) and ``R`` (retract one this stream asserted earlier);
    each block is shuffled, so the mix is exact per block and the order
    random.  ``prefill()`` asserts come first so an ``R`` always finds a
    live membership.
    """

    def __init__(self, policy: Policy, rng: random.Random, block: str,
                 point_share: float = 0.5) -> None:
        self.policy = policy
        self.rng = rng
        self.block = block
        self.point_share = point_share
        self.members = set(policy.member_of)
        self.live: list = []
        self.pending: list = []   # generated but not yet handed out

    def prefill(self, count: int = 20) -> list:
        return [self._assert() for _ in range(count)]

    def take(self, count: int) -> list:
        # Whole blocks are generated at a time; what a call does not hand
        # out waits for the next one, so every generated update is sent and
        # ``live`` stays in step with the server.
        while len(self.pending) < count:
            block = list(self.block)
            self.rng.shuffle(block)
            for kind in block:
                if kind == "Q":
                    self.pending.append(self._query())
                elif kind == "A":
                    self.pending.append(self._assert())
                else:
                    self.pending.append(self._retract())
        requests, self.pending = self.pending[:count], self.pending[count:]
        return requests

    def _query(self) -> tuple:
        user = self.rng.choices(self.policy.users,
                                cum_weights=self.policy.zipf_cum)[0]
        if self.rng.random() < self.point_share:
            obj = self.rng.choice(self.policy.objects)
            return ("query", user, obj)
        return ("query", user, None)

    def _assert(self) -> tuple:
        while True:
            pair = (self.rng.choice(self.policy.users),
                    self.rng.choice(self.policy.groups))
            if pair not in self.members:
                break
        self.members.add(pair)
        self.live.append(pair)
        return ("assert",) + pair

    def _retract(self) -> tuple:
        pair = self.live.pop(self.rng.randrange(len(self.live)))
        self.members.discard(pair)
        return ("retract",) + pair


def query_text(user: str, obj) -> str:
    target = f'"{obj}"' if obj is not None else "O"
    return f'access("{user}",{target},"read")'


# -- fig2_* -------------------------------------------------------------------

def message_tokens(rng: random.Random, count: int) -> list:
    return [f"{value:08x}" for value in rng.sample(range(1 << 32), count)]


# -- fs_demo ------------------------------------------------------------------

@dataclass
class FsScenario:
    store: str
    owner: str
    manager: str
    requesters: list
    files: dict            # file name -> contents
    granted: set           # (requester, file) pairs the manager permits
    reads: list            # (requester, file) in issue order


def fs_scenario(rng: random.Random, requesters: int = 3) -> FsScenario:
    """One store, one delegating owner, one depth-0 manager and
    ``requesters`` requesters; requester i may read exactly one file and is
    refused exactly one other."""
    tag = f"{rng.randrange(1 << 16):04x}"
    names = [f"req{i}_{tag}" for i in range(requesters)]
    files = {f"file{i}_{tag}": f"data{i}_{rng.randrange(1 << 16):04x}"
             for i in range(requesters)}
    order = list(files)
    rng.shuffle(order)
    granted = {(names[i], order[i]) for i in range(requesters)}
    refused = [(names[i], order[(i + 1) % requesters])
               for i in range(requesters)]
    reads = sorted(granted) + refused
    rng.shuffle(reads)
    return FsScenario(f"store_{tag}", f"owner_{tag}", f"mgr_{tag}", names,
                      files, granted, reads)
