"""Reference answers computed without the program under test.

Each ``check_*`` returns the number of operations that disagree with the
oracle (0 = correct) and appends a description of each disagreement to
``notes``; the harness adds the count to ``failed``.
"""

from __future__ import annotations

from collections import deque


def closure(edges) -> set:
    """Transitive closure by one BFS per source vertex."""
    successors: dict = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    reach = set()
    for source in successors:
        seen = set()
        frontier = deque(successors[source])
        while frontier:
            vertex = frontier.popleft()
            if vertex in seen:
                continue
            seen.add(vertex)
            frontier.extend(successors.get(vertex, ()))
        reach.update((source, vertex) for vertex in seen)
    return reach


def check_closure(expected: set, got: set, notes: list) -> int:
    if got == expected:
        return 0
    notes.append(f"reach: {len(got - expected)} spurious, "
                 f"{len(expected - got)} missing of {len(expected)}")
    return 1


class RbacOracle:
    """The RBAC policy's meaning in plain Python, kept in step with the
    update stream: membership is a dict, everything else is recomputed per
    question by walking the group forest."""

    PERMS = ("read", "write")

    def __init__(self, policy) -> None:
        self.groups_of: dict = {}
        for user, group in policy.member_of:
            self.groups_of.setdefault(user, set()).add(group)
        self.parents: dict = {}
        for child, parent in policy.subgroup:
            self.parents.setdefault(child, set()).add(parent)
        self.grants: dict = {}
        for group, obj, perm in policy.grant:
            self.grants.setdefault(group, set()).add((obj, perm))
        self.owned: dict = {}
        for user, obj in policy.owner:
            self.owned.setdefault(user, set()).add(obj)

    def update(self, kind: str, user: str, group: str) -> None:
        if kind == "assert":
            self.groups_of.setdefault(user, set()).add(group)
        else:
            self.groups_of[user].discard(group)

    def access(self, user: str, obj=None, perm: str = "read") -> set:
        groups = set()
        frontier = list(self.groups_of.get(user, ()))
        while frontier:
            group = frontier.pop()
            if group not in groups:
                groups.add(group)
                frontier.extend(self.parents.get(group, ()))
        rights = {right for group in groups
                  for right in self.grants.get(group, ())}
        rights.update((owned, p) for owned in self.owned.get(user, ())
                      for p in self.PERMS)
        return {(user, o, p) for o, p in rights
                if p == perm and (obj is None or o == obj)}

    def check_round(self, requests: list, answers: list, notes: list) -> int:
        """Replay one round in order: apply each update, compare each
        query's served answer with the closure at that moment."""
        failed = 0
        for request, answer in zip(requests, answers):
            kind, user, target = request
            if kind != "query":
                self.update(kind, user, target)
                if answer is not None:  # the call raised
                    failed += 1
                    notes.append(f"{kind} {user} {target}: {answer}")
                continue
            expected = self.access(user, target)
            if not isinstance(answer, list) or set(answer) != expected:
                failed += 1
                notes.append(f"query {user} {target}: served "
                             f"{_brief(answer)} expected {len(expected)} facts")
        return failed


def check_fig2(tokens: list, got_a: set, got_b: set, report,
               notes: list) -> int:
    """Every ping reached bob and every pong reached alice, verified and
    activated; nothing was rejected on the way."""
    expected = {(token,) for token in tokens}
    failed = len(expected - got_a) + len(expected - got_b) \
        + len(got_a - expected) + len(got_b - expected) + report.rejected
    if report.delivered != 2 * len(tokens):
        failed = max(failed, abs(report.delivered - 2 * len(tokens)))
    if failed:
        notes.append(f"fig2: gotA={len(got_a)} gotB={len(got_b)} of "
                     f"{len(tokens)}; delivered={report.delivered} "
                     f"rejected={report.rejected}")
    return failed


def check_fs_read(scenario, requester: str, fname: str, outcome,
                  notes: list) -> int:
    """``outcome`` is the contents read, or ``None`` for AccessDenied; the
    grant table says which it must be."""
    expected = scenario.files[fname] \
        if (requester, fname) in scenario.granted else None
    if outcome == expected:
        return 0
    notes.append(f"fs read {requester} {fname}: got {outcome!r} "
                 f"expected {expected!r}")
    return 1


def _brief(answer) -> str:
    return f"{len(answer)} facts" if isinstance(answer, list) else repr(answer)
