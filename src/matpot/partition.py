"""Matroid partition.

``solve_partition`` decides whether a set can be split into one independent
set per matroid.  It grows a partial partition element by element; to place a
new element it runs a breadth-first search over single-element exchanges: an
element y can enter class i directly if the class stays independent, and
otherwise every member of the unique circuit of (class i) + y could be
evicted to make room.  Both answers come from one ``Matroid.circuit`` call,
which linear matroids answer with a single elimination.  Following a
shortest chain of such exchanges either places the element or, when the
search is exhausted, the set of reached elements is a certified violation of
the counting bound

    |A| <= sum_i r_i(A),

because every reached element lies in the span of (class i) intersected with
the reached set, for every i.

When the last matroid is uniform of rank l, call A *tight* if
|A| = l + sum_i r_i(A) over the other matroids.  ``min_tight_set`` finds the
least tight set from one partition (I_1, ..., I_k, U) of a tight ground set:
such a partition has |U| = l and every I_i a basis, and since

    |A| = |A & U| + sum_i |A & I_i| <= l + sum_i r_i(A),

A is tight exactly when U is inside A and every A & I_i spans A in M_i, that
is, A contains the fundamental circuit of I_i + y for every y in A outside
I_i.  So the closure of U under these circuits lies in every tight set; it
is checked to be tight, hence it is the minimum.

The same closure R gives ``slack_elements`` (the elements some partition puts
in U) on any ground set: its exchange chains move each member into U.  If U
has a free slot, or a reached y fits a class as it stands, any element can
enter U; otherwise R is tight, and the inequality puts every U inside R.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InternalError, InvalidMatroidError, PreconditionError, SizeLimitError
from .matroids import Matroid, UniformMatroid


@dataclass(frozen=True)
class PartitionProblem:
    matroids: tuple[Matroid, ...]

    def __post_init__(self):
        if not self.matroids:
            raise PreconditionError("a partition problem needs at least one matroid")
        ground = self.matroids[0].ground
        if any(M.ground != ground for M in self.matroids):
            raise PreconditionError("all matroids must share the same ground set")

    @property
    def ground(self):
        return self.matroids[0].ground

    @property
    def m(self) -> int:
        return len(self.matroids)


@dataclass(frozen=True)
class PartitionCertificate:
    parts: tuple[frozenset, ...]

    def validate(self, problem: PartitionProblem) -> bool:
        if len(self.parts) != problem.m:
            return False
        seen: set = set()
        for part, M in zip(self.parts, problem.matroids):
            if part & seen:
                return False
            seen |= part
            if not M.is_independent(part):
                return False
        return seen == frozenset(problem.ground.labels)


@dataclass(frozen=True)
class DeficiencyWitness:
    A: frozenset
    size: int
    bound: int

    def validate(self, problem: PartitionProblem) -> bool:
        bound = sum(M.rank(self.A) for M in problem.matroids)
        return self.size == len(self.A) and self.bound == bound and self.size > bound


def _augment(matroids, classes, color, e):
    """Try to place e; returns None on success, else the reached element set."""
    parent: dict[int, tuple[int, int]] = {}
    visited = {e}
    queue = deque([e])
    while queue:
        y = queue.popleft()
        ycls = color.get(y)
        for i, M in enumerate(matroids):
            if i == ycls:
                continue
            circuit = M.circuit(classes[i], y)
            if circuit is None:
                _apply_chain(matroids, classes, color, parent, y, i)
                return None
            for z in sorted(circuit - {y}):
                if z not in visited:
                    visited.add(z)
                    parent[z] = (y, i)
                    queue.append(z)
    return frozenset(visited)


def _apply_chain(matroids, classes, color, parent, terminal, dest):
    moves = []
    cur, target = terminal, dest
    while True:
        src = color.get(cur)
        moves.append((cur, src, target))
        if src is None:
            break
        pred, cls = parent[cur]
        if cls != src:
            raise InternalError("exchange chain lost track of class membership")
        cur, target = pred, src
    touched = set()
    for element, src, dst in moves:
        if src is not None:
            classes[src].discard(element)
            touched.add(src)
        classes[dst].add(element)
        color[element] = dst
        touched.add(dst)
    for i in touched:
        if not matroids[i].is_independent(classes[i]):
            raise InvalidMatroidError(
                "augmentation left a dependent class; the independence "
                "oracle is inconsistent with the matroid axioms"
            )


def solve_partition(problem: PartitionProblem, max_size: int = 64):
    """Partition the ground set across the matroids.

    Returns a PartitionCertificate, or a DeficiencyWitness violating the
    counting bound.  Both are re-validated before they are returned.
    """
    S = frozenset(problem.ground.labels)
    if len(S) > max_size:
        raise SizeLimitError(f"partition limited to {max_size} elements, got {len(S)}")
    classes = [set() for _ in problem.matroids]
    color: dict[int, int] = {}
    for e in sorted(S):
        reached = _augment(problem.matroids, classes, color, e)
        if reached is not None:
            bound = sum(M.rank(reached) for M in problem.matroids)
            witness = DeficiencyWitness(A=reached, size=len(reached), bound=bound)
            if not witness.validate(problem):
                raise InvalidMatroidError(
                    "search exhausted but the reached set does not violate the "
                    "counting bound; independence oracle inconsistent"
                )
            return witness
    cert = PartitionCertificate(parts=tuple(frozenset(c) for c in classes))
    if not cert.validate(problem):
        raise InvalidMatroidError("constructed partition failed self-validation")
    return cert


def _last_uniform(problem: PartitionProblem) -> UniformMatroid:
    last = problem.matroids[-1]
    if not isinstance(last, UniformMatroid):
        raise PreconditionError("the last matroid must be uniform for tight-set queries")
    return last


def _uniform_closure(problem: PartitionProblem, no_partition: str) -> frozenset | None:
    """Solve the partition once and close its uniform part U under the
    fundamental circuits ``M_i.circuit(I_i, y)`` of the other classes.

    Returns None when U has a free slot: |U| < l, or some reached y fits a
    class as it stands.  Raises PreconditionError(no_partition) when no
    partition exists.
    """
    last = _last_uniform(problem)
    cert = solve_partition(problem)
    if isinstance(cert, DeficiencyWitness):
        raise PreconditionError(no_partition)
    *classes, uniform = cert.parts
    if len(uniform) < last.l:
        return None
    reached = set(uniform)
    queue = deque(reached)
    while queue:
        y = queue.popleft()
        for M, clazz in zip(problem.matroids[:-1], classes):
            if y in clazz:
                continue
            circuit = M.circuit(clazz, y)
            if circuit is None:
                return None
            for z in circuit - reached:
                reached.add(z)
                queue.append(z)
    return frozenset(reached)


def min_tight_set(problem: PartitionProblem) -> frozenset:
    """The least tight set: the closure of the uniform part of one partition.

    Every tight set contains this closure (see the module docstring); the
    closure is checked to be tight before it is returned, so it is the
    minimum.  Requires the last matroid to be uniform, a partition to exist
    and the full ground set to be tight.
    """
    closure = _uniform_closure(problem, "no partition exists; tight-set family is undefined")
    l = problem.matroids[-1].l
    others = problem.matroids[:-1]

    def is_tight(A: frozenset) -> bool:
        return len(A) == l + sum(M.rank(A) for M in others)

    if not is_tight(frozenset(problem.ground.labels)):
        raise PreconditionError("the full ground set is not tight")
    if closure is None:
        raise InternalError("a class of a tight partition does not span the ground set")
    if not is_tight(closure):
        raise InternalError("the circuit closure of the uniform part is not tight")
    return closure


def slack_elements(problem: PartitionProblem) -> frozenset:
    """Elements that some valid partition places in the last (uniform) part.

    This is the closure of ``min_tight_set`` on any ground set, or the whole
    ground set when the uniform part has a free slot (see the module
    docstring).
    """
    _require_slack_rank(problem)
    closure = _uniform_closure(problem, "no partition of the full ground set exists")
    return frozenset(problem.ground.labels) if closure is None else closure


def _require_slack_rank(problem: PartitionProblem) -> None:
    if _last_uniform(problem).l < 1:
        raise PreconditionError("slack elements need a uniform part of rank >= 1")


def tight_set_and_slack(problem: PartitionProblem) -> tuple[frozenset, frozenset]:
    """``(min_tight_set(problem), slack_elements(problem))`` from one partition.

    Where ``min_tight_set`` succeeds the ground set is tight and the closure
    has no free slot, so the slack elements are that same closure.  Raises
    what the two calls raise, in that order.
    """
    minimal = min_tight_set(problem)
    _require_slack_rank(problem)
    return minimal, minimal
