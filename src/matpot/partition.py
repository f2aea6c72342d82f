"""Matroid partition.

``solve_partition`` decides whether a set can be split into one independent
set per matroid.  It grows a partial partition element by element; to place a
new element it runs a breadth-first search over single-element exchanges
(``_reach``, the package's one exchange-graph search, run once per element
by the placement loop ``_place``): an element y can enter class i directly
if the class stays independent, and otherwise every member of the unique
circuit of (class i) + y could be evicted to make room.  Both answers
come from one call of the circuit core ``Matroid._circuit``, which linear
matroids answer with integer dot products against the class's memoized
reduced form.  A class as large as
its matroid's ``rank_bound`` (a free upper bound on the rank) is a basis
and cannot take y, so the search first asks only the classes below their
bound, in class order, and asks the full ones for their exchange circuits
only when none of those takes y; the class that takes y, and the order in
which the circuits are enqueued, are those of a walk over every class in
turn.  A class the search grows by a y it just asked about gets its form
by one fraction-free pivot step from the form it asked against, not by a
new elimination.  The search holds only labels of the problem's ground
set, so it calls the cores and memos directly and checks no label per
step.  The answer is validated before it is returned: the certificate by
comparing its parts' labels with the ground set and reading each part's
independence memo, the witness through the public rank oracle.
Following a shortest chain of such exchanges either places the element
or, when the search is exhausted, the set of reached elements is a
certified violation of the counting bound

    |A| <= sum_i r_i(A),

because every reached element lies in the span of (class i) intersected with
the reached set, for every i.  No class is re-checked after an exchange:
every circuit core refuses a dependent class, which the search reports as
an inconsistent oracle, as it does a class at its bound that takes y, and
the final answer is validated anyway.

When the last matroid is uniform of rank l, call A *tight* if
|A| = l + sum_i r_i(A) over the other matroids.  ``min_tight_set`` finds the
least tight set from one partition (I_1, ..., I_k, U) of a tight ground set:
such a partition has |U| = l and every I_i a basis, and since

    |A| = |A & U| + sum_i |A & I_i| <= l + sum_i r_i(A),

A is tight exactly when U is inside A and every A & I_i spans A in M_i, that
is, A contains the fundamental circuit of I_i + y for every y in A outside
I_i.  So the closure of U under these circuits lies in every tight set; it
is checked to be tight, hence it is the minimum.  The closure is the
exchange search seeded with U rather than with one new element, a class
that takes a reached y being a free slot of U.

The same closure R gives ``slack_elements`` (the elements some partition puts
in U) on any ground set: its exchange chains move each member into U.  If U
has a free slot, or a reached y fits a class as it stands, any element can
enter U; otherwise R is tight, and the inequality puts every U inside R.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InternalError, InvalidMatroidError, PreconditionError, SizeLimitError, integer
from .matroids import Matroid, UniformMatroid


@dataclass(frozen=True)
class PartitionProblem:
    """Matroids on one ground set; TypeError for an entry that is not a
    Matroid."""

    matroids: tuple[Matroid, ...]

    def __post_init__(self):
        if not all(isinstance(M, Matroid) for M in self.matroids):
            raise TypeError("a partition problem takes Matroid instances")
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
        """The parts are disjoint, cover exactly the ground labels (ints
        1..n) and are independent, each by its matroid's independence memo:
        once the labels are known to be the ground set's, no part needs a
        label check of its own."""
        if len(self.parts) != problem.m:
            return False
        seen: set = set()
        for part in self.parts:
            if part & seen:
                return False
            seen |= part
        if seen != frozenset(problem.ground.labels) or not all(type(e) is int for e in seen):
            return False
        return all(M._memo_independent(frozenset(part)) for part, M in zip(self.parts, problem.matroids))


@dataclass(frozen=True)
class DeficiencyWitness:
    A: frozenset
    size: int
    bound: int

    def validate(self, problem: PartitionProblem) -> bool:
        bound = sum(M.rank(self.A) for M in problem.matroids)
        return self.size == len(self.A) and self.bound == bound and self.size > bound


MAX_SIZE = 64  # largest number of elements a partition takes by default


def _reach(matroids, classes, seeds):
    """Breadth-first search of the exchange graph from ``seeds``.

    Each dequeued y takes two passes over the classes that do not hold it,
    in class order.  The first asks only the classes below their matroid's
    ``rank_bound``; the first of them that takes y ends the search.  A
    class at its bound is a basis and cannot take y, so this is the class a
    walk over every class would pick, and it is asked only for exchange
    circuits: only when no class takes y does the second pass ask the full
    classes, reuse the first pass's answers and enqueue every circuit in
    class order.  A full class that takes y convicts the oracle.

    Returns (y, i, parent) for the y that class i takes, parent mapping
    each reached element to the (element, class) whose circuit reached it;
    otherwise the frozenset of reached elements.  Skipping the classes that
    hold y, not y's class, serves disjoint partition classes and bases and
    slots that share labels alike.
    """
    # the classes do not change during a search
    below = [i for i, M in enumerate(matroids) if len(classes[i]) < M.rank_bound]
    asks = [(M._circuit, clazz) for M, clazz in zip(matroids, classes)]
    parent: dict[int, tuple[int, int]] = {}
    visited = set(seeds)
    queue = deque(visited)
    try:
        while queue:
            y = queue.popleft()
            asked = {}
            for i in below:
                ask, clazz = asks[i]
                if y not in clazz:
                    circuit = asked[i] = ask(clazz, y)
                    if circuit is None:
                        return y, i, parent
            for i, (ask, clazz) in enumerate(asks):
                if y in clazz:
                    continue
                circuit = asked.get(i)
                if circuit is None:
                    circuit = ask(clazz, y)
                    if circuit is None:
                        raise InvalidMatroidError(
                            "a class at its rank bound took another element; the "
                            "independence oracle is inconsistent with the matroid axioms"
                        )
                new = circuit - visited
                if new:
                    visited |= new
                    parent.update(dict.fromkeys(new, (y, i)))
                    queue.extend(sorted(new))
    except PreconditionError as exc:
        # every circuit core refuses a dependent class; the classes are
        # independent under the matroid axioms
        raise InvalidMatroidError(
            "a class of the exchange search is dependent; the independence "
            "oracle is inconsistent with the matroid axioms"
        ) from exc
    return frozenset(visited)


def _place(matroids, elements):
    """Place the elements, in order, into classes that start empty, one
    per matroid.

    Each element gets one search (``_reach``); when a class takes an
    element, the chain of exchanges that led to it is applied.  Returns the
    classes, a list of frozensets, or the frozenset of elements reached by
    the search for the first element that cannot be placed."""
    classes = [frozenset()] * len(matroids)
    for e in elements:
        found = _reach(matroids, classes, (e,))
        if isinstance(found, frozenset):
            return found
        _apply_chain(classes, *found)
    return classes


def _apply_chain(classes, terminal, dest, parent):
    """Move terminal into class dest and each element up the chain into the
    class its successor left.  An element leaves the class whose circuit
    reached it (its parent pointer); the seed, with no pointer, leaves
    none.  Each move is a class ``-`` or ``|`` a one-element set."""
    cur, target = terminal, dest
    while True:
        reached = parent.get(cur)
        src = None if reached is None else reached[1]
        if src is not None:
            classes[src] -= {cur}
        classes[target] |= {cur}
        if reached is None:
            return
        cur, target = reached[0], src


def solve_partition(problem: PartitionProblem, max_size: int = MAX_SIZE):
    """Partition the ground set across the matroids.

    The ground labels are placed in order from empty classes (``_place``,
    the placement loop the strong search of ``systems`` shares).  Returns a
    PartitionCertificate, or a DeficiencyWitness violating the counting
    bound: the labels the search for the first unplaceable label reached.
    Both are re-validated before they are returned: the certificate on the
    independence memos once its labels are known to be exactly the ground
    set's (``PartitionCertificate.validate``), the witness through the
    public rank oracle.  PreconditionError for a ``max_size`` that is not
    an integer (``errors.integer``).
    """
    max_size = integer(max_size, None, PreconditionError, "max_size must be an integer, got {!r}")
    n = problem.ground.n
    if n > max_size:  # by arithmetic, before any label is built
        raise SizeLimitError(f"partition limited to {max_size} elements, got {n}")
    placed = _place(problem.matroids, problem.ground.labels)
    if isinstance(placed, frozenset):
        bound = sum(M.rank(placed) for M in problem.matroids)
        witness = DeficiencyWitness(A=placed, size=len(placed), bound=bound)
        if not witness.validate(problem):
            raise InvalidMatroidError(
                "search exhausted but the reached set does not violate the "
                "counting bound; independence oracle inconsistent"
            )
        return witness
    cert = PartitionCertificate(parts=tuple(placed))
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
    fundamental circuits ``M_i._circuit(I_i, y)`` of the other classes: one
    exchange search from U (``_reach``).

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
    reached = _reach(problem.matroids[:-1], classes, uniform)
    return reached if isinstance(reached, frozenset) else None


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
    docstring).  A uniform part of rank 0 gets the empty set, the closure of
    an empty U.
    """
    closure = _uniform_closure(problem, "no partition of the full ground set exists")
    return frozenset(problem.ground.labels) if closure is None else closure

