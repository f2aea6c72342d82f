"""Brute-force oracles, independent of the library's algorithms.

Everything here enumerates exhaustively (colorings, token assignments,
subsets, pairs), computes exactly over Q (the Euler-Jacobi pairing jets of
rank-1 arrangements) or evaluates hand-derived closed forms for the
two-hyperplane fixture, so library results can be checked against an
unrelated code path.
``plain_frame`` evaluates an arrangement family's flat frame with plain
numpy solves, the reference for the constant terms of its jets, and
``diagonal_diagnostics`` the ``verify-arrangement`` diagnostics from the
diagonal frame;
``frame_values`` reads the same frame off a degree-0 ``frame_jet``, the
reference the jet tests compare against.  ``point_frame_jet`` is the frame
jet point by point, one ``critical_points`` call and one fiber's series
(``point_series_fiber``) per point, ``point_eigen_candidates`` one fiber's
candidates, and ``point_axiom_report`` the axiom
report sample by sample on it: the references for the stacked sample pass
of ``verify_axioms``.  ``fiber_frame_jet`` is the frame
jet by the fiber route, H = U^-1 diag(p) U in one series solve, the
reference for the H that ``frame_jet`` reads from the family's algebra,
and ``fiber_pairing_jets`` the pairing jets by the same route, products of
the basepoint fiber's series along a trie of label words, the reference
for the pairing jets that ``pairing_jets`` reads from the algebra;
``whole_batch_flat_sections`` multiplies every basis's sections out in one
product per label column, the reference for the prefix tree of
``_flat_sections``: by broadcast multiplies summed over an axis, or by
``SeriesSpace.matmul`` in the sum order of the library.
``remainder_swap_residual`` compares the first-order terms of two pairing
jets, the atomic exchange behind the well-definedness of the second-kind
coefficients.
``pairwise_edges`` is one exception: it applies the pairwise l1 rule
``locally_related`` to every pair, as the reference for the
remainder-closure groups of ``equivalence_report``.  ``min_tight_subset`` maps the library's
``min_tight_set`` of the lifted problem back to labels, and
``matroid_to_json`` is the inverse of ``jsonio.matroid_from_json``.
``fraction_rref`` (Gauss-Jordan over Fraction) is the reference for the
reduced mode of ``matroids._eliminate``, and ``fraction_circuit`` (one
linear solve over Fraction) for the circuits of ``LinearMatroid``;
``tagged_reduced_form`` brings a class's rows to their reduced form by one
fraction-free Gauss-Jordan elimination, the reference for the one-pivot
growth of ``LinearMatroid._grow``.
``scalar_newton_refine`` is another exception: the one-seed Newton loop,
as the bit-for-bit reference for the batched solve;
``greedy_flat_basis`` picks the flat basis greedily by numeric rank on the
solved basepoint fiber, the reference for the exact quotient basis of
``ArrangementData.flat_basis``; ``internally_passive_bases`` picks the
bases of internal activity 0 from the fundamental cocircuits, the reference
for the rule that ``flat_basis`` reads off the minors table;
``elimination_algebra`` builds the family's
algebra with one exact elimination per set (the relation vectors y_R, the
circuit vectors c_S, each basis's determinant), the reference for the
minors table of ``ArrangementData.algebra``; ``k1_polynomial_roots`` takes the rank-1
candidates as the roots of the expanded fiber polynomial (``np.roots``),
the reference for the eigen solve at rank 1.
``reference_partition`` is the earlier augmenting search, which asks every
other class in class order for the circuit of class + y through the public
oracle, kept as the reference for ``solve_partition``, which asks a class at
its rank bound only when no class takes y directly.
``reference_strong_outcome`` decides a strong question the earlier way, by
one partition of the lift (``lift_problem``: one element per multiplicity
unit, m copies of the matroid pulled back to the units by
``LiftedMatroid`` and a uniform tail of rank l), the reference for the
label search of ``systems._strong_outcome``.
``reference_descent_move`` is the earlier exchange search, kept as the
reference for the library's ``descent_move``: it builds the full
``RemainderAlternative`` (two remainder supports, each label decided by its
own strong query in ``label_remainder_support``), uses one label, and
returns the explicit shared-bases witness of each member it moves beside
the move, the paper's constructive certificate.
``discriminant_probe`` calls the library's ``critical_points`` and only
turns its structured errors into False; the tests use it to draw instances
off the discriminant.  ``track_fiber`` follows a fiber's points to another
base point from the library's batched Newton, halving steps until every
point lands on a distinct critical point, independently of the eigen solve.
The same holds for the loop references of the whole-array code:
``loop_second_kind_table`` (the per-T candidate loop of the second-kind
table) and ``tuple_check_first_kind`` / ``tuple_check_second_kind`` (one
contraction per tuple of bases).  ``row_by_row_eliminate`` (Gauss-Jordan
over series, with its own ``newton_reciprocal``) uses only
``SeriesSpace.mul`` and is the reference for the degree recurrences of
``solve``, ``jacobi_det`` and ``reciprocal``; ``jacobi_det`` (Jacobi's
formula through one series solve) is in turn the reference for the
Cauchy-Binet residue weights of ``ArrangementData._series_fiber``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from matpot import (
    DeficiencyWitness,
    DescentMove,
    DiscriminantError,
    GoodDecomposition,
    GroundSet,
    GroundSetError,
    InternalError,
    LinearMatroid,
    Matroid,
    PartitionCertificate,
    PartitionProblem,
    PreconditionError,
    SchemaError,
    SizeLimitError,
    StrongDecomposition,
    System,
    UniformMatroid,
    critical_points,
    find_strong_decomposition,
    l1_distance,
    min_tight_set,
)
from matpot.arrangements import FamilyAlgebra
from matpot.matroids import _eliminate
from matpot.systems import SystemBoundViolation, _check_arity, _required


def base_systems(ctx) -> list:
    """The bases of ctx's matroid as 0/1 systems, in lexicographic order
    of their multiplicity vectors."""
    labels = ctx.matroid.ground.labels
    return sorted((ctx.system([int(j in B) for j in labels]) for B in ctx.matroid.bases()), key=lambda s: s.mult)


def multi_factorial(T) -> int:
    """T! = T_1! ... T_n!, exactly."""
    return math.prod(math.factorial(t) for t in T)


def graded_lex_monomials(n: int, q: int) -> list:
    """The exponent tuples of the monomials of degree <= q in n variables,
    by total degree, then lexicographically: every tuple of the box sorted,
    independently of ``series.graded_lex_exponents``."""
    return sorted((e for e in product(range(q + 1), repeat=n) if sum(e) <= q), key=lambda e: (sum(e), e))


def monomial_index(space) -> dict:
    """{alpha: position of delta^alpha} over the monomials of ``space``, by
    ``graded_lex_monomials``."""
    return {alpha: c for c, alpha in enumerate(graded_lex_monomials(space.n, space.q))}


def subsets(elems):
    elems = sorted(elems)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            yield frozenset(combo)


def fraction_rank(rows):
    """Rank of equal-length rational rows by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                q = f / lead
                for c in range(col, cols):
                    m[r][c] -= q * m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_rref(rows, width: int):
    """Gauss-Jordan over Fraction: ``(rank, rows, det)`` with the rows in
    reduced row echelon form on the first ``width`` columns (each pivot 1,
    zero above and below it), the further columns carried along, and det
    the product of the pivots met.  Each column pivots on its first nonzero
    entry at or below the rows already pivoted, which that row swaps with."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank, det = 0, Fraction(1)
    for col in range(width):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        det *= lead
        m[rank] = [v / lead for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank, m, det


def fraction_circuit(rows, C, y):
    """The unique circuit in C + y of the row matroid of ``rows`` (label i
    is row i), or None when C + y is independent, for an independent class
    C: solve lambda R_C = r_y over Fraction; the support of lambda, with y,
    is the circuit, and no solution means r_y is outside C's span."""
    if y in C:
        return None
    labels = sorted(C)
    system = [[rows[e - 1][j] for e in labels] + [rows[y - 1][j]] for j in range(len(rows[y - 1]))]
    rank, m, _ = fraction_rref(system, len(labels))
    assert rank == len(labels), "the class must be independent"
    if any(row[-1] for row in m[rank:]):
        return None
    return frozenset(e for e, row in zip(labels, m) if row[-1]) | {y}


def tagged_reduced_form(int_rows, C, width: int):
    """The labels of C (sorted) and the form (pivots, D, free, tags) of
    ``LinearMatroid._echelon`` by one fraction-free Gauss-Jordan elimination
    of C's integer rows, each tagged with a unit vector, or None when the
    rows are dependent: D is the last pivot, the rows come in pivot order."""
    labels = sorted(C)
    n = len(labels)
    tagged = [tuple(int_rows[e - 1]) + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, e in enumerate(labels)]
    rank, m = _eliminate(tagged, width, reduced=True)
    if rank < n:
        return None
    pivots = tuple(next(c for c, v in enumerate(row) if v) for row in m)
    D = m[-1][pivots[-1]] if m else 1
    free = tuple((c, tuple(row[c] for row in m)) for c in range(width) if c not in pivots)
    tags = tuple(tuple(row[c] for row in m) for c in range(width, width + n))
    return tuple(labels), (pivots, D, free, tags)


def brute_rank(M, A):
    return max(len(S) for S in subsets(A) if M.is_independent(S))


def circuits_within(M, subset, max_size=20):
    """All inclusion-minimal dependent subsets of ``subset``.

    Plain enumeration by size; refuses sets larger than ``max_size``.
    """
    A = M.ground.check_subset(subset)
    if len(A) > max_size:
        raise SizeLimitError(
            f"circuit enumeration limited to {max_size} elements, got {len(A)}"
        )
    circuits = []
    for S in subsets(A):
        if S and not any(c <= S for c in circuits) and not M.is_independent(S):
            circuits.append(S)
    return frozenset(circuits)


def rank_bound_holds(problem, subset=None, max_size=20):
    """Brute-force check of |A| <= sum_i r_i(A) over every subset.

    Returns True when the bound always holds; otherwise a DeficiencyWitness of
    maximal deficiency (ties broken by size, then lexicographically).
    """
    S = (
        frozenset(problem.ground.labels)
        if subset is None
        else problem.ground.check_subset(subset)
    )
    if len(S) > max_size:
        raise SizeLimitError(
            f"brute-force bound check limited to {max_size} elements, got {len(S)}"
        )
    best = None
    best_deficiency = 0
    for A in subsets(S):
        bound = sum(M.rank(A) for M in problem.matroids)
        deficiency = len(A) - bound
        if deficiency > best_deficiency:
            best_deficiency = deficiency
            best = DeficiencyWitness(A=A, size=len(A), bound=bound)
    return True if best is None else best


def tight_sets(problem, max_size=20):
    """Every subset A with |A| = l + sum_i r_i(A), where l is the rank of the
    last (uniform) matroid and the sum runs over the others.

    Plain enumeration of all subsets; refuses ground sets larger than
    ``max_size``.  When the problem partitions and the full ground set is
    tight, the family is closed under union and intersection.
    """
    elems = problem.ground.labels
    if len(elems) > max_size:
        raise SizeLimitError(
            f"tight-set enumeration limited to {max_size} elements, got {len(elems)}"
        )
    last, others = problem.matroids[-1], problem.matroids[:-1]
    return frozenset(
        A for A in subsets(elems) if len(A) == last.l + sum(M.rank(A) for M in others)
    )


def tight_subsets(T, l):
    """Every subset B of supp T whose T-mass equals l + m * r(B), by enumeration."""
    ctx = T.ctx
    return frozenset(
        B
        for B in subsets(T.support)
        if sum(T(j) for j in B) == l + ctx.m * ctx.matroid.rank(B)
    )


def _valid_partitions(matroids, elements):
    """Every split of ``elements`` into one independent set per matroid, by
    enumerating class assignments in lexicographic order."""
    elements = sorted(elements)
    m = len(matroids)
    for assignment in product(range(m), repeat=len(elements)):
        parts = [set() for _ in range(m)]
        for e, c in zip(elements, assignment):
            parts[c].add(e)
        if all(M.is_independent(P) for M, P in zip(matroids, parts)):
            yield tuple(frozenset(P) for P in parts)


def brute_partition(matroids, elements):
    """First class assignment (in lexicographic order) that partitions
    ``elements`` into independent sets, or None."""
    return next(_valid_partitions(matroids, elements), None)


def reference_partition(problem):
    """The partition by breadth-first augmenting exchanges that asks, for
    each dequeued y, every class but y's own in class order for
    ``circuit(class, y)``, and gives y to the first that answers None.

    Returns the PartitionCertificate, or the DeficiencyWitness of the set
    reached when an element cannot be placed, neither of them validated.
    """
    classes = [frozenset()] * problem.m
    color = {}
    for e in sorted(problem.ground.labels):
        parent, visited, queue = {}, {e}, deque([e])
        while queue:
            y = queue.popleft()
            taker = None
            for i, M in enumerate(problem.matroids):
                if i == color.get(y):
                    continue
                circuit = M.circuit(classes[i], y)
                if circuit is None:
                    taker = i
                    break
                for z in sorted(circuit - {y}):
                    if z not in visited:
                        visited.add(z)
                        parent[z] = y
                        queue.append(z)
            if taker is not None:
                # y enters the taker, and each element up the chain enters
                # the class its successor left
                while y is not None:
                    src = color.get(y)
                    if src is not None:
                        classes[src] -= {y}
                    classes[taker] |= {y}
                    color[y] = taker
                    y, taker = parent.get(y), src
                break
        else:
            A = frozenset(visited)
            return DeficiencyWitness(A=A, size=len(A), bound=sum(M.rank(A) for M in problem.matroids))
    return PartitionCertificate(parts=tuple(classes))


def reference_closure(matroids, classes, seeds):
    """The labels the exchange search from ``seeds`` reaches, breadth-first,
    one public ``circuit(class, y)`` question per reached y and class that
    does not hold it, each circuit enqueued in label order; None as soon as
    a class takes a y.  Asks no batched question (``_circuits``)."""
    reached, queue = set(seeds), deque(seeds)
    while queue:
        y = queue.popleft()
        for M, clazz in zip(matroids, classes):
            if y in clazz:
                continue
            circuit = M.circuit(clazz, y)
            if circuit is None:
                return None
            for z in sorted(circuit - reached):
                reached.add(z)
                queue.append(z)
    return frozenset(reached)


def brute_slack_elements(problem):
    """Union of the last parts over every valid partition of the ground set."""
    found = frozenset()
    for parts in _valid_partitions(problem.matroids, problem.ground.labels):
        found |= parts[-1]
    return found


def brute_strong_decompositions(T, l):
    """All strong decompositions of T by token assignment, canonicalized to
    (sorted part multiplicity tuples, remainder tuple).

    Each token goes to one of the m parts or to the remainder, in every way;
    a partial assignment is dropped as soon as a part holds more than k
    tokens or one label twice, or the remainder more than l tokens.
    """
    ctx = T.ctx
    m, k, n = ctx.m, ctx.k, ctx.n
    matroid = ctx.matroid
    tokens = []
    for j in range(1, n + 1):
        tokens.extend([j] * T(j))
    caps = [k] * m + [l]
    mults = [[0] * n for _ in range(m + 1)]
    sizes = [0] * (m + 1)
    found = set()

    def assign(pos):
        if pos == len(tokens):
            if sizes != caps:
                return
            for part in mults[:m]:
                if not matroid.is_independent(frozenset(j for j in range(1, n + 1) if part[j - 1])):
                    return
            parts = tuple(sorted(tuple(p) for p in mults[:m]))
            found.add((parts, tuple(mults[m])))
            return
        j = tokens[pos] - 1
        for c in range(m + 1):
            if sizes[c] < caps[c] and (c == m or not mults[c][j]):
                mults[c][j] += 1
                sizes[c] += 1
                assign(pos + 1)
                mults[c][j] -= 1
                sizes[c] -= 1

    assign(0)
    return found


def locally_related(d1, d2) -> bool:
    """True iff some strong decompositions of d1.T2 and d2.T2 share all m bases.

    Decided by the l1 rule: equal second members are related; distinct ones
    are related iff l1(d1.T2, d2.T2) == 2 and their componentwise minimum is
    strong with l = 0.  This is the pairwise definition that
    ``equivalence_report`` answers by neighbour lookup.
    """
    if d1.whole != d2.whole:
        raise PreconditionError("good decompositions do not decompose the same system")
    if d1.T2 == d2.T2:
        return True
    if l1_distance(d1.T2, d2.T2) != 2:
        return False
    shared = d1.T2.ctx.system(min(a, b) for a, b in zip(d1.T2.mult, d2.T2.mult))
    return find_strong_decomposition(shared, 0) is not None


class LiftedMatroid(Matroid):
    """Pullback of a matroid along a map f from a lift set onto base labels.

    A subset A of the lift set is independent iff f restricted to A is
    injective and f(A) is independent in the base.  The rank of A equals the
    base rank of f(A).  The map is validated once, here; the cores map
    their labels onto the base matroid's memos and circuit core, which
    lifts of one base share.
    """

    def __init__(self, base: Matroid, size: int, labels_map):
        super().__init__(GroundSet(size))
        fmap = tuple(labels_map)
        if len(fmap) != size:
            raise GroundSetError(f"label map must have length {size}")
        base.ground.check_subset(fmap)
        self.base = base
        self.fmap = fmap

    @property
    def rank_bound(self) -> int:
        return self.base.rank_bound

    def image(self, A) -> frozenset:
        A = self.ground.check_subset(A)
        return frozenset(self.fmap[e - 1] for e in A)

    def _independent(self, A: frozenset) -> bool:
        imgs = frozenset(self.fmap[e - 1] for e in A)
        return len(imgs) == len(A) and self.base._memo_independent(imgs)

    def _rank(self, A: frozenset) -> int:
        return self.base._memo_rank(frozenset(self.fmap[e - 1] for e in A))

    def _circuit(self, C: frozenset, y: int) -> frozenset | None:
        label = self.fmap[y - 1]
        back = {self.fmap[z - 1]: z for z in C}
        if len(back) < len(C):  # two labels of the class share a base label
            raise PreconditionError("circuit(clazz, y) needs an independent clazz")
        if back.get(label, y) != y:
            return frozenset({y, back[label]})
        found = self.base._circuit(frozenset(back), label)
        back[label] = y
        return None if found is None else frozenset(back[b] for b in found)

    def __eq__(self, other):
        return (
            isinstance(other, LiftedMatroid)
            and self.base == other.base
            and self.fmap == other.fmap
        )

    def __hash__(self):
        return hash(("lifted", self.base, self.fmap))

    def __repr__(self):
        return f"LiftedMatroid({self.base!r}, size={self.ground.n})"


def lift_problem(ctx, mult, l):
    """The lifted partition problem of the system ``mult``, l: one lift
    element per multiplicity unit, in label order, m lifted copies of the
    matroid and a uniform tail of rank l; with the lift's label map."""
    fmap = tuple(j for j, v in enumerate(mult, 1) for _ in range(v))
    lifted = LiftedMatroid(ctx.matroid, len(fmap), fmap)
    return PartitionProblem((lifted,) * ctx.m + (UniformMatroid(l, len(fmap)),)), fmap


def reference_strong_outcome(ctx, mult, l):
    """The strong question of ``mult``, l decided by one partition of the
    lift (``reference_partition``): the StrongDecomposition of the lifted
    classes' label counts, or the SystemBoundViolation of the labels the
    failed search reached."""
    _check_arity(ctx, mult, l)
    problem, fmap = lift_problem(ctx, mult, l)
    result = reference_partition(problem)
    if isinstance(result, DeficiencyWitness):
        B = frozenset(fmap[e - 1] for e in result.A)
        mass = sum(mult[j - 1] for j in B)
        return SystemBoundViolation(B=B, mass=mass, bound=l + ctx.m * ctx.matroid.rank(B))
    groups = []
    for part in result.parts:
        counts = [0] * ctx.n
        for e in part:
            counts[fmap[e - 1] - 1] += 1
        groups.append(ctx.system(counts))
    return StrongDecomposition.make(groups[: ctx.m], groups[ctx.m])


def min_tight_subset(T, l) -> frozenset:
    """The least subset B of supp T whose T-mass equals l + m * r(B).

    The minimal tight set of the lifted partition problem, mapped back to
    labels.  Lift copies of a label are parallel, so adding a missing copy to
    a tight lifted set would break the counting bound of the partitionable
    lift: tight lifted sets are unions of whole fibres.  Raises
    ``PreconditionError`` when T is not strong.
    """
    _check_arity(T.ctx, T.mult, l)
    problem, fmap = lift_problem(T.ctx, T.mult, l)
    return frozenset(fmap[e - 1] for e in min_tight_set(problem))


def label_remainder_support(T: System, l: int) -> frozenset:
    """Labels that appear in the remainder of some strong decomposition of T.

    Decided per element: j qualifies iff T - [j] is strong with remainder
    size l - 1, which pushes the delete-one-element partition probe through
    the lift.
    """
    if l < 1:
        raise PreconditionError("remainder support needs l >= 1")
    _check_arity(T.ctx, T.mult, l)
    _required(find_strong_decomposition(T, l))
    out = []
    for j in sorted(T.support):
        if find_strong_decomposition(T - T.ctx.unit(j), l - 1) is not None:
            out.append(j)
    return frozenset(out)


@dataclass(frozen=True)
class RemainderAlternative:
    """Certified outcome of comparing remainders of two strong (mk+1)-systems.

    kind == "surplus": ``surplus`` is a strong decomposition of T whose
    remainder [i] satisfies T(i) > S(i).

    kind == "matched": ``matched`` maps every possible remainder label a of S
    to a strong decomposition of T with the same remainder [a].
    """

    kind: str
    surplus: StrongDecomposition | None = None
    matched: tuple[tuple[int, StrongDecomposition], ...] | None = None


def remainder_alternative(S: System, T: System) -> RemainderAlternative:
    """Decide which exchange alternative holds for strong (mk+1)-systems S, T."""
    _check_arity(S.ctx, S.mult, 1)
    _check_arity(T.ctx, T.mult, 1)
    _required(find_strong_decomposition(S, 1))
    _required(find_strong_decomposition(T, 1))
    ctx = T.ctx
    for i in sorted(label_remainder_support(T, 1)):
        if T(i) > S(i):
            rest = find_strong_decomposition(T - ctx.unit(i), 0)
            return RemainderAlternative(
                kind="surplus",
                surplus=StrongDecomposition.make(rest.parts, ctx.unit(i)),
            )
    matched = []
    for a in sorted(label_remainder_support(S, 1)):
        reduced = T.try_sub(ctx.unit(a))
        rest = None if reduced is None else find_strong_decomposition(reduced, 0)
        if rest is None:
            raise InternalError(
                "neither exchange alternative is certifiable; this contradicts "
                "the remainder exchange property and signals a bug"
            )
        matched.append((a, StrongDecomposition.make(rest.parts, ctx.unit(a))))
    return RemainderAlternative(kind="matched", matched=tuple(matched))


def reference_descent_move(dT: GoodDecomposition, dS: GoodDecomposition):
    """Construct the exchange that brings the second members strictly closer.

    Given two distinct good decompositions of the same system, returns new
    good decompositions (each locally related to its input) whose second
    members are at l1 distance exactly 2 less than before, as a
    ``DescentMove``, together with the explicit witness of each member that
    moves (moved_t, then moved_s in the matched case): the bases of the
    remainder alternative's decomposition that shares them, plus the label
    moved in.
    """
    if dT.whole != dS.whole:
        raise PreconditionError("good decompositions do not decompose the same system")
    if dT == dS:
        raise PreconditionError("descent move needs two distinct good decompositions")
    ctx = dT.T1.ctx
    alt = remainder_alternative(dS.T2, dT.T2)
    before = l1_distance(dT.T2, dS.T2)
    if alt.kind == "surplus":
        i = min(alt.surplus.remainder.support)
        j = min(
            lbl
            for lbl in ctx.matroid.ground.labels
            if dT.T1(lbl) > dS.T1(lbl)
        )
        r1 = dT.T1 - ctx.unit(j) + ctx.unit(i)
        r2 = dT.T2 + ctx.unit(j) - ctx.unit(i)
        moved = GoodDecomposition(T1=r1, T2=r2)
        after = l1_distance(r2, dS.T2)
        witness = StrongDecomposition.make(alt.surplus.parts, ctx.unit(j))
        return DescentMove("surplus", moved_t=moved, moved_s=dS,
                           distance_before=before, distance_after=after), (witness,)
    a, dec_t = alt.matched[0]
    dec_s = StrongDecomposition.make(
        find_strong_decomposition(dS.T2 - ctx.unit(a), 0).parts, ctx.unit(a)
    )
    b = min(l for l in ctx.matroid.ground.labels if dT.T1(l) > dS.T1(l))
    c = min(l for l in ctx.matroid.ground.labels if dT.T1(l) < dS.T1(l))
    r2 = dT.T2 + ctx.unit(b) - ctx.unit(a)
    moved_t = GoodDecomposition(T1=dT.T1 - ctx.unit(b) + ctx.unit(a), T2=r2)
    q2 = dS.T2 + ctx.unit(c) - ctx.unit(a)
    moved_s = GoodDecomposition(T1=dS.T1 - ctx.unit(c) + ctx.unit(a), T2=q2)
    witnesses = (
        StrongDecomposition.make(dec_t.parts, ctx.unit(b)),
        StrongDecomposition.make(dec_s.parts, ctx.unit(c)),
    )
    return DescentMove("matched", moved_t=moved_t, moved_s=moved_s,
                       distance_before=before, distance_after=l1_distance(r2, q2)), witnesses


def matroid_to_json(M) -> dict:
    """The JSON object that ``jsonio.matroid_from_json`` reads back as M."""

    def rational(value):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"

    if isinstance(M, LinearMatroid):
        return {"type": "linear", "matrix": [[rational(v) for v in row] for row in M.rows]}
    if isinstance(M, UniformMatroid):
        return {"type": "uniform", "l": M.l, "n": M.ground.n}
    raise SchemaError(f"cannot serialize matroid {M!r}")


def brute_locally_related(d1, d2):
    """The search definition of local relation: some strong decompositions of
    d1.T2 and d2.T2 share all m base parts."""
    parts1 = {parts for parts, _ in brute_strong_decompositions(d1.T2, 1)}
    parts2 = {parts for parts, _ in brute_strong_decompositions(d2.T2, 1)}
    return bool(parts1 & parts2)


def pairwise_edges(nodes):
    """Every pair i < j of good decompositions with ``locally_related`` true,
    found by testing all N(N-1)/2 pairs, in lexicographic order."""
    return tuple(
        (i, j)
        for i, j in combinations(range(len(nodes)), 2)
        if locally_related(nodes[i], nodes[j])
    )


def edge_components(count, edges):
    """Connected components of the graph on range(count), each sorted, ordered
    by least member; found by depth-first search."""
    adjacent = {i: set() for i in range(count)}
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    seen, out = set(), []
    for start in range(count):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacent[v] - seen:
                seen.add(w)
                stack.append(w)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def brute_compositions(total, caps):
    """All tuples 0 <= t_i <= caps[i] summing to total, in lexicographic
    order: the whole box of tuples, filtered by the sum."""
    return [t for t in product(*(range(cap + 1) for cap in caps)) if sum(t) == total]


def brute_good_decompositions(T):
    """All (T1, T2) multiplicity pairs with T2 a strong (mk+1)-subsystem."""
    ctx = T.ctx
    need = ctx.m * ctx.k + 1
    found = set()

    def rec(idx, remaining, prefix):
        if idx == ctx.n:
            if remaining == 0:
                t2 = tuple(prefix)
                if brute_strong_decompositions(ctx.system(t2), 1):
                    t1 = tuple(a - b for a, b in zip(T.mult, t2))
                    found.add((t1, t2))
            return
        for v in range(min(remaining, T.mult[idx]) + 1):
            rec(idx + 1, remaining - v, prefix + [v])

    rec(0, need, [])
    return found


def plain_frame(data, z):
    """(H, unit, form) of an arrangement family's structure at z, computed plainly:
    the Higgs eigenvalues P[i, s] = a_i / f_i(t^s) on a fresh solve of the
    fiber over z, the flat-basis sections U[s, c] = prod_{i in I_c} P[i, s], then
    H_i = U^-1 diag(P_i) U and the unit U^-1 (1, ..., 1) by
    ``np.linalg.solve`` and the form sum_s U_sa U_sb / det Hess(t^s).  No
    series and no jet: the reference for the constant terms of the jets."""
    frame = critical_points(data, z)
    P = (data.a[None, :] / (frame.points @ data.B.T + z)).T
    U = np.ones((frame.mu, len(data.flat_basis)), dtype=complex)
    for c, I in enumerate(data.flat_basis):
        for i in I:
            U[:, c] *= P[i - 1]
    H = np.array([np.linalg.solve(U, P[i][:, None] * U) for i in range(data.n)])
    unit = np.linalg.solve(U, np.ones(frame.mu, dtype=complex))
    form = np.einsum("sa,sb,s->ab", U, U, 1.0 / frame.det_hess)
    return H, unit, form


def diagonal_diagnostics(data, z):
    """(x-field residual, generation rank, unit pairing) of the fiber over z
    in the diagonal frame: max |B^T P| for P[i, s] = a_i / f_i(t^s), the
    rank of the sections [prod_{i in I} P_i] over every maximal independent
    I, and sum_s 1 / det Hess(t^s) with Hess = -B^T diag(P_s^2 / a) B."""
    frame = critical_points(data, z)
    P = (data.a[None, :] / (frame.points @ data.B.T + z)).T
    V = np.array([np.prod(P[[i - 1 for i in I]], axis=0) for I in data.matroid.bases()]).T
    hess = [-(data.B.T * (P[:, s] ** 2 / data.a)) @ data.B for s in range(frame.mu)]
    return (
        float(np.max(np.abs(data.B.T @ P))),
        int(np.linalg.matrix_rank(V, tol=1e-9 * max(1.0, float(np.max(np.abs(V)))))),
        complex(np.sum(1.0 / np.linalg.det(hess))),
    )


def frame_values(F, z):
    """(H, unit, form) at z: the constant terms of a degree-0 ``frame_jet``
    of the stack of z alone."""
    from matpot.series import SeriesSpace

    jets = F.frame_jet(np.asarray(z, dtype=complex)[None], SeriesSpace(F.n, 0))
    return tuple(np.asarray(v, dtype=complex)[0, ..., 0] for v in jets)


def point_eigen_candidates(data, z):
    """The candidates of ``arrangements._eigen_candidates`` for the one
    point z, shape (mu, k), on that fiber's arrays alone: one eigenproblem
    of the real combination of the H_j(z) (complex when its imaginary part
    is not 0), p = diag(V^-1 H_j V) and the least-squares t.  The per-point
    reference for the stacked candidates."""
    H = data.higgs(z)
    j = np.arange(data.n)
    combination = np.einsum("j,jab->ab", np.cos(2.39996 * j) * np.sqrt(j + 1.0), H)
    _, V = np.linalg.eig(combination if combination.imag.any() else combination.real)
    p = np.einsum("sm,jms->sj", np.linalg.inv(V), H @ V)
    with np.errstate(all="ignore"):
        return (data.a / p - z) @ data.B_pinv.T


def point_series_fiber(data, space, frame):
    """(p, w) of ``ArrangementData._series_fiber`` for the one fiber
    ``frame``, shapes (mu, n, size) and (mu, size), every product on that
    fiber's arrays alone: the per-point reference for the stacked series."""
    B, a = data.B, data.a
    f = space.constant(frame.f) + space.variables()
    r = space.constant(1.0 / f[..., 0])
    gain = -(B @ np.linalg.inv(frame.hessians) @ B.T) * a
    for d, block in enumerate(space.degrees[1:], 1):
        known = -r[..., :1] * space.mul_degree(f, r, d)
        step = gain @ known
        f[..., block] += step
        r[..., block] = known - r[..., :1] ** 2 * step
    p = a[:, None] * r
    pr = space.mul(p, r)
    labels = np.array(data.algebra.bases, dtype=np.intp) - 1
    prod = pr[:, labels[:, 0]]
    for col in labels.T[1:]:
        prod = space.mul(prod, pr[:, col])
    det = (-1) ** data.k * np.einsum("b,sbm->sm", data.squared_minors, prod)
    return p, space.reciprocal(det)


def point_frame_jet(data, z, space):
    """(H, unit, form) of ``ArrangementData.frame_jet`` at the one point z,
    shapes (n, mu, mu, size), (mu, size) and (mu, mu, size), point by
    point: the fiber from one ``critical_points`` call (the base frame at
    the basepoint), its series from ``point_series_fiber``, the unit from
    one series solve and H from one matrix-vector product for the f_S(z)
    and one placement product.  The per-point reference for the stacked
    frame jets."""
    frame = data.base_frame if np.array_equal(z, data.basepoint) else critical_points(data, z)
    p, w = point_series_fiber(data, space, frame)
    mu = len(p)
    labels = np.array(data.flat_basis, dtype=np.intp) - 1
    U = p[:, labels[:, 0]]
    for col in labels.T[1:]:
        U = space.mul(U, p[:, col])
    unit = space.solve(U, space.constant(np.ones((mu, 1))))[:, 0]
    form = space.matmul(U.swapaxes(0, 1), space.mul(U, w[:, None]))
    i, j = np.triu_indices(mu, 1)
    form[j, i] = form[i, j]
    circuits, terms, placement = data.algebra[2:5]
    values = circuits @ frame.z
    sections = terms[:, :, None] * space.reciprocal(space.constant(values) + circuits @ space.variables())[:, None]
    H = placement.reshape(data.n * mu, -1) @ sections.reshape(len(values), -1)
    return np.swapaxes(H.reshape((data.n, mu) + sections.shape[1:]), 1, 2), unit, form


def _running_worst(current: float, arr) -> float:
    arr = np.asarray(arr)
    return float(np.maximum(current, np.max(np.abs(arr)))) if arr.size else current


def point_axiom_report(F, data, samples):
    """The AxiomReport of ``verify_axioms`` sample by sample: one
    ``point_frame_jet`` of degree 1 per sample, its five measures on that
    sample's arrays alone (the sections by ``whole_batch_flat_sections``
    through ``SeriesSpace.matmul``) and running maxima.  The per-point
    reference for the stacked report."""
    from matpot import AxiomReport

    space = F.space(1)
    comm = integ = invari = sect = formflat = 0.0
    for z in samples:
        H, u, W = point_frame_jet(data, np.asarray(z, dtype=complex), space)
        H0, W0 = H[..., 0], W[..., 0]
        products = H0[:, None] @ H0[None]
        comm = _running_worst(comm, products - products.swapaxes(0, 1))
        stack = H0.reshape((len(H0),) + (1,) * (F.m - 2) + H0.shape[1:])
        slot = [np.moveaxis(np.moveaxis(W0, q, -1) @ stack, -1, q + 1) for q in range(F.m)]
        for q in range(1, F.m):
            invari = _running_worst(invari, slot[0] - slot[q])
        dH = H[..., space.degree_one]
        integ = _running_worst(integ, dH - np.swapaxes(dH, 0, 3))
        sect = _running_worst(sect, whole_batch_flat_sections(F, H, u, space, matmul=True)[..., 1:])
        formflat = _running_worst(formflat, W[..., 1:])
    return AxiomReport(commutativity=comm, integrability=integ, higgs_invariance=invari,
                       section_flatness=sect, form_flatness=formflat, samples=len(samples))


def fiber_pairing_jets(data, space, members):
    """The pairing jets of ``ArrangementData.pairing_jets`` by the fiber
    route: g_T2 = sum_s w_s prod_i p_i^{T2_i} over the basepoint fiber, with
    p and w its series (``point_series_fiber``), the products along the
    members' label words in lexicographic order so that a shared prefix is
    multiplied once.  Any multiplicity tuple is a member here.  The
    reference for the jets the package reads from the algebra."""
    p, w = point_series_fiber(data, space, data.base_frame)
    words = [tuple(i for i, e in enumerate(T2) for _ in range(e)) for T2 in members]
    out = np.empty((len(words), space.size), dtype=complex)
    products, previous = [w], ()
    for j in sorted(range(len(words)), key=words.__getitem__):
        word = words[j]
        shared = 0
        while shared < min(len(word), len(previous)) and word[shared] == previous[shared]:
            shared += 1
        del products[shared + 1:]
        for i in word[shared:]:
            products.append(space.mul(products[-1], p[:, i]))
        out[j] = products[-1].sum(axis=0)
        previous = word
    return out


def fiber_frame_jet(data, z, space):
    """(H, unit, form) of ``ArrangementData.frame_jet`` at z, every part from
    the fiber over z: the flat frame U holds the diagonal-frame sections
    C_I (unit) of the flat basis, products of the eigenvalue series p of
    ``_series_fiber``; H_i = U^-1 diag(p_i) U and the unit U^-1 (1, ..., 1)
    come from one series solve with all n mu + 1 right-hand columns, and the
    form is sum_s (U_sa U_sb) w_s.  The reference for the algebra's H."""
    frame = data.base_frame if np.array_equal(z, data.base_frame.z) else critical_points(data, z)
    p, w = point_series_fiber(data, space, frame)
    mu, n = p.shape[:2]
    labels = np.array(data.flat_basis, dtype=np.intp) - 1
    U = p[:, labels[:, 0]]
    for col in labels.T[1:]:
        U = space.mul(U, p[:, col])
    rhs = space.mul(p[:, :, None, :], U[:, None, :, :]).reshape(mu, n * mu, space.size)
    X = space.solve(U, np.concatenate([rhs, space.constant(np.ones((mu, 1)))], axis=1))
    H = X[:, : n * mu].reshape(mu, n, mu, space.size).transpose(1, 0, 2, 3)
    lo, hi = np.minimum.outer(range(mu), range(mu)), np.maximum.outer(range(mu), range(mu))
    form = space.mul(space.mul(U[:, lo], U[:, hi]), w[:, None, None, :]).sum(axis=0)
    return H, X[:, n * mu], form


def whole_batch_flat_sections(F, H, u, space, matmul=False):
    """The sections C_I (unit) of ``frobenius._flat_sections`` with no
    prefix shared: every basis applies its k Higgs fields to a broadcast
    copy of the unit, all bases in one product per label column, a
    broadcast ``mul`` summed over the inner index or, when ``matmul``, one
    ``SeriesSpace.matmul``.  The reference for the prefix tree: within
    roundoff, and with ``matmul`` bit for bit."""
    labels = np.array(F.maximal_independent_sets(), dtype=np.intp) - 1
    sections = np.broadcast_to(u, (len(labels),) + u.shape)
    for col in labels.T:
        if matmul:
            sections = space.matmul(H[col], sections[:, :, None])[:, :, 0]
        else:
            sections = space.mul(H[col], sections[:, None, :, :]).sum(axis=2)
    return sections


def remainder_swap_residual(F, T2, a: int, b: int) -> float:
    """|d_b S(C_{T2} unit, ...) - d_a S(C_{S2} unit, ...)| at the basepoint,
    where S2 swaps one unit of a for one of b in T2.

    Requires T2 to be strong with remainder [a]; then S2 = T2 + [b] - [a] is
    strong with remainder [b] and both derivatives must agree: this is the
    atomic exchange that makes the second-kind coefficients well defined.
    Raises PreconditionError, before any evaluation, for a T2 that does not
    qualify.
    """
    ctx = F.context()
    rest = T2.try_sub(ctx.unit(a))
    if rest is None:
        raise PreconditionError(f"label {a} does not occur in T2")
    if T2.total != ctx.m * ctx.k + 1:
        raise PreconditionError("T2 must be a strong (mk+1)-system")
    if rest.mult not in ctx.base_sums:
        raise PreconditionError(f"T2 minus [{a}] is not a strong mk-system")
    S2 = rest + ctx.unit(b)
    space = F.space(1)
    jets = F.jet(space, [T2.mult, S2.mult])
    return float(abs(jets[0, space.degree_one[b - 1]] - jets[1, space.degree_one[a - 1]]))


def plain_pairing(frame, t2) -> complex:
    """S(C_T2 unit, unit, ..., unit) from frame = (H, unit, form): the powers
    of the Higgs matrices applied to the unit, then the form contracted with
    that vector and m - 1 copies of the unit (m = form.ndim)."""
    H, unit, form = frame
    v = unit
    for j, e in enumerate(t2):
        for _ in range(e):
            v = H[j] @ v
    out = form
    for w in [v] + [unit] * (form.ndim - 1):
        out = np.tensordot(out, w, axes=([0], [0]))
    return complex(out)


def brute_second_kind_candidates(F, data, n_max):
    """Second-kind candidates {T: ((T1, T2, value), ...)} for mk < |T| <= n_max,
    one scalar mixed difference of the plain-frame pairing of ``data``, the
    family of F, per brute-force good decomposition, T2 in lexicographic
    order (the per-decomposition loop the table replaces)."""
    from matpot.findiff import default_step, multi_partial

    ctx = F.context()
    mk = ctx.m * ctx.k
    frames = {}

    def pairing(t2, z):
        key = tuple(z.tolist())
        if key not in frames:
            frames[key] = plain_frame(data, z)
        return plain_pairing(frames[key], t2)

    x = F.basepoint
    out = {}
    for total in range(mk + 1, n_max + 1):
        for T in product(range(total + 1), repeat=ctx.n):
            if sum(T) != total:
                continue
            fact = multi_factorial(T)
            candidates = []
            for t1, t2 in sorted(brute_good_decompositions(ctx.system(T)), key=lambda d: d[1]):
                order = sum(t1)
                if order == 0:
                    raw = pairing(t2, x)
                else:
                    raw = multi_partial(
                        lambda z, t2=t2: pairing(t2, z),
                        x,
                        t1,
                        default_step(F.scale(), order),
                    )
                candidates.append((t1, t2, raw / fact))
            out[T] = tuple(candidates)
    return out


def richardson_frame_derivatives(data, z):
    """First derivatives at z of ``plain_frame`` (H, unit, form):
    Richardson-extrapolated central differences (``matpot.findiff``) with
    the step default_step(scale, 1), independent of the jets.  Returns
    (dH, du, dW) with the direction last: dH[j, :, :, i] = d_i C_{j+1}, the
    layout of the degree-1 coefficients of ``frame_jet``."""
    from matpot.findiff import default_step, multi_partial

    h = default_step(float(np.max(np.abs(data.basepoint))), 1)
    directions = [tuple(int(j == i) for j in range(data.n)) for i in range(data.n)]
    return tuple(
        np.stack([multi_partial(lambda w: plain_frame(data, w)[c], z, e, h) for e in directions], axis=-1)
        for c in range(3)
    )


def scalar_newton_refine(data, z, t, box: float, max_iter: int = 50):
    """Newton on grad_t Phi = 0 from one seed, one solve per step.

    The reference for the batched ``arrangements._newton_refine``: the same
    stopping rule, escape box (an iterate with max |t| > box fails) and
    DiscriminantError causes, seed by seed.  Call it under
    ``np.errstate(all="ignore")``; a diverging seed may overflow.
    """

    def gradient(t):
        f = data.B @ t + z
        if np.min(np.abs(f)) < 1e-300:
            raise DiscriminantError("critical point collided with a hyperplane")
        return data.B.T @ (data.a / f), f

    def hessian(f):
        w = data.a / f**2
        return -(data.B.T * w[None, :]) @ data.B

    t = np.array(t, dtype=complex)
    for _ in range(max_iter):
        g, f = gradient(t)
        H = hessian(f)
        try:
            delta = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise DiscriminantError("degenerate Hessian during Newton refinement") from exc
        t = t - delta
        if not np.max(np.abs(t)) <= box:
            raise DiscriminantError("Newton iterate left for infinity")
        if np.max(np.abs(delta)) <= 1e-15 * (1.0 + np.max(np.abs(t))):
            break
    g, _ = gradient(t)
    return t, float(np.max(np.abs(g)))


def greedy_flat_basis(data) -> tuple:
    """mu bases picked greedily, in lexicographic order, whose sections C_I
    (unit), prod_{i in I} a_i / f_i(t^s), have full numeric rank (tolerance
    1e-9 of the largest entry) on the solved basepoint fiber: the reference
    for the library's exact ``flat_basis``, which reads no fiber."""
    frame = critical_points(data, data.basepoint)
    sets = [tuple(sorted(B)) for B in data.matroid.bases()]
    P = (data.a[None, :] / frame.f).T
    V = np.ones((frame.mu, len(sets)), dtype=complex)
    for c, I in enumerate(sets):
        for i in I:
            V[:, c] *= P[i - 1]
    chosen = []
    for c in range(len(sets)):
        M = V[:, chosen + [c]]
        if np.linalg.matrix_rank(M, tol=1e-9 * max(1.0, float(np.max(np.abs(M))))) == M.shape[1]:
            chosen.append(c)
        if len(chosen) == frame.mu:
            break
    return tuple(sets[c] for c in chosen)


def internally_passive_bases(matroid) -> tuple:
    """The bases of the matroid, in lexicographic order, with internal
    activity 0 for the reversed order of the labels: every e of B is below
    some other element of its fundamental cocircuit {e} + {f not in B : B - e
    + f a basis}, each cocircuit built from ``is_independent`` alone.  Their
    number is T_M(0, 1) (Crapo, Aequationes Math. 3, 1969); the reference for
    ``ArrangementData.flat_basis``, which reads them off the minors table."""
    labels = sorted(matroid.ground.labels)
    bases = [B for B in combinations(labels, matroid.full_rank) if matroid.is_independent(frozenset(B))]
    return tuple(
        B for B in bases
        if all(max({e} | {f for f in labels if f not in B and matroid.is_independent(frozenset(B) - {e} | {f})}) != e
               for e in B)
    )


def _dependency(rows, width: int) -> tuple:
    """Integer coefficients of the linear dependence among integer rows of
    rank one less than their number: the tag of the row that exact
    elimination of the rows, each tagged with a unit vector, reduces to zero."""
    n = len(rows)
    tagged = [tuple(row) + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, row in enumerate(rows)]
    return tuple(_eliminate(tagged, width)[1][-1][width:])


def elimination_algebra(data):
    """(FamilyAlgebra, squared minors) of the family by one exact elimination
    per set: the bases from the independence oracle, y_R as the dependency of
    the columns of each independent (k-1)-set R, c_S as the dependency of the
    rows of each (k+1)-set S reached from a basis, and det(B_I)^2 from the
    last pivot of the elimination of each basis; the reference for the
    minors table of ``ArrangementData.algebra`` and ``squared_minors``."""
    n, k = data.n, data.k
    lcms = [math.lcm(*(v.denominator for v in row)) for row in data.matrix]
    ints = [[int(v * d) for v in row] for row, d in zip(data.matrix, lcms)]
    bases = [tuple(sorted(I)) for I in data.matroid.bases()]
    index, nb, common = {I: c for c, I in enumerate(bases)}, len(bases), math.lcm(*lcms)
    relations = []
    for R in filter(data.matroid.is_independent, combinations(range(1, n + 1), k - 1)):
        y = _dependency([[ints[r - 1][j] for r in R] for j in range(k)], k - 1)
        relations.append([0] * nb)  # common (b_i . y_R) at R + i
        for i in set(range(1, n + 1)) - set(R):
            if (I := tuple(sorted(R + (i,)))) in index:
                relations[-1][index[I]] = sum(v * w for v, w in zip(ints[i - 1], y)) * (common // lcms[i - 1])
    rank, m = _eliminate([row[::-1] for row in relations], nb)
    pivots = [nb - 1 - next(c for c, v in enumerate(row) if v) for row in m[:rank]]
    free = sorted(set(range(nb)) - set(pivots))
    order = pivots + free
    echelon = [[row[nb - 1 - c] for c in order] for row in m[:rank]]
    _, m = _eliminate(echelon + [[int(c == p) for c in order] for p in pivots], rank)
    normal = np.zeros((len(free), nb))
    normal[range(len(free)), free] = 1.0
    for p, row in zip(pivots, m[rank:]):
        normal[:, p] = [v / m[rank - 1][rank - 1] for v in row[rank:]]
    sets = sorted({tuple(sorted(I + (i,))) for I in bases for i in range(1, n + 1) if i not in I})
    circuits = np.zeros((len(sets), n))
    for s, S in enumerate(sets):
        c = _dependency([ints[i - 1] for i in S], k)
        circuits[s, [i - 1 for i in S]] = [c_i * lcms[i - 1] for i, c_i in zip(S, c)]
    S_, I_ = np.nonzero(circuits)  # C_{S - i} for every label i of the circuit of S
    terms = np.zeros((len(sets), nb), dtype=complex)
    rest = [index[tuple(x for x in sets[s] if x != i + 1)] for s, i in zip(S_, I_)]
    terms[S_, rest] = circuits[S_, I_] * data.a[I_]
    basis, where = tuple(bases[c] for c in free), {S: s for s, S in enumerate(sets)}
    entries = [(j - 1, q, where[tuple(sorted(I + (i,)))], i - 1)
               for q, I in enumerate(basis) for i in set(range(1, n + 1)) - set(I) for j in I + (i,)]
    J, Q, S_, I_ = np.array(entries, dtype=np.intp).reshape(-1, 4).T
    placement = np.zeros((n, len(basis), len(sets)))
    placement[J, Q, S_] = circuits[S_, J] / circuits[S_, I_]
    squared = np.array([
        _eliminate([ints[i - 1] for i in I], k)[1][-1][-1] ** 2 / math.prod(lcms[i - 1] for i in I) ** 2
        for I in bases
    ])
    return FamilyAlgebra(tuple(bases), basis, circuits, terms @ normal.T, placement, normal), squared


def k1_polynomial_roots(data, z):
    """The n' - 1 roots of the rank-1 fiber polynomial over the complex array z,
    sum_i a_i b_i prod_{j != i} (b_j t + z_j) over the n' rows with b != 0;
    DiscriminantError for balanced exact weights or a vanishing leading
    coefficient."""
    active = [i for i in range(data.n) if data.matrix[i][0] != 0]
    active_weights = [data.weights_exact[i] for i in active]
    if all(w is not None for w in active_weights):
        # top coefficient is prod(b_j) * sum(a_i) over active rows, so only
        # a vanishing weight sum can degenerate the fiber count
        if sum(active_weights) == 0:
            raise DiscriminantError("weights are balanced: top coefficient vanishes")
    poly = np.zeros(len(active), dtype=complex)
    for i in active:
        product = np.array([1.0 + 0.0j])  # of the factors b_j t + z_j, descending
        for j in [j for j in active if j != i]:
            product = np.convolve(product, np.array([data.B[j, 0], z[j]], dtype=complex))
        poly += data.a[i] * data.B[i, 0] * product
    top = np.max(np.abs(poly))
    if top == 0 or abs(poly[0]) < 1e-12 * top:
        raise DiscriminantError("fiber polynomial degenerates (leading coefficient ~ 0)")
    return np.roots(poly)


def track_fiber(data, frame, z_target, max_depth: int = 40) -> np.ndarray:
    """Reference tracker: the points of ``frame`` followed to the fiber over
    z_target, shape (mu, k).

    Newton (``arrangements._newton_refine``) starts at the tracked points, in
    the box ESCAPE_RADIUS (1 + max |point|) that ``critical_points`` puts
    around its candidates.  While a point fails, keeps a residual above
    1e-9 (1 + max |z|) or comes within 1e-8 (1 + max |z|) of another, the
    step is halved, at most ``max_depth`` halvings deep; then
    DiscriminantError.  A result is mu distinct critical points of the
    target fiber.
    """
    from matpot.arrangements import ESCAPE_RADIUS, _newton_refine

    def step(z0, points, z1, depth):
        with np.errstate(all="ignore"):
            box = ESCAPE_RADIUS * (1.0 + float(np.max(np.abs(points))))
            t, res, failures = _newton_refine(data, z1, points, box)
            gap = np.max(np.abs(t[:, None] - t[None]), axis=2)
        np.fill_diagonal(gap, np.inf)
        scale = 1.0 + float(np.max(np.abs(z1)))
        if not any(failures) and np.all(res <= 1e-9 * scale) and np.all(gap >= 1e-8 * scale):
            return t
        if depth >= max_depth:
            raise DiscriminantError("point tracking lost between fibers")
        mid = (z0 + z1) / 2.0
        return step(mid, step(z0, points, mid, depth + 1), z1, depth + 1)

    return step(frame.z, frame.points, np.asarray(z_target, dtype=complex), 0)


def discriminant_probe(data, z) -> bool:
    """True iff the fiber over z has the full count of clean critical points."""
    try:
        critical_points(data, z)
    except (DiscriminantError, PreconditionError):
        return False
    return True


def loop_second_kind_table(F, n_max, spread_tol=1e-6):
    """(coefficients, provenance) of ``second_kind_truncation(F, n_max,
    spread_tol)`` by the per-T loop: for every T, the members T2 <= T, one
    candidate tuple each, the all-pairs spread and Python's left-to-right
    ``sum``.  The bit-for-bit reference for the candidate grid; raises the
    same WellDefinednessError on the first failing T."""
    from matpot import WellDefinednessError
    from matpot.frobenius import CoefficientProvenance
    from matpot.series import SeriesSpace
    from matpot.systems import _bounded_compositions

    ctx = F.context()
    mk = ctx.m * ctx.k
    space = SeriesSpace(F.n, n_max - mk - 1)
    members = sorted({S[:j] + (S[j] + 1,) + S[j + 1:] for S in ctx.base_sums for j in range(F.n)})
    lattice = np.array(members, dtype=np.int64)
    jets = F.jet(space, members)
    index = monomial_index(space)
    coefficients, provenance = {}, {}
    for t in range(mk + 1):
        for T in _bounded_compositions(t, (t,) * F.n):
            coefficients[T] = 0.0 + 0.0j
            provenance[T] = CoefficientProvenance("gauge-zero", (), 0.0, 0.0 + 0.0j)
    derivatives = {}
    for t in range(mk + 1, n_max + 1):
        for T in _bounded_compositions(t, (t,) * F.n):
            fact = multi_factorial(T)
            candidates = []
            for j in np.flatnonzero((lattice <= T).all(axis=1)).tolist():
                t2 = members[j]
                alpha = tuple(b - a for a, b in zip(t2, T))
                hit = derivatives.get(alpha)
                if hit is None:
                    d_alpha = jets[:, index[alpha]] * float(multi_factorial(alpha))
                    hit = derivatives[alpha] = (alpha, d_alpha.tolist())
                candidates.append((hit[0], t2, hit[1][j] / fact))
            if not candidates:
                coefficients[T] = 0.0 + 0.0j
                provenance[T] = CoefficientProvenance("free-zero", (), 0.0, 0.0 + 0.0j)
                continue
            values = [c[2] for c in candidates]
            spread = max((abs(a - b) for a in values for b in values), default=0.0)
            top = max(abs(v) for v in values)
            if spread > spread_tol * max(1.0, top):
                raise WellDefinednessError(f"coefficient candidates for {T} disagree by {spread:.3e}")
            coefficients[T] = sum(values) / len(values)
            provenance[T] = CoefficientProvenance("averaged", tuple(candidates), spread, coefficients[T])
    return coefficients, provenance


def taylor_shift(coefficients: dict, n_max: int, h) -> dict:
    """The table {T: c_T} of sum c_T (z - x)^T, |T| <= n_max, re-expanded
    at x + h: c'_B = sum_{A >= B} C(A, B) c_A h^(A - B), one coordinate at a
    time, as one binomial matrix per axis of the dense coefficient array.
    Entries of degree above n_max stay 0, so the table keeps its keys."""
    dense = np.zeros((n_max + 1,) * len(h), dtype=complex)
    for T, c in coefficients.items():
        dense[T] = c
    a = np.arange(n_max + 1)
    binom = np.array([[math.comb(i, j) for i in a] for j in a], dtype=float)  # [B_i, A_i]
    for axis, step in enumerate(h):
        shift = binom * np.power(complex(step), np.maximum(a[None, :] - a[:, None], 0))
        dense = np.moveaxis(np.tensordot(shift, dense, axes=([1], [axis])), 0, axis)
    return {T: complex(dense[T]) for T in coefficients}


def newton_reciprocal(space, a):
    """1 / a by Newton's iteration r <- r (2 - a r) from the reciprocal of
    the constant term; each step doubles the number of correct degrees."""
    r = space.constant(1.0 / np.asarray(a)[..., 0])
    for _ in range(space.q.bit_length()):
        r = 2.0 * r - space.mul(r, space.mul(a, r))
    return r


def jacobi_det(space, A):
    """det A for series matrices A (..., k, k, size); shape (..., size).

    By Jacobi's formula with the Euler operator E, which multiplies
    degree d by d, E det A = det A G with G = tr(A^-1 E A), and G_0 = 0,
    so det_d = [det G]_d / d.  A singular A_0 raises numpy's LinAlgError.
    """
    EA = np.concatenate([d * A[..., block] for d, block in enumerate(space.degrees)], axis=-1)
    G = np.trace(space.solve(A, EA), axis1=-3, axis2=-2)
    D = space.constant(np.linalg.det(A[..., 0]))
    for d in range(1, space.q + 1):
        D[..., space.degrees[d]] = space.mul_degree(D, G, d) / d
    return D


def row_by_row_eliminate(space, A, rhs):
    """(A^-1 rhs, det A) by Gauss-Jordan elimination over series, one
    multiply per matrix row and side and a Newton reciprocal per pivot: the
    reference for the degree recurrences of ``SeriesSpace.solve`` and
    ``jacobi_det``.  Both sides are first multiplied by the inverse of A's
    constant term, so every pivot has constant term 1 up to rounding."""
    lead = np.linalg.inv(A[..., 0])
    det = space.constant(np.linalg.det(A[..., 0]))
    A = np.einsum("...ij,...jlm->...ilm", lead, A)
    X = np.einsum("...ij,...jlm->...ilm", lead, rhs)
    k = A.shape[-2]
    for c in range(k):
        pivot = A[..., c, c, :]
        det = space.mul(det, pivot)
        inv = newton_reciprocal(space, pivot)[..., None, :]
        A[..., c, :, :] = space.mul(A[..., c, :, :], inv)
        X[..., c, :, :] = space.mul(X[..., c, :, :], inv)
        for r in range(k):
            if r != c:
                factor = A[..., r, c, None, :].copy()
                A[..., r, :, :] -= space.mul(factor, A[..., c, :, :])
                X[..., r, :, :] -= space.mul(factor, X[..., c, :, :])
    return X, det


def _tuple_check(F, derivative, higgs_labels):
    """Worst |derivative(alpha + e_i) - S(C_i C_{I_1} unit, C_{I_2} unit,
    ...)| over the tuples of bases and the labels i (label None: alpha and
    S(C_{I_1} unit, ...)), one contraction of the constant-term frame per
    tuple, as the checks did before they contracted all tuples at once."""
    H, u, W = frame_values(F, F.basepoint)
    worst = 0.0
    for i in higgs_labels:
        for tup in combinations_with_replacement(F.maximal_independent_sets(), F.m):
            alpha = [0] * F.n
            if i is not None:
                alpha[i - 1] += 1
            vectors = []
            for I in tup:
                v = u
                for j in I:
                    alpha[j - 1] += 1
                    v = H[j - 1] @ v
                vectors.append(v)
            if i is not None:
                vectors[0] = H[i - 1] @ vectors[0]
            out = W
            for v in vectors:
                out = np.tensordot(out, v, axes=([0], [0]))
            worst = max(worst, abs(derivative(alpha) - complex(out)))
    return worst


def tuple_check_first_kind(F, Q):
    """``check_first_kind`` one tuple of bases at a time."""
    return _tuple_check(F, lambda alpha: Q.partial_derivative_value(alpha, F.basepoint), [None])


def tuple_check_second_kind(F, L):
    """``check_second_kind`` one tuple of bases and label at a time."""
    return _tuple_check(F, L.derivative_at_basepoint, F.matroid.ground.labels)


def euler_count(matroid, k):
    """|sum over independent S with |S| <= k of (-1)^|S||: the number of
    critical points of a generic-weight master function over a generic
    fiber (the Euler characteristic of the complement)."""
    total = 0
    for size in range(k + 1):
        for S in combinations(sorted(matroid.ground.labels), size):
            if matroid.is_independent(frozenset(S)):
                total += (-1) ** size
    return abs(total)


# Closed forms for the two-hyperplane fixture: f_1 = t + z1, f_2 = t + z2,
# unit weights.  The single critical point is t = -(z1+z2)/2.


def fix2_point(z):
    return -(z[0] + z[1]) / 2.0


def fix2_p(z):
    d = z[0] - z[1]
    return np.array([2.0 / d, -2.0 / d])


def fix2_hess(z):
    return -8.0 / (z[0] - z[1]) ** 2


def fix2_pair_unit(z):
    """Residue pairing of the unit with itself."""
    return -((z[0] - z[1]) ** 2) / 8.0


def fix2_pair_c11(z):
    """Residue pairing of C_1 C_1 (unit) with the unit; constant -1/2."""
    p = fix2_p(z)
    return p[0] * p[0] * (1.0 / fix2_hess(z))


def exact_k1_pairing_jet(b, a, x, T2, q):
    """Exact Taylor coefficients {alpha: Fraction}, |alpha| <= q, of the rank-1
    pairing g_T2(z) = sum_s prod_i p_i(t_s)^{T2_i} / Phi''(t_s) in delta = z - x,
    for rational b_i != 0, weights a_i and basepoint x (a float is read as
    its shortest decimal repr).

    Euler-Jacobi: with f_i = b_i t + z_i, F = prod_i f_i and the fiber
    polynomial P = F Phi' = sum_i a_i b_i prod_{j != i} f_j of degree
    d = n - 1, Phi'' = P' / F at the roots of P, so

        g = [t^(d-1)] (h F mod P) / lc(P),   h = prod_i p_i^(T2_i),

    where lc(P) = prod_j b_j sum_i a_i is constant in z and p_i = a_i / f_i
    mod P comes from synthetic division of P by t + z_i / b_i (no Euclid over
    series).  Every coefficient of a polynomial in t lies in Q[delta]
    truncated after degree q; the arithmetic is stdlib Fraction only.
    """
    n = len(b)
    b, a = [Fraction(v) for v in b], [Fraction(v) for v in a]
    if any(v == 0 for v in b):
        raise ValueError("every hyperplane must involve the fiber variable")
    unit = tuple([0] * n)

    def mul(u, v):
        out = {}
        terms = sorted((sum(g), g, d) for g, d in v.items() if d)
        for e, c in u.items():
            room = q - sum(e)
            for degree, g, d in terms:
                if degree > room:
                    break
                key = tuple(i + j for i, j in zip(e, g))
                out[key] = out.get(key, 0) + c * d
        return out

    def add(u, v, scale=1):
        out = dict(u)
        for e, c in v.items():
            out[e] = out.get(e, 0) + scale * c
        return out

    def reciprocal(u):
        # 1/u = (1/u0) sum_j (-e)^j with e = u/u0 - 1, which has no constant term
        u0 = u[unit]
        e = {g: c / u0 for g, c in u.items() if g != unit}
        out, power = {unit: Fraction(1)}, {unit: Fraction(1)}
        for _ in range(q):
            power = mul(power, {g: -c for g, c in e.items()})
            out = add(out, power)
        return {g: c / u0 for g, c in out.items()}

    def poly_mul(A, C):
        out = [{} for _ in range(len(A) + len(C) - 1)]
        for i, u in enumerate(A):
            for j, v in enumerate(C):
                out[i + j] = add(out[i + j], mul(u, v))
        return out

    z = [
        {unit: Fraction(str(v)), tuple(int(j == i) for j in range(n)): Fraction(1)}
        for i, v in enumerate(x)
    ]
    f = [[z[i], {unit: b[i]}] for i in range(n)]  # ascending powers of t
    P = [{} for _ in range(n)]
    for i in range(n):
        term = [{unit: a[i] * b[i]}]
        for j in range(n):
            if j != i:
                term = poly_mul(term, f[j])
        P = [add(u, v) for u, v in zip(P, term)]
    d = n - 1
    lead = P[d][unit]
    monic = [{g: c / lead for g, c in u.items()} for u in P]

    def reduce(R):
        R = list(R)
        for top in range(len(R) - 1, d - 1, -1):
            c = R.pop()
            for j in range(d):
                R[top - d + j] = add(R[top - d + j], mul(c, monic[j]), -1)
        return R + [{} for _ in range(d - len(R))]

    def p(i):
        # P = (t - r) Q + P(r) with r = -z_i / b_i, so 1/(t - r) = -Q / P(r) mod P
        r = {g: -c / b[i] for g, c in z[i].items()}
        Q = [None] * d
        acc = P[d]
        for j in range(d - 1, -1, -1):
            Q[j] = acc
            acc = add(P[j], mul(r, acc))
        scale = {g: -c * a[i] / b[i] for g, c in reciprocal(acc).items()}
        return [mul(scale, u) for u in Q]

    F = [{unit: Fraction(1)}]
    for i in range(n):
        F = poly_mul(F, f[i])
    R = reduce(F)
    for i, e in enumerate(T2):
        if e:
            p_i = p(i)
            for _ in range(e):
                R = reduce(poly_mul(R, p_i))
    top = R[d - 1]
    return {
        alpha: top.get(alpha, Fraction(0)) / lead
        for alpha in product(range(q + 1), repeat=n)
        if sum(alpha) <= q
    }
