"""Brute-force oracles, independent of the library's algorithms.

Everything here enumerates exhaustively (colorings, token assignments,
subsets, pairs) or evaluates hand-derived closed forms for the two-hyperplane
fixture, so library results can be checked against an unrelated code path.
``pairwise_edges`` is the one exception: it applies the library's pairwise
``locally_related`` to every pair, as the reference for the neighbour lookup
of ``equivalence_report``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from matpot import DeficiencyWitness, SizeLimitError, locally_related


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


def brute_slack_elements(problem):
    """Union of the last parts over every valid partition of the ground set."""
    found = frozenset()
    for parts in _valid_partitions(problem.matroids, problem.ground.labels):
        found |= parts[-1]
    return found


def brute_strong_decompositions(T, l):
    """All strong decompositions of T by token assignment, canonicalized to
    (sorted part multiplicity tuples, remainder tuple)."""
    ctx = T.ctx
    m, k, n = ctx.m, ctx.k, ctx.n
    matroid = ctx.matroid
    tokens = []
    for j in range(1, n + 1):
        tokens.extend([j] * T(j))
    found = set()
    for assignment in product(range(m + 1), repeat=len(tokens)):
        mults = [[0] * n for _ in range(m + 1)]
        for tok, c in zip(tokens, assignment):
            mults[c][tok - 1] += 1
        ok = True
        for i in range(m):
            part = mults[i]
            if sum(part) != k or any(v > 1 for v in part):
                ok = False
                break
            supp = frozenset(j for j in range(1, n + 1) if part[j - 1])
            if not matroid.is_independent(supp):
                ok = False
                break
        if ok and sum(mults[m]) == l:
            parts = tuple(sorted(tuple(p) for p in mults[:m]))
            found.add((parts, tuple(mults[m])))
    return found


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


def brute_second_kind_candidates(F, n_max):
    """Second-kind candidates {T: ((T1, T2, value), ...)} for mk < |T| <= n_max,
    one scalar mixed difference per brute-force good decomposition, T2 in
    lexicographic order (the per-decomposition loop the table replaces)."""
    from matpot.findiff import default_step, multi_partial
    from matpot.frobenius import _EvalCache, _factorial_multi, pairing_with_unit

    ctx = F.context()
    mk = ctx.m * ctx.k
    cache = _EvalCache(F)
    x = F.basepoint
    out = {}
    for total in range(mk + 1, n_max + 1):
        for T in product(range(total + 1), repeat=ctx.n):
            if sum(T) != total:
                continue
            fact = _factorial_multi(T)
            candidates = []
            for t1, t2 in sorted(brute_good_decompositions(ctx.system(T)), key=lambda d: d[1]):
                order = sum(t1)
                if order == 0:
                    raw = pairing_with_unit(cache, t2, x)
                else:
                    raw = multi_partial(
                        lambda z, t2=t2: pairing_with_unit(cache, t2, z),
                        x,
                        t1,
                        default_step(F.scale(), order),
                    )
                candidates.append((t1, t2, raw / fact))
            out[T] = tuple(candidates)
    return out


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
