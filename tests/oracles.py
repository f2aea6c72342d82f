"""Brute-force oracles, independent of the library's algorithms.

Everything here enumerates exhaustively (colorings, token assignments,
subsets, pairs), computes exactly over Q (the Euler-Jacobi pairing jets of
rank-1 arrangements) or evaluates hand-derived closed forms for the
two-hyperplane fixture, so library results can be checked against an
unrelated code path.
``pairwise_edges`` is one exception: it applies the library's pairwise
``locally_related`` to every pair, as the reference for the neighbour lookup
of ``equivalence_report``.  ``scalar_newton_refine`` is the other: the
one-seed Newton loop, as the bit-for-bit reference for the batched solve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from matpot import DeficiencyWitness, DiscriminantError, SizeLimitError, locally_related


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


def richardson_frame_derivatives(F, z):
    """First derivatives at z of the plain evaluators higgs, unit and form:
    Richardson-extrapolated central differences (``matpot.findiff``) with
    the step default_step(scale, 1), independent of the jets.  Returns
    (dH, du, dW) with the direction last: dH[j, :, :, i] = d_i C_{j+1}, the
    layout of the degree-1 coefficients of ``frame_jet``."""
    from matpot.findiff import default_step, multi_partial

    h = default_step(F.scale(), 1)
    labels = F.matroid.ground.labels
    evaluators = (
        lambda w: np.array([F.higgs(j, w) for j in labels]),
        F.unit,
        F.form,
    )
    directions = [tuple(int(j == i) for j in range(F.n)) for i in range(F.n)]
    return tuple(
        np.stack([multi_partial(f, z, e, h) for e in directions], axis=-1) for f in evaluators
    )


def scalar_newton_refine(data, z, t, max_iter: int = 50):
    """Newton on grad_t Phi = 0 from one seed, one solve per step.

    The reference for the batched ``arrangements._newton_refine``: the same
    stopping rule and DiscriminantError causes, seed by seed.  Call it under
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
        if np.max(np.abs(delta)) <= 1e-15 * (1.0 + np.max(np.abs(t))):
            break
    g, _ = gradient(t)
    return t, float(np.max(np.abs(g)))


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
