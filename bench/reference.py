"""Reference computations the benchmark uses to check matpot's answers.

Nothing here imports matpot: every fact is recomputed from the raw inputs,
so a wrong answer from the library cannot also be a wrong reference.

* exact rank by Fraction elimination;
* strongness of a system by the counting bound T(B) <= l + m r(B) over all
  subsets B of its support (matroid partition theorem applied to the lift);
* the local-relation rule for good decompositions: distinct T2, T2' are
  locally related iff l1(T2, T2') == 2 and min(T2, T2') is strong with l = 0;
* the generic critical-point count |sum over independent S, |S| <= k, of
  (-1)^|S|| of a rank-k arrangement complement (Varchenko 1995);
* rank-1 critical points, Hessians and residue pairings from numpy roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def frac_rank(rows) -> int:
    """Rank of integer or Fraction rows by exact elimination."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                q = m[r][col] / lead
                m[r] = [a - q * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class RankOracle:
    """Memoized rank of label subsets (1-based) of a row matrix."""

    def __init__(self, rows):
        self.rows = [tuple(r) for r in rows]
        self.n = len(self.rows)
        self._memo: dict = {}

    def rank(self, labels) -> int:
        key = frozenset(labels)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = frac_rank([self.rows[i - 1] for i in sorted(key)])
        return hit

    @property
    def full_rank(self) -> int:
        return self.rank(range(1, self.n + 1))


def uniform_rank(l: int, labels) -> int:
    return min(len(frozenset(labels)), l)


def support(mult) -> frozenset:
    return frozenset(j for j, v in enumerate(mult, start=1) if v)


def l1(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def is_strong(oracle: RankOracle, m: int, mult, l: int) -> bool:
    """T is m bases plus an l-remainder iff T(B) <= l + m r(B) for all B."""
    if sum(mult) != m * oracle.full_rank + l:
        return False
    supp = sorted(support(mult))
    for size in range(1, len(supp) + 1):
        for B in combinations(supp, size):
            if sum(mult[j - 1] for j in B) > l + m * oracle.rank(B):
                return False
    return True


def bounded_compositions(total: int, caps):
    """All tuples 0 <= t_i <= caps[i] summing to total."""
    if not caps:
        return
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for v in range(min(total, caps[0]) + 1):
        for rest in bounded_compositions(total - v, caps[1:]):
            yield (v,) + rest


class StrongMemo:
    """is_strong memoized per (mult, l) for one matroid and m."""

    def __init__(self, oracle: RankOracle, m: int):
        self.oracle = oracle
        self.m = m
        self._memo: dict = {}

    def __call__(self, mult, l: int) -> bool:
        key = (tuple(mult), l)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = is_strong(self.oracle, self.m, mult, l)
        return hit


def good_second_members(strong: StrongMemo, T) -> list:
    """Every T2 <= T that is a strong (mk+1)-system, in lexicographic order."""
    need = strong.m * strong.oracle.full_rank + 1
    return [t2 for t2 in bounded_compositions(need, tuple(T)) if strong(t2, 1)]


def locally_related(strong: StrongMemo, t2a, t2b) -> bool:
    if l1(t2a, t2b) != 2:
        return False
    return strong(tuple(min(a, b) for a, b in zip(t2a, t2b)), 0)


def is_base_part(oracle: RankOracle, part) -> bool:
    k = oracle.full_rank
    return all(v in (0, 1) for v in part) and sum(part) == k and oracle.rank(support(part)) == k


def euler_count(oracle: RankOracle, k: int) -> int:
    """|sum over independent S with |S| <= k of (-1)^|S||."""
    total = 0
    for size in range(0, k + 1):
        for S in combinations(range(1, oracle.n + 1), size):
            if oracle.rank(S) == size:
                total += (-1) ** size
    return abs(total)


def gradient_residual(B, a, z, points) -> float:
    """Worst |B^T (a / (B t + z))| over the points; inf if any is non-finite."""
    import numpy as np

    B = np.asarray(B, dtype=complex)
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0 or not np.all(np.isfinite(pts)):
        return math.inf
    f = pts @ B.T + z[None, :]
    grad = (a[None, :] / f) @ B
    return float(np.max(np.abs(grad)))


def rank1_points(b, a, z):
    """Critical points of sum a_i log(b_i t + z_i): roots of
    sum_i a_i b_i prod_{j != i} (b_j t + z_j)."""
    import numpy as np

    poly = np.zeros(len(b), dtype=complex)
    for i in range(len(b)):
        term = np.array([a[i] * b[i]], dtype=complex)
        for j in range(len(b)):
            if j != i:
                term = np.convolve(term, np.array([b[j], z[j]], dtype=complex))
        poly += term
    return np.roots(poly)


def rank1_pairing_table(b, a, z, m: int, mults):
    """Residue pairing S(C_T unit, unit, ..., unit) / T! for each T in mults.

    S(h_1, ..., h_m) = sum_s h_1(s) ... h_m(s) / Phi''(t_s), C_T unit has
    values prod_i p_i^{T_i} with p_i = a_i / f_i, and the unit is all ones.
    """
    import numpy as np

    b = np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=complex)
    t = rank1_points(b, a, z)
    f = t[:, None] * b[None, :] + np.asarray(z, dtype=complex)[None, :]
    p = a[None, :] / f
    hess = -np.sum(a[None, :] * b[None, :] ** 2 / f**2, axis=1)
    out = {}
    for T in mults:
        vals = np.prod(p ** np.asarray(T)[None, :], axis=1)
        fact = math.prod(math.factorial(v) for v in T)
        out[tuple(T)] = complex(np.sum(vals / hess)) / fact
    return out


def rank1_well_conditioned(b, a, z, gap: float = 0.05) -> bool:
    """Critical points pairwise apart, away from every hyperplane, and with
    a Hessian bounded away from zero."""
    import numpy as np

    t = rank1_points(b, a, z)
    if len(t) != len(b) - 1:
        return False
    if len(t) > 1 and min(abs(p - q) for p, q in combinations(t, 2)) < gap:
        return False
    f = t[:, None] * np.asarray(b)[None, :] + np.asarray(z)[None, :]
    if np.min(np.abs(f)) < gap:
        return False
    hess = np.sum(np.asarray(a)[None, :] * np.asarray(b)[None, :] ** 2 / f**2, axis=1)
    return bool(np.min(np.abs(hess)) > gap)
