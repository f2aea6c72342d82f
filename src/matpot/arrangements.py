"""Flat-frame structures from weighted families of hyperplane arrangements.

The family has hyperplanes f_i(z, t) = sum_j b_i^j t_j + z_i in the fiber
variables t, with exact rational coefficient matrix B of full column rank k
and nonzero weights a_i.  The master function

    Phi(z, t) = sum_i a_i log f_i(z, t)

has, for z off the discriminant, finitely many nondegenerate fiberwise
critical points t^1, ..., t^mu; functions on those points form the fiber
algebra.  In that diagonal picture the Higgs matrices are diag(a_i / f_i),
the unit is the all-ones vector, and the residue pairing is the bilinear form

    S(h_1, h_2) = sum_s h_1(t^s) h_2(t^s) / det Hess_t Phi(t^s),

so the structures built here have order (n, k, 2); other m are refused.

To present this as a FlatFrameStructure the working frame is changed to mu
of the sections C_I (unit) for maximal independent index sets I: those
sections satisfy only constant-coefficient relations, so the frame they span
is flat, the form becomes z-constant, and the flatness of the remaining
sections is a genuine testable statement.  ``ArrangementData.algebra``
builds that algebra exactly from (B, a) alone (Orlik-Terao): the relations,
their quotient with the flat basis as its basis, and the Higgs matrices
H_j(z) = sum_S N_{j,S} / f_S(z) in it, every coefficient a signed maximal
minor of B from one table of the C(n, k) minors (Cramer for the relations,
Laplace for the circuits).  The flat basis is read off the same table by a
matroid rule, no search: the bases of internal activity 0 for the reversed
order of the labels.  The Higgs matrices come from that algebra alone:
``higgs`` is their value at z, and ``frame_jet`` reads their Taylor series
from the same placement product.  The family evaluates the pairing
jets, and the frame jets' unit and form, from its basepoint fiber (or the
fibers over a stack of sample points, solved in one pass) and flat basis,
each computed once, so the axioms compare the algebra against the fiber;
the fiber's residuals and Hessians are the diagnostics.

For generic weights and z the fiber has exactly mu = |sum over independent S
with |S| <= k of (-1)^|S|| points, the Euler characteristic of the
complement (Orlik-Terao, Varchenko); that is T_M(0, 1), the number of those
bases (Crapo, 1969), so ``ArrangementData.count`` is the size of the flat
basis, and every fiber solve at every rank returns exactly that many points
or raises DiscriminantError.  The candidates come from one
eigenproblem per fiber at every rank, the joint eigenvalues of the H_j;
``_accept`` polishes them and states the refusals once, for every rank
(docs/schemas.md).  One solver, ``_fibers``, takes a stack of base points
and gives each the fiber of a stack of one bit for bit; ``critical_points``
is that stack of one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    DiscriminantError,
    GroundSetError,
    MatpotError,
    PreconditionError,
    RankError,
    SizeLimitError,
    StructureError,
    points,
    rational,
)
from .frobenius import FlatFrameStructure
from .matroids import LinearMatroid, _eliminate
from .series import SeriesSpace


def vector_matroid(matrix) -> LinearMatroid:
    """Row matroid of an exact rational n x k matrix of full column rank."""
    M = LinearMatroid(matrix)
    if M.full_rank != M.width:
        raise RankError(
            f"matrix has rank {M.full_rank}, expected full column rank {M.width}"
        )
    return M


#: the refusal of a family whose count is 0, by ``higgs`` and ``critical_points``
NO_CRITICAL_POINTS = "the family has no critical points: the Euler characteristic of the complement is 0"


def _double(num: int, den: int, what: str, *args) -> float:
    """num / den as a float, or SizeLimitError when it does not round to a
    finite double or, nonzero, rounds to 0.0; the message names the entry
    by ``what.format(*args)``, formatted only for a refusal."""
    try:
        value = num / den
    except OverflowError:
        value = 0.0
    if num and not value:
        raise SizeLimitError(f"{what.format(*args)} is outside the range of a double")
    return value


class ArrangementData:
    """A weighted arrangement family at its basepoint, with its fiber and jets.

    The exact entries of B and a, and the exact quantities the family reads
    from them as floats (circuit coefficients, normal forms, squared
    minors), must round to finite doubles, nonzero ones to nonzero doubles:
    SizeLimitError otherwise, raised where the float is formed (B and a
    here, the others when the algebra or the pairing jets are built).  A
    weight is an exact entry or a finite float or complex number
    (``errors.rational``), the basepoint a point of n finite coordinates
    (``errors.points``); GroundSetError otherwise.
    """

    def __init__(self, matrix, weights, basepoint):
        self.matroid = vector_matroid(matrix)
        self.matrix = self.matroid.rows
        self.n = len(self.matrix)
        self.k = self.matroid.width
        if self.k >= self.n:
            raise PreconditionError(f"need k < n, got k={self.k}, n={self.n}")
        weights = tuple(weights)
        if len(weights) != self.n:
            raise GroundSetError(f"need {self.n} weights, got {len(weights)}")
        self.weights = weights
        self.weights_exact = tuple(rational(w, GroundSetError, inexact=True) for w in weights)
        self.a = np.array([complex(w) if e is None else _double(e.numerator, e.denominator, "a[{}]", i)
                           for i, (w, e) in enumerate(zip(weights, self.weights_exact), 1)], dtype=complex)
        if not self.a.all():
            raise GroundSetError("weights must be nonzero")
        self.basepoint = points([basepoint], self.n)[0]
        self.B = np.array([[_double(v.numerator, v.denominator, "B[{}][{}]", i, j) for j, v in enumerate(row, 1)]
                           for i, row in enumerate(self.matrix, 1)], dtype=complex)
        self._base_series_of = {}  # ``_base_series`` by degree

    @cached_property
    def minors(self) -> dict:
        """D_I = det of the integer rows of I (row i of B times the lcm of its
        denominators) for every k-set I, keyed in lexicographic order: exact
        ints by Laplace expansion along column j of the minors on the first j
        columns, sum_j C(n, j) j products and no division.  n > 16 raises
        SizeLimitError before the table is built
        (``GroundSet.check_enumerable``)."""
        self.matroid.ground.check_enumerable()
        rows, table = self.matroid._int_rows, {(): 1}
        for j in range(self.k):
            table = {J: sum((-1) ** (t + j) * rows[e - 1][j] * table[J[:t] + J[t + 1:]] for t, e in enumerate(J))
                     for J in combinations(range(1, self.n + 1), j + 1)}
        return table

    @cached_property
    def lcms(self) -> tuple:
        """lcm_i of the denominators of row i of B: the integer row i of
        ``minors`` is lcm_i b_i."""
        return tuple(math.lcm(*(v.denominator for v in row)) for row in self.matrix)

    @cached_property
    def flat_basis(self) -> tuple:
        """The bases I (D_I != 0 in ``minors``), in lexicographic order, in
        which every e has some f > e outside I with D_{I-e+f} != 0: the bases
        of internal activity 0 (internally passive) for the reversed order of
        the labels, e being internally active when it is the largest element
        of its fundamental cocircuit.  There are T_M(0, 1) = ``count`` of them
        (Crapo, Aequationes Math. 3, 1969; Bjorner, in Matroid Applications,
        1992), and their sections C_I (unit) span every fiber: they are the
        basis of the quotient in ``algebra``, which checks that
        (StructureError).  No fiber is read."""
        n, minors = self.n, self.minors

        def passive(I):
            for t, e in enumerate(I):
                # f runs over the gap u of tail above e, so I - e + f is sorted
                head, tail = I[:t], I[t + 1:]
                ends = (e,) + tail + (n + 1,)
                if not any(minors[head + tail[:u] + (f,) + tail[u:]]
                           for u in range(len(tail) + 1) for f in range(ends[u] + 1, ends[u + 1])):
                    return False
            return True

        return tuple(I for I, D in minors.items() if D and passive(I))

    @cached_property
    def count(self) -> int:
        """Critical points of a generic fiber, mu = |sum over independent S
        with |S| <= k of (-1)^|S||, the Euler characteristic of the
        complement.  That sum is T_M(0, 1), the number of internally passive
        bases (Crapo, Aequationes Math. 3, 1969), so mu is the size of
        ``flat_basis``."""
        return len(self.flat_basis)

    @cached_property
    def base_frame(self) -> CriticalPointFrame:
        """The fiber over the basepoint, solved once."""
        return critical_points(self, self.basepoint)

    @cached_property
    def _balanced(self) -> bool:
        """Whether, at rank 1 or at n = k + 1 (count 1), the weights of the
        rows with b != 0 sum to 0, exactly or as floats: a critical point
        then lies at infinity, so every fiber is refused
        (``_eigen_candidates``).  Decided once per family."""
        if not (self.k == 1 or self.n == self.k + 1):
            return False
        rows = [i for i, row in enumerate(self.matrix) if any(row)]
        exact = [self.weights_exact[i] for i in rows]
        return bool(self.a[rows].sum() == 0 or None not in exact and sum(exact) == 0)

    @cached_property
    def algebra(self) -> FamilyAlgebra:
        """The family's algebra, built once and exactly from (B, a) alone.

        At a critical point p_i = a_i / f_i and sum_i b_i p_i = 0; C_I is the
        product of the p_i over a basis I, a k-set with D_I != 0 in ``minors``.
        For a (k-1)-set R, y_R with b . y_R = det(b_R; b) (Cramer) is orthogonal
        to R's rows, so sum_{i not in R} (b_i . y_R) C_{R+i} = 0 with b_i . y_R
        = (-1)^{#{r in R : r > i}} D_{R+i} up to lcms: the constant relations,
        0 for a dependent R.  The quotient of the bases by them has the mu
        sections of ``flat_basis`` as its basis (mu = T_M(0, 1), the number of
        internally passive bases; Crapo, 1969): one fraction-free Gauss-Jordan
        elimination of the relations, the P other bases' columns first, pivots
        on exactly those P columns and leaves the rows past them zero, or
        StructureError; its rows are D times the reduced form for the last
        pivot D, so each of the P is -m[r][P:] / D over the flat basis, an
        exact integer over D (Cramer).  A (k+1)-set
        S = (s_0 < ... < s_k) holding a basis holds one circuit, c_{s_t} =
        (-1)^t D_{S-s_t} lcm_{s_t} (Laplace along a repeated column), so f_S =
        c_S . z does not depend on t and f_S C_S = sum_{l in S} c_l a_l
        C_{S-l}; dotting the circuit with y_{I-j} gives p_j C_I = sum_{i not in
        I} (c_j / c_i) C_{I+i} for j in I (and p_i C_I = C_{I+i}).
        """
        n, k, minors, lcms, basis = self.n, self.k, self.minors, self.lcms, self.flat_basis
        bases = [I for I, D in minors.items() if D]
        index, nb, mu, common = {I: c for c, I in enumerate(bases)}, len(bases), len(basis), math.lcm(*lcms)
        free = [index[I] for I in basis]
        pivots = sorted(set(range(nb)) - set(free))
        P, column = len(pivots), {bases[c]: t for t, c in enumerate(pivots + free)}
        relations = []
        for R in combinations(range(1, n + 1), k - 1):
            row = [0] * nb  # common (b_i . y_R) at R + i, times R's lcms, pivot columns first
            for i in range(1, n + 1):
                if (I := tuple(sorted(R + (i,)))) in column:
                    row[column[I]] = (-1) ** sum(r > i for r in R) * minors[I] * (common // lcms[i - 1])
            if any(row):
                relations.append(row)
        rank, m = _eliminate(relations, P, reduced=True)
        if rank != P or any(any(row[P:]) for row in m[P:]):
            raise StructureError(f"the flat sections do not span the fiber (generation condition fails): the "
                                 f"{mu} flat sections are not a basis of the quotient; no flat frame")
        # m[:P] is D times the identity on the pivot columns, so the normal
        # forms are x_r = -m[r][P:] / D
        last = m[P - 1][P - 1] if P else 1
        normal = np.zeros((mu, nb))
        normal[range(mu), free] = 1.0
        for p, row in zip(pivots, m):
            normal[:, p] = [_double(-v, last, "the normal form of C_I for I = {}", bases[p]) for v in row[P:]]
        sets, vectors, found = [], [], []  # found: (s, i - 1, C_{S - i}) for every label i of S's circuit
        for S in combinations(range(1, n + 1), k + 1):
            c = [0] * n
            for t, i in enumerate(S):
                if D := minors[R := S[:t] + S[t + 1:]]:
                    c[i - 1] = (-1) ** t * D * lcms[i - 1]
                    found.append((len(sets), i - 1, index[R]))
            if any(c):
                sets.append(S)
                vectors.append(c)
        try:
            circuits = np.array(vectors, dtype=float).reshape(-1, n)
        except OverflowError:
            for S, c in zip(sets, vectors):
                for i, v in enumerate(c, 1):
                    _double(v, 1, "the circuit coefficient of hyperplane {} in S = {}", i, S)
            raise
        S_, I_, rest = np.array(found, dtype=np.intp).reshape(-1, 3).T
        terms = np.zeros((len(sets), nb), dtype=complex)
        terms[S_, rest] = circuits[S_, I_] * self.a[I_]
        where = {S: s for s, S in enumerate(sets)}
        entries = [(j - 1, q, where[tuple(sorted(I + (i,)))], i - 1)
                   for q, I in enumerate(basis) for i in set(range(1, n + 1)) - set(I) for j in I + (i,)]
        J, Q, S_, I_ = np.array(entries, dtype=np.intp).reshape(-1, 4).T
        placement = np.zeros((n, len(basis), len(sets)))
        placement[J, Q, S_] = circuits[S_, J] / circuits[S_, I_]
        terms = terms @ normal.T
        return FamilyAlgebra(tuple(bases), basis, circuits, terms, placement)

    @cached_property
    def squared_minors(self) -> np.ndarray:
        """det(B_I)^2 = D_I^2 / prod_{i in I} lcm_i^2 for the bases I of
        ``algebra``, exact until one int / int rounding, for the Cauchy-Binet
        Hessian determinant of the residue weights; only the jets read it."""
        return np.array([_double(self.minors[I] ** 2, math.prod(self.lcms[i - 1] for i in I) ** 2, "det(B_I)^2 for I = {}", I)
                         for I in self.algebra.bases])

    @cached_property
    def B_pinv(self) -> np.ndarray:
        """The pseudo-inverse of B, shape (k, n), for the least-squares t of
        every fiber's candidates; B is fixed per family, so it is taken once."""
        return np.linalg.pinv(self.B)

    def higgs(self, z) -> np.ndarray:
        """H_j(z) = sum_S N_{j,S} / f_S(z) for j = 1..n, shape (n, mu, mu):
        column q of H_j holds p_j C_I in quotient coordinates, I the q-th
        element of the flat basis.

        DiscriminantError when some f_S(z) = c_S . z is 0 up to the roundoff
        of its own evaluation, |c_S . z| <= n eps (|c_S| . |z|): the
        hyperplanes of S's circuit meet in one point.  The bound covers an
        f_S that vanishes exactly over the input: the integer c_S are exact,
        rounding the input to z moves c_S . z by at most u |c_S| . |z|, and
        the float dot product of its at most k + 1 <= n nonzero terms adds
        at most gamma_n |c_S| . |z| (Higham, Accuracy and Stability of
        Numerical Algorithms, section 3.1; complex z obeys it part by part,
        since c_S is real).  With u = eps / 2 that is (n + 1) u (1 + O(u)),
        below n eps for n >= 2; the margin is a factor of about 2.  A
        smaller |f_S| cannot be told from 0, and H would carry 1 / f_S.  A
        z that is not a vector of n finite coordinates raises GroundSetError
        (``errors.points``); a family whose count is 0 has no H
        (PreconditionError)."""
        return self._higgs(points([z], self.n))[0]

    def _higgs(self, zs, space: SeriesSpace | None = None) -> np.ndarray:
        """``higgs`` at every row of zs (S, n), shape (S, n, mu, mu), or with
        a space their Taylor series there in delta up to degree space.q,
        shape (S, n, mu, mu, size): f_S(z + delta) = f_S(z) + c_S . delta,
        so C_S = sum_{i in S} c_i a_i C_{S-i} / f_S takes the series of the
        reciprocal, and every degree goes through the same placement
        product.  The screen reads the constant terms: the discriminant is
        where some f_S(z) vanishes; the first row that fails it is refused.
        Each row is the one-point evaluation bit for bit: f_S(z) is one
        matrix-vector product per row (a stacked matrix product sums in
        another order), and the placement product one matrix product per
        row."""
        if self.count == 0:
            raise PreconditionError(NO_CRITICAL_POINTS)
        _, basis, circuits, terms, placement = self.algebra
        S = len(zs)
        with np.errstate(all="ignore"):
            values = np.matmul(circuits, zs[..., None])[..., 0]
            # scaled before the sum, so the bound is finite wherever f_S is
            roundoff = np.matmul(np.abs(circuits), (self.n * np.finfo(float).eps * np.abs(zs))[..., None])[..., 0]
            # C_S in quotient coordinates
            sections = terms / values[..., None] if space is None else (terms[:, :, None] * space.reciprocal(
                space.constant(values) + circuits @ space.variables())[:, :, None])
        overflow = ~np.isfinite(values)
        vanishing = (np.abs(values) <= roundoff) | ~np.isfinite(sections.reshape(S, len(circuits), -1)).all(axis=2)
        for row in np.flatnonzero((overflow | vanishing).any(axis=1))[:1]:
            s = np.flatnonzero(overflow[row] if overflow[row].any() else vanishing[row])[0]
            labels = ", ".join(str(i) for i in np.flatnonzero(circuits[s]) + 1)
            if overflow[row].any():
                raise PreconditionError(f"f_S of hyperplanes {labels} overflows: the point is too large to evaluate")
            raise DiscriminantError(f"hyperplanes {labels} pass through one point (f_S = 0)")
        H = np.matmul(placement.reshape(self.n * len(basis), -1), sections.reshape(S, len(circuits), -1))
        return np.swapaxes(H.reshape((S, self.n, len(basis)) + sections.shape[2:]), 2, 3)

    def _series_fiber(self, space: SeriesSpace, frames: list):
        """Series at z = frame.z, in delta up to degree space.q, of the Higgs
        eigenvalues p_i = a_i / f_i, shape (S, mu, n, size), and of the
        residue weights w = 1 / det Hess, shape (S, mu, size), for the S
        fibers ``frames`` in one pass, each row the one-fiber series bit for
        bit.

        The critical points t^s(z + delta) of a frame (the fiber over z),
        f = B t + z + delta and r = 1 / f are built one degree at a time:
        known = -r_0 [f r]_d, summed while f_d holds only delta's part and r_d
        is 0, is r_d but for -r_0^2 B t_d, so grad_t Phi = B^T (a r) vanishes
        at degree d when H_0 t_d = -B^T (a known), H_0 the fiber's Hessians.
        Hess_t Phi = -B^T diag(a / f^2) B, and a / f^2 = p r, so by
        Cauchy-Binet det Hess = (-1)^k sum over the bases I of det(B_I)^2
        prod_{i in I} p_i r_i: k - 1 products over all bases at once
        (``_basis_products``).
        """
        B, a = self.B, self.a
        f = space.constant(np.stack([frame.f for frame in frames])) + space.variables()
        r = space.constant(1.0 / f[..., 0])
        # B t_d = gain known, gain = -B H_0^-1 B^T diag(a) per point
        gain = -(B @ np.linalg.inv(np.stack([frame.hessians for frame in frames])) @ B.T) * a
        for d, block in enumerate(space.degrees[1:], 1):
            known = -r[..., :1] * space.mul_degree(f, r, d)
            step = gain @ known
            f[..., block] += step
            r[..., block] = known - r[..., :1] ** 2 * step
        p = a[:, None] * r
        prod = _basis_products(space, space.mul(p, r), self.algebra.bases)
        det = (-1) ** self.k * np.einsum("b,tsbm->tsm", self.squared_minors, prod)
        return p, space.reciprocal(det)

    def _base_series(self, space: SeriesSpace):
        """``_series_fiber`` of the base frame alone (a point axis of length
        1), computed once per degree: the pairing jets and the basepoint
        frame jet of one degree share it."""
        if space.q not in self._base_series_of:
            self._base_series_of[space.q] = self._series_fiber(space, [self.base_frame])
        return self._base_series_of[space.q]

    def pairing_jets(self, space: SeriesSpace, members) -> np.ndarray:
        """Taylor coefficients at the basepoint, in delta = z - x up to degree
        space.q, of the pairings g_T2(z) = S(C_T2 unit, unit) for every
        multiplicity tuple T2 in ``members``; shape (len(members), space.size).

        In the critical-point frame g_T2 = sum_s w_s prod_i p_i^{T2_i}, with p
        and w the series of the base frame.  The products run over the
        members' label words in lexicographic order, so a shared prefix is
        multiplied once.  No other fiber and no flat frame is solved.
        """
        p, w = (v[0] for v in self._base_series(space))
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

    def frame_jet(self, zs, space: SeriesSpace):
        """Taylor series at every row z of zs (S, n), in delta up to
        degree space.q, of the flat-frame data: (H, unit, form) with shapes
        (S, n, mu, mu, size), (S, mu, size) and (S, mu, mu, size).

        H comes from the family's algebra (the series case of ``higgs``), no
        fiber read.  The unit and the form come from the fiber over z (the
        base frame at the basepoint; the other rows' fibers are solved in
        one pass, ``_fibers``): the flat frame U holds the diagonal-frame
        sections C_I (unit) of the flat basis, products of the eigenvalue
        series p (``_basis_products``), the unit is U^-1 (1, ..., 1), one
        series solve with one right-hand column, and the form sum_s U_sa
        U_sb w_s is U^T diag(w) U, one ``SeriesSpace.matmul`` with its
        strict upper triangle mirrored, so the form equals its transpose bit
        for bit.  That product's gathered operands grow with the pairs of
        the product table, not with the coefficients, past q = 1 (one mu 55
        frame jet traced 7.2, 35 and 207 MB at q = 1, 2 and 3); every
        package caller asks for q <= 1.  Permuting the
        fiber's points permutes the rows of U and of the ones alike, so the
        jet does not depend on their order; ``verify_axioms`` compares the
        algebra's H with the fiber's unit and form.

        Every row is the jet of a stack of that row alone, bit for bit.
        Rows that are not points of n finite coordinates raise
        GroundSetError (``errors.points``), and an empty stack
        PreconditionError; when a row is refused, the refusal is the one
        that the first refused row gets alone, so the stack is then
        evaluated row by row until that row raises.
        """
        zs = points(zs, self.n)
        if not len(zs):
            raise PreconditionError("a frame jet needs at least one point")
        try:
            return self._frame_jet(zs, space)
        except (MatpotError, np.linalg.LinAlgError):
            for row in range(len(zs) - 1):
                self._frame_jet(zs[row:row + 1], space)
            raise

    def _frame_jet(self, zs, space: SeriesSpace):
        """``frame_jet`` of the checked rows ``zs`` in one pass."""
        base = np.array([np.array_equal(z, self.basepoint) for z in zs])
        if len(zs) == 1 and base[0]:
            p, w = self._base_series(space)
        else:
            fresh = iter(_fibers(self, zs[~base]) if not base.all() else [])
            p, w = self._series_fiber(space, [self.base_frame if b else next(fresh) for b in base])
        mu = p.shape[1]
        U = _basis_products(space, p, self.flat_basis)
        unit = space.solve(U, space.constant(np.ones((mu, 1))))[:, :, 0]
        # the form U^T diag(w) U; its strict upper triangle is mirrored, since
        # U_sa (U_sb w_s) and U_sb (U_sa w_s) need not agree bit for bit
        form = space.matmul(U.swapaxes(1, 2), space.mul(U, w[:, :, None]))
        i, j = np.triu_indices(mu, 1)
        form[:, j, i] = form[:, i, j]
        return self._higgs(zs, space), unit, form


def _basis_products(space: SeriesSpace, x, bases) -> np.ndarray:
    """prod_{i in I} x_i for every basis I of ``bases`` (1-based sorted
    labels, all of one size), from the series x (..., n, size): shape
    (..., len(bases), size), one gather along the label axis and one
    ``mul`` per position in the bases.  The gather indexes x as it lies:
    ``np.take`` would first copy a non-contiguous x whole."""
    labels = np.array(bases, dtype=np.intp) - 1
    out = x[..., labels[:, 0], :]
    for col in labels.T[1:]:
        out = space.mul(out, x[..., col, :])
    return out


@dataclass
class CriticalPointFrame:
    """Critical points of the master function in one fiber, with Hessian data."""

    z: np.ndarray
    points: np.ndarray  # (mu, k)
    f: np.ndarray  # (mu, n): the hyperplane values f_i(z, t^s)
    hessians: np.ndarray  # (mu, k, k)
    det_hess: np.ndarray  # (mu,)
    residuals: np.ndarray  # (mu,)

    @property
    def mu(self) -> int:
        return len(self.points)


#: ``ArrangementData.algebra``: the bases of M(B) in lexicographic order,
#: the quotient basis, the circuit vectors c_S (f_S(z) = circuits @ z) of the
#: (k+1)-sets S reached from a basis, sum_{i in S} c_i a_i [C_{S-i}] in
#: quotient coordinates, and the coefficient placement[j - 1, q, s] of C_S in
#: column q of H_j
FamilyAlgebra = namedtuple("FamilyAlgebra", "bases basis circuits terms placement")


def _values(data: ArrangementData, z, t):
    """f_i(z, t^s) for the rows t^s of t (S, k); shape (S, n).

    Each row is the one-point product B t^s + z bit for bit (the stacked
    ``t @ B.T`` sums in another order)."""
    return np.matmul(data.B[None], t[:, :, None])[:, :, 0] + z


def _hessians(data: ArrangementData, f):
    """Hess_t Phi = -B^T diag(a / f^2) B for the rows of f (S, n); (S, k, k)."""
    return np.matmul(-(data.B.T[None] * (data.a / f**2)[:, None, :]), data.B[None])


#: a Newton iterate with max |t| > ESCAPE_RADIUS (1 + max |candidate|) has escaped
ESCAPE_RADIUS = 1e2
NEWTON_MAX_ITER = 50  # Newton steps per candidate in ``_newton_refine``


def _newton_refine(data: ArrangementData, z, seeds, box):
    """Newton on grad_t Phi = 0 from every row of ``seeds`` (S, k) at once,
    in the fiber over z, a point (n,) or one point per seed (S, n).

    Returns (points (S, k), residuals max |grad| (S,), failures), where
    failures[s] is None or the DiscriminantError message that stopped seed
    s: |f_i| < 1e-300 at an iterate, a singular Hessian, or an iterate with
    max |t| > box (in the units of t; a float, or one per seed) or NaN.  A
    seed leaves the active set when it fails or its step satisfies max
    |delta| <= 1e-15 (1 + max |t|); at most NEWTON_MAX_ITER steps.  Failed
    seeds get residual NaN.

    Each seed sees the arithmetic of a one-seed solve bit for bit: the
    stacked products keep the per-seed matrix shapes, and a stacked solve
    runs the same LU per matrix.  Only when one singular Hessian makes the
    stacked solve raise are those (det exactly 0, the same LU) split off.
    """
    t = np.array(seeds, dtype=complex).reshape(len(seeds), data.k)
    at, box = np.empty((len(t), data.n), dtype=complex), np.full(len(t), box, dtype=float)
    at[:] = z
    failures: list = [None] * len(t)

    def values(idx):
        f = _values(data, at[idx], t[idx])
        hit = np.abs(f).min(axis=1) < 1e-300
        if not hit.any():
            return idx, f
        for s in idx[hit]:
            failures[s] = "critical point collided with a hyperplane"
        return idx[~hit], f[~hit]

    def gradients(f):
        return np.matmul(data.B.T[None], (data.a / f)[:, :, None])

    with np.errstate(all="ignore"):
        active = np.arange(len(t))
        for _ in range(NEWTON_MAX_ITER):
            if not active.size:
                break
            active, f = values(active)
            g = gradients(f)
            H = _hessians(data, f)
            try:
                delta = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                # a stacked solve raises for the whole stack on one singular
                # matrix; det runs the same LU and reads exactly 0 on those
                singular = np.linalg.det(H) == 0
                failed = np.zeros(len(active), dtype=bool)
                delta = np.empty_like(g)
                delta[~singular] = np.linalg.solve(H[~singular], g[~singular])
                for j in np.flatnonzero(singular):
                    try:
                        delta[j] = np.linalg.solve(H[j], g[j])
                    except np.linalg.LinAlgError:
                        failures[active[j]] = "degenerate Hessian during Newton refinement"
                        failed[j] = True
                active, delta = active[~failed], delta[~failed]
            delta = delta[:, :, 0]
            t[active] = t[active] - delta
            size = np.abs(t[active]).max(axis=1)
            escaped = ~(size <= box[active])
            if escaped.any():
                for s in active[escaped]:
                    failures[s] = "Newton iterate left for infinity"
            done = np.abs(delta).max(axis=1) <= 1e-15 * (1.0 + size)
            active = active[~(escaped | done)]
        residuals = np.full(len(t), np.nan)
        idx, f = values(np.array([s for s, why in enumerate(failures) if why is None], dtype=int))
        residuals[idx] = np.abs(gradients(f)[:, :, 0]).max(axis=1)
    return t, residuals, failures


def _eigen_candidates(data: ArrangementData, zs):
    """One candidate per critical point of each fiber over the rows of the
    complex array zs (S, n), fiber after fiber, shape (S mu, k), from one
    eigenproblem per fiber, at every rank.

    The joint eigenvalues of the H_j(z) are the p_j = a_j / f_j at the mu
    critical points (Cox, Little and O'Shea).  The eigenvectors V of a fixed
    real combination of the H_j diagonalize every H_j, so p_{s,j} =
    (V^-1 H_j V)_{ss}, f = a / p and t solves B t = f - z in least squares
    (non-finite where some p_j = 0).  The combination is taken real when its
    imaginary part is 0 (real B, a and z), so real points come out exactly
    real.  The eigenproblems go fiber by fiber, each on the arrays of a
    one-fiber solve: numpy's eig of a stack takes one LAPACK routine for
    the whole stack, real or complex, and returns real vectors only when
    every eigenvalue of the stack is real, which changes the routine of the
    inverse after it; a stack split by routine cost more than it saved
    (two fibers, mu 6).  At rank 1, and at n = k + 1 (count 1), weights
    that sum to 0 over the rows with b != 0 send a critical point to
    infinity: DiscriminantError first (``ArrangementData._balanced``).
    """
    if data._balanced:
        raise DiscriminantError("weights are balanced: sum a = 0 sends a critical point to infinity")
    H = data._higgs(zs)
    j = np.arange(data.n)
    weights = np.cos(2.39996 * j) * np.sqrt(j + 1.0)
    candidates = []
    for z, Hz in zip(zs, H):
        combination = np.einsum("j,jab->ab", weights, Hz)
        _, V = np.linalg.eig(combination if combination.imag.any() else combination.real)
        p = np.einsum("sm,jms->sj", np.linalg.inv(V), Hz @ V)
        with np.errstate(all="ignore"):
            candidates.append((data.a / p - z) @ data.B_pinv.T)
    return np.concatenate(candidates)


def _accept(data: ArrangementData, zs, candidates):
    """The fibers over the rows of zs (S, n) as (points (S mu, k),
    residuals (S mu,), f (S mu, n), Hessians (S mu, k, k), their
    determinants (S mu,)), fiber after fiber, from mu = len(candidates) / S
    candidates per fiber, all refined by one Newton pass, each in the box
    ESCAPE_RADIUS (1 + max |finite candidate of its fiber|); or
    DiscriminantError for the first fiber refused.  scale is 1 + max |z_i|
    of the fiber.  f, the Hessians and det are the values the screens read.

    Nothing is dropped, so in a fiber the refusals come in this order: a
    Newton failure (the first failed candidate, named as a point on a
    hyperplane when it started within 1e-6 scale of one); then the first
    point that lies within 1e-8 scale of an earlier point in every
    coordinate ("critical points collide"), of a hyperplane, or is flat
    (|det Hess| < 1e-12); last, the first residual above 1e-9 scale, so
    that rule refuses only fibers that pass the rest.
    """
    on_hyperplane = "a critical point lies on (or too near) a hyperplane"
    S = len(zs)
    mu = len(candidates) // S
    scales = 1.0 + np.abs(zs).max(axis=1, keepdims=True)  # (S, 1)
    finite = np.isfinite(candidates).all(axis=1, keepdims=True)
    reach = np.where(finite, np.abs(candidates), 0.0).reshape(S, -1).max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):  # a box beyond double range is infinite
        box = ESCAPE_RADIUS * (1.0 + reach)
    at = zs.repeat(mu, axis=0)
    t, res, failures = _newton_refine(data, at, candidates, box.repeat(mu))
    # a point too near a hyperplane may overflow here (it is caught as near),
    # and the points of a fiber Newton failed may not be finite
    with np.errstate(all="ignore"):
        fvals = _values(data, at, t)
        hessians = _hessians(data, fvals)
        dets = np.linalg.det(hessians)
        flat = (np.abs(dets) < 1e-12).reshape(S, mu)
        near = np.abs(fvals).min(axis=1).reshape(S, mu) < 1e-8 * scales
        points = t.reshape(S, mu, -1)
        gaps = np.abs(points[:, :, None] - points[:, None]).max(axis=3)
    # point i collides when it is within the margin of some earlier point j < i
    earlier = np.arange(mu)[:, None] > np.arange(mu)
    collide = ((gaps < 1e-8 * scales[:, :, None]) & earlier).any(axis=2)
    unconverged = ~(res.reshape(S, mu) <= 1e-9 * scales)
    screened = collide | near | flat
    if not (any(failures) or screened.any() or unconverged.any()):
        return t, res, fvals, hessians, dets
    for fiber in range(S):
        for s in [s for s in range(fiber * mu, (fiber + 1) * mu) if failures[s]][:1]:
            with np.errstate(all="ignore"):
                started_near = np.min(np.abs(_values(data, zs[fiber], candidates[s:s + 1]))) < 1e-6 * scales[fiber, 0]
            raise DiscriminantError(on_hyperplane if started_near else failures[s])
        for s in np.flatnonzero(screened[fiber])[:1]:
            raise DiscriminantError(
                "critical points collide" if collide[fiber, s]
                else on_hyperplane if near[fiber, s]
                else "degenerate critical point (vanishing Hessian)"
            )
        for s in np.flatnonzero(unconverged[fiber])[:1]:
            raise DiscriminantError(f"Newton refinement did not converge (residual {res[fiber * mu + s]:.3e})")


def _fibers(data: ArrangementData, zs) -> list:
    """The CriticalPointFrame of the fiber over every row of the checked
    complex array zs (S, n), solved in one pass: one Higgs evaluation and
    one eigenproblem per fiber (``_eigen_candidates``), one Newton pass
    over every candidate and the screens fiber by fiber (``_accept``), so a
    refusal is that of the first fiber refused; each frame carries the f,
    Hessians and det the screens read.  Each frame is that of a one-fiber
    stack bit for bit: the stacked products keep each fiber's matrix
    shapes.  A family whose count is 0 raises PreconditionError."""
    if data.count == 0:
        raise PreconditionError(NO_CRITICAL_POINTS)
    S = len(zs)
    t, res, f, hessians, dets = _accept(data, zs, _eigen_candidates(data, zs))
    mu = len(t) // S
    # sorted in each fiber by the real, then the imaginary part of the last coordinate
    order = np.lexsort((t[:, -1].imag, t[:, -1].real, np.arange(len(t)) // mu))
    fields = [v[order].reshape(S, mu, *v.shape[1:]) for v in (t, f, hessians, dets, res)]
    return [CriticalPointFrame(*row) for row in zip(zs, *fields)]


def critical_points(data: ArrangementData, z) -> CriticalPointFrame:
    """All fiberwise critical points over z, Newton-refined and validated:
    ``_fibers`` of a stack of one.

    A z that is not a vector of n finite coordinates raises GroundSetError,
    with the messages of the family's basepoint check (``errors.points``);
    a family whose count
    ``data.count`` is 0 has no critical points at all and raises
    PreconditionError.  The candidates are the joint eigenvalues
    of the Higgs matrices (``_eigen_candidates``), exactly ``data.count`` of
    them at every rank; ``_accept`` refines and screens them, with scale =
    1 + max |z_i|.  The points are sorted by the real, then the imaginary
    part of their last coordinate.
    """
    return _fibers(data, points([z], data.n))[0]


def structure_from_arrangement(data: ArrangementData, m: int) -> FlatFrameStructure:
    """FlatFrameStructure of order (n, k, 2) whose jets the family evaluates.

    The residue pairing is bilinear, so every ``m`` but 2 raises
    PreconditionError before any solve.  The basepoint fiber is solved
    next (PreconditionError for count 0, DiscriminantError), and gives mu.
    The working frame is the family's ``flat_basis``, read from its algebra
    and not from a fiber.  The structure's ``jet`` is the family's
    ``pairing_jets`` and its ``frame_jet`` the family's ``frame_jet``, which
    reads the Higgs matrices in that frame from the algebra and takes the
    unit and form into it from the fiber; the fibers under a stack of
    points away from the basepoint are solved afresh, in one pass, at every
    rank.
    """
    if m != 2:
        raise PreconditionError(
            f"arrangement families give structures of order (n, k, 2) only, got m={m}"
        )
    return FlatFrameStructure(
        data.matroid, m, data.basepoint, data.base_frame.mu, jet=data.pairing_jets, frame_jet=data.frame_jet
    )
