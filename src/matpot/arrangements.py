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
sections is a genuine testable statement.  The raw diagonal data stays
available on the backend for exactness checks.

Only k = 1 is a fully supported path (critical points come from the roots of
an explicit degree n-1 polynomial plus Newton refinement).  For k >= 2 the
solver runs multivariate Newton from the vertex seed cloud (hyperplane
intersection vertices, their midpoints and centroids, lightly jittered);
that path is experimental and makes no completeness claim.  Either way all
candidates of a fiber are refined in one batched Newton solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ContinuationError,
    DiscriminantError,
    GroundSetError,
    PreconditionError,
    RankError,
    StructureError,
)
from .frobenius import FlatFrameStructure
from .matroids import LinearMatroid
from .series import SeriesSpace


def vector_matroid(matrix) -> LinearMatroid:
    """Row matroid of an exact rational n x k matrix of full column rank."""
    M = LinearMatroid(matrix)
    if M.full_rank != M.width:
        raise RankError(
            f"matrix has rank {M.full_rank}, expected full column rank {M.width}"
        )
    return M


def _exact_weight(value):
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return None


class ArrangementData:
    """Coefficients, weights, and basepoint of a weighted arrangement family."""

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
        if any(complex(w) == 0 for w in weights):
            raise GroundSetError("weights must be nonzero")
        self.weights = weights
        self.weights_exact = tuple(_exact_weight(w) for w in weights)
        self.basepoint = np.asarray(basepoint, dtype=complex)
        if self.basepoint.shape != (self.n,):
            raise GroundSetError(f"basepoint must have {self.n} coordinates")
        self.B = np.array([[complex(v) for v in row] for row in self.matrix])
        self.a = np.array([complex(w) for w in weights])

    def hyperplane_values(self, z, points):
        """f_i(z, t^s) for all i and critical points; shape (mu, n)."""
        return points @ self.B.T + np.asarray(z, dtype=complex)[None, :]


@dataclass
class CriticalPointFrame:
    """Critical points of the master function in one fiber, with Hessian data."""

    z: np.ndarray
    points: np.ndarray  # (mu, k)
    hessians: np.ndarray  # (mu, k, k)
    det_hess: np.ndarray  # (mu,)
    residuals: np.ndarray  # (mu,)

    @property
    def mu(self) -> int:
        return len(self.points)


def _values(data: ArrangementData, z, t):
    """f_i(z, t^s) for the rows t^s of t (S, k); shape (S, n).

    Each row is the one-point product B t^s + z bit for bit (the stacked
    ``t @ B.T`` sums in another order)."""
    return np.matmul(data.B[None], t[:, :, None])[:, :, 0] + z


def _hessians(data: ArrangementData, f):
    """Hess_t Phi = -B^T diag(a / f^2) B for the rows of f (S, n); (S, k, k)."""
    return np.matmul(-(data.B.T[None] * (data.a / f**2)[:, None, :]), data.B[None])


def _newton_refine(data: ArrangementData, z, seeds, max_iter: int = 50):
    """Newton on grad_t Phi = 0 from every row of ``seeds`` (S, k) at once.

    Returns (points (S, k), residuals max |grad| (S,), failures), where
    failures[s] is None or the DiscriminantError message that stopped seed
    s: |f_i| < 1e-300 at an iterate, or a singular Hessian.  A seed leaves
    the active set when it fails or its step satisfies
    max |delta| <= 1e-15 (1 + max |t|); at most ``max_iter`` steps.

    Each seed sees the arithmetic of a one-seed solve bit for bit: the
    stacked products keep the per-seed matrix shapes, and a stacked solve
    runs the same LU per matrix.  A diverging seed may overflow; callers
    reject non-finite results.
    """
    t = np.array(seeds, dtype=complex).reshape(len(seeds), data.k)
    failures: list = [None] * len(t)

    def values(idx):
        f = _values(data, z, t[idx])
        hit = np.abs(f).min(axis=1) < 1e-300
        for s in idx[hit]:
            failures[s] = "critical point collided with a hyperplane"
        return idx[~hit], f[~hit]

    def gradients(f):
        return np.matmul(data.B.T[None], (data.a / f)[:, :, None])

    with np.errstate(all="ignore"):
        active = np.arange(len(t))
        for _ in range(max_iter):
            if not active.size:
                break
            active, f = values(active)
            g = gradients(f)
            H = _hessians(data, f)
            # a stacked solve raises for the whole stack on one singular
            # matrix; det runs the same LU and reads exactly 0 on those
            singular = np.linalg.det(H) == 0
            delta = np.empty_like(g)
            regular = ~singular
            if regular.any():
                delta[regular] = np.linalg.solve(H[regular], g[regular])
            failed = np.zeros(len(active), dtype=bool)
            for j in np.flatnonzero(singular):
                try:
                    delta[j] = np.linalg.solve(H[j], g[j])
                except np.linalg.LinAlgError:
                    failures[active[j]] = "degenerate Hessian during Newton refinement"
                    failed[j] = True
            active, delta = active[~failed], delta[~failed, :, 0]
            t[active] = t[active] - delta
            done = np.abs(delta).max(axis=1) <= 1e-15 * (1.0 + np.abs(t[active]).max(axis=1))
            active = active[~done]
        residuals = np.full(len(t), np.nan)
        idx, f = values(np.array([s for s, why in enumerate(failures) if why is None], dtype=int))
        residuals[idx] = np.abs(gradients(f)[:, :, 0]).max(axis=1)
    return t, residuals, failures


def _poly_from_factors(pairs):
    """Coefficients (descending) of the product of linear factors b*t + c."""
    coeffs = np.array([1.0 + 0.0j])
    for b, c in pairs:
        coeffs = np.convolve(coeffs, np.array([b, c], dtype=complex))
    return coeffs


def _vertex_seed_cloud(data: ArrangementData, z, jitter: float = 1e-3):
    """Seeds for k >= 2 Newton: hyperplane intersection vertices, their
    pairwise midpoints and triple centroids, lightly jittered.

    Critical points of a master function with generic weights sit inside the
    cells cut out by the hyperplanes, so cell-anchored seeds reach them while
    a plain random cloud mostly escapes to infinity.
    """
    import itertools

    z = np.asarray(z, dtype=complex)
    vertices = []
    for rows in itertools.combinations(range(data.n), data.k):
        A = data.B[list(rows), :]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        v = np.linalg.solve(A, -z[list(rows)])
        vertices.append(v)
    seeds = list(vertices)
    for u, v in itertools.combinations(vertices, 2):
        seeds.append((u + v) / 2.0)
    for u, v, w in itertools.combinations(vertices, 3):
        seeds.append((u + v + w) / 3.0)
    rng = np.random.default_rng(20240521)
    out = []
    for s in seeds:
        out.append(s)
        out.append(
            s
            + jitter
            * (rng.standard_normal(data.k) + 1j * rng.standard_normal(data.k))
        )
    return out


def _k1_candidate_roots(data: ArrangementData, z):
    z = np.asarray(z, dtype=complex)
    active = [i for i in range(data.n) if data.matrix[i][0] != 0]
    if len(active) < 2:
        raise PreconditionError("need at least two hyperplanes involving the fiber variable")
    active_weights = [data.weights_exact[i] for i in active]
    if all(w is not None for w in active_weights):
        # top coefficient is prod(b_j) * sum(a_i) over active rows, so only
        # a vanishing weight sum can degenerate the fiber count
        if sum(active_weights) == 0:
            raise DiscriminantError("weights are balanced: top coefficient vanishes")
    poly = np.zeros(len(active), dtype=complex)
    for i in active:
        factors = [(data.B[j, 0], z[j]) for j in active if j != i]
        contrib = data.a[i] * data.B[i, 0] * _poly_from_factors(factors)
        poly += contrib
    expected = len(active) - 1
    top = np.max(np.abs(poly))
    if top == 0 or abs(poly[0]) < 1e-12 * top:
        raise DiscriminantError("fiber polynomial degenerates (leading coefficient ~ 0)")
    return np.roots(poly), expected


def critical_points(
    data: ArrangementData,
    z,
    seeds=None,
) -> CriticalPointFrame:
    """All fiberwise critical points over z, Newton-refined and validated.

    Raises DiscriminantError when points coincide or land on a hyperplane
    (within 1e-8 * (1 + max |z_i|)), or have (nearly) singular Hessians
    (|det| < 1e-12).  For k >= 2 pass explicit ``seeds`` (S x k) or rely
    on the vertex seed cloud (experimental).  All candidates are refined in one
    batched Newton solve, then filtered in candidate order.
    """
    z = np.asarray(z, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(z)))
    hyper_margin = dist_margin = 1e-8 * scale
    hess_margin = 1e-12
    if data.k == 1:
        raw, expected = _k1_candidate_roots(data, z)
        candidates = raw[:, None]
    else:
        expected = None
        if seeds is None:
            seeds = _vertex_seed_cloud(data, z)
        candidates = seeds
    strict = data.k == 1
    t, res, failures = _newton_refine(data, z, candidates)
    # NaN fails every comparison, so it must be caught before the filters
    clean = np.isfinite(res) & np.isfinite(t).all(axis=1)
    if strict:
        for failure, finite in zip(failures, clean):
            if failure is not None or not finite:
                raise DiscriminantError(failure or "Newton refinement reached a non-finite point")
    else:
        # spurious fixed points at infinity have tiny gradients too
        with np.errstate(over="ignore"):
            clean &= (res <= 1e-9 * scale) & (np.max(np.abs(t), axis=1) <= 1e6 * scale)
    kept = np.flatnonzero(clean)
    fvals = _values(data, z, t[kept])
    near = np.min(np.abs(fvals), axis=1) < hyper_margin
    # a point too near a hyperplane may overflow here; it is dropped as near
    with np.errstate(all="ignore"):
        flat = np.abs(np.linalg.det(_hessians(data, fvals))) < hess_margin
    points: list = []
    residuals: list = []
    accepted = np.empty((0, data.k), dtype=complex)
    for s, near_s, flat_s in zip(kept, near, flat):
        if np.any(np.max(np.abs(t[s] - accepted), axis=1) < dist_margin):
            if strict:
                raise DiscriminantError("critical points collide")
            continue
        if near_s:
            if strict:
                raise DiscriminantError("a critical point lies on (or too near) a hyperplane")
            continue
        if flat_s:
            if strict:
                raise DiscriminantError("degenerate critical point (vanishing Hessian)")
            continue
        points.append(t[s])
        residuals.append(float(res[s]))
        accepted = np.array(points)
    if strict and len(points) != expected:
        raise DiscriminantError(
            f"found {len(points)} critical points, expected {expected}"
        )
    if not points:
        raise DiscriminantError("no nondegenerate critical points found")
    order = np.lexsort(
        (np.asarray([p[-1].imag for p in points]), np.asarray([p[-1].real for p in points]))
    )
    points = [points[i] for i in order]
    residuals = [residuals[i] for i in order]
    pts = np.array(points)
    fvals = data.hyperplane_values(z, pts)
    hessians = _hessians(data, fvals)
    dets = np.linalg.det(hessians)
    return CriticalPointFrame(
        z=z,
        points=pts,
        hessians=hessians,
        det_hess=dets,
        residuals=np.array(residuals),
    )


def discriminant_probe(data: ArrangementData, z) -> bool:
    """True iff the fiber over z has the full count of clean critical points."""
    try:
        critical_points(data, z)
    except (DiscriminantError, ContinuationError, PreconditionError):
        return False
    return True


def _match_points(reference: np.ndarray, fresh: np.ndarray):
    """Assign each reference point its nearest fresh point, injectively.

    Returns the index of each reference point's match in ``fresh``, or None
    when the assignment is ambiguous (collision or non-injective match).
    """
    mu = len(reference)
    if len(fresh) != mu:
        return None
    dist = np.linalg.norm(reference[:, None, :] - fresh[None, :, :], axis=2)
    choice = np.argmin(dist, axis=1)
    if len(set(choice.tolist())) != mu:
        return None
    # ambiguous if some reference point is nearly equidistant to two targets
    for s in range(mu):
        row = np.sort(dist[s])
        if len(row) > 1 and row[0] > 0.49 * row[1]:
            return None
    return choice


def continue_fiber(
    data: ArrangementData,
    frame: CriticalPointFrame,
    z_target,
) -> CriticalPointFrame:
    """Track the critical points of ``frame`` to the fiber over z_target.

    Nearest-point matching against a freshly computed fiber, with recursive
    path bisection (predictor-corrector with step halving) when the matching
    is ambiguous; raises ContinuationError after 40 halvings.  Each fresh
    fiber is seeded with the tracked points (used by k >= 2 Newton).
    """
    max_depth = 40
    z_target = np.asarray(z_target, dtype=complex)
    if np.array_equal(frame.z, z_target):
        return frame

    def step(current: CriticalPointFrame, target, depth: int) -> CriticalPointFrame:
        fresh = critical_points(data, target, seeds=current.points)
        perm = _match_points(current.points, fresh.points)
        if perm is None:
            if depth >= max_depth:
                raise ContinuationError("point tracking lost between fibers")
            mid = (current.z + target) / 2.0
            halfway = step(current, mid, depth + 1)
            return step(halfway, target, depth + 1)
        return CriticalPointFrame(
            z=np.asarray(target, dtype=complex),
            points=fresh.points[perm],
            hessians=fresh.hessians[perm],
            det_hess=fresh.det_hess[perm],
            residuals=fresh.residuals[perm],
        )

    return step(frame, z_target, 0)


def _p_values(data: ArrangementData, z, frame: CriticalPointFrame) -> np.ndarray:
    """Matrix P[i, s] = a_i / f_i(t^s, z) of Higgs eigenvalues."""
    fvals = data.hyperplane_values(z, frame.points)  # (mu, n)
    return (data.a[None, :] / fvals).T


def _sections(P: np.ndarray, sets) -> np.ndarray:
    """Columns: diagonal-frame values of C_I (unit) for each index set I."""
    U = np.ones((P.shape[1], len(sets)), dtype=complex)
    for c, I in enumerate(sets):
        for i in I:
            U[:, c] *= P[i - 1]
    return U


class ArrangementBackend:
    """Caches fibers and per-z frame data for one arrangement structure."""

    def __init__(self, data: ArrangementData, flat_basis, base_frame: CriticalPointFrame):
        self.data = data
        self.flat_basis = tuple(tuple(sorted(I)) for I in flat_basis)
        self.base_frame = base_frame
        self._fibers: dict = {tuple(data.basepoint.tolist()): self.base_frame}
        self._derived: dict = {}

    def fiber(self, z) -> CriticalPointFrame:
        z = np.asarray(z, dtype=complex)
        key = tuple(z.tolist())
        hit = self._fibers.get(key)
        if hit is None:
            hit = self._fibers[key] = continue_fiber(self.data, self.base_frame, z)
        return hit

    def p_values(self, z) -> np.ndarray:
        """Matrix P[i, s] = a_i / f_i(t^s, z) of Higgs eigenvalues."""
        return _p_values(self.data, z, self.fiber(z))

    def _frame_data(self, z):
        """(P, flat-frame columns U, residue weights 1 / det Hess) at z."""
        key = tuple(np.asarray(z, dtype=complex).tolist())
        hit = self._derived.get(key)
        if hit is None:
            frame = self.fiber(z)
            P = _p_values(self.data, z, frame)
            hit = self._derived[key] = (P, _sections(P, self.flat_basis), 1.0 / frame.det_hess)
        return hit

    def higgs(self, label, z):
        P, U, _ = self._frame_data(z)
        return np.linalg.solve(U, P[label - 1][:, None] * U)

    def unit(self, z):
        _, U, _ = self._frame_data(z)
        return np.linalg.solve(U, np.ones(U.shape[0], dtype=complex))

    def form(self, z):
        _, U, w = self._frame_data(z)
        return np.einsum("sa,sb,s->ab", U, U, w)

    def diagonal_form(self, z, vectors):
        """Residue pairing of value vectors in the critical-point frame."""
        out = self._frame_data(z)[2]
        for v in vectors:
            out = out * np.asarray(v, dtype=complex)
        return complex(np.sum(out))

    def x_field_residual(self, z) -> float:
        """Worst |sum_i b_i^j p_i| over the fiber; zero in exact arithmetic."""
        P = self.p_values(z)
        comb = self.data.B.T @ P  # (k, mu)
        return float(np.max(np.abs(comb)))

    def section_matrix(self, z) -> np.ndarray:
        """Columns: diagonal-frame values of C_I (unit) for every maximal
        independent I, in lexicographic order of I."""
        return _sections(self.p_values(z), [tuple(sorted(B)) for B in self.data.matroid.bases()])

    def generation_rank(self, z) -> int:
        V = self.section_matrix(z)
        return int(np.linalg.matrix_rank(V, tol=1e-9 * max(1.0, float(np.max(np.abs(V))))))

    def pairing_condition(self, z) -> float:
        """Condition number of the flat-frame pairing matrix."""
        return float(np.linalg.cond(self.form(z)))

    def _series_fiber(self, space: SeriesSpace, z, frame: CriticalPointFrame):
        """Series at z, in delta up to degree space.q, of the Higgs
        eigenvalues p_i = a_i / f_i, shape (mu, n, size), and of the residue
        weights w = 1 / det Hess, shape (mu, size).

        The critical points t^s(z + delta) are series from Newton's method on
        grad_t Phi = 0, started at the points of ``frame`` (the fiber over z);
        each step doubles the number of correct degrees.
        """
        B, a = self.data.B, self.data.a
        z = space.constant(z) + space.variables()

        def eigenvalues_and_hessians(t):
            f = np.einsum("ij,sjm->sim", B, t) + z
            r = space.reciprocal(f)
            p = a[:, None] * r
            return p, -np.einsum("ij,il,sim->sjlm", B, B, space.mul(p, r))

        t = space.constant(frame.points)
        for _ in range(space.q.bit_length()):
            p, hess = eigenvalues_and_hessians(t)
            grad = np.einsum("ij,sim->sjm", B, p)
            t = t - space.solve(hess, grad[:, :, None, :])[:, :, 0, :]
        p, hess = eigenvalues_and_hessians(t)
        return p, space.reciprocal(space.det(hess))

    def pairing_jets(self, space: SeriesSpace, members) -> np.ndarray:
        """Taylor coefficients at the basepoint, in delta = z - x up to degree
        space.q, of the pairings g_T2(z) = S(C_T2 unit, unit) for every
        multiplicity tuple T2 in ``members``; shape (len(members), space.size).

        In the critical-point frame g_T2 = sum_s w_s prod_i p_i^{T2_i}, with p
        and w the series of the base frame.  The products run over the
        members' label words in lexicographic order, so a shared prefix is
        multiplied once.  No fiber is continued and no flat frame is solved.
        """
        p, w = self._series_fiber(space, self.data.basepoint, self.base_frame)
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

    def frame_jet(self, z, space: SeriesSpace):
        """Taylor series at z, in delta up to degree space.q, of the
        flat-frame data: (H, unit, form) with shapes (n, mu, mu, size),
        (mu, size) and (mu, mu, size).

        The flat frame U holds the diagonal-frame sections C_I (unit) of the
        flat basis, products of the eigenvalue series p; then H_i =
        U^-1 diag(p_i) U and the unit U^-1 (1, ..., 1) come from one series
        solve with all n mu + 1 right-hand columns, and the form is
        sum_s U_sa U_sb w_s.  Takes the fiber over z (one continuation from
        the base frame, cached) and no other fiber.
        """
        z = np.asarray(z, dtype=complex)
        p, w = self._series_fiber(space, z, self.fiber(z))
        mu, n = p.shape[:2]
        labels = np.array(self.flat_basis, dtype=np.intp) - 1  # (mu, k)
        U = p[:, labels[:, 0]]
        for col in labels.T[1:]:
            U = space.mul(U, p[:, col])
        rhs = space.mul(p[:, :, None, :], U[:, None, :, :]).reshape(mu, n * mu, space.size)
        ones = space.constant(np.ones((mu, 1)))
        X = space.solve(U, np.concatenate([rhs, ones], axis=1))
        H = X[:, : n * mu].reshape(mu, n, mu, space.size).transpose(1, 0, 2, 3)
        weighted = space.mul(U, w[:, None, :])
        form = space.mul(weighted[:, :, None, :], U[:, None, :, :]).sum(axis=0)
        return H, X[:, n * mu], form


def _choose_flat_basis(data: ArrangementData, frame: CriticalPointFrame):
    """Greedily pick mu maximal independent sets whose sections span the fiber."""
    sets = [tuple(sorted(B)) for B in data.matroid.bases()]
    V = _sections(_p_values(data, data.basepoint, frame), sets)
    chosen = []
    for c in range(len(sets)):
        M = V[:, chosen + [c]]
        if np.linalg.matrix_rank(M, tol=1e-9 * max(1.0, float(np.max(np.abs(M))))) == M.shape[1]:
            chosen.append(c)
        if len(chosen) == frame.mu:
            break
    if len(chosen) < frame.mu:
        raise StructureError(
            "the flat sections do not span the fiber (generation condition fails); "
            "no flat frame can be assembled"
        )
    return [sets[c] for c in chosen]


def structure_from_arrangement(
    data: ArrangementData, m: int, allow_k_ge_2: bool = False
) -> FlatFrameStructure:
    """FlatFrameStructure of order (n, k, 2) backed by the arrangement family.

    The residue pairing of an arrangement family is bilinear, so ``m`` must
    be 2; every other order raises PreconditionError.  The working frame
    consists of mu flat sections C_I (unit) chosen at the basepoint; Higgs
    matrices, unit, and form are conjugated into it, and the critical points
    entering every evaluation are tracked by continuation so frames are
    consistent across z.
    """
    if data.k >= 2 and not allow_k_ge_2:
        raise PreconditionError(
            "k >= 2 critical-point solving is experimental; pass allow_k_ge_2=True"
        )
    if m != 2:
        raise PreconditionError(
            f"arrangement families give structures of order (n, k, 2) only, got m={m}"
        )
    base_frame = critical_points(data, data.basepoint)
    flat_basis = _choose_flat_basis(data, base_frame)
    backend = ArrangementBackend(data, flat_basis, base_frame)
    return FlatFrameStructure(
        matroid=data.matroid,
        m=m,
        basepoint=data.basepoint,
        mu=base_frame.mu,
        higgs=backend.higgs,
        unit=backend.unit,
        form=backend.form,
        backend=backend,
        jet=backend.pairing_jets,
        frame_jet=backend.frame_jet,
    )
