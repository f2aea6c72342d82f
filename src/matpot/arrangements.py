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
sections is a genuine testable statement.  ``ArrangementData`` evaluates the
structure's jets, the pairing jets at the basepoint and the frame jets in
that flat frame, from its basepoint fiber and flat basis, each computed once;
the fiber's Newton residuals and Hessian determinants are the diagnostics.

For generic weights and z the fiber has exactly mu = |sum over independent S
with |S| <= k of (-1)^|S|| points, the Euler characteristic of the
complement (Orlik-Terao, Varchenko); ``ArrangementData.count`` computes it
once from the matroid, and every fiber solve at every rank returns exactly
that many points or raises DiscriminantError.  Both solves refine their
candidates by batched Newton: ``_k1_fiber`` the roots of an explicit degree
n-1 polynomial, ``_cloud_fiber`` a seed cloud around the hyperplane
intersection vertices, in stages.  Their acceptance rules and refusals are
stated once, in those two docstrings; docs/schemas.md lists the messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
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
    """A weighted arrangement family at its basepoint, with its fiber and jets."""

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

    @cached_property
    def count(self) -> int:
        """Critical points of a generic fiber: |sum over independent S with
        |S| <= k of (-1)^|S||, the Euler characteristic of the complement.
        Independent sets grow one larger label at a time: every subset of an
        independent set is independent, so each is reached exactly once."""
        level, total = [frozenset()], 1
        for size in range(1, self.k + 1):
            level = [
                S | {e}
                for S in level
                for e in range(max(S, default=0) + 1, self.n + 1)
                if self.matroid.is_independent(S | {e})
            ]
            total += (-1) ** size * len(level)
        return abs(total)

    @cached_property
    def base_frame(self) -> CriticalPointFrame:
        """The fiber over the basepoint, solved once."""
        return critical_points(self, self.basepoint)

    @cached_property
    def flat_basis(self) -> tuple:
        """mu bases, picked greedily, whose sections span the basepoint fiber."""
        frame = self.base_frame
        sets = [tuple(sorted(B)) for B in self.matroid.bases()]
        # column c: the diagonal-frame values prod_{i in I_c} a_i / f_i(t^s) of C_I (unit)
        P = (self.a[None, :] / frame.f).T
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
        if len(chosen) < frame.mu:
            raise StructureError(
                "the flat sections do not span the fiber (generation condition fails); "
                "no flat frame can be assembled"
            )
        return tuple(sets[c] for c in chosen)

    def _series_fiber(self, space: SeriesSpace, frame: CriticalPointFrame):
        """Series at z = frame.z, in delta up to degree space.q, of the Higgs
        eigenvalues p_i = a_i / f_i, shape (mu, n, size), and of the residue
        weights w = 1 / det Hess, shape (mu, size).

        The critical points t^s(z + delta) of ``frame`` (the fiber over z),
        f = B t + z + delta and r = 1 / f are built one degree at a time:
        known = -r_0 [f r]_d, summed while f_d holds only delta's part and r_d
        is 0, is r_d but for -r_0^2 B t_d, so grad_t Phi = B^T (a r) vanishes
        at degree d when H_0 t_d = -B^T (a known), H_0 the fiber's Hessians.
        """
        B, a = self.B, self.a
        f = space.constant(frame.f) + space.variables()
        r = space.constant(1.0 / f[..., 0])
        # B t_d = gain known, gain = -B H_0^-1 B^T diag(a) per point
        gain = -(B @ np.linalg.inv(frame.hessians) @ B.T) * a
        for d, block in enumerate(space.degrees[1:], 1):
            known = -r[..., :1] * space.mul_degree(f, r, d)
            step = gain @ known
            f[..., block] += step
            r[..., block] = known - r[..., :1] ** 2 * step
        p = a[:, None] * r
        hess = -np.einsum("ij,il,sim->sjlm", B, B, space.mul(p, r))
        return p, space.reciprocal(space.det(hess))

    def pairing_jets(self, space: SeriesSpace, members) -> np.ndarray:
        """Taylor coefficients at the basepoint, in delta = z - x up to degree
        space.q, of the pairings g_T2(z) = S(C_T2 unit, unit) for every
        multiplicity tuple T2 in ``members``; shape (len(members), space.size).

        In the critical-point frame g_T2 = sum_s w_s prod_i p_i^{T2_i}, with p
        and w the series of the base frame.  The products run over the
        members' label words in lexicographic order, so a shared prefix is
        multiplied once.  No other fiber and no flat frame is solved.
        """
        p, w = self._series_fiber(space, self.base_frame)
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
        sum_s (U_sa U_sb) w_s.  The fiber over z is the base frame at the
        basepoint and is solved afresh elsewhere; permuting its points
        permutes the rows of U and of the right-hand sides alike, so the jet
        does not depend on their order.
        """
        frame = self.base_frame if np.array_equal(z, self.base_frame.z) else critical_points(self, z)
        p, w = self._series_fiber(space, frame)
        mu, n = p.shape[:2]
        labels = np.array(self.flat_basis, dtype=np.intp) - 1  # (mu, k)
        U = p[:, labels[:, 0]]
        for col in labels.T[1:]:
            U = space.mul(U, p[:, col])
        rhs = space.mul(p[:, :, None, :], U[:, None, :, :]).reshape(mu, n * mu, space.size)
        ones = space.constant(np.ones((mu, 1)))
        X = space.solve(U, np.concatenate([rhs, ones], axis=1))
        H = X[:, : n * mu].reshape(mu, n, mu, space.size).transpose(1, 0, 2, 3)
        # U_sa U_sb first, factors in one order (complex products need not commute
        # bit for bit), so form = form^T exactly
        lo, hi = np.minimum.outer(range(mu), range(mu)), np.maximum.outer(range(mu), range(mu))
        form = space.mul(space.mul(U[:, lo], U[:, hi]), w[:, None, None, :]).sum(axis=0)
        return H, X[:, n * mu], form


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


def _values(data: ArrangementData, z, t):
    """f_i(z, t^s) for the rows t^s of t (S, k); shape (S, n).

    Each row is the one-point product B t^s + z bit for bit (the stacked
    ``t @ B.T`` sums in another order)."""
    return np.matmul(data.B[None], t[:, :, None])[:, :, 0] + z


def _hessians(data: ArrangementData, f):
    """Hess_t Phi = -B^T diag(a / f^2) B for the rows of f (S, n); (S, k, k)."""
    return np.matmul(-(data.B.T[None] * (data.a / f**2)[:, None, :]), data.B[None])


#: the failure of a seed whose Newton iterate left the escape box
ESCAPED = "Newton iterate left for infinity"
#: a Newton iterate with max |t| > ESCAPE_RADIUS (1 + max |candidate|) has escaped;
#: seeds of accepted points measured stay within 9.87 (1 + max |candidate|)
ESCAPE_RADIUS = 1e2
FAR_RADIUS = 1e6  # a k >= 2 fiber found short is solved again in FAR_RADIUS (1 + max |z|)
NEWTON_MAX_ITER = 50  # Newton steps per seed in ``_newton_refine``
SEED_JITTER = 1e-3  # scale of the vertex seed cloud's complex normal jitter


def _newton_refine(data: ArrangementData, z, seeds, box: float):
    """Newton on grad_t Phi = 0 from every row of ``seeds`` (S, k) at once.

    Returns (points (S, k), residuals max |grad| (S,), failures), where
    failures[s] is None or the DiscriminantError message that stopped seed
    s: |f_i| < 1e-300 at an iterate, a singular Hessian, or an iterate with
    max |t| > box (in the units of t) or NaN.  A seed leaves the active set
    when it fails or its step satisfies max |delta| <= 1e-15 (1 + max |t|);
    at most NEWTON_MAX_ITER steps.  Failed seeds get residual NaN.

    Each seed sees the arithmetic of a one-seed solve bit for bit: the
    stacked products keep the per-seed matrix shapes, and a stacked solve
    runs the same LU per matrix.  Only when one singular Hessian makes the
    stacked solve raise are those (det exactly 0, the same LU) split off.
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
        for _ in range(NEWTON_MAX_ITER):
            if not active.size:
                break
            active, f = values(active)
            g = gradients(f)
            H = _hessians(data, f)
            failed = np.zeros(len(active), dtype=bool)
            try:
                delta = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                # a stacked solve raises for the whole stack on one singular
                # matrix; det runs the same LU and reads exactly 0 on those
                singular = np.linalg.det(H) == 0
                delta = np.empty_like(g)
                delta[~singular] = np.linalg.solve(H[~singular], g[~singular])
                for j in np.flatnonzero(singular):
                    try:
                        delta[j] = np.linalg.solve(H[j], g[j])
                    except np.linalg.LinAlgError:
                        failures[active[j]] = "degenerate Hessian during Newton refinement"
                        failed[j] = True
            active, delta = active[~failed], delta[~failed, :, 0]
            t[active] = t[active] - delta
            size = np.abs(t[active]).max(axis=1)
            escaped = ~(size <= box)
            for s in active[escaped]:
                failures[s] = ESCAPED
            done = np.abs(delta).max(axis=1) <= 1e-15 * (1.0 + size)
            active = active[~(escaped | done)]
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


def _combinations(count: int, size: int) -> np.ndarray:
    """Index array (C(count, size), size) of combinations in lexicographic order."""
    return np.array(list(combinations(range(count), size)), dtype=np.intp).reshape(-1, size)


def _vertex_seed_cloud(data: ArrangementData, z):
    """Seeds (2 S, k) for k >= 2 Newton and the row where their centroid tail
    starts: the hyperplane intersection vertices (k-subsets of rows with
    |det| >= 1e-12), their pairwise midpoints, then their triple centroids,
    each followed by a copy jittered by SEED_JITTER times a complex standard
    normal draw.  Balanced weights (sum a = 0) leave a count-1 family's fiber
    empty: DiscriminantError; otherwise its closed-form point closes the tail.

    Critical points of a master function with generic weights sit inside the
    cells cut out by the hyperplanes, so cell-anchored seeds reach them while
    a plain random cloud mostly escapes to infinity.  Vertices come from one
    stacked det and solve, the jitter from one draw of the fixed-seed
    generator (the same stream as a draw per seed).  z is a complex array.
    """
    rows = _combinations(data.n, data.k)
    rows = rows[np.abs(np.linalg.det(data.B[rows])) >= 1e-12]
    V = np.linalg.solve(data.B[rows], -z[rows][..., None])[..., 0]
    i, j = _combinations(len(V), 2).T
    u, v, w = _combinations(len(V), 3).T
    seeds = np.concatenate([V, (V[i] + V[j]) / 2.0, (V[u] + V[v] + V[w]) / 3.0])
    if data.n == data.k + 1 and data.count == 1:
        # count 1: B^T (a / f) = 0 puts a / f on c (cofactors), c . f = c . z
        if data.a.sum() == 0 or None not in data.weights_exact and sum(data.weights_exact) == 0:
            raise DiscriminantError("weights are balanced: the count-1 fiber needs sum a != 0")
        c = np.array([(-1) ** i * np.linalg.det(np.delete(data.B, i, axis=0)) for i in range(data.n)])
        f = data.a * (c @ z) / (c * data.a.sum())
        seeds = np.concatenate([seeds, np.linalg.lstsq(data.B, f - z, rcond=None)[0][None]])
    noise = np.random.default_rng(20240521).standard_normal((len(seeds), 2, data.k))
    jittered = seeds + SEED_JITTER * (noise[:, 0] + 1j * noise[:, 1])
    return np.stack([seeds, jittered], axis=1).reshape(-1, data.k), 2 * (len(V) + len(i))


def _k1_candidate_roots(data: ArrangementData, z):
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
        factors = [(data.B[j, 0], z[j]) for j in active if j != i]
        contrib = data.a[i] * data.B[i, 0] * _poly_from_factors(factors)
        poly += contrib
    top = np.max(np.abs(poly))
    if top == 0 or abs(poly[0]) < 1e-12 * top:
        raise DiscriminantError("fiber polynomial degenerates (leading coefficient ~ 0)")
    return np.roots(poly)


def _near_or_flat(data: ArrangementData, z, t, margin: float):
    """Masks over the rows of t (S, k): within ``margin`` of a hyperplane,
    and (nearly) singular Hessian, |det| < 1e-12."""
    fvals = _values(data, z, t)
    # a point too near a hyperplane may overflow here; it is caught as near
    with np.errstate(all="ignore"):
        flat = np.abs(np.linalg.det(_hessians(data, fvals))) < 1e-12
    return np.min(np.abs(fvals), axis=1) < margin, flat


def _k1_fiber(data: ArrangementData, z, scale: float):
    """The rank-1 fiber as (points (S, 1), residuals (S,)): every root of the
    fiber polynomial, refined by one Newton pass in the box ESCAPE_RADIUS
    (1 + max |root|), or DiscriminantError; scale is 1 + max |z_i|.

    Nothing is dropped, so the refusals come in this order: a Newton failure
    (the first failed root, named as a point on a hyperplane when it started
    within 1e-6 scale of one); then the first root that lies within 1e-8 scale
    of an earlier root ("critical points collide"), of a hyperplane, or is
    flat; last, the first residual above 1e-9 scale, so that rule refuses
    only fibers that pass the rest.
    """
    roots = _k1_candidate_roots(data, z)[:, None]
    on_hyperplane = "a critical point lies on (or too near) a hyperplane"
    box = ESCAPE_RADIUS * (1.0 + float(np.max(np.abs(roots))))
    t, res, failures = _newton_refine(data, z, roots, box)
    for s in [s for s, why in enumerate(failures) if why][:1]:
        started_near = np.min(np.abs(_values(data, z, roots[s:s + 1]))) < 1e-6 * scale
        raise DiscriminantError(on_hyperplane if started_near else failures[s])
    margin = 1e-8 * scale
    near, flat = _near_or_flat(data, z, t, margin)
    collide = np.tril(np.abs(t - t.T) < margin, -1).any(axis=1)
    for s in np.flatnonzero(collide | near | flat)[:1]:
        raise DiscriminantError(
            "critical points collide" if collide[s]
            else on_hyperplane if near[s]
            else "degenerate critical point (vanishing Hessian)"
        )
    for s in np.flatnonzero(~(res <= 1e-9 * scale))[:1]:
        raise DiscriminantError(f"Newton refinement did not converge (residual {res[s]:.3e})")
    return t, res


def _cloud_fiber(data: ArrangementData, z, scale: float):
    """The rank >= 2 fiber as (points, residuals), solved from the vertex seed
    cloud in stages, each seed alone bit for bit; scale is 1 + max |z_i|.

    Newton runs on the vertices and midpoints first, in the box ESCAPE_RADIUS
    (1 + max |seed|); only when they give other than ``data.count`` points
    does the centroid tail run in the same box.  A fiber still off count
    reruns the seeds that left the box in FAR_RADIUS scale (never narrower
    than the first box).  After each stage one greedy pass accepts, in seed
    order, every candidate with residual <= 1e-9 scale that is neither
    within 1e-8 scale of a hyperplane or an accepted point nor flat.  So this
    returns what one pass over the whole cloud in each box would, unless the
    tail would add a point beyond a prefix that already has the count.
    """
    candidates, tail = _vertex_seed_cloud(data, z)
    margin = 1e-8 * scale
    box = ESCAPE_RADIUS * (1.0 + float(np.max(np.abs(candidates))))
    t, res = candidates.astype(complex), np.full(len(candidates), np.nan)
    failures = np.full(len(candidates), None)
    for stage in (slice(tail), slice(tail, None), None):
        if stage is None:
            # a seed that stayed in the first box takes the same path in a wider one
            box = max(box, FAR_RADIUS * scale)
            stage = np.flatnonzero(failures == ESCAPED)
        seeds = candidates[stage]
        if not len(seeds):
            continue
        # each seed runs alone bit for bit, so a stage's results merge in seed order
        t[stage], res[stage], failures[stage] = _newton_refine(data, z, seeds, box)
        # NaN fails every comparison, so failed and unsolved seeds (residual NaN),
        # among them every seed that left the box, drop out
        kept = np.flatnonzero(res <= 1e-9 * scale)
        near, flat = _near_or_flat(data, z, t[kept], margin)
        # near and flat candidates are never accepted, so they cannot shadow a
        # later one: accept the first remaining candidate, drop its near copies
        rest, accepted = kept[~(near | flat)], []
        while rest.size:
            accepted.append(rest[0])
            rest = rest[1:][np.max(np.abs(t[rest[1:]] - t[rest[0]]), axis=1) >= margin]
        if len(accepted) == data.count:
            break
    return t[accepted], res[accepted]


def critical_points(data: ArrangementData, z) -> CriticalPointFrame:
    """All fiberwise critical points over z, Newton-refined and validated.

    A family whose count ``data.count`` is 0 has no critical points at all
    and raises PreconditionError.  The fiber comes from ``_k1_fiber`` at
    rank 1 and from ``_cloud_fiber`` at rank >= 2, with scale = 1 + max |z_i|;
    a fiber with other than ``data.count`` points raises DiscriminantError.
    The points are sorted by the real, then the imaginary part of their last
    coordinate.
    """
    if data.count == 0:
        raise PreconditionError(
            "the family has no critical points: the Euler characteristic of the complement is 0"
        )
    z = np.asarray(z, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(z)))
    points, res = (_k1_fiber if data.k == 1 else _cloud_fiber)(data, z, scale)
    if len(points) != data.count:
        raise DiscriminantError(f"found {len(points)} critical points, expected {data.count}")
    order = np.lexsort((points[:, -1].imag, points[:, -1].real))
    points, res = points[order], res[order]
    f = points @ data.B.T + z
    hessians = _hessians(data, f)
    return CriticalPointFrame(
        z=z,
        points=points,
        f=f,
        hessians=hessians,
        det_hess=np.linalg.det(hessians),
        residuals=res,
    )


def structure_from_arrangement(data: ArrangementData, m: int) -> FlatFrameStructure:
    """FlatFrameStructure of order (n, k, 2) whose jets the family evaluates.

    The residue pairing is bilinear, so every ``m`` but 2 raises
    PreconditionError before any solve.  The working frame is the family's
    ``flat_basis``, chosen once on its basepoint fiber (DiscriminantError
    first, then StructureError).  The structure's ``jet`` is the family's
    ``pairing_jets`` and its ``frame_jet`` the family's ``frame_jet``, which
    conjugates Higgs matrices, unit and form into that frame; the fiber under
    a frame jet away from the basepoint is solved afresh, at every rank.
    """
    if m != 2:
        raise PreconditionError(
            f"arrangement families give structures of order (n, k, 2) only, got m={m}"
        )
    return FlatFrameStructure(
        matroid=data.matroid,
        m=m,
        basepoint=data.basepoint,
        mu=len(data.flat_basis),
        jet=data.pairing_jets,
        frame_jet=data.frame_jet,
    )
