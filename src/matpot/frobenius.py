"""Flat-frame structures: axiom verification and potential construction.

A FlatFrameStructure gives numerical access to a bundle with commuting Higgs
endomorphisms C_i, a flat m-linear form S, and a unit section, expressed in a
frame of flat sections; all evaluators are plain functions of the base point
z.  The matroid singles out the index sets I for which the iterated sections
C_I (unit) are flat, i.e. have z-constant coordinates in the working frame.

``first_kind_polynomial`` builds the homogeneous degree-mk polynomial whose
mixed derivatives along m maximal independent sets reproduce S on the
corresponding flat sections.  ``second_kind_truncation`` builds the Taylor
table of the second-kind potential: the coefficient of (z-x)^T is computed
from every good decomposition T = T1 + T2 as

    a_T(T1, T2) = (1/T!) * (d^T1 S(C_T2 unit, unit, ..., unit))(x),

the spread across decompositions is recorded (it vanishes for a genuine
structure), and the mean is stored.  The good decompositions of T are the
splits T = alpha + T2 over the strong (mk+1)-systems T2 <= T, so the table is
read off the pairing vector g(z) = (S(C_T2 unit, unit, ..., unit)(z)) over
these strong second members, which by definition are the sums of m bases
plus one label.  The structure's ``jet`` gives the Taylor coefficients of g
at x in one pass, so d^alpha g = alpha! [delta^alpha] g.

Every derivative here is a Taylor coefficient: the second-kind table and
``remainder_swap_residual`` read pairing jets, and ``verify_axioms`` reads
the degree-1 jets of the frame (H, unit, form) that the structure's
``frame_jet`` gives at each sample point.  No function takes differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Any, Callable

import numpy as np

from .errors import (
    FlatnessError,
    PreconditionError,
    SizeLimitError,
    StructureError,
    WellDefinednessError,
)
from .matroids import Matroid
from .series import SeriesSpace
from .systems import MAX_TOTAL, Context, System, _bounded_compositions


@dataclass
class FlatFrameStructure:
    """Evaluator bundle for a structure of order (n, k, m) with mu-dim fibers.

    higgs(i, z) returns the mu x mu matrix of C_i at z (labels are 1-based),
    unit(z) the coordinates of the unit section, form(z) the m-linear form as
    an array of shape (mu,) * m; all in the working frame.  Derivatives come
    from two series evaluators over the monomials of a SeriesSpace:

    * jet(space, members) gives the Taylor coefficients at the basepoint, in
      z - basepoint, of the pairings S(C_T2 unit, unit, ..., unit) for the
      multiplicity tuples T2 in members, as an array (len(members),
      space.size); ``second_kind_truncation`` and ``remainder_swap_residual``
      need it;
    * frame_jet(z, space) gives the series at z, in the shift from z, of
      (H, unit, form) with shapes (n, mu, mu, size), (mu, size) and
      (mu,) * m + (size,); ``verify_axioms`` needs it.
    """

    matroid: Matroid
    m: int
    basepoint: np.ndarray
    mu: int
    higgs: Callable[[int, np.ndarray], np.ndarray]
    unit: Callable[[np.ndarray], np.ndarray]
    form: Callable[[np.ndarray], np.ndarray]
    backend: Any = None
    jet: Callable[[SeriesSpace, list], np.ndarray] | None = None
    frame_jet: Callable[[np.ndarray, SeriesSpace], tuple] | None = None

    def __post_init__(self):
        self.basepoint = np.asarray(self.basepoint, dtype=complex)
        if self.m < 1:
            raise PreconditionError("need m >= 1")

    @property
    def n(self) -> int:
        return self.matroid.ground.n

    @property
    def k(self) -> int:
        return self.matroid.full_rank

    @property
    def order(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.m)

    def context(self) -> Context:
        """The structure's one Context, so its bases, base sums and
        strong-decomposition memo are built once."""
        return self._context

    @cached_property
    def _context(self) -> Context:
        return Context(self.matroid, self.m)

    def maximal_independent_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(B)) for B in self.matroid.bases())

    def scale(self) -> float:
        return float(np.max(np.abs(self.basepoint))) if self.basepoint.size else 0.0


class _EvalCache:
    """Memoizes, per base point z, the higgs/unit/form evaluations."""

    def __init__(self, structure: FlatFrameStructure):
        self.structure = structure
        self._data: dict = {}

    def at(self, z):
        zz = np.asarray(z, dtype=complex)
        key = tuple(zz.tolist())
        hit = self._data.get(key)
        if hit is None:
            F = self.structure
            H = [np.asarray(F.higgs(i, zz), dtype=complex) for i in F.matroid.ground.labels]
            u = np.asarray(F.unit(zz), dtype=complex)
            W = np.asarray(F.form(zz), dtype=complex)
            hit = self._data[key] = (H, u, W)
        return hit


def _contract(form_tensor, vectors):
    out = form_tensor
    for v in vectors:
        out = np.tensordot(out, v, axes=([0], [0]))
    return complex(out)


def _apply_powers(H, mult, vec):
    v = vec
    for j, e in enumerate(mult):
        for _ in range(e):
            v = H[j] @ v
    return v


def _apply_subset(H, labels, vec):
    v = vec
    for i in labels:
        v = H[i - 1] @ v
    return v


def _apply_slot(W, M, slot):
    out = np.tensordot(W, M, axes=([slot], [0]))
    return np.moveaxis(out, -1, slot)


def pairing_with_unit(cache: _EvalCache, t2_mult, z) -> complex:
    """S(C_{T2} unit, unit, ..., unit) evaluated at z."""
    H, u, W = cache.at(z)
    v = _apply_powers(H, t2_mult, u)
    return _contract(W, [v] + [u] * (cache.structure.m - 1))


@dataclass
class AxiomReport:
    commutativity: float
    integrability: float
    higgs_invariance: float
    section_flatness: float
    form_flatness: float
    samples: int

    @property
    def max_violation(self) -> float:
        """The worst of the five measures, NaN if one of them is NaN."""
        return float(np.max([self.commutativity, self.integrability, self.higgs_invariance,
                             self.section_flatness, self.form_flatness]))

    def as_dict(self) -> dict:
        return {
            "commutativity": self.commutativity,
            "integrability": self.integrability,
            "higgs_invariance": self.higgs_invariance,
            "section_flatness": self.section_flatness,
            "form_flatness": self.form_flatness,
            "max_violation": self.max_violation,
            "samples": self.samples,
        }


def _worst(current: float, arr) -> float:
    """max(current, max |arr|), keeping a NaN: a 0/0 difference is no pass."""
    arr = np.asarray(arr)
    return float(np.maximum(current, np.max(np.abs(arr)))) if arr.size else current


def verify_axioms(
    structure: FlatFrameStructure,
    samples,
    hard_threshold: float | None = 1e-3,
) -> AxiomReport:
    """Measure the worst violation of the structure axioms at the samples.

    Reports maxima of (a) Higgs commutators, (b) the integrability defect
    d_i C_j - d_j C_i, (c) the form's Higgs invariance across slots, (d)
    flatness of the sections C_I(unit) for all maximal independent I, and
    (e) flatness of the form itself.  Each sample takes one degree-1
    ``frame_jet``: (a) and (c) read its constant terms, (b) its first-order
    coefficients of H, and (d) and (e) the first-order coefficients of
    C_I(unit), multiplied out in series, and of the form.  Raises
    PreconditionError for an empty sample list and for a structure without
    a ``frame_jet``, both before any evaluation; raises StructureError when
    the worst violation exceeds ``hard_threshold`` and, whatever the
    threshold, when a violation is not finite.
    """
    samples = [np.asarray(z, dtype=complex) for z in samples]
    if not samples:
        raise PreconditionError("verify_axioms needs at least one sample point")
    F = structure
    if F.frame_jet is None:
        raise PreconditionError("verify_axioms needs a structure with a frame_jet")
    n, m = F.n, F.m
    space = SeriesSpace(n, 1)
    # labels of every maximal independent set, one row each (all have size k)
    sets = np.array(F.maximal_independent_sets(), dtype=np.intp) - 1

    comm = integ = invari = sect = formflat = 0.0
    for z in samples:
        H, u, W = (np.asarray(v, dtype=complex) for v in F.frame_jet(z, space))
        H0, W0 = H[..., 0], W[..., 0]
        for a in range(n):
            for b in range(a + 1, n):
                comm = _worst(comm, H0[a] @ H0[b] - H0[b] @ H0[a])
        for a in range(n):
            for q in range(1, m):
                invari = _worst(invari, _apply_slot(W0, H0[a], 0) - _apply_slot(W0, H0[a], q))
        # dH[j, :, :, i] = d_i H_j
        dH = H[..., space.degree_one]
        integ = _worst(integ, dH - np.swapaxes(dH, 0, 3))
        sections = np.broadcast_to(u, (len(sets),) + u.shape)
        for col in sets.T:
            sections = space.mul(H[col], sections[:, None, :, :]).sum(axis=2)
        sect = _worst(sect, sections[..., 1:])
        formflat = _worst(formflat, W[..., 1:])
    report = AxiomReport(
        commutativity=comm,
        integrability=integ,
        higgs_invariance=invari,
        section_flatness=sect,
        form_flatness=formflat,
        samples=len(samples),
    )
    if not math.isfinite(report.max_violation):
        err = StructureError("an axiom violation is not finite")
    elif hard_threshold is not None and report.max_violation > hard_threshold:
        err = StructureError(
            f"axiom violation {report.max_violation:.3e} exceeds hard threshold {hard_threshold:.3e}"
        )
    else:
        return report
    err.report = report
    raise err


def _factorial_multi(mult) -> int:
    out = 1
    for v in mult:
        out *= math.factorial(v)
    return out


def _multi_index(alpha, n: int) -> tuple[int, ...]:
    """alpha as a tuple of n nonnegative ints, else PreconditionError."""
    alpha = tuple(alpha)
    if len(alpha) != n or any(
        isinstance(a, bool) or not isinstance(a, (int, np.integer)) or a < 0 for a in alpha
    ):
        raise PreconditionError(f"need a multi-index of {n} nonnegative integers, got {alpha!r}")
    return tuple(int(a) for a in alpha)


def _point(z, n: int) -> np.ndarray:
    """z as a complex vector of length n, else PreconditionError."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (n,):
        raise PreconditionError(f"need a point with {n} coordinates, got shape {z.shape}")
    return z


@dataclass
class HomogeneousPolynomial:
    """Polynomial sum of c_T z^T with all |T| equal to the degree."""

    n: int
    degree: int
    coefficients: dict[tuple[int, ...], complex]

    def coefficient(self, mult) -> complex:
        return self.coefficients.get(_multi_index(mult, self.n), 0.0 + 0.0j)

    def partial_derivative_value(self, alpha, z) -> complex:
        """Exact evaluation of the alpha-th mixed derivative at z."""
        alpha = _multi_index(alpha, self.n)
        z = _point(z, self.n)
        total = 0.0 + 0.0j
        for T, c in self.coefficients.items():
            if any(t < a for t, a in zip(T, alpha)):
                continue
            term = c
            for t, a, zi in zip(T, alpha, z):
                term *= math.factorial(t) // math.factorial(t - a)
                term *= zi ** (t - a)
            total += term
        return total

    def evaluate(self, z) -> complex:
        return self.partial_derivative_value((0,) * self.n, z)


def first_kind_polynomial(F: FlatFrameStructure) -> HomogeneousPolynomial:
    """Homogeneous degree-mk polynomial with coefficients S(C_T unit, ...)/T!.

    Coefficients live exactly on the strong mk-systems (sums of m bases); all
    other monomials stay at zero, the gauge in which nothing unconstrained is
    invented.  Values are taken at the basepoint and re-sampled at two nearby
    points to confirm they are constants; a relative disagreement above 1e-7
    raises FlatnessError.
    """
    x = F.basepoint
    s = 0.05 * (1.0 + F.scale())
    first = x.copy()
    first[0] += s
    second = x + s * 0.6 * np.array(
        [1.0 if i % 2 == 0 else -1.0 for i in range(F.n)], dtype=complex
    )
    cache = _EvalCache(F)
    ctx = F.context()
    coeffs: dict[tuple[int, ...], complex] = {}
    for T in ctx.base_sums:
        fact = _factorial_multi(T)
        base_val = pairing_with_unit(cache, T, x) / fact
        for z in (first, second):
            other = pairing_with_unit(cache, T, z) / fact
            if abs(other - base_val) > 1e-7 * (1.0 + abs(base_val)):
                raise FlatnessError(
                    f"coefficient of {T} varies with z: {base_val} vs {other}"
                )
        coeffs[T] = base_val
    return HomogeneousPolynomial(n=F.n, degree=ctx.m * ctx.k, coefficients=coeffs)


def check_first_kind(F: FlatFrameStructure, Q: HomogeneousPolynomial) -> float:
    """Worst |d_{I_1}...d_{I_m} Q - S(C_{I_1} unit, ..., C_{I_m} unit)|.

    The left side is evaluated by exact differentiation of the polynomial,
    the right by direct evaluation at the basepoint.
    """
    cache = _EvalCache(F)
    H, u, W = cache.at(F.basepoint)
    worst = 0.0
    for tup in combinations_with_replacement(F.maximal_independent_sets(), F.m):
        alpha = [0] * F.n
        for I in tup:
            for i in I:
                alpha[i - 1] += 1
        lhs = Q.partial_derivative_value(alpha, F.basepoint)
        vectors = [_apply_subset(H, I, u) for I in tup]
        rhs = _contract(W, vectors)
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class CoefficientProvenance:
    """How one Taylor coefficient was obtained."""

    kind: str  # "gauge-zero" | "free-zero" | "averaged"
    candidates: tuple[tuple[tuple[int, ...], tuple[int, ...], complex], ...]
    spread: float
    value: complex


@dataclass
class TruncatedPotential:
    basepoint: np.ndarray
    n_max: int
    coefficients: dict[tuple[int, ...], complex]
    provenance: dict[tuple[int, ...], CoefficientProvenance] = field(repr=False)

    @property
    def spread_max(self) -> float:
        spreads = [p.spread for p in self.provenance.values()]
        return max(spreads) if spreads else 0.0

    def coefficient(self, mult) -> complex:
        return self.coefficients.get(_multi_index(mult, len(self.basepoint)), 0.0 + 0.0j)

    def derivative_at_basepoint(self, alpha) -> complex:
        alpha = _multi_index(alpha, len(self.basepoint))
        if sum(alpha) > self.n_max:
            raise PreconditionError("derivative order exceeds the truncation order")
        return self.coefficient(alpha) * _factorial_multi(alpha)

    def evaluate(self, z) -> complex:
        shifted = _point(z, len(self.basepoint)) - np.asarray(self.basepoint, dtype=complex)
        total = 0.0 + 0.0j
        for T, c in self.coefficients.items():
            term = c
            for t, w in zip(T, shifted):
                term *= w**t
            total += term
        return total


def second_kind_truncation(
    F: FlatFrameStructure,
    n_max: int,
    spread_tol: float = 1e-6,
) -> TruncatedPotential:
    """Taylor table of the second-kind potential to total degree n_max.

    Coefficients with |T| <= mk, and those whose T has no good decomposition,
    are unconstrained and set to zero.  Every other coefficient is computed
    once per good decomposition T = alpha + T2 as d^alpha g[T2] / T! and
    averaged; a spread above ``spread_tol`` (relative to the coefficient
    size) raises WellDefinednessError.  The second members T2 are the sums
    of m bases plus one label (``Context.base_sums``), and every d^alpha g
    comes from one jet of degree n_max - mk - 1 at the basepoint.  Before
    any evaluation, PreconditionError is raised for an n_max that is not an
    integer or below mk + 1, for a ``spread_tol`` that is negative or not
    finite and for a structure without a ``jet``; an n_max above MAX_TOTAL,
    or a jet whose product table is too large, raises SizeLimitError.
    """
    ctx = F.context()
    mk = ctx.m * ctx.k
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise PreconditionError(f"n_max must be an integer, got {n_max!r}")
    if n_max < mk + 1:
        raise PreconditionError(f"n_max must be at least m*k + 1 = {mk + 1}")
    if n_max > MAX_TOTAL:
        raise SizeLimitError(f"good-decomposition enumeration limited to |T| <= {MAX_TOTAL}")
    if not (math.isfinite(spread_tol) and spread_tol >= 0):
        raise PreconditionError(f"spread_tol must be finite and >= 0, got {spread_tol!r}")
    if F.jet is None:
        raise PreconditionError("the second-kind table needs a structure with a jet")
    space = SeriesSpace(F.n, n_max - mk - 1)
    # the strong second members T2, lexicographically
    members = sorted({S[:j] + (S[j] + 1,) + S[j + 1:] for S in ctx.base_sums for j in range(F.n)})
    lattice = np.array(members, dtype=np.int64)
    jets = F.jet(space, members)
    coefficients: dict[tuple[int, ...], complex] = {}
    provenance: dict[tuple[int, ...], CoefficientProvenance] = {}
    for t in range(mk + 1):
        for T in _bounded_compositions(t, (t,) * F.n):
            coefficients[T] = 0.0 + 0.0j
            provenance[T] = CoefficientProvenance("gauge-zero", (), 0.0, 0.0 + 0.0j)
    # alpha -> (alpha, d^alpha g over the members, as Python complex); the
    # candidates of every T share the stored alpha tuple
    derivatives: dict[tuple[int, ...], tuple] = {}
    for t in range(mk + 1, n_max + 1):
        for T in _bounded_compositions(t, (t,) * F.n):
            fact = _factorial_multi(T)
            candidates = []
            for j in np.flatnonzero((lattice <= T).all(axis=1)).tolist():
                t2 = members[j]
                alpha = tuple(b - a for a, b in zip(t2, T))
                hit = derivatives.get(alpha)
                if hit is None:
                    d_alpha = jets[:, space.index[alpha]] * float(_factorial_multi(alpha))
                    hit = derivatives[alpha] = (alpha, d_alpha.tolist())
                candidates.append((hit[0], t2, hit[1][j] / fact))
            if not candidates:
                coefficients[T] = 0.0 + 0.0j
                provenance[T] = CoefficientProvenance("free-zero", (), 0.0, 0.0 + 0.0j)
                continue
            values = [c[2] for c in candidates]
            spread = max(
                (abs(a - b) for a in values for b in values), default=0.0
            )
            top = max(abs(v) for v in values)
            if spread > spread_tol * max(1.0, top):
                raise WellDefinednessError(
                    f"coefficient candidates for {T} disagree by {spread:.3e}"
                )
            coefficients[T] = sum(values) / len(values)
            provenance[T] = CoefficientProvenance(
                "averaged", tuple(candidates), spread, coefficients[T]
            )
    return TruncatedPotential(
        basepoint=np.asarray(F.basepoint, dtype=complex),
        n_max=n_max,
        coefficients=coefficients,
        provenance=provenance,
    )


def check_second_kind(F: FlatFrameStructure, L: TruncatedPotential) -> float:
    """Worst defect of d_i d_{I_1} ... d_{I_m} L against the direct evaluation
    S(C_i C_{I_1} unit, C_{I_2} unit, ...) at the basepoint."""
    cache = _EvalCache(F)
    H, u, W = cache.at(F.basepoint)
    worst = 0.0
    for i in F.matroid.ground.labels:
        for tup in combinations_with_replacement(F.maximal_independent_sets(), F.m):
            alpha = [0] * F.n
            alpha[i - 1] += 1
            for I in tup:
                for j in I:
                    alpha[j - 1] += 1
            lhs = L.derivative_at_basepoint(alpha)
            vectors = [_apply_subset(H, I, u) for I in tup]
            vectors[0] = H[i - 1] @ vectors[0]
            rhs = _contract(W, vectors)
            worst = max(worst, abs(lhs - rhs))
    return worst


def remainder_swap_residual(
    F: FlatFrameStructure,
    T2: System,
    a: int,
    b: int,
) -> float:
    """|d_b S(C_{T2} unit, ...) - d_a S(C_{S2} unit, ...)| at the basepoint,
    where S2 swaps one unit of a for one of b in T2.

    Requires T2 to be strong with remainder [a]; then S2 = T2 + [b] - [a] is
    strong with remainder [b] and both derivatives must agree: this is the
    atomic exchange that makes the second-kind coefficients well defined.
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
    if F.jet is None:
        raise PreconditionError("remainder_swap_residual needs a structure with a jet")
    space = SeriesSpace(F.n, 1)
    jets = F.jet(space, [T2.mult, S2.mult])
    return float(abs(jets[0, space.degree_one[b - 1]] - jets[1, space.degree_one[a - 1]]))
