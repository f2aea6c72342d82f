"""Flat-frame structures: axiom verification and potential construction.

A FlatFrameStructure gives numerical access to a bundle with commuting Higgs
endomorphisms C_i, a flat m-linear form S, and a unit section, expressed in a
frame of flat sections, through two series evaluators: the Taylor jet of the
pairings S(C_T unit, unit, ..., unit) at the basepoint, and the Taylor jet of
the frame (H, unit, form) at a point z.  A plain value is always the constant
term of one of these jets.  The matroid singles out the index sets I for
which the iterated sections C_I (unit) are flat, i.e. have z-constant
coordinates in the working frame.

``first_kind_polynomial`` builds the homogeneous degree-mk polynomial whose
mixed derivatives along m maximal independent sets reproduce S on the
corresponding flat sections; its coefficients are the constant terms of one
degree-1 pairing jet over the strong mk-systems, and the degree-1 terms
confirm that they are z-constant.  ``second_kind_truncation`` builds the
Taylor table of the second-kind potential: the coefficient of (z-x)^T is
computed from every good decomposition T = T1 + T2 as

    a_T(T1, T2) = (1/T!) * (d^T1 S(C_T2 unit, unit, ..., unit))(x),

the spread, the exact diameter max |a - b| of these candidates, is recorded
(it vanishes for a genuine structure) and their mean, summed left to right,
is stored.  The good decompositions are the splits T = alpha + T2 over the
strong (mk+1)-systems T2, the sums of m bases plus one label, and |alpha| <=
n_max - mk - 1; so the candidates of all T form one grid, member times
monomial of the ``jet`` of g(z) = (S(C_T2 unit, unit, ..., unit)(z)) at x,
which gives every d^alpha g = alpha! [delta^alpha] g in one pass.  Both
potentials, and the checks, take T! from one rule, ``_factorials``: the
exact product over a factorial table, rounded to a float once.

Every value and derivative here is a Taylor coefficient: both potentials read
pairing jets, ``verify_axioms`` the degree-1 frame jet at each sample point
(one stacked ``frame_jet`` call for all samples, in the order given), and
both checks the constant terms of that jet at the basepoint.  The structure
reads that basepoint jet once for the two checks, and keeps the flat
sections that ``verify_axioms`` multiplied out at the basepoint for them
(or multiplies them out once, when it has not run there); it builds the
tuples of bases the checks compare once, and each SeriesSpace once, and
the second kind builds its monomial table once, whose prefix its space
reads.  An arrangement structure takes mu from the family's count, and the
family solves the basepoint fiber by the first call that needs it (for a
benchmark-shaped op, the ``verify_axioms`` stack that holds the basepoint,
in the same stacked pass as the samples' fibers); it computes the
basepoint's frame jet once per degree, by whichever call first needs it
(there, that same stack), so the checks' jet is a lookup, and its pairing
jets read the form of that record with the family's algebra: v_B^T G
H_R(z) v_A for T2 = A + B + R, so on an arrangement the first kind's
degree-1 terms are 0 by construction, the family's screen of the form is
the flatness refusal, and the second kind's spread compares the algebra's
Higgs fields under that form.  No function takes differences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .errors import (
    FlatnessError,
    PreconditionError,
    StructureError,
    WellDefinednessError,
    integer,
    points,
    tolerance,
)
from .matroids import Matroid
from .series import SeriesSpace, graded_lex_exponents, graded_lex_position
from .systems import Context, _check_total


@dataclass
class FlatFrameStructure:
    """Evaluator bundle for a structure of order (n, k, m) with mu-dim fibers.

    Two series evaluators over the monomials of a SeriesSpace give every
    value and every derivative; a plain value is the constant term of a jet:

    * jet(space, members) gives the Taylor coefficients at the basepoint, in
      z - basepoint, of the pairings S(C_T2 unit, unit, ..., unit) for the
      multiplicity tuples T2 in members, as an array (len(members),
      space.size); both potentials need it, and send only the sums of m
      bases and those plus one label (an arrangement family refuses any
      other member with PreconditionError);
    * frame_jet(points, space) gives, for a stack of points (S, n), the
      series at each point z, in the shift from z, of (H, unit, form) in
      the working frame, with a leading point axis: shapes (S, n, mu, mu,
      size), (S, mu, size) and (S,) + (mu,) * m + (size,), H[s, i - 1]
      holding C_i at the s-th point; each row is what a stack of that
      point alone gives.  ``verify_axioms`` needs it, once for all its
      samples, and its degree-1 value at the basepoint alone is the
      structure's ``basepoint_frame``, which both checks read.
      The three parts may come from different sources (an arrangement
      family reads H from its algebra, the unit and form from a fiber), and
      the axioms then compare those sources.

    The structure holds the evaluators, not the data behind them: an
    arrangement structure's jets are methods of its ``ArrangementData``.
    TypeError for a matroid that is not a Matroid, or a jet or frame_jet
    that is not callable.
    """

    matroid: Matroid
    m: int
    basepoint: np.ndarray
    mu: int
    jet: Callable[[SeriesSpace, list], np.ndarray]
    frame_jet: Callable[[np.ndarray, SeriesSpace], tuple]
    _spaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.matroid, Matroid) or not (callable(self.jet) and callable(self.frame_jet)):
            raise TypeError("a flat frame structure takes a Matroid instance and callable jets")
        self.m = integer(self.m, 1, PreconditionError, "need m >= 1, got {!r}")
        self.mu = integer(self.mu, 1, PreconditionError, "need mu >= 1, got {!r}")
        self.basepoint = points([self.basepoint], self.n)[0]

    @property
    def n(self) -> int:
        return self.matroid.ground.n

    @property
    def k(self) -> int:
        return self.matroid.full_rank

    def context(self) -> Context:
        """The structure's one Context, so its bases, base sums and
        strong-decomposition memo are built once."""
        return self._context

    @cached_property
    def _context(self) -> Context:
        return Context(self.matroid, self.m)

    def space(self, q: int) -> SeriesSpace:
        """The SeriesSpace of degree q in n variables, built on first use."""
        if q not in self._spaces:
            self._spaces[q] = SeriesSpace(self.n, q)
        return self._spaces[q]

    @cached_property
    def basepoint_frame(self) -> tuple:
        """The degree-1 ``frame_jet`` (H, unit, form) at the basepoint, a
        stack of one read without its point axis, read once for both
        checks.  An arrangement family records that jet when a stack holding
        the basepoint is first evaluated (``ArrangementData.frame_jet``), so
        after ``verify_axioms`` at the basepoint this is a lookup."""
        return tuple(np.asarray(v, dtype=complex)[0] for v in self.frame_jet(self.basepoint[None], self.space(1)))

    @cached_property
    def basepoint_sections(self) -> np.ndarray:
        """The series of the sections C_I (unit) in ``basepoint_frame``
        (``_flat_sections``), shape (bases, mu, size), for both checks: the
        row that ``verify_axioms`` multiplied out at the basepoint, kept by
        the structure when it has run on samples holding the basepoint (a
        row of ``_flat_sections`` is a one-point call bit for bit), else
        evaluated here once."""
        H, u, _ = self.basepoint_frame
        return _flat_sections(self, H[None], u[None], self.space(1))[0]

    @cached_property
    def _section_tuples(self) -> tuple:
        """What both checks read besides the frame (``_section_defect``),
        built once: the tuples of bases with replacement as m rows of
        positions in ``maximal_independent_sets``, and per check (``higgs``
        False, then True) the multi-index sums alpha of those tuples
        (alpha + e_i for every label i with ``higgs``, labels first) as
        tuples, with their alpha!."""
        tuples = np.array(list(combinations_with_replacement(range(len(self._base_labels)), self.m))).T
        eye = np.eye(self.n, dtype=np.intp)
        alphas = eye[self._base_labels].sum(axis=1)[tuples].sum(axis=0)
        checks = []
        for shifted in (alphas, alphas + eye[:, None, :]):
            shifted = shifted.reshape(-1, self.n)
            checks.append((list(map(tuple, shifted.tolist())), _factorials(shifted).tolist()))
        return tuple(tuples), *checks

    def maximal_independent_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(B)) for B in self.matroid.bases())

    @cached_property
    def _base_labels(self) -> np.ndarray:
        """0-based labels of every maximal independent set, one sorted row
        each (all have size k), built once for ``_flat_sections``."""
        return np.array(self.maximal_independent_sets(), dtype=np.intp) - 1

    def scale(self) -> float:
        return float(np.max(np.abs(self.basepoint))) if self.basepoint.size else 0.0


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
        return {**asdict(self), "max_violation": self.max_violation}


def _flat_sections(F: FlatFrameStructure, H, u, space: SeriesSpace) -> np.ndarray:
    """Series of the sections C_I (unit) in the frames of the series H (S,
    n, mu, mu, size) and u (S, mu, size) of S points, for every maximal
    independent I in the order of ``maximal_independent_sets``: shape (S,
    bases, mu, size).

    C_I (unit) applies H_{i_1}, then H_{i_2}, ... to the unit, so bases
    that share a prefix of their sorted labels share its section: depth d
    makes each distinct prefix (i_1, ..., i_d) from the section of (i_1,
    ..., i_{d-1}), and applies each H_j once, as one ``SeriesSpace.matmul``
    of H_j with the sections of the prefixes that j extends as columns, at
    every point at once.  Each row is that of a one-point call bit for
    bit."""
    labels = F._base_labels
    # sections holds one column per distinct prefix of the current depth, and
    # parent[b] the column of base b's prefix; the bases are sorted, so a new
    # prefix starts wherever the first d + 1 labels change
    sections, parent = u[:, :, None], np.zeros(len(labels), dtype=np.intp)
    for d in range(labels.shape[1]):
        new = np.ones(len(labels), dtype=bool)
        new[1:] = (labels[1:, : d + 1] != labels[:-1, : d + 1]).any(axis=1)
        heads = np.flatnonzero(new)
        nexts = labels[heads, d]  # one product per H_j, over the new prefixes that j extends
        out = np.empty(sections.shape[:2] + (len(heads), space.size), dtype=complex)
        for j in dict.fromkeys(nexts.tolist()):
            out[:, :, nexts == j] = space.matmul(H[:, j], sections[:, :, parent[heads[nexts == j]]])
        sections, parent = out, np.cumsum(new) - 1
    return sections.swapaxes(1, 2)  # at depth k every basis is its own prefix


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
    (e) flatness of the form itself.  All samples take one degree-1
    ``frame_jet`` together, a stack in the order given, and one
    ``_flat_sections`` over its rows.  Over all rows at once, (a) and (c)
    read the constant terms, (b) the first-order coefficients of H, and (d)
    and (e) the first-order coefficients of C_I(unit), multiplied out in
    series, and of the form; (a) and (b) are antisymmetric in their two
    labels, so they read the pairs a < b alone.  Each maximum is that of
    the samples taken one by one.  The sections of the first sample at the
    basepoint are kept as the structure's ``basepoint_sections``.  A
    refusal is the ``frame_jet``'s: for an arrangement structure, that of
    the first sample in the order given whose frame is refused.  Before
    any evaluation, raises PreconditionError for a ``hard_threshold`` that
    is not a number >= 0
    (``errors.tolerance``; None and inf disable the threshold),
    GroundSetError for samples that are not points of n finite coordinates
    (``errors.points``), and PreconditionError for an empty sample list;
    raises StructureError when the worst violation exceeds
    ``hard_threshold`` and, whatever the threshold, when a violation is not
    finite.
    """
    if hard_threshold is not None:
        hard_threshold = tolerance(
            hard_threshold, PreconditionError, "hard_threshold must be None or >= 0, got {!r}", infinite=True
        )
    F = structure
    samples = points(samples, F.n)
    if not len(samples):
        raise PreconditionError("verify_axioms needs at least one sample point")
    space = F.space(1)
    H, u, W = (np.asarray(v, dtype=complex) for v in F.frame_jet(samples, space))
    V = _flat_sections(F, H, u, space)
    at_base = (samples == F.basepoint).all(axis=1)
    if at_base.any():  # the first row at the basepoint is the checks' ``basepoint_sections``
        vars(F).setdefault("basepoint_sections", V[at_base.argmax()].copy())
    H0, W0 = H[..., 0], W[..., 0]
    a, b = np.triu_indices(F.n, 1)
    comm = _worst(0.0, H0[:, a] @ H0[:, b] - H0[:, b] @ H0[:, a])
    # slot[q][s, a] is the form with H_a applied in slot q; the matmul keeps
    # each H_a product's own shape, so its rounding is that of one product
    stack = H0.reshape(H0.shape[:2] + (1,) * (F.m - 2) + H0.shape[2:])
    slot = [np.moveaxis(np.moveaxis(W0, q + 1, -1)[:, None] @ stack, -1, q + 2) for q in range(F.m)]
    invari = 0.0
    for q in range(1, F.m):
        invari = _worst(invari, slot[0] - slot[q])
    d = np.array(space.degree_one, dtype=np.intp)
    report = AxiomReport(
        commutativity=comm,
        integrability=_worst(0.0, H[:, b, :, :, d[a]] - H[:, a, :, :, d[b]]),  # d_a H_b - d_b H_a
        higgs_invariance=invari,
        section_flatness=_worst(0.0, V[..., 1:]),
        form_flatness=_worst(0.0, W[..., 1:]),
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


def _factorials(exps) -> np.ndarray:
    """T! for every row T of the exponent array ``exps`` (..., n): the exact
    product over a factorial table, rounded to a float once, as Python's
    ``complex / int`` rounds the int."""
    exps = np.asarray(exps, dtype=np.intp)
    table = np.array([math.factorial(t) for t in range(int(exps.max(initial=0)) + 1)], dtype=object)
    return np.array(np.prod(table[exps], axis=-1), dtype=float)


def _multi_index(alpha, n: int) -> tuple[int, ...]:
    """alpha as a tuple of n nonnegative ints (``errors.integer``), else
    PreconditionError."""
    alpha = tuple(alpha)
    message = f"need a multi-index of {n} nonnegative integers, got {{!r}}"
    if len(alpha) != n:
        raise PreconditionError(message.format(alpha))
    return tuple(integer(a, 0, PreconditionError, message) for a in alpha)


def _finite_sum(terms, what: str) -> complex:
    """The sum of ``terms``, products of complex numbers, left to right;
    PreconditionError, and no warning, when a term or the sum leaves double
    range (a NaN there is an overflow met by a zero or by its negative)."""
    with np.errstate(all="ignore"):
        total = 0.0 + 0.0j
        for term in terms:
            total += term
    if not np.isfinite(total):
        raise PreconditionError(f"{what} overflows: the point is too large to evaluate")
    return total


def _python_quotient(values: np.ndarray, divisors) -> np.ndarray:
    """values / divisors elementwise, bit for bit as Python's ``complex /
    int`` (Smith's division by the complex (d, 0)), signed zeros included."""
    d = np.asarray(divisors, dtype=float)
    out = np.empty(values.shape, dtype=complex)
    out.real = (values.real + values.imag * 0.0) / d
    out.imag = (values.imag - values.real * 0.0) / d
    return out


@dataclass
class HomogeneousPolynomial:
    """Polynomial sum of c_T z^T with all |T| equal to the degree.
    PreconditionError for an n that is not an integer >= 1 or a degree that
    is not an integer >= 0 (``errors.integer``)."""

    n: int
    degree: int
    coefficients: dict[tuple[int, ...], complex]

    def __post_init__(self):
        self.n = integer(self.n, 1, PreconditionError, "need n >= 1, got {!r}")
        self.degree = integer(self.degree, 0, PreconditionError, "need degree >= 0, got {!r}")

    def coefficient(self, mult) -> complex:
        return self.coefficients.get(_multi_index(mult, self.n), 0.0 + 0.0j)

    def partial_derivative_value(self, alpha, z) -> complex:
        """Exact evaluation of the alpha-th mixed derivative at z;
        PreconditionError when it overflows double range."""
        alpha = _multi_index(alpha, self.n)
        z = points([z], self.n)[0]

        def terms():
            for T, c in self.coefficients.items():
                if any(t < a for t, a in zip(T, alpha)):
                    continue
                term = c
                for t, a, zi in zip(T, alpha, z):
                    term *= math.factorial(t) // math.factorial(t - a)
                    term *= zi ** (t - a)
                yield term

        return _finite_sum(terms(), "the polynomial")

    def evaluate(self, z) -> complex:
        return self.partial_derivative_value((0,) * self.n, z)


def first_kind_polynomial(F: FlatFrameStructure) -> HomogeneousPolynomial:
    """Homogeneous degree-mk polynomial with coefficients S(C_T unit, ...)/T!.

    Coefficients live exactly on the strong mk-systems (sums of m bases); all
    other monomials stay at zero, the gauge in which nothing unconstrained is
    invented.  One degree-1 ``jet`` over those systems gives each coefficient
    as its constant term divided by T!; the sections C_T unit are flat, so
    the degree-1 terms vanish, and one that is not within 1e-7 (1 +
    |coefficient|) after the same division raises FlatnessError for the
    first such T in the order of the base sums.
    """
    ctx = F.context()
    space = F.space(1)
    jets = F.jet(space, ctx.base_sums)
    fact = _factorials(ctx.base_sums)
    values = _python_quotient(jets[:, 0], fact)
    drift = np.abs(jets[:, list(space.degree_one)]).max(axis=1) / fact
    bad = np.flatnonzero(~(drift <= 1e-7 * (1.0 + np.abs(values))))
    if bad.size:
        T, first = ctx.base_sums[bad[0]], drift[bad[0]]
        raise FlatnessError(f"coefficient of {T} varies with z: first-order term {first:.3e}")
    return HomogeneousPolynomial(n=F.n, degree=ctx.m * ctx.k, coefficients=dict(zip(ctx.base_sums, values.tolist())))


def _section_defect(F: FlatFrameStructure, coefficients: dict, higgs: bool) -> float:
    """Worst |alpha! c_alpha - S(C_{I_1} unit, ..., C_{I_m} unit)| over the
    tuples of bases with replacement, alpha their multi-index sum; with
    ``higgs``, alpha + e_i against S(C_i C_{I_1} unit, ...) for every label i.
    The constant terms of the structure's ``basepoint_frame`` give the form,
    contracted once with V = [C_I unit] (``_flat_sections``) in every slot,
    H_i V in the first; the tuples, alphas and alpha! are the structure's
    (``_section_tuples``)."""
    H, _, W = F.basepoint_frame
    V = F.basepoint_sections[..., 0].T
    H, W = H[..., 0], W[..., 0]
    rhs = np.tensordot(W, H @ V if higgs else V, axes=([0], [1 if higgs else 0]))
    for _ in range(F.m - 1):
        rhs = np.tensordot(rhs, V, axes=([0], [0]))
    tuples, *checks = F._section_tuples
    lhs = [coefficients.get(T, 0.0) * f for T, f in zip(*checks[higgs])]
    rhs = rhs[(Ellipsis,) + tuples]
    return float(np.max(np.abs(np.array(lhs, dtype=complex).reshape(rhs.shape) - rhs), initial=0.0))


def check_first_kind(F: FlatFrameStructure, Q: HomogeneousPolynomial) -> float:
    """Worst |d_{I_1}...d_{I_m} Q - S(C_{I_1} unit, ..., C_{I_m} unit)| at
    the basepoint.  Q and d^alpha = d_{I_1}...d_{I_m} both have degree mk, so
    the left side is alpha! c_alpha exactly (``_section_defect``); a Q of
    another degree or number of variables raises PreconditionError."""
    if (Q.n, Q.degree) != (F.n, F.m * F.k):
        raise PreconditionError(f"need a polynomial in {F.n} variables of degree {F.m * F.k}")
    return _section_defect(F, Q.coefficients, higgs=False)


@dataclass(frozen=True)
class CoefficientProvenance:
    """How one Taylor coefficient was obtained."""

    kind: str  # "gauge-zero" | "free-zero" | "averaged"
    candidates: tuple[tuple[tuple[int, ...], tuple[int, ...], complex], ...]
    spread: float
    value: complex


@dataclass(frozen=True)
class _CandidateGrid:
    """The second-kind candidates grouped by T: cell c is the decomposition
    T = alphas[alpha[c]] + members[member[c]] with value values[c], alphas
    the exponent array of the jet's monomials, and
    group g, the cells from starts[g] to the next group's start, holds the
    candidates of the T at ``positions[g]`` in the table, with its spread
    and mean; the first ``gauge`` T of the table are gauge zeros."""

    alphas: np.ndarray
    members: list
    alpha: np.ndarray
    member: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    positions: list
    spreads: np.ndarray
    means: list
    gauge: int


@dataclass
class TruncatedPotential:
    """The Taylor table of a second-kind potential.  ``spread_max`` is
    stored with the table; ``provenance`` is built from the candidate grid
    on first read.  PreconditionError for an n_max that is not an integer
    >= 0 (``errors.integer``)."""

    basepoint: np.ndarray
    n_max: int
    coefficients: dict[tuple[int, ...], complex]
    spread_max: float
    _grid: _CandidateGrid = field(repr=False, compare=False)

    def __post_init__(self):
        self.n_max = integer(self.n_max, 0, PreconditionError, "need n_max >= 0, got {!r}")

    @cached_property
    def provenance(self) -> dict[tuple[int, ...], CoefficientProvenance]:
        """How each coefficient was obtained, in the table's order: gauge
        zeros, free zeros and averages with their candidates (alpha, T2,
        value) in lexicographic order of T2."""
        g = self._grid
        alpha_of = np.fromiter(map(tuple, g.alphas.tolist()), dtype=object, count=len(g.alphas))[g.alpha]
        member_of = np.fromiter(g.members, dtype=object, count=len(g.members))[g.member]
        candidates = tuple(zip(alpha_of, member_of, g.values.tolist()))
        bounds = np.append(g.starts, len(g.values)).tolist()
        table = list(self.coefficients)
        provenance = [CoefficientProvenance("gauge-zero", (), 0.0, 0.0 + 0.0j)] * g.gauge
        provenance += [CoefficientProvenance("free-zero", (), 0.0, 0.0 + 0.0j)] * (len(table) - g.gauge)
        for p, s, e, width, value in zip(g.positions, bounds, bounds[1:], g.spreads.tolist(), g.means):
            provenance[p] = CoefficientProvenance("averaged", candidates[s:e], width, value)
        return dict(zip(table, provenance))

    def coefficient(self, mult) -> complex:
        return self.coefficients.get(_multi_index(mult, len(self.basepoint)), 0.0 + 0.0j)

    def derivative_at_basepoint(self, alpha) -> complex:
        alpha = _multi_index(alpha, len(self.basepoint))
        if sum(alpha) > self.n_max:
            raise PreconditionError("derivative order exceeds the truncation order")
        return self.coefficient(alpha) * float(_factorials(alpha))

    def evaluate(self, z) -> complex:
        """The truncated series at z; PreconditionError when it overflows
        double range."""
        shifted = points([z], len(self.basepoint))[0] - np.asarray(self.basepoint, dtype=complex)

        def terms():
            for T, c in self.coefficients.items():
                term = c
                for t, w in zip(T, shifted):
                    term *= w**t
                yield term

        return _finite_sum(terms(), "the truncated potential")


def second_kind_truncation(
    F: FlatFrameStructure,
    n_max: int,
    spread_tol: float = 1e-6,
) -> TruncatedPotential:
    """Taylor table of the second-kind potential to total degree n_max.

    Coefficients with |T| <= mk, and those whose T has no good decomposition,
    are unconstrained and set to zero.  The members T2 (sums of m bases plus
    one label) times the monomials alpha of one jet of degree n_max - mk - 1
    form the candidate grid: cell (T2, alpha) is d^alpha g[T2] / T! for T =
    alpha + T2, and every good decomposition is one cell.  Per T, the spread
    is the exact diameter and the coefficient the mean summed left to right,
    bit for bit as a per-T loop; a spread above ``spread_tol`` (relative to
    the coefficient size), or NaN, raises WellDefinednessError for the first
    such T in graded lexicographic order.  The values, spreads, means and
    that check are computed here, and ``spread_max`` is stored with the
    table; the per-candidate provenance is built from the grid when
    ``provenance`` is first read.  Before any evaluation, PreconditionError
    is raised for an n_max that is not an integer (``errors.integer``) or is
    below mk + 1 and for a ``spread_tol`` that is not a finite number >= 0
    (``errors.tolerance``); an n_max above MAX_TOTAL
    (``systems._check_total``), or a jet whose product table is too large,
    raises SizeLimitError.
    """
    ctx = F.context()
    mk = ctx.m * ctx.k
    n_max = integer(n_max, None, PreconditionError, "n_max must be an integer, got {!r}")
    if n_max < mk + 1:
        raise PreconditionError(f"n_max must be at least m*k + 1 = {mk + 1}")
    _check_total(n_max)
    spread_tol = tolerance(spread_tol, PreconditionError, "spread_tol must be finite and >= 0, got {!r}")
    n, space = F.n, F.space(n_max - mk - 1)
    # the strong second members T2, lexicographically
    members = sorted({S[:j] + (S[j] + 1,) + S[j + 1:] for S in ctx.base_sums for j in range(n)})
    # every T of degree <= n_max in graded lexicographic order, and T!, built
    # once; the monomials of the jet are the first space.size of them, and
    # its space reads them there
    exps = graded_lex_exponents(n, n_max)
    space._read_prefix(exps)
    table = list(map(tuple, exps.tolist()))
    fact = _factorials(exps)
    # the candidate grid: cell (j, a) is the decomposition T = alpha_a + T2_j,
    # grouped by the position of T in ``table``; a stable sort keeps the
    # members of each T in lexicographic order
    alphas, lattice = space.exponents, np.array(members, dtype=np.intp)
    key = graded_lex_position(
        n, mk + 1 + alphas.sum(axis=1), (lattice[:, v, None] + alphas[:, v] for v in range(n - 1))
    ).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sizes = np.diff(starts, append=len(key))
    j, a = np.divmod(order, space.size)
    values = _python_quotient(F.jet(space, members)[j, a] * fact[a], fact[key])
    # the exact diameter: pass d compares every candidate with the one d
    # places later in its group (d = 0 makes a NaN candidate's spread NaN);
    # the mean adds each group left to right, as Python's sum does
    group = np.repeat(np.arange(len(starts)), sizes)
    spread = np.zeros(len(starts))
    total = np.zeros(len(starts), dtype=complex)
    with np.errstate(invalid="ignore"):  # a NaN is caught by the check below
        for d in range(int(sizes.max())):
            live = sizes > d
            total[live] += values[starts[live] + d]
            same = np.flatnonzero(group[d:] == group[: len(group) - d])
            diff = values[same + d] - values[same]
            np.maximum.at(spread, group[same], np.hypot(diff.real, diff.imag))
        top = np.maximum.reduceat(np.hypot(values.real, values.imag), starts)
        bad = np.flatnonzero(~(spread <= spread_tol * np.maximum(1.0, top)))
    if bad.size:
        T, width = table[key[starts[bad[0]]]], spread[bad[0]]
        raise WellDefinednessError(f"coefficient candidates for {T} disagree by {width:.3e}")
    mean = _python_quotient(total, sizes).tolist()
    positions = key[starts].tolist()
    coefficients = [0.0 + 0.0j] * len(table)
    for p, value in zip(positions, mean):
        coefficients[p] = value
    # the T with |T| <= mk come first; a later T without candidates is a free zero
    grid = _CandidateGrid(
        alphas=alphas, members=members, alpha=a, member=j, values=values, starts=starts,
        positions=positions, spreads=spread, means=mean, gauge=math.comb(n + mk, n),
    )
    return TruncatedPotential(
        basepoint=np.asarray(F.basepoint, dtype=complex),
        n_max=n_max,
        coefficients=dict(zip(table, coefficients)),
        spread_max=float(np.max(spread, initial=0.0)),
        _grid=grid,
    )


def check_second_kind(F: FlatFrameStructure, L: TruncatedPotential) -> float:
    """Worst defect of d_i d_{I_1} ... d_{I_m} L, the coefficient of
    alpha + e_i times (alpha + e_i)!, against S(C_i C_{I_1} unit, C_{I_2}
    unit, ...) in the flat frame at the basepoint (``_section_defect``).
    A table of order n_max below mk + 1 (it then holds none of the
    coefficients checked), or whose basepoint is not the structure's (in
    another number of variables too), raises PreconditionError."""
    mk = F.m * F.k
    if L.n_max < mk + 1 or not np.array_equal(L.basepoint, F.basepoint):
        raise PreconditionError(f"need a table in {F.n} variables of order at least {mk + 1} at the structure's basepoint")
    return _section_defect(F, L.coefficients, higgs=True)
