import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

import matpot.arrangements
import matpot.frobenius
from matpot import (
    ArrangementData,
    DiscriminantError,
    GroundSetError,
    LinearMatroid,
    PreconditionError,
    RankError,
    SizeLimitError,
    StructureError,
    UniformMatroid,
    critical_points,
    structure_from_arrangement,
    vector_matroid,
    verify_axioms,
)

from matpot.arrangements import (
    ESCAPE_RADIUS,
    NO_CRITICAL_POINTS,
    _accept,
    _eigen_candidates,
    _fibers,
    _newton_refine,
)
from matpot.series import SeriesSpace
from oracles import (
    discriminant_probe,
    elimination_algebra,
    euler_count,
    fiber_frame_jet,
    fix2_hess,
    fix2_p,
    fix2_pair_unit,
    fix2_point,
    frame_values,
    greedy_flat_basis,
    internally_passive_bases,
    jacobi_det,
    k1_polynomial_roots,
    plain_frame,
    point_axiom_report,
    point_eigen_candidates,
    point_frame_jet,
    richardson_frame_derivatives,
    scalar_newton_refine,
    track_fiber,
    whole_batch_flat_sections,
)


def test_vector_matroid_examples():
    M = vector_matroid([(1,), (1,)])
    assert M.bases() == UniformMatroid(1, 2).bases()
    M2 = vector_matroid([(1, 0), (0, 1), (1, 1)])
    assert [sorted(B) for B in M2.bases()] == [[1, 2], [1, 3], [2, 3]]
    M3 = vector_matroid([(0,), (1,)])
    assert not M3.is_independent({1})  # zero row is a loop


def test_vector_matroid_rank_error():
    with pytest.raises(RankError):
        vector_matroid([(1, 0), (2, 0)])


def test_arrangement_validation():
    with pytest.raises(PreconditionError):
        ArrangementData([(1,)], (1,), (0,))  # k == n
    with pytest.raises(GroundSetError):
        ArrangementData([(1,), (1,)], (1, 0), (0, 1))  # zero weight
    with pytest.raises(GroundSetError):
        ArrangementData([(1,), (1,)], (1,), (0, 1))  # wrong weight count
    for x in ((float("nan"), -1), (1, complex(0, float("inf")))):
        with pytest.raises(GroundSetError, match="finite"):
            ArrangementData([(1,), (1,)], (1, 1), x)  # non-finite basepoint


@pytest.mark.parametrize("z, message", [
    ([1, 2], "basepoint must have 3 coordinates"),
    ([float("nan"), 1, 2], "basepoint coordinates must be finite"),
    ([np.zeros(3), np.zeros((3, 3))], "basepoint must have 3 coordinates"),  # nested unevenly
])
def test_higgs_refuses_a_point_as_critical_points_does(z, message):
    # a point of the wrong length or with a non-finite coordinate gets the
    # ground-set refusal of the fiber solve, not numpy's ValueError or the
    # overflow screen of f_S
    data = ArrangementData([(1,), (2,), (1,)], (1, 1, 1), (0.5, -1.0, 2.0))
    for call in (data.higgs, functools.partial(critical_points, data)):
        with pytest.raises(GroundSetError) as info:
            call(z)
        assert str(info.value) == message


def test_critical_point_closed_form(fixture_data):
    for z in [(1, -1), (2.5, 0.5), (0.3 + 0.2j, -1.1)]:
        frame = critical_points(fixture_data, z)
        assert frame.mu == 1
        assert abs(frame.points[0, 0] - fix2_point(z)) < 1e-12
        assert abs(frame.det_hess[0] - fix2_hess(np.asarray(z, dtype=complex))) < 1e-10
        assert frame.residuals.max() <= 1e-12


def _rank2_data():
    """Rank-2 instance with mu = 8: two parallel rows, one pair of equal rows."""
    return ArrangementData(
        [(-1, -1), (0, 1), (0, 1), (2, 3), (1, 2), (-3, -3)],
        [2, 3, 3, 3, 3, 1],
        [-0.1 + 0.2j, 1.8 + 0.1j, 0.3 - 0.2j, -1.6 + 0.2j, 1.6 + 0.2j, 0.8],
    )


def test_k_ge_2_drops_non_finite_newton_results():
    data = _rank2_data()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither the eigen solve nor Newton may warn
        frame = critical_points(data, data.basepoint)
    assert frame.mu == 8
    assert np.isfinite(frame.points).all() and np.isfinite(frame.residuals).all()


def test_strict_mode_rejects_non_finite_newton_result(fixture_data, monkeypatch):
    def diverged(data, z, seeds, box):
        S = len(seeds)
        return np.full((S, 1), complex("nan")), np.full(S, np.nan), [None] * S

    monkeypatch.setattr(matpot.arrangements, "_newton_refine", diverged)
    with pytest.raises(DiscriminantError):
        critical_points(fixture_data, (1, -1))


def test_coincident_hyperplanes_are_refused_before_newton(monkeypatch):
    # hyperplanes 3 and 4 coincide, so the basepoint lies on the
    # discriminant: f_S = 0 for S = {3, 4}, and H is not finite
    def unreachable(*args):
        raise AssertionError("Newton ran on a fiber with f_S = 0")

    monkeypatch.setattr(matpot.arrangements, "_newton_refine", unreachable)
    data = ArrangementData([(Fraction(1, 3),), (-1,), (1,), (1,)], (-1, 1, 3, -2), (0.5, -1, 2, 2))
    with pytest.raises(DiscriminantError) as info:
        critical_points(data, data.basepoint)
    assert str(info.value) == "hyperplanes 3, 4 pass through one point (f_S = 0)"


def test_pinv_of_b_is_taken_once_per_family(monkeypatch):
    # B is fixed per family: the basepoint fiber and two sample fibers share
    # one pseudo-inverse, and their points are those of a fresh pinv each
    calls = []
    real = np.linalg.pinv

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    B, a, x = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)], (1, 2, 3, 1, 2), (0.3, -1.1, 0.9, -0.2, 0.7)
    zs = [np.array(x) + 0.05 * np.array([1, -2, 3, -1, 2]) * s for s in (1, 2)]
    expected = [critical_points(ArrangementData(B, a, x), z).points for z in zs]
    monkeypatch.setattr(np.linalg, "pinv", counting)
    data = ArrangementData(B, a, x)
    frames = [data.base_frame] + [critical_points(data, z) for z in zs]
    assert calls == [(5, 2)]
    for frame, points in zip(frames[1:], expected):
        assert np.array_equal(frame.points, points)


# B = (1, 1, 1), a = (1, 1, 1): at x_3 = e^{i pi / 3} the fiber polynomial
# 3 t^2 + 2 (1 + x_3) t + x_3 is a square, a double critical point at
# t = -(1 + x_3) / 3, 0.58 from every hyperplane (t = 0, -1, -x_3)
_DOUBLE_POINT = ArrangementData([(1,), (1,), (1,)], (1, 1, 1), (0, 1, 0.5 + 0.8660254037844386j))
_DOUBLE = -(1 + _DOUBLE_POINT.basepoint[2]) / 3
_ON_HYPERPLANE = "a critical point lies on (or too near) a hyperplane"
_ESCAPED = "Newton iterate left for infinity"
_SINGULAR = "degenerate Hessian during Newton refinement"


def test_k1_double_critical_point_is_refused_as_a_collision():
    # both roots of the square converge to the one double point
    with pytest.raises(DiscriminantError, match="^critical points collide$"):
        critical_points(_DOUBLE_POINT, _DOUBLE_POINT.basepoint)


@pytest.mark.parametrize(
    "roots, residuals, failures, message",
    [
        # a root at the double point is flat (|det Hess| 4.4e-16)
        ([_DOUBLE, 5], None, None, "degenerate critical point (vanishing Hessian)"),
        ([1e-9, 5], None, None, _ON_HYPERPLANE),
        # a Newton failure beats a collision; the first failed root is named
        ([5, 5], None, [None, _ESCAPED], _ESCAPED),
        ([5, 7], None, [_SINGULAR, _ESCAPED], _SINGULAR),
        # ... as a hyperplane when its root started within 1e-6 (1 + max |z|) of one
        ([5, 1e-7], None, [None, _ESCAPED], _ON_HYPERPLANE),
        # the first root that collides, is near or is flat is refused for it
        ([5, _DOUBLE, 5], None, None, "degenerate critical point (vanishing Hessian)"),
        ([5, 5, 1e-9], None, None, "critical points collide"),
        # a root that collides and is near is refused as a collision
        ([2.5e-8, 1.5e-8], None, None, "critical points collide"),
        # the residual rule comes last
        ([_DOUBLE, 5], [1.0, 0.0], None, "degenerate critical point (vanishing Hessian)"),
        ([5, 7], [0.0, 1.0], None, "Newton refinement did not converge (residual 1.000e+00)"),
    ],
)
def test_k1_refusals_and_their_precedence(monkeypatch, roots, residuals, failures, message):
    # Newton hands back its roots unchanged, with the given residuals (0
    # by default) and failures (none by default)
    def refine(data, z, seeds, box):
        S = len(seeds)
        res = np.array(residuals if residuals is not None else [0.0] * S)
        return np.array(seeds, dtype=complex), res, list(failures or [None] * S)

    monkeypatch.setattr(matpot.arrangements, "_eigen_candidates", lambda data, z: np.array(roots, dtype=complex)[:, None])
    monkeypatch.setattr(matpot.arrangements, "_newton_refine", refine)
    with pytest.raises(DiscriminantError) as info:
        critical_points(_DOUBLE_POINT, _DOUBLE_POINT.basepoint)
    assert str(info.value) == message


def _draw_k2_instance(rng, n):
    """Rank-2 family shaped like the benchmark's: integer B in [-3, 3] with
    no zero row, weights 1-4, complex basepoint."""
    while True:
        B = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        if all(any(r) for r in B) and any(p * s != q * r for (p, q), (r, s) in zip(B, B[1:])):
            break
    a = [rng.randint(1, 4) for _ in range(n)]
    x = [complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-0.3, 0.3), 3)) for _ in range(n)]
    return ArrangementData(B, a, x)


def _scalar_outcomes(data, z, seeds, box):
    """(t, residual, failure message) of the one-seed reference per seed."""
    out = []
    for seed in seeds:
        try:
            with np.errstate(all="ignore"):
                t, res = scalar_newton_refine(data, z, seed, box)
        except DiscriminantError as exc:
            out.append((None, None, str(exc)))
        else:
            out.append((t, res, None))
    return out


def test_batched_newton_matches_scalar_reference(random_k1_instances):
    rng = random.Random(4711)
    item4 = _rank2_data()
    cases = [
        (item4, item4.basepoint + offset)
        for offset in (0, np.array([0.011, -0.007j, 0.004, 0.009j, -0.013, 0.006]))
    ]
    for n in (4, 4, 5, 5, 6, 6):
        data = _draw_k2_instance(rng, n)
        cases.append((data, data.basepoint))
    cases += [(data, data.basepoint) for data in random_k1_instances]
    cases = [(data, z, _eigen_candidates(data, np.asarray(z)[None])) for data, z in cases]
    # each fiber in the box critical_points puts around its own candidates
    cases = [(data, z, seeds, ESCAPE_RADIUS * (1.0 + np.max(np.abs(seeds)))) for data, z, seeds in cases]
    # f = (t + 1, t - 1) with weights (1, -1): the Hessian 4t / (t^2 - 1)^2
    # vanishes exactly at t = 0, and t = -1 lies on a hyperplane
    odd = ArrangementData([(1,), (1,)], (1, -1), (1, -1))
    odd_seeds = np.array([[0.0], [-1.0], [complex("nan")], [0.5], [2.0 + 1j]])
    # on f_2 = t_2 + z_2 = 0 exactly; a far seed that stays outside the box
    item4_seeds = np.array([[0.3, -item4.basepoint[1]], [1e42, 1j], [0.1, 0.2]])
    # (the box of the item-4 fiber's candidates, and 2 ESCAPE_RADIUS around the poles +-1)
    cases += [(odd, odd.basepoint, odd_seeds, 2 * ESCAPE_RADIUS), (item4, item4.basepoint, item4_seeds, cases[0][3])]

    singular = "degenerate Hessian during Newton refinement"
    collided = "critical point collided with a hyperplane"
    escaped = "Newton iterate left for infinity"
    for data, z, seeds, box in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, res, failures = _newton_refine(data, z, seeds, box)
        assert t.shape == (len(seeds), data.k) and res.shape == (len(seeds),)
        for s, (t0, res0, why) in enumerate(_scalar_outcomes(data, z, seeds, box)):
            assert failures[s] == why
            if why is None:
                assert np.array_equal(t[s], t0, equal_nan=True)
                assert res[s] == res0 or (np.isnan(res[s]) and np.isnan(res0))
        # a NaN iterate fails the box test too
        if seeds is odd_seeds:
            assert failures[:3] == [singular, collided, escaped] and np.isnan(t[2]).all()
        if seeds is item4_seeds:
            assert failures[:2] == [collided, escaped]


def _gradient_residual(data, z, points):
    f = points @ data.B.T + np.asarray(z)[None, :]
    return np.max(np.abs((data.a[None, :] / f) @ data.B))


def test_critical_point_count_matches_euler_characteristic():
    # for positive weights and a generic fiber the master function has
    # |chi(complement)| nondegenerate critical points, and the eigen solve
    # finds all of them on every instance; on instance 35, where a seed
    # cloud found 7 of 8, they are the reference tracker's points from the
    # fiber over Re z
    rng = random.Random(2718)
    short = {}
    for idx in range(42):
        data = _draw_k2_instance(rng, 4 + idx % 3)
        count = euler_count(data.matroid, 2)
        scale = 1.0 + float(np.max(np.abs(data.basepoint)))
        try:
            frame = critical_points(data, data.basepoint)
        except DiscriminantError as exc:
            short[idx] = str(exc)
            continue
        assert frame.mu == count
        assert _gradient_residual(data, data.basepoint, frame.points) <= 1e-9 * scale
        if idx == 35:
            tracked = track_fiber(data, critical_points(data, data.basepoint.real), data.basepoint)
            gaps = np.max(np.abs(tracked[:, None] - frame.points[None]), axis=2)
            assert gaps.min(axis=1).max() <= 1e-9 and len(set(gaps.argmin(axis=1).tolist())) == count
    assert short == {}


def _special_families():
    """Zero rows (loops), parallel rows, k = 1 and k = 3; counts 1, 2, 0, 2, 0, 3."""
    return [
        ArrangementData([(0, 0), (1, 0), (0, 1), (1, 1)], (1, 2, 3, 1), (0.3, -0.5, 0.9, 1.4)),
        ArrangementData([(1, 0), (2, 0), (-1, 0), (0, 1), (0, 3)], (1, 2, 3, 1, 2), (0.3, -0.5, 0.9, 1.4, 0.2)),
        ArrangementData([(1, 0), (1, 0), (2, 0), (0, 1)], (1, 1, 1, 1), (0.3, -0.5, 0.9, 1.4)),
        ArrangementData([(1,), (0,), (3,), (Fraction(1, 2),)], (1, 2, 3, 1), (0.3, -0.5, 0.9, 1.4)),
        ArrangementData([(1,), (0,)], (1, 2), (0.3, -0.5)),
        ArrangementData(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (2, 2, 0), (0, 0, 0)],
            (1, 2, 3, 1, 2, 3, 1),
            (0.3, -0.5, 0.9, 1.4, 0.2, -0.7, 1.1),
        ),
    ]


def test_count_matches_euler_oracle():
    # the package's count against the subset enumeration, on the sweep's
    # draws, zero rows (loops), parallel rows, k = 1 and k = 3
    rng = random.Random(2718)
    cases = [_draw_k2_instance(rng, 4 + idx % 3) for idx in range(42)]
    cases += _special_families()
    counts = [data.count for data in cases]
    assert counts == [euler_count(data.matroid, data.k) for data in cases]
    assert counts[42:] == [1, 2, 0, 2, 0, 3]
    # the exact quotient of the bases by the constant relations has the
    # count as its dimension, zero-count families included
    assert [len(data.algebra.basis) for data in cases] == counts


@pytest.mark.parametrize(
    "rows",
    [[(1,), (0,)], [(1, 0), (1, 0), (2, 0), (0, 1)]],
)
def test_count_zero_family_is_a_precondition_error(rows):
    # one hyperplane in the fiber variable (k = 1), or all lines but one
    # parallel (k = 2): the generic fiber is empty, at every z, and H(z) is
    # refused with the same message
    data = ArrangementData(rows, [1] * len(rows), [0.3 + 0.1j, -0.5, 0.9, 1.4][: len(rows)])
    assert data.count == 0
    for z in (data.basepoint, data.basepoint + 0.17j):
        for solve in (critical_points, ArrangementData.higgs):
            with pytest.raises(PreconditionError, match="Euler characteristic") as refusal:
                solve(data, z)
            assert str(refusal.value) == NO_CRITICAL_POINTS
    with pytest.raises(PreconditionError):
        structure_from_arrangement(data, 2)


# n = k + 1, count 1: the one critical point has a closed form
_COUNT_ONE = [
    ArrangementData(
        [(2, Fraction(-1, 3)), (3, -2), (Fraction(1, 2), Fraction(1, 2))],
        (4, Fraction(1, 2), -1),
        (0.743, -1.779, -1.011 - 0.349j),
    ),
    ArrangementData(
        [(3, Fraction(1, 2), 1), (2, Fraction(3, 2), 2), (-3, 0, 1), (Fraction(3, 2), -1, 1)],
        (2, Fraction(1, 2), Fraction(1, 2), 2),
        (-1.814 + 0.358j, -0.842 - 0.356j, -1.529 - 0.192j, 1.265 - 0.319j),
    ),
]


@pytest.mark.parametrize("data", _COUNT_ONE)
def test_count_one_fiber_seeds_its_closed_form_point(data):
    # B^T (a / f) = 0 puts a / f on the cofactor vector c, and c . f = c . z,
    # so f_i = a_i (c . z) / (c_i sum a); the eigen solve finds that point
    # with no seed
    z = data.basepoint
    c = np.array([(-1) ** i * np.linalg.det(np.delete(data.B, i, axis=0)) for i in range(data.n)])
    f = data.a * (c @ z) / (c * data.a.sum())
    point = np.linalg.lstsq(data.B, f - z, rcond=None)[0]
    assert np.max(np.abs(data.B.T @ (data.a / f))) <= 1e-12
    frame = critical_points(data, z)
    assert frame.mu == data.count == 1
    assert frame.residuals.max() <= 1e-12
    assert np.max(np.abs(frame.points[0] - point)) <= 1e-12


def test_count_one_fiber_with_balanced_weights_is_near_discriminant(monkeypatch):
    # sum a = 0: a / f on the left kernel of B meets c . f = c . z nowhere,
    # so the fiber is empty and is refused for its weights before any Newton
    def unreachable(*args):
        raise AssertionError("Newton ran on a balanced count-1 fiber")

    monkeypatch.setattr(matpot.arrangements, "_newton_refine", unreachable)
    data = ArrangementData(_COUNT_ONE[0].matrix, (4, Fraction(1, 2), Fraction(-9, 2)), _COUNT_ONE[0].basepoint)
    with pytest.raises(DiscriminantError, match="weights are balanced"):
        critical_points(data, data.basepoint)


@pytest.mark.parametrize(
    "rows, weights",
    [
        # the exact weights of the rows with b != 0 sum to 0 (the zero row's 5 is not counted)
        ([(1,), (0,), (2,), (1,)], (1, 5, 2, -3)),
        # float weights whose sum is exactly 0
        ([(1,), (2,), (1,)], (1.0, 2.0, -3.0)),
    ],
)
def test_k1_balanced_weights_are_refused_before_newton(monkeypatch, rows, weights):
    # sum a = 0 sends one of the n' - 1 critical points to infinity
    def unreachable(*args):
        raise AssertionError("Newton ran on a balanced rank-1 fiber")

    monkeypatch.setattr(matpot.arrangements, "_newton_refine", unreachable)
    data = ArrangementData(rows, weights, (0.3, -1.1, 0.9, -0.2)[: len(rows)])
    with pytest.raises(DiscriminantError, match="^weights are balanced"):
        critical_points(data, data.basepoint)


def test_balanced_weights_are_decided_once_per_family(monkeypatch):
    # every fiber solve refuses balanced weights first, but the sum of the
    # exact weights is taken once per family, not once per solve
    decided = []
    real = ArrangementData._balanced.func

    def deciding(self):
        decided.append(self)
        return real(self)

    balanced = functools.cached_property(deciding)
    balanced.__set_name__(ArrangementData, "_balanced")
    monkeypatch.setattr(ArrangementData, "_balanced", balanced)
    data = ArrangementData([(1,), (2,), (1,)], (1, 2, 3), (0.3, -1.1, 0.9))
    F = structure_from_arrangement(data, 2)
    verify_axioms(F, [F.basepoint, F.basepoint + 0.01, F.basepoint - 0.02])
    critical_points(data, data.basepoint + 0.03)
    assert decided == [data]


def test_k1_weights_balanced_up_to_roundoff_are_near_discriminant():
    # 0.1 + 0.2 - 0.3 is 5.6e-17 in floats, not 0: no pre-check fires, and
    # the fiber is refused by the screens
    data = ArrangementData([(1,), (2,), (1,)], (0.1, 0.2, -0.3), (0.3, -1.1, 0.9))
    with pytest.raises(DiscriminantError):
        critical_points(data, data.basepoint)


def _draw_k1_family(rng):
    """A rank-1 family with count >= 1: n in 3-7, b in +-1..3 over 1..3 (a
    zero row one time in twenty), weights +-1..4 over 1..2, x uniform in
    [-2, 2], with an imaginary part in [-0.5, 0.5] half of the time."""
    while True:
        n = rng.randint(3, 7)
        b = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) if rng.random() >= 0.05 else 0 for _ in range(n)]
        a = [Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 2)) for _ in range(n)]
        imag = 0.5 if rng.random() < 0.5 else 0.0
        x = [complex(rng.uniform(-2, 2), rng.uniform(-imag, imag)) for _ in range(n)]
        if sum(v != 0 for v in b) >= 2:
            return ArrangementData([(v,) for v in b], a, x)


def test_k1_fiber_matches_the_polynomial_roots(random_k1_instances):
    # the fiber that _accept makes from the roots of the expanded fiber
    # polynomial (the reference) and the eigen solve's fiber agree point for
    # point, or both are refused for one cause
    rng = random.Random(2026)
    outcomes = []
    for data in random_k1_instances + [_draw_k1_family(rng) for _ in range(200)]:
        z = data.basepoint
        try:
            with np.errstate(all="ignore"):
                expected = _accept(data, z[None], k1_polynomial_roots(data, z)[:, None])[0]
        except DiscriminantError as exc:
            with pytest.raises(DiscriminantError) as info:
                critical_points(data, z)
            cause = str(exc).partition(":")[0]
            assert str(info.value).partition(":")[0] == cause
            outcomes.append(cause)
            continue
        points = critical_points(data, z).points
        gaps = np.abs(expected[:, None, 0] - points[None, :, 0])
        assert gaps.min(axis=1).max() <= 1e-12 * (1.0 + np.abs(expected).max())
        assert len(set(gaps.argmin(axis=1).tolist())) == len(points) == data.count
        outcomes.append("ok")
    assert outcomes.count("ok") >= 150


def test_fiber_solves_leave_numpy_random_unimported():
    # importing numpy.random costs about 6 MB of resident memory; the eigen
    # solve combines the H_j with a fixed real vector, at rank 1 and 2 alike
    script = (
        "import sys\n"
        "from matpot import ArrangementData, critical_points\n"
        "for B in ([[1], [2], [1]], [[1, 0], [0, 1], [1, 1], [1, -1]]):\n"
        "    data = ArrangementData(B, [1] * len(B), [0.3, -0.5, 0.9, 1.4][: len(B)])\n"
        "    assert critical_points(data, data.basepoint).mu == data.count\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = Path(matpot.arrangements.__file__).parents[1]
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})


def _newton_calls(monkeypatch):
    """(box, seeds, failures) of every ``_newton_refine`` call of one
    fiber, in call order: the seeds of one fiber share one box."""
    real, calls = matpot.arrangements._newton_refine, []

    def recording(data, z, seeds, box):
        out = real(data, z, seeds, box)
        (shared,) = np.unique(box)
        calls.append((shared, seeds, out[2]))
        return out

    monkeypatch.setattr(matpot.arrangements, "_newton_refine", recording)
    return calls


@pytest.mark.parametrize("factor", [Fraction(1, 100), 100])
def test_fiber_does_not_depend_on_the_units_of_t(monkeypatch, factor):
    # B -> B * factor moves every critical point by 1 / factor while z and
    # the values f stay put; the escape box is in the units of t and moves
    # along, so one Newton pass in one box polishes all 8 points
    item4 = _rank2_data()
    rows = [[v * factor for v in row] for row in item4.matrix]
    scaled = ArrangementData(rows, item4.weights, item4.basepoint)
    calls = _newton_calls(monkeypatch)
    frame = critical_points(scaled, scaled.basepoint)
    assert frame.mu == scaled.count == 8 and len(calls) == 1
    assert calls[0][0] == ESCAPE_RADIUS * (1.0 + np.max(np.abs(calls[0][1])))
    np.testing.assert_allclose(frame.f, item4.base_frame.f, rtol=1e-9)


_NEAR_BALANCED = [
    # rank 1, sum a = 1/200: the one root solves (t - 1) = (199/200)(t + 1),
    # t = 399, twice the poles' box 100 (1 + 1); the roots set the box
    ArrangementData([(1,), (1,)], (1, Fraction(-199, 200)), (1, -1)),
    # rank 2, sum a = 1/100: one of the 2 points lies at |t| = 328, outside
    # a box of 220 drawn around the vertices of the arrangement
    ArrangementData([(-1, -3), (3, -3), (-1, -1), (2, -2)], (1, 1, 1, Fraction(-299, 100)), (0.3, -0.5, 0.9, 1.4)),
]


@pytest.mark.parametrize("data, count", zip(_NEAR_BALANCED, (1, 2)))
def test_near_balanced_fiber_keeps_its_far_points(monkeypatch, data, count):
    # as sum a -> 0 critical points move out like 1 / |sum a|; the candidates
    # (joint eigenvalues) already lie out there, and the box is drawn around
    # them, so one Newton pass keeps every point
    calls = _newton_calls(monkeypatch)
    frame = critical_points(data, data.basepoint)
    assert frame.mu == data.count == count and len(calls) == 1
    assert frame.residuals.max() <= 1e-12
    assert np.abs(frame.points).max() < calls[0][0]
    if data.k == 1:
        assert abs(frame.points[0, 0] - 399) <= 1e-9
    else:
        assert 320 < np.abs(frame.points).max() < 340


def _outcomes(solve, cases):
    """(points, f, hessians, det_hess, residuals) as bytes, or (error type, message)."""
    out = []
    for data, z in cases:
        try:
            frame = solve(data, z)
        except (DiscriminantError, PreconditionError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append(tuple(getattr(frame, name).tobytes() for name in ("points", "f", "hessians", "det_hess", "residuals")))
    return out


def test_escape_box_margin_leaves_fibers_bit_identical(monkeypatch, random_k1_instances):
    # every candidate of an accepted point stays far inside the box, so a box
    # 10^4 times wider returns the same fibers bit for bit on the
    # 42-instance count sweep and the rank-1 instances
    rng = random.Random(2718)
    families = [_draw_k2_instance(rng, 4 + idx % 3) for idx in range(42)] + random_k1_instances
    cases = [(data, data.basepoint) for data in families]
    narrow = _outcomes(critical_points, cases)
    monkeypatch.setattr(matpot.arrangements, "ESCAPE_RADIUS", 1e6)
    assert sum(len(x) == 2 for x in narrow) == 0
    assert narrow == _outcomes(critical_points, cases)


def test_generic_count_is_n_minus_one(random_k1_instances):
    for data in random_k1_instances:
        frame = critical_points(data, data.basepoint)
        assert frame.mu == data.n - 1
        assert frame.residuals.max() <= 1e-10


def test_discriminant_probe(fixture_data):
    assert discriminant_probe(fixture_data, (0.0, 0.0)) is False
    assert discriminant_probe(fixture_data, (1e-14, -1e-14)) is False
    assert discriminant_probe(fixture_data, (1.0, -1.0)) is True
    assert discriminant_probe(fixture_data, (0.7 + 0.1j, -0.2)) is True


def test_continuation_tracks_points(random_k1_instances):
    # the reference tracker lands on the fresh fiber, point for point
    data = random_k1_instances[1]
    frame = critical_points(data, data.basepoint)
    target = data.basepoint + np.full(data.n, 0.35 + 0.1j)
    moved = track_fiber(data, frame, target)
    fresh = critical_points(data, target)
    # same fiber as a set, labels consistent with nearest-point tracking
    dist = np.abs(moved[:, 0][:, None] - fresh.points[:, 0][None, :])
    assert dist.min(axis=1).max() < 1e-9
    assert len(set(dist.argmin(axis=1).tolist())) == frame.mu


def test_k2_sample_fiber_is_solved_afresh(monkeypatch):
    # the item-4 structure builds with no flag; a fiber away from the
    # basepoint is a fresh solve, one eigenproblem per fiber: the
    # eigenproblems are counted per point, not per call
    real = matpot.arrangements._eigen_candidates
    points = []

    def counting(data, zs):
        points.extend(zs)
        return real(data, zs)

    monkeypatch.setattr(matpot.arrangements, "_eigen_candidates", counting)
    frames = []
    real_series = matpot.arrangements.ArrangementData._series_fiber

    def recording(self, space, stack):
        frames.extend(stack)
        return real_series(self, space, stack)

    monkeypatch.setattr(matpot.arrangements.ArrangementData, "_series_fiber", recording)
    data = _rank2_data()
    F = structure_from_arrangement(data, 2)
    F.frame_jet(data.basepoint[None], F.space(1))
    assert len(points) == 1 and frames == [data.base_frame]
    z = data.basepoint + np.array([0.011, -0.007j, 0.004, 0.009j, -0.013, 0.006])
    F.frame_jet(z[None], F.space(1))
    moved = frames[-1]
    assert len(points) == 2 and len(frames) == 2 and np.array_equal(points[-1], z)
    fresh = critical_points(data, z)
    assert moved.mu == fresh.mu == data.count == 8
    for name in ("z", "points", "f", "hessians", "det_hess", "residuals"):
        assert np.array_equal(getattr(moved, name), getattr(fresh, name))


def test_family_solves_its_basepoint_fiber_once(monkeypatch, fiber_solves):
    # two structures on one family solve the basepoint fiber and build the
    # family's algebra (with its flat basis) once, and share them in their
    # frame jets; m = 3 is refused before either
    chosen = []
    real = ArrangementData.algebra.func

    def building(self):
        chosen.append(self)
        return real(self)

    algebra = functools.cached_property(building)
    algebra.__set_name__(ArrangementData, "algebra")
    monkeypatch.setattr(ArrangementData, "algebra", algebra)
    data = _rank2_data()
    with pytest.raises(PreconditionError):
        structure_from_arrangement(data, 3)
    assert fiber_solves == [] and chosen == []
    F, G = structure_from_arrangement(data, 2), structure_from_arrangement(data, 2)
    assert fiber_solves == [True] and chosen == [data]
    assert np.array_equal(F.basepoint_frame[2], G.basepoint_frame[2])
    assert fiber_solves == [True] and chosen == [data]
    assert F.mu == G.mu == len(data.flat_basis) == data.base_frame.mu == 8


def test_degree_one_jets_are_prefixes_of_higher_degrees(all_structures):
    # graded-lex order lists the monomials of degree <= 1 first and no
    # recurrence reads a higher degree: the degree-1 pairing jets and
    # basepoint frame jet are bitwise prefixes of those of degree 2..4
    item4 = structure_from_arrangement(_rank2_data(), 2)
    for F in all_structures + [item4]:
        members = [T for T in product(range(3), repeat=F.n) if sum(T) <= 2]
        head = F.space(1).size
        jet, frame = F.jet(F.space(1), members), F.basepoint_frame
        for q in (2, 3, 4):
            assert np.array_equal(F.jet(F.space(q), members)[:, :head], jet)
            for low, high in zip(frame, F.frame_jet(F.basepoint[None], F.space(q))):
                assert np.array_equal(high[0, ..., :head], low)


def test_frame_jet_matches_richardson_reference(all_structures, all_families):
    # degree 1 against differences of the plain frame, degree 0 against its
    # values, at the basepoint and at one nearby fiber
    item4_data = _rank2_data()
    item4 = structure_from_arrangement(item4_data, 2)
    item4_offset = np.array([0.011, -0.007j, 0.004, 0.009j, -0.013, 0.006])
    rng = np.random.default_rng(4242)
    for F, data in zip(all_structures + [item4], all_families + [item4_data]):
        space = SeriesSpace(F.n, 1)
        x = F.basepoint
        offset = item4_offset if F is item4 else 0.05 * (rng.random(F.n) - 0.5)
        for z in (x, x + offset):
            jets = [v[0] for v in F.frame_jet(z[None], space)]
            values = plain_frame(data, z)
            for jet, value, ref in zip(jets, values, richardson_frame_derivatives(data, z)):
                assert jet.shape == value.shape + (space.size,)
                assert np.max(np.abs(jet[..., 0] - value)) <= 1e-9 * max(1.0, np.max(np.abs(value)))
                assert np.max(np.abs(jet[..., space.degree_one] - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


def _ci_family(B, a, x):
    """A family written as in the CI budget runs: "p/q" strings for
    rationals, [re, im] pairs for complex coordinates."""
    return ArrangementData([[Fraction(v) for v in row] for row in B], [Fraction(w) for w in a],
                           [complex(*v) if isinstance(v, list) else v for v in x])


#: the rank 2, 3 and 4 verify-arrangement budget runs of tier1.yml (mu 33, 43, 31)
_CI_FAMILIES = {
    "k2": ([[2, 2], [3, 3], [-2, -1], [2, 2], [3, -3], [3, -1], [1, -2], [-3, 0], [0, -3], [-3, -2]],
           [3, 4, 4, 4, 2, 2, 3, 3, 3, 4],
           [[-1.629, 0.011], [1.367, -0.057], [-1.175, -0.154], [-1.193, -0.25], [-0.986, 0.159],
            [-0.78, -0.146], [0.496, 0.243], [-0.93, -0.16], [1.365, 0.044], [-1.776, 0.179]]),
    "k3": ([[1, 2, 0], [-2, 1, 0], [1, -2, 0], [-1, 0, -2], [-2, 1, -1], [-1, 1, -2], [-1, 2, 1], [-1, 1, -2],
            [1, 0, 2]],
           [4, 1, 2, 2, 3, 4, 4, 1, 3],
           [[-1.94, 0.86], [-1.998, 0.899], [0.312, -1.868], [1.62, -0.768], [0.684, 0.007], [-1.994, 1.496],
            [0.374, -0.346], [0.796, 0.471], [0.404, -1.254]]),
    "k4": ([[2, -2, 0, 0], [-2, -2, 1, 1], [1, 1, -1, -2], [2, -1, 1, 1], [0, 1, -1, 1], [-1, -2, 1, 1],
            [-2, 0, -1, -2], [-1, 2, -1, -2]],
           [1, 3, 1, 3, 3, 4, 3, 4],
           [[-0.462, -0.049], [-0.488, -0.214], [-1.985, -0.271], [1.867, -0.057], [-1.024, -0.154],
            [0.825, -0.184], [0.257, -0.181], [0.079, 0.033]]),
    # the rational k = 4, n = 9 run, mu 55
    "r55": ([["1/3", "3/2", "1", "-1"], ["-3", "-3", "-1/2", "0"], ["-1/3", "1", "3", "0"], ["-1", "3/2", "-1", "0"],
             ["1/3", "1", "2/3", "1"], ["-3/2", "0", "-2/3", "-1"], ["-1/6", "-1/2", "-1/3", "-1/2"],
             ["2/3", "-1", "1", "1"], ["3", "-3/2", "1/2", "-1"]],
            ["2", "3", "1", "3", "1", "3/2", "1", "1", "3/2"],
            [[0.585, -0.256], [0.876, -1.075], [0.296, -1.714], [-0.9, 1.424], [-0.767, -0.472], [-1.922, -0.792],
             [-0.857, -0.324], [0.892, 0.577], [-0.158, 1.455]]),
}


@pytest.mark.parametrize("family", ["fixture", "rank2", "k2", "k3", "k4"])
def test_algebra_higgs_jet_matches_the_fiber_route(fixture_data, family):
    # the H jet read from the algebra against U^-1 diag(p) U from the fiber,
    # degrees 0 and 1, at the basepoint and at the first CLI sample point;
    # the unit (a one-column solve) and the form share the fiber route.  The
    # form is one series matrix product and the reference's a broadcast
    # multiply summed over the points: the same terms summed in another
    # order, so they agree to roundoff of the largest entry (at most 4.2e-15
    # on these families), and the form equals its transpose bit for bit
    data = fixture_data if family == "fixture" else _rank2_data() if family == "rank2" else (
        _ci_family(*_CI_FAMILIES[family]))
    space = SeriesSpace(data.n, 1)
    x = data.basepoint
    for z in (x, x + 0.05 * (1.0 + np.max(np.abs(x))) * np.cos(2.39996 * np.arange(1, data.n + 1))):
        (H, unit, form) = (v[0] for v in data.frame_jet(z[None], space))
        (H_ref, unit_ref, form_ref) = fiber_frame_jet(data, z, space)
        assert H.shape == H_ref.shape == (data.n, data.count, data.count, space.size)
        for d in space.degrees:
            assert np.max(np.abs(H[..., d] - H_ref[..., d])) <= 1e-12 * np.max(np.abs(H_ref))
        assert np.max(np.abs(unit - unit_ref)) <= 1e-12 * np.max(np.abs(unit_ref))
        assert np.max(np.abs(form - form_ref)) <= 1e-12 * np.max(np.abs(form_ref))
        assert np.array_equal(form, form.swapaxes(0, 1))


def test_frame_jet_solves_for_the_unit_alone(monkeypatch):
    # H comes from the algebra, so the one series solve of a frame jet has
    # one right-hand column, the unit's, not n mu + 1
    columns = []
    real = SeriesSpace.solve

    def counting(self, A, rhs):
        columns.append(rhs.shape[-2])
        return real(self, A, rhs)

    monkeypatch.setattr(SeriesSpace, "solve", counting)
    data = _rank2_data()
    data.frame_jet(data.basepoint[None], SeriesSpace(data.n, 1))
    assert columns == [1]


# real z whose fibers are real at the first two CLI sample points and not at
# the third (nor at the basepoint): one real eigenproblem stack whose
# eigenvalues are real for some fibers only
_MIXED_EIGEN = ArrangementData([(3,), (3,), (1,), (-1,), (2,)], (1, 2, 1, -1, -2), (1.11, -0.36, -1.19, -0.75, 0.69))


def _moved_samples(F, turn: bool):
    """Three points off the basepoint: the CLI's golden-angle offsets in the
    box of half-width 0.05 (1 + scale), the second turned complex when
    ``turn``."""
    x, scale = F.basepoint, 0.05 * (1.0 + F.scale())
    steps = np.arange(1, 3 * F.n + 1).reshape(3, F.n)
    return list(x + scale * np.cos(2.39996 * steps) * np.array([[1.0], [1j if turn else 1.0], [1.0]]))


def test_stacked_samples_match_the_per_point_reference(all_structures, all_families):
    # one stacked pass gives, bit for bit, the candidates of one eigenproblem
    # on one fiber's arrays, the fibers of one critical_points call per
    # point, the frame jets of one one-point jet per point (degrees 0-2) and
    # the axiom report of the samples taken one by one, with the basepoint
    # first, in the middle, last, twice and absent
    item4 = _rank2_data()
    families = all_families + [item4, _MIXED_EIGEN]
    structures = all_structures + [structure_from_arrangement(data, 2) for data in families[-2:]]
    for F, data in zip(structures, families):
        moved, x = _moved_samples(F, turn=data is not _MIXED_EIGEN), F.basepoint
        if data is _MIXED_EIGEN:
            kinds = [bool(frame.points.imag.any()) for frame in _fibers(data, np.array(moved))]
            assert kinds == [False, False, True]
        candidates = _eigen_candidates(data, np.array(moved)).reshape(len(moved), data.count, data.k)
        for fiber, z in zip(candidates, moved):
            assert np.array_equal(fiber, point_eigen_candidates(data, z), equal_nan=True)
        for fresh, z in zip(_fibers(data, np.array(moved)), moved):
            alone = critical_points(data, z)
            for name in ("z", "points", "f", "hessians", "det_hess", "residuals"):
                assert np.array_equal(getattr(fresh, name), getattr(alone, name))
        placements = ([x] + moved, moved[:1] + [x] + moved[1:], moved + [x], [x] + moved[:2] + [x] + moved[2:], moved)
        for samples in placements:
            for q in (0, 1, 2):
                space = SeriesSpace(F.n, q)
                jets = data.frame_jet(np.array(samples), space)
                for row, z in enumerate(samples):
                    for got, want in zip(jets, point_frame_jet(data, z, space)):
                        assert np.array_equal(got[row], want)
            report = verify_axioms(F, samples, hard_threshold=None)
            assert repr(report) == repr(point_axiom_report(F, data, samples))


# a real rank-1 family off the discriminant at its basepoint: the fiber over
# z has a double point where x_3 = e^{i pi / 3} (see _DOUBLE_POINT), and
# hyperplanes 1 and 2 meet where z_1 = z_2
_REFUSALS = ArrangementData([(1,), (1,), (1,)], (1, 1, 1), (0, 1, 0.4 + 0.6j))
_GOOD = [np.array([0.01, 1, 0.4 + 0.6j]), np.array([0, 1.02, 0.45 + 0.6j])]
_DOUBLE_Z = np.array([0, 1, 0.5 + 0.8660254037844386j])
_MEET_Z = np.array([0.3, 0.3, 0.4 + 0.6j])


@pytest.mark.parametrize("samples, culprit", [
    ([_GOOD[0], _DOUBLE_Z, _GOOD[1]], _DOUBLE_Z),
    ([_GOOD[0], _MEET_Z, _GOOD[1]], _MEET_Z),
    # the meeting hyperplanes are refused at the Higgs screen, before the
    # collision's Newton pass, yet the earlier sample's refusal wins
    ([_GOOD[0], _DOUBLE_Z, _MEET_Z], _DOUBLE_Z),
    ([_MEET_Z, _GOOD[0], _DOUBLE_Z], _MEET_Z),
], ids=["second-collides", "second-meets", "collision-first", "meeting-first"])
def test_stacked_refusal_is_the_first_refused_sample_alone(samples, culprit):
    with pytest.raises(DiscriminantError) as alone:
        critical_points(_REFUSALS, culprit)
    F = structure_from_arrangement(_REFUSALS, 2)
    x = F.basepoint
    # verify_axioms with the basepoint first, in the middle, last and twice
    placed = ([x] + samples, samples[:1] + [x] + samples[1:], samples + [x], [x] + samples[:2] + [x] + samples[2:])
    evaluations = [lambda: _REFUSALS.frame_jet(np.array(samples), F.space(1))]
    evaluations += [lambda stack=stack: verify_axioms(F, stack) for stack in placed]
    for evaluate in evaluations:
        with pytest.raises(DiscriminantError) as stacked:
            evaluate()
        assert str(stacked.value) == str(alone.value)
    assert str(alone.value) in ("critical points collide", "hyperplanes 1, 2 pass through one point (f_S = 0)")


def test_frame_jet_refuses_an_empty_stack(fixture_data):
    with pytest.raises(PreconditionError, match="at least one point"):
        fixture_data.frame_jet(np.zeros((0, 2)), SeriesSpace(2, 1))


def test_stacked_mu55_frame_jet_and_flat_sections_peaks_are_bounded():
    # the two CLI sample points of the mu 55 run in one stacked call: the
    # form and the flat sections are series matrix products whose
    # temporaries are the size of their operands, so each traced peak stays
    # far below the 273 MB of one broadcast whole-form product (14 and 19 MB
    # on a 2-core x86 container), and each row is still that of a stack of
    # that row alone, bit for bit
    data = _ci_family(*_CI_FAMILIES["r55"])
    F = structure_from_arrangement(data, 2)
    x, space = data.basepoint, F.space(1)
    steps = np.arange(1, 2 * data.n + 1).reshape(2, data.n)
    samples = x + 0.05 * (1.0 + F.scale()) * np.cos(2.39996 * steps)
    tracemalloc.start()
    try:
        stacked = data.frame_jet(samples, space)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sections = matpot.frobenius._flat_sections(F, stacked[0], stacked[1], space)
        sections_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.count == 55 and peak < 40e6 and sections_peak < 40e6
    for row in range(2):
        alone = data.frame_jet(samples[row:row + 1], space)
        for part, one in zip(stacked, alone):
            assert np.array_equal(part[row], one[0])
        assert np.array_equal(sections[row], matpot.frobenius._flat_sections(F, alone[0], alone[1], space)[0])


def test_structure_golden_values(fixture_structure, fixture_data):
    x = fixture_structure.basepoint
    # mu = 1: the 1 x 1 Higgs matrices are the eigenvalues p_i themselves
    assert np.allclose(fixture_structure.basepoint_frame[0][:, 0, 0, 0], fix2_p(x), atol=1e-12)
    # the golden pairings are the constant terms of pairing jets, on a
    # structure at each basepoint; S(C_1 C_1 unit, unit) is z-constant
    data = fixture_data
    for z in [x, x + np.array([0.2, 0.1]), x + np.array([-0.3, 0.05])]:
        F = structure_from_arrangement(ArrangementData(data.matrix, data.weights, z), 2)
        unit, c11 = F.jet(F.space(0), [(0, 0), (2, 0)])[:, 0]
        assert abs(unit - fix2_pair_unit(z)) < 1e-10
        assert abs(c11 - (-0.5)) < 1e-10


def test_higgs_vanishes_on_column_fields(all_structures, all_families):
    for F, data in zip(all_structures, all_families):
        for z in [F.basepoint, F.basepoint + 0.11]:
            assert critical_points(data, z).residuals.max() <= 1e-10
            # in the flat frame: sum_i b_i C_i = 0 as matrices
            H = frame_values(F, z)[0]
            combo = sum(complex(data.B[i - 1, 0]) * H[i - 1] for i in F.matroid.ground.labels)
            assert np.max(np.abs(combo)) <= 1e-9


@pytest.mark.parametrize("family", ["rank2", "k2", "k3", "k4"])
def test_flat_sections_share_prefixes_bit_for_bit(family):
    # the prefix tree against one whole-batch product per label column, on
    # the basepoint frame's degree-1 jets: bit for bit when that product is
    # the same series matrix product, and to roundoff of the largest entry
    # (6.4e-14 at k4) against broadcast multiplies summed over the inner
    # index, which sum the same terms in another order; its temporaries stay
    # well below one (bases, mu, mu, size) product, which the reference
    # materializes
    data = _rank2_data() if family == "rank2" else _ci_family(*_CI_FAMILIES[family])
    F = structure_from_arrangement(data, 2)
    H, u, _ = F.basepoint_frame
    space = F.space(1)
    want = whole_batch_flat_sections(F, H, u, space)
    tracemalloc.start()
    try:
        got = matpot.frobenius._flat_sections(F, H[None], u[None], space)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, whole_batch_flat_sections(F, H, u, space, matmul=True))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    full = len(F.maximal_independent_sets()) * data.count**2 * space.size * 16
    assert family == "rank2" or peak < full / 4


def test_flat_sections_have_constant_coordinates(all_structures):
    for F in all_structures:
        samples = [F.basepoint, F.basepoint + 0.13, F.basepoint - 0.07]
        for I in F.maximal_independent_sets():
            coords = []
            for z in samples:
                H, v, _ = frame_values(F, z)
                for i in I:
                    v = H[i - 1] @ v
                coords.append(v)
            for v in coords[1:]:
                assert np.max(np.abs(v - coords[0])) < 1e-8


def test_diagonal_frame_exactness(random_k1_structures, all_structures):
    # S(C_i h1, h2) = S(h1, C_i h2) in the flat frame at the basepoint
    F = random_k1_structures[0]
    H, _, W = (v[..., 0] for v in F.basepoint_frame)
    rng = np.random.default_rng(3)
    h1 = rng.standard_normal(F.mu) + 1j * rng.standard_normal(F.mu)
    h2 = rng.standard_normal(F.mu) + 1j * rng.standard_normal(F.mu)
    for i in range(F.n):
        left = (H[i] @ h1) @ W @ h2
        right = h1 @ W @ (H[i] @ h2)
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
    # the flat-frame form is symmetric bit for bit, in every coefficient of
    # its jet, at the basepoint and at a nearby fiber, on every
    # arrangement structure of the tests
    item4 = structure_from_arrangement(_rank2_data(), 2)
    for F in all_structures + [item4]:
        for z in (F.basepoint, F.basepoint + 0.01):
            W = frame_values(F, z)[2]
            assert np.max(np.abs(W - W.T)) == 0.0
            W = F.frame_jet(z[None], SeriesSpace(F.n, 2))[2][0]
            assert np.max(np.abs(W - W.swapaxes(0, 1))) == 0.0


def test_generation_condition_and_kernel(random_k1_structures, random_k1_instances):
    for F, data in zip(random_k1_structures, random_k1_instances):
        assert len(data.flat_basis) == F.mu
        H, u, _ = (v[..., 0] for v in F.basepoint_frame)
        V = (H @ u).T  # mu x n, columns C_{i}(unit) in the flat frame
        b = data.B[:, 0]
        assert np.max(np.abs(V @ b)) <= 1e-10
        assert np.linalg.matrix_rank(V, tol=1e-8) == F.mu == F.n - 1
        # the kernel is exactly the span of the column field
        _, s, vt = np.linalg.svd(V)
        null = vt[-1].conj()
        null = null / np.linalg.norm(null)
        direction = b / np.linalg.norm(b)
        assert min(
            np.linalg.norm(null - direction), np.linalg.norm(null + direction)
        ) < 1e-8


def test_pairing_nondegenerate(all_structures):
    for F in all_structures:
        cond = np.linalg.cond(F.basepoint_frame[2][..., 0])
        assert np.isfinite(cond) and cond < 1e6


def test_k_ge_2_needs_no_flag():
    data = ArrangementData(
        [(1, 0), (0, 1), (1, 1), (1, -1)], (1, 1, 1, 1), (0.3, -0.5, 0.9, 1.4)
    )
    assert structure_from_arrangement(data, 2).mu == data.count == 3


@pytest.mark.parametrize("m", [1, 3])
def test_structure_refuses_orders_other_than_two(fixture_data, m):
    # the residue pairing is bilinear: only m = 2 gives a flat form
    with pytest.raises(PreconditionError):
        structure_from_arrangement(fixture_data, m)
    with pytest.raises(PreconditionError):
        structure_from_arrangement(_rank2_data(), m)


def test_k_ge_2_experimental_solver_finds_critical_points():
    data = ArrangementData(
        [(1, 0), (0, 1), (1, 1), (1, -1)], (1, 1, 1, 1), (0.3, -0.5, 0.9, 1.4)
    )
    frame = critical_points(data, data.basepoint)
    assert frame.mu == data.count == 3
    assert frame.residuals.max() <= 1e-9 * 3
    assert np.min(np.abs(frame.f)) > 1e-8


def _draw_shape(rng, k, n):
    """A family of a larger shape: integer B in [-3, 3] (k = 2) or [-2, 2]
    (k = 3) with no zero row and full rank, weights 1-4, complex x uniform
    in [-2, 2]^2."""
    top = 3 if k == 2 else 2
    while True:
        B = [tuple(rng.randint(-top, top) for _ in range(k)) for _ in range(n)]
        if all(any(r) for r in B) and LinearMatroid(B).full_rank == k:
            break
    a = [rng.randint(1, 4) for _ in range(n)]
    x = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
    return ArrangementData(B, a, x)


def _fraction_det(rows):
    k = len(rows)
    total = Fraction(0)
    for perm in permutations(range(k)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = Fraction(sign)
        for row, col in enumerate(perm):
            term *= Fraction(rows[row][col])
        total += term
    return total


@pytest.mark.parametrize("case", ["rank2", "rational", "rank3"])
def test_cauchy_binet_weights_match_the_jacobi_determinant(case):
    # w = 1 / det Hess from the squared minors of the bases against the
    # determinant of the Hessian series -B^T diag(a / f^2) B by Jacobi's formula
    if case == "rank2":
        data = _rank2_data()
    elif case == "rational":
        data = ArrangementData(
            [(Fraction(1, 2), 0), (0, Fraction(2, 3)), (1, Fraction(-1, 3)), (2, 3), (Fraction(-5, 4), 1)],
            [1, 2, Fraction(3, 2), 1, 2],
            [0.3 + 0.1j, -1.1, 0.9 - 0.4j, 1.7, -0.6 + 0.2j],
        )
    else:
        data = _draw_shape(random.Random(3007), 3, 7)
    bases = data.algebra.bases
    assert data.squared_minors.tolist() == [
        float(_fraction_det([data.matrix[i - 1] for i in I]) ** 2) for I in bases
    ]
    space = SeriesSpace(data.n, 3)
    p, w = (v[0] for v in data._series_fiber(space, [data.base_frame]))
    hess = -np.einsum("ij,il,sim->sjlm", data.B, data.B, space.mul(p, p) / data.a[:, None])
    reference = space.reciprocal(jacobi_det(space, hess))
    assert np.abs(w - reference).max() <= 1e-10 * np.abs(reference).max()
    assert np.allclose(w[:, 0], 1.0 / data.base_frame.det_hess, rtol=1e-10, atol=0)


@pytest.mark.parametrize("k, n", [(2, 8), (2, 10), (2, 12), (3, 7), (3, 9)])
def test_larger_shapes_get_the_full_count(k, n):
    # the count grows like C(n, k); one eigenproblem per fiber finds every
    # point, where a seed cloud of C(C(n, k), 3) seeds came up short
    rng = random.Random(1000 * k + n)
    for _ in range(3):
        data = _draw_shape(rng, k, n)
        frame = critical_points(data, data.basepoint)
        scale = 1.0 + float(np.max(np.abs(data.basepoint)))
        assert frame.mu == data.count == euler_count(data.matroid, k)
        assert _gradient_residual(data, data.basepoint, frame.points) <= 1e-9 * scale


def _sweep_families():
    rng = random.Random(2718)
    return [_draw_k2_instance(rng, 4 + idx % 3) for idx in range(42)] + [_rank2_data()] + _COUNT_ONE


def test_higgs_eigenvalues_are_the_fiber_values(all_structures, all_families):
    # the eigenvalues of each H_j(x), built from (B, a) alone, are the
    # a_j / f_j of the solved fiber over x
    for data in _sweep_families() + all_families:
        H = data.higgs(data.basepoint)
        p = data.a / data.base_frame.f  # (mu, n)
        for j in range(data.n):
            eig = np.linalg.eigvals(H[j])
            gap = np.abs(eig[:, None] - p[None, :, j])
            size = np.max(np.abs(p[:, j]))
            assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12 * size
    # in the flat basis, H(x) is the constant term of the structure's frame
    # jet, which conjugates diag(p_j) by the sections on the fiber
    item4 = _rank2_data()
    for F, data in zip(all_structures + [structure_from_arrangement(item4, 2)], all_families + [item4]):
        H, frame = data.higgs(F.basepoint), frame_values(F, F.basepoint)[0]
        assert np.max(np.abs(H - frame)) <= 1e-12 * np.max(np.abs(frame))


def test_flat_basis_is_the_greedy_basis_on_the_fiber(all_families):
    # the flat basis, read from (B, a) by its matroid rule, is the basis
    # that a greedy numeric-rank choice on the basepoint fiber picks
    for data in _sweep_families() + all_families:
        assert data.flat_basis == greedy_flat_basis(data)


def _draw_rational_family(rng):
    """k 1-4, n up to 9, rational B of full rank with some rows parallel to
    earlier ones, rational weights, complex basepoint."""
    k = rng.randint(1, 4)
    n = rng.randint(k + 1, 9)
    while True:
        rows = []
        for _ in range(n):
            if rows and rng.random() < 0.2:
                q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                rows.append(tuple(v * q for v in rng.choice(rows)))
            else:
                rows.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)))
        if LinearMatroid(rows).full_rank == k:
            break
    a = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n)]
    x = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
    return ArrangementData(rows, a, x)


def test_flat_basis_is_the_internally_passive_set():
    # the rule that flat_basis reads off the minors table against the
    # fundamental cocircuits of the independence oracle, and its size against
    # the Euler characteristic (mu = T_M(0, 1), Crapo 1969).  That this set is
    # the lex-first quotient basis of the reference elimination is checked by
    # the parity test below, on these families and its k = 4 draws, not proved
    rng = random.Random(3030)
    families = _sweep_families() + _special_families() + [_draw_rational_family(rng) for _ in range(40)]
    for data in families:
        assert data.flat_basis == internally_passive_bases(data.matroid)
        assert data.count == euler_count(data.matroid, data.k)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_flat_sections_that_are_no_quotient_basis_are_refused(change):
    # the generation check of the one elimination: mu - 1 sections leave a
    # pivot column without a pivot, and mu + 1 leave a relation among the
    # free columns; either way the sections are no basis of the quotient
    data = _rank2_data()
    basis = data.flat_basis
    extra = next(I for I, D in data.minors.items() if D and I not in basis)
    data.__dict__["flat_basis"] = basis[1:] if change == "drop" else tuple(sorted(basis + (extra,)))
    with pytest.raises(StructureError, match="the flat sections do not span the fiber"):
        data.algebra


def _higgs_or_refusal(data):
    try:
        return data.higgs(data.basepoint)
    except DiscriminantError as exc:
        return str(exc)


def test_minors_table_matches_the_elimination_algebra():
    # the algebra read from the table of maximal minors against one exact
    # elimination per set: equal bases, basis, placement, squared minors,
    # count and H(x) bit for bit; circuits and terms up to one sign per row;
    # the k = 4, n <= 8 draws of random.Random(4004) add 21 families
    rng = random.Random(3030)
    families = _sweep_families() + _special_families() + [_draw_rational_family(rng) for _ in range(40)]
    rng = random.Random(4004)
    k4 = [data for data in (_draw_rational_family(rng) for _ in range(120)) if data.k == 4 and data.n <= 8]
    assert len(k4) == 21
    families += k4
    assert {data.k for data in families} == {1, 2, 3, 4}
    for data in families:
        reference, squared = elimination_algebra(data)
        algebra = data.algebra
        assert algebra.bases == reference.bases and algebra.basis == reference.basis
        assert np.array_equal(algebra.placement, reference.placement)
        assert np.array_equal(data.squared_minors, squared)
        assert data.count == euler_count(data.matroid, data.k)
        sign = np.sign((algebra.circuits * reference.circuits).sum(axis=1))[:, None]
        assert np.array_equal(algebra.circuits, sign * reference.circuits)
        assert np.array_equal(algebra.terms, sign * reference.terms)
        if data.count:
            twin = ArrangementData(data.matrix, data.weights, data.basepoint)
            twin.__dict__["algebra"] = reference
            mine, theirs = _higgs_or_refusal(data), _higgs_or_refusal(twin)
            assert type(mine) is type(theirs) and np.array_equal(mine, theirs)


@pytest.mark.parametrize("k, n, seed", [(2, 6, 2006), (3, 9, 3009)])
def test_algebra_is_read_from_the_minors_table(monkeypatch, k, n, seed):
    # past the matroid's own full-rank check, the count, the algebra and the
    # squared minors eliminate once (the relations, pivot columns first) and
    # ask the independence oracle nothing
    data = _draw_shape(random.Random(seed), k, n)
    eliminations, queries = [], []
    real_eliminate, real_independent = matpot.matroids._eliminate, LinearMatroid._independent

    def eliminating(rows, width, reduced=False):
        eliminations.append(len(rows))
        return real_eliminate(rows, width, reduced)

    def querying(self, A):
        queries.append(A)
        return real_independent(self, A)

    for module in (matpot.matroids, matpot.arrangements):
        monkeypatch.setattr(module, "_eliminate", eliminating)
    monkeypatch.setattr(LinearMatroid, "_independent", querying)
    assert data.count > 0 and queries == [] and eliminations == []
    data.algebra, data.squared_minors
    assert len(eliminations) == 1 and queries == []
    assert len(data.minors) == math.comb(n, k)


def test_family_beyond_sixteen_hyperplanes_is_a_size_limit():
    # the minors table is refused before it is built, as base enumeration is
    data = ArrangementData([(i,) for i in range(1, 18)], [1] * 17, [0.1 * i for i in range(17)])
    with pytest.raises(SizeLimitError, match="base enumeration limited to n <= 16"):
        critical_points(data, data.basepoint)
    with pytest.raises(SizeLimitError, match="base enumeration limited to n <= 16"):
        structure_from_arrangement(data, 2)


@pytest.mark.parametrize(
    "B,read,entry",
    [
        # b_1 / b_3 = 10^600 writes C_(3,) over the flat basis
        ([[10**300], [1], [Fraction(1, 10**300)]], "algebra", r"the normal form of C_I for I = \(3,\)"),
        # D_(1,2) lcm_3 is about 10^310
        ([[10**300, 1], [1, 10**10], [1, 1]], "algebra", r"the circuit coefficient of hyperplane 3 in S = \(1, 2, 3\)"),
        ([[10**200], [1], [1]], "squared_minors", r"det\(B_I\)\^2 for I = \(1,\)"),
        ([[Fraction(1, 10**200)], [1], [1]], "squared_minors", r"det\(B_I\)\^2 for I = \(1,\)"),
    ],
)
def test_exact_quantities_beyond_double_range_are_a_size_limit(B, read, entry):
    # every entry of B is a finite, nonzero double; a quantity derived from
    # them exactly is refused, named, where it becomes a float
    data = ArrangementData(B, [1] * len(B), [0.1, 1, 2])
    with pytest.raises(SizeLimitError, match=f"^{entry} is outside the range of a double$"):
        getattr(data, read)
