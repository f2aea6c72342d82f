import random
import warnings

import numpy as np
import pytest

import matpot.arrangements
from matpot import (
    ArrangementData,
    DiscriminantError,
    GroundSetError,
    PreconditionError,
    RankError,
    UniformMatroid,
    continue_fiber,
    critical_points,
    discriminant_probe,
    structure_from_arrangement,
    vector_matroid,
)

from matpot.arrangements import _k1_candidate_roots, _newton_refine, _vertex_seed_cloud
from matpot.series import SeriesSpace
from oracles import (
    euler_count,
    fix2_hess,
    fix2_p,
    fix2_pair_unit,
    fix2_point,
    richardson_frame_derivatives,
    scalar_newton_refine,
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


def test_critical_point_closed_form(fixture_data):
    for z in [(1, -1), (2.5, 0.5), (0.3 + 0.2j, -1.1)]:
        frame = critical_points(fixture_data, z)
        assert frame.mu == 1
        assert abs(frame.points[0, 0] - fix2_point(z)) < 1e-12
        assert abs(frame.det_hess[0] - fix2_hess(np.asarray(z, dtype=complex))) < 1e-10
        assert frame.residuals.max() <= 1e-12


def _rank2_data():
    """Rank-2 instance with mu = 8 on which one seed of the vertex cloud diverges."""
    return ArrangementData(
        [(-1, -1), (0, 1), (0, 1), (2, 3), (1, 2), (-3, -3)],
        [2, 3, 3, 3, 3, 1],
        [-0.1 + 0.2j, 1.8 + 0.1j, 0.3 - 0.2j, -1.6 + 0.2j, 1.6 + 0.2j, 0.8],
    )


def test_k_ge_2_drops_non_finite_newton_results():
    data = _rank2_data()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a diverging seed must not warn either
        frame = critical_points(data, data.basepoint)
    assert frame.mu == 8
    assert np.isfinite(frame.points).all() and np.isfinite(frame.residuals).all()


def test_strict_mode_rejects_non_finite_newton_result(fixture_data, monkeypatch):
    def diverged(data, z, seeds):
        S = len(seeds)
        return np.full((S, 1), complex("nan")), np.full(S, np.nan), [None] * S

    monkeypatch.setattr(matpot.arrangements, "_newton_refine", diverged)
    with pytest.raises(DiscriminantError):
        critical_points(fixture_data, (1, -1))


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


def _scalar_outcomes(data, z, seeds):
    """(t, residual, failure message) of the one-seed reference per seed."""
    out = []
    for seed in seeds:
        try:
            with np.errstate(all="ignore"):
                t, res = scalar_newton_refine(data, z, seed)
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
    cases = [(data, z, _vertex_seed_cloud(data, z)) for data, z in cases]
    for data in random_k1_instances:
        roots, _ = _k1_candidate_roots(data, data.basepoint)
        cases.append((data, data.basepoint, roots[:, None]))
    # f = (t + 1, t - 1) with weights (1, -1): the Hessian 4t / (t^2 - 1)^2
    # vanishes exactly at t = 0, and t = -1 lies on a hyperplane
    odd = ArrangementData([(1,), (1,)], (1, -1), (1, -1))
    odd_seeds = np.array([[0.0], [-1.0], [complex("nan")], [0.5], [2.0 + 1j]])
    # on f_2 = t_2 + z_2 = 0 exactly; a far seed whose iterates overflow
    item4_seeds = np.array([[0.3, -item4.basepoint[1]], [1e42, 1j], [0.1, 0.2]])
    cases += [(odd, odd.basepoint, odd_seeds), (item4, item4.basepoint, item4_seeds)]

    singular = "degenerate Hessian during Newton refinement"
    collided = "critical point collided with a hyperplane"
    for data, z, seeds in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, res, failures = _newton_refine(data, z, seeds)
        assert t.shape == (len(seeds), data.k) and res.shape == (len(seeds),)
        for s, (t0, res0, why) in enumerate(_scalar_outcomes(data, z, seeds)):
            assert failures[s] == why
            if why is None:
                assert np.array_equal(t[s], t0, equal_nan=True)
                assert res[s] == res0 or (np.isnan(res[s]) and np.isnan(res0))
        if seeds is odd_seeds:
            assert failures[:3] == [singular, collided, None] and np.isnan(t[2]).all()
        if seeds is item4_seeds:
            assert failures[:2] == [collided, None] and not np.isfinite(t[1]).all()


def test_critical_point_count_matches_euler_characteristic():
    # for positive weights and a generic fiber the master function has
    # |chi(complement)| nondegenerate critical points; the vertex seed cloud
    # makes no completeness claim and misses one of 8 on instance 35, where
    # continuation from the real fiber over Re z finds all 8
    rng = random.Random(2718)
    short = {}
    for idx in range(42):
        data = _draw_k2_instance(rng, 4 + idx % 3)
        count = euler_count(data.matroid, 2)
        frame = critical_points(data, data.basepoint)
        scale = 1.0 + float(np.max(np.abs(data.basepoint)))
        f = frame.points @ data.B.T + data.basepoint[None, :]
        gradient = (data.a[None, :] / f) @ data.B
        assert np.max(np.abs(gradient)) <= 1e-9 * scale
        if frame.mu != count:
            short[idx] = (frame.mu, count)
            tracked = continue_fiber(data, critical_points(data, data.basepoint.real), data.basepoint)
            assert tracked.mu == count
    assert short == {35: (7, 8)}


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
    data = random_k1_instances[1]
    frame = critical_points(data, data.basepoint)
    target = data.basepoint + np.full(data.n, 0.35 + 0.1j)
    moved = continue_fiber(data, frame, target)
    fresh = critical_points(data, target)
    # same fiber as a set, labels consistent with nearest-point tracking
    dist = np.abs(moved.points[:, 0][:, None] - fresh.points[:, 0][None, :])
    assert dist.min(axis=1).max() < 1e-9
    assert len(set(dist.argmin(axis=1).tolist())) == moved.mu


def test_continuation_seeds_with_tracked_points(monkeypatch):
    # the vertex cloud is built once, for the basepoint fiber; the structure
    # reuses that fiber and continuation starts Newton at the tracked points
    real = matpot.arrangements._vertex_seed_cloud
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(matpot.arrangements, "_vertex_seed_cloud", counting)
    data = _rank2_data()
    F = structure_from_arrangement(data, 2, allow_k_ge_2=True)
    z = data.basepoint + np.array([0.011, -0.007j, 0.004, 0.009j, -0.013, 0.006])
    moved = F.backend.fiber(z)
    assert len(calls) == 1
    fresh = critical_points(data, z)
    assert moved.mu == fresh.mu == 8
    dist = np.linalg.norm(moved.points[:, None, :] - fresh.points[None, :, :], axis=2)
    assert dist.min(axis=1).max() < 1e-8
    assert len(set(dist.argmin(axis=1).tolist())) == moved.mu


def test_frame_jet_matches_richardson_reference(all_structures):
    # degree 1 against differences of the plain evaluators, degree 0
    # against their values, at the basepoint and at one continued fiber
    item4 = structure_from_arrangement(_rank2_data(), 2, allow_k_ge_2=True)
    item4_offset = np.array([0.011, -0.007j, 0.004, 0.009j, -0.013, 0.006])
    rng = np.random.default_rng(4242)
    for F in all_structures + [item4]:
        space = SeriesSpace(F.n, 1)
        x = F.basepoint
        offset = item4_offset if F is item4 else 0.05 * (rng.random(F.n) - 0.5)
        for z in (x, x + offset):
            jets = F.frame_jet(z, space)
            values = (np.array([F.higgs(j, z) for j in F.matroid.ground.labels]), F.unit(z), F.form(z))
            for jet, value, ref in zip(jets, values, richardson_frame_derivatives(F, z)):
                assert jet.shape == value.shape + (space.size,)
                assert np.max(np.abs(jet[..., 0] - value)) <= 1e-9 * max(1.0, np.max(np.abs(value)))
                assert np.max(np.abs(jet[..., space.degree_one] - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_structure_golden_values(fixture_structure):
    backend = fixture_structure.backend
    x = fixture_structure.basepoint
    ones = np.ones(1, dtype=complex)
    p = backend.p_values(x)
    assert np.allclose(p[:, 0], fix2_p(x), atol=1e-12)
    assert abs(backend.diagonal_form(x, [ones, ones]) - fix2_pair_unit(x)) < 1e-10
    assert abs(backend.diagonal_form(x, [p[0] * p[0], ones]) - (-0.5)) < 1e-10
    # the golden values are z-constant where they should be
    for z in [x + np.array([0.2, 0.1]), x + np.array([-0.3, 0.05])]:
        q = backend.p_values(z)
        assert abs(backend.diagonal_form(z, [q[0] * q[0], np.ones(1)]) - (-0.5)) < 1e-10
        assert abs(
            backend.diagonal_form(z, [np.ones(1), np.ones(1)]) - fix2_pair_unit(z)
        ) < 1e-10


def test_higgs_vanishes_on_column_fields(all_structures):
    for F in all_structures:
        backend = F.backend
        for z in [F.basepoint, F.basepoint + 0.11]:
            assert backend.x_field_residual(z) <= 1e-10
            # in the flat frame: sum_i b_i C_i = 0 as matrices
            combo = sum(
                complex(backend.data.B[i - 1, 0]) * F.higgs(i, z)
                for i in F.matroid.ground.labels
            )
            assert np.max(np.abs(combo)) <= 1e-9


def test_flat_sections_have_constant_coordinates(all_structures):
    for F in all_structures:
        backend = F.backend
        samples = [F.basepoint, F.basepoint + 0.13, F.basepoint - 0.07]
        for I in F.maximal_independent_sets():
            coords = []
            for z in samples:
                H, = [[F.higgs(i, z) for i in range(1, F.n + 1)]]
                v = F.unit(z)
                for i in I:
                    v = H[i - 1] @ v
                coords.append(v)
            for v in coords[1:]:
                assert np.max(np.abs(v - coords[0])) < 1e-8


def test_diagonal_frame_exactness(random_k1_structures):
    F = random_k1_structures[0]
    backend = F.backend
    z = F.basepoint
    rng = np.random.default_rng(3)
    h1 = rng.standard_normal(F.mu) + 1j * rng.standard_normal(F.mu)
    h2 = rng.standard_normal(F.mu) + 1j * rng.standard_normal(F.mu)
    P = backend.p_values(z)
    for i in range(F.n):
        left = backend.diagonal_form(z, [P[i] * h1, h2])
        right = backend.diagonal_form(z, [h1, P[i] * h2])
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
    # the flat-frame form tensor is symmetric by construction
    W = F.form(z)
    assert np.max(np.abs(W - W.T)) == 0.0


def test_generation_condition_and_kernel(random_k1_structures):
    for F in random_k1_structures:
        backend = F.backend
        x = F.basepoint
        assert backend.generation_rank(x) == F.mu
        V = backend.section_matrix(x)  # mu x n, columns C_{i}(unit)
        b = backend.data.B[:, 0]
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
        cond = F.backend.pairing_condition(F.basepoint)
        assert np.isfinite(cond) and cond < 1e6


def test_k_ge_2_requires_flag():
    data = ArrangementData(
        [(1, 0), (0, 1), (1, 1), (1, -1)], (1, 1, 1, 1), (0.3, -0.5, 0.9, 1.4)
    )
    with pytest.raises(PreconditionError):
        structure_from_arrangement(data, 2)


@pytest.mark.parametrize("m", [1, 3])
def test_structure_refuses_orders_other_than_two(fixture_data, m):
    # the residue pairing is bilinear: only m = 2 gives a flat form
    with pytest.raises(PreconditionError):
        structure_from_arrangement(fixture_data, m)
    with pytest.raises(PreconditionError):
        structure_from_arrangement(_rank2_data(), m, allow_k_ge_2=True)


def test_k_ge_2_experimental_solver_finds_critical_points():
    data = ArrangementData(
        [(1, 0), (0, 1), (1, 1), (1, -1)], (1, 1, 1, 1), (0.3, -0.5, 0.9, 1.4)
    )
    frame = critical_points(data, data.basepoint)
    assert frame.mu >= 1
    assert frame.residuals.max() <= 1e-9 * 3
    fvals = data.hyperplane_values(data.basepoint, frame.points)
    assert np.min(np.abs(fvals)) > 1e-8
