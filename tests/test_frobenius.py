import ast
import dataclasses
import math
import pathlib
import random
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

import matpot.arrangements
import matpot.findiff
import matpot.frobenius
import matpot.series
from matpot import (
    ArrangementData,
    FlatFrameStructure,
    FlatnessError,
    GroundSetError,
    LinearMatroid,
    PreconditionError,
    SizeLimitError,
    StructureError,
    UniformMatroid,
    WellDefinednessError,
    check_first_kind,
    check_second_kind,
    critical_points,
    find_strong_decomposition,
    first_kind_polynomial,
    second_kind_truncation,
    structure_from_arrangement,
    verify_axioms,
)
from matpot.cli import main
from matpot.frobenius import HomogeneousPolynomial, _factorial_multi
from matpot.series import SeriesSpace

from oracles import (
    brute_good_decompositions,
    brute_second_kind_candidates,
    brute_strong_decompositions,
    exact_k1_pairing_jet,
    locally_related,
    loop_second_kind_table,
    plain_frame,
    plain_pairing,
    remainder_swap_residual,
    tuple_check_first_kind,
    tuple_check_second_kind,
)


def _frame_structure(matroid, m, mu, frame):
    """Structure at basepoint 0 whose jets are those of z-independent data:
    frame(z) gives (H, unit, form) at z; the pairing jet holds each
    pairing's value at the basepoint and the frame jet, for a stack of
    points, the frame at each of them, with no higher terms."""
    basepoint = np.zeros(matroid.ground.n, dtype=complex)

    def jet(space, members):
        out = np.zeros((len(members), space.size), dtype=complex)
        out[:, 0] = [plain_pairing(frame(basepoint), t2) for t2 in members]
        return out

    def frame_jet(points, space):
        return tuple(space.constant(np.array(parts)) for parts in zip(*map(frame, points)))

    return FlatFrameStructure(
        matroid=matroid, m=m, basepoint=basepoint, mu=mu, jet=jet, frame_jet=frame_jet
    )


def _constant_structure(matroid, m, mu, higgs_mats, weights):
    """Structure with z-independent data: diagonal commuting Higgs matrices
    and the weighted evaluation form, which is Higgs-invariant by symmetry."""
    mats = [np.asarray(M, dtype=complex) for M in higgs_mats]
    w = np.asarray(weights, dtype=complex)
    letters = "abcdefgh"[:m]
    subs = ",".join(f"s{c}" for c in letters) + ",s->" + letters
    eye = np.eye(mu, dtype=complex)
    form = np.einsum(subs, *([eye] * m), w)

    return _frame_structure(matroid, m, mu, lambda z: (np.array(mats), np.ones(mu), form))


@pytest.fixture
def constant_structure():
    mats = [np.diag([1.0, 2.0]), np.diag([3.0, -1.0]), np.diag([0.5, 0.5])]
    return _constant_structure(UniformMatroid(1, 3), 2, 2, mats, [1.0, -2.0])


def _corrupted(F):
    """F with the Higgs fields of labels 1 and 2 swapped in both jets."""
    swap = {1: 2, 2: 1}
    order = [swap.get(i, i) - 1 for i in F.matroid.ground.labels]

    def jet(space, members):
        return F.jet(space, [tuple(t2[j] for j in order) for t2 in members])

    def frame_jet(points, space):
        H, u, W = F.frame_jet(points, space)
        return H[:, order], u, W

    return FlatFrameStructure(
        matroid=F.matroid,
        m=F.m,
        basepoint=F.basepoint,
        mu=F.mu,
        jet=jet,
        frame_jet=frame_jet,
    )


def test_constant_structure_has_zero_violations(constant_structure):
    report = verify_axioms(constant_structure, [np.zeros(3), np.full(3, 0.3)])
    assert report.max_violation == 0.0


def test_axiom_report_on_fixture(fixture_structure):
    x = fixture_structure.basepoint
    report = verify_axioms(fixture_structure, [x, x + np.array([0.1, -0.05])])
    assert report.max_violation <= 1e-8
    assert report.samples == 2
    d = report.as_dict()
    assert set(d) == {"commutativity", "integrability", "higgs_invariance",
                      "section_flatness", "form_flatness", "max_violation", "samples"}


def test_corrupted_structure_raises(random_k1_structures):
    # swapping two Higgs matrices on an asymmetric instance breaks
    # integrability; the n=2 fixture is too symmetric to notice the swap
    bad = _corrupted(random_k1_structures[0])
    x = bad.basepoint
    with pytest.raises(StructureError):
        verify_axioms(bad, [x, x + 0.07])


def test_first_kind_fixture_coefficients(fixture_structure):
    Q = first_kind_polynomial(fixture_structure)
    assert set(Q.coefficients) == {(2, 0), (1, 1), (0, 2)}
    assert abs(Q.coefficients[(2, 0)] - (-0.25)) < 1e-10
    assert abs(Q.coefficients[(1, 1)] - 0.5) < 1e-10
    assert abs(Q.coefficients[(0, 2)] - (-0.25)) < 1e-10
    assert Q.degree == 2
    for T in Q.coefficients:
        assert sum(T) == Q.degree


def test_first_kind_defining_property(all_structures):
    for F in all_structures:
        Q = first_kind_polynomial(F)
        assert check_first_kind(F, Q) <= 1e-9


@pytest.mark.parametrize("drift", [1e-5, 1e-12])
def test_first_kind_flags_a_drifting_coefficient(constant_structure, drift):
    # the sections C_T unit of a base sum T are flat, so the pairing jet has
    # no degree-1 terms; one of 1e-5 is a non-flat structure, one of 1e-12
    # is rounding
    F = constant_structure

    def jet(space, members):
        out = F.jet(space, members)
        out[:, space.degree_one[0]] += drift
        return out

    drifting = dataclasses.replace(F, jet=jet)
    if drift > 1e-7:
        with pytest.raises(FlatnessError, match="varies with z"):
            first_kind_polynomial(drifting)
    else:
        assert first_kind_polynomial(drifting).coefficients == first_kind_polynomial(F).coefficients


def test_first_kind_reads_one_pairing_jet(fiber_solves):
    # one degree-1 jet at the basepoint: no frame jet, no fiber solved
    # beyond the basepoint
    calls = []
    F = structure_from_arrangement(_unsolved(_REPRODUCER), 2)
    Q = first_kind_polynomial(_counting(F, calls))
    assert calls == ["jet"]
    assert fiber_solves == [True]
    assert set(Q.coefficients) == set(F.context().base_sums)


def test_first_kind_matches_exact_oracle(all_structures, all_families):
    # every coefficient is the exact Euler-Jacobi pairing of its base sum T
    # at the basepoint, divided by T!
    for F, data in zip(all_structures, all_families):
        Q = first_kind_polynomial(F)
        for T, value in Q.coefficients.items():
            exact = float(_exact_jet(data, T, 0)[(0,) * F.n]) / _factorial_multi(T)
            assert abs(value - exact) <= 1e-12 * abs(exact)


def test_first_kind_coefficients_live_on_strong_systems():
    # k = 2 matroid; all-zero Higgs field is trivially a valid structure
    matroid = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    F = _constant_structure(matroid, 1, 2, [np.zeros((2, 2))] * 3, [1.0, 1.0])
    Q = first_kind_polynomial(F)
    strong = {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert set(Q.coefficients) == strong
    assert all(v == 0 for v in Q.coefficients.values())
    assert check_first_kind(F, Q) == 0.0


def test_zero_higgs_gives_zero_second_kind():
    F = _constant_structure(UniformMatroid(1, 3), 2, 2, [np.zeros((2, 2))] * 3, [1.0, 1.0])
    L = second_kind_truncation(F, 4)
    assert all(v == 0 for v in L.coefficients.values())
    assert L.spread_max == 0.0


def test_second_kind_fixture_values(fixture_structure):
    L = second_kind_truncation(fixture_structure, 5)
    # closed forms at basepoint (1, -1): z1 - z2 = 2
    assert abs(L.coefficient((3, 0)) - (-1.0 / 12.0)) < 1e-9
    assert abs(L.coefficient((2, 1)) - 0.25) < 1e-9
    assert abs(L.coefficient((0, 3)) - (1.0 / 12.0)) < 1e-9
    assert abs(L.coefficient((3, 1)) - (-1.0 / 24.0)) < 1e-8
    # gauge: everything at or below total degree mk is zero
    for T, prov in L.provenance.items():
        if sum(T) <= 2:
            assert prov.kind == "gauge-zero" and L.coefficient(T) == 0
        else:
            assert prov.kind == "averaged"


def test_second_kind_requires_enough_order(fixture_structure):
    with pytest.raises(PreconditionError):
        second_kind_truncation(fixture_structure, 2)


def test_second_kind_defining_property(all_structures):
    for F in all_structures:
        mk = F.m * F.k
        L = second_kind_truncation(F, mk + 3)
        assert L.spread_max <= 1e-6
        assert check_second_kind(F, L) <= 1e-6


def test_second_kind_matches_per_decomposition_oracle(all_structures, all_families):
    # the jet table lists exactly the (alpha, T2) pairs of the brute-force
    # good decompositions, and each value agrees with one Richardson
    # difference of the scalar pairing per decomposition
    for F, data in zip(all_structures, all_families):
        mk = F.m * F.k
        L = second_kind_truncation(F, mk + 3)
        want = brute_second_kind_candidates(F, data, mk + 3)
        assert {T for T in L.provenance if sum(T) > mk} == set(want)
        for T, prov in L.provenance.items():
            if sum(T) <= mk:
                assert prov.kind == "gauge-zero"
                continue
            assert [c[:2] for c in prov.candidates] == [w[:2] for w in want[T]]
            for (_, _, got), (_, _, ref) in zip(prov.candidates, want[T]):
                assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))
            assert prov.kind == ("averaged" if want[T] else "free-zero")


def test_second_kind_jet_candidates_follow_the_good_decompositions(all_structures):
    # the jet path lists exactly the brute-force (T1, T2) pairs, T2 in
    # lexicographic order
    for F in all_structures:
        assert F.jet is not None
        ctx = F.context()
        mk = ctx.m * ctx.k
        L = second_kind_truncation(F, mk + 3)
        for T, prov in L.provenance.items():
            if sum(T) <= mk:
                assert prov.kind == "gauge-zero"
                continue
            want = sorted(brute_good_decompositions(ctx.system(T)), key=lambda d: d[1])
            assert [(alpha, t2) for alpha, t2, _ in prov.candidates] == want
            assert prov.kind == ("averaged" if want else "free-zero")


def test_potentials_make_no_partition_solves(monkeypatch):
    # both tables read the sums of m bases off the structure's one Context
    # instead of asking the strong search which systems are strong
    solves = []
    real = matpot.systems._strong_search

    def counting(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(matpot.systems, "_strong_search", counting)
    F = structure_from_arrangement(_REPRODUCER, 2)
    assert F.context() is F.context()
    first_kind_polynomial(F)
    second_kind_truncation(F, F.m * F.k + 3)
    assert solves == []


def test_second_kind_one_jet_per_table(random_k1_structures, monkeypatch):
    alphas, jets = [], []
    monkeypatch.setattr(matpot.findiff, "multi_partial", lambda f, z, alpha, *a, **k: alphas.append(alpha))

    def counting_jet(space, members):
        jets.append((space.n, space.q, list(members)))
        return F.jet(space, members)

    F = random_k1_structures[1]
    ctx = F.context()
    mk = ctx.m * ctx.k
    second_kind_truncation(dataclasses.replace(F, jet=counting_jet), mk + 3)
    assert alphas == []
    strong = [
        t2
        for t2 in product(range(mk + 2), repeat=F.n)
        if sum(t2) == mk + 1 and brute_strong_decompositions(ctx.system(t2), 1)
    ]
    assert jets == [(F.n, 2, strong)]


def test_second_kind_size_limit():
    # mk = 23: degree 24 reads only the constant term of the jet, degree 25
    # exceeds the bound
    m = 23
    F = _frame_structure(
        UniformMatroid(1, 2), m, 1, lambda z: (np.array([[[1.0]], [[2.0]]]), np.ones(1), np.ones((1,) * m))
    )
    L = second_kind_truncation(F, 24)
    expected = 2**4 / (math.factorial(20) * math.factorial(4))
    assert L.coefficient((20, 4)) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(SizeLimitError, match=r"\|T\| <= 24"):
        second_kind_truncation(F, 25)


def _counting(F, calls):
    """F with every jet call appended to ``calls``."""

    def wrap(name, fn):
        def inner(*args):
            calls.append(name)
            return fn(*args)
        return inner

    return FlatFrameStructure(
        matroid=F.matroid,
        m=F.m,
        basepoint=F.basepoint,
        mu=F.mu,
        jet=None if F.jet is None else wrap("jet", F.jet),
        frame_jet=None if F.frame_jet is None else wrap("frame_jet", F.frame_jet),
    )


def test_second_kind_size_limit_before_any_evaluation(fixture_structure):
    calls = []
    F = _counting(fixture_structure, calls)
    with pytest.raises(SizeLimitError, match=r"\|T\| <= 24"):
        second_kind_truncation(F, 25)
    assert calls == []
    second_kind_truncation(F, 4)
    assert calls


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_second_kind_rejects_bad_spread_tol(fixture_structure, tol):
    calls = []
    with pytest.raises(PreconditionError, match="spread_tol"):
        second_kind_truncation(_counting(fixture_structure, calls), 4, spread_tol=tol)
    assert calls == []


@pytest.mark.parametrize("n_max", [4.0, True, "4"])
def test_second_kind_rejects_non_integer_n_max(fixture_structure, n_max):
    calls = []
    with pytest.raises(PreconditionError, match="n_max must be an integer"):
        second_kind_truncation(_counting(fixture_structure, calls), n_max)
    assert calls == []


def test_second_kind_needs_a_jet(fixture_structure):
    calls = []
    F = dataclasses.replace(_counting(fixture_structure, calls), jet=None)
    with pytest.raises(PreconditionError, match="jet"):
        second_kind_truncation(F, 4)
    # the first-kind coefficients read the same pairing jet
    with pytest.raises(PreconditionError, match="jet"):
        first_kind_polynomial(F)
    assert calls == []


def test_verify_axioms_rejects_empty_samples(fixture_structure):
    calls = []
    with pytest.raises(PreconditionError, match="at least one sample"):
        verify_axioms(_counting(fixture_structure, calls), [], hard_threshold=None)
    assert calls == []


@pytest.mark.parametrize("threshold", [math.nan, -1.0])
def test_verify_axioms_rejects_bad_hard_threshold(fixture_structure, threshold):
    # a NaN threshold used to disable the check and a negative one to blame
    # a perfect structure with StructureError
    calls = []
    F = _counting(fixture_structure, calls)
    with pytest.raises(PreconditionError, match="hard_threshold"):
        verify_axioms(F, [F.basepoint], hard_threshold=threshold)
    assert calls == []
    for valid in (None, math.inf):
        assert verify_axioms(F, [F.basepoint], hard_threshold=valid).max_violation <= 1e-10


@pytest.mark.parametrize("point, shape_error", [
    (lambda x: x[:-1], True),
    (lambda x: x[None], True),
    (lambda x: np.where(np.arange(len(x)) == 1, np.nan, x), False),
    (lambda x: np.where(np.arange(len(x)) == 0, np.inf, x), False),
], ids=["wrong-length", "2-D", "NaN", "inf"])
def test_malformed_points_get_structured_errors(fixture_structure, fixture_data, point, shape_error):
    # a point of the wrong shape or with a non-finite coordinate is refused
    # before any evaluation, with the ground-set refusal of the family's
    # basepoint: no numpy ValueError, no RuntimeWarning, no discriminant
    # answer
    z = point(fixture_structure.basepoint)
    calls = []
    message = "must have 2 coordinates" if shape_error else "must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GroundSetError, match=message):
            verify_axioms(_counting(fixture_structure, calls), [fixture_structure.basepoint + 0.01, z])
        with pytest.raises(GroundSetError, match=message):
            critical_points(fixture_data, z)
    assert calls == []


def test_verify_axioms_needs_a_frame_jet(fixture_structure):
    calls = []
    F = dataclasses.replace(_counting(fixture_structure, calls), frame_jet=None)
    with pytest.raises(PreconditionError, match="frame_jet"):
        verify_axioms(F, [F.basepoint], hard_threshold=None)
    assert calls == []
    # both checks read the flat frame from the constant terms of a frame jet
    Q, L = first_kind_polynomial(fixture_structure), second_kind_truncation(fixture_structure, 4)
    with pytest.raises(PreconditionError, match="frame_jet"):
        check_first_kind(F, Q)
    with pytest.raises(PreconditionError, match="frame_jet"):
        check_second_kind(F, L)
    assert calls == []


def test_remainder_swap_needs_a_jet(fixture_structure):
    calls = []
    F = dataclasses.replace(_counting(fixture_structure, calls), jet=None)
    with pytest.raises(PreconditionError, match="jet"):
        remainder_swap_residual(F, F.context().system((2, 1)), 1, 2)
    assert calls == []


def _samples(F, count, seed):
    x = F.basepoint
    rng = np.random.default_rng(seed)
    scale = 0.08 * (1.0 + F.scale())
    return [x] + [x + scale * (rng.random(F.n) - 0.5) for _ in range(count)]


def test_axiom_violations_below_1e_10(all_structures):
    # tighter than the acceptance bound of 1e-7 per measure: the degree-1
    # frame jets carry no truncation error
    for F in all_structures:
        report = verify_axioms(F, _samples(F, 2, 1999), hard_threshold=None)
        assert report.max_violation <= 1e-10


def test_no_package_module_imports_findiff():
    # findiff is the tests' Richardson reference; the package __init__
    # imports it only so that the benchmark tracer finds the module
    for path in pathlib.Path(matpot.frobenius.__file__).parent.glob("*.py"):
        if path.name in ("__init__.py", "findiff.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any("findiff" in name for name in names), path.name


def test_checks_take_no_differences_and_one_fiber_per_sample(monkeypatch, fiber_solves):
    partials = []
    monkeypatch.setattr(matpot.findiff, "multi_partial", lambda *a, **k: partials.append(a))
    F = structure_from_arrangement(_unsolved(_REPRODUCER), 2)
    samples = _samples(F, 3, 7)
    verify_axioms(F, samples)
    # the basepoint fiber is the structure's own; every other sample is
    # solved once
    assert fiber_solves.count(True) == 1 and len(fiber_solves) == len(samples)
    T2 = F.context().system((2, 1, 0, 0, 0))
    assert remainder_swap_residual(F, T2, 1, 2) <= 1e-10
    assert partials == []


def test_verify_axioms_rejects_nonfinite_violation():
    # finite data at the first sample and NaN at the second: a running
    # max(x, nan) keeps x, so the NaN used to read as a pass
    def frame(z):
        H = np.array([[[math.nan if z[0].real > 0.5 else float(i)]] for i in (1, 2)])
        return H, np.ones(1), np.ones((1, 1))

    F = _frame_structure(UniformMatroid(1, 2), 2, 1, frame)
    samples = [np.zeros(2), np.ones(2)]
    assert verify_axioms(F, samples[:1]).max_violation == 0.0
    for threshold in (None, 1e-3, math.inf):
        with pytest.raises(StructureError, match="not finite") as info:
            verify_axioms(F, samples, hard_threshold=threshold)
        assert math.isnan(info.value.report.max_violation)


def test_locally_related_candidates_agree_before_averaging(random_k1_structures):
    from matpot import all_good_decompositions

    F = random_k1_structures[1]
    ctx = F.context()
    L = second_kind_truncation(F, F.m * F.k + 3)
    checked = 0
    for T, prov in L.provenance.items():
        if prov.kind != "averaged" or len(prov.candidates) < 2:
            continue
        goods = {g.T2.mult: g for g in all_good_decompositions(ctx.system(T))}
        cands = list(prov.candidates)
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                a1, t2a, va = cands[i]
                a2, t2b, vb = cands[j]
                if locally_related(goods[t2a], goods[t2b]):
                    assert abs(va - vb) <= 1e-6
                    checked += 1
    assert checked > 0


def test_fd_convergence_second_order(fixture_structure, fixture_data):
    # halving the step shrinks the plain central-difference error about
    # fourfold; reference is the closed form d/dz1 of 1/(z1 - z2)
    from matpot.findiff import multi_partial_fd

    F = fixture_structure
    x = F.basepoint
    exact = -1.0 / (x[0] - x[1]) ** 2

    def err(h):
        fd = multi_partial_fd(lambda z: plain_pairing(plain_frame(fixture_data, z), (2, 1)), x, (1, 0), h)
        return abs(fd - exact)

    assert err(2e-2) / err(1e-2) == pytest.approx(4.0, rel=0.3)


def test_remainder_swap_residual(fixture_structure):
    ctx = fixture_structure.context()
    T2 = ctx.system((2, 1))
    assert remainder_swap_residual(fixture_structure, T2, 1, 1) == 0.0
    assert remainder_swap_residual(fixture_structure, T2, 1, 2) <= 1e-7
    assert remainder_swap_residual(fixture_structure, T2, 2, 1) <= 1e-7


def test_remainder_swap_residual_detects_corruption(random_k1_structures):
    bad = _corrupted(random_k1_structures[0])
    ctx = bad.context()
    mult = [0] * bad.n
    mult[0], mult[1] = 2, 1
    residual = remainder_swap_residual(bad, ctx.system(tuple(mult)), 2, 1)
    assert residual > 1e-3


def test_remainder_swap_preconditions(fixture_structure):
    ctx = fixture_structure.context()
    with pytest.raises(PreconditionError):
        # label 2 does not occur in (3, 0)
        remainder_swap_residual(fixture_structure, ctx.system((3, 0)), 2, 1)
    matroid = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    F = _constant_structure(matroid, 1, 2, [np.zeros((2, 2))] * 3, [1.0, 1.0])
    ctx2 = F.context()
    with pytest.raises(PreconditionError):
        # (2, 1, 0) minus one unit of label 2 leaves (2, 0, 0): not a base
        remainder_swap_residual(F, ctx2.system((2, 1, 0)), 2, 1)


def test_truncated_potential_interface(fixture_structure):
    L = second_kind_truncation(fixture_structure, 4)
    D = (3, 0)
    assert L.derivative_at_basepoint(D) == L.coefficient(D) * math.factorial(3)
    assert L.evaluate(fixture_structure.basepoint) == 0
    with pytest.raises(PreconditionError):
        L.derivative_at_basepoint((5, 0))


_BAD_MULTI_INDEX = (PreconditionError, "need a multi-index of 2")
_BAD_POINT = (GroundSetError, "basepoint must have 2 coordinates")
_MALFORMED = [
    ("Q", "partial_derivative_value", ((1,), (1, -1)), _BAD_MULTI_INDEX),
    ("Q", "partial_derivative_value", ((1, -1), (1, -1)), _BAD_MULTI_INDEX),
    ("Q", "partial_derivative_value", ((1.0, 0), (1, -1)), _BAD_MULTI_INDEX),
    ("Q", "partial_derivative_value", ((1, 0), (1, -1, 0)), _BAD_POINT),
    ("Q", "evaluate", ([2.0],), _BAD_POINT),
    ("Q", "coefficient", ((2,),), _BAD_MULTI_INDEX),
    ("L", "coefficient", ((3,),), _BAD_MULTI_INDEX),
    ("L", "coefficient", ((3, 0, 0),), _BAD_MULTI_INDEX),
    ("L", "derivative_at_basepoint", ((4, -1),), _BAD_MULTI_INDEX),
    ("L", "derivative_at_basepoint", ((2.5, 0),), _BAD_MULTI_INDEX),
    ("L", "evaluate", ([2.0],), _BAD_POINT),
    ("L", "evaluate", ([[1.0, -1.0]],), _BAD_POINT),
]


@pytest.mark.parametrize(
    "owner,method,args,refusal", _MALFORMED,
    ids=[f"{owner}-{method}-args{i}" for i, (owner, method, _, _) in enumerate(_MALFORMED)],
)
def test_malformed_multi_index_or_point(fixture_structure, owner, method, args, refusal):
    # n = 2: a short multi-index or point used to be zipped away silently; a
    # bad point gets the ground-set refusal of a family's basepoint
    potential = {"Q": first_kind_polynomial, "L": lambda F: second_kind_truncation(F, 4)}[owner]
    error, message = refusal
    with pytest.raises(error, match=message):
        getattr(potential(fixture_structure), method)(*args)


@pytest.mark.parametrize("owner,method,args", [
    ("L", "evaluate", ([1e200, 1.0],)),
    ("Q", "evaluate", ([1e200, 1.0],)),
    ("Q", "evaluate", ([1e155, 1e155],)),
    ("Q", "partial_derivative_value", ((0, 0), [1e200, 1e-200])),
])
def test_evaluation_that_overflows_is_refused_without_warning(fixture_structure, owner, method, args):
    # w**t overflows at a large finite point and inf * 0 or inf - inf made a
    # silent (nan+nanj) with RuntimeWarnings; the refusal names the overflow
    potential = {"Q": first_kind_polynomial, "L": lambda F: second_kind_truncation(F, 4)}[owner](fixture_structure)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="overflows: the point is too large to evaluate"):
            getattr(potential, method)(*args)
    # below the overflow the values stay finite: Q = -(z1 - z2)^2 / 4 here
    Q = first_kind_polynomial(fixture_structure)
    assert Q.evaluate([1e154, 1e154]) == 0
    assert Q.partial_derivative_value((1, 0), [1e200, 1e-200]) == pytest.approx(-5e199)
    assert np.isfinite(second_kind_truncation(fixture_structure, 4).evaluate([1e77, 1.0]))


def test_homogeneous_polynomial_exact_derivatives():
    # Q = z1^2 z2 + 2 z2^3: checked against hand-computed mixed derivatives
    Q = HomogeneousPolynomial(n=2, degree=3, coefficients={(2, 1): 1.0, (0, 3): 2.0})
    z = np.array([1.5, -0.5])
    assert Q.evaluate(z) == pytest.approx(1.5**2 * -0.5 + 2 * (-0.5) ** 3)
    assert Q.partial_derivative_value((1, 0), z) == pytest.approx(2 * 1.5 * -0.5)
    assert Q.partial_derivative_value((2, 1), z) == pytest.approx(2.0)
    assert Q.partial_derivative_value((0, 3), z) == pytest.approx(12.0)
    assert Q.partial_derivative_value((3, 0), z) == 0.0


def test_verify_axioms_flags_nonflat_frame():
    # a frame in which the "flat" sections visibly rotate with z
    matroid = UniformMatroid(1, 2)

    def higgs(i, z):
        # C_1 depends on z2 while C_2 is constant: integrability fails
        return np.array([[z[1] if i == 1 else 0.0]])

    def frame_jet(points, space):
        # the linear jet of that data at each point: d C_1 / d z_2 = 1, all
        # else constant
        H = space.constant(np.array([[higgs(1, z), higgs(2, z)] for z in points]))
        H[:, 0, 0, 0, space.index[(0, 1)]] = 1.0
        return H, space.constant(np.ones((len(points), 1))), space.constant(np.ones((len(points), 1, 1)))

    F = FlatFrameStructure(
        matroid=matroid,
        m=2,
        basepoint=np.array([1.0, -1.0]),
        mu=1,
        frame_jet=frame_jet,
    )
    report = verify_axioms(F, [F.basepoint], hard_threshold=None)
    assert report.section_flatness > 1e-3
    assert report.integrability > 1e-3


# the ROADMAP item-5 reproducer: nested differences gave a spread of 1.0e-6
_REPRODUCER = ArrangementData([[1], [1], [2], [2], [1]], [2, 4, 1, 3, 1], [0.688, -1.435, -1.47, 0.752, -0.422])


def _unsolved(data):
    """The same family anew: a family solves its basepoint fiber once, so a
    test that counts that solve needs one that has not solved it yet."""
    return ArrangementData(data.matrix, data.weights, data.basepoint)


def _strong_members(F):
    ctx = F.context()
    mk = ctx.m * ctx.k
    return [
        t2
        for t2 in product(range(mk + 2), repeat=F.n)
        if sum(t2) == mk + 1 and find_strong_decomposition(ctx.system(t2), 1) is not None
    ]


def _exact_jet(data, t2, q):
    return exact_k1_pairing_jet(
        [row[0] for row in data.matrix], data.weights, [v.real for v in data.basepoint], t2, q
    )


def test_pairing_jets_match_exact_oracle(all_structures, all_families):
    # q = 3; tolerance relative to the largest coefficient of the
    # structure's jets, which every jet is computed alongside
    for F, data in zip(all_structures, all_families):
        members = _strong_members(F)
        space = SeriesSpace(F.n, 3)
        jets = F.jet(space, members)
        scale = max(1.0, float(np.max(np.abs(jets))))
        picks = range(len(members)) if F.n == 2 else (0, len(members) // 2, len(members) - 1)
        for j in picks:
            for alpha, value in _exact_jet(data, members[j], 3).items():
                assert abs(jets[j, space.index[alpha]] - float(value)) <= 1e-12 * scale
        # every member's constant term is the plain flat-frame pairing at x
        frame = plain_frame(data, F.basepoint)
        for j, t2 in enumerate(members):
            assert abs(jets[j, 0] - plain_pairing(frame, t2)) <= 1e-12 * scale


def test_reproducer_coefficient_is_exactly_zero():
    F = structure_from_arrangement(_REPRODUCER, 2)
    T = (1, 3, 0, 1, 1)
    L = second_kind_truncation(F, 6)
    assert L.spread_max <= 1e-10
    assert abs(L.coefficient(T)) <= 1e-12
    members = _strong_members(F)
    space = SeriesSpace(F.n, 3)
    jets = F.jet(space, members)
    scale = max(1.0, float(np.max(np.abs(jets))))
    for t2 in [(0, 1, 0, 1, 1), (1, 2, 0, 0, 0)]:
        exact = _exact_jet(_REPRODUCER, t2, 3)
        alpha = tuple(a - b for a, b in zip(T, t2))
        assert exact[alpha] == 0
        j = members.index(t2)
        for beta, value in exact.items():
            assert abs(jets[j, space.index[beta]] - float(value)) <= 1e-12 * scale


def test_second_kind_spread_at_order_mk_plus_5(random_k1_structures):
    # series Newton nested in Newton reciprocals read 2.3e-12 and 2.1e-13
    for F, bound in [(F, 1e-12) for F in random_k1_structures] + [
        (structure_from_arrangement(_REPRODUCER, 2), 1.5e-13)
    ]:
        L = second_kind_truncation(F, F.m * F.k + 5)
        assert L.spread_max <= bound
        assert check_second_kind(F, L) <= 1e-10


# the ROADMAP item-2 n = 4 instance, whose jets lost accuracy with the order
_N4 = ArrangementData([[1], [2], [1], [3]], [1, 2, 3, 1], [0.3, -1.1, 0.9, -0.2])


def test_jet_top_degree_matches_exact_oracle_at_order_6():
    # relative to the largest exact coefficient of degree 6; series Newton
    # nested in Newton reciprocals read 4.2e-12
    F = structure_from_arrangement(_N4, 2)
    T2 = (0, 0, 1, 2)
    space = SeriesSpace(F.n, 6)
    jet = F.jet(space, [T2])[0]
    exact = {alpha: float(v) for alpha, v in _exact_jet(_N4, T2, 6).items() if sum(alpha) == 6}
    want = np.array(list(exact.values()))
    got = jet[[space.index[alpha] for alpha in exact]]
    assert np.abs(got - want).max() <= 1.5e-12 * np.abs(want).max()


@pytest.mark.parametrize("data,n_max", [(_N4, 18), (_REPRODUCER, 14)])
def test_second_kind_holds_at_high_orders(data, n_max):
    # series Newton nested in Newton reciprocals raised WellDefinednessError
    # here (spreads 2.4e-6 and 1.1e-6), from roundoff, not from the structure
    L = second_kind_truncation(structure_from_arrangement(data, 2), n_max)
    assert L.spread_max <= 1e-6


def test_jet_size_limit_before_any_evaluation(random_k1_structures):
    calls = []
    F = random_k1_structures[1]
    assert F.n == 4
    counted = dataclasses.replace(_counting(F, calls), jet=lambda space, members: calls.append("jet"))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="product table"):
            second_kind_truncation(counted, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 64 * 1024


def _noise_structure(matroid, m, seed):
    """Structure whose pairing jet is seeded noise, with exact zeros of both
    signs in both parts, so candidates disagree and signed zeros meet every
    division and sum of the table."""

    def jet(space, members):
        rng = np.random.default_rng(seed)
        out = rng.standard_normal((len(members), space.size)) + 1j * rng.standard_normal((len(members), space.size))
        out.real[::3, ::2] = -0.0
        out.real[1::4] = 0.0
        out.imag[1::3] = 0.0
        out.imag[2::3, ::2] = -0.0
        return out

    return FlatFrameStructure(
        matroid=matroid, m=m, basepoint=np.zeros(matroid.ground.n), mu=1, jet=jet
    )


def test_second_kind_table_equals_the_per_T_loop(all_structures):
    # bit for bit (repr round-trips every float): coefficients, spreads,
    # kinds and candidates in order, on the arrangement structures and on a
    # noise jet over a rank-2 matroid with a parallel class, whose T with
    # no member below them are free zeros
    cases = [(F, F.m * F.k + 3, 1e-6) for F in all_structures]
    cases.append((structure_from_arrangement(_REPRODUCER, 2), 7, 1e-6))
    parallel = LinearMatroid([(1, 0), (1, 0), (0, 1)])
    cases.append((_noise_structure(parallel, 2, 5), 7, 1e300))
    kinds = set()
    for F, n_max, tol in cases:
        L = second_kind_truncation(F, n_max, tol)
        coefficients, provenance = loop_second_kind_table(F, n_max, tol)
        assert repr(list(L.coefficients.items())) == repr(list(coefficients.items()))
        # spread_max is stored with the table, and it is that of the
        # provenance, which only the first read of it builds
        spread_max = L.spread_max
        assert "provenance" not in vars(L)
        assert repr(list(L.provenance.items())) == repr(list(provenance.items()))
        assert repr(spread_max) == repr(max(p.spread for p in L.provenance.values()))
        kinds |= {p.kind for p in provenance.values()}
    assert kinds == {"gauge-zero", "free-zero", "averaged"}


def test_provenance_is_built_on_first_read(capsys, monkeypatch, tmp_path):
    # the table, its check and the CLI construct no provenance; the first
    # read builds it once, and later reads return the same mapping
    made = []
    real = matpot.frobenius.CoefficientProvenance

    def counting(*args, **kwargs):
        made.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(matpot.frobenius, "CoefficientProvenance", counting)
    F = structure_from_arrangement(_REPRODUCER, 2)
    L = second_kind_truncation(F, 7)
    check_second_kind(F, L)
    path = tmp_path / "input.json"
    path.write_text('{"B":[[1],[1],[2],[2],[1]],"a":[2,4,1,3,1],"x":[0.688,-1.435,-1.47,0.752,-0.422],'
                    '"m":2,"N_max":7}')
    assert main(["potentials", "-i", str(path)]) == 0
    assert '"spread_max":' in capsys.readouterr().out
    assert made == []
    provenance, built = L.provenance, len(made)
    assert built and L.provenance is provenance and len(made) == built
    assert [p.kind for p in provenance.values()].count("averaged") == made.count("averaged")


def test_second_kind_error_equals_the_per_T_loop(random_k1_structures):
    F = random_k1_structures[1]

    def jet(space, members):
        out = F.jet(space, members)
        out[len(members) // 2] *= 1.001
        return out

    corrupted = dataclasses.replace(F, jet=jet)
    n_max = F.m * F.k + 3
    with pytest.raises(WellDefinednessError) as want:
        loop_second_kind_table(corrupted, n_max)
    with pytest.raises(WellDefinednessError) as got:
        second_kind_truncation(corrupted, n_max)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("row", [0, -1])
def test_second_kind_refuses_a_nan_candidate(fixture_structure, row):
    # a NaN candidate makes its spread NaN, which fails the check instead of
    # averaging into a NaN coefficient (the fixture's T have one or two
    # candidates)
    def jet(space, members):
        out = fixture_structure.jet(space, members)
        out[row, -1] = np.nan
        return out

    with pytest.raises(WellDefinednessError, match="disagree by nan"):
        second_kind_truncation(dataclasses.replace(fixture_structure, jet=jet), 5)


def test_checks_match_the_per_tuple_reference(all_structures):
    for F in all_structures:
        Q = first_kind_polynomial(F)
        L = second_kind_truncation(F, F.m * F.k + 3)
        scale = max(
            1.0,
            max(abs(c) * _factorial_multi(T) for T, c in Q.coefficients.items()),
            max(abs(c) * _factorial_multi(T) for T, c in L.coefficients.items() if sum(T) == F.m * F.k + 1),
        )
        assert abs(check_first_kind(F, Q) - tuple_check_first_kind(F, Q)) <= 1e-13 * scale
        assert abs(check_second_kind(F, L) - tuple_check_second_kind(F, L)) <= 1e-13 * scale


def test_checks_see_a_perturbed_coefficient(random_k1_structures):
    # mutation guard: a 1e-6 change of one coefficient with T! >= 2 moves
    # the reported defect to at least 1e-6
    F = random_k1_structures[1]
    mk = F.m * F.k
    Q = first_kind_polynomial(F)
    L = second_kind_truncation(F, mk + 1)
    assert check_first_kind(F, Q) < 1e-10 and check_second_kind(F, L) < 1e-10
    T = max(Q.coefficients, key=_factorial_multi)
    Q.coefficients[T] += 1e-6
    assert check_first_kind(F, Q) >= 1e-6
    T = max((T for T in L.coefficients if sum(T) == mk + 1), key=_factorial_multi)
    L.coefficients[T] += 1e-6
    assert check_second_kind(F, L) >= 1e-6


def test_checks_share_one_basepoint_frame(fixture_structure, random_k1_structures):
    # both checks read the constant terms of the structure's one degree-1
    # frame jet at the basepoint, and get the bytes of a frame evaluated for
    # each check alone
    calls = []
    F = _counting(fixture_structure, calls)
    Q, L = first_kind_polynomial(F), second_kind_truncation(F, 5)
    del calls[:]
    check_first_kind(F, Q)
    check_second_kind(F, L)
    assert calls == ["frame_jet"]
    for F in (fixture_structure, random_k1_structures[1]):
        Q, L = first_kind_polynomial(F), second_kind_truncation(F, F.m * F.k + 2)
        shared = (check_first_kind(F, Q), check_second_kind(F, L))
        alone = (check_first_kind(_counting(F, []), Q), check_second_kind(_counting(F, []), L))
        assert repr(shared) == repr(alone)


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_one_basepoint_frame_and_two_spaces_per_op(monkeypatch, fiber_solves, extra):
    # a benchmark-shaped op (the structure, verify_axioms with the basepoint
    # as first sample, both potentials, both checks) makes two frame-jet
    # calls: one stack of every sample in the order given for verify_axioms,
    # then the basepoint alone for both checks; it builds at most two series
    # spaces (degree 1 and the second kind's n_max - mk - 1) and solves each
    # sample fiber once (the basepoint's when the structure is built);
    # frame jets and fibers are counted per point
    frames, calls, spaces = [], [], []
    real_frame_jet = matpot.arrangements.ArrangementData.frame_jet
    real_init = matpot.series.SeriesSpace.__init__

    def frame_jet(self, points, space):
        frames.extend(np.array_equal(z, self.basepoint) for z in points)
        calls.append(len(points))
        return real_frame_jet(self, points, space)

    def init(self, n, q):
        spaces.append(q)
        real_init(self, n, q)

    monkeypatch.setattr(matpot.arrangements.ArrangementData, "frame_jet", frame_jet)
    monkeypatch.setattr(matpot.series.SeriesSpace, "__init__", init)
    F = structure_from_arrangement(_unsolved(_REPRODUCER), 2)
    samples = _samples(F, 2, 11)
    verify_axioms(F, samples)
    Q, L = first_kind_polynomial(F), second_kind_truncation(F, F.m * F.k + extra)
    check_first_kind(F, Q)
    check_second_kind(F, L)
    assert frames == [np.array_equal(z, F.basepoint) for z in samples] + [True]
    assert calls == [len(samples), 1]
    assert sorted(set(spaces)) == sorted(spaces) and len(spaces) <= 2
    assert fiber_solves.count(True) == 1 and len(fiber_solves) == len(samples)


def test_each_basepoint_series_and_sections_once_per_op(monkeypatch):
    # a benchmark-shaped op takes the series of every verify_axioms sample
    # in one stack, the basepoint's from its base frame, then the base
    # frame's series once per degree (the degree-1 pairing jets and the
    # checks' basepoint frame jet share it); it multiplies out the sections
    # C_I (unit) once for the stack of samples and once for the basepoint
    # frame that both checks share
    series, sections = [], []
    real_series = matpot.arrangements.ArrangementData._series_fiber
    real_sections = matpot.frobenius._flat_sections

    def recording_series(self, space, frames):
        series.append((space.q, [frame is self.base_frame for frame in frames]))
        return real_series(self, space, frames)

    def recording_sections(F, H, u, space):
        sections.append(len(u))
        return real_sections(F, H, u, space)

    monkeypatch.setattr(matpot.arrangements.ArrangementData, "_series_fiber", recording_series)
    monkeypatch.setattr(matpot.frobenius, "_flat_sections", recording_sections)
    F = structure_from_arrangement(_unsolved(_REPRODUCER), 2)
    verify_axioms(F, _samples(F, 2, 11))
    Q, L = first_kind_polynomial(F), second_kind_truncation(F, F.m * F.k + 3)
    check_first_kind(F, Q)
    check_second_kind(F, L)
    assert series == [(1, [True, False, False]), (1, [True]), (2, [True])]
    assert sections == [3, 1]


def test_check_first_kind_needs_degree_mk(fixture_structure):
    F = fixture_structure
    for n, degree in [(F.n, F.m * F.k + 1), (F.n + 1, F.m * F.k)]:
        with pytest.raises(PreconditionError):
            check_first_kind(F, HomogeneousPolynomial(n=n, degree=degree, coefficients={}))
