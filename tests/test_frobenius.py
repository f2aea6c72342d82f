import ast
import dataclasses
import math
import pathlib
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

import matpot.arrangements
import matpot.findiff
import matpot.frobenius
from matpot import (
    ArrangementData,
    FlatFrameStructure,
    LinearMatroid,
    PreconditionError,
    SizeLimitError,
    StructureError,
    UniformMatroid,
    check_first_kind,
    check_second_kind,
    find_strong_decomposition,
    first_kind_polynomial,
    remainder_swap_residual,
    second_kind_truncation,
    structure_from_arrangement,
    verify_axioms,
)
from matpot.frobenius import HomogeneousPolynomial, _EvalCache, pairing_with_unit
from matpot.series import SeriesSpace

from oracles import (
    brute_good_decompositions,
    brute_second_kind_candidates,
    brute_strong_decompositions,
    exact_k1_pairing_jet,
)


def _with_constant_jet(F):
    """F with the jets of z-independent data: each pairing's value at the
    basepoint, and the frame (H, unit, form) at each sample point, with no
    higher terms."""
    cache = _EvalCache(F)

    def jet(space, members):
        out = np.zeros((len(members), space.size), dtype=complex)
        out[:, 0] = [pairing_with_unit(cache, t2, F.basepoint) for t2 in members]
        return out

    def frame_jet(z, space):
        H, u, W = cache.at(z)
        return space.constant(np.array(H)), space.constant(u), space.constant(W)

    return dataclasses.replace(F, jet=jet, frame_jet=frame_jet)


def _constant_structure(matroid, m, mu, higgs_mats, weights):
    """Structure with z-independent data: diagonal commuting Higgs matrices
    and the weighted evaluation form, which is Higgs-invariant by symmetry."""
    mats = [np.asarray(M, dtype=complex) for M in higgs_mats]
    w = np.asarray(weights, dtype=complex)
    letters = "abcdefgh"[:m]
    subs = ",".join(f"s{c}" for c in letters) + ",s->" + letters
    eye = np.eye(mu, dtype=complex)
    form = np.einsum(subs, *([eye] * m), w)

    return _with_constant_jet(FlatFrameStructure(
        matroid=matroid,
        m=m,
        basepoint=np.zeros(matroid.ground.n, dtype=complex),
        mu=mu,
        higgs=lambda i, z: mats[i - 1],
        unit=lambda z: np.ones(mu, dtype=complex),
        form=lambda z: form,
    ))


@pytest.fixture
def constant_structure():
    mats = [np.diag([1.0, 2.0]), np.diag([3.0, -1.0]), np.diag([0.5, 0.5])]
    return _constant_structure(UniformMatroid(1, 3), 2, 2, mats, [1.0, -2.0])


def _corrupted(F):
    """F with the Higgs fields of labels 1 and 2 swapped, in the evaluators
    and in both jets."""
    swap = {1: 2, 2: 1}
    order = [swap.get(i, i) - 1 for i in F.matroid.ground.labels]

    def jet(space, members):
        return F.jet(space, [tuple(t2[j] for j in order) for t2 in members])

    def frame_jet(z, space):
        H, u, W = F.frame_jet(z, space)
        return H[order], u, W

    return FlatFrameStructure(
        matroid=F.matroid,
        m=F.m,
        basepoint=F.basepoint,
        mu=F.mu,
        higgs=lambda i, z: F.higgs(swap.get(i, i), z),
        unit=F.unit,
        form=F.form,
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


def test_second_kind_matches_per_decomposition_oracle(all_structures):
    # the jet table lists exactly the (alpha, T2) pairs of the brute-force
    # good decompositions, and each value agrees with one Richardson
    # difference of the scalar pairing per decomposition
    for F in all_structures:
        mk = F.m * F.k
        L = second_kind_truncation(F, mk + 3)
        want = brute_second_kind_candidates(F, mk + 3)
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
    # instead of asking the partition solver which systems are strong
    solves = []
    real = matpot.systems.solve_partition

    def counting(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(matpot.systems, "solve_partition", counting)
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
    F = _with_constant_jet(FlatFrameStructure(
        matroid=UniformMatroid(1, 2),
        m=m,
        basepoint=np.zeros(2),
        mu=1,
        higgs=lambda i, z: np.array([[float(i)]]),
        unit=lambda z: np.ones(1, dtype=complex),
        form=lambda z: np.ones((1,) * m, dtype=complex),
    ))
    L = second_kind_truncation(F, 24)
    expected = 2**4 / (math.factorial(20) * math.factorial(4))
    assert L.coefficient((20, 4)) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(SizeLimitError, match=r"\|T\| <= 24"):
        second_kind_truncation(F, 25)


def _counting(F, calls):
    """F with every evaluator and jet call appended to ``calls``."""

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
        higgs=wrap("higgs", F.higgs),
        unit=wrap("unit", F.unit),
        form=wrap("form", F.form),
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
    assert calls == []


def test_verify_axioms_rejects_empty_samples(fixture_structure):
    calls = []
    with pytest.raises(PreconditionError, match="at least one sample"):
        verify_axioms(_counting(fixture_structure, calls), [], hard_threshold=None)
    assert calls == []


def test_verify_axioms_needs_a_frame_jet(fixture_structure):
    calls = []
    F = dataclasses.replace(_counting(fixture_structure, calls), frame_jet=None)
    with pytest.raises(PreconditionError, match="frame_jet"):
        verify_axioms(F, [F.basepoint], hard_threshold=None)
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


def test_checks_take_no_differences_and_one_fiber_per_sample(monkeypatch):
    partials, continuations = [], []
    monkeypatch.setattr(matpot.findiff, "multi_partial", lambda *a, **k: partials.append(a))
    real = matpot.arrangements.continue_fiber

    def counting(data, frame, z):
        continuations.append(z)
        return real(data, frame, z)

    monkeypatch.setattr(matpot.arrangements, "continue_fiber", counting)
    F = structure_from_arrangement(_REPRODUCER, 2)
    samples = _samples(F, 3, 7)
    verify_axioms(F, samples)
    # the basepoint fiber is the structure's own; every other sample is
    # continued to once
    assert len(continuations) <= len(samples) - 1
    T2 = F.context().system((2, 1, 0, 0, 0))
    assert remainder_swap_residual(F, T2, 1, 2) <= 1e-10
    assert partials == []


def test_verify_axioms_rejects_nonfinite_violation():
    # finite data at the first sample and NaN at the second: a running
    # max(x, nan) keeps x, so the NaN used to read as a pass
    def higgs(i, z):
        return np.array([[math.nan if z[0].real > 0.5 else float(i)]])

    F = _with_constant_jet(FlatFrameStructure(
        matroid=UniformMatroid(1, 2),
        m=2,
        basepoint=np.zeros(2),
        mu=1,
        higgs=higgs,
        unit=lambda z: np.ones(1, dtype=complex),
        form=lambda z: np.ones((1, 1), dtype=complex),
    ))
    samples = [np.zeros(2), np.ones(2)]
    assert verify_axioms(F, samples[:1]).max_violation == 0.0
    for threshold in (None, 1e-3, math.inf):
        with pytest.raises(StructureError, match="not finite") as info:
            verify_axioms(F, samples, hard_threshold=threshold)
        assert math.isnan(info.value.report.max_violation)


def test_locally_related_candidates_agree_before_averaging(random_k1_structures):
    from matpot import all_good_decompositions, locally_related

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


def test_fd_convergence_second_order(fixture_structure):
    # halving the step shrinks the plain central-difference error about
    # fourfold; reference is the closed form d/dz1 of 1/(z1 - z2)
    from matpot.findiff import multi_partial_fd
    from matpot.frobenius import _EvalCache, pairing_with_unit

    F = fixture_structure
    cache = _EvalCache(F)
    x = F.basepoint
    exact = -1.0 / (x[0] - x[1]) ** 2

    def err(h):
        fd = multi_partial_fd(lambda z: pairing_with_unit(cache, (2, 1), z), x, (1, 0), h)
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


@pytest.mark.parametrize(
    "owner,method,args",
    [
        ("Q", "partial_derivative_value", ((1,), (1, -1))),
        ("Q", "partial_derivative_value", ((1, -1), (1, -1))),
        ("Q", "partial_derivative_value", ((1.0, 0), (1, -1))),
        ("Q", "partial_derivative_value", ((1, 0), (1, -1, 0))),
        ("Q", "evaluate", ([2.0],)),
        ("Q", "coefficient", ((2,),)),
        ("L", "coefficient", ((3,),)),
        ("L", "coefficient", ((3, 0, 0),)),
        ("L", "derivative_at_basepoint", ((4, -1),)),
        ("L", "derivative_at_basepoint", ((2.5, 0),)),
        ("L", "evaluate", ([2.0],)),
        ("L", "evaluate", ([[1.0, -1.0]],)),
    ],
)
def test_malformed_multi_index_or_point(fixture_structure, owner, method, args):
    # n = 2: a short multi-index or point used to be zipped away silently
    potential = {"Q": first_kind_polynomial, "L": lambda F: second_kind_truncation(F, 4)}[owner]
    with pytest.raises(PreconditionError, match="need a"):
        getattr(potential(fixture_structure), method)(*args)


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

    def frame_jet(z, space):
        # the linear jet of that data: d C_1 / d z_2 = 1, all else constant
        H = space.constant(np.array([higgs(1, z), higgs(2, z)]))
        H[0, 0, 0, space.index[(0, 1)]] = 1.0
        return H, space.constant(np.ones(1)), space.constant(np.ones((1, 1)))

    F = FlatFrameStructure(
        matroid=matroid,
        m=2,
        basepoint=np.array([1.0, -1.0]),
        mu=1,
        higgs=higgs,
        unit=lambda z: np.ones(1, dtype=complex),
        form=lambda z: np.ones((1, 1), dtype=complex),
        frame_jet=frame_jet,
    )
    report = verify_axioms(F, [F.basepoint], hard_threshold=None)
    assert report.section_flatness > 1e-3
    assert report.integrability > 1e-3


# the ROADMAP item-5 reproducer: nested differences gave a spread of 1.0e-6
_REPRODUCER = ArrangementData([[1], [1], [2], [2], [1]], [2, 4, 1, 3, 1], [0.688, -1.435, -1.47, 0.752, -0.422])


def _strong_members(F):
    ctx = F.context()
    mk = ctx.m * ctx.k
    return [
        t2
        for t2 in product(range(mk + 2), repeat=F.n)
        if sum(t2) == mk + 1 and find_strong_decomposition(ctx.system(t2), 1) is not None
    ]


def _exact_jet(F, t2, q):
    data = F.backend.data
    return exact_k1_pairing_jet(
        [row[0] for row in data.matrix], data.weights, [v.real for v in F.basepoint], t2, q
    )


def test_pairing_jets_match_exact_oracle(all_structures):
    # q = 3; tolerance relative to the largest coefficient of the
    # structure's jets, which every jet is computed alongside
    for F in all_structures:
        members = _strong_members(F)
        space = SeriesSpace(F.n, 3)
        jets = F.jet(space, members)
        scale = max(1.0, float(np.max(np.abs(jets))))
        picks = range(len(members)) if F.n == 2 else (0, len(members) // 2, len(members) - 1)
        for j in picks:
            for alpha, value in _exact_jet(F, members[j], 3).items():
                assert abs(jets[j, space.index[alpha]] - float(value)) <= 1e-12 * scale
        # every member's constant term is the flat-frame pairing at x
        cache = _EvalCache(F)
        for j, t2 in enumerate(members):
            assert abs(jets[j, 0] - pairing_with_unit(cache, t2, F.basepoint)) <= 1e-12 * scale


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
        exact = _exact_jet(F, t2, 3)
        alpha = tuple(a - b for a, b in zip(T, t2))
        assert exact[alpha] == 0
        j = members.index(t2)
        for beta, value in exact.items():
            assert abs(jets[j, space.index[beta]] - float(value)) <= 1e-12 * scale


def test_second_kind_spread_at_order_mk_plus_5(random_k1_structures):
    for F in random_k1_structures + [structure_from_arrangement(_REPRODUCER, 2)]:
        L = second_kind_truncation(F, F.m * F.k + 5)
        assert L.spread_max <= 1e-10
        assert check_second_kind(F, L) <= 1e-10


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
