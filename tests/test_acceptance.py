"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
All randomness is seeded; all tolerances are fixed here, not configurable.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from matpot import (
    ArrangementData,
    Context,
    DeficiencyWitness,
    LinearMatroid,
    PartitionCertificate,
    PartitionProblem,
    UniformMatroid,
    all_good_decompositions,
    check_first_kind,
    check_second_kind,
    critical_points,
    descent_move,
    equivalence_report,
    find_strong_decomposition,
    first_kind_polynomial,
    min_tight_set,
    remainder_support,
    second_kind_truncation,
    slack_elements,
    solve_partition,
    structure_from_arrangement,
    verify_axioms,
)
from matpot.systems import _bounded_compositions

from oracles import (
    LiftedMatroid,
    base_systems,
    circuits_within,
    fix2_pair_unit,
    min_tight_subset,
    rank_bound_holds,
    remainder_swap_residual,
    subsets,
    tight_subsets,
)


def _report(name, elapsed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n{name}: PASS in {elapsed:.1f}s{suffix}")


# --- criterion 1: matroid axioms and the two exchange lemmas ---------------


def test_criterion_1_matroid_axioms():
    start = time.monotonic()
    rng = random.Random(4711)
    matroids = []
    for _ in range(25):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        matroids.append(
            LinearMatroid(
                [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(n)]
            )
        )
    for n in range(1, 7):
        matroids.append(UniformMatroid(rng.randint(0, n), n))
    for M in matroids:
        elems = list(M.ground.labels)
        indep = {A for A in subsets(elems) if M.is_independent(A)}
        assert frozenset() in indep
        for A in indep:
            for e in A:
                assert (A - {e}) in indep
        for A in subsets(elems):
            sizes = {
                len(S)
                for S in indep
                if S <= A and not any((S | {e}) in indep for e in A - S)
            }
            assert len(sizes) == 1, "maximal independent subsets differ in size"
            assert M.rank(A) in sizes
        # one added element creates at most one circuit
        for I in indep:
            for e in elems:
                if e not in I and len(I) + 1 <= 8:
                    assert len(circuits_within(M, I | {e})) <= 1
        # maximal independents of unions and intersections
        for _ in range(40):
            A1 = frozenset(e for e in elems if rng.random() < 0.5)
            A2 = frozenset(e for e in elems if rng.random() < 0.5)
            I1 = M.max_independent_subset(A1)
            I2 = M.max_independent_subset(A2)
            if M.is_independent(I1 | I2):
                assert len(I1 | I2) == M.rank(A1 | A2)
                assert len(I1 & I2) == M.rank(A1 & A2)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("CRITERION 1 (matroid axioms + exchange lemmas)", elapsed,
            f"{len(matroids)} matroids, zero violations")


# --- criteria 2 and 3: partition solver vs brute force, minimal tight set --


def _random_matroid(rng, n):
    kind = rng.choice(["linear", "uniform", "lifted"])
    if kind == "uniform":
        return UniformMatroid(rng.randint(0, n), n)
    if kind == "linear":
        k = rng.randint(1, 3)
        return LinearMatroid(
            [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(n)]
        )
    base_n = rng.randint(1, n)
    base = UniformMatroid(rng.randint(0, base_n), base_n)
    return LiftedMatroid(base, n, tuple(rng.randint(1, base_n) for _ in range(n)))


def _instances_200():
    rng = random.Random(20170601)
    out = []
    for idx in range(200):
        n = rng.randint(2, 8)
        first, second = _random_matroid(rng, n), _random_matroid(rng, n)
        if idx % 2 == 0:
            l = n - first.rank(range(1, n + 1)) - second.rank(range(1, n + 1))
            if not 0 <= l <= n:
                l = rng.randint(0, n)
        else:
            l = rng.randint(0, n)
        out.append(PartitionProblem((first, second, UniformMatroid(l, n))))
    return out


def test_criterion_2_partition_equivalence():
    start = time.monotonic()
    certificates = witnesses = 0
    for P in _instances_200():
        result = solve_partition(P)
        brute = rank_bound_holds(P)
        if isinstance(result, PartitionCertificate):
            certificates += 1
            assert brute is True
            assert result.validate(P)
        else:
            witnesses += 1
            assert isinstance(brute, DeficiencyWitness)
            assert result.validate(P)
            assert brute.validate(P)
    elapsed = time.monotonic() - start
    assert certificates > 0 and witnesses > 0
    assert elapsed < 60.0
    _report("CRITERION 2 (partition solver vs counting bound, 200 instances)",
            elapsed, f"{certificates} certificates, {witnesses} witnesses")


def test_criterion_3_min_tight_equals_slack():
    start = time.monotonic()
    qualified = 0
    for P in _instances_200():
        last = P.matroids[-1]
        if last.l < 1:
            continue
        if isinstance(solve_partition(P), DeficiencyWitness):
            continue
        n = P.ground.n
        others_rank = sum(M.rank(range(1, n + 1)) for M in P.matroids[:-1])
        if n != last.l + others_rank:
            continue  # the full ground set is not tight
        assert min_tight_set(P) == slack_elements(P)
        qualified += 1
    elapsed = time.monotonic() - start
    assert qualified >= 50
    _report("CRITERION 3 (minimal tight set == slack elements)", elapsed,
            f"{qualified} of 200 instances qualified")


# --- criterion 4: strong systems, tight subsets, remainder support ---------


def _sweep_matroids():
    return [
        UniformMatroid(1, 3),
        UniformMatroid(2, 4),
        LinearMatroid([(1, 0), (0, 1), (1, 1)]),
    ]


def test_criterion_4_strong_system_bound_and_lattice():
    start = time.monotonic()
    strong_count = 0
    for M in _sweep_matroids():
        n = M.ground.n
        labels = list(M.ground.labels)
        for m in (1, 2, 3):
            ctx = Context(M, m)
            mk = m * ctx.k
            for total in range(mk, 11):
                l = total - mk
                for mult in _bounded_compositions(total, (m + l,) * n):
                    T = ctx.system(mult)
                    if find_strong_decomposition(T, l) is None:
                        continue
                    strong_count += 1
                    for r in range(n + 1):
                        for combo in combinations(labels, r):
                            B = frozenset(combo)
                            assert sum(T(j) for j in B) <= l + m * M.rank(B)
                    family = tight_subsets(T, l)
                    assert T.support in family
                    for A in family:
                        for B in family:
                            assert (A | B) in family and (A & B) in family
                    minimal = min_tight_subset(T, l)
                    assert minimal in family
                    if l >= 1:
                        assert minimal == remainder_support(T, l)
                    else:
                        assert minimal == frozenset()
    elapsed = time.monotonic() - start
    _report("CRITERION 4 (mass bound, lattice closure, remainder support)",
            elapsed, f"{strong_count} strong systems, all exact")


# --- criterion 5: every system's good decompositions are equivalent --------


def test_criterion_5_single_equivalence_class():
    start = time.monotonic()
    swept = 0
    for M in _sweep_matroids():
        n = M.ground.n
        for m in (1, 2):
            ctx = Context(M, m)
            mk = m * ctx.k
            for total in range(mk + 1, mk + 4):
                for mult in _bounded_compositions(total, (total,) * n):
                    report = equivalence_report(ctx.system(mult))
                    if report.nodes:
                        swept += 1
                        assert report.component_count == 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("CRITERION 5 (equivalence graphs are connected)", elapsed,
            f"{swept} systems with good decompositions")


# --- criterion 6: arrangement axioms and golden values ---------------------


def _axiom_samples(F):
    x = F.basepoint
    rng = np.random.default_rng(1999)
    scale = 0.08 * (1.0 + F.scale())
    return [x] + [x + scale * (rng.random(F.n) - 0.5) for _ in range(2)]


def test_criterion_6_arrangement_axioms(all_structures, all_families, fixture_structure, fixture_data):
    start = time.monotonic()
    worst = 0.0
    for F, data in zip(all_structures, all_families):
        report = verify_axioms(F, _axiom_samples(F), hard_threshold=None)
        assert report.commutativity <= 1e-7
        assert report.integrability <= 1e-7
        assert report.higgs_invariance <= 1e-7
        assert report.section_flatness <= 1e-7
        assert report.form_flatness <= 1e-7
        worst = max(worst, report.max_violation)
        for z in _axiom_samples(F):
            assert critical_points(data, z).residuals.max() <= 1e-7
    # golden values on the two-hyperplane fixture, from a structure at each sample
    data = fixture_data
    for z in _axiom_samples(fixture_structure):
        G = structure_from_arrangement(ArrangementData(data.matrix, data.weights, z), 2)
        unit, c11 = G.jet(G.space(0), [(0, 0), (2, 0)])[:, 0]
        assert abs(unit - fix2_pair_unit(z)) < 1e-10
        assert abs(c11 - (-0.5)) < 1e-10
    elapsed = time.monotonic() - start
    _report("CRITERION 6 (arrangement axioms + golden values)", elapsed,
            f"11 structures, worst residual {worst:.2e}")


# --- criterion 7: both potentials satisfy their defining identities --------


def test_criterion_7_potentials(all_structures):
    start = time.monotonic()
    worst_q = worst_spread = worst_l = 0.0
    for F in all_structures:
        Q = first_kind_polynomial(F)
        q_residual = check_first_kind(F, Q)
        assert q_residual <= 1e-9
        worst_q = max(worst_q, q_residual)
        L = second_kind_truncation(F, F.m * F.k + 3)
        assert L.spread_max <= 1e-6
        worst_spread = max(worst_spread, L.spread_max)
        l_residual = check_second_kind(F, L)
        assert l_residual <= 1e-6
        worst_l = max(worst_l, l_residual)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("CRITERION 7 (potentials of the first and second kind)", elapsed,
            f"worst: first-kind {worst_q:.2e}, spread {worst_spread:.2e}, "
            f"second-kind {worst_l:.2e}")


# --- criterion 8: proof-move identities -------------------------------------


def test_criterion_8_exchange_moves(all_structures):
    start = time.monotonic()
    rng = random.Random(808)
    moves = 0
    worst = 0.0
    while moves < 100:
        F = rng.choice(all_structures)
        ctx = F.context()
        bases = base_systems(ctx)
        mk = ctx.m * ctx.k
        # random strong mk-part plus remainder [a]
        parts = [rng.choice(bases) for _ in range(ctx.m)]
        total = ctx.zero()
        for p in parts:
            total = total + p
        a = rng.randint(1, ctx.n)
        b = rng.randint(1, ctx.n)
        T2 = total + ctx.unit(a)
        residual = remainder_swap_residual(F, T2, a, b)
        assert residual <= 1e-7
        worst = max(worst, residual)
        moves += 1
    # distance descent on constructed moves, exact integer assertions
    cases = set()
    ctx_list = [
        Context(UniformMatroid(1, 3), 2),
        Context(UniformMatroid(1, 3), 1),
        Context(UniformMatroid(2, 4), 1),
    ]
    pairs_checked = 0
    for ctx in ctx_list:
        mk = ctx.m * ctx.k
        for mult in _bounded_compositions(mk + 2, (mk + 2,) * ctx.n):
            goods = all_good_decompositions(ctx.system(mult))
            for i in range(len(goods)):
                for j in range(len(goods)):
                    if i == j:
                        continue
                    move = descent_move(goods[i], goods[j])
                    assert move.distance_after == move.distance_before - 2
                    cases.add(move.case)
                    pairs_checked += 1
    assert cases == {"surplus", "matched"}
    elapsed = time.monotonic() - start
    _report("CRITERION 8 (exchange identities + distance descent)", elapsed,
            f"100 swap moves (worst {worst:.2e}), {pairs_checked} descent moves")
