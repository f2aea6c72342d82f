import gc
import random
import weakref
from collections import Counter
from itertools import permutations
from math import comb

import numpy as np
import pytest

import matpot.matroids
import matpot.partition
import matpot.systems

from matpot import (
    ArityError,
    Context,
    GoodDecomposition,
    InternalError,
    LinearMatroid,
    PreconditionError,
    StrongDecomposition,
    System,
    UniformMatroid,
    all_good_decompositions,
    descent_move,
    equivalence_report,
    find_strong_decomposition,
    is_base,
    l1_distance,
    remainder_support,
    strong_deficiency_witness,
)
from matpot.systems import SystemBoundViolation, _bounded_compositions, _strong_outcome

from oracles import (
    LiftedMatroid,
    brute_compositions,
    brute_good_decompositions,
    brute_locally_related,
    brute_strong_decompositions,
    edge_components,
    label_remainder_support,
    locally_related,
    min_tight_subset,
    pairwise_edges,
    reference_descent_move,
    reference_strong_outcome,
    remainder_alternative,
    tight_subsets,
)

ROADMAP_MATROID = LinearMatroid([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 1)])
# labels 1 and 2 are parallel, label 4 is a loop
PARALLEL_LOOP = LinearMatroid([(1, 0), (2, 0), (0, 1), (0, 0), (1, 1)])


def test_is_base_examples(u13, linear_pairs):
    ctx1 = Context(u13, 1)
    assert is_base(ctx1.unit(2))
    ctx2 = Context(linear_pairs, 1)
    assert is_base(ctx2.system((1, 0, 1)))
    assert not is_base(ctx2.system((2, 0, 0)))


def test_system_arithmetic(ctx_u13_m2):
    T = ctx_u13_m2.system((2, 1, 0))
    assert T.total == 3
    assert T.support == {1, 2}
    assert (T + ctx_u13_m2.unit(3)).mult == (2, 1, 1)
    assert (T - ctx_u13_m2.unit(1)).mult == (1, 1, 0)
    assert T.try_sub(ctx_u13_m2.system((0, 2, 0))) is None
    with pytest.raises(ArityError):
        T - ctx_u13_m2.system((0, 2, 0))


def test_l1_distance_is_a_metric(ctx_u13_m2):
    rng = random.Random(6)
    systems = [
        ctx_u13_m2.system(tuple(rng.randint(0, 3) for _ in range(3))) for _ in range(12)
    ]
    for A in systems:
        assert l1_distance(A, A) == 0
        for B in systems:
            assert l1_distance(A, B) == l1_distance(B, A)
            assert (l1_distance(A, B) == 0) == (A == B)
            for C in systems:
                assert l1_distance(A, C) <= l1_distance(A, B) + l1_distance(B, C)


def test_find_strong_decomposition_example(ctx_u13_m2):
    T = ctx_u13_m2.system((2, 1, 0))
    dec = find_strong_decomposition(T, 1)
    assert dec is not None and dec.validate(T)
    # deterministic result of the augmenting-path search
    assert tuple(p.mult for p in dec.parts) == ((1, 0, 0), (1, 0, 0))
    assert dec.remainder.mult == (0, 1, 0)
    key = (tuple(sorted(p.mult for p in dec.parts)), dec.remainder.mult)
    assert key in brute_strong_decompositions(T, 1)


def test_strong_decomposition_refuses_mixed_contexts():
    # a base of U(2, 3) next to a remainder of a matroid in which {1, 2} is
    # dependent: with or without T, validate refuses the mix as total does
    uniform = Context(UniformMatroid(2, 3), 1)
    linear = Context(LinearMatroid([[1, 0], [1, 0], [0, 1]]), 1)
    dec = StrongDecomposition.make([uniform.system((1, 1, 0))], linear.system((0, 0, 1)))
    with pytest.raises(PreconditionError, match="different contexts"):
        dec.validate()
    with pytest.raises(PreconditionError, match="different contexts"):
        dec.validate(linear.system((1, 1, 1)))
    with pytest.raises(PreconditionError, match="different contexts"):
        dec.total
    same = StrongDecomposition.make([linear.system((1, 1, 0))], linear.system((0, 0, 1)))
    assert not same.validate() and not same.validate(linear.system((1, 1, 1)))
    good = StrongDecomposition.make([linear.system((1, 0, 1))], linear.system((0, 1, 0)))
    assert good.validate() and good.validate(linear.system((1, 1, 1)))
    assert not good.validate(linear.system((1, 2, 1)))
    assert not good.validate(Context(linear.matroid, 2).system((1, 1, 1)))


def test_composition_walk_matches_brute_force():
    # the same tuples in the same order, on random caps with zero caps, one
    # label, total 0 and totals above the caps' sum
    rng = random.Random(41)
    cases = [(0, ()), (1, ()), (0, (0, 0)), (0, (2, 1)), (3, (3,)), (4, (3,)), (2, (0, 2, 0)),
             (5, (1, 2, 1)), (4, (1, 2, 1))]
    for _ in range(200):
        caps = tuple(rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(rng.randint(1, 6)))
        cases.append((rng.randint(0, sum(caps) + 2), caps))
    assert any(total > sum(caps) for total, caps in cases)
    assert any(not total and caps for total, caps in cases)
    for total, caps in cases:
        assert list(_bounded_compositions(total, caps)) == brute_compositions(total, caps), (total, caps)


def test_cold_equivalence_report_checks_no_lift_map(monkeypatch):
    # the cold report decides every composition by the counting bound and
    # runs no strong search; reading the witnesses searches the shared
    # systems in labels: no lift is built, and neither the report nor the
    # reads check labels against the ground set
    ctx = Context(LinearMatroid([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 1)]), 3)
    T = ctx.system((3, 2, 2, 2, 2, 2))
    assert ctx.k == 2
    checks, lifts, searches = [], [], []
    real_check, real_init = matpot.matroids.GroundSet.check_subset, LiftedMatroid.__init__
    real_search = matpot.systems._strong_search

    def counting_check(self, subset):
        if self is ctx.matroid.ground:
            checks.append(tuple(subset))
        return real_check(self, subset)

    def counting_init(self, *args):
        lifts.append(args)
        real_init(self, *args)

    def search(ctx, mult, l):
        searches.append(mult)
        return real_search(ctx, mult, l)

    monkeypatch.setattr(matpot.matroids.GroundSet, "check_subset", counting_check)
    monkeypatch.setattr(LiftedMatroid, "__init__", counting_init)
    monkeypatch.setattr(matpot.systems, "_strong_search", search)
    report = equivalence_report(T)
    assert len(report.nodes) == 171 and len(report.edges) == 1310
    assert searches == []
    assert all(d.validate() for d in report.nodes)
    assert len(searches) > 50
    assert checks == [] and lifts == []


def test_strong_decomposition_zero_remainder(ctx_u13_m2):
    T = ctx_u13_m2.system((1, 1, 0))
    dec = find_strong_decomposition(T, 0)
    assert dec is not None
    assert dec.remainder.total == 0 and dec.remainder.mult == (0, 0, 0)


def test_strong_decomposition_infeasible_with_witness():
    ctx = Context(LinearMatroid([(1, 0), (2, 0), (0, 1)]), 2)
    T = ctx.system((2, 2, 0))
    assert find_strong_decomposition(T, 0) is None
    violation = strong_deficiency_witness(T, 0)
    assert violation.B == {1, 2}
    assert violation.mass == 4 and violation.bound == 2
    assert strong_deficiency_witness(ctx.system((1, 1, 2)), 0) is None


def test_arity_errors(ctx_u13_m2):
    with pytest.raises(ArityError):
        find_strong_decomposition(ctx_u13_m2.system((1, 0, 0)), 1)
    with pytest.raises(ArityError):
        all_good_decompositions(ctx_u13_m2.system((1, 1, 0)))


@pytest.mark.parametrize("query", [find_strong_decomposition, strong_deficiency_witness, remainder_support])
@pytest.mark.parametrize("l", [True, 1.0, 1.5, "1"])
def test_strong_queries_refuse_a_remainder_size_that_is_not_an_integer(u13, query, l):
    # the type is refused before any comparison, and a memoized l = 1
    # outcome does not answer for True or 1.0; a numpy integer is an integer
    with pytest.raises(PreconditionError, match="need m >= 1"):
        Context(u13, True)
    T = Context(u13, 2).system((1, 1, 1))
    assert find_strong_decomposition(T, 1) is not None
    with pytest.raises(ArityError, match="remainder size must be an integer"):
        query(T, l)
    assert query(T, np.int64(1)) == query(T, 1)


@pytest.mark.parametrize("bad", [2.7, "2", True, np.True_])
def test_system_rejects_non_integer_multiplicities(ctx_u13_m2, bad):
    with pytest.raises(ArityError, match="nonnegative integers"):
        ctx_u13_m2.system((bad, 1, 1))
    with pytest.raises(ArityError, match="nonnegative integers"):
        System(ctx_u13_m2, (bad, 1, 1))


def test_system_accepts_numpy_integers(ctx_u13_m2):
    T = ctx_u13_m2.system(np.array([2, 1, 1], dtype=np.int64))
    assert T.mult == (2, 1, 1)
    assert all(type(v) is int for v in T.mult)


def test_strong_outcome_matches_bruteforce(ctx_u13_m2, u24):
    parallel = Context(LinearMatroid([(1, 0), (2, 0), (0, 1)]), 2)
    cases = [
        (ctx_u13_m2.system((2, 1, 0)), 1),
        (ctx_u13_m2.system((2, 2, 1)), 3),
        (Context(u24, 2).system((2, 1, 1, 1)), 1),
        (parallel.system((3, 1, 1)), 1),  # not strong: labels 1, 2 are parallel
    ]
    strong = 0
    for T, l in cases:
        brute = brute_strong_decompositions(T, l)
        dec = find_strong_decomposition(T, l)
        assert (dec is not None) == bool(brute)
        if dec is not None:
            strong += 1
            assert (tuple(sorted(p.mult for p in dec.parts)), dec.remainder.mult) in brute
        assert (strong_deficiency_witness(T, l) is None) == bool(brute)
    assert strong == len(cases) - 1


def test_base_sums_plus_one_label_are_the_strong_members(u13, u24, linear_pairs):
    # a strong (mk+1)-system is by definition m bases plus one label
    for matroid in (u13, u24, linear_pairs):
        for m in (1, 2, 3):
            ctx = Context(matroid, m)
            need = m * ctx.k + 1
            brute = {
                t
                for t in _bounded_compositions(need, (need,) * ctx.n)
                if brute_strong_decompositions(ctx.system(t), 1)
            }
            sums = {S[:j] + (S[j] + 1,) + S[j + 1:] for S in ctx.base_sums for j in range(ctx.n)}
            assert sums == brute
            assert list(ctx.base_sums) == sorted(set(ctx.base_sums))


def test_all_good_decompositions_u12():
    ctx = Context(UniformMatroid(1, 2), 2)
    T = ctx.system((2, 2))
    goods = all_good_decompositions(T)
    assert len(goods) == 2
    assert [g.T2.mult for g in goods] == [(1, 2), (2, 1)]  # lexicographic in T2
    for g in goods:
        assert g.validate()
    # every 3-subsystem of T qualifies
    assert {g.T2.mult for g in goods} == {
        mult for mult in _bounded_compositions(3, T.mult)
    }
    assert {(g.T1.mult, g.T2.mult) for g in goods} == brute_good_decompositions(T)


def test_good_decompositions_empty_when_no_strong_subsystem():
    ctx = Context(LinearMatroid([(1, 0), (2, 0), (0, 1)]), 2)
    # k = 2, so a strong 5-subsystem needs two disjoint bases; (5,0,0) has
    # support of rank 1 only
    assert all_good_decompositions(ctx.system((5, 0, 0))) == ()


def test_hand_built_pair_with_a_weak_second_member_does_not_validate():
    # T2 = (5, 0, 0) has the right size but is not strong: no witness can
    # be built, so validate answers False instead of raising
    ctx = Context(LinearMatroid([(1, 0), (2, 0), (0, 1)]), 2)
    d = GoodDecomposition(T1=ctx.system((0, 1, 1)), T2=ctx.system((5, 0, 0)))
    assert d.validate() is False
    assert GoodDecomposition(T1=ctx.system((0, 1, 1)), T2=ctx.system((4, 0, 0))).validate() is False
    with pytest.raises(PreconditionError):
        d.witness


def test_witness_read_checks_only_the_sum(monkeypatch):
    # the shared bases were checked when the strong search filed them, so a
    # witness read checks no base again, only that bases plus [a] give T2:
    # a wrong label a is an internal error
    ctx = Context(UniformMatroid(1, 3), 2)
    nodes = all_good_decompositions(ctx.system((2, 1, 1)))
    checked = []
    real = StrongDecomposition._decomposes

    def counting(self, mult):
        checked.append(mult)
        return real(self, mult)

    monkeypatch.setattr(StrongDecomposition, "_decomposes", counting)
    for d in nodes:
        searched = len(ctx._strong_memo)
        assert d.witness.validate(d.T2)
        # one check per strong search that filed shared bases, and validate's
        assert len(checked) == len(ctx._strong_memo) - searched + 1
        del checked[:]
    real_label = matpot.systems._key_label
    monkeypatch.setattr(matpot.systems, "_key_label", lambda mult, key: real_label(mult, key) % 3 + 1)
    fresh = all_good_decompositions(Context(UniformMatroid(1, 3), 2).system((2, 1, 1)))
    with pytest.raises(InternalError, match="do not decompose the second member"):
        fresh[0].witness


def test_good_decomposition_count_invariant_under_automorphism(linear_pairs):
    ctx = Context(linear_pairs, 2)  # every pair of labels is a base
    T = ctx.system((3, 1, 1))
    count = len(all_good_decompositions(T))
    for perm in permutations((3, 1, 1)):
        assert len(all_good_decompositions(ctx.system(perm))) == count


def test_locally_related_reflexive_and_symmetric(ctx_u13_m2):
    rng = random.Random(8)
    T = ctx_u13_m2.system((2, 2, 1))
    goods = all_good_decompositions(T)
    for d in goods:
        assert locally_related(d, d)
    for _ in range(20):
        a, b = rng.choice(goods), rng.choice(goods)
        assert locally_related(a, b) == locally_related(b, a)


def test_locally_related_explicit_move(ctx_u13_m2):
    ctx = ctx_u13_m2
    T2 = ctx.system((2, 1, 0))
    witness = find_strong_decomposition(T2, 1)
    assert witness.remainder.mult == (0, 1, 0)
    T1 = ctx.system((1, 0, 1))
    d = GoodDecomposition(T1=T1, T2=T2)
    # swap the remainder label 2 into the first member against label 3: the
    # bases of T2's decomposition plus [3] decompose the moved second member
    r2 = T2 + ctx.unit(3) - ctx.unit(2)
    assert StrongDecomposition.make(witness.parts, ctx.unit(3)).validate(r2)
    moved = GoodDecomposition(T1=T1 - ctx.unit(3) + ctx.unit(2), T2=r2)
    assert moved.validate()
    assert locally_related(d, moved) and locally_related(moved, d)


def test_locally_related_rejects_mismatched_totals(ctx_u13_m2):
    goods_a = all_good_decompositions(ctx_u13_m2.system((2, 1, 1)))
    goods_b = all_good_decompositions(ctx_u13_m2.system((2, 2, 1)))
    with pytest.raises(PreconditionError):
        locally_related(goods_a[0], goods_b[0])


def test_locally_related_matches_bruteforce(ctx_u13_m2, u24):
    contexts = [
        ctx_u13_m2,
        Context(u24, 2),
        Context(LinearMatroid([(1, 0), (2, 0), (0, 1)]), 2),  # a parallel class
        Context(UniformMatroid(1, 3), 3),
    ]
    for ctx in contexts:
        caps = (ctx.m * ctx.k + 2,) * ctx.n
        for mult in _bounded_compositions(ctx.m * ctx.k + 2, caps):
            goods = all_good_decompositions(ctx.system(mult))
            for i in range(len(goods)):
                for j in range(i, len(goods)):
                    assert locally_related(goods[i], goods[j]) == brute_locally_related(
                        goods[i], goods[j]
                    )


def test_equivalence_single_node(ctx_u13_m2):
    T = ctx_u13_m2.system((3, 0, 0))
    report = equivalence_report(T)
    assert len(report.nodes) == 1
    assert report.component_count == 1


def test_equivalence_example(ctx_u13_m2):
    report = equivalence_report(ctx_u13_m2.system((2, 1, 1)))
    assert len(report.nodes) == 3
    assert report.component_count == 1
    for i, j in report.edges:
        assert locally_related(report.nodes[i], report.nodes[j])


def test_equivalence_beyond_sixteen_labels():
    ctx = Context(UniformMatroid(1, 17), 1)
    report = equivalence_report(ctx.system((1, 1, 1) + (0,) * 14))
    assert len(report.nodes) == 3
    assert len(report.edges) == 3
    assert report.component_count == 1


def test_context_memo_releases_matroid():
    M = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    ctx = Context(M, 2)
    assert find_strong_decomposition(ctx.system((2, 1, 1)), 0) is not None
    assert equivalence_report(ctx.system((2, 2, 1))).component_count == 1
    ref = weakref.ref(M)
    del ctx, M
    gc.collect()
    assert ref() is None


def test_equivalence_sweep_small(linear_pairs):
    for m in (1, 2):
        ctx = Context(linear_pairs, m)
        mk = m * ctx.k
        for total in range(mk + 1, mk + 3):
            for mult in _bounded_compositions(total, (total,) * ctx.n):
                report = equivalence_report(ctx.system(mult))
                if report.nodes:
                    assert report.component_count == 1


def _check_against_pairwise(T):
    report = equivalence_report(T)
    edges = pairwise_edges(report.nodes)
    assert report.edges == edges
    assert report.components == edge_components(len(report.nodes), edges)
    return report


def test_equivalence_edges_match_pairwise_definition(u13, u24):
    rng = random.Random(7)
    nodes = near_misses = 0
    for M in (u13, u24, UniformMatroid(2, 5), PARALLEL_LOOP):
        for m in (1, 2, 3):
            ctx = Context(M, m)
            for _ in range(4):
                T = ctx.zero()
                for _ in range(m):
                    T = T + rng.choice(ctx.base_systems)
                for _ in range(rng.randint(1, 4)):
                    T = T + ctx.unit(rng.randint(1, ctx.n))
                report = _check_against_pairwise(T)
                nodes += len(report.nodes)
                edges = set(report.edges)
                near_misses += sum(
                    1
                    for i in range(len(report.nodes))
                    for j in range(i + 1, len(report.nodes))
                    if (i, j) not in edges
                    and l1_distance(report.nodes[i].T2, report.nodes[j].T2) == 2
                )
    assert nodes > 0
    # some pairs at l1 distance 2 are not related, so the strong test decides edges
    assert near_misses > 0


def test_equivalence_roadmap_491_nodes_match_pairwise_definition():
    report = _check_against_pairwise(Context(ROADMAP_MATROID, 3).system((4, 3, 3, 3, 3, 3)))
    assert len(report.nodes) == 491
    assert report.component_count == 1


@pytest.mark.parametrize(
    "matroid, m, mult",
    [
        # at T2 = (2, 1, 0) the shared system (1, 1, 0) has no neighbour
        (UniformMatroid(1, 3), 2, (3, 1, 0)),
        (UniformMatroid(2, 4), 2, (2, 2, 1, 2)),
        (PARALLEL_LOOP, 2, (2, 1, 2, 1, 2)),
        (ROADMAP_MATROID, 3, (3, 2, 2, 2, 2, 2)),
    ],
)
def test_equivalence_lookup_makes_the_pairwise_strong_queries(matroid, m, mult):
    # the lookup makes none of the pairwise rule's strong queries: the
    # enumeration decides the nodes by the counting bound, and the edge pass
    # files each node under T2 - [a] for a in its remainder closure, where
    # the pairwise rule asks one l = 0 question per pair at l1 distance 2;
    # both find the same edges
    lookup, pairwise = Context(matroid, m), Context(matroid, m)
    report = equivalence_report(lookup.system(mult))
    edges = pairwise_edges(all_good_decompositions(pairwise.system(mult)))
    assert lookup._strong_memo == {}
    assert pairwise._strong_memo and all(l == 0 for _, l in pairwise._strong_memo)
    assert report.edges == edges


def test_tight_subsets_examples(ctx_u13_m2):
    T = ctx_u13_m2.system((3, 0, 0))
    fam = tight_subsets(T, 1)
    assert fam == {frozenset({1})}
    assert min_tight_subset(T, 1) == {1}
    assert remainder_support(T, 1) == {1}

    T2 = ctx_u13_m2.system((1, 1, 1))
    assert min_tight_subset(T2, 1) == {1, 2, 3}
    assert remainder_support(T2, 1) == {1, 2, 3}


def test_tight_subsets_contain_support_and_are_lattice(ctx_u13_m2, u24):
    contexts = [ctx_u13_m2, Context(u24, 2)]
    rng = random.Random(44)
    for ctx in contexts:
        for _ in range(25):
            l = rng.randint(0, 3)
            total = ctx.m * ctx.k + l
            mult = [0] * ctx.n
            for _ in range(total):
                mult[rng.randrange(ctx.n)] += 1
            T = ctx.system(tuple(mult))
            if find_strong_decomposition(T, l) is None:
                continue
            fam = tight_subsets(T, l)
            assert T.support in fam
            for A in fam:
                for B in fam:
                    assert (A | B) in fam and (A & B) in fam
            assert min_tight_subset(T, l) in fam
            if l >= 1:
                assert min_tight_subset(T, l) == remainder_support(T, l)
            else:
                assert min_tight_subset(T, l) == frozenset()


def test_min_tight_subset_is_intersection_of_tight_subsets(u24):
    # the lifted closure against the brute-force lattice, on matroids with
    # parallel classes and a loop as well as uniform ones
    matroids = [
        UniformMatroid(1, 3),
        u24,
        LinearMatroid([(1, 0), (2, 0), (0, 1), (0, 0), (1, 1)]),
        LinearMatroid([(1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 0, 1)]),
    ]
    rng = random.Random(1729)
    strong = 0
    for M in matroids:
        for m in (1, 2, 3):
            ctx = Context(M, m)
            for _ in range(30):
                l = rng.randint(0, 2)
                mult = [0] * ctx.n
                for _ in range(m * ctx.k + l):
                    mult[rng.randrange(ctx.n)] += 1
                T = ctx.system(mult)
                if find_strong_decomposition(T, l) is None:
                    with pytest.raises(PreconditionError):
                        min_tight_subset(T, l)
                    continue
                family = tight_subsets(T, l)
                expected = T.support
                for B in family:
                    expected &= B
                assert min_tight_subset(T, l) == expected
                strong += 1
    assert strong >= 100


def test_remainder_support_preconditions(ctx_u13_m2):
    with pytest.raises(PreconditionError):
        remainder_support(ctx_u13_m2.system((1, 1, 0)), 0)
    ctx = Context(LinearMatroid([(1, 0), (2, 0), (0, 1)]), 2)
    with pytest.raises(PreconditionError):
        remainder_support(ctx.system((3, 2, 0)), 1)  # not strong


def test_remainder_alternative_equal_systems(ctx_u13_m2):
    S = ctx_u13_m2.system((2, 1, 0))
    out = remainder_alternative(S, S)
    assert out.kind == "matched"
    labels = {a for a, _ in out.matched}
    assert labels == remainder_support(S, 1)
    for a, dec in out.matched:
        assert dec.validate(S)
        assert dec.remainder.support == {a}


def test_remainder_alternative_disjoint_supports(ctx_u13_m2):
    S = ctx_u13_m2.system((3, 0, 0))
    T = ctx_u13_m2.system((0, 3, 0))
    out = remainder_alternative(S, T)
    assert out.kind == "surplus"
    assert out.surplus.validate(T)
    i = next(iter(out.surplus.remainder.support))
    assert T(i) > S(i)


def test_remainder_alternative_always_certified(ctx_u13_m2, u24):
    rng = random.Random(17)
    for ctx in (ctx_u13_m2, Context(u24, 1)):
        need = ctx.m * ctx.k + 1
        strong = []
        for mult in _bounded_compositions(need, (need,) * ctx.n):
            T = ctx.system(mult)
            if find_strong_decomposition(T, 1) is not None:
                strong.append(T)
        for _ in range(40):
            S, T = rng.choice(strong), rng.choice(strong)
            out = remainder_alternative(S, T)
            if out.kind == "surplus":
                assert out.surplus.validate(T)
                i = next(iter(out.surplus.remainder.support))
                assert T(i) > S(i)
            else:
                assert {a for a, _ in out.matched} == remainder_support(S, 1)
                for a, dec in out.matched:
                    assert dec.validate(T) and dec.remainder.support == {a}


def _distinct_good_pairs(T):
    goods = all_good_decompositions(T)
    for i in range(len(goods)):
        for j in range(len(goods)):
            if i != j:
                yield goods[i], goods[j]


def test_descent_move_decreases_distance_by_two(ctx_u13_m2, u24):
    cases = [
        ctx_u13_m2.system((2, 1, 1)),
        ctx_u13_m2.system((2, 2, 1)),
        Context(u24, 1).system((2, 1, 1, 1)),
        Context(UniformMatroid(1, 3), 1).system((2, 1, 0)),
    ]
    seen_cases = set()
    for T in cases:
        for dT, dS in _distinct_good_pairs(T):
            move = descent_move(dT, dS)
            seen_cases.add(move.case)
            assert move.distance_after == move.distance_before - 2
            assert move.moved_t.validate()
            assert locally_related(move.moved_t, dT)
            if move.case == "matched":
                assert move.moved_s.validate()
                assert locally_related(move.moved_s, dS)
    assert seen_cases == {"surplus", "matched"}


def test_descent_move_rejects_equal(ctx_u13_m2):
    goods = all_good_decompositions(ctx_u13_m2.system((2, 1, 1)))
    with pytest.raises(PreconditionError):
        descent_move(goods[0], goods[0])


def test_descent_move_rejects_decompositions_of_different_systems(ctx_u13_m2):
    dT = all_good_decompositions(ctx_u13_m2.system((2, 1, 1)))[0]
    dS = all_good_decompositions(ctx_u13_m2.system((2, 2, 1)))[0]
    with pytest.raises(PreconditionError, match="same system"):
        descent_move(dT, dS)


def _descent_contexts():
    for k, n in [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]:
        for m in (1, 2, 3):
            yield Context(UniformMatroid(k, n), m)
    for rows in ([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)],
                 [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 0)],
                 [(2, -1), (0, 1), (1, 1), (-1, 2)],
                 [(1, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0), (2, 1, 1)]):
        for m in (2, 3):
            yield Context(LinearMatroid(rows), m)
    yield Context(LinearMatroid([(1, 0), (2, 0), (0, 1), (1, 1)]), 2)  # a parallel class


def _move_fields(move):
    return (
        move.case,
        move.moved_t.T1, move.moved_t.T2,
        move.moved_s.T1, move.moved_s.T2,
        move.distance_before, move.distance_after,
    )


def test_descent_move_matches_the_remainder_alternative_search():
    # the move read off the decisions against the earlier search through
    # both remainder supports, field by field, on systems with |T| <= mk + 3;
    # each moved decomposition validates with the witness it builds on read,
    # and the reference's explicit witnesses (its remainder decomposition's
    # bases plus the label moved in) decompose the reference's moved members
    rng = random.Random(2024)
    pairs = 0
    for ctx in _descent_contexts():
        for _ in range(9):
            mult = [0] * ctx.n
            for _ in range(ctx.m * ctx.k + rng.randint(2, 3)):
                mult[rng.randrange(ctx.n)] += 1
            for dT, dS in _distinct_good_pairs(ctx.system(mult)):
                reference, witnesses = reference_descent_move(dT, dS)
                move = descent_move(dT, dS)
                assert _move_fields(move) == _move_fields(reference)
                assert move.moved_t.validate() and move.moved_s.validate()
                moved = (reference.moved_t,) if reference.case == "surplus" else (reference.moved_t, reference.moved_s)
                assert len(witnesses) == len(moved)
                for d, witness in zip(moved, witnesses):
                    assert witness.validate(d.T2) and witness.remainder.total == 1
                pairs += 1
    assert pairs >= 5000, pairs


def test_warm_equivalence_report_solves_no_partition(monkeypatch):
    # the second report reads every decision from the context's memo by its
    # raw tuple: no strong search, no validated System, and two Systems built
    # unchecked per node (T2 and T1 = T - T2, tuples that T bounds); its
    # witnesses are the first report's, read from the memo without a search
    ctx = Context(ROADMAP_MATROID, 3)
    T = ctx.system((3, 2, 2, 2, 2, 2))
    first = equivalence_report(T)
    witnesses = [d.witness for d in first.nodes]
    searches, built, trusted = [], [], []
    real_search, real_post_init = matpot.systems._strong_search, System.__post_init__
    real_trusted = matpot.systems._trusted

    def search(ctx, mult, l):
        searches.append(mult)
        return real_search(ctx, mult, l)

    def post_init(self):
        built.append(self.mult)
        real_post_init(self)

    def trusted_system(ctx, mult):
        trusted.append(mult)
        return real_trusted(ctx, mult)

    monkeypatch.setattr(matpot.systems, "_strong_search", search)
    monkeypatch.setattr(System, "__post_init__", post_init)
    monkeypatch.setattr(matpot.systems, "_trusted", trusted_system)
    second = equivalence_report(T)
    assert second == first
    assert built == []
    assert len(trusted) == 2 * len(second.nodes) == 342
    assert [d.witness for d in second.nodes] == witnesses
    assert searches == [] and built == []


def _random_strong_question(rng, ls=(0, 3), parallel=False):
    """A context of rank 1-3 (uniform, or linear with small integer rows),
    m 1-3, l in ``ls``, and a system of m k + l units drawn label by label.
    ``parallel`` gives linear rows that are multiples of 1-3 drawn rows."""
    k, n = rng.randint(1, 3), rng.randint(2, 6)

    def rows():
        if not parallel:
            return [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        drawn = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(1, 3))]
        scaled = []
        for _ in range(n):
            c, row = rng.choice((-2, -1, 1, 2)), rng.choice(drawn)
            scaled.append([c * v for v in row])
        return scaled

    if rng.random() < 0.3 and not parallel:
        matroid = UniformMatroid(min(k, n), n)
    else:
        matroid = LinearMatroid(rows())
        while matroid.full_rank == 0:
            matroid = LinearMatroid(rows())
    ctx, l = Context(matroid, rng.randint(1, 3)), rng.randint(*ls)
    mult = [0] * n
    for _ in range(ctx.m * ctx.k + l):
        mult[rng.randrange(n)] += 1
    return ctx, tuple(mult), l


def test_strong_search_matches_the_lifted_partition():
    # the label search decides every question as the partition of the lift
    # did: the same decomposition or violation as the lifted search
    rng = random.Random(4300)
    kinds = Counter()
    for _ in range(2000):
        ctx, mult, l = _random_strong_question(rng)
        outcome = _strong_outcome(Context(ctx.matroid, ctx.m), mult, l)
        assert outcome == reference_strong_outcome(ctx, mult, l), (ctx.matroid, ctx.m, mult, l)
        kinds[type(outcome)] += 1
    assert min(kinds[StrongDecomposition], kinds[SystemBoundViolation]) >= 80, kinds
    # parallel rows and l 4-8: several slots of the remainder hold one label
    twice = 0
    for _ in range(500):
        ctx, mult, l = _random_strong_question(rng, ls=(4, 8), parallel=True)
        outcome = _strong_outcome(Context(ctx.matroid, ctx.m), mult, l)
        assert outcome == reference_strong_outcome(ctx, mult, l), (ctx.matroid, ctx.m, mult, l)
        twice += isinstance(outcome, StrongDecomposition) and max(outcome.remainder.mult) > 1
    assert twice >= 100, twice


@pytest.mark.parametrize("rows, m, l, mult", [
    ([[-2], [-1], [2], [2]], 1, 3, (0, 0, 3, 1)),
    ([[2, -1], [2, 2], [-1, 1]], 1, 3, (1, 1, 3)),
])
def test_the_remainder_takes_a_label_it_holds(rows, m, l, mult):
    # a second unit of a label a base holds has only the remainder to go
    # to, and the remainder is asked although it holds that label
    ctx = Context(LinearMatroid(rows), m)
    dec = _strong_outcome(ctx, mult, l)
    assert isinstance(dec, StrongDecomposition) and dec.validate(ctx.system(mult))
    assert dec == reference_strong_outcome(ctx, mult, l)
    brute = brute_strong_decompositions(ctx.system(mult), l)
    assert (tuple(p.mult for p in dec.parts), dec.remainder.mult) in brute
    if mult == (0, 0, 3, 1):
        assert [p.mult for p in dec.parts] == [(0, 0, 1, 0)] and dec.remainder.mult == (0, 0, 2, 1)


def test_witness_reads_search_each_first_key_once_from_empty_classes(monkeypatch):
    # the report searches nothing; reading every witness searches each
    # node's first filing key once, at l = 0, from empty classes: every
    # search places all m * k units, one augmentation (one exchange search
    # of the placement loop) each
    augmented, searches = [], []
    real_reach, real_search = matpot.partition._reach, matpot.systems._strong_search

    def augment(*args):
        augmented.append(1)
        return real_reach(*args)

    def search(ctx, mult, l):
        searches.append((mult, l))
        return real_search(ctx, mult, l)

    monkeypatch.setattr(matpot.partition, "_reach", augment)
    monkeypatch.setattr(matpot.systems, "_strong_search", search)
    ctx = Context(ROADMAP_MATROID, 3)
    report = equivalence_report(ctx.system((3, 2, 2, 2, 2, 2)))
    assert len(report.nodes) == 171
    assert searches == [] and augmented == []
    shared = {(d.witness.total - d.witness.remainder).mult for d in report.nodes}
    assert shared == {ctx._decisions[d.T2.mult][0] for d in report.nodes}
    assert sorted(searches) == sorted((key, 0) for key in shared)
    assert len(searches) == 141
    assert len(augmented) == ctx.m * ctx.k * 141 == 846


def _memo_is_cold(ctx, cold):
    """Assert that every outcome in ctx's strong memo is the one a fresh
    Context decides for the same (mult, l); cold caches those, by key."""
    for key, outcome in ctx._strong_memo.items():
        if key not in cold:
            cold[key] = _strong_outcome(Context(ctx.matroid, ctx.m), *key)
        assert outcome == cold[key], key


def test_witnesses_and_strong_outcomes_depend_on_their_inputs_only(monkeypatch):
    # every strong search starts from empty classes, so on a fresh context
    # the 171-node report's witnesses read in reverse order are the ones
    # read in order; and with the compositions decided by the search (no
    # room for flats) and the systems T2 - [a] asked for between the reads,
    # every memoized outcome, decomposition or violation, at l = 0 or
    # l = 1, is after every read the one a fresh context decides
    T = (3, 2, 2, 2, 2, 2)
    ctx = Context(ROADMAP_MATROID, 3)
    in_order = [d.witness for d in equivalence_report(ctx.system(T)).nodes]
    ctx = Context(ROADMAP_MATROID, 3)
    in_reverse = [d.witness for d in reversed(equivalence_report(ctx.system(T)).nodes)]
    assert in_reverse[::-1] == in_order
    monkeypatch.setattr(matpot.systems, "FLATS_PER_SEARCH", 0)
    kinds = set()
    for M, m, mult in [(ROADMAP_MATROID, 3, T), (PARALLEL_LOOP, 2, (2, 1, 2, 1, 2))]:
        ctx, cold = Context(M, m), {}
        report = equivalence_report(ctx.system(mult))
        _memo_is_cold(ctx, cold)
        for d in reversed(report.nodes):
            assert d.witness.validate(d.T2)
            _memo_is_cold(ctx, cold)
            for a in sorted(d.T2.support):
                strong_deficiency_witness(ctx.system(matpot.systems._minus(d.T2.mult, a)), 0)
            _memo_is_cold(ctx, cold)
        kinds |= {(type(outcome), l) for (_, l), outcome in ctx._strong_memo.items()}
    assert kinds == {(StrongDecomposition, 0), (SystemBoundViolation, 0),
                     (StrongDecomposition, 1), (SystemBoundViolation, 1)}


def test_descent_move_after_a_report_runs_no_search(monkeypatch):
    # on the 171-node system: both closures come from the report's
    # decisions and the moved members' witnesses wait for a read, so the
    # move asks no strong question and decides nothing
    ctx = Context(ROADMAP_MATROID, 3)
    report = equivalence_report(ctx.system((3, 2, 2, 2, 2, 2)))
    memo = dict(ctx._strong_memo)
    calls, decided = [], []
    real, real_decide = matpot.systems._strong_outcome, matpot.systems._decide

    def counting(ctx, mult, l):
        calls.append((mult, l))
        return real(ctx, mult, l)

    def deciding(ctx, whole, misses):
        decided.append(misses)
        return real_decide(ctx, whole, misses)

    monkeypatch.setattr(matpot.systems, "_strong_outcome", counting)
    monkeypatch.setattr(matpot.systems, "_decide", deciding)
    move = descent_move(report.nodes[0], report.nodes[-1])
    assert move.distance_after == move.distance_before - 2
    assert calls == [] and decided == []
    assert ctx._strong_memo == memo


def test_remainder_support_solves_one_partition(monkeypatch):
    # the strongness check's one search, then the circuit closure of its
    # decomposition's remainder, where the per-label search made
    # |supp T| + 1 strong queries; no partition of a lift is solved
    mult = (2, 1, 1, 1, 1, 1)
    expected = label_remainder_support(Context(ROADMAP_MATROID, 3).system(mult), 1)
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counting(matpot.systems, "_strong_search")
    counting(matpot.partition, "solve_partition")
    assert remainder_support(Context(ROADMAP_MATROID, 3).system(mult), 1) == expected
    assert calls == ["_strong_search"]


def test_remainder_support_matches_the_brute_force_remainders():
    rng = random.Random(31)
    checked = 0
    for ctx in _descent_contexts():
        for _ in range(6):
            l = rng.randint(1, 3)
            mult = [0] * ctx.n
            for _ in range(ctx.m * ctx.k + l):
                mult[rng.randrange(ctx.n)] += 1
            T = ctx.system(mult)
            if find_strong_decomposition(T, l) is None:
                continue
            expected = frozenset(
                j for _, rem in brute_strong_decompositions(T, l) for j, v in enumerate(rem, 1) if v
            )
            assert remainder_support(T, l) == expected == label_remainder_support(T, l)
            checked += 1
    assert checked >= 50


# a U(2, 4) block, a parallel pair and a loop, as one linear matroid of rank 3
UNIFORM_PARALLEL_LOOP = LinearMatroid(
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (0, 0, 2), (0, 0, 0)]
)


def test_remainder_closure_of_every_decomposition_is_the_remainder_support():
    # the closure of each strong decomposition's remainder, for every
    # decomposition the token assignment finds, against the union of all
    # their remainders and the per-label strong queries
    rng = random.Random(43)
    ls, grown = set(), 0
    for M in (PARALLEL_LOOP, UniformMatroid(2, 4), UNIFORM_PARALLEL_LOOP):
        for m in (1, 2):
            ctx = Context(M, m)
            for _ in range(20):
                l = rng.randint(1, 3)
                T = ctx.zero()
                for _ in range(m):
                    T = T + rng.choice(ctx.base_systems)
                for _ in range(l):
                    T = T + ctx.unit(rng.randint(1, ctx.n))
                found = brute_strong_decompositions(T, l)
                expected = frozenset(j for _, rem in found for j, v in enumerate(rem, 1) if v)
                assert expected == label_remainder_support(T, l) == remainder_support(T, l)
                for parts, rem in found:
                    d = StrongDecomposition.make([ctx.system(p) for p in parts], ctx.system(rem))
                    assert d._remainder_closure == expected
                    grown += d.remainder.support < expected
                ls.add(l)
    assert ls == {1, 2, 3}
    assert grown > 50, grown


def test_context_requires_positive_rank():
    with pytest.raises(PreconditionError):
        Context(UniformMatroid(0, 3), 1)
    with pytest.raises(PreconditionError):
        Context(UniformMatroid(1, 3), 0)


@pytest.mark.parametrize("k, m", [(11, 2), (7, 3), (5, 4)])
def test_uniform_all_ones_needs_no_flat_above_the_loops(k, m):
    # |T| = 24, all ones: no flat of rank < k can bind (a flat of rank r
    # holds r units), so the enumeration keeps the empty loop flat alone
    # and every composition is strong with its whole support as closure
    ctx = Context(UniformMatroid(k, 24), m)
    T = ctx.system((1,) * 24)
    labels, incidence, bound = matpot.systems._binding_flats(ctx, T.mult, 1)
    assert labels == list(range(1, 25)) and incidence.shape == (0, 24) and bound.shape == (0,)
    report = equivalence_report(T)
    mk = m * k
    assert len(report.nodes) == comb(24, mk + 1)
    assert len(report.edges) == comb(24, mk) * comb(24 - mk, 2)
    assert report.component_count == 1
    assert ctx._strong_memo == {}


def _random_flats_question(rng, max_rank=4):
    """A context of rank 1-max_rank (uniform, or linear with small integer
    rows), m 1-3, and a system of m k + 1 + extra units, extra 0-2, drawn
    label by label."""
    k, n = rng.randint(1, max_rank), rng.randint(2, 7)
    if rng.random() < 0.3:
        matroid = UniformMatroid(min(k, n), n)
    else:
        rows = lambda: [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        matroid = LinearMatroid(rows())
        while matroid.full_rank == 0:
            matroid = LinearMatroid(rows())
    ctx = Context(matroid, rng.randint(1, 3))
    mult = [0] * n
    for _ in range(ctx.m * ctx.k + 1 + rng.randint(0, 2)):
        mult[rng.randrange(n)] += 1
    return ctx, tuple(mult)


def test_flats_decision_matches_the_strong_search():
    # every composition the batch decides, against the label search on a
    # fresh context: the l = 1 verdict, the closure against
    # remainder_support, and the l = 0 verdict of T2 - [a] for each label a
    # of the support of one composition per system
    rng = random.Random(4600)
    kinds = Counter()
    for _ in range(2000):
        ctx, mult = _random_flats_question(rng)
        all_good_decompositions(ctx.system(mult))
        search = Context(ctx.matroid, ctx.m)
        compositions = list(_bounded_compositions(ctx.m * ctx.k + 1, mult))
        for t2 in compositions:
            decision = ctx._decisions[t2]
            outcome = _strong_outcome(search, t2, 1)
            assert (decision is None) == isinstance(outcome, SystemBoundViolation), (ctx.matroid, ctx.m, t2)
            if decision is not None:
                closure = sorted(remainder_support(search.system(t2), 1))
                assert decision == tuple(matpot.systems._minus(t2, a) for a in closure)
            kinds[1, decision is not None] += 1
        t2 = rng.choice(compositions)
        closure = [matpot.systems._key_label(t2, key) for key in ctx._decisions[t2] or ()]
        for a in sorted(frozenset(j for j, v in enumerate(t2, 1) if v)):
            outcome = _strong_outcome(search, matpot.systems._minus(t2, a), 0)
            assert isinstance(outcome, StrongDecomposition) == (a in closure), (ctx.matroid, ctx.m, t2, a)
            kinds[0, a in closure] += 1
    assert min(kinds.values()) >= 200, kinds


def test_flats_decision_matches_the_brute_force_on_the_small_sweep(linear_pairs, u13, u24):
    for matroid in (linear_pairs, u13, u24, PARALLEL_LOOP):
        for m in (1, 2):
            ctx = Context(matroid, m)
            mk = m * ctx.k
            for total in range(mk + 1, mk + 3):
                for mult in _bounded_compositions(total, (total,) * ctx.n):
                    T = ctx.system(mult)
                    report = equivalence_report(T)
                    assert {(d.T1.mult, d.T2.mult) for d in report.nodes} == brute_good_decompositions(T)
                    edges = pairwise_edges(report.nodes)
                    assert report.edges == edges
                    assert report.components == edge_components(len(report.nodes), edges)


def _general_position_context():
    """24 rows of rank 11 in general position, m = 2."""
    rng = random.Random(3)
    return Context(LinearMatroid([[rng.randint(-50, 50) for _ in range(11)] for _ in range(24)]), 2)


def test_general_position_rows_are_decided_by_the_search():
    # 24 rows of rank 11 in general position: the matroid is U(11, 24), but
    # the size bound of a linear matroid cannot prune its millions of flats
    # of rank < 11, so the enumeration stops at its budget and every
    # composition is decided by the label search and its circuit closure
    ctx = _general_position_context()
    T = ctx.system((1,) * 24)
    budget = matpot.systems.FLATS_PER_SEARCH * 24
    assert matpot.systems._binding_flats(ctx, T.mult, budget) is None
    report = equivalence_report(T)
    assert sum(1 for _, l in ctx._strong_memo if l == 1) == 24
    assert len(report.nodes) == comb(24, 23) and len(report.edges) == comb(24, 22) * comb(2, 2)
    assert report.component_count == 1
    uniform = equivalence_report(Context(UniformMatroid(11, 24), 2).system(T.mult))
    assert [d.T2.mult for d in report.nodes] == [d.T2.mult for d in uniform.nodes]
    assert report.edges == uniform.edges
    assert all(d.validate() for d in report.nodes[:3])


def test_descent_moves_chain_every_node_to_the_first_with_no_search(monkeypatch):
    # the paper's connectivity argument: from any two good decompositions,
    # descent moves (T2 -> T2 - [a] + [b] on one or both sides) meet after
    # l1 / 2 steps, each move lowering the distance of the second members
    # by exactly 2 and landing on nodes; after the reports, the moves read
    # the decisions only and no strong question is asked
    rng = random.Random(4700)
    reports = [equivalence_report(ctx.system(mult))
               for ctx, mult in (_random_flats_question(rng, max_rank=3) for _ in range(300))]
    reports.append(equivalence_report(_general_position_context().system((1,) * 24)))
    searched = []
    real = matpot.systems._strong_outcome

    def counting(ctx, mult, l):
        searched.append((mult, l))
        return real(ctx, mult, l)

    monkeypatch.setattr(matpot.systems, "_strong_outcome", counting)
    steps = 0
    for report in reports:
        nodes = {d.T2.mult for d in report.nodes}
        for node in report.nodes[1:]:
            cur, tgt = node, report.nodes[0]
            while cur.T2 != tgt.T2:
                move = descent_move(cur, tgt)
                assert move.distance_before == l1_distance(cur.T2, tgt.T2)
                cur, tgt = move.moved_t, move.moved_s
                assert move.distance_after == move.distance_before - 2 == l1_distance(cur.T2, tgt.T2)
                assert cur.T2.mult in nodes and tgt.T2.mult in nodes
                steps += 1
    assert searched == []
    assert steps >= 500, steps


def test_search_decider_past_the_flat_limit_gives_the_same_report(monkeypatch):
    # with no room for flats every miss is decided by the label search and
    # its circuit closure; the report is the one the flats give
    cases = [
        (ROADMAP_MATROID, 3, (3, 2, 2, 2, 2, 2)),
        (PARALLEL_LOOP, 2, (2, 1, 2, 1, 2)),
        (UniformMatroid(2, 5), 2, (3, 1, 1, 1, 1)),  # label 1 alone binds
    ]
    flats = [equivalence_report(Context(M, m).system(mult)) for M, m, mult in cases]
    monkeypatch.setattr(matpot.systems, "FLATS_PER_SEARCH", 0)
    for (M, m, mult), expected in zip(cases, flats):
        ctx = Context(M, m)
        report = equivalence_report(ctx.system(mult))
        assert report == expected
        assert any(l == 1 for _, l in ctx._strong_memo)
        assert all(d.validate() for d in report.nodes)
