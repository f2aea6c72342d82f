import random
from fractions import Fraction

import pytest

from matpot import (
    GroundSet,
    GroundSetError,
    LiftedMatroid,
    LinearMatroid,
    SizeLimitError,
    UniformMatroid,
)
from matpot.jsonio import matroid_from_json, matroid_to_json

from oracles import brute_rank, circuits_within, subsets


def test_linear_independence_examples():
    M = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    assert M.is_independent({1, 3}) is True
    assert M.is_independent(set()) is True
    M2 = LinearMatroid([(1, 0), (2, 0), (0, 1)])
    assert M2.is_independent({1, 2}) is False


def test_rank_examples():
    assert UniformMatroid(2, 5).rank({1, 2, 3}) == 2
    assert LinearMatroid([(1, 0), (2, 0), (0, 1)]).rank({1, 2}) == 1
    assert LinearMatroid([(1, 0), (0, 1), (1, 1)]).rank({1, 2, 3}) == 2


def test_max_independent_subset_examples():
    assert UniformMatroid(1, 3).max_independent_subset({2, 3}) == {2}
    M = LinearMatroid([(1, 0), (2, 0), (0, 1)])
    assert M.max_independent_subset({1, 2, 3}) == {1, 3}
    assert M.max_independent_subset(set()) == frozenset()


def test_circuits_examples():
    M = LinearMatroid([(1, 0), (2, 0), (0, 1)])
    assert circuits_within(M, {1, 2, 3}) == {frozenset({1, 2})}
    assert circuits_within(UniformMatroid(2, 3), {1, 2, 3}) == {frozenset({1, 2, 3})}
    assert circuits_within(LinearMatroid([(1, 0), (0, 1)]), {1, 2}) == frozenset()


def test_circuit_size_limit():
    M = UniformMatroid(1, 25)
    with pytest.raises(SizeLimitError):
        circuits_within(M, set(range(1, 23)))


def test_ground_set_errors():
    with pytest.raises(GroundSetError):
        GroundSet(0)
    M = UniformMatroid(1, 3)
    with pytest.raises(GroundSetError):
        M.is_independent({0})
    with pytest.raises(GroundSetError):
        M.rank({4})


def test_float_entries_rejected():
    with pytest.raises(GroundSetError):
        LinearMatroid([(0.5, 1)])


def test_exact_rational_entries():
    M = LinearMatroid([(Fraction(1, 3), 1), ("2/6", 2)])
    assert M.rank({1, 2}) == 2  # second row is not a multiple of the first
    M2 = LinearMatroid([(Fraction(1, 3), 1), ("2/6", 2)])
    assert M == M2 and hash(M) == hash(M2)


def test_uniform_validation():
    with pytest.raises(GroundSetError):
        UniformMatroid(4, 3)
    with pytest.raises(GroundSetError):
        UniformMatroid(-1, 3)


def test_bases_enumeration():
    M = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    assert [sorted(B) for B in M.bases()] == [[1, 2], [1, 3], [2, 3]]
    assert UniformMatroid(1, 3).bases() == (frozenset({1}), frozenset({2}), frozenset({3}))


def _random_linear(rng, n, k):
    return LinearMatroid(
        [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(n)]
    )


def test_axioms_randomized():
    rng = random.Random(1234)
    for _ in range(10):
        M = _random_linear(rng, rng.randint(1, 6), rng.randint(1, 3))
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
            assert len(sizes) == 1
            assert M.rank(A) in sizes


def test_rank_matches_greedy_oracle():
    rng = random.Random(99)
    mats = [
        _random_linear(rng, 5, 2),
        UniformMatroid(2, 5),
        LiftedMatroid(UniformMatroid(2, 3), 5, (1, 1, 2, 3, 3)),
    ]
    for M in mats:
        for A in subsets(M.ground.labels):
            assert M.rank(A) == len(M.max_independent_subset(A)) == brute_rank(M, A)


def test_lifted_rank_is_base_rank_of_image():
    rng = random.Random(7)
    for _ in range(5):
        base = _random_linear(rng, 4, 2)
        size = rng.randint(1, 10)
        fmap = tuple(rng.randint(1, 4) for _ in range(size))
        L = LiftedMatroid(base, size, fmap)
        for A in subsets(range(1, size + 1)):
            assert L.rank(A) == base.rank(L.image(A))


def test_lifted_independence_requires_injectivity():
    L = LiftedMatroid(UniformMatroid(2, 2), 3, (1, 1, 2))
    assert not L.is_independent({1, 2})
    assert L.is_independent({1, 3})


def test_union_with_one_element_has_at_most_one_circuit():
    rng = random.Random(31)
    for _ in range(5):
        M = _random_linear(rng, 5, 2)
        elems = list(M.ground.labels)
        for I in subsets(elems):
            if not M.is_independent(I):
                continue
            for e in elems:
                if e not in I:
                    assert len(circuits_within(M, I | {e})) <= 1


def test_maximal_exchange_on_unions_and_intersections():
    rng = random.Random(13)
    for _ in range(5):
        M = _random_linear(rng, 5, 3)
        elems = list(M.ground.labels)
        for _ in range(40):
            A1 = frozenset(e for e in elems if rng.random() < 0.5)
            A2 = frozenset(e for e in elems if rng.random() < 0.5)
            I1 = M.max_independent_subset(A1)
            I2 = M.max_independent_subset(A2)
            if not M.is_independent(I1 | I2):
                continue
            assert len(I1 | I2) == M.rank(A1 | A2)
            assert len(I1 & I2) == M.rank(A1 & A2)


def test_matroid_json_round_trip():
    mats = [
        LinearMatroid([(1, 0), (Fraction(2, 3), 1)]),
        UniformMatroid(2, 4),
    ]
    for M in mats:
        again = matroid_from_json(matroid_to_json(M))
        assert again == M


def test_memoization_is_consistent():
    M = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    assert M.rank({1, 2, 3}) == M.rank({1, 2, 3})
    assert M.is_independent({1, 2}) is M.is_independent({1, 2})
