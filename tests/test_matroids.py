import random
from fractions import Fraction
from itertools import combinations, compress

import pytest

from matpot import (
    GroundSet,
    GroundSetError,
    LinearMatroid,
    Matroid,
    PreconditionError,
    SizeLimitError,
    UniformMatroid,
)
from matpot import matroids
from matpot.jsonio import matroid_from_json

from oracles import (
    LiftedMatroid,
    brute_rank,
    circuits_within,
    fraction_circuit,
    fraction_rank,
    fraction_rref,
    matroid_to_json,
    subsets,
    tagged_reduced_form,
)


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


def test_linear_rows_must_exist_and_be_of_equal_length():
    with pytest.raises(GroundSetError, match="at least one row"):
        LinearMatroid([])
    with pytest.raises(GroundSetError, match="equal length"):
        LinearMatroid([(1, 0), (1,)])


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


def _shaped_rows(rng, n, width):
    """Random rational rows of one width, with some rows zero, some
    parallel to an earlier row, and some columns copies of others, so the
    rank often falls below the width."""
    rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(width)] for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.15:
            rows[i] = [Fraction(0)] * width
        elif i and rng.random() < 0.2:
            factor = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            rows[i] = [factor * v for v in rows[rng.randrange(i)]]
    if width > 1 and rng.random() < 0.4:
        c, d = rng.sample(range(width), 2)
        for row in rows:
            row[d] = 2 * row[c]
    return rows


def test_bases_table_matches_the_elimination_path(monkeypatch):
    # the bases read off the table of maximal minors over a greedy column
    # basis are those of one elimination per r-subset (``Matroid.bases``),
    # in the same order, for ranks below the width, parallel and zero rows;
    # the table takes at most one elimination, none at full column rank
    rng = random.Random(5757)
    eliminations = []
    real = matroids._eliminate

    def eliminating(rows, width, reduced=False):
        eliminations.append(len(rows))
        return real(rows, width, reduced)

    monkeypatch.setattr(matroids, "_eliminate", eliminating)
    ranks = set()
    for _ in range(150):
        n, width = rng.randint(1, 9), rng.randint(1, 5)
        M = LinearMatroid(_shaped_rows(rng, n, width))
        rank = M.full_rank
        ranks.add((rank < width, rank < min(n, width)))
        del eliminations[:]
        table = M.bases()
        assert len(eliminations) == (rank != width)
        assert table == Matroid.bases(LinearMatroid(M.rows))
        assert list(M.minors) == list(combinations(M.ground.labels, rank))
    assert ranks == {(False, False), (True, False), (True, True)}


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


def _sweep_rows(rng, n, width):
    """Rational rows mixing small fractions (denominators up to 7), negative
    entries, zero rows, entries near 10**30 and rows that are rational
    combinations of earlier rows."""
    rows = []
    for _ in range(n):
        u = rng.random()
        if u < 0.1:
            row = [Fraction(0)] * width
        elif u < 0.35 and rows:
            p, q = rng.choice(rows), rng.choice(rows)
            a, b = (Fraction(rng.randint(-7, 7), rng.randint(1, 7)) for _ in range(2))
            row = [a * x + b * y for x, y in zip(p, q)]
        elif u < 0.5:
            row = [
                Fraction(rng.choice([-1, 1]) * 10**30 + rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(width)
            ]
        else:
            row = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(width)]
        rows.append(row)
    return rows


def test_integer_elimination_matches_fraction_reference():
    # the third row has no entry in the first two pivot columns; after the
    # second pivot it must become lead * row / prev = (0, 0, 1), and scaling
    # it by lead // prev = 1 // 2 would erase it
    assert LinearMatroid([(2, 1, 0), (1, 1, 0), (0, 0, 1)]).rank({1, 2, 3}) == 3
    rng = random.Random(2024)
    for width in range(1, 13):
        for _ in range(6):
            rows = _sweep_rows(rng, rng.randint(1, 14), width)
            M = LinearMatroid(rows)
            full = frozenset(M.ground.labels)
            assert M.rank(full) == fraction_rank(rows)
            for _ in range(8):
                A = frozenset(e for e in full if rng.random() < 0.5)
                r = fraction_rank([rows[e - 1] for e in sorted(A)])
                assert M.rank(A) == r
                assert M.is_independent(A) == (r == len(A))


def test_integer_elimination_24x24():
    # without exact division by the previous pivot, entry sizes double per
    # pivot and this case does not finish
    rng = random.Random(24)
    rows = [
        [Fraction(rng.randint(-99, 99), rng.randint(1, 7)) for _ in range(24)] for _ in range(24)
    ]
    M = LinearMatroid(rows)
    assert M.rank(M.ground.labels) == fraction_rank(rows) == 24
    rows[-1] = [
        sum(Fraction(k + 1, 3) * r[j] for k, r in enumerate(rows[:-1])) for j in range(24)
    ]
    M = LinearMatroid(rows)
    assert M.rank(M.ground.labels) == fraction_rank(rows) == 23
    assert not M.is_independent(M.ground.labels)


def test_circuit_oracle_matches_enumeration():
    rng = random.Random(5)
    mats = [
        UniformMatroid(2, 5),
        # {1, 2, 7} is a parallel class and 5 is a loop
        LinearMatroid(
            [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0), (1, 2, 3), ("-1/2", 0, 0)]
        ),
        _random_linear(rng, 6, 3),
        # lift elements 1, 2 share label 1, 6 and 7 share label 4; label 5 is a loop
        LiftedMatroid(
            LinearMatroid([(1, 0), (0, 1), (1, 1), (2, 2), (0, 0)]), 7, (1, 1, 2, 3, 4, 5, 4)
        ),
        LiftedMatroid(UniformMatroid(2, 3), 5, (1, 1, 2, 3, 3)),
    ]
    for M in mats:
        elems = list(M.ground.labels)
        for C in subsets(elems):
            if not M.is_independent(C):
                continue
            for y in elems:
                if y in C:
                    continue
                found = M.circuit(C, y)
                if M.is_independent(C | {y}):
                    assert found is None
                else:
                    assert circuits_within(M, C | {y}) == {found}
    with pytest.raises(PreconditionError):
        LinearMatroid([(1, 0), (2, 0), (3, 0)]).circuit({1, 2}, 3)
    with pytest.raises(PreconditionError):
        UniformMatroid(2, 5).circuit({1, 2, 3}, 4)


def _expected_circuit(M, C, y):
    D = C | {y}
    if M.is_independent(D):
        return None
    (found,) = circuits_within(M, D)
    return found


def _span_rows(rng, n, width, rank):
    """n rows of width ``width``: most in a random rank-``rank`` subspace,
    some generic (outside it), one zero row and one row parallel to another."""
    basis = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rank)]
    rows = []
    for _ in range(n - 2):
        if rng.random() < 0.7:
            cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(cs, basis)) for j in range(width)])
        else:
            rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(width)])
    rows.append([Fraction(0)] * width)
    rows.append([Fraction(-3, 2) * v for v in rng.choice(rows[:-1])])
    rng.shuffle(rows)
    return rows


def test_memoized_circuit_matches_enumeration():
    # many y against one class read the class's memoized elimination; each
    # answer must be the unique circuit of C + y, including where y leaves
    # the span of C through a column that no pivot of C covers (width 6 over
    # rank 3), on loops, parallel rows and entries near 10**30
    rng = random.Random(17)
    cases = [LinearMatroid(_span_rows(rng, 8, 6, 3)) for _ in range(6)]
    cases += [LinearMatroid(_sweep_rows(rng, 8, w)) for w in (1, 2, 3, 4, 5, 6) for _ in range(2)]
    checked = 0
    for M in cases:
        elems = list(M.ground.labels)
        classes = [C for C in subsets(elems) if len(C) <= 4 and M.is_independent(C)]
        for C in rng.sample(classes, min(12, len(classes))):
            for y in elems:
                assert M.circuit(C, y) == _expected_circuit(M, C, y)
                checked += 1
            # the same class after a label is removed, and after one is added
            changed = [C - {e} for e in sorted(C)[:1]] + [C | {e} for e in elems if e not in C][:2]
            for C2 in changed:
                if M.is_independent(C2):
                    for y in elems:
                        assert M.circuit(C2, y) == _expected_circuit(M, C2, y)
                        checked += 1
    assert checked > 2000


def test_repeated_circuit_queries_replay_no_pivot_rows(monkeypatch):
    # the class's echelon entry keeps every answer: the first pass reduces
    # each (class, element) pair once against the class's form, the second
    # pass never
    rng = random.Random(23)
    M = LinearMatroid(_span_rows(rng, 8, 6, 3))
    replays = []
    real = LinearMatroid._reduce

    def counting(self, labels, pivots, y):
        replays.append(y)
        return real(self, labels, pivots, y)

    monkeypatch.setattr(LinearMatroid, "_reduce", counting)
    elems = list(M.ground.labels)
    classes = [C for C in subsets(elems) if M.is_independent(C)]
    first = {(C, y): M.circuit(C, y) for C in classes for y in elems}
    assert len(replays) == sum(y not in C for C in classes for y in elems)
    replays.clear()
    second = {(C, y): M.circuit(C, y) for C in classes for y in elems}
    assert replays == []
    assert second == first == {(C, y): _expected_circuit(M, C, y) for C in classes for y in elems}


def test_memoized_circuit_still_validates_its_inputs():
    M = LinearMatroid([(1, 0), (0, 1), (1, 1), (2, 3)])
    assert M.circuit({1, 3}, 4) == frozenset({1, 3, 4})
    # True equals the label 1 of the class, and 4's answer is stored
    for y in (True, 99):
        with pytest.raises(GroundSetError):
            M.circuit({1, 3}, y)
    with pytest.raises(GroundSetError):
        M.circuit({1, 0}, 4)
    with pytest.raises(PreconditionError):
        M.circuit({1, 3, 4}, 2)
    assert M.circuit({1, 3}, 4) == frozenset({1, 3, 4})


def test_memoized_circuit_through_lifts():
    # the second lift reads base classes that the first lift memoized
    base = LinearMatroid([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, 0), (2, 2, 0)])
    first = LiftedMatroid(base, 6, (1, 2, 3, 4, 5, 6))
    second = LiftedMatroid(base, 8, (1, 1, 2, 3, 3, 4, 5, 6))
    for M in (first, second):
        elems = list(M.ground.labels)
        for C in subsets(elems):
            if M.is_independent(C):
                for y in elems:
                    if y not in C:
                        assert M.circuit(C, y) == _expected_circuit(M, C, y)


def test_memoized_circuit_refuses_dependent_class():
    M = LinearMatroid([(1, 0), (2, 0), (0, 1), (1, 1)])
    with pytest.raises(PreconditionError):
        M.circuit({1, 2}, 3)
    # {1, 3} is independent and memoized; its superset {1, 2, 3} is not
    assert M.circuit({1, 3}, 4) == frozenset({1, 3, 4})
    for _ in range(2):  # a refusal leaves nothing memoized to answer the next call
        with pytest.raises(PreconditionError):
            M.circuit({1, 2, 3}, 4)
    assert M.circuit({1, 3}, 1) is None


def test_batched_circuits_match_fraction_solves():
    # one batched question about every label outside a random independent
    # class, below the width and at it: each row is the circuit of a
    # Fraction solve, or all False for a label the class takes, with int64
    # and exact row arrays, and the default built from ``_circuit`` agrees
    rng = random.Random(909)
    kinds = set()
    for scale in (1, 10**7):
        for _ in range(40):
            width, n = rng.randint(1, 4), rng.randint(3, 9)
            rows = [[rng.randint(-3, 3) * scale for _ in range(width)] for _ in range(n)]
            M = LinearMatroid(rows)
            C = M._max_independent(frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))))
            ys = [y for y in range(1, n + 1) if y not in C]
            labels, dependent, incidence = M._circuits(C, ys)
            assert set(labels) == C and incidence.shape == (len(ys), len(C))
            for y, dep, row in zip(ys, dependent, incidence):
                assert (frozenset(compress(labels, row)) | {y} if dep else None) == fraction_circuit(M.rows, C, y)
                assert dep or not row.any()
            default = Matroid._circuits(M, C, ys)
            assert (default[1] == dependent).all()
            assert (default[2][:, [default[0].index(e) for e in labels]] == incidence).all()
            kinds.add(M._row_array.dtype.kind)
    assert kinds == {"i", "O"}
    with pytest.raises(PreconditionError):
        LinearMatroid([(1, 0), (2, 0), (0, 1)])._circuits(frozenset({1, 2}), [3])


def test_circuit_queries_eliminate_a_class_once(monkeypatch):
    # a class's form is built once, by pivot steps and no elimination: the
    # class less one element takes one step per label from the empty form,
    # the class one step from that cached neighbour, a repeat none
    calls, grown = [], []
    original, real_grow = matroids._eliminate, LinearMatroid._grow

    def counting(rows, width, reduced=False):
        calls.append(len(rows))
        return original(rows, width, reduced)

    def growing(self, labels, form, y):
        grown.append(frozenset(labels) | {y})
        return real_grow(self, labels, form, y)

    monkeypatch.setattr(matroids, "_eliminate", counting)
    monkeypatch.setattr(LinearMatroid, "_grow", growing)
    M = LinearMatroid(_span_rows(random.Random(3), 12, 6, 3))
    C = M.max_independent_subset(M.ground.labels)
    smaller = C - {max(C)}
    calls.clear()
    for y in M.ground.labels:
        M.circuit(smaller, y)
    assert len(grown) == len(smaller) and grown[-1] == smaller
    grown.clear()
    for y in M.ground.labels:
        M.circuit(C, y)
        M.circuit(set(C), y)
    assert grown == [C]
    assert calls == []


def _deficient_rows(rng):
    """Integer rows of a random rank-deficient product, with zero and
    repeated rows, zero columns, and up to three carried columns."""
    n, width = rng.randint(1, 8), rng.randint(1, 6)
    rank = rng.randint(0, min(n, width))
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(n)]
    right = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rank)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if rank else [0] * width
            for row in left]
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), [0] * width)
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    for _ in range(rng.randint(0, 2)):
        c = rng.randint(0, width)
        rows = [row[:c] + [0] + row[c:] for row in rows]
    width = len(rows[0])
    carried = rng.randint(0, 3)
    return [tuple(row) + tuple(rng.randint(-5, 5) for _ in range(carried)) for row in rows], width


def test_reduced_elimination_is_d_times_the_fraction_rref():
    rng = random.Random(33)
    deficient = 0
    for _ in range(200):
        rows, width = _deficient_rows(rng)
        rank, m = matroids._eliminate(rows, width, reduced=True)
        ref_rank, ref, det = fraction_rref(rows, width)
        assert rank == ref_rank == fraction_rank([row[:width] for row in rows])
        # D is the last pivot, the product of the Fraction pivots, and every
        # pivot of the reduced rows equals it
        D = next(v for v in m[rank - 1] if v) if rank else 1
        assert D == det
        assert [list(row) for row in m] == [[D * v for v in row] for row in ref]
        assert all(type(v) is int for row in m for v in row)
        deficient += rank < min(len(rows), width)
    assert deficient > 50


def _by_pivot(labels, form):
    """|D| and, for each pivot column, its row of the form times the sign of
    D: the free entries in column order and the tag entries in label order."""
    pivots, D, free, tags = form
    sign = 1 if D > 0 else -1
    by_label = sorted(zip(labels, tags))
    return abs(D), tuple(c for c, _ in free), {
        p: (tuple(sign * col[i] for _, col in free), tuple(sign * t[i] for _, t in by_label))
        for i, p in enumerate(pivots)
    }


def test_grown_forms_match_one_tagged_elimination():
    # classes grown along random orders, one pivot step per element, against
    # one tagged elimination of the class's rows: the same form up to D's
    # sign and the order of the rows; a dependent element is refused and
    # leaves the cache as it was
    rng = random.Random(37)
    grown = refused = 0
    for draw in range(120):
        if draw % 2:
            rows, width = _deficient_rows(rng)
            rows = [row[:width] for row in rows]
        else:
            width = rng.randint(1, 6)
            rows = _span_rows(rng, rng.randint(3, 9), width, rng.randint(1, width))
        M = LinearMatroid(rows)
        elems = list(M.ground.labels)
        # a fresh class folds from the empty form
        C = M.max_independent_subset([e for e in elems if rng.random() < 0.6])
        labels, form, _ = M._echelon(C)
        assert _by_pivot(labels, form) == _by_pivot(*tagged_reduced_form(M._int_rows, C, width))
        C = frozenset()
        for y in rng.sample(elems, len(elems)):
            for z in elems:
                assert M._circuit(C, z) == _expected_circuit(M, C, z)
            before = dict(M._echelon_cache)
            if M._circuit(C, y) is None:
                labels, form, _ = M._echelon(C | {y})
                assert _by_pivot(labels, form) == _by_pivot(*tagged_reduced_form(M._int_rows, C | {y}, width))
                C |= {y}
                grown += 1
            else:
                assert tagged_reduced_form(M._int_rows, C | {y}, width) is None
                with pytest.raises(PreconditionError):
                    M._echelon(C | {y})
                assert M._echelon_cache == before
                refused += 1
    assert grown > 150 and refused > 300


class _GreedyUniform(Matroid):
    """U(2, 5) through the generic greedy rank and brute-force circuit."""

    def __init__(self):
        super().__init__(GroundSet(5))

    def _independent(self, A):
        return len(A) <= 2

    def __repr__(self):
        return "GreedyUniform(l=2, n=5)"


_BOOL_CASES = [
    LinearMatroid([(1, 0), (0, 1), (1, 1), (2, 3), (0, 0)]),
    UniformMatroid(2, 5),
    LiftedMatroid(LinearMatroid([(1, 0), (0, 1), (1, 1)]), 5, (1, 2, 3, 1, 2)),
    LiftedMatroid(UniformMatroid(2, 3), 5, (1, 2, 3, 3, 1)),
    _GreedyUniform(),
]


@pytest.mark.parametrize("M", _BOOL_CASES, ids=repr)
def test_bool_next_to_its_equal_label_is_refused(M):
    # every label is checked as given, before a set could merge True into 1
    queries = [
        lambda: M.is_independent([1, True]),
        lambda: M.rank([1, True]),
        lambda: M.max_independent_subset([1, True]),
        lambda: M.circuit([1, True], 3),
        lambda: M.circuit({1, 3}, True),
        lambda: M.circuit([3, False], 1),
    ]
    for query in queries:
        with pytest.raises(GroundSetError):
            query()
    # the same queries without the bool are answered
    assert M.is_independent([1]) and M.rank([1]) == 1 and M.circuit({1}, 3) is None


def test_generic_cores_agree_with_uniform():
    M, U = _GreedyUniform(), UniformMatroid(2, 5)
    elems = list(U.ground.labels)
    for A in subsets(elems):
        assert M.rank(A) == U.rank(A) and M.max_independent_subset(A) == U.max_independent_subset(A)
        if len(A) <= 2:
            for y in elems:
                assert M.circuit(A, y) == U.circuit(A, y)


def test_generic_circuit_refuses_a_dependent_class(monkeypatch):
    # D - y is the class, so the query that decides y's membership in the
    # circuit also decides the precondition: no extra oracle query
    M = _GreedyUniform()
    queries = []
    monkeypatch.setattr(_GreedyUniform, "_independent", lambda self, A: queries.append(A) or len(A) <= 2)
    for C, y in (({1, 2, 3}, 4), ({1, 2, 3}, 1), ({1, 2, 3, 4}, 5)):
        queries.clear()
        with pytest.raises(PreconditionError, match="independent clazz"):
            M.circuit(C, y)
        assert len(queries) == len(set(C) | {y}) + 1
    queries.clear()
    assert M.circuit({1, 2}, 3) == frozenset({1, 2, 3}) and len(queries) == 4
    assert M.circuit(set(), 1) is None and M.circuit({1, 2}, 1) is None


@pytest.mark.parametrize("base", [UniformMatroid(2, 2), LinearMatroid([(1, 0), (0, 1)])], ids=repr)
def test_lifted_circuit_refuses_a_class_that_shares_a_base_label(monkeypatch, base):
    # lift labels 1 and 2 both map to base label 1, so {1, 2} is dependent;
    # the query's own back map sees it, and the base is never asked
    M = LiftedMatroid(base, 3, (1, 1, 2))
    assert not M.is_independent({1, 2})
    asked = []
    real = type(base)._circuit
    monkeypatch.setattr(type(base), "_circuit", lambda self, C, y: asked.append(C) or real(self, C, y))
    for C, y in (({1, 2}, 3), ({1, 2}, 1), ({1, 2, 3}, 3)):
        with pytest.raises(PreconditionError, match="independent clazz"):
            M.circuit(C, y)
    assert asked == []
    assert M.circuit({1, 3}, 2) == frozenset({1, 2}) and M.circuit({1}, 3) is None


def test_lifted_queries_never_check_base_labels(monkeypatch):
    # the lift map is validated when the lifted matroid is built; a query
    # checks its own labels once and maps them onto the base's cores
    base = LinearMatroid([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (2, 2, 0)])
    L = LiftedMatroid(base, 8, (1, 1, 2, 3, 3, 4, 5, 5))
    checked = []
    real = GroundSet.check_subset

    def counting(self, subset):
        checked.append(self.n)
        return real(self, subset)

    monkeypatch.setattr(GroundSet, "check_subset", counting)
    elems = list(L.ground.labels)
    queries = 0
    for A in subsets(elems):
        L.rank(A)
        L.max_independent_subset(A)
        queries += 2
        if L.is_independent(A):
            for y in elems:
                L.circuit(A, y)
                queries += 1
        queries += 1
    assert checked == [8] * queries


def test_memo_lookups_live_in_the_base_class():
    # the subclasses implement exact cores only; the public oracle, its label
    # check and its memos belong to Matroid
    public = ("is_independent", "rank", "max_independent_subset", "circuit")
    for cls in (LinearMatroid, UniformMatroid, LiftedMatroid):
        assert not set(public) & set(vars(cls))
        assert "_independent" in vars(cls) and "_rank" in vars(cls) and "_circuit" in vars(cls)


def test_uniform_full_rank_is_arithmetic():
    # no label of the ground set is built
    assert UniformMatroid(3, 2**64).full_rank == 3
    assert UniformMatroid(0, 5).full_rank == 0
