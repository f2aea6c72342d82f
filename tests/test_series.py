import math
from itertools import permutations, product

import numpy as np
import pytest

from matpot import SizeLimitError
from matpot.series import MAX_TABLE_ENTRIES, MUL_CHUNK_ELEMENTS, SeriesSpace


def _random_series(rng, space, shape):
    size = shape + (space.size,)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _brute_mul(space, a, b):
    """Truncated product by looping over every pair of monomials."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i, alpha in enumerate(space.monomials):
        for j, beta in enumerate(space.monomials):
            gamma = tuple(u + v for u, v in zip(alpha, beta))
            if sum(gamma) <= space.q:
                out[..., space.index[gamma]] += a[..., i] * b[..., j]
    return out


@pytest.mark.parametrize("n,q", [(1, 6), (2, 4), (3, 3), (4, 2), (5, 1), (3, 0)])
def test_monomials_are_graded_lexicographic(n, q):
    space = SeriesSpace(n, q)
    want = sorted(
        (e for e in product(range(q + 1), repeat=n) if sum(e) <= q), key=lambda e: (sum(e), e)
    )
    assert list(space.monomials) == want
    assert space.size == math.comb(n + q, q)


@pytest.mark.parametrize("n,q", [(1, 6), (2, 4), (3, 3), (4, 2), (5, 1), (3, 0)])
def test_mul_matches_pairwise_product(n, q):
    rng = np.random.default_rng(n * 10 + q)
    space = SeriesSpace(n, q)
    a = _random_series(rng, space, (3,))
    b = _random_series(rng, space, (2, 1))
    assert np.allclose(space.mul(a, b), _brute_mul(space, a, b), rtol=0, atol=1e-12)


def _row_by_row_mul(space, a, b):
    """One segmented sum per batch row."""
    a, b = np.broadcast_arrays(a, b)
    rows_a, rows_b = a.reshape(-1, space.size), b.reshape(-1, space.size)
    out = [
        np.add.reduceat(ra[space._left] * rb[space._right], space._starts)
        for ra, rb in zip(rows_a, rows_b)
    ]
    return np.array(out).reshape(a.shape)


@pytest.mark.parametrize("n,q", [(2, 3), (4, 1), (5, 6)])
def test_chunked_mul_is_bit_identical_to_row_by_row(n, q):
    # (2, 3) and (4, 1) put many rows in each chunk and the batch spans
    # several chunks; a (5, 6) row is longer than the whole budget, so every
    # chunk is one row
    rng = np.random.default_rng(n * 100 + q)
    space = SeriesSpace(n, q)
    pairs = len(space._left)
    rows = 3 * max(1, MUL_CHUNK_ELEMENTS // pairs) + 2
    assert (pairs > MUL_CHUNK_ELEMENTS) == (n == 5)
    a = _random_series(rng, space, (rows,))
    b = _random_series(rng, space, (rows,))
    assert np.array_equal(space.mul(a, b), _row_by_row_mul(space, a, b))
    # broadcast operands, as in a product of a matrix with a vector
    c = _random_series(rng, space, (rows, 1))
    d = _random_series(rng, space, (1, 3))
    assert np.array_equal(space.mul(c, d), _row_by_row_mul(space, c, d))


def test_variables_and_constants():
    space = SeriesSpace(3, 2)
    z = space.constant([1.0, 2.0, 3.0]) + space.variables()
    # (1 + d1)(2 + d2) = 2 + 2 d1 + d2 + d1 d2
    prod = space.mul(z[0], z[1])
    want = {(0, 0, 0): 2.0, (1, 0, 0): 2.0, (0, 1, 0): 1.0, (1, 1, 0): 1.0}
    for alpha, c in zip(space.monomials, prod):
        assert c == want.get(alpha, 0.0)
    assert not SeriesSpace(3, 0).variables().any()


def test_reciprocal_inverts():
    rng = np.random.default_rng(7)
    for q in range(6):
        space = SeriesSpace(2, q)
        a = _random_series(rng, space, (4,))
        a[:, 0] += 3.0
        one = space.mul(a, space.reciprocal(a))
        assert np.allclose(one, space.constant(np.ones(4)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_and_det_of_series_matrices(k):
    rng = np.random.default_rng(k)
    space = SeriesSpace(2, 3)
    A = _random_series(rng, space, (2, k, k))
    A[..., 0] += 2.0 * np.eye(k)
    rhs = _random_series(rng, space, (2, k, 2))
    X = space.solve(A, rhs)
    back = sum(space.mul(A[:, :, j, None, :], X[:, j, None, :, :]) for j in range(k))
    assert np.allclose(back, rhs, rtol=0, atol=1e-11)
    det = 0
    for perm in permutations(range(k)):
        sign = round(np.linalg.det(np.eye(k)[list(perm)]))
        term = space.constant(np.ones(2))
        for row, col in enumerate(perm):
            term = space.mul(term, A[:, row, col])
        det = det + sign * term
    assert np.allclose(space.det(A), det, rtol=0, atol=1e-11)


def test_table_size_limit():
    # C(2n + q, q) pairs of n exponents each
    assert math.comb(2 * 6 + 10, 10) * 6 <= MAX_TABLE_ENTRIES
    assert SeriesSpace(6, 10).size == math.comb(16, 10)
    assert math.comb(2 * 4 + 21, 21) * 4 > MAX_TABLE_ENTRIES
    with pytest.raises(SizeLimitError, match="4292145 pairs"):
        SeriesSpace(4, 21)
