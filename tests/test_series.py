import math
from itertools import permutations

import numpy as np
import pytest

from matpot import SizeLimitError
from matpot.series import MAX_TABLE_ENTRIES, MUL_CHUNK_ELEMENTS, SeriesSpace

from oracles import graded_lex_monomials, jacobi_det, monomial_index, newton_reciprocal, row_by_row_eliminate


def _random_series(rng, space, shape):
    size = shape + (space.size,)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _brute_mul(space, a, b):
    """Truncated product by looping over every pair of monomials."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    index = monomial_index(space)
    for i, alpha in enumerate(index):
        for j, beta in enumerate(index):
            gamma = tuple(u + v for u, v in zip(alpha, beta))
            if sum(gamma) <= space.q:
                out[..., index[gamma]] += a[..., i] * b[..., j]
    return out


@pytest.mark.parametrize("n,q", [(1, 6), (2, 4), (3, 3), (4, 2), (5, 1), (3, 0)])
def test_monomials_are_graded_lexicographic(n, q):
    space = SeriesSpace(n, q)
    want = graded_lex_monomials(n, q)
    assert list(map(tuple, space.exponents.tolist())) == want
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
        np.add.reduceat(ra[space._left] * rb[space._right], space._starts[:-1])
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


def _straddle(pairs, per_row):
    """The largest batch count whose product of ``pairs`` table entries
    with ``per_row`` batch rows per count is one shot, and the next one,
    which goes in chunks."""
    fit = MUL_CHUNK_ELEMENTS // (pairs * per_row)
    assert fit >= 1
    return fit, fit + 1


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (4, 1), (2, 5)])
@pytest.mark.parametrize("layout", ["sections", "members"])
def test_broadcast_mul_is_bit_identical_to_row_by_row(n, q, layout):
    # the layouts of the library's products, (bases, 1, mu) x (bases, mu, mu)
    # and (mu,) x (members, mu), at batch counts on both sides of the
    # one-shot bound; the reference multiplies broadcast copies row by row
    rng = np.random.default_rng(n * 100 + q)
    space = SeriesSpace(n, q)
    mu, pairs = 3, len(space._left)
    per_row = mu * mu if layout == "sections" else mu
    for count in _straddle(pairs, per_row):
        if layout == "sections":
            a, b = _random_series(rng, space, (count, 1, mu)), _random_series(rng, space, (count, mu, mu))
        else:
            a, b = _random_series(rng, space, (mu,)), _random_series(rng, space, (count, mu))
        assert np.array_equal(space.mul(a, b), _row_by_row_mul(space, a, b))
        assert np.array_equal(space.mul(b, a), _row_by_row_mul(space, b, a))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (2, 5)])
def test_mul_degree_is_bit_identical_on_every_block(n, q):
    # every degree block at batch counts on both sides of that block's own
    # one-shot bound, against the same block of the row-by-row product
    rng = np.random.default_rng(n * 10 + q)
    space = SeriesSpace(n, q)
    for d in range(q + 1):
        block = space.degrees[d]
        pairs = int(space._starts[block.stop] - space._starts[block.start])
        for count in _straddle(pairs, 2):
            a, b = _random_series(rng, space, (count, 1)), _random_series(rng, space, (1, 2))
            want = _row_by_row_mul(space, a, b)[..., block]
            assert np.array_equal(space.mul_degree(a, b, d), want)


def _broadcast_matmul(space, a, b):
    """The series matrix product as a broadcast multiply summed over the
    inner index."""
    return space.mul(a[..., :, :, None, :], b[..., None, :, :, :]).sum(axis=-3)


@pytest.mark.parametrize("n,q", [(1, 6), (2, 3), (4, 1), (9, 1), (3, 0)])
def test_matmul_matches_the_broadcast_product(n, q):
    # the same terms as the broadcast formula, summed in another order, so
    # equal to roundoff of the largest entry; the batch axes broadcast
    rng = np.random.default_rng(n * 10 + q)
    space = SeriesSpace(n, q)
    for a_shape, b_shape in [((3, 4), (4, 2)), ((2, 3, 4), (4, 5)), ((2, 1, 3, 4), (5, 4, 1))]:
        a, b = _random_series(rng, space, a_shape), _random_series(rng, space, b_shape)
        got, want = space.matmul(a, b), _broadcast_matmul(space, a, b)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (9, 1), (2, 5)])
def test_matmul_degree_is_a_slice_of_the_product(n, q):
    # each block sums the same table entries as ``matmul`` does, bit for bit
    rng = np.random.default_rng(n * 100 + q)
    space = SeriesSpace(n, q)
    a, b = _random_series(rng, space, (2, 1, 3, 4)), _random_series(rng, space, (3, 4, 2))
    full = space.matmul(a, b)
    for d in range(q + 1):
        assert np.array_equal(space.matmul_degree(a, b, d), full[..., space.degrees[d]])


@pytest.mark.parametrize("n,q", [(2, 3), (9, 1)])
def test_matmul_rows_and_columns_are_those_of_one_row(n, q):
    # each batch row of a stack, and each column of a wide right operand, is
    # the product of that row or column alone, bit for bit, also where a
    # batch axis broadcasts and where an operand is a transposed view
    rng = np.random.default_rng(n + q)
    space = SeriesSpace(n, q)
    a, b = _random_series(rng, space, (5, 6, 6)), _random_series(rng, space, (5, 6, 7))
    stacked = space.matmul(a, b)
    wide = space.matmul(a[:, None], b[None])
    flipped = space.matmul(a.swapaxes(1, 2), b)
    for row in range(5):
        assert np.array_equal(stacked[row], space.matmul(a[row:row + 1], b[row:row + 1])[0])
        assert np.array_equal(wide[row, row], stacked[row])
        assert np.array_equal(flipped[row], space.matmul(np.ascontiguousarray(a[row].swapaxes(0, 1)), b[row]))
        for col in range(7):
            assert np.array_equal(stacked[row, :, col:col + 1], space.matmul(a[row], b[row, :, col:col + 1]))


def test_variables_and_constants():
    space = SeriesSpace(3, 2)
    z = space.constant([1.0, 2.0, 3.0]) + space.variables()
    # (1 + d1)(2 + d2) = 2 + 2 d1 + d2 + d1 d2
    prod = space.mul(z[0], z[1])
    want = {(0, 0, 0): 2.0, (1, 0, 0): 2.0, (0, 1, 0): 1.0, (1, 1, 0): 1.0}
    for alpha, c in zip(graded_lex_monomials(3, 2), prod):
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
    assert np.allclose(jacobi_det(space, A), det, rtol=0, atol=1e-11)


@pytest.mark.parametrize("q", range(7))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_solve_and_det_equal_row_by_row_elimination(k, q):
    # the degree recurrences against Gauss-Jordan over series with Newton
    # reciprocals (the oracle shares only ``mul`` with them)
    rng = np.random.default_rng(10 * k + q)
    space = SeriesSpace(2, q)
    A = _random_series(rng, space, (3, k, k))
    A[..., 0] += 2.0 * np.eye(k)
    rhs = _random_series(rng, space, (3, k, 2))
    X, det = space.solve(A, rhs), jacobi_det(space, A)
    back = sum(space.mul(A[:, :, j, None, :], X[:, j, None, :, :]) for j in range(k))
    assert np.abs(back - rhs).max() <= 1e-13 * np.abs(A).max() * np.abs(X).max()
    X_ref, det_ref = row_by_row_eliminate(space, A, rhs)
    assert np.abs(X - X_ref).max() <= 1e-12 * np.abs(X_ref).max()
    assert np.abs(det - det_ref).max() <= 1e-12 * np.abs(det_ref).max()
    if k == 2:
        ad_bc = space.mul(A[:, 0, 0], A[:, 1, 1]) - space.mul(A[:, 0, 1], A[:, 1, 0])
        assert np.abs(det - ad_bc).max() <= 1e-13 * np.abs(ad_bc).max()


@pytest.mark.parametrize("q", range(11))
def test_reciprocal_equals_newton_reciprocal(q):
    # the coefficients of 1/a grow like (|a_1| / |a_0|)^d, so both bounds
    # are relative to the largest of them
    rng = np.random.default_rng(q)
    space = SeriesSpace(2, q)
    a = _random_series(rng, space, (4,))
    a[:, 0] += 3.0
    r = space.reciprocal(a)
    one = space.mul(a, r) - space.constant(np.ones(4))
    assert np.abs(one).max() <= 1e-14 * np.abs(a).max() * np.abs(r).max()
    assert np.abs(r - newton_reciprocal(space, a)).max() <= 1e-14 * np.abs(r).max()


@pytest.mark.parametrize("n,q", [(2, 3), (4, 1), (5, 6)])
def test_degree_blocks_are_slices_of_the_product(n, q):
    # each block sums the same table entries as ``mul`` does, bit for bit,
    # on a batch that spans several chunks and with broadcast operands
    rng = np.random.default_rng(n * 100 + q)
    space = SeriesSpace(n, q)
    a = _random_series(rng, space, (3 * max(1, MUL_CHUNK_ELEMENTS // len(space._left)) + 2, 1))
    b = _random_series(rng, space, (1, 2))
    full = space.mul(a, b)
    assert space.degrees[0] == slice(0, 1) and space.degrees[-1].stop == space.size
    for d in range(q + 1):
        assert np.array_equal(space.mul_degree(a, b, d), full[..., space.degrees[d]])


def test_table_size_limit():
    # C(2n + q, q) pairs of n exponents each
    assert math.comb(2 * 6 + 10, 10) * 6 <= MAX_TABLE_ENTRIES
    assert SeriesSpace(6, 10).size == math.comb(16, 10)
    assert math.comb(2 * 4 + 21, 21) * 4 > MAX_TABLE_ENTRIES
    with pytest.raises(SizeLimitError, match="4292145 pairs"):
        SeriesSpace(4, 21)
