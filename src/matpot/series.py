"""Truncated multivariate power series, dense over the monomials of degree <= q.

A series in the variables delta_1, ..., delta_n is a complex array whose last
axis holds the coefficients of the monomials delta^alpha with |alpha| <= q,
in graded lexicographic order (by total degree, then by the exponent tuples
in lexicographic order); the leading axes are a batch.  A ``SeriesSpace``
keeps those monomials as one exponent array, ``exponents``, and places a
monomial by ``graded_lex_position``.  It owns the product table: every pair
of monomials whose product survives the truncation, sorted by the product's
position, so that a multiply is a ``take`` of each operand along the table
and one segmented sum, and the degree-d block of a product is the
contiguous slice of the table whose products have degree d; the space
slices the table for the full product and for each degree block once.  A
small product is one broadcast multiply; a large one goes in chunks of
batch rows that bound its temporaries.  A product of matrices of series
takes the same table: both operands gathered along it, one ``einsum`` over
the inner index and one segmented sum, never chunked.  Its gathered
operands hold the C(2n + q, q) pairs of the table against the C(n + q, q)
coefficients of its inputs, so they are the size of its inputs only at q
<= 1 (one mu 55 frame jet traced 7.2, 35 and 207 MB at q = 1, 2 and 3);
every package caller is at q <= 1.  On top of these sit the reciprocal
and, for batches of small k x k matrices of series, a linear solve, each
built one total degree at a time: degree d reads the lower degrees and the
inverse of a constant term, so no step iterates.  No determinant of series
matrices is taken: the residue weights get theirs by Cauchy-Binet, from
products of series.

The table has C(2n + q, q) pairs, one exponent vector each; a space whose
table would exceed MAX_TABLE_ENTRIES raises SizeLimitError before anything
is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeLimitError

MAX_TABLE_ENTRIES = 1 << 22  # pairs x variables of the largest product table
MUL_CHUNK_ELEMENTS = 1 << 12  # product-table entries of a one-shot ``mul``, and per chunk of a larger one


def graded_lex_exponents(n: int, q: int) -> np.ndarray:
    """Exponent rows of all monomials of degree <= q in n variables, in
    graded lexicographic order; shape (C(n + q, q), n)."""
    rows = np.zeros((1, 0), dtype=np.int64)
    # prepend one variable at a time: every row takes each first exponent its
    # degree leaves room for; a stable sort on it keeps the rows lexicographic
    for _ in range(n):
        counts = q - rows.sum(axis=1) + 1
        old = np.repeat(np.arange(len(rows)), counts)
        first = np.arange(len(old)) - np.repeat(np.cumsum(counts) - counts, counts)
        order = np.argsort(first, kind="stable")
        rows = np.column_stack([first[order], rows[old[order]]])
    return rows[np.argsort(rows.sum(axis=1), kind="stable")]


def graded_lex_position(n: int, degree, columns) -> np.ndarray:
    """Position of monomials among all monomials in n variables, graded
    lexicographically: those of lower degree, then for each variable v the
    compositions of the remaining degree that put less on v.  ``degree`` and
    the exponents of v = 0, ..., n - 2 that ``columns`` yields broadcast."""
    rem = np.asarray(degree)
    rows = range(int(rem.max(initial=0)) + n + 1)
    binom = np.array([[math.comb(a, b) for b in range(n + 1)] for a in rows], dtype=np.int64)
    position = binom[rem + n - 1, n]
    for v, e in enumerate(columns):
        r = n - 1 - v
        position = position + binom[rem + r, r] - binom[rem - e + r, r]
        rem = rem - e
    return position


def _matrix_product(a, b, left, right, starts) -> np.ndarray:
    """``SeriesSpace.matmul`` on the product table entries (left, right) whose
    output coefficients start at ``starts``."""
    pairs = np.einsum("...iqt,...qjt->...ijt", np.asarray(a).take(left, axis=-1), np.asarray(b).take(right, axis=-1))
    return np.add.reduceat(pairs, starts, axis=-1)


class SeriesSpace:
    """Series in ``n`` variables truncated after total degree ``q``:
    ``exponents`` holds the exponent rows of its monomials in graded
    lexicographic order, and ``degree_one`` the positions of delta_1, ...,
    delta_n among them."""

    def __init__(self, n: int, q: int):
        pairs = math.comb(2 * n + q, q)
        if pairs * n > MAX_TABLE_ENTRIES:
            raise SizeLimitError(
                f"a degree-{q} jet in {n} variables needs a product table of {pairs} pairs "
                f"of {n} exponents, more than {MAX_TABLE_ENTRIES} entries"
            )
        self.n, self.q = n, q
        self.exponents = exps = graded_lex_exponents(n, q)
        self.size = len(exps)
        # positions of the monomials delta_1, ..., delta_n (none when q = 0):
        # graded lex lists delta_n, ..., delta_1 first among degree 1
        self.degree_one = tuple(range(n, 0, -1)) if q else ()
        degree = exps.sum(axis=1)
        # monomial c pairs with the first C(q - |c| + n, n) monomials, those of
        # degree <= q - |c|
        counts = np.array([math.comb(q - d + n, n) for d in range(q + 1)])[degree]
        left = np.repeat(np.arange(self.size), counts)
        right = np.arange(pairs) - np.repeat(np.cumsum(counts) - counts, counts)
        target = graded_lex_position(
            n, degree[left] + degree[right], (exps[left, v] + exps[right, v] for v in range(n - 1))
        )
        order = np.argsort(target, kind="stable")
        self._left, self._right = left[order], right[order]
        # the products of monomial c are the pairs _starts[c]:_starts[c + 1], never
        # none since c is the product of the pair (c, 1)
        self._starts = np.searchsorted(target[order], np.arange(self.size + 1))
        # degrees[d] holds the positions of the monomials of degree d
        bounds = np.searchsorted(degree, np.arange(q + 2)).tolist()
        self.degrees = tuple(map(slice, bounds, bounds[1:]))
        # the table of each product, sliced once: the operand width read, the
        # pairs, and the start of each output coefficient's segment among
        # them; for the full product, then for each degree block
        self._full = (self.size, self._left, self._right, self._starts[:-1])
        self._blocks = tuple(
            (block.stop, self._left[first:last], self._right[first:last], self._starts[block] - first)
            for block, first, last in zip(self.degrees, self._starts[bounds[:-1]], self._starts[bounds[1:]])
        )

    def constant(self, values) -> np.ndarray:
        """Series with constant terms ``values`` (any shape) and nothing else."""
        values = np.asarray(values, dtype=complex)
        out = np.zeros(values.shape + (self.size,), dtype=complex)
        out[..., 0] = values
        return out

    def variables(self) -> np.ndarray:
        """The series delta_1, ..., delta_n (zero when q = 0); shape (n, size)."""
        out = np.zeros((self.n, self.size), dtype=complex)
        for i, c in enumerate(self.degree_one):
            out[i, c] = 1.0
        return out

    def mul(self, a, b) -> np.ndarray:
        """Truncated product of broadcastable batches of series.  A product
        whose pairs over all batch rows number at most MUL_CHUNK_ELEMENTS is
        one gather, one broadcast multiply and one segmented sum; a larger one
        goes in chunks of batch rows whose temporaries hold about that many
        entries (at least one row).  Either way each row's segmented sums are
        those of a one-row product bit for bit.  A product of matrices of
        series is ``matmul``, not a broadcast ``mul`` summed over an axis."""
        return self._product(a, b, *self._full)

    def mul_degree(self, a, b, d: int) -> np.ndarray:
        """The degree-d block of ``mul(a, b)``, from that block's table entries only."""
        return self._product(a, b, *self._blocks[d])

    def matmul(self, a, b) -> np.ndarray:
        """Truncated matrix product of broadcastable batches of series
        matrices, (..., p, q, size) @ (..., q, r, size) -> (..., p, r,
        size): both operands gathered along the product table, one
        ``einsum`` summing over the inner index q in order, and one
        segmented sum over each coefficient's pairs.  Every entry's sums run
        the same way whatever the batch and the other columns, so each row
        and column is that of a one-row, one-column product bit for bit."""
        return _matrix_product(a, b, *self._full[1:])

    def matmul_degree(self, a, b, d: int) -> np.ndarray:
        """The degree-d block of ``matmul(a, b)``, from that block's table entries only."""
        return _matrix_product(a, b, *self._blocks[d][1:])

    def _product(self, a, b, width: int, left, right, starts) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        shape = a.shape[:-1]
        if shape != b.shape[:-1]:
            shape = np.broadcast_shapes(shape, b.shape[:-1])
        if math.prod(shape) * len(left) <= MUL_CHUNK_ELEMENTS:
            products = a.take(left, axis=-1) * b.take(right, axis=-1)
            return np.add.reduceat(products, starts, axis=-1)
        rows_a = np.broadcast_to(a[..., :width], shape + (width,)).reshape(-1, width)
        rows_b = np.broadcast_to(b[..., :width], shape + (width,)).reshape(-1, width)
        out = np.empty((len(rows_a), len(starts)), dtype=complex)
        step = max(1, MUL_CHUNK_ELEMENTS // len(left))
        for r in range(0, len(out), step):
            chunk = slice(r, r + step)
            out[chunk] = np.add.reduceat(
                rows_a[chunk].take(left, axis=1) * rows_b[chunk].take(right, axis=1), starts, axis=1
            )
        return out.reshape(shape + (len(starts),))

    def reciprocal(self, a) -> np.ndarray:
        """1 / a, one degree at a time: r_0 = 1 / a_0 and r_d = -r_0 [a r]_d,
        summed while r's degree-d coefficients are still 0."""
        r = self.constant(1.0 / np.asarray(a)[..., 0])
        for d in range(1, self.q + 1):
            r[..., self.degrees[d]] = -r[..., :1] * self.mul_degree(a, r, d)
        return r

    def solve(self, A, rhs) -> np.ndarray:
        """A^-1 rhs for series matrices A (..., k, k, size), rhs (..., k, c,
        size), one degree at a time: X_0 = A_0^-1 rhs_0 and X_d = A_0^-1
        (rhs_d - [A X]_d), summed while X's degree-d coefficients are still
        0.  A singular constant term raises numpy's LinAlgError."""
        lead = np.linalg.inv(A[..., 0])
        X = np.zeros(np.broadcast_shapes(A.shape[:-3], rhs.shape[:-3]) + rhs.shape[-3:], dtype=complex)
        X[..., 0] = lead @ rhs[..., 0]
        for d in range(1, self.q + 1):
            AX = self.matmul_degree(A, X, d)
            X[..., self.degrees[d]] = np.einsum("...ij,...jcm->...icm", lead, rhs[..., self.degrees[d]] - AX)
        return X
