"""Truncated multivariate power series, dense over the monomials of degree <= q.

A series in the variables delta_1, ..., delta_n is a complex array whose last
axis holds the coefficients of the monomials delta^alpha with |alpha| <= q,
in graded lexicographic order (by total degree, then by the exponent tuples
in lexicographic order); the leading axes are a batch.  A ``SeriesSpace``
owns the product table: every pair of monomials whose product survives the
truncation, sorted by the product's position, so that a multiply is one
gather and one segmented sum per chunk of batch rows.  On top of it sit a Newton
reciprocal and, for batches of small k x k matrices of series, a linear
solve and a determinant by Gauss-Jordan elimination.

The table has C(2n + q, q) pairs, one exponent vector each; a space whose
table would exceed MAX_TABLE_ENTRIES raises SizeLimitError before anything
is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeLimitError
from .systems import _bounded_compositions

MAX_TABLE_ENTRIES = 1 << 22  # pairs x variables of the largest product table
MUL_CHUNK_ELEMENTS = 1 << 12  # product-table entries per chunk of batch rows in ``mul``


class SeriesSpace:
    """Series in ``n`` variables truncated after total degree ``q``."""

    def __init__(self, n: int, q: int):
        pairs = math.comb(2 * n + q, q)
        if pairs * n > MAX_TABLE_ENTRIES:
            raise SizeLimitError(
                f"a degree-{q} jet in {n} variables needs a product table of {pairs} pairs "
                f"of {n} exponents, more than {MAX_TABLE_ENTRIES} entries"
            )
        self.n, self.q = n, q
        self.monomials = tuple(
            alpha for d in range(q + 1) for alpha in _bounded_compositions(d, (d,) * n)
        )
        self.size = len(self.monomials)
        self.index = {alpha: c for c, alpha in enumerate(self.monomials)}
        # positions of the monomials delta_1, ..., delta_n (none when q = 0)
        self.degree_one = tuple(
            self.index[tuple(int(j == i) for j in range(n))] for i in range(n)
        ) if q else ()
        exps = np.array(self.monomials, dtype=np.int64).reshape(self.size, n)
        degree = exps.sum(axis=1)
        binom = np.array(
            [[math.comb(a, b) for b in range(n + 1)] for a in range(q + n + 1)], dtype=np.int64
        )
        # monomial c pairs with the first C(q - |c| + n, n) monomials, those of
        # degree <= q - |c|
        counts = binom[q - degree + n, n]
        left = np.repeat(np.arange(self.size), counts)
        right = np.arange(pairs) - np.repeat(np.cumsum(counts) - counts, counts)
        # graded lexicographic position of each product exps[left] + exps[right]:
        # the monomials of lower degree, then for each variable v the
        # compositions of the remaining degree that put less on v
        rem = degree[left] + degree[right]
        target = binom[rem + n - 1, n]
        for v in range(n - 1):
            r = n - 1 - v
            e = exps[left, v] + exps[right, v]
            target += binom[rem + r, r] - binom[rem - e + r, r]
            rem -= e
        order = np.argsort(target, kind="stable")
        self._left, self._right = left[order], right[order]
        # every monomial c is the product of the pair (c, 1), so each segment is nonempty
        self._starts = np.searchsorted(target[order], np.arange(self.size))

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
        """Truncated product of broadcastable batches of series, in chunks of
        batch rows whose temporaries hold about MUL_CHUNK_ELEMENTS entries
        (at least one row); each row's segmented sums are those of a
        one-row product bit for bit."""
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape, dtype=complex)
        rows_a, rows_b = a.reshape(-1, self.size), b.reshape(-1, self.size)
        rows_out = out.reshape(-1, self.size)
        left, right, starts = self._left, self._right, self._starts
        step = max(1, MUL_CHUNK_ELEMENTS // len(left))
        for r in range(0, len(rows_out), step):
            chunk = slice(r, r + step)
            rows_out[chunk] = np.add.reduceat(
                rows_a[chunk, left] * rows_b[chunk, right], starts, axis=1
            )
        return out

    def reciprocal(self, a) -> np.ndarray:
        """1 / a by Newton's iteration r <- r (2 - a r) from the reciprocal of
        the constant term; each step doubles the number of correct degrees."""
        r = self.constant(1.0 / np.asarray(a)[..., 0])
        for _ in range(self.q.bit_length()):
            r = 2.0 * r - self.mul(r, self.mul(a, r))
        return r

    def solve(self, A, rhs) -> np.ndarray:
        """A^-1 rhs for series matrices A (..., k, k, size), rhs (..., k, c, size)."""
        return self._eliminate(A, rhs)[0]

    def det(self, A) -> np.ndarray:
        """det A for series matrices A (..., k, k, size); shape (..., size)."""
        return self._eliminate(A, np.zeros(A.shape[:-2] + (0, self.size), dtype=complex))[1]

    def _eliminate(self, A, rhs):
        """Gauss-Jordan on [A | rhs]; returns (A^-1 rhs, det A).

        Both sides are first multiplied by the inverse of A's constant term,
        so every pivot has constant term 1 up to rounding and no pivoting is
        needed.  A singular constant term raises numpy's LinAlgError.
        """
        lead = np.linalg.inv(A[..., 0])
        det = self.constant(np.linalg.det(A[..., 0]))
        A = np.einsum("...ij,...jlm->...ilm", lead, A)
        X = np.einsum("...ij,...jlm->...ilm", lead, rhs)
        k = A.shape[-2]
        for c in range(k):
            pivot = A[..., c, c, :]
            det = self.mul(det, pivot)
            inv = self.reciprocal(pivot)[..., None, :]
            A[..., c, :, :] = self.mul(A[..., c, :, :], inv)
            X[..., c, :, :] = self.mul(X[..., c, :, :], inv)
            for r in range(k):
                if r != c:
                    factor = A[..., r, c, None, :].copy()
                    A[..., r, :, :] -= self.mul(factor, A[..., c, :, :])
                    X[..., r, :, :] -= self.mul(factor, X[..., c, :, :])
        return X, det
