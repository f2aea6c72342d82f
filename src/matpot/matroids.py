"""Ground sets, independence oracles, and the concrete matroid classes.

The oracle contract lives in ``Matroid``.  Its public ``is_independent``,
``rank``, ``max_independent_subset`` and ``circuit`` validate their labels
once, with ``GroundSet.check_subset``, and answer independence and rank
from per-instance memos, because the partition search re-queries the same
sets heavily.  Subclasses implement only exact cores on validated
frozensets: ``_independent``, ``_rank`` and ``_circuit``.  Package code
that already holds validated labels (the partition search and its
certificate check, the strong search, a strong decomposition's
self-check) calls the memos and cores directly.

Linear matroids are read as exact rationals; each row is then scaled by the
lcm of its denominators, and every independence decision is made by exact
integer (Bareiss fraction-free) elimination of those rows.  Floating point
never enters this module.  A linear matroid brings each independent class
to a reduced form once for circuit queries: D times the reduced row echelon
form of the class's rows, each tagged with a unit vector.  The form is grown
one row at a time by a fraction-free pivot step, from the cached form of the
class less one element when there is one (the partition search asks about
C + y right after asking y against C), otherwise from the empty form over
the class's labels.  A new element is then decided by integer dot products
of its row with the form's columns, and the same products with the tag
columns give its circuit; no elimination runs per query.  The class's cache
entry keeps each element's answer (its circuit, or None), so a repeated
(class, element) question computes nothing.  ``_circuits`` asks the same
question for many elements at once, as one bool incidence of their
circuits over the class; a linear matroid answers it with one integer
matrix product of their rows with the class's form, in int64 when a
Hadamard bound shows that nothing can overflow and in exact Python ints
otherwise.  A linear matroid's bases are read off its one table of
maximal minors (``LinearMatroid.minors``), built once by Laplace expansion
over a column basis, with no elimination per subset; an arrangement family
reads the same table.  Uniform matroids keep no circuit memo: their answer costs
less than a lookup.  The caches rely on the atomicity of single dict
operations, so concurrent use at worst recomputes a value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .errors import GroundSetError, InvalidMatroidError, PreconditionError, SizeLimitError, integer, rational


@dataclass(frozen=True)
class GroundSet:
    """The label set {1, ..., n}."""

    n: int

    def __post_init__(self):
        self.__dict__["n"] = integer(self.n, 1, GroundSetError, "ground set needs an integer n >= 1, got {!r}")

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def check_subset(self, subset) -> frozenset:
        """Validate each label as given (``errors.integer``), then freeze
        the labels into a set: a bool is refused before it can merge into
        an equal int label."""
        n = self.n
        message = f"label {{!r}} outside ground set 1..{n}"
        labels = []
        for e in subset:
            labels.append(integer(e, 1, GroundSetError, message))
            if labels[-1] > n:
                raise GroundSetError(message.format(e))
        return frozenset(labels)

    def check_enumerable(self) -> None:
        """SizeLimitError unless n <= 16, the largest ground set whose
        k-subsets are enumerated (``Matroid.bases``, ``LinearMatroid.minors``)."""
        if self.n > 16:
            raise SizeLimitError("base enumeration limited to n <= 16")


class Matroid:
    """Abstract independence oracle over a GroundSet.

    The public methods are the oracle contract: each validates its labels
    once, with ``GroundSet.check_subset``, and answers through the
    instance's independence and rank memos (``_memo_independent``,
    ``_memo_rank``) or from a core.  The cores take validated frozensets
    and neither validate nor memoize; subclasses implement ``_independent``
    and may override ``_rank`` and ``_circuit`` with faster exact
    computations of the same answers.  The default ``_rank`` is greedy; the
    equal-size axiom for maximal independent subsets is exactly what makes
    the greedy answers correct.  Greedy ties are broken by smallest label,
    so results are deterministic.

    ``circuit(clazz, y)`` returns None when ``clazz | {y}`` is independent and
    otherwise the unique circuit inside ``clazz | {y}``; it requires
    ``clazz`` to be independent, and every class raises PreconditionError
    for a dependent one.

    ``rank_bound`` is an upper bound on the rank of the ground set that costs
    no oracle call: the width of a linear matroid, l of a uniform one and n
    otherwise.  An independent set of that size is a basis, so the
    partition search asks it for exchange circuits only; a subclass may
    lower the bound, but never below that rank.
    """

    def __init__(self, ground: GroundSet):
        self.ground = ground
        self._indep_cache: dict = {}
        self._rank_cache: dict = {}

    def is_independent(self, subset) -> bool:
        return self._memo_independent(self.ground.check_subset(subset))

    def rank(self, subset) -> int:
        return self._memo_rank(self.ground.check_subset(subset))

    def max_independent_subset(self, subset) -> frozenset:
        """Greedy maximal independent subset of ``subset``, smallest labels first."""
        return self._max_independent(self.ground.check_subset(subset))

    def circuit(self, clazz, y) -> frozenset | None:
        """Unique circuit inside clazz + y, or None if that set is independent."""
        labels = (*clazz, y)
        self.ground.check_subset(labels)
        return self._circuit(frozenset(labels[:-1]), y)

    # the memos, for the public methods and for package code that holds
    # validated labels (the partition and strong searches)

    def _memo_independent(self, A: frozenset) -> bool:
        hit = self._indep_cache.get(A)
        if hit is None:
            hit = self._indep_cache[A] = self._independent(A)
        return hit

    def _memo_rank(self, A: frozenset) -> int:
        hit = self._rank_cache.get(A)
        if hit is None:
            hit = self._rank_cache[A] = self._rank(A)
        return hit

    # the exact cores: validated frozensets in, no memo

    def _independent(self, A: frozenset) -> bool:
        raise NotImplementedError

    def _max_independent(self, A: frozenset) -> frozenset:
        chosen = frozenset()
        for e in sorted(A):
            if self._independent(chosen | {e}):
                chosen |= {e}
        return chosen

    def _rank(self, A: frozenset) -> int:
        return len(self._max_independent(A))

    def _circuit(self, C: frozenset, y: int) -> frozenset | None:
        # a dependent D is C itself when y is in C; otherwise D - y is C, so
        # y joins ``found`` exactly when C is independent and the precondition
        # costs no extra query; only an empty class read as dependent is left,
        # and that is an inconsistent oracle
        D = C | {y}
        if self._independent(D):
            return None
        found = frozenset(z for z in D if self._independent(D - {z}))
        if C and (y in C or y not in found):
            raise PreconditionError("circuit(clazz, y) needs an independent clazz")
        if not found:
            raise InvalidMatroidError(
                "independence oracle is inconsistent: a dependent set became "
                "independent by removing nothing (hereditary axiom violated)"
            )
        return found

    def _circuits(self, C: frozenset, ys) -> tuple:
        """The circuits of C + y for many labels y at once: C's labels, a
        bool vector whose entry r says C + ys[r] is dependent, and a bool
        incidence of shape (len(ys), |C|) whose row r marks the labels of C
        on the circuit of C + ys[r].  The ys lie outside the independent
        class C; a dependent C gets PreconditionError, as from
        ``_circuit``.  This default asks ``_circuit`` once per y."""
        labels = tuple(C)
        at = {e: j for j, e in enumerate(labels)}
        dependent = np.zeros(len(ys), dtype=bool)
        incidence = np.zeros((len(ys), len(labels)), dtype=bool)
        for r, y in enumerate(ys):
            found = self._circuit(C, y)
            if found is not None:
                dependent[r] = True
                incidence[r, [at[e] for e in found if e != y]] = True
        return labels, dependent, incidence

    @property
    def rank_bound(self) -> int:
        """A free upper bound on the ground set's rank (see above); n here."""
        return self.ground.n

    @property
    def full_rank(self) -> int:
        return self.rank(self.ground.labels)

    def _flat_size_bound(self, r: int, size: int, rank: int) -> int:
        """An upper bound on the labels of a flat of rank r in the
        restriction to ``size`` labels of rank ``rank``: the complement of a
        flat of corank c holds at least c labels of every basis."""
        return size - (rank - r)

    def bases(self) -> tuple[frozenset, ...]:
        """All maximal independent subsets of the full ground set (n <= 16,
        ``GroundSet.check_enumerable``), sorted."""
        self.ground.check_enumerable()
        k = self.full_rank
        found = [
            frozenset(c)
            for c in itertools.combinations(self.ground.labels, k)
            if self.is_independent(c)
        ]
        return tuple(sorted(found, key=sorted))


def _eliminate(rows, width: int, reduced: bool = False):
    """Fraction-free (Bareiss) elimination of integer rows.

    Pivots only on the first ``width`` columns; any further columns are
    carried along.  Returns ``(rank, rows)``; the rows from index ``rank`` on
    are zero in the first ``width`` columns.  By default the result is a row
    echelon form: each pivot updates only the rows below it.  With
    ``reduced`` each pivot updates every other row, above it too, by the
    same step (fraction-free Gauss-Jordan), so the first ``rank`` rows are
    D times the reduced row echelon form for the last pivot D: every pivot
    equals D and the other pivot columns are 0.  In both modes every entry
    after each pivot step is a minor of the input, so each division by the
    previous pivot is exact and entries grow only polynomially (Bareiss,
    Math. Comp. 22, 1968).
    """
    m = list(rows)
    n = len(m)
    rank, prev = 0, 1
    for col in range(width):
        if rank == n:
            break
        for piv in range(rank, n):
            if m[piv][col]:
                break
        else:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        lead = prow[col]
        below = range(rank + 1, n)
        for r in itertools.chain(range(rank), below) if reduced else below:
            f = m[r][col]
            # rows with f == 0 are updated too: each entry must become the
            # next larger minor, or later divisions stop being exact
            m[r] = [(lead * a - f * b) // prev for a, b in zip(m[r], prow)]
        prev = lead
        rank += 1
    return rank, m


def rational_rank(rows) -> int:
    """Rank of equal-length integer rows (a rational matrix with each row's
    denominators cleared) by exact fraction-free elimination."""
    return _eliminate(rows, len(rows[0]))[0] if rows else 0


def _clear_denominators(row) -> tuple[int, ...]:
    scale = math.lcm(*(v.denominator for v in row))
    return tuple(v.numerator * (scale // v.denominator) for v in row)


class LinearMatroid(Matroid):
    """Row-vector matroid: label i carries row i of an exact rational matrix.

    A subset is independent iff its rows are linearly independent; decided by
    exact integer elimination of the rows with their denominators cleared
    (the same matroid), never floating point.  Circuit queries bring each
    independent class to its reduced form once (``_echelon``, memoized by
    the class, each form one pivot step ``_grow`` from a smaller one) and
    decide each new element by dot products with that form (``_reduce``);
    the class's entry keeps the answer for every element reduced against it.
    A batched question (``_circuits``) multiplies the elements' rows, as one
    array (``_row_array``), by the form laid out as one matrix (``_batch``,
    memoized by the class): each product row holds the element's residuals
    and its coefficients over the class.
    """

    def __init__(self, rows):
        rows = tuple(tuple(rational(v, GroundSetError) for v in row) for row in rows)
        if not rows:
            raise GroundSetError("linear matroid needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise GroundSetError("linear matroid rows must have equal length")
        super().__init__(GroundSet(len(rows)))
        self.rows = rows
        self.width = width
        self._int_rows = tuple(_clear_denominators(row) for row in rows)
        self._echelon_cache: dict = {}
        self._batch_cache: dict = {}

    @property
    def rank_bound(self) -> int:
        return self.width

    @cached_property
    def minors(self) -> dict:
        """The table of maximal minors: for every r-set I of labels, r the
        rank, keyed in lexicographic order, D_I = det of the integer rows of
        I (``_int_rows``) on a column basis chosen greedily, the pivot
        columns of one elimination, which is every column at full column
        rank.  Every column is a combination of the basis columns, so I is a
        basis exactly when D_I != 0.  Exact ints by Laplace expansion along
        basis column j of the minors on the first j of them, sum_j C(n, j) j
        products and no division.  n > 16 raises SizeLimitError before the
        table is built (``GroundSet.check_enumerable``)."""
        self.ground.check_enumerable()
        rows = self._int_rows
        if self.full_rank == self.width:
            columns = range(self.width)
        else:
            rank, echelon = _eliminate(rows, self.width)
            columns = [next(c for c, v in enumerate(row) if v) for row in echelon[:rank]]
        table = {(): 1}
        for j, c in enumerate(columns):
            table = {J: sum((-1) ** (t + j) * rows[e - 1][c] * table[J[:t] + J[t + 1:]] for t, e in enumerate(J))
                     for J in itertools.combinations(self.ground.labels, j + 1)}
        return table

    def bases(self) -> tuple[frozenset, ...]:
        """All bases (n <= 16), sorted: the r-sets with D_I != 0 in
        ``minors``, no elimination per r-set."""
        return tuple(frozenset(I) for I, D in self.minors.items() if D)

    def _subrows(self, A: frozenset):
        return [self._int_rows[i - 1] for i in sorted(A)]

    def _independent(self, A: frozenset) -> bool:
        return self._rank(A) == len(A)

    def _rank(self, A: frozenset) -> int:
        # direct exact elimination; the greedy default would give the same
        # answer through many more eliminations
        return rational_rank(self._subrows(A))

    def _echelon(self, C: frozenset):
        """The labels of C, the reduced form of C's rows, and the answers of
        the elements reduced against it so far; memoized.

        The form is D (M_P^-1 M | M_P^-1), M being C's rows, each tagged with
        a unit vector, P the pivot columns of their reduced row echelon form
        and D = +-det M_P.  It keeps the pivot columns, D, each other data
        column and each tag column, both as tuples over the pivot rows; the
        labels, the tags and the rows are in the order the form grew.  A miss
        grows the form of C less one element by that element when such a
        form is cached, and otherwise grows the empty form by C's labels in
        order.  Only C is cached.
        """
        cache = self._echelon_cache
        hit = cache.get(C)
        if hit is None:
            for e in C:
                near = cache.get(C - {e})
                if near is not None:
                    labels, form = self._grow(near[0], near[1], e)
                    break
            else:
                labels, form = (), ((), 1, tuple((c, ()) for c in range(self.width)), ())
                for e in sorted(C):
                    labels, form = self._grow(labels, form, e)
            hit = cache[C] = (labels, form, {})
        return hit

    def _grow(self, labels, form, y):
        """The labels and reduced form of the class grown by y, by one
        fraction-free pivot step; PreconditionError when y's row lies in the
        span of the form's rows.

        y's row v reduces to r = D v - v_P (D M_P^-1 M), which is zero at the
        pivot columns, with -v_P . t at each tag column t and D at y's own
        tag.  Its first nonzero column c* (a data column off the pivots) is
        the new pivot and D' = r_c* = +-det of the grown M_P by the Schur
        complement.  Each old row a becomes (D' a - a_c* r) / D and r joins
        as the last row; every entry is again a minor, so the division is
        exact (Bareiss, Math. Comp. 22, 1968).
        """
        pivots, D, free, tags = form
        v = self._int_rows[y - 1]
        vp = [v[c] for c in pivots]
        r = [D * v[c] - sum(map(mul, vp, col)) for c, col in free]
        at = next((i for i, rc in enumerate(r) if rc), None)
        if at is None:
            raise PreconditionError("circuit(clazz, y) needs an independent clazz")
        grown, f = free[at]
        D2 = r[at]

        def step(col, rc):
            return tuple([(D2 * a - fa * rc) // D for a, fa in zip(col, f)]) + (rc,)

        free = tuple((c, step(col, rc)) for (c, col), rc in zip(free, r) if c != grown)
        # y's tag column is zero over the old rows and D in r
        tags = tuple(step(t, -sum(map(mul, vp, t))) for t in tags) + (step((0,) * len(f), D),)
        return labels + (y,), (pivots + (grown,), D2, free, tags)

    def _circuit(self, C: frozenset, y: int) -> frozenset | None:
        labels, form, answers = self._echelon(C)
        if y in C:
            return None
        try:
            return answers[y]
        except KeyError:
            found = answers[y] = self._reduce(labels, form, y)
            return found

    def _reduce(self, labels, form, y) -> frozenset | None:
        # y's row v lies in the span of C's rows M iff v = (v_P M_P^-1) M,
        # that is iff D v_c = v_P . (D M_P^-1 M)_c at every column c off the
        # pivots (at a pivot column both sides are D v_c); then the
        # coefficients v_P M_P^-1 = (v_P . tags) / D write v over C, and
        # their support, with y, is the circuit
        pivots, D, free, tags = form
        v = self._int_rows[y - 1]
        vp = [v[c] for c in pivots]
        for c, col in free:
            if D * v[c] != sum(map(mul, vp, col)):
                return None
        return frozenset(e for e, t in zip(labels, tags) if sum(map(mul, vp, t))) | {y}

    @cached_property
    def _row_array(self) -> np.ndarray:
        """The integer rows as one (n + 1) x width array for ``_circuits``,
        row 0 zero so that each label indexes its own row: int64 when no
        product it forms can overflow, exact Python ints otherwise.

        Every entry of a reduced form is a minor of the rows of order at
        most the width, so Hadamard's inequality bounds it by H, the product
        of the width largest row norms (each taken as at least 1); each
        product in ``_circuits`` is a sum of at most width + 1 terms, an
        entry of a row times an entry of the form.
        """
        rows = self._int_rows
        norms = sorted((math.isqrt(sum(v * v for v in row)) + 1 for row in rows), reverse=True)
        top = max((abs(v) for row in rows for v in row), default=0)
        exact = (self.width + 1) * top * math.prod(norms[: self.width]) >= 2**63
        rows = ((0,) * self.width,) + rows
        return np.array(rows, dtype=object if exact else np.int64).reshape(len(rows), self.width)

    def _circuits(self, C: frozenset, ys) -> tuple:
        # ``_reduce`` for all the ys at once: one product of their rows with
        # the class's batch matrix gives each residual and each coefficient
        labels, G = self._batch(C)
        nonzero = np.take(self._row_array, ys, axis=0) @ G != 0
        free = G.shape[1] - len(labels)
        dependent = ~nonzero[:, :free].any(axis=1)
        return labels, dependent, nonzero[:, free:] & dependent[:, None]

    def _batch(self, C: frozenset):
        """The labels of C and its batch matrix G, memoized: for a row v,
        v G is D v_c - v_P . (D M_P^-1 M)_c at each column c off the
        pivots, then v_P . t at each label's tag column t (the residuals
        and the coefficients of ``_reduce``)."""
        hit = self._batch_cache.get(C)
        if hit is None:
            labels, (pivots, D, free, tags), _ = self._echelon(C)
            dtype, columns = self._row_array.dtype, [[-a for a in col] for _, col in free] + list(tags)
            G = np.zeros((self.width, len(columns)), dtype=dtype)
            G[list(pivots)] = np.array(columns, dtype=dtype).reshape(len(columns), len(pivots)).T
            G[[c for c, _ in free], range(len(free))] = D
            hit = self._batch_cache[C] = (labels, G)
        return hit

    def __eq__(self, other):
        return isinstance(other, LinearMatroid) and self.rows == other.rows

    def __hash__(self):
        return hash(("linear", self.rows))

    def __repr__(self):
        return f"LinearMatroid({len(self.rows)}x{self.width})"


class UniformMatroid(Matroid):
    """Subsets of size at most l are independent."""

    def __init__(self, l: int, n: int):
        l = integer(l, 0, GroundSetError, "uniform matroid rank must be >= 0, got {!r}")
        super().__init__(GroundSet(n))
        if l > n:
            raise GroundSetError(f"uniform matroid rank {l} exceeds ground size {n}")
        self.l = l

    def _independent(self, A: frozenset) -> bool:
        return len(A) <= self.l

    @property
    def rank_bound(self) -> int:
        return self.l

    @property
    def full_rank(self) -> int:
        # by arithmetic: ranking range(1, n + 1) would allocate n labels
        return self.l

    def _flat_size_bound(self, r: int, size: int, rank: int) -> int:
        # a flat of rank r below the restriction's rank is r labels
        return r if r < rank else size

    def _rank(self, A: frozenset) -> int:
        return min(len(A), self.l)

    def _circuit(self, C: frozenset, y: int) -> frozenset | None:
        # every (l + 1)-set is a circuit
        if len(C) > self.l:
            raise PreconditionError("circuit(clazz, y) needs an independent clazz")
        D = C | {y}
        return None if len(D) <= self.l else D

    def __eq__(self, other):
        return (
            isinstance(other, UniformMatroid)
            and self.l == other.l
            and self.ground == other.ground
        )

    def __hash__(self):
        return hash(("uniform", self.l, self.ground.n))

    def __repr__(self):
        return f"UniformMatroid(l={self.l}, n={self.ground.n})"

