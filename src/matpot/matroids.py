"""Ground sets, independence oracles, and the concrete matroid classes.

All independence decisions for linear matroids are made over exact rationals
(fractions.Fraction); floating point never enters this module.  Rank queries
are memoized per subset because the partition search re-queries the same sets
heavily.  The caches rely on the atomicity of single dict operations, so
concurrent use at worst recomputes a value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import GroundSetError, SizeLimitError


@dataclass(frozen=True)
class GroundSet:
    """The label set {1, ..., n}."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise GroundSetError(f"ground set needs an integer n >= 1, got {self.n!r}")

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def check_subset(self, subset) -> frozenset:
        """Normalize an iterable of labels to a frozenset, validating membership."""
        A = frozenset(subset)
        for e in A:
            if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= self.n:
                raise GroundSetError(f"label {e!r} outside ground set 1..{self.n}")
        return A


class Matroid:
    """Abstract independence oracle over a GroundSet.

    Subclasses implement ``_independent`` on validated frozensets.  Rank and
    maximal-independent-subset queries are derived greedily; the equal-size
    axiom for maximal independent subsets is exactly what makes the greedy
    answers correct.  Greedy ties are broken by smallest label, so results
    are deterministic.
    """

    def __init__(self, ground: GroundSet):
        self.ground = ground
        self._indep_cache: dict = {}
        self._rank_cache: dict = {}

    def _independent(self, A: frozenset) -> bool:
        raise NotImplementedError

    def is_independent(self, subset) -> bool:
        A = self.ground.check_subset(subset)
        hit = self._indep_cache.get(A)
        if hit is None:
            hit = self._indep_cache[A] = self._independent(A)
        return hit

    def max_independent_subset(self, subset) -> frozenset:
        """Greedy maximal independent subset of ``subset``, smallest labels first."""
        A = self.ground.check_subset(subset)
        chosen: set = set()
        for e in sorted(A):
            if self.is_independent(chosen | {e}):
                chosen.add(e)
        return frozenset(chosen)

    def rank(self, subset) -> int:
        A = self.ground.check_subset(subset)
        hit = self._rank_cache.get(A)
        if hit is None:
            hit = self._rank_cache[A] = len(self.max_independent_subset(A))
        return hit

    @property
    def full_rank(self) -> int:
        return self.rank(self.ground.labels)

    def bases(self, max_ground: int = 16) -> tuple[frozenset, ...]:
        """All maximal independent subsets of the full ground set, sorted."""
        n = self.ground.n
        if n > max_ground:
            raise SizeLimitError(f"base enumeration limited to n <= {max_ground}")
        k = self.full_rank
        found = [
            frozenset(c)
            for c in itertools.combinations(self.ground.labels, k)
            if self.is_independent(c)
        ]
        return tuple(sorted(found, key=sorted))


def rational_rank(rows) -> int:
    """Rank of a list of equal-length Fraction rows by Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                q = f / lead
                for c in range(col, cols):
                    m[r][c] -= q * m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank


def _to_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise GroundSetError(
            f"linear matroid entries must be exact rationals, got float {value!r}"
        )
    return Fraction(value)


class LinearMatroid(Matroid):
    """Row-vector matroid: label i carries row i of an exact rational matrix.

    A subset is independent iff its rows are linearly independent; decided by
    exact elimination, never floating point.
    """

    def __init__(self, rows):
        rows = tuple(tuple(_to_fraction(v) for v in row) for row in rows)
        if not rows:
            raise GroundSetError("linear matroid needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise GroundSetError("linear matroid rows must have equal length")
        super().__init__(GroundSet(len(rows)))
        self.rows = rows
        self.width = width

    def _subrows(self, A: frozenset):
        return [self.rows[i - 1] for i in sorted(A)]

    def _independent(self, A: frozenset) -> bool:
        return rational_rank(self._subrows(A)) == len(A)

    def rank(self, subset) -> int:
        # Direct exact elimination; the greedy default would give the same
        # answer through many more oracle calls.
        A = self.ground.check_subset(subset)
        hit = self._rank_cache.get(A)
        if hit is None:
            hit = self._rank_cache[A] = rational_rank(self._subrows(A))
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
        if not isinstance(l, int) or l < 0:
            raise GroundSetError(f"uniform matroid rank must be >= 0, got {l!r}")
        super().__init__(GroundSet(n))
        if l > n:
            raise GroundSetError(f"uniform matroid rank {l} exceeds ground size {n}")
        self.l = l

    def _independent(self, A: frozenset) -> bool:
        return len(A) <= self.l

    def rank(self, subset) -> int:
        A = self.ground.check_subset(subset)
        return min(len(A), self.l)

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


class LiftedMatroid(Matroid):
    """Pullback of a matroid along a map f from a lift set onto base labels.

    A subset A of the lift set is independent iff f restricted to A is
    injective and f(A) is independent in the base.  The rank of A equals the
    base rank of f(A).
    """

    def __init__(self, base: Matroid, size: int, labels_map):
        super().__init__(GroundSet(size))
        fmap = tuple(labels_map)
        if len(fmap) != size:
            raise GroundSetError(f"label map must have length {size}")
        base.ground.check_subset(fmap)
        self.base = base
        self.fmap = fmap

    def image(self, A) -> frozenset:
        A = self.ground.check_subset(A)
        return frozenset(self.fmap[e - 1] for e in A)

    def _independent(self, A: frozenset) -> bool:
        imgs = [self.fmap[e - 1] for e in A]
        if len(set(imgs)) != len(imgs):
            return False
        return self.base.is_independent(imgs)

    def rank(self, subset) -> int:
        A = self.ground.check_subset(subset)
        hit = self._rank_cache.get(A)
        if hit is None:
            hit = self._rank_cache[A] = self.base.rank(self.image(A))
        return hit

    def __eq__(self, other):
        return (
            isinstance(other, LiftedMatroid)
            and self.base == other.base
            and self.fmap == other.fmap
        )

    def __hash__(self):
        return hash(("lifted", self.base, self.fmap))

    def __repr__(self):
        return f"LiftedMatroid({self.base!r}, size={self.ground.n})"
