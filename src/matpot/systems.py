"""Systems of labels, strong and good decompositions, and their equivalence.

A *system* is a multiset of ground-set labels stored as a dense nonnegative
integer vector.  Relative to a matroid of rank k and a number of blocks m:

  * a *base* is a k-system whose support is a maximal independent set
    (all multiplicities 0/1);
  * a *strong decomposition* of an (mk+l)-system is a split into m bases
    plus an l-system remainder; for one system, existence is decided by the
    matroid partition's exchange search run on labels, m classes of labels
    and l slots of one label each, and for the candidates of an enumeration
    by the counting bound on flats;
  * a *good decomposition* of T splits it as T1 + T2 with T2 a strong
    (mk+1)-system;
  * two good decompositions are *locally related* when their second members
    admit strong decompositions sharing all m bases, and *equivalent* when a
    chain of local relations connects them.

Sharing all m bases means the second members are T2 = U + [r] and
T2' = U + [r'] for one sum U of m bases.  So distinct T2, T2' are locally
related exactly when T2' = T2 - [a] + [b] for labels a != b and
T2 - [a] = min(T2, T2') (componentwise) is strong with l = 0: no search over
bases.

Whether an (mk+1)-system T2 is strong is a counting statement (Edmonds'
matroid partition for m copies of the matroid and one free slot): T2 splits
into m bases and one label exactly when T2(F) <= 1 + m r(F) for every flat
F.  For a strong T2, T2 - [a] is then a sum of m bases exactly when a lies
in every tight flat, T2(F) = 1 + m r(F): the remainder closure of T2 is its
support intersected with its tight flats.  Only flats with T(F) >= 1 + m r(F)
can bind for a T2 below T, so ``all_good_decompositions`` enumerates those
flats of the matroid restricted to supp(T), with a pruning rule that is
sound for flats that bind above flats that do not (``_binding_flats``), and
decides all its undecided compositions in one batch: two matrix products
with their 0/1 incidence (``_decide``).  Each decision is memoized per
``Context`` by the raw multiplicity tuple (``Context._decisions``): None, or
the filing keys T2 - [a] that the edge pass files T2 under.  When the
enumeration would grow more than FLATS_PER_SEARCH flats per undecided
composition (a linear matroid in general position, whose flats the size
bound cannot prune), the compositions are decided by the strong search
instead, one by one, and the circuit closure below.

The strong search decides a single system: ``strong-decompose``, a
witness read, ``remainder_support`` and the enumeration past its flat
budget; nothing else runs it.
Strong-decomposition outcomes are memoized per ``Context``, keyed by the
raw multiplicity tuple and l, and callers build a ``System`` only for what
they return, through the unchecked ``_trusted``.  A miss places the tuple's
units, label by label and from empty classes, in m base classes under the
matroid and l slot classes under ``UniformMatroid(1, n)``, every class a
frozenset of labels: the placement loop of ``solve_partition``
(``partition._place``, one exchange search ``partition._reach`` per unit).
A slot holds one unit, so a label the remainder holds twice sits in two
slots, and the remainder counts the labels of the slots.  The answer is
checked through the matroid's memo cores, and every outcome depends on
(matroid, m, mult, l) only.  It decides what a matroid partition of the
lift (one element per unit, m copies of the matroid and l slots) decides:
the copies of a label are parallel in the lift, so the lift's search is
this label search at the size of the lift
(``tests/oracles.py::reference_strong_outcome`` decides by the lift).

Which labels can sit in the remainder of one strong decomposition's system
is also a circuit closure: for bases B_1..B_m, the remainder's labels closed
under y -> C(B_i, y) for every B_i without y
(``StrongDecomposition._remainder_closure``, the label form of
``partition._uniform_closure``: the partition's one exchange search,
``partition._reach``, seeded with the remainder's labels over the m bases;
any one decomposition gives the same set).

``equivalence_report`` materializes the graph of good decompositions with
local relations as edges.  Each node files itself under its decision's
keys U = T2 - [a], and every group of two or more nodes is a clique: the
report runs no strong search and builds no witness.  A node's witness is
built on first read from shared bases, as the paper's transformations
work: the memoized l = 0 decomposition of its first key U plus the unit
[a] (``GoodDecomposition.witness``), so every node whose first key is U
reuses them, and the witness depends on T2 only, not on the order of the
reads.

``descent_move`` constructs, from two distinct good decompositions, the
explicit exchange that brings their second members strictly closer in the
l1 metric while staying inside one equivalence class.  It is label
arithmetic on the decisions of the two second members and runs no search:
a moved decomposition's witness is built on first read, as a report
node's is.  ``remainder_support`` is the remainder closure of one strong
decomposition: the strongness check's search and no other.

Each fact about rows has one rule: ``_row`` counts a multiset of labels
into a multiplicity tuple (a unit, a base, the classes of a strong
search), ``_support`` lists the labels a tuple holds, ``is_base`` tests a
0/1 row, ``_minus`` builds each filing key T2 - [a], and ``_required``
refuses a system that is not strong.  The size limits are checked once
each: the units of a strong search by ``partition._check_size``, |T| by
``_check_total``.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, compress

import numpy as np

from .errors import (
    ArityError,
    InternalError,
    InvalidMatroidError,
    PreconditionError,
    SizeLimitError,
    integer,
)
from .matroids import Matroid, UniformMatroid
from .partition import _check_size, _place, _reach

MAX_TOTAL = 24  # largest |T| whose good decompositions are enumerated
FLATS_PER_SEARCH = 4  # flats the counting-bound decision may grow per undecided composition


def _check_total(total: int, max_total: int = MAX_TOTAL) -> None:
    """SizeLimitError when good decompositions of a system of ``total``
    units are not enumerated: ``all_good_decompositions`` and the
    second-kind truncation's N_max."""
    if total > max_total:
        raise SizeLimitError(f"good-decomposition enumeration limited to |T| <= {max_total}")


def _row(n: int, labels) -> tuple:
    """The multiplicity tuple over the labels 1..n of a multiset of labels."""
    row = [0] * n
    for j in labels:
        row[j - 1] += 1
    return tuple(row)


def _support(mult) -> tuple:
    """The labels j with mult(j) > 0 of a multiplicity tuple, ascending."""
    return tuple(compress(range(1, len(mult) + 1), mult))


@dataclass(frozen=True)
class Context:
    """A matroid together with the number of base blocks m; TypeError for
    a matroid that is not a Matroid."""

    matroid: Matroid
    m: int

    def __post_init__(self):
        if not isinstance(self.matroid, Matroid):
            raise TypeError("a context takes a Matroid instance")
        self.__dict__["m"] = integer(self.m, 1, PreconditionError, "need m >= 1, got {!r}")
        if self.matroid.full_rank < 1:
            raise PreconditionError("the matroid must have rank >= 1")

    @property
    def n(self) -> int:
        return self.matroid.ground.n

    @cached_property
    def k(self) -> int:
        return self.matroid.full_rank

    def system(self, mult) -> "System":
        return System(self, tuple(mult))

    def unit(self, j: int) -> "System":
        (j,) = self.matroid.ground.check_subset([j])
        return System(self, _row(self.n, (j,)))

    def zero(self) -> "System":
        return System(self, (0,) * self.n)

    @cached_property
    def base_sums(self) -> tuple[tuple[int, ...], ...]:
        """The sums of m bases, i.e. the strong mk-systems, as sorted
        multiplicity tuples."""
        bases = [_row(self.n, B) for B in self.matroid.bases()]
        sums = {(0,) * self.n}
        for _ in range(self.m):
            sums = {tuple(map(operator.add, S, B)) for S in sums for B in bases}
        return tuple(sorted(sums))

    @cached_property
    def _strong_memo(self) -> dict:
        """Strong-decomposition outcomes in this context, keyed by (mult, l)."""
        return {}

    @cached_property
    def _decisions(self) -> dict:
        """The counting-bound decision of each (mk+1)-system decided in this
        context, keyed by its multiplicity tuple: None when it is not strong,
        else its filing keys, the systems T2 - [a] for the labels a of its
        remainder closure, ascending in a (``_decide``; ``_key_label`` reads
        a back)."""
        return {}


@dataclass(frozen=True)
class System:
    """A multiset of labels as a dense multiplicity vector: nonnegative
    integers (``errors.integer``), stored as a tuple of ints.  TypeError
    for a ctx that is not a Context."""

    ctx: Context
    mult: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.ctx, Context):
            raise TypeError("a system takes a Context instance")
        if len(self.mult) != self.ctx.n:
            raise ArityError(
                f"multiplicity vector has length {len(self.mult)}, ground set has {self.ctx.n}"
            )
        message = "multiplicities must be nonnegative integers"
        self.__dict__["mult"] = tuple(integer(v, 0, ArityError, message) for v in self.mult)

    @property
    def total(self) -> int:
        return sum(self.mult)

    @property
    def support(self) -> frozenset:
        return frozenset(_support(self.mult))

    def __call__(self, j: int) -> int:
        return self.mult[j - 1]

    def __add__(self, other: "System") -> "System":
        self._check_ctx(other)
        return _trusted(self.ctx, tuple(map(operator.add, self.mult, other.mult)))

    def try_sub(self, other: "System"):
        self._check_ctx(other)
        diff = tuple(a - b for a, b in zip(self.mult, other.mult))
        if any(v < 0 for v in diff):
            return None
        return System(self.ctx, diff)

    def __sub__(self, other: "System") -> "System":
        result = self.try_sub(other)
        if result is None:
            raise ArityError("subtraction would produce negative multiplicities")
        return result

    def _check_ctx(self, other: "System"):
        if self.ctx != other.ctx:
            raise PreconditionError("systems belong to different contexts")

    def __repr__(self):
        return f"System{self.mult}"


def _trusted(ctx: Context, mult: tuple) -> System:
    """The System ``mult`` of ctx without the checks of ``System``: only for
    tuples computed from already-validated Systems of ctx (a composition
    below one, a difference T - T2 >= 0, a sum, the classes of its strong
    search)."""
    system = object.__new__(System)
    fields = system.__dict__
    fields["ctx"] = ctx
    fields["mult"] = mult
    return system


def l1_distance(S: System, T: System) -> int:
    """Sum of absolute multiplicity differences; a metric on systems."""
    S._check_ctx(T)
    return sum(abs(a - b) for a, b in zip(S.mult, T.mult))


def is_base(T: System) -> bool:
    """True iff T is a 0/1 system on a maximal independent set of size k:
    by its size, its 0/1 entries and the matroid's independence memo."""
    ctx = T.ctx
    return T.total == ctx.k and max(T.mult) <= 1 and ctx.matroid._memo_independent(T.support)


@dataclass(frozen=True)
class StrongDecomposition:
    """m base parts (canonically sorted) plus an l-system remainder."""

    parts: tuple[System, ...]
    remainder: System

    @classmethod
    def make(cls, parts, remainder: System) -> "StrongDecomposition":
        return cls(parts=tuple(sorted(parts, key=lambda s: s.mult)), remainder=remainder)

    @property
    def total(self) -> System:
        self._check_ctx()
        return System(self.remainder.ctx, self._total_mult)

    def _check_ctx(self):
        for p in self.parts:
            self.remainder._check_ctx(p)

    @cached_property
    def _total_mult(self) -> tuple:
        rows = (p.mult for p in self.parts)
        return tuple(map(sum, zip(self.remainder.mult, *rows)))

    def validate(self, T: System | None = None) -> bool:
        """m base parts, summing with the remainder to T when T is given;
        PreconditionError when parts and remainder mix contexts."""
        self._check_ctx()
        if T is not None and T.ctx != self.remainder.ctx:
            return False
        return self._decomposes(None if T is None else T.mult)

    def _decomposes(self, mult: tuple | None) -> bool:
        """``validate`` on the labels the parts already hold, in one context:
        m parts, each a base (``is_base``), and the parts and remainder sum
        to mult unless mult is None."""
        if len(self.parts) != self.remainder.ctx.m or not all(map(is_base, self.parts)):
            return False
        return mult is None or self._total_mult == mult

    @cached_property
    def _remainder_closure(self) -> frozenset:
        """The labels some strong decomposition of this total puts in the
        remainder: the remainder's labels closed under y -> C(B_i, y) for
        every base B_i without y.

        This is ``partition._uniform_closure`` read in labels, as the strong
        search is: a base already holding y is skipped, and the B_i are
        bases, so every y has its circuit and no free slot arises.  It is the partition's exchange
        search (``partition._reach``) over m copies of the matroid, the
        bases as classes and the remainder's labels as seeds; the
        decomposition keeps the result.
        """
        bases = [p.support for p in self.parts]
        reached = _reach((self.remainder.ctx.matroid,) * len(bases), bases, _support(self.remainder.mult))
        if not isinstance(reached, frozenset):
            raise InvalidMatroidError(
                "a base took another element; the independence oracle is "
                "inconsistent with the matroid axioms"
            )
        return reached


@dataclass(frozen=True)
class SystemBoundViolation:
    """A subset B whose T-mass exceeds l + m * r(B)."""

    B: frozenset
    mass: int
    bound: int


def _check_arity(ctx: Context, mult: tuple, l: int) -> int:
    """l as an int; ArityError unless l is an integer (``errors.integer``)
    of at least 0 and |mult| = m k + l.  l's type is checked first."""
    l = integer(l, None, ArityError, "remainder size must be an integer, got {!r}")
    if l < 0:
        raise ArityError(f"remainder size must be >= 0, got {l}")
    expected = ctx.m * ctx.k + l
    total = sum(mult)
    if total != expected:
        raise ArityError(f"|T| = {total} but m*k + l = {expected}")
    return l


def _strong_search(ctx: Context, mult: tuple, l: int):
    """The classes of a strong decomposition of the system ``mult``: m
    frozensets of labels, each a base, then l slots of at most one label
    each; or the frozenset of labels reached by the search for a unit that
    cannot be placed.

    The units, label by label, are placed from empty classes
    (``partition._place``) under m copies of the matroid and l copies of
    ``UniformMatroid(1, n)``: a slot holds one unit, so a label the
    remainder holds twice sits in two slots.
    """
    units = [j for j, v in enumerate(mult, 1) for _ in range(v)]
    slot = UniformMatroid(1, ctx.n)
    return _place((ctx.matroid,) * ctx.m + (slot,) * l, units)


def _strong_outcome(ctx: Context, mult: tuple, l: int):
    """The strong decomposition of the system ``mult`` of ctx, or the
    SystemBoundViolation showing none exists.

    ``mult`` is the multiplicity tuple of a System of ctx, or a tuple
    computed from one (a composition below it, one unit less), and l an
    integer with sum(mult) = m k + l (``_check_arity``, which the public
    entries run); neither is checked again.  The only reader of
    ``ctx._strong_memo``, keyed by the raw (mult, l): a hit builds nothing.
    A miss checks the size limit of a partition (m k + l units) and decides
    both outcomes by one label search (``_strong_search``); the
    decomposition's parts are built by ``_trusted`` from its classes, the
    remainder by counting the labels of the l slots, and checked on the
    memo cores (``StrongDecomposition._decomposes``), the violation, the
    labels the failed search reached, on the rank memo.  The search starts
    from empty classes, so the outcome depends on (matroid, m, mult, l)
    only.
    """
    memo = ctx._strong_memo
    key = (mult, l)
    outcome = memo.get(key)
    if outcome is not None:
        return outcome
    _check_size(ctx.m * ctx.k + l)
    found = _strong_search(ctx, mult, l)
    if isinstance(found, frozenset):
        mass = sum(mult[j - 1] for j in found)
        bound = l + ctx.m * ctx.matroid._memo_rank(found)
        if mass <= bound:
            raise InternalError("the labels the strong search reached violate no bound")
        outcome = SystemBoundViolation(B=found, mass=mass, bound=bound)
    else:
        parts = [_trusted(ctx, _row(ctx.n, B)) for B in found[:ctx.m]]
        outcome = StrongDecomposition.make(parts, _trusted(ctx, _row(ctx.n, chain(*found[ctx.m:]))))
        if not outcome._decomposes(mult):
            raise InternalError("the strong search produced an invalid strong decomposition")
    memo[key] = outcome
    return outcome


def find_strong_decomposition(T: System, l: int):
    """A strong decomposition of the (mk+l)-system T, or None if none exists.

    The decomposition is the one the label search finds from empty classes
    (``_strong_outcome``): it depends on T and l only.  ArityError unless l
    is an integer with |T| = m k + l.
    """
    l = _check_arity(T.ctx, T.mult, l)
    outcome = _strong_outcome(T.ctx, T.mult, l)
    return outcome if isinstance(outcome, StrongDecomposition) else None


def strong_deficiency_witness(T: System, l: int):
    """A SystemBoundViolation showing T is not strong, or None if it is;
    ArityError as ``find_strong_decomposition``."""
    l = _check_arity(T.ctx, T.mult, l)
    outcome = _strong_outcome(T.ctx, T.mult, l)
    return outcome if isinstance(outcome, SystemBoundViolation) else None


@dataclass(frozen=True, init=False)
class GoodDecomposition:
    """T = T1 + T2 with T2 a strong (mk+1)-system; identity is the pair only.

    ``witness``, a strong decomposition of T2 with a one-label remainder, is
    built on first read from shared bases: the bases of the memoized l = 0
    decomposition of T2's first filing key U = T2 - [a], plus the unit [a]
    (``_shared_witness``); it depends on T2 only.  Every decomposition whose
    first key is U, a report node or a descent move's result, reuses them.
    ``validate`` answers False, without a witness, when T2 is not strong.
    """

    T1: System
    T2: System

    def __init__(self, T1: System, T2: System):
        fields = self.__dict__
        fields["T1"] = T1
        fields["T2"] = T2

    @cached_property
    def witness(self) -> StrongDecomposition:
        return _shared_witness(self.T2)

    @property
    def whole(self) -> System:
        return self.T1 + self.T2

    def validate(self) -> bool:
        ctx = self.T1.ctx
        if self.T2.total != ctx.m * ctx.k + 1:
            return False
        if _decision(self.T2.ctx, self.T2.mult) is None:
            return False  # no witness to build: T2 is not strong
        return self.witness.validate(self.T2) and self.witness.remainder.total == 1


def _bounded_compositions(total: int, caps):
    """All tuples 0 <= t_i <= caps[i] with the given sum, in lexicographic order.

    An iterative walk: from the least such tuple, each step raises the last
    entry that can take one unit from the entries after it, and refills
    those with what they held less that unit, each as far right as the caps
    let it go: the least tuple with the new prefix.
    """
    n = len(caps)
    if total > sum(caps):
        return
    t = [0] * n
    rest = total
    for j in range(n - 1, -1, -1):
        t[j] = v = min(caps[j], rest)
        rest -= v
    while True:
        yield tuple(t)
        rest = 0  # the sum of the entries after i
        for i in range(n - 1, -1, -1):
            if rest and t[i] < caps[i]:
                break
            rest += t[i]
        else:
            return
        t[i] += 1
        rest -= 1
        for j in range(n - 1, i, -1):
            t[j] = v = min(caps[j], rest)
            rest -= v


def _binding_flats(ctx: Context, whole: tuple, limit: int):
    """The flats of the matroid restricted to supp(whole), a spanning set,
    that can bind: rank r < k and whole(F) >= 1 + m r.  Returns (labels,
    incidence, bound): the support's labels, a 0/1 integer array with one row
    per flat over those labels, and 1 + m r per flat; or None when the
    enumeration keeps more than ``limit`` flats.

    Flats are grown rank by rank from the loops; the children of a flat F
    with basis J are the closures of J + e, which are the parallel classes
    of the contraction by F (x joins e's child iff J + e + x has a circuit).
    A binding flat can sit above flats that do not bind, so F is grown when
    some flat G above it could bind: G of rank r(F) + t holds at most
    ``Matroid._flat_size_bound`` labels, so whole(G) is at most whole(F)
    plus the heaviest labels outside F that fit, and each flat below a
    binding G passes this test with that G.
    """
    matroid, m, k = ctx.matroid, ctx.m, ctx.k
    labels = _support(whole)
    mass = [whole[j - 1] for j in labels]
    size = len(labels)
    top = min(k - 1, (sum(mass) - 1) // m)  # the highest rank that can bind
    loops = 0
    for i, j in enumerate(labels):
        if not matroid._memo_independent(frozenset((j,))):
            loops |= 1 << i
    level = {loops: ()}  # the flats of one rank, as support bitmasks, with a basis each
    kept = 1
    found = []
    for r in range(top + 1):
        grown = {}
        for flat, basis in level.items():
            inside = [i for i in range(size) if flat >> i & 1]
            weight = sum(mass[i] for i in inside)
            if weight >= 1 + m * r:
                found.append((flat, r))
            if r == top:
                continue
            outside = [i for i in range(size) if not flat >> i & 1]
            reach = [0, *accumulate(sorted((mass[i] for i in outside), reverse=True))]
            if not any(
                weight + reach[min(len(outside), max(0, matroid._flat_size_bound(r + t, size, k) - len(inside)))]
                >= 1 + m * (r + t)
                for t in range(1, top - r + 1)
            ):
                continue
            covered = flat
            for at, i in enumerate(outside):
                if covered >> i & 1:
                    continue
                clazz = frozenset(basis + (labels[i],))
                child = flat | 1 << i
                for x in outside[at + 1:]:
                    if not covered >> x & 1 and matroid._circuit(clazz, labels[x]) is not None:
                        child |= 1 << x
                covered |= child
                if child not in grown:
                    grown[child] = basis + (labels[i],)
                    kept += 1
                    if kept > limit:
                        return None
        level = grown
    incidence = np.array([[flat >> i & 1 for i in range(size)] for flat, _ in found], dtype=np.int64)
    bound = np.array([1 + m * r for _, r in found], dtype=np.int64)
    return labels, incidence.reshape(len(found), size), bound


def _decide(ctx: Context, whole: tuple, misses: list) -> None:
    """Decide each (mk+1)-system of ``misses`` (compositions below whole)
    into ``ctx._decisions`` by the counting bound on flats.

    T2 splits into m bases and one label exactly when T2(F) <= 1 + m r(F)
    for every flat F (Edmonds' matroid partition), and T2 - [a] is then a
    sum of m bases exactly when a lies in every tight flat, T2(F) = 1 +
    m r(F).  Only flats that bind for whole can be tight or violated for a
    T2 below it, and the top flat, of rank k, is tight for every T2 and
    holds its whole support.  So the misses are multiplied by the
    incidence of the binding flats of rank < k (``_binding_flats``) and
    compared with 1 + m r, and the tight rows are multiplied by the
    complement of the incidence: a label with no tight flat missing it is
    in the remainder closure, and each such a gives a filing key T2 - [a]
    (``_minus``, as in the search branch).  Rows go through in chunks that
    keep each product near 2^20 entries.

    On the inputs measured, growing a flat costs from a twentieth to a half
    of what deciding one miss by the label search costs (``_strong_outcome``
    and the circuit closure of its remainder), so the enumeration may grow
    FLATS_PER_SEARCH flats per miss; past that, each miss is decided by the
    label search instead, and what the enumeration spent before it stopped
    is at most about twice that search's cost.
    """
    decisions = ctx._decisions
    if ctx.matroid._memo_rank(frozenset(_support(whole))) < ctx.k:
        decisions.update(dict.fromkeys(misses))  # no base lies below whole
        return
    flats = _binding_flats(ctx, whole, FLATS_PER_SEARCH * len(misses))
    if flats is None:
        for mult in misses:
            outcome = _strong_outcome(ctx, mult, 1)
            if isinstance(outcome, StrongDecomposition):
                decisions[mult] = tuple(_minus(mult, a) for a in sorted(outcome._remainder_closure))
            else:
                decisions[mult] = None
        return
    labels, incidence, bound = flats
    columns = np.array(labels) - 1
    outside = 1 - incidence
    step = max(1, (1 << 20) // max(1, len(bound), len(labels)))
    for start in range(0, len(misses), step):
        chunk = misses[start:start + step]
        rows = np.array(chunk)[:, columns]
        masses = rows @ incidence.T
        strong = ~(masses > bound).any(axis=1)
        closed = ((masses == bound).astype(np.int64) @ outside == 0) & (rows > 0)
        for mult, ok, row in zip(chunk, strong.tolist(), closed.tolist()):
            decisions[mult] = tuple(_minus(mult, a) for a in compress(labels, row)) if ok else None


def _decision(ctx: Context, mult: tuple):
    """The memoized decision of the (mk+1)-system ``mult`` (see
    ``Context._decisions``), deciding it against its own flats on a miss."""
    decisions = ctx._decisions
    if mult not in decisions:
        _check_arity(ctx, mult, 1)
        _decide(ctx, mult, [mult])
    return decisions[mult]


def _key_label(mult: tuple, key: tuple) -> int:
    """The label a with key = mult - [a]."""
    return list(map(operator.ne, key, mult)).index(True) + 1


def _shared_witness(T2: System) -> StrongDecomposition:
    """A strong decomposition of T2 with a one-label remainder, from shared
    bases: the l = 0 decomposition of T2's first filing key U = T2 - [a]
    plus the unit [a], so the witness depends on T2 only.
    ``_strong_outcome``, the one writer of the memo, checked those bases on
    the memo cores, so only the sum is checked here: bases plus [a] must
    give T2 (InternalError otherwise).  The outcome is memoized, so every
    node whose first key is U reuses it.  PreconditionError when T2 is not
    strong (``_required``)."""
    ctx, mult = T2.ctx, T2.mult
    key = _required(_decision(ctx, mult))[0]
    rest = _strong_outcome(ctx, key, 0)
    if not isinstance(rest, StrongDecomposition):
        raise InternalError("a label of the remainder closure left a system that is not strong")
    unit = _trusted(ctx, _row(ctx.n, (_key_label(mult, key),)))
    witness = StrongDecomposition(parts=rest.parts, remainder=unit)
    if witness._total_mult != mult:
        raise InternalError("shared bases plus one label do not decompose the second member")
    return witness


def all_good_decompositions(T: System, max_total: int = MAX_TOTAL) -> tuple[GoodDecomposition, ...]:
    """Every good decomposition of T, ordered lexicographically by T2.

    The candidates T2 are the compositions of mk + 1 below T, walked as
    tuples and looked up in the context's decisions; the misses of one call
    are decided together by the counting bound on flats (``_decide``), with
    no strong search.  Only a strong candidate becomes a node: its T2 and
    T1 = T - T2 are the Systems built, by ``_trusted``, and its witness is
    built on first read (``GoodDecomposition``).  PreconditionError for a
    ``max_total`` that is not an integer (``errors.integer``).
    """
    max_total = integer(max_total, None, PreconditionError, "max_total must be an integer, got {!r}")
    ctx = T.ctx
    need = ctx.m * ctx.k + 1
    if T.total < need:
        raise ArityError(f"|T| = {T.total} < m*k + 1 = {need}")
    _check_total(T.total, max_total)
    _check_size(need)  # the search decider's size limit, whichever decider runs
    decisions = ctx._decisions
    whole = T.mult
    compositions = list(_bounded_compositions(need, whole))
    misses = [mult for mult in compositions if mult not in decisions]
    if misses:
        _decide(ctx, whole, misses)
    out = []
    for mult in compositions:
        if decisions[mult] is not None:
            T1 = _trusted(ctx, tuple(map(operator.sub, whole, mult)))
            out.append(GoodDecomposition(T1, _trusted(ctx, mult)))
    return tuple(out)


def _minus(mult: tuple, a: int) -> tuple:
    """mult with one copy of label a removed (mult(a) >= 1)."""
    return mult[: a - 1] + (mult[a - 1] - 1,) + mult[a:]


@dataclass(frozen=True)
class EquivalenceReport:
    """The graph of good decompositions with local relations as edges."""

    nodes: tuple[GoodDecomposition, ...]
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


def equivalence_report(T: System, max_total: int = MAX_TOTAL) -> EquivalenceReport:
    """The good decompositions of T, their local relations and equivalence classes.

    Nodes are ordered lexicographically by T2.  Distinct nodes i, j are
    related iff T2_i - [a] = T2_j - [b] for some labels a, b and that shared
    system U is strong with l = 0 (the l1 rule of the module docstring).
    U = T2_i - [a] is strong with l = 0 exactly when a lies in every tight
    flat of T2_i, its remainder closure, which the counting-bound decision
    keeps as the filing keys U (``Context._decisions``).  So each node files
    itself under those keys, and every group of two or more nodes is a
    clique: the report runs no strong search and builds no witness.  The
    pair (a, b) is fixed by T2_i and T2_j, so each related pair lies in
    exactly one group.  Edges (i, j) have i < j and are listed by i, then
    j, ascending.
    """
    nodes = all_good_decompositions(T, max_total)
    decisions = T.ctx._decisions
    groups: defaultdict[tuple, list[int]] = defaultdict(list)
    for i, d in enumerate(nodes):
        for key in decisions[d.T2.mult]:
            groups[key].append(i)
    edges = []
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for members in groups.values():
        if len(members) < 2:
            continue
        edges.extend(combinations(members, 2))  # members ascend, so i < j
        root = find(members[0])
        for j in members[1:]:
            parent[find(j)] = root
    edges.sort()
    classes: dict[int, list[int]] = {}
    for i in range(len(nodes)):  # ascending, so classes come in order of their least node
        classes.setdefault(find(i), []).append(i)
    components = tuple(map(tuple, classes.values()))
    return EquivalenceReport(nodes=nodes, edges=tuple(edges), components=components)


def _required(found):
    """``found``, a strong decomposition or a decision's filing keys, or
    PreconditionError when it is None: the system is not strong."""
    if found is None:
        raise PreconditionError("the system is not strong for this remainder size")
    return found


def remainder_support(T: System, l: int) -> frozenset:
    """Labels that appear in the remainder of some strong decomposition of T.

    The remainder support is the circuit closure of the remainder of any
    one strong decomposition (``StrongDecomposition._remainder_closure``),
    so it costs the strongness check's one search and no second one.
    """
    l = _check_arity(T.ctx, T.mult, l)
    if l < 1:
        raise PreconditionError("remainder support needs l >= 1")
    return _required(find_strong_decomposition(T, l))._remainder_closure


@dataclass(frozen=True)
class DescentMove:
    """One distance-decreasing exchange between two good decompositions."""

    case: str
    moved_t: GoodDecomposition
    moved_s: GoodDecomposition
    distance_before: int
    distance_after: int


def _exchange(d: GoodDecomposition, a: int, b: int) -> GoodDecomposition:
    """d with one a moved from T2 to T1 and one b from T1 to T2.  T2(a) >= 1
    and T1(b) >= 1, so both new tuples are Systems of d's context; the
    witness is built on first read, as a report node's is."""
    ctx = d.T1.ctx
    T1, T2 = list(d.T1.mult), list(d.T2.mult)
    T1[a - 1] += 1
    T1[b - 1] -= 1
    T2[a - 1] -= 1
    T2[b - 1] += 1
    return GoodDecomposition(_trusted(ctx, tuple(T1)), _trusted(ctx, tuple(T2)))


def descent_move(dT: GoodDecomposition, dS: GoodDecomposition) -> DescentMove:
    """Construct the exchange that brings the second members strictly closer.

    Given two distinct good decompositions of the same system, returns new
    good decompositions (each locally related to its input) whose second
    members are at l1 distance exactly 2 less than before.  With T2, S2 the
    second members, the remainder exchange property gives two cases:

      * surplus: the least i with T2(i) > S2(i) and T2 - [i] strong with
        l = 0 trades one i of T2 for the least b with T1(b) > S1(b);
      * matched: otherwise the least a with S2 - [a] strong with l = 0 also
        leaves T2 - [a] strong, and both second members trade one a, T2 for
        that b and S2 for the least c with T1(c) < S1(c).

    X2 - [a] is strong with l = 0 exactly when it is one of X2's filing
    keys (``Context._decisions``), so the labels are tested against the two
    decisions' keys and no search runs; a moved member's witness is built
    on first read (``GoodDecomposition``).
    """
    if dT.whole != dS.whole:  # one context and one sum
        raise PreconditionError("good decompositions do not decompose the same system")
    if dT == dS:
        raise PreconditionError("descent move needs two distinct good decompositions")
    ctx = dT.T1.ctx
    S2, T2 = dS.T2, dT.T2
    keys_s = _required(_decision(ctx, S2.mult))  # the filing keys, ascending in the label
    keys_t = _required(_decision(ctx, T2.mult))
    labels = ctx.matroid.ground.labels
    before = l1_distance(T2, S2)
    b = min(l for l in labels if dT.T1(l) > dS.T1(l))
    t2, s2 = T2.mult, S2.mult
    i = next((i for i, (u, v) in enumerate(zip(t2, s2), 1) if u > v and _minus(t2, i) in keys_t), None)
    if i is not None:
        moved = _exchange(dT, i, b)
        return DescentMove("surplus", moved_t=moved, moved_s=dS,
                           distance_before=before, distance_after=l1_distance(moved.T2, S2))
    a = _key_label(s2, keys_s[0])
    if _minus(t2, a) not in keys_t:
        raise InternalError(
            "neither exchange alternative is certifiable; this contradicts "
            "the remainder exchange property and signals a bug"
        )
    c = min(l for l in labels if dT.T1(l) < dS.T1(l))
    moved_t = _exchange(dT, a, b)
    moved_s = _exchange(dS, a, c)
    return DescentMove("matched", moved_t=moved_t, moved_s=moved_s,
                       distance_before=before, distance_after=l1_distance(moved_t.T2, moved_s.T2))
