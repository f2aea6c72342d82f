"""Systems of labels, strong and good decompositions, and their equivalence.

A *system* is a multiset of ground-set labels stored as a dense nonnegative
integer vector.  Relative to a matroid of rank k and a number of blocks m:

  * a *base* is a k-system whose support is a maximal independent set
    (all multiplicities 0/1);
  * a *strong decomposition* of an (mk+l)-system is a split into m bases
    plus an l-system remainder; existence is decided by lifting the matroid
    to one lift element per multiplicity unit and running matroid partition;
  * a *good decomposition* of T splits it as T1 + T2 with T2 a strong
    (mk+1)-system;
  * two good decompositions are *locally related* when their second members
    admit strong decompositions sharing all m bases, and *equivalent* when a
    chain of local relations connects them.

Sharing all m bases means the second members are T2 = U + [r] and
T2' = U + [r'] for one sum U of m bases.  So distinct T2, T2' are locally
related exactly when T2' = T2 - [a] + [b] for labels a != b and
T2 - [a] = min(T2, T2') (componentwise) is strong with l = 0: no search over
bases.  Strong-decomposition outcomes are memoized per ``Context``, keyed by
the raw multiplicity tuple and l: the enumeration, the edge pass and
``descent_move`` work on tuples that a validated ``System`` bounds, look
their candidates up by those tuples and build a ``System`` only for what
they return, through the unchecked ``_trusted``.  A miss lifts the tuple
directly (one lift element per unit, so the label map needs no check) and
checks its answer through the matroid's memo cores.  It starts its lifted
partition from a nearby strong decomposition the caller holds, not from
empty: the paper's elementary transformations T2 -> T2 - [a] + [b] are
one-unit exchanges, and an augmenting path absorbs one, so a miss costs
about one augmentation instead of one per unit.

Which labels can sit in the remainder is a circuit closure, not a search
over decompositions: for a strong decomposition with bases B_1..B_m, they
are the remainder's labels closed under y -> C(B_i, y) for every B_i
without y (``StrongDecomposition._remainder_closure``, the label form of
``partition._uniform_closure``: the partition's one exchange search,
``partition._reach``, seeded with the remainder's labels over the m bases;
any one decomposition gives the same set).
Each memoized decomposition computes its closure once and keeps it, with
the systems T2 - [a], a in the closure, that the edge pass files it under
(``StrongDecomposition._filing_keys``).

``equivalence_report`` materializes the graph of good decompositions with
local relations as edges.  T2 - [a] is strong with l = 0 exactly when a is
in the remainder closure of T2's witness, so each node files itself under
U = T2 - [a] for those a only, and every group of two or more nodes is a
clique: the edge pass solves no partition and asks no strong question.  The
enumeration seeds each miss from the last strong second member before it
in lexicographic order.  So on a shared ``Context`` which valid
decomposition a query returns may depend on what was decided before.

``descent_move`` constructs, from two distinct good decompositions, the
explicit exchange that brings their second members strictly closer in the
l1 metric while staying inside one equivalence class; it picks its labels
from the remainder closures of the two second members and makes one l = 0
query, seeded from that member's decomposition, per member it moves.
``remainder_support`` is the remainder closure of one strong
decomposition: the strongness check's partition and no other.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations, compress

from .errors import (
    ArityError,
    InternalError,
    InvalidMatroidError,
    PreconditionError,
    SizeLimitError,
)
from .matroids import LiftedMatroid, Matroid, UniformMatroid
from .partition import DeficiencyWitness, PartitionProblem, _reach, solve_partition

MAX_TOTAL = 24  # largest |T| whose good decompositions are enumerated


@dataclass(frozen=True)
class Context:
    """A matroid together with the number of base blocks m."""

    matroid: Matroid
    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise PreconditionError(f"need m >= 1, got {self.m!r}")
        if self.matroid.full_rank < 1:
            raise PreconditionError("the matroid must have rank >= 1")

    @property
    def n(self) -> int:
        return self.matroid.ground.n

    @cached_property
    def k(self) -> int:
        return self.matroid.full_rank

    def system(self, mult) -> "System":
        return System(self, tuple(_multiplicity(v) for v in mult))

    def unit(self, j: int) -> "System":
        self.matroid.ground.check_subset([j])
        return System(self, tuple(1 if i == j else 0 for i in self.matroid.ground.labels))

    def zero(self) -> "System":
        return System(self, (0,) * self.n)

    @cached_property
    def base_systems(self) -> tuple["System", ...]:
        """All bases of the matroid as 0/1 systems, in lexicographic order."""
        out = []
        for B in self.matroid.bases():
            out.append(System(self, tuple(1 if j in B else 0 for j in self.matroid.ground.labels)))
        return tuple(sorted(out, key=lambda s: s.mult))

    @cached_property
    def base_sums(self) -> tuple[tuple[int, ...], ...]:
        """The sums of m bases, i.e. the strong mk-systems, as sorted
        multiplicity tuples."""
        sums = {self.zero().mult}
        for _ in range(self.m):
            sums = {tuple(map(operator.add, S, B.mult)) for S in sums for B in self.base_systems}
        return tuple(sorted(sums))

    @cached_property
    def _strong_memo(self) -> dict:
        """Strong-decomposition outcomes in this context, keyed by (mult, l)."""
        return {}


def _multiplicity(v):
    """v as an int when it is an integer (numpy integers included) other than a
    bool; anything else unchanged, for ``System`` to refuse."""
    if type(v) is int or isinstance(v, bool):
        return v
    try:
        return operator.index(v)
    except TypeError:
        return v


@dataclass(frozen=True)
class System:
    """A multiset of labels as a dense multiplicity vector."""

    ctx: Context
    mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.mult) != self.ctx.n:
            raise ArityError(
                f"multiplicity vector has length {len(self.mult)}, ground set has {self.ctx.n}"
            )
        if any(type(v) is not int or v < 0 for v in self.mult):
            raise ArityError("multiplicities must be nonnegative integers")

    @property
    def total(self) -> int:
        return sum(self.mult)

    @property
    def support(self) -> frozenset:
        return frozenset(j for j, v in enumerate(self.mult, start=1) if v)

    def __call__(self, j: int) -> int:
        return self.mult[j - 1]

    def __add__(self, other: "System") -> "System":
        self._check_ctx(other)
        return System(self.ctx, tuple(a + b for a, b in zip(self.mult, other.mult)))

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
    tuples computed from an already-validated System of ctx (a composition
    below it, a difference T - T2 >= 0, the class counts of a partition of
    its lift)."""
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
    """True iff T is a 0/1 system on a maximal independent set of size k."""
    if T.total != T.ctx.k or any(v > 1 for v in T.mult):
        return False
    return T.ctx.matroid.is_independent(T.support)


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
        each part is a base by its size, its 0/1 entries and the matroid's
        independence memo, and the parts and remainder sum to mult unless
        mult is None."""
        ctx = self.remainder.ctx
        if len(self.parts) != ctx.m:
            return False
        matroid, k = ctx.matroid, ctx.k
        labels = matroid.ground.labels
        for p in self.parts:
            if sum(p.mult) != k or max(p.mult) > 1:
                return False
            if not matroid._memo_independent(frozenset(compress(labels, p.mult))):
                return False
        return mult is None or self._total_mult == mult

    @cached_property
    def _remainder_closure(self) -> frozenset:
        """The labels some strong decomposition of this total puts in the
        remainder: the remainder's labels closed under y -> C(B_i, y) for
        every base B_i without y.

        This is ``partition._uniform_closure`` of the lifted problem read in
        labels: the copies of one label are parallel in the lift, so a base
        already holding y adds only y, and the B_i are bases, so every y
        has its circuit and no free slot arises.  It is the partition's
        exchange search (``partition._reach``) over m copies of the matroid,
        the bases as classes and the remainder's labels as seeds; the
        decomposition keeps the result.
        """
        matroid = self.remainder.ctx.matroid
        labels = matroid.ground.labels
        bases = [frozenset(compress(labels, p.mult)) for p in self.parts]
        reached = _reach((matroid,) * len(bases), bases, compress(labels, self.remainder.mult))
        if not isinstance(reached, frozenset):
            raise InvalidMatroidError(
                "a base took another element; the independence oracle is "
                "inconsistent with the matroid axioms"
            )
        return reached

    @cached_property
    def _filing_keys(self) -> tuple[tuple[int, ...], ...]:
        """total - [a] for each a of the remainder closure, ascending: the
        shared systems U = T2 - [a] that ``equivalence_report`` files this
        decomposition's node under.  Kept next to the closure."""
        total = self._total_mult
        return tuple(_minus(total, a) for a in sorted(self._remainder_closure))


@dataclass(frozen=True)
class SystemBoundViolation:
    """A subset B whose T-mass exceeds l + m * r(B)."""

    B: frozenset
    mass: int
    bound: int


def _lift_problem(ctx: Context, mult: tuple, l: int):
    """One lift element per multiplicity unit; m lifted copies plus a uniform
    tail.  mult is the multiplicity tuple of a System of ctx, so the lift's
    map and the shared ground set hold by construction and are not checked."""
    lifted = LiftedMatroid._of_multiplicities(ctx.matroid, mult)
    matroids = (lifted,) * ctx.m + (UniformMatroid(l, lifted.ground.n),)
    return PartitionProblem._trusted(matroids), lifted.fmap


def _check_arity(ctx: Context, mult: tuple, l: int):
    if l < 0:
        raise ArityError(f"remainder size must be >= 0, got {l}")
    expected = ctx.m * ctx.k + l
    total = sum(mult)
    if total != expected:
        raise ArityError(f"|T| = {total} but m*k + l = {expected}")


def _near_start(near: StrongDecomposition, mult: tuple, l: int) -> tuple:
    """Start classes of the lifted problem of (mult, l) taken from near.

    The lift elements of each label go, in order, to the parts of near that
    hold the label, then to near's remainder (seeded only when it fits the
    l slots), capped at the label's multiplicity in mult.  Each class is a
    subset of a base or of the remainder, so it is independent.
    """
    rows = [p.mult for p in near.parts]
    if near.remainder.total <= l:
        rows.append(near.remainder.mult)
    free = list(accumulate(mult, initial=1))  # the next unseeded lift element of each label
    stop = free[1:]
    classes = []
    for row in rows:
        clazz = []
        for j in compress(range(len(row)), row):
            e = free[j]
            free[j] = min(e + row[j], stop[j])
            clazz.extend(range(e, free[j]))
        classes.append(frozenset(clazz))
    return tuple(classes)


def _strong_outcome(ctx: Context, mult: tuple, l: int, near: StrongDecomposition | None = None):
    """The strong decomposition of the system ``mult`` of ctx, or the
    SystemBoundViolation showing none exists.

    ``mult`` is the multiplicity tuple of a System of ctx, or a tuple
    computed from one (a composition below it, one unit less); it is not
    checked again.  The only reader of ``ctx._strong_memo``, keyed by the
    raw (mult, l): a hit builds nothing.  A miss checks the arity, lifts
    mult directly (``_lift_problem``) and decides both outcomes by one
    lifted partition; the decomposition's parts are built by ``_trusted``
    from the partition's class counts and checked on the memo cores
    (``StrongDecomposition._decomposes``), the violation on the rank memo.
    ``near``, a strong decomposition the caller already holds, seeds that
    partition (``_near_start``), so a neighbour costs about one augmentation
    instead of one per unit.  Which decomposition is returned, and which
    violation, may therefore depend on what the context decided before; it
    is always a valid one.
    """
    memo = ctx._strong_memo
    key = (mult, l)
    outcome = memo.get(key)
    if outcome is not None:
        return outcome
    _check_arity(ctx, mult, l)
    problem, fmap = _lift_problem(ctx, mult, l)
    start = () if near is None else _near_start(near, mult, l)
    result = solve_partition(problem, start=start)
    if isinstance(result, DeficiencyWitness):
        B = frozenset(fmap[e - 1] for e in result.A)
        mass = sum(mult[j - 1] for j in B)
        bound = l + ctx.m * ctx.matroid._memo_rank(B)
        if mass <= bound:
            raise InternalError("partition witness did not project to a bound violation")
        outcome = SystemBoundViolation(B=B, mass=mass, bound=bound)
    else:
        groups = []
        for part in result.parts:
            counts = [0] * ctx.n
            for e in part:
                counts[fmap[e - 1] - 1] += 1
            groups.append(_trusted(ctx, tuple(counts)))
        outcome = StrongDecomposition.make(groups[: ctx.m], groups[ctx.m])
        if not outcome._decomposes(mult):
            raise InternalError("lifted partition produced an invalid strong decomposition")
    memo[key] = outcome
    return outcome


def find_strong_decomposition(T: System, l: int):
    """A strong decomposition of the (mk+l)-system T, or None if none exists.

    On a shared ``Context`` the decomposition returned may depend on what
    the context decided before (see ``_strong_outcome``); it is always a
    valid one.
    """
    outcome = _strong_outcome(T.ctx, T.mult, l)
    return outcome if isinstance(outcome, StrongDecomposition) else None


def strong_deficiency_witness(T: System, l: int):
    """A SystemBoundViolation showing T is not strong, or None if it is."""
    outcome = _strong_outcome(T.ctx, T.mult, l)
    return outcome if isinstance(outcome, SystemBoundViolation) else None


@dataclass(frozen=True)
class GoodDecomposition:
    """T = T1 + T2 with T2 a strong (mk+1)-system; identity is the pair only."""

    T1: System
    T2: System
    witness: StrongDecomposition = field(compare=False)

    @property
    def whole(self) -> System:
        return self.T1 + self.T2

    def validate(self) -> bool:
        ctx = self.T1.ctx
        return (
            self.T2.total == ctx.m * ctx.k + 1
            and self.witness.validate(self.T2)
            and self.witness.remainder.total == 1
        )


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


def all_good_decompositions(T: System, max_total: int = MAX_TOTAL) -> tuple[GoodDecomposition, ...]:
    """Every good decomposition of T, ordered lexicographically by T2.

    The candidates T2 are the compositions of mk + 1 below T, walked as
    tuples and looked up by ``_strong_outcome``, each miss seeded from the
    last strong candidate before it.  Only a strong candidate becomes a
    node: its T2 and T1 = T - T2 are the Systems built, by ``_trusted``.
    """
    ctx = T.ctx
    need = ctx.m * ctx.k + 1
    if T.total < need:
        raise ArityError(f"|T| = {T.total} < m*k + 1 = {need}")
    if T.total > max_total:
        raise SizeLimitError(f"good-decomposition enumeration limited to |T| <= {max_total}")
    out = []
    near = None
    whole = T.mult
    for mult in _bounded_compositions(need, whole):
        witness = _strong_outcome(ctx, mult, 1, near)
        if isinstance(witness, StrongDecomposition):
            near = witness
            T1 = _trusted(ctx, tuple(map(operator.sub, whole, mult)))
            out.append(GoodDecomposition(T1=T1, T2=_trusted(ctx, mult), witness=witness))
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
    U = T2_i - [a] is strong with l = 0 exactly when a lies in the remainder
    support of T2_i, the circuit closure of its witness
    (``StrongDecomposition._remainder_closure``).  So each node files itself
    under U = T2 - [a] for every a in that closure, and every group of two
    or more nodes is a clique: the edge pass asks no strong question and
    solves no partition.  The pair (a, b) is fixed by T2_i and T2_j, so each
    related pair lies in exactly one group.  The witnesses are the memoized
    outcomes of the enumeration, and each keeps its filing keys next to its
    closure (``StrongDecomposition._filing_keys``), so a warm ``Context``
    files every node without building a key.  Edges (i, j) have i < j and
    are listed by i, then j, ascending.
    """
    nodes = all_good_decompositions(T, max_total)
    groups: defaultdict[tuple, list[int]] = defaultdict(list)
    for i, d in enumerate(nodes):
        for key in d.witness._filing_keys:
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


def _require_strong(T: System, l: int) -> StrongDecomposition:
    """The memoized strong decomposition of T; PreconditionError if none."""
    found = find_strong_decomposition(T, l)
    if found is None:
        raise PreconditionError("the system is not strong for this remainder size")
    return found


def remainder_support(T: System, l: int) -> frozenset:
    """Labels that appear in the remainder of some strong decomposition of T.

    The remainder support is the circuit closure of the remainder of any
    one strong decomposition (``StrongDecomposition._remainder_closure``),
    so it costs the strongness check's one partition and no second lift.
    """
    if l < 1:
        raise PreconditionError("remainder support needs l >= 1")
    return _require_strong(T, l)._remainder_closure


@dataclass(frozen=True)
class DescentMove:
    """One distance-decreasing exchange between two good decompositions."""

    case: str
    moved_t: GoodDecomposition
    moved_s: GoodDecomposition
    distance_before: int
    distance_after: int


def _exchange(d: GoodDecomposition, a: int, b: int, rest: StrongDecomposition) -> GoodDecomposition:
    """d with one a moved from T2 to T1 and one b from T1 to T2, witnessed by
    the bases of ``rest`` (a strong decomposition of T2 - [a]) plus [b].
    T2(a) >= 1 and T1(b) >= 1, so every new tuple is a System of d's context."""
    ctx = d.T1.ctx
    T1, T2 = list(d.T1.mult), list(d.T2.mult)
    T1[a - 1] += 1
    T1[b - 1] -= 1
    T2[a - 1] -= 1
    T2[b - 1] += 1
    unit = [0] * ctx.n
    unit[b - 1] = 1
    return GoodDecomposition(
        T1=_trusted(ctx, tuple(T1)),
        T2=_trusted(ctx, tuple(T2)),
        witness=StrongDecomposition.make(rest.parts, _trusted(ctx, tuple(unit))),
    )


def _shared_bases(X2: System, a: int, near: StrongDecomposition) -> StrongDecomposition:
    """The strong decomposition with l = 0 of X2 - [a], for a in the
    remainder closure of near (a strong decomposition of X2); the query
    starts from near."""
    rest = _strong_outcome(X2.ctx, _minus(X2.mult, a), 0, near)
    if not isinstance(rest, StrongDecomposition):
        raise InternalError("a label of the remainder closure left a system that is not strong")
    return rest


def _whole(d: GoodDecomposition) -> tuple:
    """The multiplicities of d.T1 + d.T2 (PreconditionError if their
    contexts differ), without a System."""
    d.T1._check_ctx(d.T2)
    return tuple(map(operator.add, d.T1.mult, d.T2.mult))


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

    The labels with X2 - [a] strong are the remainder closure of X2's
    memoized strong decomposition (``StrongDecomposition._remainder_closure``),
    so the labels are picked from the two closures, and each member that
    moves makes one l = 0 query, seeded with that decomposition.
    """
    whole_t, whole_s = _whole(dT), _whole(dS)
    if dT.T1.ctx != dS.T1.ctx or whole_t != whole_s:
        raise PreconditionError("good decompositions do not decompose the same system")
    if dT == dS:
        raise PreconditionError("descent move needs two distinct good decompositions")
    ctx = dT.T1.ctx
    S2, T2 = dS.T2, dT.T2
    near_s = _require_strong(S2, 1)
    near_t = _require_strong(T2, 1)
    labels = ctx.matroid.ground.labels
    before = l1_distance(T2, S2)
    b = min(l for l in labels if dT.T1(l) > dS.T1(l))
    support_t = near_t._remainder_closure
    surplus = [i for i in support_t if T2(i) > S2(i)]
    if surplus:
        i = min(surplus)
        moved = _exchange(dT, i, b, _shared_bases(T2, i, near_t))
        return DescentMove("surplus", moved_t=moved, moved_s=dS,
                           distance_before=before, distance_after=l1_distance(moved.T2, S2))
    a = min(near_s._remainder_closure)
    if a not in support_t:
        raise InternalError(
            "neither exchange alternative is certifiable; this contradicts "
            "the remainder exchange property and signals a bug"
        )
    c = min(l for l in labels if dT.T1(l) < dS.T1(l))
    moved_t = _exchange(dT, a, b, _shared_bases(T2, a, near_t))
    moved_s = _exchange(dS, a, c, _shared_bases(S2, a, near_s))
    return DescentMove("matched", moved_t=moved_t, moved_s=moved_s,
                       distance_before=before, distance_after=l1_distance(moved_t.T2, moved_s.T2))
