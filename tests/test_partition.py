import random
from collections import Counter
from fractions import Fraction
from itertools import compress

import pytest

import matpot.partition
from matpot import (
    Context,
    DeficiencyWitness,
    GroundSetError,
    InvalidMatroidError,
    LinearMatroid,
    Matroid,
    PartitionCertificate,
    PartitionProblem,
    PreconditionError,
    SizeLimitError,
    UniformMatroid,
    min_tight_set,
    remainder_support,
    slack_elements,
    solve_partition,
)
from oracles import (
    LiftedMatroid,
    brute_partition,
    brute_slack_elements,
    fraction_circuit,
    lift_problem,
    rank_bound_holds,
    reference_closure,
    reference_partition,
    tight_sets,
)


def test_certificate_example():
    P = PartitionProblem((UniformMatroid(1, 3), UniformMatroid(2, 3)))
    result = solve_partition(P)
    assert isinstance(result, PartitionCertificate)
    assert result.validate(P)
    assert brute_partition(P.matroids, range(1, 4)) is not None


def test_witness_example():
    P = PartitionProblem((UniformMatroid(1, 2),))
    result = solve_partition(P)
    assert isinstance(result, DeficiencyWitness)
    assert result.A == {1, 2} and result.size == 2 and result.bound == 1
    assert result.validate(P)


def test_partition_problem_refuses_ground_sets_of_different_sizes():
    with pytest.raises(PreconditionError, match="same ground set"):
        PartitionProblem((UniformMatroid(1, 2), UniformMatroid(1, 3)))


def test_partition_problem_needs_a_matroid():
    with pytest.raises(PreconditionError, match="at least one matroid"):
        PartitionProblem(())


@pytest.mark.parametrize("parts", [
    (frozenset({1, 2, 3}),),  # one part for two matroids
    (frozenset({1}), frozenset({2}), frozenset({3})),  # three parts for two
    (frozenset({1, 2}), frozenset({2, 3})),  # label 2 in both parts
])
def test_certificate_needs_one_disjoint_part_per_matroid(parts):
    P = PartitionProblem((UniformMatroid(2, 3), UniformMatroid(2, 3)))
    assert PartitionCertificate(parts).validate(P) is False
    assert PartitionCertificate((frozenset({1, 2}), frozenset({3}))).validate(P) is True


def test_linear_plus_uniform_example():
    base = LinearMatroid([(1, 0), (2, 0), (0, 1)])
    lifted = LiftedMatroid(base, 3, (1, 2, 3))  # identity lift
    P = PartitionProblem((lifted, UniformMatroid(1, 3)))
    result = solve_partition(P)
    assert isinstance(result, PartitionCertificate)
    assert result.parts in (
        (frozenset({1, 3}), frozenset({2})),
        (frozenset({2, 3}), frozenset({1})),
    )
    # deterministic: smallest-label BFS picks {1,3},{2}
    assert result.parts == (frozenset({1, 3}), frozenset({2}))


def test_rank_bound_examples():
    assert rank_bound_holds(PartitionProblem((UniformMatroid(1, 3), UniformMatroid(2, 3)))) is True
    w = rank_bound_holds(PartitionProblem((UniformMatroid(1, 2),)))
    assert isinstance(w, DeficiencyWitness) and w.A == {1, 2}


def _random_matroid(rng, n):
    kind = rng.choice(["linear", "uniform", "lifted"])
    if kind == "uniform":
        return UniformMatroid(rng.randint(0, n), n)
    if kind == "linear":
        k = rng.randint(1, 3)
        return LinearMatroid(
            [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(n)]
        )
    base_n = rng.randint(1, n)
    base = UniformMatroid(rng.randint(0, base_n), base_n)
    return LiftedMatroid(base, n, tuple(rng.randint(1, base_n) for _ in range(n)))


def test_solver_agrees_with_bruteforce_oracles():
    rng = random.Random(2718)
    for _ in range(60):
        n = rng.randint(1, 10)
        count = rng.randint(1, 3)
        P = PartitionProblem(tuple(_random_matroid(rng, n) for _ in range(count)))
        result = solve_partition(P)
        bound = rank_bound_holds(P)
        coloring = brute_partition(P.matroids, range(1, n + 1)) if n <= 7 else None
        if isinstance(result, PartitionCertificate):
            assert bound is True
            assert result.validate(P)
            if n <= 7:
                assert coloring is not None
        else:
            assert isinstance(bound, DeficiencyWitness)
            assert result.validate(P) and bound.validate(P)
            if n <= 7:
                assert coloring is None


def test_solver_is_deterministic():
    rng = random.Random(5)
    for _ in range(10):
        P = PartitionProblem(tuple(_random_matroid(rng, 6) for _ in range(3)))
        first = solve_partition(P)
        second = solve_partition(P)
        assert first == second


def test_size_limit():
    P = PartitionProblem((UniformMatroid(1, 3),))
    with pytest.raises(SizeLimitError):
        solve_partition(P, max_size=2)
    with pytest.raises(SizeLimitError):
        rank_bound_holds(P, max_size=2)


class _AlwaysDependent(Matroid):
    def _independent(self, A):
        return False


def test_inconsistent_oracle_detected():
    P = PartitionProblem((_AlwaysDependent(UniformMatroid(1, 2).ground),))
    with pytest.raises(InvalidMatroidError):
        solve_partition(P)
    # the generic circuit core finds no element whose removal helps
    with pytest.raises(InvalidMatroidError):
        _AlwaysDependent(UniformMatroid(1, 2).ground).circuit(set(), 1)


class _LyingUniform(UniformMatroid):
    """Rank 1, but says a second element fits a one-element class."""

    def _circuit(self, C, y):
        return None if len(C) == 1 else super()._circuit(C, y)


def test_exchange_that_leaves_a_dependent_class_convicts_the_oracle():
    # no class is re-checked after an exchange; the next circuit core that
    # meets the dependent class refuses it, and the search names the oracle
    P = PartitionProblem((_LyingUniform(1, 3),))
    with pytest.raises(InvalidMatroidError, match="inconsistent"):
        solve_partition(P)


class _LyingLinear(LinearMatroid):
    """Says a class as large as the rows' width takes one more element."""

    def _circuit(self, C, y):
        return None if len(C) == self.width else super()._circuit(C, y)

    # the batched questions of a closure tell the same lie
    _circuits = Matroid._circuits


def test_a_class_at_its_rank_bound_that_takes_an_element_convicts_the_oracle():
    # {1, 2} spans the plane, yet the lying core lets it take 3; a class at
    # its rank bound is asked only once no class takes the element directly,
    # and then a None is an inconsistency, not a place for the element
    rows = [(1, 0), (0, 1), (1, 1)]
    for P in [
        PartitionProblem((_LyingLinear(rows),)),
        PartitionProblem((_LyingLinear(rows), UniformMatroid(0, 3))),
    ]:
        with pytest.raises(InvalidMatroidError, match="inconsistent"):
            solve_partition(P)


class _DependentAtWidth(LinearMatroid):
    """Refuses a class as large as the rows' width as dependent."""

    def _circuit(self, C, y):
        if len(C) == self.width:
            raise PreconditionError("circuit(clazz, y) needs an independent clazz")
        return super()._circuit(C, y)

    _circuits = Matroid._circuits


@pytest.mark.parametrize("liar", [_LyingLinear, _DependentAtWidth])
def test_a_class_at_its_rank_bound_that_contradicts_the_closure_convicts_the_oracle(liar):
    # the search that finds the partition {1, 2}, {3} never asks the full
    # class {1, 2}; the closure of {3} must ask it, and a None there, or a
    # refusal of the independent {1, 2}, is an inconsistent oracle
    P = PartitionProblem((liar([(1, 0), (0, 1), (1, 1)]), UniformMatroid(1, 3)))
    assert solve_partition(P).parts == (frozenset({1, 2}), frozenset({3}))
    for query in (min_tight_set, slack_elements):
        with pytest.raises(InvalidMatroidError, match="inconsistent"):
            query(P)


class _GenericLinear(Matroid):
    """The matroid of ``rows`` behind the generic cores: greedy rank, the
    circuit by single-element removals and the default rank bound n."""

    def __init__(self, rows):
        self._linear = LinearMatroid(rows)
        super().__init__(self._linear.ground)

    def _independent(self, A):
        return self._linear._independent(A)


def _with_tail(rng, linear):
    """The linear matroids plus a uniform tail near the counting bound of
    the ground set: either outcome occurs."""
    n = linear[0].ground.n
    room = n - sum(M.full_rank for M in linear)
    return linear + (UniformMatroid(min(n, max(0, room + rng.randint(-2, 2))), n),)


def _lifted(rng):
    """The lifted problem of m bases plus l labels with one unit moved."""
    n = rng.randint(4, 7)
    M = _linear_with_repeats(rng, n, rng.randint(2, 3))
    while M.full_rank == 0:
        M = _linear_with_repeats(rng, n, rng.randint(2, 3))
    ctx, l = Context(M, rng.randint(1, 3)), rng.randint(0, 2)
    mult = [0] * n
    for _ in range(ctx.m):
        for j in rng.choice(M.bases()):
            mult[j - 1] += 1
    for _ in range(l):
        mult[rng.randrange(n)] += 1
    mult[rng.choice([j for j in range(n) if mult[j]])] -= 1
    mult[rng.randrange(n)] += 1
    return lift_problem(ctx, tuple(mult), l)[0]


def test_partition_matches_the_search_that_asks_every_class():
    # asking the classes at their rank bound only when no class takes y
    # changes no answer: the certificate's parts, or the witness's A, size
    # and bound, equal those of the search that asks every class in order
    rng = random.Random(4041)
    kinds = Counter()
    for _ in range(40):
        n = rng.randint(10, 30)
        copies = (_linear_with_repeats(rng, n, rng.randint(2, 5)),) * rng.randint(1, 4)
        first, second = (_linear_with_repeats(rng, n, rng.randint(2, 4)) for _ in range(2))
        rows = _linear_with_repeats(rng, rng.randint(5, 10), rng.randint(2, 3)).rows
        for family, problem in [
            ("copies", PartitionProblem(_with_tail(rng, copies))),
            ("two linear", PartitionProblem(_with_tail(rng, (first,) * 2 + (second,)))),
            ("lifted", _lifted(rng)),
            ("generic", PartitionProblem(_with_tail(rng, (_GenericLinear(rows),) * 2))),
        ]:
            got = solve_partition(problem)
            assert got == reference_partition(problem), family
            kinds[family, type(got)] += 1
    for family in ("copies", "two linear", "lifted", "generic"):
        assert min(kinds[family, PartitionCertificate], kinds[family, DeficiencyWitness]) >= 3, kinds


def test_partition_checks_labels_only_to_validate_its_answer(monkeypatch):
    # the exchange search holds ground-set labels and calls the exact cores;
    # the labels are checked by the witness's bound and its validation
    # alone (2m checks), however many exchange steps the search took; a
    # certificate's validation compares its labels with the ground set and
    # reads the independence memos, with no label check
    checks, steps = [], []
    real_check = matpot.matroids.GroundSet.check_subset
    real_circuit = LinearMatroid._circuit

    def counting_check(self, subset):
        checks.append(1)
        return real_check(self, subset)

    def counting_circuit(self, C, y):
        steps.append(1)
        return real_circuit(self, C, y)

    monkeypatch.setattr(matpot.matroids.GroundSet, "check_subset", counting_check)
    monkeypatch.setattr(LinearMatroid, "_circuit", counting_circuit)
    rng = random.Random(29)
    seen = {DeficiencyWitness: set(), PartitionCertificate: set()}
    for _ in range(40):
        n = rng.randint(4, 9)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(n)]
        P = PartitionProblem((LinearMatroid(rows), LinearMatroid(rows[::-1]), UniformMatroid(rng.randint(0, 2), n)))
        checks.clear()
        steps.clear()
        result = solve_partition(P)
        assert len(checks) == (0 if isinstance(result, PartitionCertificate) else 2 * P.m)
        seen[type(result)].add(len(steps))
    assert all(len(counts) > 3 for counts in seen.values())


def test_certificate_with_foreign_labels_gets_a_structured_answer():
    # the check compares the parts with the ground set before it reads the
    # independence memos, so a label outside 1..n, or a non-int equal to one,
    # gets False (or a GroundSetError), never a core's IndexError or KeyError
    rows = [(1, 0), (0, 1), (1, 1)]
    problems = [
        PartitionProblem((LinearMatroid(rows), UniformMatroid(1, 3))),
        PartitionProblem((LiftedMatroid(LinearMatroid(rows), 3, (1, 2, 3)), UniformMatroid(1, 3))),
        PartitionProblem((LiftedMatroid(LinearMatroid(rows[:2]), 3, (1, 2, 2)), UniformMatroid(1, 3))),
    ]
    parts = [
        (frozenset({1, 2, 4}), frozenset({3})),
        (frozenset({1, 2}), frozenset({4})),
        (frozenset({0, 1}), frozenset({2, 3})),
        (frozenset({1, 2}), frozenset({3, -1})),
        (frozenset({1.0, 2}), frozenset({3})),
        (frozenset({True, 2}), frozenset({3})),
        (frozenset({"1", 2}), frozenset({3})),
        (frozenset({1, 2}), frozenset()),
    ]
    for P in problems:
        for cert in map(PartitionCertificate, parts):
            try:
                assert cert.validate(P) is False
            except GroundSetError:
                pass
        assert PartitionCertificate((frozenset({1, 2}), frozenset({3}))).validate(P) is True
    # two lift elements over one base label are dependent
    assert PartitionCertificate((frozenset({2, 3}), frozenset({1}))).validate(problems[2]) is False


def test_tight_sets_three_uniform():
    # two rank-1 matroids plus a uniform rank-1 tail over three elements:
    # only the full set is tight
    P = PartitionProblem(
        (UniformMatroid(1, 3), UniformMatroid(1, 3), UniformMatroid(1, 3))
    )
    family = tight_sets(P)
    assert family == {frozenset({1, 2, 3})}
    assert min_tight_set(P) == {1, 2, 3}
    assert slack_elements(P) == {1, 2, 3}


def test_tight_sets_single_uniform_full_rank():
    P = PartitionProblem((UniformMatroid(3, 3),))
    assert tight_sets(P) == {frozenset({1, 2, 3})}
    assert min_tight_set(P) == {1, 2, 3}


def test_min_tight_set_rank_zero_tail():
    P = PartitionProblem((UniformMatroid(2, 2), UniformMatroid(0, 2)))
    assert min_tight_set(P) == frozenset()


def test_slack_single_element():
    P = PartitionProblem((UniformMatroid(1, 1),))
    assert slack_elements(P) == {1}


def test_slack_of_rank_zero_part_is_empty():
    # no partition puts anything in a rank-0 uniform part
    P = PartitionProblem((UniformMatroid(2, 2), UniformMatroid(0, 2)))
    assert slack_elements(P) == brute_slack_elements(P) == frozenset()
    assert min_tight_set(P) == slack_elements(P)  # what amin prints in both fields


def test_tight_sets_preconditions():
    P = PartitionProblem((UniformMatroid(1, 2), LinearMatroid([(1,), (1,)])))
    with pytest.raises(PreconditionError):
        min_tight_set(P)  # last matroid not uniform
    P2 = PartitionProblem((UniformMatroid(1, 3), UniformMatroid(1, 3)))
    with pytest.raises(PreconditionError):
        min_tight_set(P2)  # no partition of three elements into two rank-1 parts
    P3 = PartitionProblem((UniformMatroid(2, 2), UniformMatroid(1, 2)))
    with pytest.raises(PreconditionError):
        min_tight_set(P3)  # partition exists but the full set is not tight


def test_min_tight_equals_slack_on_random_instances():
    rng = random.Random(31415)
    seen = 0
    for _ in range(120):
        n = rng.randint(2, 7)
        first = _random_matroid(rng, n)
        second = _random_matroid(rng, n)
        l = n - first.rank(range(1, n + 1)) - second.rank(range(1, n + 1))
        if l < 1:
            continue
        P = PartitionProblem((first, second, UniformMatroid(l, n)))
        if isinstance(solve_partition(P), DeficiencyWitness):
            continue
        assert min_tight_set(P) == slack_elements(P)
        seen += 1
    assert seen >= 20


def test_slack_elements_match_brute_force():
    # every valid assignment of n <= 8 elements; the closure's outcomes all
    # occur: a tight ground set, a free uniform slot (|U| < l), a full U whose
    # closure reaches an element that fits another class as it stands (then
    # every element is slack although the ground set is not tight), and a
    # proper closure of a ground set that is not tight
    rng = random.Random(2)
    kinds = Counter()
    for _ in range(400):
        n = rng.randint(1, 8)
        gen = rng.choice([_random_matroid, _linear_with_repeats, _linear_with_repeats])
        others = tuple(gen(rng, n) for _ in range(1 if n > 7 else 2))
        l0 = n - sum(M.full_rank for M in others)
        l = max(1, l0 + rng.randint(0, 2))
        if l > n:
            continue
        P = PartitionProblem(others + (UniformMatroid(l, n),))
        expected = brute_slack_elements(P)
        cert = solve_partition(P)
        if isinstance(cert, DeficiencyWitness):
            assert expected == frozenset()
            with pytest.raises(PreconditionError):
                slack_elements(P)
            continue
        slack = slack_elements(P)
        assert slack == expected
        if len(cert.parts[-1]) < l:
            kinds["free slot"] += 1
        elif l == l0:
            kinds["tight"] += 1
            assert slack == min_tight_set(P)
        elif slack == frozenset(P.ground.labels):
            kinds["reached element fits"] += 1
        else:
            kinds["proper closure"] += 1
    assert min(kinds[k] for k in ("free slot", "tight", "reached element fits", "proper closure")) >= 3, kinds


def test_slack_elements_solve_one_partition(monkeypatch):
    calls = []
    solve = matpot.partition.solve_partition

    def counting(problem, *args, **kwargs):
        calls.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(matpot.partition, "solve_partition", counting)
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)] for _ in range(40)]
    problems = [
        PartitionProblem((UniformMatroid(1, 3),) * 3),  # tight ground set
        PartitionProblem((UniformMatroid(2, 3), UniformMatroid(2, 3))),  # free uniform slot
        # forty elements: the per-element sweep took 41 partitions here
        PartitionProblem((LinearMatroid(rows),) * 8 + (UniformMatroid(8, 40),)),
    ]
    for P in problems:
        calls.clear()
        slack_elements(P)
        assert calls == [P]


def _linear_with_repeats(rng, n, width=None):
    """Random rational rows with loops (zero rows) and parallel classes,
    of a random width 1-4 unless ``width`` is given."""
    width = width or rng.randint(1, 4)
    rows = []
    for _ in range(n):
        u = rng.random()
        if u < 0.1:
            rows.append((0,) * width)
        elif u < 0.4 and rows:
            q = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            rows.append(tuple(x * q for x in rng.choice(rows)))
        else:
            rows.append(tuple(Fraction(rng.randint(-3, 3)) for _ in range(width)))
    return LinearMatroid(rows)


def test_circuit_answers_of_large_searches_match_fraction_solves(circuit_queries):
    # every circuit the search asks of 40-56-row matroids, against one
    # Fraction solve of lambda R_C = r_y; both a certificate and a witness
    rng = random.Random(4056)
    outcomes = set()
    for n, width, copies, tail in [(40, 4, 10, 6), (44, 5, 8, 3), (48, 6, 8, 0), (56, 7, 9, 8)]:
        M = _linear_with_repeats(rng, n, width)
        tails = (UniformMatroid(tail, n),) if tail else ()
        outcomes.add(type(solve_partition(PartitionProblem((M,) * copies + tails))))
    assert outcomes == {PartitionCertificate, DeficiencyWitness}
    for (M, C, y), found in circuit_queries.items():
        assert found == fraction_circuit(M.rows, C, y)
    answers = list(circuit_queries.values())
    assert sum(a is None for a in answers) > 100 and sum(a is not None for a in answers) > 100


def test_min_tight_set_is_intersection_of_tight_sets():
    # the circuit closure against the brute-force lattice; tails of rank l0
    # make the full set tight, l0 - 1 and l0 + 1 exercise the preconditions
    rng = random.Random(8128)
    cases = [
        (UniformMatroid(3, 3),),
        (UniformMatroid(2, 2), UniformMatroid(0, 2)),
        (LinearMatroid([(1, 0), (2, 0), (0, 0), (0, 1)]), UniformMatroid(2, 4)),
    ]
    for _ in range(90):
        n = rng.randint(1, 12)
        kind = rng.choice(["repeats", "repeats", "uniform", "mixed"])
        if kind == "repeats":
            others = (_linear_with_repeats(rng, n),) * rng.randint(1, 3)
        elif kind == "uniform":
            others = tuple(UniformMatroid(rng.randint(0, n // 2), n) for _ in range(rng.randint(1, 2)))
        else:
            others = (_linear_with_repeats(rng, n), UniformMatroid(rng.randint(0, n // 2), n))
        l0 = n - sum(M.full_rank for M in others)
        for l in (l0 - 1, l0, l0 + 1):
            if 0 <= l <= n:
                cases.append(others + (UniformMatroid(l, n),))
    minima = []
    for matroids in cases:
        P = PartitionProblem(matroids)
        family = tight_sets(P)
        ground = frozenset(P.ground.labels)
        if rank_bound_holds(P) is not True or ground not in family:
            with pytest.raises(PreconditionError):
                min_tight_set(P)
            continue
        expected = ground
        for A in family:
            expected &= A
        assert min_tight_set(P) == expected
        minima.append((len(expected), len(ground)))
    # empty, proper and full minima all occur
    assert any(a == 0 for a, _ in minima)
    assert sum(0 < a < n for a, n in minima) >= 8
    assert any(a == n > 0 for a, n in minima)


def test_min_tight_set_forty_elements():
    # 40 rational rows of rank 4, 24 of them on a planted plane; with eight
    # copies and a rank-8 tail the plane is tight (24 = 8 + 8 * 2) and is the
    # minimal tight set, far beyond any subset enumeration
    rng = random.Random(3)
    plane = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
    rows = []
    for i in range(40):
        if i < 24:
            c0, c1 = rng.randint(1, 4), rng.randint(-4, 4)
            v = [c0 * p + c1 * q for p, q in zip(*plane)]
        else:
            v = [rng.randint(-9, 9) for _ in range(4)]
        d = rng.randint(1, 7)
        rows.append([Fraction(x, d) for x in v])
    rng.shuffle(rows)
    M = LinearMatroid(rows)
    assert M.full_rank == 4
    P = PartitionProblem((M,) * 8 + (UniformMatroid(8, 40),))
    minimal = min_tight_set(P)
    assert len(minimal) == 8 + 8 * M.rank(minimal)
    assert len(minimal) == 24 and M.rank(minimal) == 2
    assert minimal == slack_elements(P)


@pytest.fixture
def closures(monkeypatch):
    """Records each exhausted search (``partition._closure``) as (matroids,
    classes, seeds, reached), and checks every row of each batched linear
    question against ``fraction_circuit``, recording the kind of each
    checked row's array."""
    calls, rows = [], []
    real_closure, real_circuits = matpot.partition._closure, LinearMatroid._circuits

    def recording(matroids, classes, seeds):
        seeds = tuple(seeds)
        reached = real_closure(matroids, classes, seeds)
        calls.append((matroids, tuple(classes), seeds, reached))
        return reached

    def checking(self, C, ys):
        labels, dependent, incidence = found = real_circuits(self, C, ys)
        assert incidence.shape == (len(ys), len(C)) and set(labels) == C
        for y, dep, row in zip(ys, dependent, incidence):
            assert (frozenset(compress(labels, row)) | {y} if dep else None) == fraction_circuit(self.rows, C, y)
            rows.append(self._row_array.dtype.kind)
        return found

    monkeypatch.setattr(matpot.partition, "_closure", recording)
    monkeypatch.setattr(LinearMatroid, "_circuits", checking)
    return calls, rows


def _bases_plus(rng, M, m, l):
    """The multiplicities of m random bases of M plus l random labels."""
    mult = [0] * M.ground.n
    for _ in range(m):
        for j in rng.choice(M.bases()):
            mult[j - 1] += 1
    for _ in range(l):
        mult[rng.randrange(M.ground.n)] += 1
    return mult


def test_exhausted_searches_equal_the_per_element_closure(closures):
    # every search in which each class is at its rank bound is answered as
    # one closure from batched circuits; each equals the breadth-first
    # closure that asks one circuit per reached label and class, on partition
    # witnesses, the amin and slack closures and the strong remainder
    # closure, with int64 and exact rows alike (the strong search places
    # m k + l units into classes of that total size, so a unit it cannot
    # place always leaves a class below its bound)
    calls, rows = closures
    rng = random.Random(5252)
    counts = Counter()

    def run(family, query, *args):
        before = len(calls)
        try:
            query(*args)
        except PreconditionError:
            pass
        counts[family] += len(calls) - before

    for _ in range(25):
        n, width = rng.randint(8, 24), rng.randint(2, 5)
        M = _linear_with_repeats(rng, n, width)
        P = PartitionProblem(_with_tail(rng, (M,) * rng.randint(1, 4)))
        run("witness", solve_partition, P)
        # exact rows: the Hadamard bound of 10^6-sized entries passes 2^63
        big = LinearMatroid([tuple(v * rng.randint(10**5, 10**6) for v in row) for row in M.rows])
        run("exact", solve_partition, PartitionProblem(_with_tail(rng, (big,) * rng.randint(1, 4))))
        copies = rng.randint(1, 3)
        tight = PartitionProblem((M,) * copies + (UniformMatroid(max(0, n - copies * M.full_rank), n),))
        run("amin", min_tight_set, tight)
        run("slack", slack_elements, tight)
    for _ in range(25):
        M = _linear_with_repeats(rng, rng.randint(4, 9), rng.randint(2, 3))
        if M.full_rank < M.width:
            continue
        ctx, l = Context(M, rng.randint(1, 3)), rng.randint(1, 2)
        T = ctx.system(_bases_plus(rng, M, ctx.m, l))
        run("remainder", remainder_support, T, l)
    assert min(counts.values()) >= 5 and len(counts) == 5, counts
    for matroids, classes, seeds, reached in calls:
        assert reached == reference_closure(matroids, classes, seeds)
    # both kinds of row array: int64 ('i') and exact Python ints ('O')
    assert set(rows) == {"i", "O"}


def test_rank_deficient_linear_classes_keep_the_breadth_first_search(closures):
    # rows of width 3 and rank 2 never fill a class to the width, so no
    # search is exhausted at the rank bound: each runs breadth-first and
    # still gives the reference answer
    calls, _ = closures
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(6, 16)
        plane = [(a, b, a + b) for a, b in ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n))]
        M = LinearMatroid(plane)
        assert M.full_rank < M.width
        P = PartitionProblem(_with_tail(rng, (M,) * rng.randint(1, 4)))
        assert solve_partition(P) == reference_partition(P)
    assert calls == []
