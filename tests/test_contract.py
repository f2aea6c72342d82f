"""The Python API's argument contract (docs/schemas.md, "Python API
arguments"): every public callable, given a bad value at any value
position, returns a result or raises a MatpotError other than
InternalError; only a constructor may raise TypeError, for an object of the
wrong kind.  The values come from the CLI harness's mutation pool plus
True, NaN and Fraction(1, 2), one or two leaves of each call's value
arguments at a time, with fixed seeds; no case may accept a bool or a NaN.
"""

import copy
import math
import random
import signal
from fractions import Fraction

import pytest

import matpot
from matpot import (
    ArrangementData,
    Context,
    FlatFrameStructure,
    GroundSet,
    InternalError,
    LinearMatroid,
    MatpotError,
    Matroid,
    PartitionProblem,
    PreconditionError,
    System,
    UniformMatroid,
    all_good_decompositions,
    check_first_kind,
    check_second_kind,
    critical_points,
    descent_move,
    equivalence_report,
    find_strong_decomposition,
    first_kind_polynomial,
    is_base,
    l1_distance,
    min_tight_set,
    remainder_support,
    second_kind_truncation,
    slack_elements,
    solve_partition,
    strong_deficiency_witness,
    structure_from_arrangement,
    vector_matroid,
    verify_axioms,
)
from matpot.series import SeriesSpace
from test_cli import MUTATION_POOL, _CaseTimeout, _leaf_paths

POOL = MUTATION_POOL + [True, math.nan, Fraction(1, 2)]

#: records the library returns: they hold what it computed and check nothing
RECORDS = {
    "AxiomReport", "CriticalPointFrame", "DeficiencyWitness", "DescentMove", "EquivalenceReport",
    "GoodDecomposition", "HomogeneousPolynomial", "PartitionCertificate", "StrongDecomposition",
    "SystemBoundViolation", "TruncatedPotential",
}


def _cases():
    """name -> (callable, fixed object arguments, value arguments); the
    leaves of the value arguments are what the pool replaces."""
    M = LinearMatroid([[1, 0], [0, 1], [1, 1]])
    ctx = Context(M, 1)
    T = ctx.system([2, 1, 1])
    nodes = equivalence_report(T).nodes
    problem = PartitionProblem((UniformMatroid(1, 3), UniformMatroid(2, 3)))
    data = ArrangementData([(1,), (1,)], (1, 1), (1, -1))
    F = structure_from_arrangement(data, 2)
    Q, L = first_kind_polynomial(F), second_kind_truncation(F, 4)
    x = [1.0, -1.0]
    return {
        "GroundSet": (GroundSet, {}, {"n": 3}),
        "Matroid": (Matroid, {"ground": GroundSet(3)}, {}),
        "UniformMatroid": (UniformMatroid, {}, {"l": 1, "n": 3}),
        "LinearMatroid": (LinearMatroid, {}, {"rows": [[1, 0], [0, 1], ["1/2", 1]]}),
        "vector_matroid": (vector_matroid, {}, {"matrix": [[1, 0], [0, 1], [Fraction(1, 3), 1]]}),
        "Matroid.rank": (M.rank, {}, {"subset": [1, 3]}),
        "Matroid.circuit": (M.circuit, {}, {"clazz": [1, 2], "y": 3}),
        "Context": (Context, {"matroid": M}, {"m": 2}),
        "Context.system": (ctx.system, {}, {"mult": [2, 1, 1]}),
        "Context.unit": (ctx.unit, {}, {"j": 2}),
        "System": (System, {"ctx": ctx}, {"mult": [1, 0, 1]}),
        "is_base": (is_base, {"T": ctx.system([1, 1, 0])}, {}),
        "l1_distance": (l1_distance, {"S": T, "T": ctx.system([1, 1, 2])}, {}),
        "find_strong_decomposition": (find_strong_decomposition, {"T": T}, {"l": 2}),
        "strong_deficiency_witness": (strong_deficiency_witness, {"T": T}, {"l": 2}),
        "remainder_support": (remainder_support, {"T": T}, {"l": 2}),
        "all_good_decompositions": (all_good_decompositions, {"T": T}, {"max_total": 24}),
        "equivalence_report": (equivalence_report, {"T": T}, {"max_total": 24}),
        "descent_move": (descent_move, {"dT": nodes[0], "dS": nodes[-1]}, {}),
        "PartitionProblem": (PartitionProblem, {}, {"matroids": [M, M]}),
        "solve_partition": (solve_partition, {"problem": problem}, {"max_size": 64}),
        "min_tight_set": (min_tight_set, {"problem": problem}, {}),
        "slack_elements": (slack_elements, {"problem": problem}, {}),
        "ArrangementData": (ArrangementData, {}, {"matrix": [[1], ["1/2"]], "weights": [1, 0.5], "basepoint": x}),
        "ArrangementData.higgs": (data.higgs, {}, {"z": [0.5, -1.0]}),
        "ArrangementData.frame_jet": (data.frame_jet, {"space": SeriesSpace(2, 1)}, {"zs": [x, [0.5, -1.0]]}),
        "critical_points": (critical_points, {"data": data}, {"z": [0.5, -1.0]}),
        "structure_from_arrangement": (structure_from_arrangement, {"data": data}, {"m": 2}),
        "FlatFrameStructure": (FlatFrameStructure, {"matroid": F.matroid, "jet": F.jet, "frame_jet": F.frame_jet},
                               {"m": 2, "basepoint": x, "mu": 1}),
        "verify_axioms": (verify_axioms, {"structure": F}, {"samples": [x, [1.01, -1.0]], "hard_threshold": 1e-3}),
        "first_kind_polynomial": (first_kind_polynomial, {"F": F}, {}),
        "second_kind_truncation": (second_kind_truncation, {"F": F}, {"n_max": 4, "spread_tol": 1e-6}),
        "check_first_kind": (check_first_kind, {"F": F, "Q": Q}, {}),
        "check_second_kind": (check_second_kind, {"F": F, "L": L}, {}),
        "HomogeneousPolynomial.coefficient": (Q.coefficient, {}, {"mult": [2, 0]}),
        "HomogeneousPolynomial.partial_derivative_value": (
            Q.partial_derivative_value, {}, {"alpha": [1, 0], "z": [0.5, -1.0]}),
        "HomogeneousPolynomial.evaluate": (Q.evaluate, {}, {"z": [0.5, -1.0]}),
        "TruncatedPotential.coefficient": (L.coefficient, {}, {"mult": [3, 0]}),
        "TruncatedPotential.derivative_at_basepoint": (L.derivative_at_basepoint, {}, {"alpha": [2, 1]}),
        "TruncatedPotential.evaluate": (L.evaluate, {}, {"z": [1.1, -1.0]}),
    }


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_every_public_callable_has_a_case_or_is_a_record(cases):
    public = {
        name for name in dir(matpot)
        if not name.startswith("_") and callable(obj := getattr(matpot, name))
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert public - RECORDS <= {name.split(".")[0] for name in cases}
    assert not RECORDS - public


def _call(case, values):
    function, fixed, _ = case
    try:
        function(**fixed, **values)
    except MatpotError as exc:
        assert not isinstance(exc, InternalError), exc
        return "refused"
    except TypeError:
        if not isinstance(function, type):
            raise
        return "wrong kind"
    return "result"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a polynomial at z = 2**64 overflows to inf
@pytest.mark.parametrize("seed", range(4))
def test_bad_values_get_a_result_or_a_structured_error(cases, seed):
    # 30 mutations of each case per seed, each under a 3 s alarm: a result,
    # a MatpotError other than InternalError, or a TypeError from a
    # constructor; and never a result for a bool or a NaN
    rng = random.Random(seed)

    def timeout(signum, frame):
        raise _CaseTimeout

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        for name, case in cases.items():
            values = case[2]
            assert _call(case, copy.deepcopy(values)) == "result", name
            paths = _leaf_paths(values)
            for _ in range(30 if paths else 0):
                mutated = copy.deepcopy(values)
                placed = {}
                for _ in range(rng.randint(1, 2)):
                    path = rng.choice(paths)
                    node = mutated
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = placed[path] = copy.deepcopy(rng.choice(POOL))
                signal.alarm(3)
                try:
                    outcome = _call(case, mutated)
                except _CaseTimeout:
                    pytest.fail(f"{name} ran past 3 s on {mutated!r}")
                finally:
                    signal.alarm(0)
                accepted_bad = any(isinstance(v, bool) or isinstance(v, float) and math.isnan(v) for v in placed.values())
                assert not (outcome == "result" and accepted_bad), (name, mutated)
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad", [None, "2", [], True, 1.5])
def test_size_bounds_must_be_integers(bad):
    # a TypeError from the size comparison before; the bench passes ints
    problem = PartitionProblem((UniformMatroid(1, 2),) * 2)
    with pytest.raises(PreconditionError, match="max_size must be an integer"):
        solve_partition(problem, max_size=bad)
    T = Context(UniformMatroid(1, 3), 2).system([2, 1, 1])
    for enumeration in (all_good_decompositions, equivalence_report):
        with pytest.raises(PreconditionError, match="max_total must be an integer"):
            enumeration(T, max_total=bad)


@pytest.mark.parametrize("bad", [1.5, "M", None, UniformMatroid])
def test_partition_problem_takes_matroids_only(bad):
    # an AttributeError at the first search before, not at construction
    with pytest.raises(TypeError, match="Matroid instances"):
        PartitionProblem((UniformMatroid(1, 2), bad))
