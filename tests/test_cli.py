import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, groupby
from pathlib import Path

import numpy as np
import pytest

import matpot.arrangements
import matpot.matroids
import matpot.partition
import matpot.systems
from matpot import (
    ArrangementData,
    Context,
    LinearMatroid,
    UniformMatroid,
    __version__,
    critical_points,
    equivalence_report,
    solve_partition,
)
from matpot.cli import main
from matpot.jsonio import dumps_canonical
from oracles import diagonal_diagnostics, euler_count, fraction_circuit, reference_partition


def run_cli(capsys, args, payload=None, tmp_path=None):
    argv = list(args)
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv += ["-i", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_partition_witness_golden(capsys, tmp_path):
    payload = {"ground": 2, "matroids": [{"type": "uniform", "l": 1, "n": 2}]}
    code, out = run_cli(capsys, ["partition"], payload, tmp_path)
    assert code == 0
    assert out == (
        '{"command":"partition","result":{"witness":{"A":[1,2],"bound":1,"size":2}},'
        f'"version":"{__version__}"}}\n'
    )


def test_partition_certificate(capsys, tmp_path):
    payload = {
        "ground": 3,
        "matroids": [
            {"type": "linear", "matrix": [[1, 0], [2, 0], [0, 1]]},
            {"type": "uniform", "l": 1, "n": 3},
        ],
    }
    code, out = run_cli(capsys, ["partition"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["certificate"] == [[1, 3], [2]]


def test_equivalence_component_count(capsys, tmp_path):
    payload = {"matroid": {"type": "uniform", "l": 1, "n": 3}, "m": 2, "T": [2, 1, 1]}
    code, out = run_cli(capsys, ["equivalence"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["component_count"] == 1
    assert len(result["nodes"]) == 3
    # the no-op --strict-order flag is gone: argparse refuses it
    with pytest.raises(SystemExit) as info:
        run_cli(capsys, ["equivalence", "--strict-order"], payload, tmp_path)
    assert info.value.code == 2
    assert "unrecognized arguments: --strict-order" in capsys.readouterr().err


def test_equivalence_beyond_sixteen_labels(capsys, tmp_path):
    payload = {
        "matroid": {"type": "uniform", "l": 1, "n": 17},
        "m": 1,
        "T": [1, 1, 1] + [0] * 14,
    }
    code, out = run_cli(capsys, ["equivalence"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["nodes"]) == 3
    assert len(result["edges"]) == 3
    assert result["component_count"] == 1


def test_equivalence_roadmap_system_golden(capsys, tmp_path):
    rows = [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1], [3, 1]]
    T = [3, 2, 2, 2, 2, 2]
    report = equivalence_report(Context(LinearMatroid(rows), 3).system(T))
    assert len(report.nodes) == 171
    assert len(report.edges) == 1310
    assert report.component_count == 1
    payload = {"matroid": {"type": "linear", "matrix": rows}, "m": 3, "T": T}
    code, out = run_cli(capsys, ["equivalence"], payload, tmp_path)
    assert code == 0
    digest = hashlib.sha256(dumps_canonical(json.loads(out)["result"]).encode()).hexdigest()
    assert digest == "50668fc1aff27c29198b0010e5b4b307e627306b062c28d00e4cddf1765d2c1d"


@pytest.mark.parametrize("bad", [2.7, "2", True])
@pytest.mark.parametrize("command", ["equivalence", "strong-decompose"])
def test_non_integer_multiplicity_is_refused(capsys, tmp_path, command, bad):
    payload = {"matroid": {"type": "uniform", "l": 1, "n": 3}, "m": 2, "T": [bad, 1, 1]}
    if command == "strong-decompose":
        payload["l"] = 2
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "arity",
        "message": "multiplicities must be nonnegative integers",
    }


def test_amin_output(capsys, tmp_path):
    payload = {
        "ground": 3,
        "matroids": [
            {"type": "uniform", "l": 1, "n": 3},
            {"type": "uniform", "l": 1, "n": 3},
            {"type": "uniform", "l": 1, "n": 3},
        ],
    }
    code, out = run_cli(capsys, ["amin"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {
        "agree": True,
        "min_tight_set": [1, 2, 3],
        "slack_elements": [1, 2, 3],
    }


def test_amin_solves_one_partition(capsys, tmp_path, monkeypatch):
    calls = []
    solve = matpot.partition.solve_partition

    def counting(problem, *args, **kwargs):
        calls.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(matpot.partition, "solve_partition", counting)
    u13 = {"type": "uniform", "l": 1, "n": 3}
    payloads = [
        {"ground": 3, "matroids": [u13, u13, u13]},
        _copies_with_tail(_plane_rows(random.Random(1), 12, 9), 3, 3),
    ]
    for payload in payloads:
        calls.clear()
        code, out = run_cli(capsys, ["amin"], payload, tmp_path)
        assert code == 0 and json.loads(out)["result"]["agree"]
        assert len(calls) == 1


def test_amin_refusals(capsys, tmp_path):
    def uniform(l, n):
        return {"type": "uniform", "l": l, "n": n}

    cases = [
        ([uniform(1, 2), {"type": "linear", "matrix": [[1], [1]]}], "the last matroid must be uniform for tight-set queries"),
        ([uniform(1, 3)], "no partition exists; tight-set family is undefined"),
        ([uniform(2, 2), uniform(1, 2)], "the full ground set is not tight"),
    ]
    for matroids, message in cases:
        payload = {"ground": matroids[0]["n"], "matroids": matroids}
        code, out = run_cli(capsys, ["amin"], payload, tmp_path)
        assert code == 2
        assert out == (
            '{"command":"amin","error":{"code":"precondition","message":"%s"},"version":"%s"}\n'
            % (message, __version__)
        )


def test_amin_rank_zero_uniform_part(capsys, tmp_path):
    # a tight ground set whose rank-0 uniform part takes nothing: both sets are empty
    for matroids in ([(2, 2), (0, 2)], [(1, 2), (1, 2), (0, 2)]):
        uniforms = [{"type": "uniform", "l": l, "n": n} for l, n in matroids]
        payload = {"ground": 2, "matroids": uniforms}
        code, out = run_cli(capsys, ["amin"], payload, tmp_path)
        assert code == 0
        assert json.loads(out)["result"] == {"agree": True, "min_tight_set": [], "slack_elements": []}


def test_strong_decompose_both_outcomes(capsys, tmp_path):
    feasible = {
        "matroid": {"type": "uniform", "l": 1, "n": 3},
        "m": 2,
        "l": 1,
        "T": [2, 1, 0],
    }
    code, out = run_cli(capsys, ["strong-decompose"], feasible, tmp_path)
    assert code == 0
    dec = json.loads(out)["result"]["decomposition"]
    assert dec == {"parts": [[1, 0, 0], [1, 0, 0]], "remainder": [0, 1, 0]}

    infeasible = {
        "matroid": {"type": "linear", "matrix": [[1, 0], [2, 0], [0, 1]]},
        "m": 2,
        "l": 0,
        "T": [2, 2, 0],
    }
    code, out = run_cli(capsys, ["strong-decompose"], infeasible, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["decomposition"] is None
    assert result["violation"] == {"B": [1, 2], "bound": 2, "mass": 4}


def test_strong_decompose_solves_one_partition(capsys, tmp_path, monkeypatch):
    calls = []
    solve = matpot.systems.solve_partition

    def counting(problem, *args, **kwargs):
        calls.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(matpot.systems, "solve_partition", counting)
    payload = {
        "matroid": {"type": "linear", "matrix": [[1, 0], [2, 0], [0, 1]]},
        "m": 2,
        "l": 1,
        "T": [3, 1, 1],
    }
    code, out = run_cli(capsys, ["strong-decompose"], payload, tmp_path)
    assert code == 0
    assert json.loads(out)["result"]["decomposition"] is None
    assert len(calls) == 1


def test_matroid_queries(capsys, tmp_path):
    payload = {
        "matroid": {"type": "linear", "matrix": [[1, 0], [0, 1], [1, 1]]},
        "A": [1, 2, 3],
    }
    code, out = run_cli(capsys, ["matroid", "rank"], payload, tmp_path)
    assert code == 0
    assert json.loads(out)["result"] == {"rank": 2}
    code, out = run_cli(capsys, ["matroid", "bases"], payload, tmp_path)
    assert json.loads(out)["result"] == {"bases": [[1, 2], [1, 3], [2, 3]]}


def test_matroid_rank_refuses_a_bool_label(capsys, tmp_path):
    # JSON true sits next to the label 1 it equals; it used to merge into it
    payload = {"matroid": {"type": "linear", "matrix": [[1, 0], [0, 1], [1, 1]]}, "A": [1, True]}
    code, out = run_cli(capsys, ["matroid", "rank"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ground-set"


@pytest.mark.parametrize("uniform", [{"l": True, "n": 3}, {"l": 1, "n": True}, {"l": False, "n": 3}])
def test_uniform_matroid_refuses_a_bool_rank_or_size(capsys, tmp_path, uniform):
    # a JSON true used to pass as the integer 1: "rank" printed true
    matroid = {"type": "uniform", **uniform}
    code, out = run_cli(capsys, ["matroid", "rank"], {"matroid": matroid, "A": [1, 2]}, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"
    code, out = run_cli(capsys, ["partition"], {"ground": 3, "matroids": [matroid, matroid]}, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"


@pytest.mark.parametrize("literal", ["1e3", "0.5", " 1/2 ", "1/-2", "1/0", "1e1000000", "½"])
def test_rational_literal_beyond_the_documented_forms_is_refused(capsys, tmp_path, literal):
    # integers and "p/q" strings only; "1e3" was read as 1000, and
    # "1e1000000" cost a fifth of a second before any matroid was built
    refusal = f"bad rational literal {literal!r}"
    payload = {"matroid": {"type": "linear", "matrix": [[1, 0], [literal, 1]]}, "A": [1, 2]}
    code, out = run_cli(capsys, ["matroid", "rank"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {"code": "schema", "message": refusal}
    for B, a in (([[1], [literal]], [1, 1]), ([[1], [1]], [1, literal])):
        payload = {"B": B, "a": a, "x": [1, -1], "m": 2, "N_max": 5}
        code, out = run_cli(capsys, ["potentials"], payload, tmp_path)
        assert code == 2
        assert json.loads(out)["error"] == {"code": "schema", "message": refusal}


def test_documented_rational_literals_are_read_exactly(capsys, tmp_path):
    # rows 1 and 2 are equal, row 3 is zero
    matrix = [["+7/3", "-2"], ["14/6", -2], ["0", "-0/5"]]
    code, out = run_cli(capsys, ["matroid", "bases"], {"matroid": {"type": "linear", "matrix": matrix}}, tmp_path)
    assert code == 0
    assert json.loads(out)["result"] == {"bases": [[1], [2]]}
    payload = {"matroid": {"type": "linear", "matrix": matrix}, "A": [1, 2, 3]}
    code, out = run_cli(capsys, ["matroid", "rank"], payload, tmp_path)
    assert code == 0
    assert json.loads(out)["result"] == {"rank": 1}


def test_potentials_fixture(capsys, tmp_path):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2, "N_max": 5}
    code, out = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 1
    assert result["spread_max"] <= 1e-6
    assert result["Q"]["2,0"] == [-0.25, 0.0]
    assert result["L"]["3,0"][0] == pytest.approx(-1.0 / 12.0, abs=1e-9)
    # every key parses back to a multiplicity vector of the right length
    for key in list(result["Q"]) + list(result["L"]):
        assert len(key.split(",")) == 2


def test_verify_arrangement_evaluates_the_basepoint_frame_once(capsys, tmp_path, monkeypatch):
    # the basepoint sample of the axiom report and the pairing condition read
    # the structure's one degree-1 frame jet at the basepoint
    basepoint = []
    real = matpot.arrangements.ArrangementData.frame_jet

    def counting(self, z, space):
        basepoint.append(np.array_equal(z, self.basepoint))
        return real(self, z, space)

    monkeypatch.setattr(matpot.arrangements.ArrangementData, "frame_jet", counting)
    payload = {"B": [[1], [2], [1]], "a": [1, 2, 3], "x": [0.3, -1.1, 0.9], "m": 2}
    code, out = run_cli(capsys, ["verify-arrangement"], payload, tmp_path)
    assert code == 0
    assert basepoint.count(True) == 1
    assert json.loads(out)["result"]["pairing_condition"] >= 1.0


def test_verify_arrangement(capsys, tmp_path):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2}
    code, out = run_cli(capsys, ["verify-arrangement"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 1
    assert result["report"]["max_violation"] <= 1e-7
    assert result["x_field_residual"] <= 1e-10
    assert result["pairing_unit"][0] == pytest.approx(-0.5, abs=1e-10)
    assert result["generation_rank"] == 1
    assert result["bases"] == [[1], [2]]


def test_verify_arrangement_leaves_numpy_random_unimported():
    # importing numpy.random costs about 6 MB of resident memory; the sample
    # points are a fixed golden-angle sequence around the basepoint
    script = (
        "import io, sys\n"
        "from matpot.cli import main\n"
        "sys.stdin = io.StringIO(sys.argv[1])\n"
        "assert main(['verify-arrangement']) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = Path(matpot.arrangements.__file__).parents[1]
    for payload in (
        {"B": [[1], [2], [1]], "a": [1, 2, 3], "x": [0.3, -1.1, 0.9], "m": 2},
        {"B": [[1, 0], [0, 1], [1, 1], [1, -1]], "a": [1, 2, 1, 1], "x": [0.3, -0.5, 0.9, 1.4], "m": 2},
    ):
        subprocess.run(
            [sys.executable, "-c", script, json.dumps(payload)],
            check=True, timeout=60, capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
        )


def test_sample_points_stay_in_the_box_around_the_basepoint():
    from matpot.cli import _sample_points

    data = ArrangementData([[1, 0], [0, 1], [1, 1], [1, -1]], [1, 2, 1, 1], [0.3, -0.5j, 0.9, 1.4])
    structure = matpot.structure_from_arrangement(data, 2)
    points = _sample_points(structure)
    half = 0.05 * (1.0 + structure.scale())
    assert len(points) == 3 and np.array_equal(points[0], structure.basepoint)
    offsets = np.array(points[1:]) - structure.basepoint
    assert np.abs(offsets).max() <= half and np.abs(offsets).min() > 0
    assert np.array_equal(offsets.imag, np.zeros_like(offsets.imag))
    assert len({tuple(o) for o in offsets}) == 2


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
@pytest.mark.parametrize("m", [1, 3])
def test_arrangement_order_other_than_two_is_refused(capsys, tmp_path, command, m):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": m}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


def test_output_is_byte_identical(capsys, tmp_path):
    payload = {"matroid": {"type": "uniform", "l": 1, "n": 3}, "m": 2, "T": [2, 1, 1]}
    _, first = run_cli(capsys, ["equivalence"], payload, tmp_path)
    _, second = run_cli(capsys, ["equivalence"], payload, tmp_path)
    assert first == second


def test_output_round_trips(capsys, tmp_path):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2}
    _, out = run_cli(capsys, ["verify-arrangement"], payload, tmp_path)
    assert json.loads(out) == json.loads(out)


def test_schema_error_exit_code(capsys, tmp_path):
    code, out = run_cli(capsys, ["partition"], {"matroids": []}, tmp_path)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "schema"


def test_domain_error_exit_code(capsys, tmp_path):
    payload = {
        "ground": 3,
        "matroids": [{"type": "uniform", "l": 1, "n": 3}],
    }
    code, out = run_cli(capsys, ["partition", "--bound", "2"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "size-limit"


def test_bad_json_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["partition", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"


# the ROADMAP item-5 reproducer: its candidates agree to about 1e-13, so it
# passes at the default tolerance and fails with well-definedness at 0
_SPREAD_REPRODUCER = {
    "B": [[1], [1], [2], [2], [1]],
    "a": [2, 4, 1, 3, 1],
    "x": [0.688, -1.435, -1.47, 0.752, -0.422],
    "m": 2,
    "N_max": 6,
}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_flag_must_be_finite_and_nonnegative(capsys, tmp_path, tol):
    code, out = run_cli(capsys, ["potentials", "--tol", tol], _SPREAD_REPRODUCER, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"
    code, out = run_cli(capsys, ["potentials"], _SPREAD_REPRODUCER, tmp_path)
    assert code == 0
    assert 0 < json.loads(out)["result"]["spread_max"] <= 1e-10
    code, out = run_cli(capsys, ["potentials", "--tol", "0"], _SPREAD_REPRODUCER, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "well-definedness"


def test_real_input_prints_real_coefficients(capsys, tmp_path):
    # real B, a and x: the eigen solve takes a real eig, so no imaginary
    # roundoff reaches the tables
    payload = {"B": [[1], [2], [1], [3]], "a": [1, 2, 3, 1], "x": [0.3, -1.1, 0.9, -0.2], "m": 2, "N_max": 5}
    code, out = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    values = list(result["Q"].values()) + list(result["L"].values())
    assert values and all(v[1] == 0 for v in values)


@pytest.mark.parametrize(
    "payload",
    [{"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2, "N_max": 5}, _SPREAD_REPRODUCER],
)
def test_potentials_continue_no_fiber(capsys, tmp_path, fiber_solves, payload):
    # both tables read jets at the basepoint, whose fiber the structure owns:
    # no fiber is solved beyond the basepoint
    code, _ = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 0
    assert fiber_solves == [True]


def test_bool_n_max_is_a_schema_error(capsys, tmp_path):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2, "N_max": True}
    code, out = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"


def test_n_max_flag_is_a_usage_error(capsys, tmp_path):
    # the truncation order is the input's N_max alone; the flag that
    # duplicated it is an unrecognized argument
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2}
    with pytest.raises(SystemExit) as info:
        run_cli(capsys, ["potentials", "--n-max", "5"], payload, tmp_path)
    assert info.value.code == 2
    assert "unrecognized arguments: --n-max 5" in capsys.readouterr().err


def test_n_max_above_the_size_limit_fails_at_once(capsys, tmp_path):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2, "N_max": 25}
    code, out = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "size-limit"


@pytest.mark.parametrize(
    "command,step",
    [("verify-arrangement", "0"), ("verify-arrangement", "nan"), ("potentials", "0")],
)
def test_h_step_must_be_finite_and_positive(capsys, tmp_path, command, step):
    # at --h-step 0 the 0/0 differences used to report integrability,
    # section_flatness and form_flatness as 0 on this instance; the step is
    # now always the default one, so neither subcommand takes --h-step
    payload = {"B": [[1], [1], [2], [-1]], "a": [1, 2, 3, 5], "x": [1, -1, 3, 2], "m": 2}
    with pytest.raises(SystemExit) as info:
        run_cli(capsys, [command, "--h-step", step], payload, tmp_path)
    assert info.value.code == 2
    assert "unrecognized arguments: --h-step" in capsys.readouterr().err


def test_output_to_file(tmp_path, capsys):
    payload = {"ground": 2, "matroids": [{"type": "uniform", "l": 1, "n": 2}]}
    in_path = tmp_path / "in.json"
    in_path.write_text(json.dumps(payload))
    out_path = tmp_path / "out.json"
    code = main(["partition", "-i", str(in_path), "-o", str(out_path)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["result"]["witness"]["A"] == [1, 2]
    assert data["version"] == __version__


def _planted_rows(rng, n, width, sub_rank, share):
    """Rational rows: about ``share`` of them in a random rank-``sub_rank``
    subspace, some parallel to an earlier row, the rest generic."""
    basis = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(sub_rank)]
    rows = []
    for _ in range(n):
        u = rng.random()
        if u < share:
            cs = [rng.randint(-3, 3) for _ in basis]
            v = [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(width)]
        elif u < share + 0.15 and rows:
            q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
            v = [x * q for x in rng.choice(rows)]
        else:
            v = [rng.randint(-9, 9) for _ in range(width)]
        d = rng.randint(1, 7)
        rows.append([Fraction(x) / d for x in v])
    return [[str(x) for x in row] for row in rows]


def _copies_with_tail(rows, copies, tail):
    n = len(rows)
    linear = {"type": "linear", "matrix": rows}
    tail = {"type": "uniform", "l": tail, "n": n}
    return {"ground": n, "matroids": [linear] * copies + [tail]}


def _result_digest(out):
    return hashlib.sha256(dumps_canonical(json.loads(out)["result"]).encode()).hexdigest()


def test_partition_golden_large(capsys, tmp_path):
    # 64 rows of rank 6 with a planted rank-2 flat, ten copies plus a
    # uniform tail: the search needs long exchange chains to finish.
    payload = _copies_with_tail(_planted_rows(random.Random(5), 64, 6, 2, 0.3), 10, 4)
    code, out = run_cli(capsys, ["partition"], payload, tmp_path)
    assert code == 0
    assert "certificate" in json.loads(out)["result"]
    assert _result_digest(out) == "1c3014f99a6f693f1c34e72c7109b5a61bd156695fbbafbadff830c3b4013472"


def test_partition_golden_large_eliminates_each_class_once(capsys, tmp_path, monkeypatch):
    # circuit queries build one reduced form per (matroid, class), each one
    # pivot step from the form of the class less one element when that is
    # cached: 50 steps for 50 classes here, 10 of them from the empty form;
    # one elimination per query made 430, and asking the classes at their
    # rank bound before a class took the element directly grew 60
    grown = []
    real = LinearMatroid._grow

    def counting(self, labels, form, y):
        grown.append((id(self), frozenset(labels) | {y}))
        return real(self, labels, form, y)

    monkeypatch.setattr(LinearMatroid, "_grow", counting)
    payload = _copies_with_tail(_planted_rows(random.Random(5), 64, 6, 2, 0.3), 10, 4)
    code, out = run_cli(capsys, ["partition"], payload, tmp_path)
    assert code == 0
    assert _result_digest(out) == "1c3014f99a6f693f1c34e72c7109b5a61bd156695fbbafbadff830c3b4013472"
    assert len(grown) == len(set(grown)) == 50
    assert sum(len(C) == 1 for _, C in grown) == 10


def test_planted_partition_asks_a_full_class_only_for_exchange_circuits(monkeypatch):
    # a class as large as its matroid's rank is a basis and cannot take the
    # element: the search asks it for its circuit only when no class takes
    # the element directly.  66 linear circuit questions and 50 grown forms
    # here; asking every class in turn took 370 and 60, with the same
    # certificate
    from matpot.cli import _problem_from_json

    payload = _copies_with_tail(_planted_rows(random.Random(5), 64, 6, 2, 0.3), 10, 4)
    problem = _problem_from_json(payload)
    expected = reference_partition(_problem_from_json(payload))
    ranks = {M: M.full_rank for M in problem.matroids}
    asked, grown = [], []
    real_grow = LinearMatroid._grow

    def recording(real):
        def circuit(self, C, y):
            found = real(self, C, y)
            asked.append((type(self), len(C) == ranks[self], y, found))
            return found

        return circuit

    def growing(self, labels, form, y):
        grown.append((id(self), frozenset(labels) | {y}))
        return real_grow(self, labels, form, y)

    for cls in (LinearMatroid, UniformMatroid):
        monkeypatch.setattr(cls, "_circuit", recording(cls._circuit))
    monkeypatch.setattr(LinearMatroid, "_grow", growing)
    assert solve_partition(problem) == expected
    assert sum(kind is LinearMatroid for kind, *_ in asked) == 66
    assert len(grown) == len(set(grown)) == 50
    # the questions about one dequeued element are consecutive; where a
    # class took it directly, none went to a basis
    runs = [list(run) for _, run in groupby(asked, key=lambda a: a[2])]
    taken = [run for run in runs if any(found is None for *_, found in run)]
    assert len(taken) >= 64 and not any(full for run in taken for _, full, _, _ in run)


@pytest.mark.parametrize("seed, copies, tail", [(5, 10, 4), (6, 9, 8)])
def test_planted_partition_circuits_match_fraction_solves(capsys, tmp_path, circuit_queries, seed, copies, tail):
    # 64 planted rows of rank 6: every circuit the search asks, and every
    # None, against one Fraction solve of lambda R_C = r_y; a certificate's
    # search places most elements directly, so amin's closure, which asks
    # the full classes of its partition, supplies the circuits there
    payload = _copies_with_tail(_planted_rows(random.Random(seed), 64, 6, 2, 0.3), copies, tail)
    code, out = run_cli(capsys, ["partition"], payload, tmp_path)
    assert code == 0
    if "certificate" in json.loads(out)["result"]:
        code, out = run_cli(capsys, ["amin"], payload, tmp_path)
        assert code == 0
    answers = list(circuit_queries.values())
    assert sum(a is None for a in answers) > 50 and sum(a is not None for a in answers) > 50
    for (M, C, y), found in circuit_queries.items():
        assert found == fraction_circuit(M.rows, C, y)


def test_equal_matroid_entries_share_one_instance(capsys, tmp_path, monkeypatch):
    # the ten equal linear entries are one LinearMatroid, so their rank,
    # independence and echelon caches fill once: the eliminations are the
    # independence checks of the certificate's ten classes, and each class
    # of the search gets its reduced form by one pivot step
    from matpot.cli import _problem_from_json

    payload = _copies_with_tail(_planted_rows(random.Random(5), 64, 6, 2, 0.3), 10, 4)
    matroids = _problem_from_json(payload).matroids
    assert all(M is matroids[0] for M in matroids[:10]) and matroids[10] is not matroids[0]
    calls, grown = [], []
    original, real_grow = matpot.matroids._eliminate, LinearMatroid._grow

    def counting(rows, width, reduced=False):
        calls.append(len(rows))
        return original(rows, width, reduced)

    def growing(self, labels, form, y):
        grown.append((id(self), frozenset(labels) | {y}))
        return real_grow(self, labels, form, y)

    monkeypatch.setattr(matpot.matroids, "_eliminate", counting)
    monkeypatch.setattr(LinearMatroid, "_grow", growing)
    code, out = run_cli(capsys, ["partition"], payload, tmp_path)
    assert code == 0
    assert _result_digest(out) == "1c3014f99a6f693f1c34e72c7109b5a61bd156695fbbafbadff830c3b4013472"
    assert len(calls) <= 10
    assert len(grown) == len(set(grown)) <= 60


def test_each_distinct_partition_entry_is_parsed_once(capsys, tmp_path, monkeypatch):
    # ten equal entries build one LinearMatroid; the same matrix in other
    # "p/q" words is a second entry text, built once and merged into the
    # first instance by equality; a copy carrying a float or a JSON true
    # beside its exact twin is still refused
    from matpot.cli import _problem_from_json

    rows = _planted_rows(random.Random(5), 64, 6, 2, 0.3)
    doubled = [[f"{2 * Fraction(x).numerator}/{2 * Fraction(x).denominator}" for x in row] for row in rows]
    payload = _copies_with_tail(rows, 10, 4)
    payload["matroids"][3:3] = [{"type": "linear", "matrix": doubled}] * 2
    built = []
    real_init = LinearMatroid.__init__

    def counting(self, matrix):
        built.append(len(matrix))
        real_init(self, matrix)

    monkeypatch.setattr(LinearMatroid, "__init__", counting)
    matroids = _problem_from_json(payload).matroids
    assert built == [64, 64]
    assert len(matroids) == 13 and all(M is matroids[0] for M in matroids[:12])
    code, out = run_cli(capsys, ["partition"], payload, tmp_path)
    assert code == 0 and "certificate" in json.loads(out)["result"]
    exact = [[1, 0], [0, 1], [1, 1]]
    for odd, message in [(1.0, "matrix entries must be exact, got 1.0"),
                         (True, "matrix entries must be integers or 'p/q' strings")]:
        twin = [[odd, 0], [0, 1], [1, 1]]
        payload = {"ground": 3, "matroids": [{"type": "linear", "matrix": m} for m in (exact, exact, twin)]}
        code, out = run_cli(capsys, ["partition"], payload, tmp_path)
        assert code == 2
        assert json.loads(out)["error"] == {"code": "schema", "message": message}


def _plane_rows(rng, n, on_plane):
    """n rational rows of width 3, the first ``on_plane`` of them (before the
    shuffle) on a random plane."""
    plane = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)]
    rows = []
    for i in range(n):
        if i < on_plane:
            c0, c1 = rng.randint(1, 4), rng.randint(-4, 4)
            v = [c0 * p + c1 * q for p, q in zip(*plane)]
        else:
            v = [rng.randint(-9, 9) for _ in range(3)]
        d = rng.randint(1, 7)
        rows.append([str(Fraction(x, d)) for x in v])
    rng.shuffle(rows)
    return rows


def test_amin_golden_planted_plane(capsys, tmp_path):
    # nine of twelve rows span a plane, so with three copies and a rank-3
    # tail the plane is the minimal tight set
    rows = _plane_rows(random.Random(1), 12, 9)
    code, out = run_cli(capsys, ["amin"], _copies_with_tail(rows, 3, 3), tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["min_tight_set"]) == 9 and result["agree"]
    assert _result_digest(out) == "19c186673cf3a026d3c9c72517d3a74d4de8a535fef4784d07bf27f5601d9560"


def test_amin_beyond_twenty_labels(capsys, tmp_path):
    # 18 of 24 rows on a plane; six copies and a rank-6 tail make the plane
    # tight (18 = 6 + 6 * 2), so it is the minimal tight set
    rows = _plane_rows(random.Random(2), 24, 18)
    code, out = run_cli(capsys, ["amin"], _copies_with_tail(rows, 6, 6), tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["min_tight_set"]) == 18 and result["agree"]


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_coincident_k1_hyperplanes_are_near_discriminant(capsys, tmp_path, command):
    # hyperplanes 3 and 4 coincide over x, so H(x) is not finite: refused
    # before any Newton point can be accepted and blamed on flatness
    payload = {"B": [["1/3"], [-1], [1], [1]], "a": [-1, 1, 3, -2], "x": [0.5, -1, 2, 2], "m": 2, "N_max": 5}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "near-discriminant",
        "message": "hyperplanes 3, 4 pass through one point (f_S = 0)",
    }


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_k1_hyperplanes_coincident_up_to_roundoff_are_near_discriminant(capsys, tmp_path, command):
    # rows 1 and 3 give one hyperplane over x (4/3 * 0.047 = 2/3 * 0.094),
    # but c_S . x = -5.6e-17 in floats: within roundoff of 0, so f_S = 0 is
    # named, where a finite but huge H once sent Newton to infinity
    payload = {"B": [["4/3"], [-2], ["2/3"], [2]], "a": ["3/2", -3, "1/2", -1],
               "x": [0.094, -1.886, 0.047, 1.79], "m": 2, "N_max": 5}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "near-discriminant",
        "message": "hyperplanes 1, 3 pass through one point (f_S = 0)",
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
@pytest.mark.parametrize("x, error", [
    # c_S . x overflows: refused as such, not read as f_S = 0
    ([1e308, -1e308], {"code": "precondition",
                       "message": "f_S of hyperplanes 1, 2 overflows: the point is too large to evaluate"}),
    # f_S = 1e307 is finite and its roundoff bound is too; the Hessian
    # -sum a / f^2 underflows at the critical point
    ([1e308, 9e307], {"code": "near-discriminant", "message": "degenerate Hessian during Newton refinement"}),
])
def test_huge_basepoints_get_a_structured_refusal_without_warnings(capsys, tmp_path, command, x, error):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": x, "m": 2}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == error


_DIVERGED_K2 = {
    "B": [[-1, -1], [0, 1], [0, 1], [2, 3], [1, 2], [-3, -3]],
    "a": [2, 3, 3, 3, 3, 1],
    "x": [[-0.1, 0.2], [1.8, 0.1], [0.3, -0.2], [-1.6, 0.2], [1.6, 0.2], 0.8],
    "m": 2,
}


def test_verify_arrangement_k2_drops_diverged_seed(capsys, tmp_path):
    # a diverging Newton seed used to enter this fiber as a NaN row and
    # break the SVD with an internal error; every point is finite now
    code, out = run_cli(capsys, ["verify-arrangement"], _DIVERGED_K2, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 8
    assert result["report"]["max_violation"] <= 1e-6


def test_verify_arrangement_k1_samples_need_no_tracking(capsys, tmp_path, fiber_solves):
    # nearest-point tracking from the basepoint lost this fiber's points
    # (continuation error) although every sample fiber is off the
    # discriminant; sample fibers are solved afresh instead, once each
    payload = {
        "B": [[3], [2], [-2], ["-1/2"], [1], ["1/3"]],
        "a": [1, -1, 1, -2, 2, 1],
        "x": [0.95, -0.27, 1.34, 2.51, -0.06, 2.75],
        "m": 2,
    }
    code, out = run_cli(capsys, ["verify-arrangement"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 5
    assert result["report"]["max_violation"] <= 1e-8
    assert fiber_solves == [True, False, False]


def test_verify_arrangement_diagnostics_match_the_diagonal_frame(capsys, tmp_path, all_families):
    # the three diagnostics read the basepoint fiber and the flat basis; a
    # diagonal-frame evaluation from a fresh solve agrees on every tier-1
    # arrangement structure and on the rank-2 instance
    datas = list(all_families)
    x = [complex(*v) if isinstance(v, list) else v for v in _DIVERGED_K2["x"]]
    datas.append(ArrangementData(_DIVERGED_K2["B"], _DIVERGED_K2["a"], x))
    for data in datas:
        payload = {
            "B": [[str(v) for v in row] for row in data.matrix],
            "a": [str(w) for w in data.weights],
            "x": [[z.real, z.imag] for z in data.basepoint.tolist()],
            "m": 2,
        }
        code, out = run_cli(capsys, ["verify-arrangement"], payload, tmp_path)
        assert code == 0
        result = json.loads(out)["result"]
        residual, rank, unit = diagonal_diagnostics(data, data.basepoint)
        assert abs(result["x_field_residual"] - residual) <= 1e-12
        assert result["x_field_residual"] == critical_points(data, data.basepoint).residuals.max()
        assert result["generation_rank"] == rank == result["mu"]
        assert abs(complex(*result["pairing_unit"]) - unit) <= 1e-12 * abs(unit)


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
@pytest.mark.parametrize(
    "B, a, x",
    [
        ([[-1], [2], [1]], [-2, 2, -2], [-1, 2, -1]),
        ([[1], [-1], [-2], [1], [1]], [3, 1, -1, 1, 3], [3, -1, 2, -1, 2]),
    ],
)
def test_k1_root_on_a_hyperplane_is_named(capsys, tmp_path, command, B, a, x):
    # the hyperplanes of rows i and j coincide over x (b_i x_j = b_j x_i):
    # the refusal names both, before any candidate is taken
    i, j = next((i, j) for i, j in combinations(range(len(B)), 2) if B[i][0] * x[j] == B[j][0] * x[i])
    code, out = run_cli(capsys, [command], {"B": B, "a": a, "x": x, "m": 2}, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "near-discriminant",
        "message": f"hyperplanes {i + 1}, {j + 1} pass through one point (f_S = 0)",
    }


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_k1_double_critical_point_is_near_discriminant(capsys, tmp_path, command):
    # x_3 = e^{i pi / 3} makes the fiber polynomial a square: both roots
    # converge to one double point, and the basepoint fiber is refused
    payload = {"B": [[1], [1], [1]], "a": [1, 1, 1], "x": [0, 1, [0.5, 0.8660254037844386]], "m": 2}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {"code": "near-discriminant", "message": "critical points collide"}


_SHORT_K2 = {"B": [[-1, 1], [2, -1], [-1, -1], [-1, -3]], "a": [4, "1/2", "3/2", 2],
             "x": [0.84, -1.874, -0.989, 1.064], "m": 2}


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_short_k2_fiber_is_answered(capsys, tmp_path, command):
    # a seed cloud found 2 of the 3 points the matroid predicts at the
    # basepoint, and both commands refused; the eigen solve finds all 3
    code, out = run_cli(capsys, [command], _SHORT_K2, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 3
    if command == "potentials":
        assert result["spread_max"] <= 1e-10
    else:
        assert result["report"]["max_violation"] <= 1e-6


_COUNT_ONE_K2 = {"B": [[2, "-1/3"], [3, -2], ["1/2", "1/2"]], "a": [4, "1/2", -1],
                 "x": [0.743, -1.779, [-1.011, -0.349]], "m": 2}


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_count_one_k2_fiber_is_answered(capsys, tmp_path, command):
    # n = k + 1: the one critical point has a closed form, which a seed
    # cloud never reached, and both commands used to refuse with "found 0
    # critical points, expected 1"; the eigen solve finds it
    code, out = run_cli(capsys, [command], _COUNT_ONE_K2, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 1
    if command == "potentials":
        assert result["spread_max"] <= 1e-10
    else:
        assert result["report"]["max_violation"] <= 1e-6
        assert result["generation_rank"] == 1


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
@pytest.mark.parametrize(
    "B, x",
    [
        ([[1], [1]], [float("nan"), -1]),
        ([[1], [1]], [1, float("inf")]),
        ([[1, 0], [0, 1], [1, 1], [1, -1]], [0.3, [-0.5, -float("inf")], 0.9, float("nan")]),
    ],
)
def test_non_finite_basepoint_is_a_ground_set_error(capsys, tmp_path, command, B, x):
    # JSON NaN and Infinity used to reach the fiber solve: an internal
    # LinAlgError at rank 1, a short fiber at rank 2
    payload = {"B": B, "a": [1] * len(B), "x": x, "m": 2}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {"code": "ground-set", "message": "basepoint coordinates must be finite"}


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_hyperplanes_through_one_point_are_near_discriminant(capsys, tmp_path, command):
    # lines 1, 2, 3 meet at the origin over x; the fiber used to come out short
    payload = {"B": [[1, 0], [0, 1], [1, 1], [1, -1]], "a": [1, 2, 1, 1], "x": [0, 0, 0, 0.3], "m": 2}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "near-discriminant",
        "message": "hyperplanes 1, 2, 3 pass through one point (f_S = 0)",
    }


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_near_balanced_k1_fiber_is_answered(capsys, tmp_path, command):
    # sum a = 1/200 puts the one critical point at t = 399, twice the box
    # 100 (1 + max|pole|) around the poles +-1; the box is drawn around the
    # roots themselves, so both commands answer
    payload = {"B": [[1], [1]], "a": [1, "-199/200"], "x": [1, -1], "m": 2, "N_max": 5}
    code, out = run_cli(capsys, [command], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 1
    if command == "potentials":
        assert result["spread_max"] <= 1e-10
    else:
        assert result["report"]["max_violation"] <= 1e-6


@pytest.mark.parametrize("command", ["potentials", "verify-arrangement"])
def test_allow_k_ge_2_is_a_usage_error(capsys, tmp_path, command):
    # rank 2 needs no flag, so the old one is an unrecognized argument
    with pytest.raises(SystemExit) as info:
        run_cli(capsys, [command, "--allow-k-ge-2"], _SHORT_K2, tmp_path)
    assert info.value.code == 2
    assert "unrecognized arguments: --allow-k-ge-2" in capsys.readouterr().err


def _draw_k2_payload(rng):
    """A rank-2 arrangement input: n in 4-6, entries of B in -3..3 and 1/3,
    weights in 1/2..4, real basepoint."""
    n = rng.randint(4, 6)
    while True:
        B = [[rng.choice([-3, -2, -1, 0, 1, 2, 3, "1/3"]) for _ in range(2)] for _ in range(n)]
        rows = [[Fraction(v) for v in r] for r in B]
        if any(p[0] * q[1] != p[1] * q[0] for i, p in enumerate(rows) for q in rows[i + 1:]):
            break
    a = [rng.choice(["1/2", 1, "3/2", 2, 3, 4]) for _ in range(n)]
    x = [round(rng.uniform(-2, 2), 3) for _ in range(n)]
    return {"B": B, "a": a, "x": x, "m": 2}


def test_k2_sweep_slice_gets_full_count_or_near_discriminant(capsys, tmp_path):
    # no rank-2 input exits 0 with fewer points than the matroid's count
    rng = random.Random(4242)
    outcomes = []
    for _ in range(30):
        payload = _draw_k2_payload(rng)
        code, out = run_cli(capsys, ["verify-arrangement"], payload, tmp_path)
        envelope = json.loads(out)
        if code == 0:
            count = euler_count(LinearMatroid([[Fraction(v) for v in r] for r in payload["B"]]), 2)
            assert envelope["result"]["mu"] == count
            outcomes.append("ok")
        else:
            assert (code, envelope["error"]["code"]) == (2, "near-discriminant")
            outcomes.append("near")
    assert outcomes.count("ok") >= 25
