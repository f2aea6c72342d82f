import hashlib
import json
import random
from fractions import Fraction

import pytest

import matpot.partition
import matpot.systems
from matpot import Context, LinearMatroid, __version__, equivalence_report
from matpot.cli import main
from matpot.jsonio import dumps_canonical


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
    code2, out2 = run_cli(capsys, ["equivalence", "--strict-order"], payload, tmp_path)
    assert code2 == 0
    assert json.loads(out2)["result"] == result


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
        # a tight ground set, but a rank-0 uniform part has no slack elements
        ([uniform(1, 2), uniform(1, 2), uniform(0, 2)], "slack elements need a uniform part of rank >= 1"),
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


def test_tolerance_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MATPOT_TOL", "not-a-number")
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2, "N_max": 3}
    code, out = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"
    monkeypatch.setenv("MATPOT_TOL", "1e-5")
    code, _ = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 0


# the ROADMAP item-5 reproducer: at the default tolerance it fails with
# well-definedness, so a tolerance that lets it through is a false pass
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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_tolerance_env_must_be_finite_and_nonnegative(capsys, tmp_path, monkeypatch, tol):
    monkeypatch.setenv("MATPOT_TOL", tol)
    code, out = run_cli(capsys, ["potentials"], _SPREAD_REPRODUCER, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"
    monkeypatch.delenv("MATPOT_TOL")
    code, out = run_cli(capsys, ["potentials"], _SPREAD_REPRODUCER, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "well-definedness"


def test_bool_n_max_is_a_schema_error(capsys, tmp_path):
    payload = {"B": [[1], [1]], "a": [1, 1], "x": [1, -1], "m": 2, "N_max": True}
    code, out = run_cli(capsys, ["potentials"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "schema"


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
    # section_flatness and form_flatness as 0 on this instance
    payload = {"B": [[1], [1], [2], [-1]], "a": [1, 2, 3, 5], "x": [1, -1, 3, 2], "m": 2}
    code, out = run_cli(capsys, [command, "--h-step", step], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


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


def test_verify_arrangement_k2_drops_diverged_seed(capsys, tmp_path):
    # one seed of the rank-2 cloud diverges; it used to enter the frame as a
    # NaN row and break the SVD with an internal error
    payload = {
        "B": [[-1, -1], [0, 1], [0, 1], [2, 3], [1, 2], [-3, -3]],
        "a": [2, 3, 3, 3, 3, 1],
        "x": [[-0.1, 0.2], [1.8, 0.1], [0.3, -0.2], [-1.6, 0.2], [1.6, 0.2], 0.8],
        "m": 2,
    }
    code, out = run_cli(capsys, ["verify-arrangement", "--allow-k-ge-2"], payload, tmp_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 8
    assert result["report"]["max_violation"] <= 1e-6
