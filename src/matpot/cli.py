"""Command-line interface: JSON in, canonical JSON out.

Subcommands: matroid rank|bases, partition, amin, equivalence,
strong-decompose, potentials, verify-arrangement.  Results are wrapped in an
envelope {"version", "command", "result"}; domain errors produce
{"version", "command", "error": {"code", "message"}} with exit code 2, and
internal errors exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .arrangements import ArrangementData, structure_from_arrangement
from .errors import InternalError, MatpotError, SchemaError, integer, rational, tolerance
from .frobenius import first_kind_polynomial, second_kind_truncation, verify_axioms
from .jsonio import (
    complex_to_json,
    dumps_canonical,
    matroid_from_json,
    mult_key,
    parse_complex,
    parse_matrix,
    require,
    subset_to_json,
)
from .partition import (
    MAX_SIZE,
    DeficiencyWitness,
    PartitionProblem,
    min_tight_set,
    solve_partition,
)
from .systems import (
    MAX_TOTAL,
    Context,
    equivalence_report,
    find_strong_decomposition,
    strong_deficiency_witness,
)


def _load_input(args) -> dict:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("input must be a JSON object")
    return obj


def _problem_from_json(obj) -> PartitionProblem:
    n = require(obj, "ground", int, "partition problem")
    raw = require(obj, "matroids", list, "partition problem")
    if not raw:
        raise SchemaError("partition problem: need at least one matroid")
    # each distinct entry is parsed once, keyed by its JSON text (which keeps
    # 1, 1.0 and true apart, so a refused entry is refused as before), and
    # equal matroids share one instance and its caches
    matroids, parsed, instances = [], {}, {}
    for item in raw:
        key = json.dumps(item, sort_keys=True)
        M = parsed.get(key)
        if M is None:
            M = matroid_from_json(item)
            if M.ground.n != n:
                raise SchemaError(
                    f"matroid ground size {M.ground.n} does not match ground {n}"
                )
            M = parsed[key] = instances.setdefault(M, M)
        matroids.append(M)
    return PartitionProblem(matroids=tuple(matroids))


def _cmd_matroid(args) -> dict:
    obj = _load_input(args)
    M = matroid_from_json(require(obj, "matroid", dict, "matroid query"))
    if args.query == "rank":
        A = require(obj, "A", list, "matroid query")
        return {"rank": M.rank(A)}
    return {"bases": [subset_to_json(B) for B in M.bases()]}


def _cmd_partition(args) -> dict:
    problem = _problem_from_json(_load_input(args))
    result = solve_partition(problem, max_size=args.bound)
    if isinstance(result, DeficiencyWitness):
        return {
            "witness": {
                "A": subset_to_json(result.A),
                "size": result.size,
                "bound": result.bound,
            }
        }
    return {"certificate": [subset_to_json(part) for part in result.parts]}


def _cmd_amin(args) -> dict:
    problem = _problem_from_json(_load_input(args))
    minimal = subset_to_json(min_tight_set(problem))
    return {"min_tight_set": minimal, "slack_elements": minimal, "agree": True}


def _cmd_equivalence(args) -> dict:
    obj = _load_input(args)
    matroid = matroid_from_json(require(obj, "matroid", dict, "equivalence query"))
    m = require(obj, "m", int, "equivalence query")
    T = require(obj, "T", list, "equivalence query")
    ctx = Context(matroid, m)
    report = equivalence_report(ctx.system(T), max_total=args.bound)
    return {
        "nodes": [
            {"T1": list(d.T1.mult), "T2": list(d.T2.mult)} for d in report.nodes
        ],
        "edges": [list(e) for e in report.edges],
        "components": [list(c) for c in report.components],
        "component_count": report.component_count,
    }


def _cmd_strong_decompose(args) -> dict:
    obj = _load_input(args)
    matroid = matroid_from_json(require(obj, "matroid", dict, "strong-decompose"))
    m = require(obj, "m", int, "strong-decompose")
    l = require(obj, "l", int, "strong-decompose")
    T = require(obj, "T", list, "strong-decompose")
    ctx = Context(matroid, m)
    system = ctx.system(T)
    dec = find_strong_decomposition(system, l)
    if dec is None:
        violation = strong_deficiency_witness(system, l)
        return {
            "decomposition": None,
            "violation": {
                "B": subset_to_json(violation.B),
                "mass": violation.mass,
                "bound": violation.bound,
            },
        }
    return {
        "decomposition": {
            "parts": [list(p.mult) for p in dec.parts],
            "remainder": list(dec.remainder.mult),
        }
    }


def _arrangement_from_json(obj) -> tuple[ArrangementData, int]:
    matrix = parse_matrix(obj, "B", "arrangement")
    weights = [rational(v, SchemaError) for v in require(obj, "a", list, "arrangement")]
    x = [parse_complex(v) for v in require(obj, "x", list, "arrangement")]
    m = require(obj, "m", int, "arrangement")
    return ArrangementData(matrix, weights, x), m


def _cmd_potentials(args) -> dict:
    obj = _load_input(args)
    data, m = _arrangement_from_json(obj)
    structure = structure_from_arrangement(data, m)
    ctx = structure.context()
    n_max = integer(obj.get("N_max", ctx.m * ctx.k + 3), None, SchemaError, "N_max must be an integer")
    Q = first_kind_polynomial(structure)
    L = second_kind_truncation(structure, n_max, spread_tol=args.tol)
    return {
        "mu": structure.mu,
        "Q": {mult_key(T): c for T, c in Q.coefficients.items()},
        "L": {mult_key(T): c for T, c in L.coefficients.items()},
        "spread_max": L.spread_max,
    }


def _sample_points(structure, count: int = 3):
    """The basepoint and count - 1 points offset by a golden-angle sequence
    inside the box of half-width 0.05 (1 + scale) around it."""
    x = structure.basepoint
    scale = 0.05 * (1.0 + structure.scale())
    steps = np.arange(1, (count - 1) * structure.n + 1).reshape(count - 1, structure.n)
    return [x, *(x + scale * np.cos(2.39996 * steps))]


def _cmd_verify_arrangement(args) -> dict:
    obj = _load_input(args)
    data, m = _arrangement_from_json(obj)
    structure = structure_from_arrangement(data, m)
    report = verify_axioms(structure, _sample_points(structure), hard_threshold=None)
    # each diagnostic as the family computed it: Newton residuals, the rank
    # the flat basis certifies, and S(unit, unit) = sum_s 1 / det Hess
    return {
        "mu": structure.mu,
        "bases": [subset_to_json(B) for B in structure.matroid.bases()],
        "report": report.as_dict(),
        "x_field_residual": float(np.max(data.base_frame.residuals)),
        "generation_rank": len(data.flat_basis),
        "pairing_unit": complex_to_json(np.sum(1.0 / data.base_frame.det_hess)),
        "pairing_condition": float(np.linalg.cond(structure.basepoint_frame[2][..., 0])),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matpot",
        description="Matroid partition, decomposition equivalence, and potentials "
        "of arrangement-backed flat-frame structures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-i", "--input", default="-", help="input JSON path (default stdin)")
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    p = sub.add_parser("matroid", help="rank and base queries on one matroid")
    p.add_argument("query", choices=["rank", "bases"])
    common(p)
    p.set_defaults(handler=_cmd_matroid)

    p = sub.add_parser("partition", help="partition the ground set across matroids")
    common(p)
    p.add_argument("--bound", type=int, default=MAX_SIZE, help="max ground-set size")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("amin", help="minimal tight set and slack elements")
    common(p)
    p.set_defaults(handler=_cmd_amin)

    p = sub.add_parser("equivalence", help="good-decomposition equivalence graph")
    common(p)
    p.add_argument("--bound", type=int, default=MAX_TOTAL, help="max system size for enumeration")
    p.set_defaults(handler=_cmd_equivalence)

    p = sub.add_parser("strong-decompose", help="strong decomposition of a system")
    common(p)
    p.set_defaults(handler=_cmd_strong_decompose)

    p = sub.add_parser("potentials", help="first- and second-kind potential tables")
    common(p)
    p.add_argument("--tol", type=float, default=1e-6, help="spread tolerance (default 1e-6)")
    p.set_defaults(handler=_cmd_potentials)

    p = sub.add_parser("verify-arrangement", help="axiom report for an arrangement structure")
    common(p)
    p.set_defaults(handler=_cmd_verify_arrangement)

    return parser


def _emit(args, payload: dict) -> None:
    text = dumps_canonical(payload) + "\n"
    if getattr(args, "output", "-") and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    envelope = {"version": __version__, "command": args.command}
    try:
        if hasattr(args, "tol"):
            args.tol = tolerance(args.tol, SchemaError, "the spread tolerance must be a finite number >= 0, got {!r}")
        envelope["result"] = args.handler(args)
    except InternalError as exc:
        envelope["error"] = {"code": exc.code, "message": str(exc)}
        _emit(args, envelope)
        return 1
    except MatpotError as exc:
        envelope["error"] = {"code": exc.code, "message": str(exc)}
        _emit(args, envelope)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        envelope["error"] = {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}
        _emit(args, envelope)
        return 1
    _emit(args, envelope)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
