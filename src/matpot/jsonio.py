"""JSON schemas and a canonical serializer.

Matroids travel as {"type": "linear", "matrix": [[...]]} with exact entries
(integers or "p/q" strings) or {"type": "uniform", "l": ..., "n": ...}.
Subsets are sorted 1-based integer arrays, systems are multiplicity vectors,
complex numbers are [re, im] pairs.  ``dumps_canonical`` renders with sorted
keys and 17-significant-digit floats so identical inputs always produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import GroundSetError, SchemaError, rational
from .matroids import LinearMatroid, Matroid, UniformMatroid


def dumps_canonical(obj) -> str:
    pieces: list[str] = []
    _render(obj, pieces)
    return "".join(pieces)


def _render(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise SchemaError("cannot serialize non-finite float")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, complex):
        _render([obj.real, obj.imag], out)
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise SchemaError("JSON object keys must be strings")
            if idx:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise SchemaError(f"cannot serialize {type(obj).__name__}")


def parse_matrix(obj: dict, key: str, what: str) -> list[list[Fraction]]:
    """The exact rows of ``obj[key]``: a nonempty array of arrays of exact
    literals (``errors.rational``).  Anything else, a row that is a number,
    null or a string of digits among them, is a SchemaError."""
    matrix = obj.get(key)
    if not isinstance(matrix, list) or not matrix:
        raise SchemaError(f'{what} needs a nonempty "{key}"')
    for i, row in enumerate(matrix, 1):
        if not isinstance(row, list):
            raise SchemaError(f'{what}: row {i} of "{key}" is not an array')
    return [[rational(v, SchemaError) for v in row] for row in matrix]


def matroid_from_json(obj) -> Matroid:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError('matroid JSON needs a "type" field')
    kind = obj["type"]
    if kind == "linear":
        return LinearMatroid(parse_matrix(obj, "matrix", "linear matroid"))
    if kind == "uniform":
        return UniformMatroid(require(obj, "l", int, "uniform matroid"), require(obj, "n", int, "uniform matroid"))
    raise SchemaError(f"unknown matroid type {kind!r}")


def subset_to_json(subset) -> list[int]:
    return sorted(subset)


def complex_to_json(value) -> list[float]:
    c = complex(value)
    return [c.real, c.imag]


def parse_complex(value) -> complex:
    """A basepoint coordinate: a JSON number or an [re, im] pair of numbers.
    An integer beyond double range gets the refusal that JSON ``Infinity``
    gets, a GroundSetError."""
    if isinstance(value, bool):
        raise SchemaError("expected a number or [re, im] pair")
    if isinstance(value, (int, float)):
        parts = (value,)
    elif isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        parts = value
    else:
        raise SchemaError(f"expected a number or [re, im] pair, got {value!r}")
    try:
        return complex(*parts)
    except OverflowError:
        raise GroundSetError("basepoint coordinates must be finite") from None


def mult_key(mult) -> str:
    return ",".join(str(int(v)) for v in mult)


def require(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise SchemaError(f"{what}: missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise SchemaError(f"{what}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise SchemaError(f"{what}: field {key!r} has wrong type")
    return value
