"""Exception hierarchy with stable error codes.

Every error the library raises on bad input or failed numerics derives from
MatpotError and carries a short machine-readable ``code`` used by the CLI to
build structured error output.  InternalError is reserved for states that a
correct implementation over honest oracles can never reach; the CLI maps it
to exit code 1 instead of 2.

The conversions below decide, for the whole package, what counts as each
kind of argument value: an integer (``integer``), an exact entry of a matrix
or weight vector (``rational``), a stack of points (``points``) and a
tolerance (``tolerance``).  Each call site names the error class and message
of its refusal, so the CLI and the library refuse a value alike.
"""

import cmath
import math
import operator
import re
from fractions import Fraction
from numbers import Complex, Real

import numpy as np


class MatpotError(Exception):
    code = "error"


class GroundSetError(MatpotError):
    """A label lies outside the ground set, or a ground set is malformed."""

    code = "ground-set"


class SizeLimitError(MatpotError):
    """An enumeration bound was exceeded."""

    code = "size-limit"


class ArityError(MatpotError):
    """A system's total multiplicity does not match the required m*k + l."""

    code = "arity"


class PreconditionError(MatpotError):
    """A documented hypothesis of the operation does not hold."""

    code = "precondition"


class InvalidMatroidError(MatpotError):
    """An independence oracle was caught violating the matroid axioms."""

    code = "invalid-matroid"


class RankError(MatpotError):
    """A matrix does not have the full column rank an arrangement requires."""

    code = "rank"


class DiscriminantError(MatpotError):
    """Critical-point data degenerates: the parameter is too close to the
    discriminant (coincident, degenerate, or on-hyperplane critical points)."""

    code = "near-discriminant"


class StructureError(MatpotError):
    """A supplied structure violates the flat-frame axioms beyond tolerance."""

    code = "structure-invalid"


class FlatnessError(StructureError):
    """A quantity that must be constant across the base varies beyond tolerance."""

    code = "flatness"


class WellDefinednessError(StructureError):
    """Coefficient candidates from different good decompositions disagree."""

    code = "well-definedness"


class SchemaError(MatpotError):
    """CLI input does not match the documented JSON schema."""

    code = "schema"


class InternalError(MatpotError):
    """A mathematically impossible state; treated as a bug signal."""

    code = "internal"


def integer(value, least, error, message) -> int:
    """``value`` as an int: an int or a numpy integer, not a bool, of at
    least ``least`` (None: no bound); otherwise ``error(message.format(value))``."""
    try:
        number = value if type(value) is int else None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or least is not None and number < least:
        raise error(message.format(value))
    return number


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(value, error, inexact: bool = False) -> Fraction | None:
    """``value`` as an exact Fraction: a Fraction, an int or a numpy integer
    (not a bool), or a string "n" or "p/q" of decimal digits (an optional
    sign, q nonzero), matched before ``Fraction`` can spend time on it, so a
    decimal point, an exponent or whitespace is refused.  With ``inexact``,
    a finite float or complex number gives None.  Otherwise ``error`` with
    the CLI's messages for a matrix entry."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise error("matrix entries must be integers or 'p/q' strings")
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):  # q = 0, or past int's digit limit
                pass
        raise error(f"bad rational literal {value!r}")
    try:
        return Fraction(operator.index(value))
    except TypeError:
        if inexact and isinstance(value, Complex) and cmath.isfinite(value):
            return None
    raise error(f"matrix entries must be exact, got {value!r}")


def points(values, n: int) -> np.ndarray:
    """``values`` as an (S, n) complex array, one point of n finite
    coordinates per row; an empty sequence is the stack of S = 0.  A
    numeric ndarray is read as it is; anything else is read entry by entry,
    and every entry must be a number (an int, float, complex, Fraction or
    numpy number) and not a bool.  Otherwise GroundSetError: "basepoint
    must have n coordinates" for another shape, "basepoint coordinates must
    be finite" for an entry that is not a finite number (NaN, an infinity,
    an integer beyond double range, a bool, a string)."""
    try:
        array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    except ValueError:  # sequences nested unevenly: no shape of points
        array = np.empty(())
    if array.shape == (0,):
        array = array.reshape(0, n)
    if array.ndim != 2 or array.shape[1] != n:
        raise GroundSetError(f"basepoint must have {n} coordinates")
    finite = array.dtype.kind in "iufc" or all(
        type(v) in (float, int, complex) or isinstance(v, Complex) and not isinstance(v, bool) for v in array.flat
    )
    try:
        array = array.astype(complex, copy=False) if finite else array
    except OverflowError:
        finite = False
    if not (finite and np.isfinite(array).all()):
        raise GroundSetError("basepoint coordinates must be finite")
    return array


def tolerance(value, error, message, infinite: bool = False) -> float:
    """``value`` as a float: a real number (an int, a float, a Fraction or a
    numpy real), not a bool, that is >= 0 and finite, or +inf with
    ``infinite``; otherwise ``error(message.format(value))``."""
    try:
        number = float(value) if isinstance(value, Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        number = math.nan
    if not (number >= 0 and (infinite or number < math.inf)):
        raise error(message.format(value))
    return number
