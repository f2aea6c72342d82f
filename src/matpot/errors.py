"""Exception hierarchy with stable error codes.

Every error the library raises on bad input or failed numerics derives from
MatpotError and carries a short machine-readable ``code`` used by the CLI to
build structured error output.  InternalError is reserved for states that a
correct implementation over honest oracles can never reach; the CLI maps it
to exit code 1 instead of 2.
"""


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
