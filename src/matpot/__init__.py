"""matpot: matroid partition, decomposition equivalence, and potentials of
flat-frame structures backed by weighted hyperplane arrangements.

The combinatorial layer (matroids, partition, systems) is exact; the analytic
layer (frobenius, arrangements, series) is numerical, and every structural
claim is verified from Taylor jets (truncated power series) of the frame.
"""

__version__ = "0.1.0"

from .arrangements import (
    ArrangementData,
    CriticalPointFrame,
    critical_points,
    structure_from_arrangement,
    vector_matroid,
)
from .errors import (
    ArityError,
    DiscriminantError,
    FlatnessError,
    GroundSetError,
    InternalError,
    InvalidMatroidError,
    MatpotError,
    PreconditionError,
    RankError,
    SchemaError,
    SizeLimitError,
    StructureError,
    WellDefinednessError,
)
# no package module uses findiff; it is imported because bench/tracer.py::install
# reads sys.modules["matpot.findiff"] without a default
from . import findiff  # noqa: F401
from .frobenius import (
    AxiomReport,
    FlatFrameStructure,
    HomogeneousPolynomial,
    TruncatedPotential,
    check_first_kind,
    check_second_kind,
    first_kind_polynomial,
    second_kind_truncation,
    verify_axioms,
)
from .matroids import GroundSet, LinearMatroid, Matroid, UniformMatroid
from .partition import (
    DeficiencyWitness,
    PartitionCertificate,
    PartitionProblem,
    min_tight_set,
    slack_elements,
    solve_partition,
)
from .systems import (
    Context,
    DescentMove,
    EquivalenceReport,
    GoodDecomposition,
    StrongDecomposition,
    System,
    SystemBoundViolation,
    all_good_decompositions,
    descent_move,
    equivalence_report,
    find_strong_decomposition,
    is_base,
    l1_distance,
    remainder_support,
    strong_deficiency_witness,
)
