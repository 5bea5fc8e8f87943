"""residualtrace: exact residue data, fiber traces, and their inversions.

The package represents a residue current by a pair of polynomials (P, r),
P monic in one fiber variable, and provides exact trace sequences, Hankel
and recurrence reconstruction from traces, a rationality test for
series-sampled traces, and the transform to line coordinates with its
closedness identities.  Numeric code appears only in oracles that
cross-check the exact paths.

`residualtrace.radon`, `residualtrace.reconstruct` and `residualtrace.traces`
name the functions exported below, which shadow the submodules of the same
name; `importlib.import_module("residualtrace.traces")` reaches a module.
"""

from .algebra import (
    FracMatrix,
    MPoly,
    RatFunc,
    determinant,
    exact_div,
    poly_gcd,
    poly_gcd_fiber,
    solve_linear,
)
from .currents import (
    ResidualCurrent,
    WeightedPoints,
    ZeroCurrent,
    from_weighted_points,
    support_discriminant,
    validate,
)
from .errors import (
    ContinuationError,
    DegreeDetectionError,
    DomainError,
    SchemaError,
    SingularSystemError,
)
from .radon import (
    LineChart,
    RadonForm,
    assemble_radon_form,
    closed_potential,
    closedness_check,
    is_radon_zero,
    line_chart,
    pencil_projection,
    radon,
)
from .reconstruct import (
    ReconstructionReport,
    SeriesSample,
    continue_current,
    detect_degree,
    detect_rational,
    reconstruct,
    sample_series,
)
from .residues import (
    RationalForm1D,
    contour_oracle,
    oracle_report,
    pointwise_residues,
    residue_sum,
)
from .traces import TraceSequence, hankel, recurrence_check, traces

__version__ = "0.1.0"

__all__ = [
    "ContinuationError",
    "DegreeDetectionError",
    "DomainError",
    "FracMatrix",
    "LineChart",
    "MPoly",
    "RadonForm",
    "RatFunc",
    "RationalForm1D",
    "ReconstructionReport",
    "ResidualCurrent",
    "SchemaError",
    "SeriesSample",
    "SingularSystemError",
    "TraceSequence",
    "WeightedPoints",
    "ZeroCurrent",
    "assemble_radon_form",
    "closed_potential",
    "closedness_check",
    "continue_current",
    "contour_oracle",
    "detect_degree",
    "detect_rational",
    "determinant",
    "exact_div",
    "from_weighted_points",
    "hankel",
    "is_radon_zero",
    "line_chart",
    "oracle_report",
    "pencil_projection",
    "pointwise_residues",
    "poly_gcd",
    "poly_gcd_fiber",
    "radon",
    "reconstruct",
    "recurrence_check",
    "residue_sum",
    "sample_series",
    "solve_linear",
    "support_discriminant",
    "traces",
    "validate",
]
