"""First-order perturbation expansions of singular triplets.

Given a dense matrix X and an additive perturbation E, the package
computes the corrected first-order expansion of a selected singular
triplet, certifies empirically that its residuals shrink at second order
in the perturbation size, and demonstrates that each of the cataloged
defects of the defective printed form of those expansions degrades the
accuracy to first order (or cannot even be formed dimensionally).
"""

from .convergence import (
    FLOOR_TOL,
    MATCH_TOL,
    ConvergenceReport,
    ResidualSample,
    align_sign,
    convergence_ladder,
    convergence_ladders,
    fit_loglog_slope,
    fit_report,
    residuals_at,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    GapTooSmall,
    IndexOutOfRange,
    InsufficientSamples,
    InvalidDims,
    ParseError,
    RankDeficient,
    SingularSystem,
    TripletMatchAmbiguous,
    UnsupportedFormat,
    ZeroVector,
)
from .linalg import (
    Svd,
    as_matrix,
    frobenius_norm,
    qr_orthonormal,
    svd,
)
from .mmio import read_matrix, write_matrix, write_report_csv
from .perturbation import (
    CATALOG,
    GAP_TOL,
    CorrectionCoefficients,
    Defect,
    FormulaVariant,
    Projections,
    SvdPartition,
    TripletExpansion,
    compute_projections,
    expand_matrix,
    expand_triplet,
    partition_svd,
    shape_audit_as_printed,
    solve_coupled_system,
    tall_problem,
    transpose_dual_expansion,
    triplet_gap,
    variant_coefficients,
)
from .randmat import (
    SpectrumSpec,
    SplitMix64,
    matrix_with_spectrum,
    perturbation_direction,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "ConvergenceFailure",
    "ConvergenceReport",
    "CorrectionCoefficients",
    "Defect",
    "DimensionMismatch",
    "FLOOR_TOL",
    "FormulaVariant",
    "GAP_TOL",
    "GapTooSmall",
    "IndexOutOfRange",
    "InsufficientSamples",
    "InvalidDims",
    "MATCH_TOL",
    "ParseError",
    "Projections",
    "RankDeficient",
    "ResidualSample",
    "SingularSystem",
    "SpectrumSpec",
    "SplitMix64",
    "Svd",
    "SvdPartition",
    "TripletExpansion",
    "TripletMatchAmbiguous",
    "UnsupportedFormat",
    "ZeroVector",
    "align_sign",
    "as_matrix",
    "compute_projections",
    "convergence_ladder",
    "convergence_ladders",
    "expand_matrix",
    "expand_triplet",
    "fit_loglog_slope",
    "fit_report",
    "frobenius_norm",
    "matrix_with_spectrum",
    "partition_svd",
    "perturbation_direction",
    "qr_orthonormal",
    "read_matrix",
    "residuals_at",
    "shape_audit_as_printed",
    "solve_coupled_system",
    "svd",
    "tall_problem",
    "transpose_dual_expansion",
    "triplet_gap",
    "variant_coefficients",
    "write_matrix",
    "write_report_csv",
]
