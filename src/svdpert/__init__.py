"""First-order perturbation expansions of singular triplets.

Given a dense matrix X and an additive perturbation E, the package
computes the corrected first-order expansion of a selected singular
triplet, certifies empirically that its residuals shrink at second order
in the perturbation size, and demonstrates that each of the cataloged
defects of the defective printed form of those expansions degrades the
accuracy to first order (or cannot even be formed dimensionally).
"""

import types as _types

from .convergence import (
    FLOOR_TOL,
    ORDER_SEPARATION,
    R2_GATE,
    ConvergenceReport,
    ErrataRow,
    MetricFit,
    ResidualSample,
    align_sign,
    convergence_ladder,
    convergence_ladders,
    errata_rows,
    fit_loglog_slope,
    fit_report,
    residuals_at,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    FitUnreliable,
    GapTooSmall,
    IndexOutOfRange,
    InsufficientSamples,
    InvalidDims,
    NotDemonstrable,
    ParseError,
    RankDeficient,
    SingularSystem,
    SpectrumOverflow,
    SvdpertError,
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

# every public name imported above, so that each export is named once
__all__ = sorted(name for name, value in globals().items() if not
                 name.startswith("_") and not isinstance(value, _types.ModuleType))
