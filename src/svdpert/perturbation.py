"""First-order perturbation of a selected singular triplet.

Let X = U diag(S) V^T be the thin SVD of an n x p (n >= p) matrix with a
selected triplet (sigma1, u1, v1) separated from the rest of the spectrum,
and split the bases around it: U = (u1, U2), V = (v1, V2), Sigma2 = the
remaining singular values.  An additive perturbation E moves the triplet,
to first order in E, to

    u~ = u1 + U2 g2 + g3,   v~ = v1 + V2 h2,   sigma~ = sigma1 + theta1,

where the coefficients solve the coupled pair

    sigma1 g2 - Sigma2 h2 = f21,      sigma1 h2 - Sigma2 g2 = f12,

with projected data

    phi1 = u1^T E v1,   f12 = V2^T E^T u1,   f21 = U2^T E v1,
    f31 = (I - Up Up^T) E v1,   Up = (u1, U2).

f31 is the part of E v1 outside the span of the left singular vectors:
the term the classic form writes as U3 U3^T E v1 for a complement basis
U3, computed here through the projector so that no basis is needed.
Eliminating g2 = (f21 + Sigma2 h2) / sigma1 gives the closed forms

    h2 = (sigma1^2 I - Sigma2^2)^-1 (sigma1 f12 + Sigma2 f21)
    g2 = (sigma1^2 I - Sigma2^2)^-1 (sigma1 f21 + Sigma2 f12)

together with g3 = f31 / sigma1 (an n-vector) and theta1 = phi1.
Expansion vectors are deliberately not renormalized: u~ is the perturbed
vector in the affine chart whose u1-coordinate equals 1, and its norm
error is second order.

Besides the corrected formulas, the module implements deliberately
defective variants that reproduce classic transcription mistakes: flipping
the sign of the cross terms in both numerators (sigma1 f21 - Sigma2 f12,
sigma1 f12 - Sigma2 f21) and dropping the complement contribution g3
from u~.  Each defect degrades the affected vector from second- to
first-order accuracy, which the convergence module measures; the related
dimension audit exposes the two transpose slips (V2 where V2^T belongs)
that cannot even be formed as matrix products.
"""

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    GapTooSmall,
    IndexOutOfRange,
    InvalidDims,
    SingularSystem,
)
from .linalg import Svd, as_matrix, svd

# Relative spectral-separation tolerance: a triplet closer than this to any
# other singular value (sigma_max-relative) is rejected.
GAP_TOL = 1e-8


class FormulaVariant(Enum):
    """Which form of the first-order expansion to assemble.

    CORRECTED is the true expansion; the others reproduce specific defects:
    SIGN_FLIPPED negates the cross terms of both closed-form numerators,
    U3_OMITTED drops the complement term g3 from u~, and BOTH_DEFECTS
    combines the two.
    """

    CORRECTED = "corrected"
    SIGN_FLIPPED = "sign-flipped"
    U3_OMITTED = "u3-omitted"
    BOTH_DEFECTS = "both-defects"

    @property
    def flips_cross_sign(self) -> bool:
        return self in (FormulaVariant.SIGN_FLIPPED, FormulaVariant.BOTH_DEFECTS)

    @property
    def omits_complement(self) -> bool:
        return self in (FormulaVariant.U3_OMITTED, FormulaVariant.BOTH_DEFECTS)


@dataclass(frozen=True)
class SvdPartition:
    """A thin SVD split around the selected triplet (1-based index k).

    u1/v1/sigma1 are the selected triplet; U2/V2/Sigma2 hold the other p-1
    triplets in descending order.
    """

    k: int
    sigma1: float
    u1: np.ndarray
    v1: np.ndarray
    Sigma2: np.ndarray
    U2: np.ndarray
    V2: np.ndarray

    @property
    def n(self) -> int:
        return self.u1.shape[0]

    @property
    def p(self) -> int:
        return self.v1.shape[0]

    @property
    def has_complement(self) -> bool:
        """Whether (u1, U2) leaves part of R^n uncovered: n > p, or a column
        of U2 is zero because its singular value is exactly 0."""
        return self.n > self.p or not self.Sigma2.all()


@dataclass(frozen=True)
class Projections:
    """E projected onto the partition's bases (the data the corrections
    are built from).  f31 is the n-vector (I - Up Up^T) E v1, all zero when
    the partition has no complement.  All fields vanish when E = 0."""

    phi1: float
    f12: np.ndarray
    f21: np.ndarray
    f31: np.ndarray


@dataclass(frozen=True)
class CorrectionCoefficients:
    """First-order coefficients of the triplet expansion; g3 = f31 / sigma1
    is an n-vector."""

    g2: np.ndarray
    g3: np.ndarray
    h2: np.ndarray
    theta1: float


@dataclass(frozen=True)
class TripletExpansion:
    """Assembled first-order prediction for the perturbed triplet, with the
    projections and coefficients it was built from (those belong to the
    taller-or-square orientation, also when u~ and v~ were swapped back)."""

    u_tilde: np.ndarray
    v_tilde: np.ndarray
    sigma_tilde: float
    variant: FormulaVariant
    projections: Projections
    coefficients: CorrectionCoefficients


@dataclass(frozen=True)
class ShapeFinding:
    """One dimensionally inconsistent term of the defective printed form."""

    errata_item: int
    kind: str
    term: str
    expected_dims: str
    printed_dims: str


@dataclass(frozen=True)
class ShapeAuditReport:
    """Outcome of the symbolic dimension audit for given (n, p)."""

    n: int
    p: int
    findings: tuple


class Defect(NamedTuple):
    """One row of the defect catalog of the defective printed expansion.

    Numeric evidence (metric, variant): the variant's fitted order of the
    metric drops below the corrected one.  Symbolic evidence (kind, term
    and the expected/printed dims templates over n, p, m = p - 1 and
    c = n - p): the shape audit's finding.
    """

    item: int
    formula: str
    defect: str
    metric: str = ""
    variant: FormulaVariant | None = None
    kind: str = ""
    term: str = ""
    expected: str = ""
    printed: str = ""

    def applies(self, n: int, p: int) -> bool:
        """False for a defect in the left complement when n == p (empty)."""
        return n > p or not (self.variant and self.variant.omits_complement)


# The sign defects are dimensionally silent, the transpose slips cannot be
# formed at all, and the dropped complement shows both ways.
CATALOG = (
    Defect(1, "u_tilde", "sign flipped after the E v1 term in the u correction",
           "order_u", FormulaVariant.SIGN_FLIPPED),
    Defect(2, "u_tilde", "V2 printed untransposed after Sigma2 in the u correction",
           kind="missing-transpose",
           term="cross term Sigma2 V2 E^T u1 of the u correction",
           expected="Sigma2 {m}x{m} @ V2^T {m}x{p} @ E^T {p}x{n} @ u1 {n} "
                    "-> {m}-vector",
           printed="Sigma2 {m}x{m} @ V2 {p}x{m}: inner dimensions {m} != {p}"),
    Defect(3, "u_tilde", "complement term dropped after 1/sigma1 in the u correction",
           "order_u", FormulaVariant.U3_OMITTED, kind="omitted-factor",
           term="complement term of the u correction (U3 dropped after 1/sigma1)",
           expected="U3 {n}x{c} @ U3^T {c}x{n} @ E {n}x{p} @ v1 {p} -> {n}-vector",
           printed="U3^T E v1 -> {c}-vector added to {n}-vectors"),
    Defect(4, "v_tilde", "V2 printed untransposed after sigma1 in the v correction",
           kind="missing-transpose",
           term="leading term sigma1 V2 E^T u1 of the v correction",
           expected="V2^T {m}x{p} @ E^T {p}x{n} @ u1 {n} -> {m}-vector",
           printed="V2 {p}x{m} @ E^T {p}x{n}: inner dimensions {m} != {p}"),
    Defect(5, "v_tilde", "sign flipped after the E^T u1 term in the v correction",
           "order_v", FormulaVariant.SIGN_FLIPPED),
)


def triplet_gap(full: Svd, k: int) -> float:
    """Absolute spectral separation of the k-th singular value.

    Measures the distance to every other singular value; when n > p the
    left complement contributes singular value 0, so sigma_k itself joins
    the candidate set.
    """
    n = full.U.shape[0]
    p = full.V.shape[0]
    S = full.S
    if not 1 <= k <= len(S):
        raise IndexOutOfRange(f"k must be in 1..{len(S)}, got {k}")
    sk = float(S[k - 1])
    diffs = [abs(sk - float(S[j])) for j in range(len(S)) if j != k - 1]
    if n > p:
        diffs.append(sk)
    return min(diffs) if diffs else sk


def tall_problem(X, E):
    """Normalize a problem to the taller-or-square orientation.

    Returns (X', E', swapped); when swapped is True both inputs were
    transposed and the caller must swap u/v roles on any output.
    """
    Xm = as_matrix(X, "X")
    Em = as_matrix(E, "E")
    if Xm.shape != Em.shape:
        raise DimensionMismatch(
            f"X and E must have equal shapes, got {Xm.shape} vs {Em.shape}"
        )
    if Xm.shape[0] >= Xm.shape[1]:
        return Xm, Em, False
    return Xm.T, Em.T, True


def partition_svd(full: Svd, k: int) -> SvdPartition:
    """Split a thin SVD (taller-or-square orientation) around triplet k.

    Raises GapTooSmall when the separation of sigma_k (including the zero
    spectrum of the complement when n > p) falls at or below GAP_TOL
    relative to sigma_max, or when sigma_k itself is zero.
    """
    n = full.U.shape[0]
    p = full.V.shape[0]
    if n < p:
        raise InvalidDims(f"need taller-or-square orientation, got {n}x{p}")
    if not 1 <= k <= p:
        raise IndexOutOfRange(f"k must be in 1..{p}, got {k}")
    S = full.S
    smax = float(S[0])
    gap = triplet_gap(full, k)
    if gap <= GAP_TOL * smax:
        raise GapTooSmall(k, gap)
    sigma1 = float(S[k - 1])
    if sigma1 <= GAP_TOL * smax:
        raise GapTooSmall(k, sigma1)
    keep = np.arange(p) != (k - 1)
    return SvdPartition(
        k=k,
        sigma1=sigma1,
        u1=full.U[:, k - 1].copy(),
        v1=full.V[:, k - 1].copy(),
        Sigma2=S[keep].copy(),
        U2=full.U[:, keep].copy(),
        V2=full.V[:, keep].copy(),
    )


def compute_projections(part: SvdPartition, E) -> Projections:
    """Project E onto the partition's bases; f31 = E v1 - Up (Up^T E v1)
    is computed only when the partition has a complement."""
    Em = as_matrix(E, "E")
    if Em.shape != (part.n, part.p):
        raise DimensionMismatch(
            f"E must be {part.n}x{part.p}, got {Em.shape[0]}x{Em.shape[1]}"
        )
    Ev1 = Em @ part.v1
    phi1 = float(part.u1 @ Ev1)
    f21 = part.U2.T @ Ev1
    if part.has_complement:
        f31 = Ev1 - part.u1 * phi1 - part.U2 @ f21
    else:
        f31 = np.zeros(part.n)
    return Projections(
        phi1=phi1,
        f12=part.V2.T @ (Em.T @ part.u1),
        f21=f21,
        f31=f31,
    )


def solve_coupled_system(part: SvdPartition, proj: Projections):
    """Solve the coupled pair for (g2, h2) by a direct dense solve.

    This is the oracle route, independent of the closed forms: it builds
    the 2(p-1) x 2(p-1) block system

        [ sigma1 I   -Sigma2 ] [g2]   [f21]
        [ -Sigma2   sigma1 I ] [h2] = [f12]

    and factors it outright.
    """
    m = part.Sigma2.shape[0]
    if m == 0:
        return np.zeros(0), np.zeros(0)
    M = np.zeros((2 * m, 2 * m))
    M[:m, :m] = part.sigma1 * np.eye(m)
    M[m:, m:] = part.sigma1 * np.eye(m)
    M[:m, m:] = -np.diag(part.Sigma2)
    M[m:, :m] = -np.diag(part.Sigma2)
    rhs = np.concatenate([proj.f21, proj.f12])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return sol[:m], sol[m:]


def variant_coefficients(
    part: SvdPartition, proj: Projections, variant: FormulaVariant
) -> CorrectionCoefficients:
    """Closed-form coefficients for any variant.

    h2 = (sigma1^2 I - Sigma2^2)^-1 (sigma1 f12 +- Sigma2 f21)
    g2 = (sigma1^2 I - Sigma2^2)^-1 (sigma1 f21 +- Sigma2 f12)
    g3 = f31 / sigma1,  theta1 = phi1,

    with the minus sign (negated cross terms) for sign-flipped variants.
    Complement omission is an assembly-time defect and leaves the
    coefficients untouched.
    """
    denom = part.sigma1**2 - part.Sigma2**2
    if np.any(np.abs(denom) <= (GAP_TOL * part.sigma1) ** 2):
        worst = float(np.min(np.abs(denom)))
        raise GapTooSmall(part.k, worst)
    cross = -part.Sigma2 if variant.flips_cross_sign else part.Sigma2
    g2 = (part.sigma1 * proj.f21 + cross * proj.f12) / denom
    h2 = (part.sigma1 * proj.f12 + cross * proj.f21) / denom
    g3 = proj.f31 / part.sigma1
    return CorrectionCoefficients(g2=g2, g3=g3, h2=h2, theta1=proj.phi1)


def expand_triplet(
    part: SvdPartition, E, variant: FormulaVariant = FormulaVariant.CORRECTED
) -> TripletExpansion:
    """Assemble the first-order triplet prediction for the given variant.

    Vectors are not renormalized.  Without a complement (n == p and no zero
    singular value) the g3 term is skipped, so CORRECTED / U3_OMITTED
    coincide exactly (same float operations).
    """
    proj = compute_projections(part, E)
    co = variant_coefficients(part, proj, variant)
    u = part.u1 + part.U2 @ co.g2
    if part.has_complement and not variant.omits_complement:
        u = u + co.g3
    v = part.v1 + part.V2 @ co.h2
    return TripletExpansion(
        u_tilde=u,
        v_tilde=v,
        sigma_tilde=part.sigma1 + co.theta1,
        variant=variant,
        projections=proj,
        coefficients=co,
    )


def expand_matrix(
    X, E, k: int = 1, variant: FormulaVariant = FormulaVariant.CORRECTED
) -> TripletExpansion:
    """End-to-end expansion of the k-th triplet of X under E.

    Wide inputs are transposed internally and the u/v roles are swapped
    back on output.
    """
    Xo, Eo, swapped = tall_problem(X, E)
    part = partition_svd(svd(Xo), k)
    exp = expand_triplet(part, Eo, variant)
    if swapped:
        return replace(exp, u_tilde=exp.v_tilde, v_tilde=exp.u_tilde)
    return exp


def transpose_dual_expansion(X, E, k: int = 1) -> TripletExpansion:
    """Corrected expansion computed through the transposed problem
    (X^T, E^T) with u/v roles swapped back.

    For square X this exercises a genuinely different numerical path and
    must agree with expand_matrix up to sign alignment.
    """
    Xm = as_matrix(X, "X")
    Em = as_matrix(E, "E")
    dual = expand_matrix(Xm.T, Em.T, k, FormulaVariant.CORRECTED)
    return replace(dual, u_tilde=dual.v_tilde, v_tilde=dual.u_tilde)


def shape_audit_as_printed(n: int, p: int) -> ShapeAuditReport:
    """Symbolic dimension audit of the defective printed expansion.

    Checks the products of the defective form against the basis shapes
    u1: n, U2: n x (p-1), U3: n x (n-p), v1: p, V2: p x (p-1),
    Sigma2: (p-1) x (p-1), E: n x p, with no floating-point work.  The
    findings are the CATALOG rows with symbolic evidence: the transpose
    slips and, when n > p, the dropped complement factor.  The sign
    defects are dimensionally silent.  Requires n >= p >= 2.
    """
    if p < 2 or n < p:
        raise InvalidDims(f"audit needs n >= p >= 2, got ({n}, {p})")
    dims = {"n": n, "p": p, "m": p - 1, "c": n - p}
    return ShapeAuditReport(n=n, p=p, findings=tuple(
        ShapeFinding(d.item, d.kind, d.term, d.expected.format(**dims),
                     d.printed.format(**dims))
        for d in CATALOG if d.kind and d.applies(n, p)
    ))
