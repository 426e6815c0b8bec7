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

import math
import sys
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    GapTooSmall,
    IndexOutOfRange,
    InvalidDims,
    SingularSystem,
    SpectrumOverflow,
)
from .linalg import Svd, as_matrix, svd

# Relative spectral-separation tolerance: a triplet whose gap (triplet_gap)
# is at or below this times sigma_max is rejected.
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


class SvdPartition(NamedTuple):
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


class Projections(NamedTuple):
    """E projected onto the partition's bases (the data the corrections
    are built from).  f31 is the n-vector (I - Up Up^T) E v1, all zero when
    the partition has no complement.  All fields vanish when E = 0."""

    phi1: float
    f12: np.ndarray
    f21: np.ndarray
    f31: np.ndarray


class CorrectionCoefficients(NamedTuple):
    """First-order coefficients of the triplet expansion; g3 = f31 / sigma1
    is an n-vector."""

    g2: np.ndarray
    g3: np.ndarray
    h2: np.ndarray
    theta1: float


class TripletExpansion(NamedTuple):
    """Assembled first-order prediction for the perturbed triplet, with the
    projections and coefficients it was built from (those belong to the
    taller-or-square orientation, also when u~ and v~ were swapped back)."""

    u_tilde: np.ndarray
    v_tilde: np.ndarray
    sigma1: float
    sigma_tilde: float
    variant: FormulaVariant
    projections: Projections
    coefficients: CorrectionCoefficients


class Defect(NamedTuple):
    """One row of the defect catalog of the defective printed expansion.

    Numeric evidence (metric, variant): the variant's fitted order of the
    metric, a name of convergence.METRICS, drops below the corrected one.
    Symbolic evidence (kind, term and the expected/printed dims templates
    over n, p, m = p - 1 and c = n - p): the shape audit's finding.
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

    def dims(self, n: int, p: int) -> tuple:
        """The (expected, printed) dims templates filled in for (n, p)."""
        d = {"n": n, "p": p, "m": p - 1, "c": n - p}
        return self.expected.format(**d), self.printed.format(**d)


# The sign defects are dimensionally silent, the transpose slips cannot be
# formed at all, and the dropped complement shows both ways.
CATALOG = (
    Defect(1, "u_tilde", "sign flipped after the E v1 term in the u correction",
           "u", FormulaVariant.SIGN_FLIPPED),
    Defect(2, "u_tilde", "V2 printed untransposed after Sigma2 in the u correction",
           kind="missing-transpose",
           term="cross term Sigma2 V2 E^T u1 of the u correction",
           expected="Sigma2 {m}x{m} @ V2^T {m}x{p} @ E^T {p}x{n} @ u1 {n} "
                    "-> {m}-vector",
           printed="Sigma2 {m}x{m} @ V2 {p}x{m}: inner dimensions {m} != {p}"),
    Defect(3, "u_tilde", "complement term dropped after 1/sigma1 in the u correction",
           "u", FormulaVariant.U3_OMITTED, kind="omitted-factor",
           term="complement term of the u correction (U3 dropped after 1/sigma1)",
           expected="U3 {n}x{c} @ U3^T {c}x{n} @ E {n}x{p} @ v1 {p} -> {n}-vector",
           printed="U3^T E v1 -> {c}-vector added to {n}-vectors"),
    Defect(4, "v_tilde", "V2 printed untransposed after sigma1 in the v correction",
           kind="missing-transpose",
           term="leading term sigma1 V2 E^T u1 of the v correction",
           expected="V2^T {m}x{p} @ E^T {p}x{n} @ u1 {n} -> {m}-vector",
           printed="V2 {p}x{m} @ E^T {p}x{n}: inner dimensions {m} != {p}"),
    Defect(5, "v_tilde", "sign flipped after the E^T u1 term in the v correction",
           "v", FormulaVariant.SIGN_FLIPPED),
)


def triplet_gap(full: Svd, k: int) -> float:
    """delta0, the distance from sigma_k to the rest of the spectrum of the
    Jordan-Wielandt matrix [[0, X], [X^T, 0]], the same for X and X^T.

    The least of |sigma_k - sigma_j|, j != k, and of sigma_k (the zero
    spectrum) when n != p or of 2 sigma_k (the mirror -sigma_k, capped at
    the largest double) when n == p.  Both separation checks read it:
    partition_svd's GapTooSmall and the ladder guard eps < 0.1 * gap
    (Wedin, BIT 12, 1972).
    """
    S = full.S
    if not 1 <= k <= len(S):
        raise IndexOutOfRange(f"k must be in 1..{len(S)}, got {k}")
    sk = float(S[k - 1])
    others = [abs(sk - float(S[j])) for j in range(len(S)) if j != k - 1]
    mirror = sk if full.U.shape[0] != full.V.shape[0] else 2.0 * sk
    return min(others + [mirror, sys.float_info.max])


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

    Raises IndexOutOfRange (from triplet_gap) unless 1 <= k <= p, and
    GapTooSmall when triplet_gap's delta0 falls at or below GAP_TOL
    relative to sigma_max; a zero sigma_k has delta0 = 0.
    """
    n = full.U.shape[0]
    p = full.V.shape[0]
    if n < p:
        raise InvalidDims(f"need taller-or-square orientation, got {n}x{p}")
    S = full.S
    gap = triplet_gap(full, k)
    if gap <= GAP_TOL * float(S[0]):
        raise GapTooSmall(k, gap)
    sigma1 = float(S[k - 1])
    keep = np.arange(p) != (k - 1)
    # .copy() keeps these C-ordered (mask indexing gives F-ordered copies);
    # the memory order sets the BLAS summation order, hence the output bits
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

    g2 and h2 do not change when sigma1, Sigma2, f12 and f21 are scaled
    together, so they are formed on those scaled by 2^-e, e the exponent
    of sigma1: the squares then neither overflow nor underflow, and g2, h2
    are bitwise invariant when X and E are scaled by 2^j.  Squares are
    products, not **, which calls the C library's pow: that is not
    correctly rounded.  The denominator guard checks hand-built partitions:
    partition_svd's have |sigma1^2 - sigma_j^2| >= gap * sigma1.
    """
    e = math.frexp(part.sigma1)[1]
    s1 = math.ldexp(part.sigma1, -e)
    S2 = np.ldexp(part.Sigma2, -e)
    f12 = np.ldexp(proj.f12, -e)
    f21 = np.ldexp(proj.f21, -e)
    denom = s1 * s1 - S2 * S2
    tol = GAP_TOL * s1
    if np.any(np.abs(denom) <= tol * tol):
        worst = math.ldexp(float(np.min(np.abs(denom))), 2 * e)
        raise GapTooSmall(part.k, worst)
    cross = -S2 if variant.flips_cross_sign else S2
    g2 = (s1 * f21 + cross * f12) / denom
    h2 = (s1 * f12 + cross * f21) / denom
    g3 = proj.f31 / part.sigma1
    return CorrectionCoefficients(g2=g2, g3=g3, h2=h2, theta1=proj.phi1)


def _prediction(part: SvdPartition, co: CorrectionCoefficients,
                variant: FormulaVariant, s) -> tuple:
    """(u~, v~, sigma~) with the corrections scaled by s, a float or a
    column of scales: u1 + s (U2 g2) [+ s g3], v1 + s (V2 h2) and sigma1 + s
    theta1, added in that order; g3 only with a complement the variant keeps."""
    u = part.u1 + s * (part.U2 @ co.g2)
    if part.has_complement and not variant.omits_complement:
        u = u + s * co.g3
    return u, part.v1 + s * (part.V2 @ co.h2), part.sigma1 + s * co.theta1


def expand_triplet(
    part: SvdPartition, E, variant: FormulaVariant = FormulaVariant.CORRECTED
) -> TripletExpansion:
    """Assemble the first-order triplet prediction for the given variant.

    Vectors are not renormalized.  Without a complement (n == p and no zero
    singular value) the g3 term is skipped, so CORRECTED / U3_OMITTED
    coincide exactly (same float operations).  An E near the top of the
    double range can carry a projection, coefficient or prediction beyond
    it: that raises SpectrumOverflow, with no RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        proj = compute_projections(part, E)
        co = variant_coefficients(part, proj, variant)
        u, v, sigma = _prediction(part, co, variant, 1.0)
    if not all(np.isfinite(x).all() for x in (u, v, sigma, *proj, *co)):
        raise SpectrumOverflow("a result of the expansion lies beyond the double range")
    return TripletExpansion(
        u_tilde=u,
        v_tilde=v,
        sigma1=part.sigma1,
        sigma_tilde=sigma,
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
        return exp._replace(u_tilde=exp.v_tilde, v_tilde=exp.u_tilde)
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
    return dual._replace(u_tilde=dual.v_tilde, v_tilde=dual.u_tilde)


def shape_audit_as_printed(n: int, p: int) -> tuple:
    """Symbolic dimension audit of the defective printed expansion.

    Checks the products of the defective form against the basis shapes
    u1: n, U2: n x (p-1), U3: n x (n-p), v1: p, V2: p x (p-1),
    Sigma2: (p-1) x (p-1), E: n x p, with no floating-point work.  The
    findings are the CATALOG rows with symbolic evidence that apply at
    (n, p): the transpose slips and, when n > p, the dropped complement
    factor; Defect.dims(n, p) gives each one's dimensions.  The sign
    defects are dimensionally silent.  Requires n >= p >= 2.
    """
    if p < 2 or n < p:
        raise InvalidDims(f"audit needs n >= p >= 2, got ({n}, {p})")
    return tuple(d for d in CATALOG if d.kind and d.applies(n, p))
