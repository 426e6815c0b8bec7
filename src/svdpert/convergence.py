"""Empirical convergence-order certification.

A first-order prediction is checked against the exact triplet of the
perturbed matrix on a geometric ladder of perturbation sizes.  Residuals of
the corrected expansion shrink like epsilon^2; a variant carrying a
first-order defect only manages epsilon^1, and the fitted log-log slopes
separate the two cleanly.

Residuals are measured in the expansion's own affine chart: the exact
perturbed vector (unit norm) is rescaled so that its coefficient along the
unperturbed vector equals 1, matching the prediction's parametrization,
and the Euclidean difference is taken.  The rescale also makes the
comparison sign-proof.

A ladder decomposes X once and projects the unit direction E once; the
prediction is linear in epsilon, so each variant's is formed once and
scaled to every rung.  The rungs' exact triplets are solved together, each
with arithmetic of its own: one-sided Jacobi on (X + epsilon E) V0, V0 the
right singular vectors of X, rotating only the pairs that contain the
tracked column k until it is orthogonal to all others.  Every variant is
scored against each rung's triplet, tracked by its overlaps with the
unperturbed one; an overlap, right or left, below MATCH_TOL means the
perturbation is too large to track and raises TripletMatchAmbiguous.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    FitUnreliable,
    InsufficientSamples,
    NotDemonstrable,
    TripletMatchAmbiguous,
    ZeroVector,
)
from .linalg import (
    JACOBI_SWEEP_LIMIT,
    _exponent,
    _pivot_sweeps,
    frobenius_norm,
    svd,
)
from .perturbation import (
    CATALOG,
    Defect,
    FormulaVariant,
    compute_projections,
    partition_svd,
    shape_audit_as_printed,
    tall_problem,
    triplet_gap,
    variant_coefficients,
)
from .randmat import SpectrumSpec, SplitMix64, matrix_with_spectrum

# Residuals at or below FLOOR_TOL sit in the numerical noise floor and are
# excluded from slope fits; MATCH_TOL is the minimum |overlap| for tracking
# a triplet across the perturbation.  A report certifies when every fit
# reaches r2 >= R2_GATE; errata confirms a defect whose variant's order
# lies at least ORDER_SEPARATION below the corrected form's.
FLOOR_TOL = 1e-13
MATCH_TOL = 0.7
R2_GATE = 0.98
ORDER_SEPARATION = 0.5


@dataclass(frozen=True)
class ResidualSample:
    """Prediction-vs-exact residuals at one perturbation size."""

    epsilon: float
    res_u: float
    res_v: float
    res_sigma: float

    def __post_init__(self):
        vals = (self.epsilon, self.res_u, self.res_v, self.res_sigma)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("residual sample contains non-finite values")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        if min(self.res_u, self.res_v, self.res_sigma) < 0.0:
            raise ValueError("residuals must be nonnegative")


@dataclass(frozen=True)
class ConvergenceReport:
    """Fitted log-log slopes (one per metric) over a residual ladder."""

    variant: FormulaVariant
    samples: tuple
    order_u: float
    order_v: float
    order_sigma: float
    r2_u: float
    r2_v: float
    r2_sigma: float

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        _check_ladder([s.epsilon for s in self.samples])

    @property
    def min_r2(self) -> float:
        return min(self.r2_u, self.r2_v, self.r2_sigma)

    @property
    def refusal(self) -> FitUnreliable | None:
        """None when the report certifies, else the error that refuses it:
        min r2 below R2_GATE."""
        if self.min_r2 < R2_GATE:
            return FitUnreliable(
                f"fit unreliable (min r2 {self.min_r2:.4f} < {R2_GATE})")
        return None


def _check_ladder(eps) -> None:
    """Raise ValueError unless eps holds at least 4 positive epsilons that
    decrease by a constant factor."""
    if len(eps) < 4:
        raise ValueError("a report needs at least 4 samples")
    if any(e <= 0.0 for e in eps):
        raise ValueError("ladder epsilons must be strictly positive")
    ratios = [eps[i + 1] / eps[i] for i in range(len(eps) - 1)]
    if any(not 0.0 < r < 1.0 for r in ratios):
        raise ValueError("ladder epsilons must decrease strictly")
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("ladder epsilons must decrease by a constant factor")


def align_sign(reference, candidate) -> np.ndarray:
    """Return candidate or -candidate, whichever has nonnegative inner
    product with reference (a zero inner product keeps candidate)."""
    ref = np.asarray(reference, dtype=float).reshape(-1)
    cand = np.asarray(candidate, dtype=float).reshape(-1)
    if ref.shape != cand.shape:
        raise DimensionMismatch(
            f"vectors must have equal length, got {ref.shape[0]} vs {cand.shape[0]}"
        )
    if not float(cand @ cand) > 0.0:
        raise ZeroVector("candidate vector is zero")
    return cand if float(ref @ cand) >= 0.0 else -cand


def _decompose(X, E_dir, k: int) -> tuple:
    """tall_problem's (Xo, Eo, swapped) with Eo scaled to unit Frobenius
    norm (a zero E_dir raises ZeroVector), the SVD of Xo, and its
    partition around triplet k."""
    Xo, Eo, swapped = tall_problem(X, E_dir)
    # divided in the scaled form frobenius_norm sums in, so a direction
    # whose norm lies beyond the double range is still normalized
    Eo = np.ldexp(Eo, -_exponent(Eo))
    norm = frobenius_norm(Eo)
    if norm == 0.0:
        raise ZeroVector("direction E_dir has zero norm")
    full = svd(Xo)
    return (Xo, Eo / norm, swapped), full, partition_svd(full, k)


def _score_ladder(problem, full, part, eps0: float, scales, variants) -> list:
    """One list of ResidualSamples per variant over the rungs epsilon_i =
    eps0 * scales[i], for _decompose's problem, full and part.  _pivot_sweeps
    solves the stack Xo V0 + epsilon_i (Eo V0), V0 = full.V, on column k - 1
    (at epsilon 0 the triplet is full's own); v = V0 y.  Walking the rungs in
    order, a rung is tracked when both overlaps reach MATCH_TOL, first the
    right one y[k - 1], then the left one u @ u1, else TripletMatchAmbiguous;
    each exact vector is divided by its overlap, into the prediction's affine
    chart.  E is projected once, as eps0 * Eo; rung i scales each variant's
    corrections by s = scales[i] in expand_triplet's order of additions
    (u1 + s U2 g2 [+ s g3], v1 + s V2 h2, sigma1 + s theta1): bitwise
    expand_triplet at epsilon_i when s is a power of two, barring subnormals.
    """
    Xo, Eo, swapped = problem
    j = part.k - 1
    epsilons = [eps0 * s for s in scales]
    if eps0 == 0.0:
        rungs = [(float(full.S[j]), full.U[:, j], part.v1, 1.0)]
    else:
        stack = Xo @ full.V + np.multiply.outer(epsilons, Eo @ full.V)
        rungs = ((sigma, u, full.V @ y, float(y[j]))
                 for sigma, u, y in _pivot_sweeps(stack, j, JACOBI_SWEEP_LIMIT))
    exact = []
    for epsilon, (sigma, u, v, right) in zip(epsilons, rungs):
        left = float(u @ part.u1)
        for overlap in (right, left):
            if abs(overlap) < MATCH_TOL:
                raise TripletMatchAmbiguous(abs(overlap), MATCH_TOL, epsilon)
        exact.append((sigma, u / left, v / right))
    sigmas, us, vs = (np.array(column) for column in zip(*exact))
    proj = compute_projections(part, eps0 * Eo)
    s = np.array(scales)[:, None]
    ladders = []
    for variant in variants:
        co = variant_coefficients(part, proj, variant)
        u = part.u1 + s * (part.U2 @ co.g2)
        if part.has_complement and not variant.omits_complement:
            u = u + s * co.g3
        v = part.v1 + s * (part.V2 @ co.h2)
        res_u, res_v = (np.sqrt(np.add.reduce(np.square(d), axis=1))
                        for d in (us - u, vs - v))
        res_sigma = np.abs(sigmas - (part.sigma1 + s[:, 0] * co.theta1))
        if swapped:
            res_u, res_v = res_v, res_u
        ladders.append([ResidualSample(*sample) for sample in zip(
            epsilons, res_u.tolist(), res_v.tolist(), res_sigma.tolist())])
    return ladders


def residuals_at(X, E_dir, epsilon: float, k: int = 1,
                 variant: FormulaVariant = FormulaVariant.CORRECTED) -> ResidualSample:
    """Residuals of the variant's prediction at one perturbation size.

    Decomposes X and scores the one rung epsilon as a ladder does (see
    _score_ladder): the exact k-th triplet of X + epsilon * E_dir, its
    vectors rescaled into the prediction's affine chart, gives the
    Euclidean residuals plus |sigma_exact - sigma~|.  E_dir is scaled to
    unit Frobenius norm.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    problem, full, part = _decompose(X, E_dir, k)
    return _score_ladder(problem, full, part, epsilon, [1.0], (variant,))[0][0]


def fit_loglog_slope(epsilons, residuals):
    """Ordinary least-squares line of log(residual) against log(epsilon), in
    closed form on the centred logs: returns (slope, r2) = (Sxy / Sxx,
    Sxy^2 / (Sxx Syy)), r2 clamped to 1 against roundoff.  The means and
    the three sums come from math.fsum, which rounds each exactly, so the
    fit does not depend on the order of the samples.  A flat series fits
    (0.0, 1.0).  Raises ValueError for no samples, unequal lengths, an
    epsilon or residual that is not finite and positive, or equal
    epsilons."""
    epsilons, residuals = list(epsilons), list(residuals)
    if len(epsilons) != len(residuals):
        raise ValueError(f"got {len(epsilons)} epsilons but "
                         f"{len(residuals)} residuals")
    if not epsilons:
        raise ValueError("need at least one sample")
    for name, values in (("epsilon", epsilons), ("residual", residuals)):
        bad = [v for v in values if not 0.0 < v < math.inf]
        if bad:
            raise ValueError(f"every {name} must be finite and positive, "
                             f"got {bad[0]}")
    x = [math.log(v) for v in epsilons]
    y = [math.log(v) for v in residuals]
    if all(v == x[0] for v in x):
        raise ValueError("epsilons must not all be equal")
    if all(v == y[0] for v in y):
        return 0.0, 1.0
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    x = [v - x_mean for v in x]
    y = [v - y_mean for v in y]
    sxx = math.fsum([v * v for v in x])
    sxy = math.fsum([a * b for a, b in zip(x, y)])
    syy = math.fsum([v * v for v in y])
    return sxy / sxx, min(1.0, sxy * sxy / (sxx * syy))


def fit_report(variant: FormulaVariant, samples,
               sigma_max: float = 1.0) -> ConvergenceReport:
    """Fit per-metric orders over a residual ladder.

    Samples in the noise floor are excluded per metric: res_u and res_v
    are unit-free and floored at FLOOR_TOL, while res_sigma carries the
    units of X and is floored at FLOOR_TOL * sigma_max, the largest
    singular value of X, so the fit does not change when X and the ladder
    are scaled together.  Fewer than 3 survivors for any metric raises
    InsufficientSamples, naming the floor and the floored epsilons.
    """
    samples = tuple(samples)
    floors = {"res_u": FLOOR_TOL, "res_v": FLOOR_TOL,
              "res_sigma": FLOOR_TOL * sigma_max}
    orders = {}
    r2s = {}
    for metric, floor in floors.items():
        kept = [s for s in samples if getattr(s, metric) > floor]
        if len(kept) < 3:
            floored = ", ".join(f"{s.epsilon:g}" for s in samples
                                if getattr(s, metric) <= floor)
            raise InsufficientSamples(
                f"{metric}: only {len(kept)} samples above the noise floor "
                f"{floor:.3g}; at or below it at epsilon {floored}"
            )
        orders[metric], r2s[metric] = fit_loglog_slope(
            [s.epsilon for s in kept], [getattr(s, metric) for s in kept]
        )
    return ConvergenceReport(
        variant=variant,
        samples=samples,
        order_u=orders["res_u"],
        order_v=orders["res_v"],
        order_sigma=orders["res_sigma"],
        r2_u=r2s["res_u"],
        r2_v=r2s["res_v"],
        r2_sigma=r2s["res_sigma"],
    )


def convergence_ladders(X, E_dir, variants, k: int = 1, eps0: float = 1e-2,
                        factor: float = 0.5, count: int = 8) -> tuple:
    """Residual ladder epsilon_i = eps0 * factor^i, i = 0..count-1, scored
    for several variants at once; returns one ConvergenceReport per
    variant, in the order given.

    X is decomposed once, each variant's prediction formed once and scaled
    to every rung, and the rungs' exact triplets solved in one lockstep
    Jacobi solve of the tracked column (see _score_ladder), however many
    variants share the ladder.  Any nonzero E_dir is scaled to unit
    Frobenius norm, so 2^j E_dir gives the same reports.  Requires count >=
    4, 0 < factor < 1, and eps0 < 0.1 * (spectral gap at the selected
    triplet) so that tracking stays unambiguous; epsilons that underflow
    fail the report's ladder check before any rung is solved.  Each rung's
    arithmetic is its own, so reports are bitwise reproducible and, with
    factor 0.5, every sample is residuals_at's at its epsilon.  The first
    rung that exhausts the sweep budget or cannot be tracked raises
    ConvergenceFailure or TripletMatchAmbiguous.
    """
    variants = tuple(variants)
    if not variants:
        raise ValueError("need at least one variant")
    if count < 4:
        raise ValueError(f"count must be >= 4, got {count}")
    if not (math.isfinite(factor) and 0.0 < factor < 1.0):
        raise ValueError(f"factor must lie in (0, 1), got {factor}")
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise ValueError(f"eps0 must be finite and positive, got {eps0}")
    # triplet separation is a data problem and is reported as such,
    # before eps0 (a flag problem) is ever compared against the gap
    problem, full, part = _decompose(X, E_dir, k)
    gap = triplet_gap(full, k)
    if eps0 >= 0.1 * gap:
        raise ValueError(
            f"eps0 {eps0} must stay below 0.1 * spectral gap ({0.1 * gap:.3e})"
        )
    scales = [factor**i for i in range(count)]
    _check_ladder([eps0 * s for s in scales])
    ladders = _score_ladder(problem, full, part, eps0, scales, variants)
    return tuple(fit_report(variant, samples, float(full.S[0]))
                 for variant, samples in zip(variants, ladders))


def convergence_ladder(
    X, E_dir, k: int = 1, variant: FormulaVariant = FormulaVariant.CORRECTED,
    **ladder,
) -> ConvergenceReport:
    """Residual ladder and fitted per-metric orders for one variant; the
    ladder keywords eps0, factor and count, and their defaults, are
    convergence_ladders'."""
    return convergence_ladders(X, E_dir, (variant,), k=k, **ladder)[0]


class ErrataRow(NamedTuple):
    """One CATALOG row's evidence: a numeric row's metric, orders and their
    separation, or "shape-audit" and the expected and printed dims."""

    defect: Defect
    metric: str
    corrected: float | str | None
    defective: float | str | None
    separation: float | None
    status: str


def errata_rows(n: int = 5, p: int = 3, seed: int = 0) -> tuple:
    """(one ErrataRow per CATALOG row, refusal) on a seeded n x p instance;
    the refusal is None when every defect applies and is confirmed, else a
    NotDemonstrable naming why.  The shape audit's InvalidDims checks n >=
    p >= 2 first.  The instance has spectrum 3 * 0.7^j and a direction
    drawn from seed + 1, scored for every cataloged variant on one default
    ladder.  A numeric defect is confirmed when its order lies at least
    ORDER_SEPARATION below the corrected one, a symbolic one when the audit
    finds it."""
    findings = shape_audit_as_printed(n, p)
    sv = tuple(3.0 * 0.7**j for j in range(p))
    X = matrix_with_spectrum(SpectrumSpec(n=n, p=p, singular_values=sv, seed=seed))
    E = SplitMix64((seed + 1) % 2**64).normal_matrix(n, p)
    variants = tuple(dict.fromkeys(
        (FormulaVariant.CORRECTED, *(d.variant for d in CATALOG if d.variant))
    ))
    reports = dict(zip(variants, convergence_ladders(X, E, variants)))
    rows = []
    for d in CATALOG:
        if not d.applies(n, p):
            cells, status = (d.metric, None, None, None), "not applicable (n=p)"
        elif d.variant:
            good = getattr(reports[FormulaVariant.CORRECTED], d.metric)
            bad = getattr(reports[d.variant], d.metric)
            cells = (d.metric, good, bad, good - bad)
            status = "confirmed" if good - bad >= ORDER_SEPARATION else "not confirmed"
        else:
            cells = ("shape-audit", *d.dims(n, p), None)
            status = "confirmed" if d in findings else "not confirmed"
        rows.append(ErrataRow(d, *cells, status))
    if not all(d.applies(n, p) for d in CATALOG):
        refusal = NotDemonstrable(
            "the dropped-complement defect is not demonstrable when n == p "
            "(the complement is empty); rerun with n > p")
    elif any(row.status != "confirmed" for row in rows):
        refusal = NotDemonstrable("not all defects could be confirmed")
    else:
        refusal = None
    return tuple(rows), refusal
