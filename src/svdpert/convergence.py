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

A ladder decomposes the unperturbed matrix X once.  Each rung then solves
for the one exact perturbed triplet it needs: one-sided Jacobi on
(X + epsilon E) V0, V0 the right singular vectors of X, rotating only the
pairs that contain the tracked column k, until that column is orthogonal
to all others.  Every requested variant is scored against that triplet.
The triplet is tracked by its right-vector overlap V1[k, k] with the
unperturbed one; an overlap, right or left, below MATCH_TOL means the
perturbation is too large to track and raises TripletMatchAmbiguous.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    TripletMatchAmbiguous,
    ZeroVector,
)
from .linalg import (
    JACOBI_SWEEP_LIMIT,
    Svd,
    _jacobi_sweeps,
    frobenius_norm,
    svd,
)
from .perturbation import (
    FormulaVariant,
    expand_triplet,
    partition_svd,
    tall_problem,
    triplet_gap,
)

# Residuals at or below FLOOR_TOL sit in the numerical noise floor and are
# excluded from slope fits; MATCH_TOL is the minimum |overlap| for tracking
# a triplet across the perturbation.
FLOOR_TOL = 1e-13
MATCH_TOL = 0.7


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
        eps = [s.epsilon for s in self.samples]
        if len(eps) < 4:
            raise ValueError("a report needs at least 4 samples")
        if any(e <= 0.0 for e in eps):
            raise ValueError("ladder epsilons must be strictly positive")
        ratios = [eps[i + 1] / eps[i] for i in range(len(eps) - 1)]
        if any(not 0.0 < r < 1.0 for r in ratios):
            raise ValueError("ladder epsilons must decrease strictly")
        if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
            raise ValueError("ladder epsilons must decrease by a constant factor")

    @property
    def min_r2(self) -> float:
        return min(self.r2_u, self.r2_v, self.r2_sigma)


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


def _check_unit(Eo: np.ndarray) -> None:
    nrm = frobenius_norm(Eo)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"direction must have unit Frobenius norm, got {nrm}")


def _score_rung(problem, full: Svd, part, epsilon: float, variants) -> tuple:
    """Residuals of each variant's prediction at one perturbation size, all
    scored against one exact triplet; one ResidualSample per variant.

    problem is tall_problem's (Xo, Eo, swapped), full the decomposition of
    Xo and part its partition around k.  The exact triplet of
    Xo + epsilon * Eo comes from Jacobi on (Xo + epsilon * Eo) V0 with
    V0 = full.V, rotating only the pairs that contain column k - 1 until it
    is orthogonal to the rest; then v = V0 V1[:, k - 1] is an exact right
    singular vector, and sigma and u are the column's norm and direction.
    At epsilon = 0 the triplet is full's own k-th.  The triplet is tracked
    when both overlaps reach MATCH_TOL, first the right one V1[k - 1, k - 1]
    with the unperturbed v1, then the left one u @ u1, else
    TripletMatchAmbiguous; each exact vector is then divided by its own
    overlap, which puts it in the prediction's affine chart.
    """
    Xo, Eo, swapped = problem
    dE = epsilon * Eo
    j = part.k - 1
    if epsilon == 0.0:
        sigma, u, v, right = float(full.S[j]), full.U[:, j], part.v1, 1.0
    else:
        W, e, V1 = _jacobi_sweeps((Xo + dE) @ full.V, JACOBI_SWEEP_LIMIT,
                                  pivot=j)
        w = W[:, j]
        norm = math.sqrt(float(w @ w))
        sigma = math.ldexp(norm, int(e[j]))
        # a zero column has no direction; its zero left overlap is refused
        u = w / norm if norm else w
        v, right = full.V @ V1[:, j], float(V1[j, j])
    left = float(u @ part.u1)
    for overlap in (right, left):
        if abs(overlap) < MATCH_TOL:
            raise TripletMatchAmbiguous(abs(overlap), MATCH_TOL, epsilon)
    u_exact, v_exact = u / left, v / right
    samples = []
    for variant in variants:
        pred = expand_triplet(part, dE, variant)
        du, dv = u_exact - pred.u_tilde, v_exact - pred.v_tilde
        res_u, res_v = math.sqrt(du @ du), math.sqrt(dv @ dv)
        if swapped:
            res_u, res_v = res_v, res_u
        samples.append(ResidualSample(
            epsilon=float(epsilon),
            res_u=res_u,
            res_v=res_v,
            res_sigma=abs(sigma - pred.sigma_tilde),
        ))
    return tuple(samples)


def residuals_at(
    X,
    E_dir,
    epsilon: float,
    k: int = 1,
    variant: FormulaVariant = FormulaVariant.CORRECTED,
) -> ResidualSample:
    """Residuals of the variant's prediction at one perturbation size.

    Decomposes X, solves for the exact k-th triplet of X + epsilon * E_dir
    as one ladder rung does (see _score_rung), rescales its vectors into
    the prediction's affine chart, and returns the Euclidean residuals
    plus |sigma_exact - sigma~|.  E_dir must have unit Frobenius norm.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    problem = tall_problem(X, E_dir)
    _check_unit(problem[1])
    full = svd(problem[0])
    part = partition_svd(full, k)
    return _score_rung(problem, full, part, epsilon, (variant,))[0]


def fit_loglog_slope(epsilons, residuals):
    """Ordinary least-squares line of log(residual) against log(epsilon), in
    closed form on the centred logs: returns (slope, r2) = (Sxy / Sxx,
    Sxy^2 / (Sxx Syy)), r2 clamped to 1 against roundoff.  A flat series
    fits (0.0, 1.0); equal epsilons raise ValueError."""
    x = np.log(np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(residuals, dtype=float))
    if np.all(x == x[0]):
        raise ValueError("epsilons must not all be equal")
    if np.all(y == y[0]):
        return 0.0, 1.0
    x, y = x - x.mean(), y - y.mean()
    sxx, sxy, syy = float(x @ x), float(x @ y), float(y @ y)
    return sxy / sxx, min(1.0, sxy * sxy / (sxx * syy))


def fit_report(
    variant: FormulaVariant, samples, sigma_max: float = 1.0
) -> ConvergenceReport:
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


def convergence_ladders(
    X,
    E_dir,
    variants,
    k: int = 1,
    eps0: float = 1e-2,
    factor: float = 0.5,
    count: int = 8,
) -> tuple:
    """Residual ladder epsilon_i = eps0 * factor^i, i = 0..count-1, scored
    for several variants at once; returns one ConvergenceReport per
    variant, in the order given.

    The decomposition of X is computed once, and each rung solves for the
    one exact triplet that every variant is scored against, by Jacobi
    rotations of the tracked column alone, so a ladder costs one SVD and
    count targeted solves however many variants it serves.  Requires
    count >= 4, 0 < factor < 1, and eps0 < 0.1 * (spectral gap at the
    selected triplet) so that tracking stays unambiguous.  Sampling is
    strictly sequential, so identical inputs give bitwise-identical reports.
    """
    variants = tuple(variants)
    if not variants:
        raise ValueError("need at least one variant")
    if count < 4:
        raise ValueError(f"count must be >= 4, got {count}")
    if not (math.isfinite(factor) and 0.0 < factor < 1.0):
        raise ValueError(f"factor must lie in (0, 1), got {factor}")
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise ValueError(f"eps0 must be positive, got {eps0}")
    problem = tall_problem(X, E_dir)
    full = svd(problem[0])
    # triplet separation is a data problem and is reported as such,
    # before eps0 (a flag problem) is ever compared against the gap
    part = partition_svd(full, k)
    gap = triplet_gap(full, k)
    if eps0 >= 0.1 * gap:
        raise ValueError(
            f"eps0 ={eps0} must stay below 0.1 * spectral gap ({0.1 * gap:.3e})"
        )
    _check_unit(problem[1])
    rungs = [
        _score_rung(problem, full, part, eps0 * factor**i, variants)
        for i in range(count)
    ]
    sigma_max = float(full.S[0])
    return tuple(
        fit_report(variant, samples, sigma_max)
        for variant, samples in zip(variants, zip(*rungs))
    )


def convergence_ladder(
    X, E_dir, k: int = 1, variant: FormulaVariant = FormulaVariant.CORRECTED,
    **ladder,
) -> ConvergenceReport:
    """Residual ladder and fitted per-metric orders for one variant; the
    ladder keywords eps0, factor and count, and their defaults, are
    convergence_ladders'."""
    return convergence_ladders(X, E_dir, (variant,), k=k, **ladder)[0]
