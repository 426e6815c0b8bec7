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
tracked column k until it is orthogonal to all others.  One guard decides
which sizes are measured: epsilon < 0.1 * gap, triplet_gap at k.  Below
it, Wedin's sin-theta theorem (BIT 12, 1972) keeps each rung's singular
vectors within arcsin(epsilon / (gap - epsilon)) < arcsin(1/9) of the
unperturbed ones, so the column solved is the tracked triplet, and Weyl's
inequality keeps its value above 0.8 sigma_k.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    FitUnreliable,
    InsufficientSamples,
    NotDemonstrable,
    ZeroVector,
)
from .linalg import _exponent, _pivot_sweeps, frobenius_norm, svd
from .perturbation import (
    CATALOG,
    Defect,
    FormulaVariant,
    _prediction,
    compute_projections,
    partition_svd,
    shape_audit_as_printed,
    tall_problem,
    triplet_gap,
    variant_coefficients,
)
from .randmat import SpectrumSpec, SplitMix64, matrix_with_spectrum

# Residuals at or below FLOOR_TOL sit in the numerical noise floor and are
# excluded from slope fits.  A report certifies when every fit reaches r2 >=
# R2_GATE; errata confirms a defect whose variant's order lies at least
# ORDER_SEPARATION below the corrected form's.  A report fits each name of
# METRICS, in order, to ResidualSample.res_<name>.
FLOOR_TOL = 1e-13
R2_GATE = 0.98
ORDER_SEPARATION = 0.5
METRICS = ("u", "v", "sigma")


class ResidualSample(NamedTuple("ResidualSample", [
        ("epsilon", float), *((f"res_{m}", float) for m in METRICS)])):
    """Prediction-vs-exact residuals at one perturbation size; every
    construction checks that they are finite and nonnegative."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        sample = super().__new__(cls, *fields, **named)
        if not all(math.isfinite(v) for v in sample):
            raise ValueError("residual sample contains non-finite values")
        if sample.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        if min(sample[1:]) < 0.0:
            raise ValueError("residuals must be nonnegative")
        return sample

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)


class MetricFit(NamedTuple):
    """One metric's fitted log-log slope over a residual ladder, and its r2."""

    metric: str
    order: float
    r2: float


class ConvergenceReport(NamedTuple("ConvergenceReport", [
        ("variant", FormulaVariant), ("samples", tuple), ("fits", tuple)])):
    """A residual ladder and its MetricFits, METRICS' first and in order,
    none twice; every construction checks both and stores them as tuples."""

    __slots__ = ()

    def __new__(cls, variant, samples, fits):
        samples, fits = tuple(samples), tuple(fits)
        _check_ladder([s.epsilon for s in samples])
        names = tuple(fit.metric for fit in fits)
        if names[:len(METRICS)] != METRICS or len(set(names)) < len(names):
            raise ValueError(f"fits must begin with {METRICS}, each once: {names}")
        return super().__new__(cls, variant, samples, fits)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)

    def fit(self, metric: str) -> MetricFit:
        """The fit of the named metric; KeyError if the report has none."""
        return {fit.metric: fit for fit in self.fits}[metric]

    @property
    def min_r2(self) -> float:
        return min(fit.r2 for fit in self.fits)

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
    product with reference (a zero inner product keeps candidate).  The
    inner product is taken on each vector scaled by 2^-e, e its
    _exponent, as frobenius_norm scales, so it cannot overflow nor its
    leading terms underflow, and align_sign(2^i r, 2^j c) ==
    2^j align_sign(r, c) exactly.  A non-finite vector raises ValueError
    naming it; a zero candidate raises ZeroVector."""
    ref = np.asarray(reference, dtype=float).reshape(-1)
    cand = np.asarray(candidate, dtype=float).reshape(-1)
    if ref.shape != cand.shape:
        raise DimensionMismatch(
            f"vectors must have equal length, got {ref.shape[0]} vs {cand.shape[0]}"
        )
    for name, v in (("reference", ref), ("candidate", cand)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} vector is not finite")
    if not cand.any():
        raise ZeroVector("candidate vector is zero")
    r, c = (np.ldexp(v, -_exponent(v)) for v in (ref, cand))
    return cand if float(r @ c) >= 0.0 else -cand


def _decompose(X, E_dir, k: int, name: str, epsilon: float) -> tuple:
    """tall_problem's (Xo, Eo, swapped) with Eo scaled to unit Frobenius
    norm (a zero E_dir raises ZeroVector), the SVD of Xo, and its
    partition around triplet k.  Then, after every data error, the one
    guard on perturbation sizes: epsilon >= 0.1 * (spectral gap at k)
    raises ValueError, whose message calls epsilon name."""
    Xo, Eo, swapped = tall_problem(X, E_dir)
    # divided in the scaled form frobenius_norm sums in, so a direction
    # whose norm lies beyond the double range is still normalized
    Eo = np.ldexp(Eo, -_exponent(Eo))
    norm = frobenius_norm(Eo)
    if norm == 0.0:
        raise ZeroVector("direction E_dir has zero norm")
    full = svd(Xo)
    part = partition_svd(full, k)
    gap = triplet_gap(full, k)
    if epsilon >= 0.1 * gap:
        raise ValueError(
            f"{name} {epsilon} must stay below 0.1 * spectral gap ({0.1 * gap:.3e})"
        )
    return (Xo, Eo / norm, swapped), full, part


def _score_ladder(problem, full, part, eps0: float, scales, variants) -> list:
    """One list of ResidualSamples per variant over the rungs epsilon_i =
    eps0 * scales[i], for _decompose's problem, full and part.  _pivot_sweeps
    solves the stack Xo V0 + epsilon_i (Eo V0), V0 = full.V, on column k - 1
    (at epsilon 0 the triplet is full's own); v = V0 y.  Each exact vector is
    divided by its overlap with the unperturbed one, y[k - 1] or u @ u1, into
    the prediction's affine chart; _decompose's guard keeps both near 1.
    It also keeps every rung's singular value above 0.8 sigma_k (Weyl's
    inequality, as epsilon < 0.1 gap <= 0.2 sigma_k), so none is 0.  E is
    projected once, as eps0 * Eo, and _prediction scales each variant's
    corrections to rung i by scales[i]: bitwise expand_triplet at
    epsilon_i when that is a power of two, barring subnormals.
    """
    Xo, Eo, swapped = problem
    j = part.k - 1
    epsilons = [eps0 * s for s in scales]
    if eps0 == 0.0:
        rungs = [(float(full.S[j]), full.U[:, j], part.v1, 1.0)]
    else:
        stack = Xo @ full.V + np.multiply.outer(epsilons, Eo @ full.V)
        rungs = ((sigma, u, full.V @ y, float(y[j]))
                 for sigma, u, y in _pivot_sweeps(stack, j))
    exact = [(sigma, u / float(u @ part.u1), v / right)
             for sigma, u, v, right in rungs]
    sigmas, us, vs = (np.array(column) for column in zip(*exact))
    proj = compute_projections(part, eps0 * Eo)
    s = np.array(scales)[:, None]
    ladders = []
    for variant in variants:
        u, v, sigma = _prediction(
            part, variant_coefficients(part, proj, variant), variant, s)
        res_u, res_v = (np.sqrt(np.add.reduce(np.square(d), axis=1))
                        for d in (us - u, vs - v))
        res_sigma = np.abs(sigmas - sigma[:, 0])
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
    unit Frobenius norm.  The sizes measured are a ladder's: epsilon >= 0.1 *
    (spectral gap at triplet k) raises ValueError, after X's own errors.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    problem, full, part = _decompose(X, E_dir, k, "epsilon", epsilon)
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
    """Fit one MetricFit per metric of METRICS over a residual ladder.

    Samples in the noise floor are excluded per metric: the vector
    residuals are unit-free and floored at FLOOR_TOL, while res_sigma
    carries the units of X and is floored at FLOOR_TOL * sigma_max, the
    largest singular value of X, so the fit does not change when X and
    the ladder are scaled together.  Fewer than 3 survivors for any metric
    raises InsufficientSamples, naming the floor and the floored epsilons.
    """
    samples = tuple(samples)
    fits = []
    for metric in METRICS:
        field = "res_" + metric
        floor = FLOOR_TOL * (sigma_max if metric == "sigma" else 1.0)
        kept = [s for s in samples if getattr(s, field) > floor]
        if len(kept) < 3:
            floored = ", ".join(f"{s.epsilon:g}" for s in samples
                                if getattr(s, field) <= floor)
            raise InsufficientSamples(
                f"{field}: only {len(kept)} samples above the noise floor "
                f"{floor:.3g}; at or below it at epsilon {floored}")
        fits.append(MetricFit(metric, *fit_loglog_slope(
            [s.epsilon for s in kept], [getattr(s, field) for s in kept])))
    return ConvergenceReport(variant, samples, fits)


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
    triplet), residuals_at's guard, so that every rung tracks that triplet;
    epsilons that underflow fail the report's ladder check before any rung
    is solved.  Each rung's arithmetic is its own, so reports are bitwise
    reproducible and, with factor 0.5, every sample is residuals_at's at
    its epsilon.  The first rung that exhausts the sweep budget raises
    ConvergenceFailure.
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
    problem, full, part = _decompose(X, E_dir, k, "eps0", eps0)
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
    """One CATALOG row's evidence: "order_<metric>", the two orders and
    their separation, or "shape-audit" and the expected and printed dims."""

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
        evidence = "order_" + d.metric
        if not d.applies(n, p):
            cells, status = (evidence, None, None, None), "not applicable (n=p)"
        elif d.variant:
            good, bad = (reports[v].fit(d.metric).order
                         for v in (FormulaVariant.CORRECTED, d.variant))
            cells = (evidence, good, bad, good - bad)
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
