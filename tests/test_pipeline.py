"""Pipeline properties over shape, triplet, scale and seed together.

verify either certifies the corrected expansion or refuses with one of
its documented errors; errata confirms every cataloged defect whenever
all of them apply.  Known failing families are strict xfails that name
the ROADMAP item meant to close them; they are not filtered out of the
strategies.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_instance, run_cli

import svdpert as sp
from svdpert.cli import R2_GATE
from svdpert.errors import InsufficientSamples

# Over 12,000 probe cases of test_verify_certifies_or_refuses, the orders
# of every certified run spanned [1.686, 2.594]: ladders that pass the r2
# gate can still be pre-asymptotic (12x5, k = 5, order_sigma 2.594 at
# r2 0.998).  The floor 1.5 lies halfway between first and second order,
# so a defect's order of about 1 still falls outside; the ceiling leaves
# 0.4 above the largest order seen.
ORDER_BAND = (1.5, 3.0)

# (n, p, k) with n and p in 1..12 and k in 1..min(n, p)
shapes = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda s: st.tuples(st.just(s[0]), st.just(s[1]), st.integers(1, min(s)))
)


def _problem(n, p, j, seed):
    """2^j times a normal n x p matrix and a unit direction, both drawn
    from one stream."""
    gen = sp.SplitMix64(seed)
    X = np.ldexp(gen.normal_matrix(n, p), j)
    D = gen.normal_matrix(n, p)
    return X, D / sp.frobenius_norm(D)


def _gap_eps0(X, k):
    """The largest power of two at or below 0.05 times the gap at k, the
    scale-free default eps0 that ROADMAP item 9 proposes."""
    gap = sp.triplet_gap(sp.svd(X), k)
    return math.ldexp(0.5, math.frexp(0.05 * gap)[1])


def _assert_certified(report, orders):
    assert report.min_r2 >= R2_GATE
    for order in orders:
        assert ORDER_BAND[0] <= order <= ORDER_BAND[1]


@settings(max_examples=150, deadline=None)
@given(shape=shapes, j=st.integers(-900, 900),
       seed=st.integers(0, 2**64 - 1))
@example(shape=(5, 3, 1), j=0, seed=0)
@example(shape=(7, 4, 4), j=900, seed=1)
@example(shape=(3, 8, 2), j=-900, seed=2)
def test_verify_certifies_or_refuses(shape, j, seed):
    n, p, k = shape
    X, E = _problem(n, p, j, seed)
    try:
        report = sp.convergence_ladder(X, E, k=k, eps0=_gap_eps0(X, k))
    except (sp.GapTooSmall, InsufficientSamples, sp.TripletMatchAmbiguous):
        return  # refused: exit 3 for the gap, exit 4 for the other two
    if report.min_r2 < R2_GATE:
        return  # refused: exit 4
    _assert_certified(
        report, (report.order_u, report.order_v, report.order_sigma))


@pytest.mark.xfail(raises=InsufficientSamples, reason=(
    "the length-1 singular vector is exact, so its residual is 0 on every "
    "rung and no order can be fitted; ROADMAP item 10"))
@pytest.mark.parametrize("n, p", [(2, 1), (12, 1), (1, 2), (1, 12)])
def test_thin_shapes_certify(n, p):
    X, E = _problem(n, p, 0, seed=n + p)
    report = sp.convergence_ladder(X, E, eps0=_gap_eps0(X, 1))
    long_side = report.order_u if n > 1 else report.order_v
    _assert_certified(report, (long_side, report.order_sigma))


@pytest.mark.parametrize("j", [
    0,
    pytest.param(40, marks=pytest.mark.xfail(
        raises=InsufficientSamples, reason=(
            "the absolute default eps0 = 1e-2 puts every residual of 2^40 X "
            "in the noise floor; ROADMAP item 9"))),
    pytest.param(-40, marks=pytest.mark.xfail(
        raises=ValueError, reason=(
            "the absolute default eps0 = 1e-2 exceeds 0.1 times the gap of "
            "2^-40 X; ROADMAP item 9"))),
])
def test_default_eps0_certifies_scaled_input(j):
    X, E = make_instance(6, 4, seed=3)
    report = sp.convergence_ladder(np.ldexp(X, j), E)
    _assert_certified(
        report, (report.order_u, report.order_v, report.order_sigma))


@settings(max_examples=40, deadline=None)
@given(shape=st.integers(3, 12).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
       seed=st.integers(0, 2**64 - 1))
@example(shape=(5, 3), seed=0)
@example(shape=(12, 11), seed=2**64 - 1)  # direction seed wraps to 0
def test_errata_confirms_every_row(shape, seed):
    n, p = shape
    code, stdout, err = run_cli(
        ["errata", "--n", str(n), "--p", str(p), "--seed", str(seed)])
    assert code == 0, err
    rows = stdout.splitlines()[1:]
    assert len(rows) == len(sp.CATALOG)
    assert all(row.endswith(",confirmed") for row in rows), stdout
