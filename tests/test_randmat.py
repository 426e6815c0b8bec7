"""Generator tests: pinned PRNG stream, spectrum specs, seeded factories.

The PRNG oracle is an independent pure-int reimplementation of the
documented update, plus the published seed-0 test vector.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import run_cli

import svdpert as sp
import svdpert.randmat
from svdpert.errors import RankDeficient

MASK = (1 << 64) - 1


def ref_splitmix_next(state):
    """Independent reference for one 64-bit output. Returns (state, out)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


# -------------------------------------------------------------- raw stream

def test_stream_matches_reference_many_seeds():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        gen = sp.SplitMix64(seed)
        state = seed
        for _ in range(16):
            state, expect = ref_splitmix_next(state)
            assert gen.next_u64() == expect


def test_stream_seed_zero_known_vector():
    # widely published first outputs for this mix with seed 0
    gen = sp.SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_normal_pair_matches_reference_arithmetic():
    # replay the documented Box-Muller consumption by hand
    seed = 123
    state = seed
    state, a = ref_splitmix_next(state)
    state, b = ref_splitmix_next(state)
    u1 = ((a >> 11) + 1) * 2.0**-53
    u2 = (b >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    z0 = r * math.cos(2.0 * math.pi * u2)
    z1 = r * math.sin(2.0 * math.pi * u2)
    gen = sp.SplitMix64(seed)
    assert gen.next_normal() == z0
    assert gen.next_normal() == z1


def test_normals_are_standardish():
    gen = sp.SplitMix64(77)
    z = np.array([gen.next_normal() for _ in range(4000)])
    assert abs(z.mean()) < 0.1
    assert 0.9 < z.std() < 1.1


def ref_normals(seed, shapes):
    """Scalar replay of the documented Box-Muller consumption on the
    reference stream, one draw at a time, with the spare carried across
    matrices."""
    state = seed
    spare = None
    out = []
    for rows, cols in shapes:
        vals = []
        for _ in range(rows * cols):
            if spare is not None:
                vals.append(spare)
                spare = None
                continue
            state, a = ref_splitmix_next(state)
            state, b = ref_splitmix_next(state)
            u1 = ((a >> 11) + 1) * 2.0**-53
            u2 = (b >> 11) * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            vals.append(r * math.cos(2.0 * math.pi * u2))
            spare = r * math.sin(2.0 * math.pi * u2)
        out.append(np.array(vals).reshape((rows, cols), order="F"))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
@example(0)
@example(2**64 - 1)
def test_normal_matrix_matches_scalar_replay(seed):
    # odd counts leave a spare; it carries from the 5x3 draw into the 3x3
    # one, as in matrix_with_spectrum, and on into the single draws
    shapes = [(5, 3), (3, 3), (1, 1), (2, 1), (41, 25), (1, 1)]
    want = ref_normals(seed, shapes + [(1, 1)])
    gen = sp.SplitMix64(seed)
    for w, shape in zip(want, shapes):
        got = gen.normal_matrix(*shape)
        assert got.shape == shape
        assert got.tobytes() == w.tobytes()
    assert gen.next_normal() == want[-1][0, 0]


def test_normal_matrix_rejects_bad_dims():
    gen = sp.SplitMix64(0)
    for rows, cols in ((2.0, 3), (3, True), (-1, 3)):
        with pytest.raises(ValueError):
            gen.normal_matrix(rows, cols)


def test_normal_matrix_fills_column_major():
    flat = sp.SplitMix64(5)
    expect = [flat.next_normal() for _ in range(6)]
    a = sp.SplitMix64(5).normal_matrix(3, 2)
    assert list(a[:, 0]) == expect[:3]
    assert list(a[:, 1]) == expect[3:]


# ------------------------------------------------------------ spectrum spec

def test_spectrum_spec_accepts_valid():
    spec = sp.SpectrumSpec(n=4, p=3, singular_values=(3.0, 2.0, 1.0), seed=0)
    assert spec.singular_values == (3.0, 2.0, 1.0)
    # numpy integers count as integers and are stored as Python ints
    spec = sp.SpectrumSpec(n=np.int64(4), p=np.int32(3),
                           singular_values=(3.0, 2.0, 1.0), seed=np.uint64(5))
    assert (spec.n, spec.p, spec.seed) == (4, 3, 5)
    assert all(type(v) is int for v in (spec.n, spec.p, spec.seed))


def test_spectrum_spec_single_value_gap_is_infinite():
    spec = sp.SpectrumSpec(n=3, p=1, singular_values=(2.0,), seed=0)
    assert spec.singular_values == (2.0,)


def test_spectrum_spec_all_zero_allowed():
    spec = sp.SpectrumSpec(n=3, p=2, singular_values=(0.0, 0.0), seed=0)
    assert spec.singular_values == (0.0, 0.0)


def test_spectrum_spec_rejections():
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=2, p=3, singular_values=(3.0, 2.0, 1.0), seed=0)
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=2, singular_values=(1.0, 3.0), seed=0)
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=2, singular_values=(3.0, -1.0), seed=0)
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=2, singular_values=(3.0,), seed=0)
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=2, singular_values=(3.0, 3.0), seed=0)
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=2, singular_values=(3.0, math.nan), seed=0)
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=2, singular_values=(3.0, 1.0), seed=-1)
    # bool subclasses int but is not accepted as a seed or a dim
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=2, singular_values=(3.0, 1.0), seed=True)
    with pytest.raises(ValueError):
        sp.SpectrumSpec(n=3, p=True, singular_values=(3.0,), seed=0)
    with pytest.raises(ValueError):
        sp.SplitMix64(True)


# ------------------------------------------------------------ seeded factory

def test_matrix_with_spectrum_round_trip_50_specs():
    shapes = [(3, 2), (4, 3), (5, 3), (6, 4), (8, 5), (12, 8), (7, 7), (9, 2),
              (10, 6), (11, 4)]
    count = 0
    for i, (n, p) in enumerate(shapes):
        for rep in range(5):
            sv = tuple(3.0 * 0.8**j for j in range(p))
            spec = sp.SpectrumSpec(n=n, p=p, singular_values=sv,
                                   seed=1000 + 37 * i + rep)
            x = sp.matrix_with_spectrum(spec)
            assert x.shape == (n, p)
            got = sp.svd(x).S
            for j in range(p):
                assert abs(got[j] - sv[j]) <= 1e-12 * sv[j]
            count += 1
    assert count == 50


def test_matrix_with_spectrum_zero_is_zero_matrix():
    spec = sp.SpectrumSpec(n=3, p=2, singular_values=(0.0, 0.0), seed=9)
    assert np.array_equal(sp.matrix_with_spectrum(spec), np.zeros((3, 2)))


def test_matrix_with_spectrum_deterministic_bitwise():
    spec = sp.SpectrumSpec(n=5, p=3, singular_values=(3.0, 2.0, 1.0), seed=4)
    assert np.array_equal(sp.matrix_with_spectrum(spec),
                          sp.matrix_with_spectrum(spec))


def test_matrix_with_spectrum_seed_changes_matrix():
    sv = (3.0, 2.0, 1.0)
    a = sp.matrix_with_spectrum(sp.SpectrumSpec(n=5, p=3, singular_values=sv, seed=1))
    b = sp.matrix_with_spectrum(sp.SpectrumSpec(n=5, p=3, singular_values=sv, seed=2))
    assert not np.array_equal(a, b)


def test_matrix_with_spectrum_retries_a_rank_deficient_draw(monkeypatch):
    # one failed factorization moves to the next seed, wrapping at 2^64
    real = svdpert.randmat.qr_orthonormal
    calls = []

    def fails_once(a):
        calls.append(a)
        if len(calls) == 1:
            raise RankDeficient("forced")
        return real(a)

    spec = sp.SpectrumSpec(n=5, p=3, singular_values=(3.0, 2.0, 1.0),
                           seed=2**64 - 1)
    monkeypatch.setattr(svdpert.randmat, "qr_orthonormal", fails_once)
    got = sp.matrix_with_spectrum(spec)
    monkeypatch.undo()
    want = sp.matrix_with_spectrum(sp.SpectrumSpec(
        n=5, p=3, singular_values=(3.0, 2.0, 1.0), seed=0))
    assert got.tobytes() == want.tobytes()


def test_matrix_with_spectrum_gives_up_after_the_last_attempt(monkeypatch,
                                                               tmp_path):
    calls = []

    def fails(a):
        calls.append(a)
        raise RankDeficient("forced")

    monkeypatch.setattr(svdpert.randmat, "qr_orthonormal", fails)
    spec = sp.SpectrumSpec(n=5, p=3, singular_values=(3.0, 2.0, 1.0), seed=4)
    with pytest.raises(RankDeficient, match="no full-rank normal draw"):
        sp.matrix_with_spectrum(spec)
    assert len(calls) == svdpert.randmat.MAX_SPECTRUM_ATTEMPTS
    out = tmp_path / "x.mtx"
    code, stdout, err = run_cli(["gen", "--n", "5", "--p", "3", "--sv",
                                 "3,2,1", "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert "no full-rank normal draw" in err
    assert not out.exists()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_matrix_with_spectrum_property(seed):
    n, p = 6, 4
    sv = (2.0, 1.5, 1.0, 0.5)
    x = sp.matrix_with_spectrum(sp.SpectrumSpec(n=n, p=p, singular_values=sv,
                                                seed=seed))
    got = sp.svd(x).S
    assert np.all(np.abs(got - np.array(sv)) <= 1e-12 * 2.0)


# -------------------------------------------------------- direction factory

def test_perturbation_direction_unit_norm():
    e = sp.perturbation_direction(5, 3, 0)
    assert e.shape == (5, 3)
    assert abs(sp.frobenius_norm(e) - 1.0) <= 1e-15


def test_perturbation_direction_rejects_bad_dims():
    for n, p in ((True, 3), (2.0, 3), (3, 1.0), (0, 3)):
        with pytest.raises(ValueError):
            sp.perturbation_direction(n, p, 1)


def test_perturbation_direction_deterministic_and_seed_sensitive():
    a = sp.perturbation_direction(4, 4, 7)
    b = sp.perturbation_direction(4, 4, 7)
    c = sp.perturbation_direction(4, 4, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
