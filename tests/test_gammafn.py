import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopara.ball import validate_multi_index
from orthopara.classical import gegenbauer
from orthopara.contiguous import a_relation_pair
from orthopara.errors import DomainError, PoleError
from orthopara.gammafn import (
    POLE_TOL, _nonpositive_integer, beta, gamma, is_index, is_nonpositive_integer, log_gamma,
    pochhammer,
)
from orthopara.hyper import SNAP_TOL
from orthopara.paraboloid import jacobi_paraboloid, laguerre_paraboloid
from orthopara.transforms import A_t, SplitParams

SQRT_PI = 1.7724538509055160273
LOG_SQRT_PI = 0.57236494292470008707


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24)) < 1e-13
    assert abs(log_gamma(0.5) - LOG_SQRT_PI) < 1e-13


def test_gamma_values():
    assert abs(gamma(1.0) - 1) < 1e-14
    assert abs(gamma(4.0) - 6) < 1e-13
    assert abs(gamma(0.5) - SQRT_PI) < 1e-13


def test_strip_accuracy():
    # post-condition strip 0.5 <= Re z <= 10, |Im z| <= 40, plus the
    # reflection side Re z < 1/2, against mpmath's independent loggamma
    rng = np.random.default_rng(11)
    z = np.concatenate([
        rng.uniform(0.5, 10, 4000) + 1j * rng.uniform(-40, 40, 4000),
        rng.uniform(-6, 0.5, 500) + 1j * rng.uniform(-40, 40, 500),
    ])
    ref = np.array([complex(mpmath.loggamma(complex(v))) for v in z])
    rel = np.abs(np.expm1(log_gamma(z) - ref))
    assert rel.max() < 1e-12


def test_recurrence_property():
    rng = np.random.default_rng(5)
    z = rng.uniform(0.5, 8, 1000) + 1j * rng.uniform(-20, 20, 1000)
    lhs = gamma(z + 1)
    assert np.abs(lhs - z * gamma(z)).max() <= 1e-12 * np.abs(lhs).max()
    assert (np.abs(lhs - z * gamma(z)) / np.abs(lhs)).max() <= 1e-12


def test_reflection_property():
    rng = np.random.default_rng(6)
    z = rng.uniform(-4, 4, 500) + 1j * rng.uniform(0.1, 10, 500)
    val = gamma(z) * gamma(1 - z) * np.sin(np.pi * z) / np.pi
    assert np.abs(val - 1).max() < 1e-10


@given(st.complex_numbers(min_magnitude=0.1, max_magnitude=8, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_conjugate_symmetry(z):
    if z.real < 0.3 and abs(z - round(z.real)) < 1e-3:
        return
    assert gamma(np.conj(z)) == pytest.approx(np.conj(gamma(z)), rel=1e-12)


def test_pole_detection():
    for bad in (0.0, -1.0, -7.0, -3.0 + 5e-13j):
        with pytest.raises(PoleError):
            log_gamma(bad)
    assert bool(is_nonpositive_integer(-2 + 1e-13j))
    assert not bool(is_nonpositive_integer(-2 + 1e-6j))


@given(st.sampled_from([POLE_TOL, SNAP_TOL]), st.data())
@settings(max_examples=60, deadline=None)
def test_pole_rule_scalar_and_array_forms_agree(tol, data):
    # one rule in two forms: the scalar form (log_gamma's scalar path and
    # hyper's snaps) and the array form decide every point alike, at both
    # tolerances; points within and outside tol of -6..0, on either axis
    near = st.builds(lambda j, f, unit: j + f * tol * unit, st.integers(-6, 0),
                     st.sampled_from([0.5, -0.5, 2.0, -2.0]), st.sampled_from([1, 1j]))
    special = st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -0.5, 0.0,
                               complex(math.nan, 0.0), complex(-2.0, math.inf)])
    wide = st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False)
    z = data.draw(st.lists(st.one_of(near, special, wide), min_size=1, max_size=16))
    scalar = [_nonpositive_integer(v, tol) is not None for v in z]
    assert scalar == is_nonpositive_integer(np.array(z, dtype=complex), tol).tolist()


def test_overflow():
    with pytest.raises(OverflowError):
        gamma(300.0)


def test_beta_trivial():
    assert abs(beta(1.0, 1.0) - 1) < 1e-14
    assert abs(beta(2.0, 3.0) - 1 / 12) < 1e-14


def test_beta_integral_oracle():
    # frozen from tanh-sinh quadrature of x^{-0.3} (1-x)^{0.9} on (0,1)
    assert beta(0.7, 1.9) == pytest.approx(0.87325393169017922565, rel=1e-12)
    # independent adaptive quadrature on a second instance
    a, b = 1.3, 0.8
    ref = si.quad(lambda x: x ** (a - 1) * (1 - x) ** (b - 1), 0, 1)[0]
    assert beta(a, b) == pytest.approx(ref, rel=1e-9)


def test_beta_symmetry_and_domain():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = complex(rng.uniform(0.1, 4), rng.uniform(-3, 3))
        b = complex(rng.uniform(0.1, 4), rng.uniform(-3, 3))
        assert beta(a, b) == beta(b, a)
    with pytest.raises(DomainError):
        beta(-0.5, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, 0.0)


def test_pochhammer_basics():
    assert pochhammer(3.7 + 2j, 0) == 1
    assert pochhammer(3.0, 2) == 12
    assert pochhammer(-2.0, 4) == 0
    # a long order is the same product, which matches the log-gamma ratio
    import scipy.special as sp

    want = np.exp(sp.gammaln(81.3) - sp.gammaln(1.3))
    assert complex(pochhammer(1.3, 80)) == pytest.approx(want, rel=1e-12)


# every taker of an index, called with the index m
INDEX_TAKERS = {
    "pochhammer": lambda m: pochhammer(1.5, m),
    "gegenbauer": lambda m: gegenbauer(m, 0.8, 0.3),
    "validate_multi_index": lambda m: validate_multi_index((m, 0)),
    # the total degree of a paraboloid basis function and of a transform factor
    "jacobi_paraboloid": lambda m: jacobi_paraboloid(m, (0,), 0.5, 0.5, 0.5, 0.4, (0.1,)),
    "laguerre_paraboloid": lambda m: laguerre_paraboloid(m, (0,), 0.5, 0.5, 0.4, (0.1,)),
    "A_t": lambda m: A_t(m, (0,), SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1), 0.3),
    "a_relation_pair": lambda m: a_relation_pair(
        1, m, (0,), SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1), 1, 0.3, [0.2]),
}


@pytest.mark.parametrize("taker", list(INDEX_TAKERS))
@pytest.mark.parametrize("m", [True, False, np.bool_(True), 2.0, 2.5, -1, np.int64(-2), "1", None],
                         ids=repr)
def test_non_index_is_a_domain_error(taker, m):
    # one rule (gammafn.is_index) for every degree, order and multi-index
    # entry: a bool, a float or a negative number is refused with the
    # documented error, never read as an index and never a TypeError
    assert not is_index(m)
    with pytest.raises(DomainError):
        INDEX_TAKERS[taker](m)


@pytest.mark.parametrize("m", [0, 3, np.int64(2), np.uint8(1)], ids=repr)
def test_index_is_accepted(m):
    assert is_index(m)
    assert pochhammer(1.5, m) == math.prod(1.5 + j for j in range(int(m)))
    assert validate_multi_index((m, 0)) == (int(m), 0)


@given(
    st.complex_numbers(min_magnitude=0.2, max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_pochhammer_splitting(a, m, n):
    whole = pochhammer(a, m + n)
    split = pochhammer(a, m) * pochhammer(a + m, n)
    assert abs(whole - split) <= 1e-12 * max(abs(whole), 1e-30) + 1e-300


def test_log_gamma_scalar_matches_array_element():
    # scalars check the pole in Python and call loggamma once; the result is
    # the array path's element bit for bit, returned as a Python complex
    rng = np.random.default_rng(12)
    z = np.concatenate([
        rng.uniform(-6, 10, 300) + 1j * rng.uniform(-40, 40, 300),
        rng.uniform(-6, 10, 100),
        np.arange(1, 8) + 0.5,
    ])
    arr = log_gamma(z)
    for v, want in zip(z, arr):
        args = [complex(v), np.complex128(v)]
        if v.imag == 0:
            args += [v.real, np.float64(v.real)]
        for arg in args:
            got = log_gamma(arg)
            assert type(got) is complex
            assert got == want
    assert log_gamma(3) == log_gamma(np.array([3.0]))[0]


@pytest.mark.parametrize("pole", [0, -3])
def test_log_gamma_scalar_pole_band(pole):
    for off in (0.0, 9e-13, -9e-13, 9e-13j, 6e-13 + 6e-13j):
        for arg in (pole + off, np.complex128(pole + off)):
            with pytest.raises(PoleError):
                log_gamma(arg)
        with pytest.raises(PoleError):
            log_gamma(np.array([1.5, pole + off]))
    for off in (1.1e-12, -1.1e-12, 1.1e-12j):
        assert np.isfinite(log_gamma(pole + off))
        assert np.isfinite(log_gamma(np.array([pole + off]))[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(-3, math.nan),
                                 complex(math.nan, 0.5), complex(2, math.inf)])
def test_log_gamma_non_finite_argument(bad):
    # NaN and infinities are no pole: a non-finite value comes back, with no
    # raise and no warning, on the scalar and the array path
    got = log_gamma(bad)
    assert type(got) is complex and not cmath.isfinite(got)
    assert not cmath.isfinite(log_gamma(np.array([bad]))[0])


def test_pochhammer_scalar_matches_array_element():
    # a scalar multiplies as numpy scalars: real arguments match the array
    # element bit for bit; complex ones to rounding, since numpy's array loop
    # for complex multiplication may fuse the multiply-add
    rng = np.random.default_rng(13)
    real = rng.uniform(-4, 6, 40)
    cplx = real + 1j * rng.uniform(-3, 3, 40)
    for m in (0, 1, 3, 7, 64, 65):
        for a, kind in ((real, np.float64), (cplx, np.complex128)):
            arr = pochhammer(a, m)
            for v, want in zip(a.tolist(), arr):
                got = pochhammer(v, m)
                assert got == pochhammer(kind(v), m)
                if kind is np.float64:
                    assert type(got) is np.float64 and got == want
                else:
                    assert abs(got - want) <= 1e-14 * abs(want)


def test_pochhammer_long_orders_keep_the_product():
    # past order 64 the product still meets a zero factor and keeps the real
    # dtype, so the norms built on it stay real
    from orthopara.ball import ball_norm

    for a in (0.0, -3.0, -64.0):
        assert pochhammer(a, 65) == 0 and pochhammer(a, 200) == 0
    got = pochhammer(2.5, 65)
    assert type(got) is np.float64
    assert got == pytest.approx(math.prod(2.5 + i for i in range(65)), rel=1e-13)
    assert pochhammer(np.array([2.5, -3.0]), 65).dtype == np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = ball_norm((65,), 0.5)
    assert type(norm) is float and norm > 0


def test_pochhammer_integer_argument_does_not_wrap():
    # an int64 product of (10^6)_4 wraps; integer arguments multiply as float64
    want = 1e6 * (1e6 + 1) * (1e6 + 2) * (1e6 + 3)
    got = pochhammer(10**6, 4)
    assert type(got) is np.float64
    assert got == pytest.approx(want, rel=1e-15)
    arr = pochhammer(np.array([10**6, 3, 2 * 10**6], dtype=np.int64), 4)
    assert arr.dtype == np.float64
    assert arr == pytest.approx([want, 3 * 4 * 5 * 6, 2e6 * (2e6 + 1) * (2e6 + 2) * (2e6 + 3)],
                                rel=1e-15)
    assert pochhammer(np.int64(10**6), 4) == got
    assert pochhammer(3, 0) == 1 and pochhammer(3, 2) == 12
