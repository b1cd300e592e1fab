import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopara.errors import DomainError, PoleError
from orthopara.gammafn import beta, gamma, is_nonpositive_integer, log_gamma, pochhammer

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
    mpmath = pytest.importorskip("mpmath")
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
    # long orders go through the log-gamma ratio
    import scipy.special as sp

    want = np.exp(sp.gammaln(81.3) - sp.gammaln(1.3))
    assert complex(pochhammer(1.3, 80)) == pytest.approx(want, rel=1e-12)


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
