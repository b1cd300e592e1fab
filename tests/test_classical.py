import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthopara.classical import (
    continuous_hahn, gegenbauer, gegenbauer_homogeneous, gegenbauer_norm, hahn_3f2,
    jacobi, jacobi_norm, laguerre, laguerre_norm, meixner_pollaczek_2f1,
)
from orthopara.errors import DenominatorPoleError, DomainError
from orthopara.gammafn import pochhammer
from orthopara.hyper import hyp_terminating
from orthopara.quadrature import gauss_jacobi, gauss_laguerre
from references import gegenbauer_homogeneous_sum


def test_gegenbauer_values():
    assert gegenbauer(0, 1.5, 0.3) == 1.0
    x, mu = 0.42, 0.9
    assert gegenbauer(1, mu, x) == pytest.approx(2 * mu * x, rel=1e-14)
    assert gegenbauer(2, 1.0, 0.0) == pytest.approx(-1.0, rel=1e-13)


def test_gegenbauer_parity():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 50)
    for m in range(7):
        mu = rng.uniform(-0.4, 2.5)
        lhs = gegenbauer(m, mu, -x)
        rhs = (-1.0) ** m * gegenbauer(m, mu, x)
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(np.abs(rhs).max(), 1.0)


# The hypergeometric definitions of the docstrings, summed as series: the
# reference for scipy's recurrences at low degree.
SERIES = {
    "gegen": (gegenbauer, lambda m, mu, x: pochhammer(2.0 * mu, m) / math.factorial(m)
              * hyp_terminating([-m, m + 2 * mu], [mu + 0.5], (1 - x) / 2)),
    "jacobi": (jacobi, lambda m, a, b, t: pochhammer(a + 1.0, m) / math.factorial(m)
               * hyp_terminating([-m, m + a + b + 1], [a + 1], (1 - t) / 2)),
    "laguerre": (laguerre, lambda m, a, t: pochhammer(a + 1.0, m) / math.factorial(m)
                 * hyp_terminating([-m], [a + 1], t)),
}
_BOX = np.linspace(-1, 1, 7)
POINTS = {
    # real points on both sides of 0 (for Laguerre, its half line and some
    # negative points), and complex points in the unit box
    "real": np.linspace(-1, 1, 41),
    "real_laguerre": np.linspace(-3, 12, 46),
    "complex": (_BOX[:, None] + 1j * _BOX[None, :]).ravel(),
}


# (family, params, relative tolerance): the series loses up to 2e-11 of the
# largest value near t = -1, where its argument (1 - t)/2 nears 1 (scipy's
# recurrence stays within 3e-15 of mpmath there)
SERIES_ROWS = [
    ("gegen", (-0.3,), 1e-10), ("gegen", (0.0,), 1e-10), ("gegen", (1e-9,), 1e-10),
    ("gegen", (0.8,), 1e-10), ("gegen", (2.5,), 1e-10),
    ("jacobi", (-0.6, 2.0), 1e-10), ("jacobi", (0.3, 1.7), 1e-10),
    ("jacobi", (2.0, -0.6), 1e-10), ("jacobi", (-0.5, -0.5), 1e-10),
    ("laguerre", (-0.6,), 1e-10), ("laguerre", (0.5,), 1e-10), ("laguerre", (2.5,), 1e-10),
]


@pytest.mark.parametrize("family,params,rel", SERIES_ROWS)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_matches_hypergeometric_series(family, params, rel, kind):
    evaluator, series = SERIES[family]
    x = POINTS["real_laguerre" if (family, kind) == ("laguerre", "real") else kind]
    zero_mu = family == "gegen" and params == (0.0,)
    for m in range(9):
        got, want = evaluator(m, *params, x), series(m, *params, x)
        assert np.abs(got - want).max() <= rel * np.abs(want).max(), m
        if zero_mu and m >= 1:
            assert not np.any(got)  # C_m^(0) = 0 for m >= 1


@pytest.mark.parametrize("z", [0.5, 0.5 + 0.1j])
@pytest.mark.parametrize("m,mu", [(0, 0.0), (5, 90.0), (5, 200.0)])
def test_gegenbauer_large_or_zero_mu(m, mu, z):
    # C_0^(0) = 1, and mu with Gamma(2 mu) beyond float range: finite values
    # that a Gamma(m + 2 mu) / Gamma(2 mu) prefactor would turn into nan
    want = SERIES["gegen"][1](m, mu, z)
    assert np.isfinite(want)
    assert abs(gegenbauer(m, mu, z) - want) <= 1e-12 * abs(want)


def test_gegenbauer_norm_values():
    assert gegenbauer_norm(0, 1.0) == pytest.approx(math.pi / 2, rel=1e-13)
    assert gegenbauer_norm(2, 1.0) == pytest.approx(math.pi / 2, rel=1e-13)
    with pytest.raises(DomainError):
        gegenbauer_norm(1, 0.0)


def test_gegenbauer_norm_quadrature():
    mu = 1.0
    rule = gauss_jacobi(40, mu - 0.5, mu - 0.5)
    val = np.sum(rule.weights * gegenbauer(2, mu, rule.nodes) ** 2)
    assert val == pytest.approx(gegenbauer_norm(2, mu), rel=1e-12)


def test_jacobi_values():
    assert jacobi(0, 0.5, 1.5, 0.3) == 1.0
    a, b, t = 0.7, 1.1, -0.2
    assert jacobi(1, a, b, t) == pytest.approx((a + 1) - (a + b + 2) * (1 - t) / 2, rel=1e-14)
    # frozen brute-force series value
    assert jacobi(3, 0.5, 1.5, 0.2) == pytest.approx(-0.1365, rel=1e-13)


def test_jacobi_norm():
    assert jacobi_norm(0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert jacobi_norm(1, 0.0, 0.0) == pytest.approx(2 / 3, rel=1e-14)
    # a + b = -1: h_0 = 2^{a+b+1} B(a+1, b+1), where the general form is 0/0
    assert jacobi_norm(0, -0.5, -0.5) == pytest.approx(math.pi, rel=1e-14)
    rule = gauss_jacobi(30, 0.0, 0.0)
    val = np.sum(rule.weights * jacobi(1, 0.0, 0.0, rule.nodes) ** 2)
    assert val == pytest.approx(2 / 3, rel=1e-12)


def test_laguerre_values():
    assert laguerre(0, 0.3, 1.7) == 1.0
    a, t = 0.9, 2.3
    assert laguerre(1, a, t) == pytest.approx(a + 1 - t, rel=1e-14)
    assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, rel=1e-13)


def test_laguerre_norm():
    assert laguerre_norm(0, 0.0) == 1.0
    assert laguerre_norm(1, 0.0) == pytest.approx(1.0, rel=1e-14)
    rule = gauss_laguerre(12, 0.0)
    val = np.sum(rule.weights * laguerre(1, 0.0, rule.nodes) ** 2)
    assert val == pytest.approx(1.0, rel=1e-12)
    rule = gauss_laguerre(8, 0.5)
    val = np.sum(rule.weights * laguerre(2, 0.5, rule.nodes) ** 2)
    assert val == pytest.approx(laguerre_norm(2, 0.5), rel=1e-12)


@pytest.mark.parametrize(
    "family,norm,weight_rule,params",
    [
        ("gegen", None, None, (0.8,)),
        ("gegen", None, None, (1.7,)),
        ("jacobi", None, None, (0.4, 1.3)),
        ("jacobi", None, None, (-0.3, 0.9)),
        ("laguerre", None, None, (0.6,)),
        ("laguerre", None, None, (-0.4,)),
    ],
)
def test_orthogonality_gram(family, norm, weight_rule, params):
    n_nodes = 40
    if family == "gegen":
        (mu,) = params
        rule = gauss_jacobi(n_nodes, mu - 0.5, mu - 0.5)
        poly = lambda m, x: gegenbauer(m, mu, x)
        norm_of = lambda m: gegenbauer_norm(m, mu)
    elif family == "jacobi":
        a, b = params
        rule = gauss_jacobi(n_nodes, a, b)
        poly = lambda m, x: jacobi(m, a, b, x)
        norm_of = lambda m: jacobi_norm(m, a, b)
    else:
        (a,) = params
        rule = gauss_laguerre(n_nodes, a)
        poly = lambda m, x: laguerre(m, a, x)
        norm_of = lambda m: laguerre_norm(m, a)
    vals = [poly(m, rule.nodes) for m in range(7)]
    for m in range(7):
        diag = norm_of(m)
        for n in range(m, 7):
            entry = np.sum(rule.weights * vals[m] * vals[n])
            if m == n:
                assert entry == pytest.approx(diag, rel=1e-10)
            else:
                assert abs(entry) <= 1e-10 * math.sqrt(diag * norm_of(n))


def test_continuous_hahn_values():
    assert continuous_hahn(0, 0.7, 1.1, 0.9, 1.3, 0.37) == 1.0
    a, b, c, d, x = 0.7, 1.1, 0.9, 1.3, 0.37
    want = 1j * ((a + c) * (a + d) - (a + b + c + d) * (a + 1j * x))
    assert continuous_hahn(1, a, b, c, d, x) == pytest.approx(want, rel=1e-14)
    # frozen brute-force series value
    assert continuous_hahn(2, 1.0, 1.0, 1.0, 1.0, 0.5) == pytest.approx(0.75, rel=1e-13)


def test_continuous_hahn_direct_summation():
    # independent direct summation with inline rising-factorial products
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = int(rng.integers(0, 5))
        a, b, c, d = rng.uniform(0.3, 2.0, 4)
        x = rng.uniform(-2, 2)
        total = 0j
        for j in range(m + 1):
            term = 1.0 / math.factorial(j)
            for i in range(j):
                term *= (-m + i) * (m + a + b + c + d - 1 + i) * (a + 1j * x + i)
                term /= (a + c + i) * (a + d + i)
            total += term
        pref = 1j**m / math.factorial(m)
        for i in range(m):
            pref *= (a + c + i) * (a + d + i)
        want = pref * total
        got = continuous_hahn(m, a, b, c, d, x)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-10)


def test_continuous_hahn_singular_sigma_and_sigma_one():
    # sigma = a+b+c+d on an integer in [2 - 2m, 0] zeroes a denominator of
    # the recurrence in x, as it does hahn_3f2's; sigma = 1 is no pole (A_0
    # is written cancelled), and there the value is the series'
    x = np.array([0.37, -1.2 + 0.4j])
    a, c, d = 0.4, 0.3, 0.5
    for m in (1, 2, 4):
        for sigma in range(2 - 2 * m, 1):
            for s in (float(sigma), sigma + 1e-10):
                with pytest.raises(DomainError, match="singular at sigma"):
                    continuous_hahn(m, a, s - a - c - d, c, d, x)
        for s in (1.0, 1 + 1e-10, 3 - 2 * m - 0.5):
            b = s - a - c - d
            got = continuous_hahn(m, a, b, c, d, x)
            want = (1j**m * pochhammer(a + c, m) * pochhammer(a + d, m) / math.factorial(m)
                    * hyp_terminating([-m, m + s - 1, a + 1j * x], [a + c, a + d], 1.0))
            assert np.allclose(got, want, rtol=1e-13, atol=0), (m, s)
    # degree 0 has no denominator: ones, one per point
    assert np.array_equal(continuous_hahn(0, a, -a - c - d, c, d, x), np.ones(2))
    # an a+c or a+d on -j, j < m, is the series' pole, with its message,
    # although the monic recurrence itself would run through it
    b = 1.1
    for e in (-1.0, -2.0, -2 + 1e-10, 0.0):
        for c, d in ((e - a, 0.5), (0.5, e - a)):
            with pytest.raises(DenominatorPoleError) as got:
                continuous_hahn(3, a, b, c, d, x)
            with pytest.raises(DenominatorPoleError) as want:
                hyp_terminating([-3, 3 + a + b + c + d - 1, a + 1j * x], [a + c, a + d], 1.0)
            assert str(got.value) == str(want.value)
    # a pole at or past the degree is never reached
    for e in (-3.0, -3 + 1e-10, -4.0):
        assert np.all(np.isfinite(continuous_hahn(3, a, b, e - a, 0.5, x)))


def _largest_term(numerator, denominator, z, n):
    # the largest |term| of the terminating series: its rounding scale
    term, big = 1.0, 1.0
    for m in range(n):
        term *= z / (m + 1)
        for a in numerator:
            term *= a + m
        for b in denominator:
            term /= b + m
        big = max(big, abs(term))
    return big


def test_recurrences_match_the_series():
    # the two recurrences against hyp_terminating, degrees 0-8, at scalar
    # points and on arrays of points, real and complex; tolerance 1e-13 of
    # the series' largest term (the series' own rounding scale)
    rng = np.random.default_rng(21)
    for _ in range(40):
        sigma, e, f = rng.uniform(0.2, 4.0, 3).tolist()
        z = rng.uniform(-3, 3, 6)
        if rng.integers(2):
            z = z + 1j * rng.uniform(-4, 4, 6)
        for n in range(9):
            for zz in (z, *z.tolist()):
                got = hahn_3f2(n, sigma, zz, e, f)
                want = hyp_terminating([-n, n + sigma - 1, zz], [e, f], 1.0)
                big = max(_largest_term([-n, n + sigma - 1, w], [e, f], 1.0, n)
                          for w in np.atleast_1d(zz))
                assert np.shape(got) == np.shape(zz)
                assert np.abs(got - want).max() <= 1e-13 * big, (n, sigma, e, f)
                got = meixner_pollaczek_2f1(n, zz, e)
                want = hyp_terminating([-n, zz], [e], 2.0)
                big = max(_largest_term([-n, w], [e], 2.0, n) for w in np.atleast_1d(zz))
                assert np.shape(got) == np.shape(zz)
                assert np.abs(got - want).max() <= 1e-13 * big, (n, e)


def test_recurrence_poles_and_singular_sigma():
    z = np.array([0.3 + 1j, -0.7])
    # a denominator parameter -j, j < n, is the series' pole, with its message
    for e in (-1.0, -2.0, -2 + 1e-10, 0.0):
        for evaluate in (lambda: hahn_3f2(3, 2.5, z, e, 1.3), lambda: hahn_3f2(3, 2.5, z, 1.3, e),
                         lambda: meixner_pollaczek_2f1(3, z, e)):
            with pytest.raises(DenominatorPoleError) as got:
                evaluate()
            with pytest.raises(DenominatorPoleError) as want:
                hyp_terminating([-3, z], [e], 2.0)
            assert str(got.value) == str(want.value)
    # a pole at or past the degree is never reached
    for e in (-3.0, -3 + 1e-10, -4.0):
        assert np.all(np.isfinite(hahn_3f2(3, 2.5, z, e, 1.3)))
        assert np.all(np.isfinite(meixner_pollaczek_2f1(3, z, e)))
    # sigma on an integer in [2 - 2n, 0] zeroes a recurrence denominator
    for n in (1, 2, 4):
        for sigma in range(2 - 2 * n, 1):
            for s in (float(sigma), sigma + 1e-10):
                with pytest.raises(DomainError, match="singular at sigma"):
                    hahn_3f2(n, s, z, 1.2, 1.7)
        for s in (1 - 2 * n, 1.0, 0.5, -0.5):
            want = hyp_terminating([-n, n + s - 1, z], [1.2, 1.7], 1.0)
            assert np.allclose(hahn_3f2(n, s, z, 1.2, 1.7), want, rtol=1e-12)
    # a coefficient lost to overflow ((2k+sigma)^2 = inf) is a DomainError,
    # not a ZeroDivisionError; the true value overflows too
    with pytest.raises(DomainError, match="vanishes"):
        hahn_3f2(3, 1e200, 0.5 + 1j, 1.3, 2.0)
    with pytest.raises(DomainError):
        hahn_3f2(1.0, 2.5, z, 1.2, 1.7)
    with pytest.raises(DomainError):
        meixner_pollaczek_2f1(-1, z, 1.2)
    # NaN flows through, as in the series
    assert np.isnan(hahn_3f2(2, math.nan, 0.3, 1.2, 1.7))
    assert np.isnan(meixner_pollaczek_2f1(2, 0.3, math.nan))


@given(st.integers(0, 6), st.floats(0.3, 2.5), st.floats(-0.9, 0.9), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_homogeneous_gegenbauer(m, lam, u, s):
    got = gegenbauer_homogeneous(m, lam, u, s)
    want = s ** (m / 2) * gegenbauer(m, lam, u / math.sqrt(s))
    assert abs(got - complex(want).real) <= 1e-11 * max(abs(want), 1.0)


@given(st.integers(0, 8), st.floats(0.0, 3.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
@example(8, 1.3, 0.7, 0.0)
@example(7, 0.0, 0.4, 0.6)
@example(2, 1e-110, 0.0, 1.0)
@settings(max_examples=200, deadline=None)
def test_homogeneous_recurrence_matches_explicit_sum(m, lam, u, s):
    # the whole square [-1, 1] x [0, 1], s = 0 and |u| > sqrt(s) included,
    # against the sum, to its rounding scale (the sum of its terms' sizes)
    # above the underflow floor; a lam as small as 1e-110 must survive the
    # recurrence coefficient k - 1 + 2 lam at k = 1
    got = gegenbauer_homogeneous(m, lam, u, s)
    want = gegenbauer_homogeneous_sum(m, lam, u, s)
    assert abs(got - want) <= 1e-13 * gegenbauer_homogeneous_sum(m, lam, abs(u), -s) + 1e-300


def test_homogeneous_broadcasts_and_keeps_scalars():
    u, s = np.linspace(-1, 1, 5), np.linspace(0, 1, 3)[:, None]
    for m in range(6):
        got = gegenbauer_homogeneous(m, 1.3, u, s)
        assert got.shape == (3, 5)
        assert np.all(np.abs(got - gegenbauer_homogeneous_sum(m, 1.3, u, s))
                      <= 1e-14 * gegenbauer_homogeneous_sum(m, 1.3, abs(u), -s))
        # lam = 0: every degree >= 1 vanishes, as in the sum
        assert np.all(gegenbauer_homogeneous(m, 0.0, u, s) == (m == 0))
    assert np.isscalar(gegenbauer_homogeneous(3, 1.3, 0.2, 0.5))
    # |u| > sqrt(s), out of reach of C_m(u / sqrt(s)) on [-1, 1]: U_2(2) = 15
    assert gegenbauer_homogeneous(2, 1.0, 2.0, 1.0) == 15.0


def test_homogeneous_at_zero_radicand():
    # polynomial in (u, s): no division at s = 0; the only surviving monomial
    # of H_3 at s = 0 is (lam)_3 / 3! (2u)^3
    val = gegenbauer_homogeneous(3, 0.8, 0.5, 0.0)
    want = (0.8 * 1.8 * 2.8) / 6.0 * 1.0
    assert val == pytest.approx(want, rel=1e-13)
    assert val == pytest.approx(0.672, rel=1e-13)


def test_domain_errors():
    with pytest.raises(DomainError):
        gegenbauer(1, -0.6, 0.2)
    with pytest.raises(DomainError):
        jacobi(1, -1.1, 0.0, 0.2)
    with pytest.raises(DomainError):
        laguerre(1, -1.2, 0.2)
