"""The four 1-D families everything is built from: Gegenbauer, Jacobi,
Laguerre, and continuous Hahn, plus their norm constants.

Jacobi and Laguerre polynomials are scipy's ``eval_jacobi`` and
``eval_genlaguerre``, which run the three-term recurrences in the degree
(DLMF 18.9); Gegenbauer polynomials are Jacobi polynomials times a ratio of
Pochhammer symbols.  At a complex point ``eval_jacobi`` sums the 2F1 series,
so Jacobi and Gegenbauer raise DomainError there above ``COMPLEX_MAX_DEGREE``.
The tests compare all three with the hypergeometric definitions quoted in
each docstring.  The homogenized Gegenbauer factor of the ball and
paraboloid bases runs the Gegenbauer recurrence (DLMF 18.9.1) times
s^{(k+1)/2}.
Continuous Hahn polynomials are summed as their terminating 3F2 series.
The 3F2 at 1 and the 2F1 at 2 of the closed-form transform factors run the
three-term recurrences in the degree of the continuous Hahn and the
Meixner-Pollaczek polynomials (``hahn_3f2``, ``meixner_pollaczek_2f1``), so
the series and the recurrence are two independent computations of one
polynomial.
Norms go through log space so Gamma ratios cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError
from .gammafn import _nonpositive_integer, cexp, is_index, log_gamma, pochhammer
from .hyper import SNAP_TOL, _check_poles, hyp_terminating


COMPLEX_MAX_DEGREE = 10  # the complex 2F1 series holds 1e-12 to about here


def _check_degree(m):
    if not is_index(m):
        raise DomainError(f"degree must be a nonnegative integer, got {m!r}")


def gegenbauer(m, mu, x):
    """Gegenbauer C_m^(mu)(x) = ((2 mu)_m / m!) 2F1(-m, m+2mu; mu+1/2; (1-x)/2).

    Evaluated as ((2 mu)_m / (mu+1/2)_m) P_m^(mu-1/2, mu-1/2)(x) (DLMF 18.7.1):
    the ratio is exactly 0 at mu = 0, m >= 1, and cannot overflow before the
    value does.
    """
    _check_degree(m)
    if mu <= -0.5:
        raise DomainError("gegenbauer: requires mu > -1/2")
    ratio = math.prod((2 * mu + j) / (mu + 0.5 + j) for j in range(m))
    return ratio * jacobi(m, mu - 0.5, mu - 0.5, x)


def gegenbauer_norm(m, mu):
    """Norm square h_m^mu = (2mu)_m Gamma(mu+1/2) Gamma(1/2) / (m! (m+mu) Gamma(mu))."""
    _check_degree(m)
    if mu <= -0.5:
        raise DomainError("gegenbauer_norm: requires mu > -1/2")
    if mu == 0:
        raise DomainError("gegenbauer_norm: mu = 0 norm formula is singular")
    lg = (
        log_gamma(2 * mu + m) - log_gamma(2 * mu)
        + log_gamma(mu + 0.5) + log_gamma(0.5)
        - log_gamma(m + 1.0) - log_gamma(mu)
    )
    return float((np.exp(lg) / (m + mu)).real)  # np.exp: the division must stay numpy's


def jacobi(m, alpha, beta, t):
    """Jacobi P_m^(alpha,beta)(t) = ((alpha+1)_m / m!) 2F1(-m, m+alpha+beta+1; alpha+1; (1-t)/2)."""
    _check_degree(m)
    if alpha <= -1 or beta <= -1:
        raise DomainError("jacobi: requires alpha, beta > -1")
    if m > COMPLEX_MAX_DEGREE and np.iscomplexobj(t):
        raise DomainError(f"jacobi: degree {m} above COMPLEX_MAX_DEGREE at a complex point")
    return special.eval_jacobi(m, alpha, beta, t)


def jacobi_norm(m, alpha, beta):
    """Norm square of P_m^(alpha,beta) on [-1,1] against (1-t)^alpha (1+t)^beta."""
    _check_degree(m)
    if alpha <= -1 or beta <= -1:
        raise DomainError("jacobi_norm: requires alpha, beta > -1")
    if m == 0:
        # 2^{a+b+1} B(a+1, b+1): the general form below is 0/0 at a + b = -1
        lg = ((alpha + beta + 1) * math.log(2) + log_gamma(alpha + 1.0) + log_gamma(beta + 1.0)
              - log_gamma(alpha + beta + 2.0))
        return float(cexp(lg).real)
    lg = (
        (alpha + beta + 1) * math.log(2)
        + log_gamma(m + alpha + 1.0) + log_gamma(m + beta + 1.0)
        - log_gamma(m + alpha + beta + 1.0) - log_gamma(m + 1.0)
    )
    return float((np.exp(lg) / (2 * m + alpha + beta + 1)).real)  # np.exp: see gegenbauer_norm


def laguerre(m, alpha, t):
    """Laguerre L_m^alpha(t) = ((alpha+1)_m / m!) 1F1(-m; alpha+1; t)."""
    _check_degree(m)
    if alpha <= -1:
        raise DomainError("laguerre: requires alpha > -1")
    return special.eval_genlaguerre(m, alpha, t)


def laguerre_norm(m, alpha):
    """Norm square Gamma(alpha+m+1)/m! on (0, inf) against t^alpha e^{-t}."""
    _check_degree(m)
    if alpha <= -1:
        raise DomainError("laguerre_norm: requires alpha > -1")
    return float(cexp(log_gamma(alpha + m + 1.0) - log_gamma(m + 1.0)).real)


def continuous_hahn(m, a, b, c, d, x):
    """Continuous Hahn polynomial

    p_m(x; a,b,c,d) = i^m ((a+c)_m (a+d)_m / m!)
                      3F2(-m, m+a+b+c+d-1, a+ix; a+c, a+d; 1).
    """
    _check_degree(m)
    x = _points(x)
    pref = (1j**m) * pochhammer(complex(a + c), m) * pochhammer(complex(a + d), m) / math.factorial(m)
    return pref * hyp_terminating(
        [-m, m + a + b + c + d - 1, a + 1j * x], [a + c, a + d], 1.0
    )


def _points(z):
    # a scalar point (0-d arrays and numpy scalars too) as a Python number,
    # whose arithmetic is the fastest; an array of points as it is
    if type(z) in (int, float, complex):
        return z
    z = np.asarray(z)
    return z if z.ndim else z.item()


def _degree_zero(z):
    # the degree-0 value 1, one per point
    return np.ones(z.shape) if isinstance(z, np.ndarray) else 1.0


def hahn_3f2(n, sigma, z, e, f):
    """3F2(-n, n+sigma-1, z; e, f; 1) by the three-term recurrence in the
    degree of the continuous Hahn polynomials (Koekoek-Lesky-Swarttouw
    9.4.4, with sigma = a+b+c+d, z = a+ix, e = a+c, f = a+d):

        p_0 = 1,  p_{k+1} = ((A_k + C_k + z) p_k - C_k p_{k-1}) / A_k,
        A_k = -(k+sigma-1)(k+e)(k+f) / ((2k+sigma-1)(2k+sigma)),  A_0 = -ef/sigma,
        C_k = k(k+sigma-f-1)(k+sigma-e-1) / ((2k+sigma-2)(2k+sigma-1)),  C_0 = 0.

    z may be an array of points; n, sigma, e and f are scalars.  An e or f
    within SNAP_TOL of -j, j < n, raises DenominatorPoleError, as the series
    does.  A sigma within SNAP_TOL of an integer in [2 - 2n, 0], where a
    recurrence denominator vanishes, raises DomainError.
    """
    _check_degree(n)
    _check_poles((e, f), n)
    j = _nonpositive_integer(sigma, SNAP_TOL)
    if j is not None and j >= 2 - 2 * n:
        raise DomainError(f"hahn_3f2: the degree-{n} recurrence is singular at sigma = {sigma}")
    z = _points(z)
    if n == 0:
        return _degree_zero(z)
    a, c = -e * f / sigma, 0.0
    prev, p = 0.0, 1.0
    s1, sf, se = sigma - 1, sigma - f - 1, sigma - e - 1
    for k in range(n):
        if k:
            s = 2 * k + sigma
            a = -(k + s1) * (k + e) * (k + f) / ((s - 1) * s)
            c = k * (k + sf) * (k + se) / ((s - 2) * (s - 1))
        if a == 0:  # only by under- or overflow once the checks above pass
            raise DomainError(f"hahn_3f2: recurrence coefficient A_{k} vanishes")
        prev, p = p, ((a + c + z) * p - c * prev) / a
    return p


def meixner_pollaczek_2f1(n, z, e):
    """2F1(-n, z; e; 2) by the three-term recurrence in the degree of the
    Meixner-Pollaczek polynomials at phi = pi/2 (Koekoek-Lesky-Swarttouw
    9.7.3, with z = lambda+ix, e = 2 lambda; DLMF 15.5.11 for any z, e):

        F_0 = 1,  F_{k+1} = ((e - 2z) F_k + k F_{k-1}) / (e + k).

    z may be an array of points; n and e are scalars.  An e within SNAP_TOL
    of -j, j < n, raises DenominatorPoleError, as the series does.
    """
    _check_degree(n)
    _check_poles((e,), n)
    z = _points(z)
    if n == 0:
        return _degree_zero(z)
    w = e - 2 * z
    prev, p = 0.0, 1.0
    for k in range(n):
        prev, p = p, (w * p + k * prev) / (e + k)
    return p


def gegenbauer_homogeneous(m, lam, u, s):
    """Homogenized Gegenbauer H_m = s^{m/2} C_m^(lam)(u / sqrt(s)), a
    polynomial in (u, s), by DLMF 18.9.1 times s^{(k+1)/2} (H_{-1} = 0):

        H_0 = 1,  (k+1) H_{k+1} = 2(k+lam) u H_k - (k-1+2lam) s H_{k-1},

    so nothing divides by sqrt(s).  u and s broadcast; scalars give a scalar.
    """
    _check_degree(m)
    u, s = _points(u), _points(s)
    shape = np.broadcast_shapes(np.shape(u), np.shape(s))
    prev, h = 0.0, np.ones(shape) if shape else 1.0
    for k in range(m):
        prev, h = h, (2 * (k + lam) * u * h - (k - 1 + 2 * lam) * s * prev) / (k + 1)
    return h
