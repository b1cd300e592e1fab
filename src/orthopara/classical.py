"""The four 1-D families everything is built from: Gegenbauer, Jacobi,
Laguerre, and continuous Hahn, plus their norm constants.

Jacobi and Laguerre polynomials are scipy's ``eval_jacobi`` and
``eval_genlaguerre``, which run the three-term recurrences in the degree
(DLMF 18.9); Gegenbauer polynomials are Jacobi polynomials times a ratio of
Pochhammer symbols.  The tests compare all three with the hypergeometric
definitions quoted in each docstring.
Continuous Hahn polynomials are summed as their terminating 3F2 series.
Norms go through log space so Gamma ratios cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError
from .gammafn import log_gamma, pochhammer
from .hyper import hyp_terminating


def _check_degree(m):
    if not (isinstance(m, (int, np.integer)) and m >= 0):
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
    return ratio * special.eval_jacobi(m, mu - 0.5, mu - 0.5, x)


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
    return float((np.exp(lg) / (m + mu)).real)


def jacobi(m, alpha, beta, t):
    """Jacobi P_m^(alpha,beta)(t) = ((alpha+1)_m / m!) 2F1(-m, m+alpha+beta+1; alpha+1; (1-t)/2)."""
    _check_degree(m)
    if alpha <= -1 or beta <= -1:
        raise DomainError("jacobi: requires alpha, beta > -1")
    return special.eval_jacobi(m, alpha, beta, t)


def jacobi_norm(m, alpha, beta):
    """Norm square of P_m^(alpha,beta) on [-1,1] against (1-t)^alpha (1+t)^beta."""
    _check_degree(m)
    if alpha <= -1 or beta <= -1:
        raise DomainError("jacobi_norm: requires alpha, beta > -1")
    lg = (
        (alpha + beta + 1) * math.log(2)
        + log_gamma(m + alpha + 1.0) + log_gamma(m + beta + 1.0)
        - log_gamma(m + alpha + beta + 1.0) - log_gamma(m + 1.0)
    )
    return float((np.exp(lg) / (2 * m + alpha + beta + 1)).real)


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
    return float(np.exp(log_gamma(alpha + m + 1.0) - log_gamma(m + 1.0)).real)


def continuous_hahn(m, a, b, c, d, x):
    """Continuous Hahn polynomial

    p_m(x; a,b,c,d) = i^m ((a+c)_m (a+d)_m / m!)
                      3F2(-m, m+a+b+c+d-1, a+ix; a+c, a+d; 1).
    """
    _check_degree(m)
    x = np.asarray(x)
    pref = (1j**m) * pochhammer(complex(a + c), m) * pochhammer(complex(a + d), m) / math.factorial(m)
    return pref * hyp_terminating(
        [-m, m + a + b + c + d - 1, a + 1j * x], [a + c, a + d], 1.0
    )


def gegenbauer_homogeneous(m, lam, u, s):
    """Homogenized Gegenbauer s^{m/2} C_m^(lam)(u / sqrt(s)), expanded as the
    terminating polynomial in (u, s):

        sum_i (-1)^i (lam)_{m-i} / (i! (m-2i)!) (2u)^{m-2i} s^i

    Polynomial in both arguments, so s = 0 needs no special casing.
    """
    _check_degree(m)
    u = np.asarray(u)
    s = np.asarray(s)
    total = np.zeros(np.broadcast_shapes(u.shape, s.shape),
                     dtype=np.result_type(u, s, np.float64))
    for i in range(m // 2 + 1):
        coef = (-1) ** i * pochhammer(float(lam), m - i) / (
            math.factorial(i) * math.factorial(m - 2 * i)
        )
        total = total + coef * (2 * u) ** (m - 2 * i) * s**i
    if total.ndim == 0:
        return total[()]
    return total
