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
Continuous Hahn polynomials run their monic three-term recurrence in x
(Koekoek-Lesky-Swarttouw 9.4.5).  The 3F2 at 1 and the 2F1 at 2 of the
closed-form transform factors run the three-term recurrences in the degree
of the continuous Hahn and the Meixner-Pollaczek polynomials (``hahn_3f2``,
KLS 9.4.4, and ``meixner_pollaczek_2f1``).  The two continuous Hahn
recurrences are separate bodies on purpose: ``phi_factor_hahn``'s
parameters map exactly onto ``phi_factor``'s 3F2, so one shared body would
let a wrong ``hahn_3f2`` check itself in FORM_EQUIV.  The recurrences'
snap tolerance and pole rule live here; ``hyper``'s series, the tests'
reference for each recurrence, imports them.
Norms go through log space so Gamma ratios cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DenominatorPoleError, DomainError
from .gammafn import _nonpositive_integer, cexp, is_index, log_gamma


COMPLEX_MAX_DEGREE = 10  # the complex 2F1 series holds 1e-12 to about here

SNAP_TOL = 1e-9  # how near an integer a parameter counts as that integer


def _check_degree(m):
    if not is_index(m):
        raise DomainError(f"degree must be a nonnegative integer, got {m!r}")


def _check_poles(denominator, degree):
    """Raise DenominatorPoleError if a scalar denominator parameter is within
    SNAP_TOL of -j with j < degree: -j poles the factor (b + m) at m = j,
    which a sum of degree N touches only while m < N."""
    for p in denominator:
        j = _nonpositive_integer(p, SNAP_TOL)
        if j is not None and -j < degree:
            raise DenominatorPoleError(
                f"denominator parameter {p} hits a pole before termination")


def _check_sigma(name, sigma, degree):
    """Raise DomainError if sigma is within SNAP_TOL of an integer in
    [2 - 2 degree, 0], where a denominator of the continuous Hahn
    recurrences of that degree vanishes."""
    j = _nonpositive_integer(sigma, SNAP_TOL)
    if j is not None and j >= 2 - 2 * degree:
        raise DomainError(
            f"{name}: the degree-{degree} recurrence is singular at sigma = {sigma}")


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
                      3F2(-m, m+a+b+c+d-1, a+ix; a+c, a+d; 1),

    by the monic three-term recurrence in x (Koekoek-Lesky-Swarttouw 9.4.5),
    with sigma = a+b+c+d:

        p~_0 = 1,  p~_{n+1} = (x - i(A_n + C_n + a)) p~_n + A_{n-1} C_n p~_{n-1},
        p_m = ((m+sigma-1)_m / m!) p~_m,
        A_n = -(n+sigma-1)(n+a+c)(n+a+d) / ((2n+sigma-1)(2n+sigma)),
        A_0 = -(a+c)(a+d)/sigma,
        C_n = n(n+b+c-1)(n+b+d-1) / ((2n+sigma-2)(2n+sigma-1)),  C_0 = 0.

    x may be an array of points; m and the parameters are scalars.  An a+c
    or a+d within SNAP_TOL of -j, j < m, raises DenominatorPoleError, as the
    series does.  A sigma within SNAP_TOL of an integer in [2 - 2m, 0],
    where a recurrence denominator vanishes, raises DomainError.  A body
    apart from ``hahn_3f2``'s recurrence in the degree (9.4.4), which the
    transform factors run, so each form equivalence compares two computations.
    """
    _check_degree(m)
    _check_poles((a + c, a + d), m)
    sigma = a + b + c + d
    _check_sigma("continuous_hahn", sigma, m)
    x = _points(x)
    if m == 0:
        return _degree_zero(x)
    s1, e, f, g, h = sigma - 1, a + c, a + d, b + c - 1, b + d - 1
    an = -e * f / sigma  # A_0 cancelled, so sigma = 1 is no pole
    prev, p = 1.0, x - 1j * (an + a)
    scale = m + s1
    for n in range(1, m):
        s = 2 * n + sigma
        cn = n * (n + g) * (n + h) / ((s - 2) * (s - 1))
        coupling, an = an * cn, -(n + s1) * (n + e) * (n + f) / ((s - 1) * s)
        prev, p = p, (x - 1j * (an + cn + a)) * p + coupling * prev
        scale = scale * (m + s1 + n) / (n + 1)
    return scale * p


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
    _check_sigma("hahn_3f2", sigma, n)
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
