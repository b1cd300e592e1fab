"""Orthogonal bases on the solid paraboloid U^{d+1} = {|x|^2 <= t <= b}.

Two families share the shape f(t) * t^{n/2} P_k(x / sqrt(t)):

  * height b = 1, weight t^beta (1-t)^gamma (t-|x|^2)^(mu-1/2): the radial
    factor is a Jacobi polynomial in 1 - 2t;
  * height b = inf, weight t^beta e^{-t} (t-|x|^2)^(mu-1/2): the radial
    factor is a Laguerre polynomial in t.

The rescaled ball part is evaluated through ball_homogeneous, which is a
polynomial in (t, x), so the apex t = 0 is a regular point.  A function of a
multi-index k reads d as len(k); the radial helpers, which take no k, take d.
"""

from __future__ import annotations

import numpy as np

from .ball import _DOMAIN_SLACK, ball_homogeneous, ball_norm, tail_sum, validate_multi_index
from .classical import _check_degree, jacobi, jacobi_norm, laguerre, laguerre_norm
from .errors import DomainError
from .quadrature import QuadratureRule, gauss_jacobi, gauss_laguerre


def radial_alpha(n, beta, mu, d):
    """Parameter alpha_n = n + mu + beta + (d-1)/2 of the radial factor."""
    return n + mu + beta + 0.5 * (d - 1)


def radial_factor(kind, m, n, beta, gamma, mu, d, t):
    """The radial factor of a degree-m basis function with |k| = n:
    P_{m-n}^(alpha_n, gamma)(1-2t) of kind "jacobi", L_{m-n}^(alpha_n)(t) of
    kind "laguerre"."""
    a = radial_alpha(n, beta, mu, d)
    if kind == "jacobi":
        return jacobi(m - n, a, gamma, 1.0 - 2.0 * t)
    return laguerre(m - n, a, t)


def _degree_split(m, k):
    """Validated k, n = |k| and d = len(k) of a degree-m, index-k function
    (|k| <= m)."""
    _check_degree(m)
    k = validate_multi_index(k)
    n = tail_sum(k, 1)
    if n > m:
        raise DomainError(f"|k| = {n} exceeds total degree m = {m}")
    return k, n, len(k)


def _validate(m, k, beta, mu, gamma=None):
    k, n, d = _degree_split(m, k)
    if beta <= -0.5 * (d + 1):
        raise DomainError("requires beta > -(d+1)/2")
    if mu <= -0.5:
        raise DomainError("requires mu > -1/2")
    if gamma is not None and gamma <= -1:
        raise DomainError("requires gamma > -1")
    return k, n, d


def _check_point(t, x, b):
    t = np.asarray(t)
    if np.any(t < -_DOMAIN_SLACK) or (np.isfinite(b) and np.any(t > b + _DOMAIN_SLACK)):
        raise DomainError(f"t outside [0, {b}]")
    norm2 = sum(np.asarray(xj) ** 2 for xj in x)
    if np.any(norm2 > t + _DOMAIN_SLACK):
        raise DomainError("point violates |x|^2 <= t")


def jacobi_paraboloid(m, k, beta, gamma, mu, t, x):
    """Q^n_{k,m}(t, x) = P_{m-n}^(alpha_n, gamma)(1-2t) t^{n/2} P_k(x/sqrt(t)),
    the height-1 family."""
    k, n, d = _validate(m, k, beta, mu, gamma)
    _check_point(t, x, 1.0)
    t = np.asarray(t)
    return radial_factor("jacobi", m, n, beta, gamma, mu, d, t) * ball_homogeneous(k, mu, x, t)


def laguerre_paraboloid(m, k, beta, mu, t, x):
    """R^n_{k,m}(t, x) = L_{m-n}^(alpha_n)(t) t^{n/2} P_k(x/sqrt(t)),
    the infinite-height family."""
    k, n, d = _validate(m, k, beta, mu)
    _check_point(t, x, np.inf)
    t = np.asarray(t)
    return radial_factor("laguerre", m, n, beta, 0.0, mu, d, t) * ball_homogeneous(k, mu, x, t)


def jacobi_paraboloid_norm(m, k, beta, gamma, mu):
    """Diagonal inner product of Q^n_{k,m}: the radial Jacobi norm picks up
    2^{-(alpha_n+gamma+1)} from mapping (0,1) onto (-1,1)."""
    k, n, d = _validate(m, k, beta, mu, gamma)
    a = radial_alpha(n, beta, mu, d)
    return 2.0 ** (-(a + gamma + 1)) * jacobi_norm(m - n, a, gamma) * ball_norm(k, mu)


def laguerre_paraboloid_norm(m, k, beta, mu):
    """Diagonal inner product of R^n_{k,m}: Gamma(alpha_n+m-n+1)/(m-n)! times
    the ball norm."""
    k, n, d = _validate(m, k, beta, mu)
    return laguerre_norm(m - n, radial_alpha(n, beta, mu, d)) * ball_norm(k, mu)


def t_rule(kind, n_t, beta, gamma, mu, d):
    """The n_t-point radial QuadratureRule of kind "jacobi" (b = 1, against
    t^a (1-t)^gamma on (0, 1)) or "laguerre" (b = inf, against t^a e^{-t}),
    a = alpha_0 = mu + beta + (d-1)/2: the slice change of variable
    x = sqrt(t) y turns the paraboloid weight into this t weight times the
    ball weight of y."""
    a = radial_alpha(0, beta, mu, d)
    if kind == "jacobi":
        rule = gauss_jacobi(n_t, gamma, a)
        return QuadratureRule(0.5 * (1.0 + rule.nodes), rule.weights * 2.0 ** (-(a + gamma + 1)))
    if kind == "laguerre":
        return gauss_laguerre(n_t, a)
    raise DomainError(f"unknown radial weight kind {kind!r}")
