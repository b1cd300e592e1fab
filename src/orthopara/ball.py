"""Orthogonal polynomials on the unit ball B^d.

The basis is the nested-Gegenbauer product: factor j contributes

    (1 - |x_{j-1}|^2)^{k_j/2} C_{k_j}^(lam_j)( x_j / sqrt(1 - |x_{j-1}|^2) ),
    lam_j = mu + |k^{j+1}| + (d-j)/2,

evaluated here in homogenized form (a polynomial in x_j and the running
radicand, by its three-term recurrence in the degree), so boundary points
never divide by a vanishing square root.
|k^j| denotes the tail sum k_j + ... + k_d.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import gegenbauer_homogeneous
from .errors import DomainError
from .gammafn import is_index, log_gamma, pochhammer
from .quadrature import gauss_jacobi

_DOMAIN_SLACK = 1e-12  # rounding allowed past a domain's boundary, here and in paraboloid


class MultiIndex(tuple):
    """A multi-index that ``validate_multi_index`` checked: Python ints >= 0.

    ``validate_multi_index``, which alone makes one, also stores its tail
    sums (0, |k^d|, ..., |k^1|) in the attribute ``tails``, so that
    ``tail_sum(k, j)`` is ``tails[-j]``.  A tuple subclass cannot take
    non-empty ``__slots__``, so ``tails`` lives in the instance ``__dict__``.
    """


def validate_multi_index(k):
    """k as a MultiIndex, returned unchanged if it is one; raises DomainError
    unless every entry is an index (``is_index``: 1.5 is not 1, nor True)."""
    if isinstance(k, MultiIndex):
        return k
    k = tuple(k)
    tails = [0]
    for v in reversed(k):
        if type(v) is not int or v < 0:  # an int >= 0 passes is_index as it is
            if not is_index(v):
                raise DomainError(f"multi-index entries must be nonnegative integers, got {k}")
            v = int(v)
        tails.append(tails[-1] + v)
    index = MultiIndex(map(int, k))
    index.tails = tuple(tails)
    return index


def _at_point(k, x):
    """Validated k and d = len(k) of a function of a point x of d coordinates."""
    k = validate_multi_index(k)
    if len(x) != len(k):
        raise DomainError(f"expected {len(k)} coordinates, got {len(x)}")
    return k, len(k)


def tail_sum(k, j):
    """|k^j| = k_j + ... + k_d for 1-based j; tail_sum(k, d+1) == 0.  A
    MultiIndex reads it from its ``tails``; any other sequence is summed."""
    if isinstance(k, MultiIndex):
        return k.tails[-j]
    return int(sum(k[j - 1:]))


def lambda_param(k, mu, j):
    """Gegenbauer parameter of the j-th factor: mu + |k^{j+1}| + (d-j)/2."""
    d = len(k)
    return mu + tail_sum(k, j + 1) + 0.5 * (d - j)


def ball_homogeneous(k, mu, x, t):
    """t^{|k|/2} P_k^mu(x / sqrt(t)) as a polynomial in (x, t).

    Equals prod_j H_{k_j}^(lam_j)(x_j, r_{j-1}) with r_j = t - (x_1^2+...+x_j^2)
    and H the homogenized Gegenbauer factor; t = 0 is a regular point.
    """
    k, d = _at_point(k, x)
    if mu <= -0.5:
        raise DomainError("ball polynomial requires mu > -1/2")
    r = t
    out = 1.0
    for j in range(1, d + 1):
        xj = np.asarray(x[j - 1])
        out = out * gegenbauer_homogeneous(k[j - 1], lambda_param(k, mu, j), xj, r)
        r = r - xj * xj
    return out


def ball_eval(k, mu, x):
    """P_k^mu at a point (or broadcastable arrays of points) of B^d."""
    norm2 = sum(np.asarray(xj) ** 2 for xj in x)
    if np.any(norm2 > 1.0 + _DOMAIN_SLACK):
        raise DomainError("ball_eval: point outside the closed unit ball")
    return ball_homogeneous(k, mu, x, 1.0)


def ball_norm(k, mu):
    """Norm square of P_k^mu over B^d against (1 - |x|^2)^(mu - 1/2):

        pi^{d/2} Gamma(mu+1/2) (mu+d/2)_{|k|} / Gamma(mu+(d+1)/2+|k|)
        * prod_j (mu+(d-j)/2)_{|k^j|} (2mu+2|k^{j+1}|+d-j)_{k_j}
                 / ( k_j! (mu+(d-j+1)/2)_{|k^j|} ).
    """
    k = validate_multi_index(k)
    if mu <= -0.5:
        raise DomainError("ball_norm: requires mu > -1/2")
    d = len(k)
    n = tail_sum(k, 1)
    lg = (
        0.5 * d * math.log(math.pi)
        + log_gamma(mu + 0.5)
        - log_gamma(mu + 0.5 * (d + 1) + n)
    )
    val = float(np.exp(lg).real) * pochhammer(mu + 0.5 * d, n)
    for j in range(1, d + 1):
        kj = k[j - 1]
        tj = tail_sum(k, j)
        tj1 = tail_sum(k, j + 1)
        val *= pochhammer(mu + 0.5 * (d - j), tj)
        val *= pochhammer(2 * mu + 2 * tj1 + d - j, kj)
        val /= math.factorial(kj) * pochhammer(mu + 0.5 * (d - j + 1), tj)
    return float(val)


def ball_axis(j, mu, k, v):
    """Factor j of P_k^mu in the slice coordinates y_j = v_j prod_{i<j}
    sqrt(1 - v_i^2), which map (-1,1)^d onto B^d:

        P_k^mu(y(v)) = prod_j C_{k_j}^(lam_j)(v_j) (1 - v_j^2)^{|k^{j+1}|/2}.
    """
    return (gegenbauer_homogeneous(k[j - 1], lambda_param(k, mu, j), v, 1.0)
            * (1 - v * v) ** (tail_sum(k, j + 1) / 2))


def ball_rules(d, mu, n):
    """Per-axis Gauss-Jacobi rules absorbing the mapped weight: axis j carries
    (1 - v_j^2)^(mu - 1/2 + (d-j)/2) from the weight plus the slice Jacobian,
    so <P_k, P_k2> is one ball_axis sum per axis."""
    exponents = (mu - 0.5 + 0.5 * (d - j) for j in range(1, d + 1))
    return tuple(gauss_jacobi(n, e, e) for e in exponents)
