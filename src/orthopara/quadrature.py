"""Gauss rules for the oracles: Gauss-Jacobi and Gauss-Laguerre for the ball
and paraboloid Gram entries, composite Gauss-Legendre panels on the
truncated lines of the Fourier and Parseval integrals.

Rule construction is cached, and the oracles sum in fixed node order, so
repeated runs produce bit-identical results.  Every rule size is checked
before a rule is built: a node or panel count is an integer from 1 to
MAX_NODES_PER_AXIS, and a composite rule has at most MAX_NODES_PER_AXIS
nodes in all; anything else raises DomainError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_genlaguerre, roots_jacobi

from .errors import DomainError

MAX_NODES_PER_AXIS = 2**14


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.nodes)


def _check_size(what, n):
    """``n`` as an int, or DomainError unless it is an integer in
    [1, MAX_NODES_PER_AXIS]."""
    if not (isinstance(n, numbers.Integral) and 1 <= n <= MAX_NODES_PER_AXIS):
        raise DomainError(f"{what} = {n!r}; needs an integer from 1 to {MAX_NODES_PER_AXIS}")
    return int(n)


@lru_cache(maxsize=256)
def _laguerre_nodes(n, alpha):
    x, w = roots_genlaguerre(n, alpha)
    return x, w


def gauss_laguerre(n, alpha=0.0):
    """n-point rule for integrals against t^alpha e^{-t} on (0, inf)."""
    n = _check_size("gauss_laguerre: n", n)
    if alpha <= -1:
        raise DomainError("gauss_laguerre: alpha must be > -1")
    x, w = _laguerre_nodes(n, float(alpha))
    return QuadratureRule(x, w)


@lru_cache(maxsize=512)
def _jacobi_nodes(n, a, b):
    x, w = roots_jacobi(n, a, b)
    return x, w


def gauss_jacobi(n, a, b):
    """n-point rule for integrals against (1-x)^a (1+x)^b on [-1, 1]."""
    n = _check_size("gauss_jacobi: n", n)
    if a <= -1 or b <= -1:
        raise DomainError("gauss_jacobi: exponents must be > -1")
    x, w = _jacobi_nodes(n, float(a), float(b))
    return QuadratureRule(x, w)


@lru_cache(maxsize=256)
def _composite_nodes(lo, hi, panels, n):
    # every panel at once: the affine image of the n-point Gauss-Legendre
    # rule on [-1, 1] in each panel
    x, w = leggauss(n)
    edges = np.linspace(lo, hi, panels + 1)
    slope = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
    nodes = (edges[:-1, None] + (x + 1.0) * slope).ravel()
    weights = (w * slope).ravel()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def composite_legendre(lo, hi, panels, n=12):
    """Composite Gauss-Legendre: ``panels`` equal panels of an n-point rule,
    each exact for degree <= 2n-1.

    Cached on (lo, hi, panels, n); the nodes and weights are read-only.
    """
    n = _check_size("composite_legendre: n", n)
    panels = _check_size("composite_legendre: panels", panels)
    if panels * n > MAX_NODES_PER_AXIS:
        raise DomainError(f"composite_legendre: {panels} panels of {n} nodes; "
                          f"needs at most {MAX_NODES_PER_AXIS} nodes")
    nodes, weights = _composite_nodes(lo, hi, panels, n)
    return QuadratureRule(nodes, weights)
