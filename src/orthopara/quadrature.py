"""Gauss rules for the oracles: Gauss-Jacobi and Gauss-Laguerre for the ball
and paraboloid Gram entries, composite Gauss-Legendre panels on the
truncated lines of the Fourier and Parseval integrals.

Every call builds its rule; a caller that reuses a rule holds it (the
verifier keeps each parameter draw's rules in its draw memo).  The one
constant kept for the process is the n-point Gauss-Legendre rule on
[-1, 1], built once per n.  A rule's nodes and weights are read-only, so no
caller can change a rule that another reads, and the oracles sum in fixed
node order, so repeated runs produce bit-identical results.  Every rule size
is checked before a rule is built: a node or panel count is an integer from
1 to MAX_NODES_PER_AXIS, and a composite rule has at most MAX_NODES_PER_AXIS
nodes in all; anything else raises DomainError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_genlaguerre, roots_jacobi

from .errors import DomainError

MAX_NODES_PER_AXIS = 2**14


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a rule; both arrays are made read-only."""
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def __len__(self):
        return len(self.nodes)


def _check_size(what, n):
    """``n`` as an int, or DomainError unless it is an integer in
    [1, MAX_NODES_PER_AXIS]."""
    if not (isinstance(n, numbers.Integral) and 1 <= n <= MAX_NODES_PER_AXIS):
        raise DomainError(f"{what} = {n!r}; needs an integer from 1 to {MAX_NODES_PER_AXIS}")
    return int(n)


def gauss_laguerre(n, alpha=0.0):
    """n-point rule for integrals against t^alpha e^{-t} on (0, inf)."""
    n = _check_size("gauss_laguerre: n", n)
    if alpha <= -1:
        raise DomainError("gauss_laguerre: alpha must be > -1")
    return QuadratureRule(*roots_genlaguerre(n, float(alpha)))


def gauss_jacobi(n, a, b):
    """n-point rule for integrals against (1-x)^a (1+x)^b on [-1, 1]."""
    n = _check_size("gauss_jacobi: n", n)
    if a <= -1 or b <= -1:
        raise DomainError("gauss_jacobi: exponents must be > -1")
    return QuadratureRule(*roots_jacobi(n, float(a), float(b)))


_LEGENDRE = {}  # n -> the n-point Gauss-Legendre rule on [-1, 1]


def _legendre(n):
    rule = _LEGENDRE.get(n)
    if rule is None:
        rule = _LEGENDRE[n] = QuadratureRule(*leggauss(n))
    return rule


def composite_legendre(lo, hi, panels, n=12):
    """Composite Gauss-Legendre: ``panels`` equal panels of an n-point rule,
    each exact for degree <= 2n-1.  Every panel at once: the affine image
    of the n-point rule on [-1, 1] in each panel."""
    n = _check_size("composite_legendre: n", n)
    panels = _check_size("composite_legendre: panels", panels)
    if panels * n > MAX_NODES_PER_AXIS:
        raise DomainError(f"composite_legendre: {panels} panels of {n} nodes; "
                          f"needs at most {MAX_NODES_PER_AXIS} nodes")
    base = _legendre(n)
    edges = np.linspace(lo, hi, panels + 1)
    slope = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
    return QuadratureRule((edges[:-1, None] + (base.nodes + 1.0) * slope).ravel(),
                          (base.weights * slope).ravel())
