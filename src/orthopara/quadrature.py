"""Numerical integration: Gauss rules, tanh-sinh for endpoint singularities,
composite Gauss-Legendre panels on truncated intervals, and tensor products.

Rule construction is cached; integration itself is pure, with deterministic
summation order so repeated runs produce bit-identical results.
"""

from __future__ import annotations

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
    interval: tuple
    kind: str

    def __len__(self):
        return len(self.nodes)


@lru_cache(maxsize=256)
def _gl_nodes(n):
    return leggauss(n)


def gauss_legendre(n):
    """n-point Gauss-Legendre rule on [-1, 1], exact for degree <= 2n-1."""
    if not 1 <= n <= MAX_NODES_PER_AXIS:
        raise DomainError(f"gauss_legendre: n = {n} outside [1, {MAX_NODES_PER_AXIS}]")
    x, w = _gl_nodes(n)
    return QuadratureRule(x, w, (-1.0, 1.0), "gauss_legendre")


@lru_cache(maxsize=256)
def _laguerre_nodes(n, alpha):
    x, w = roots_genlaguerre(n, alpha)
    return x, w


def gauss_laguerre(n, alpha=0.0):
    """n-point rule for integrals against t^alpha e^{-t} on (0, inf)."""
    if alpha <= -1:
        raise DomainError("gauss_laguerre: alpha must be > -1")
    x, w = _laguerre_nodes(n, float(alpha))
    return QuadratureRule(x, w, (0.0, np.inf), "gauss_laguerre")


@lru_cache(maxsize=512)
def _jacobi_nodes(n, a, b):
    x, w = roots_jacobi(n, a, b)
    return x, w


def gauss_jacobi(n, a, b):
    """n-point rule for integrals against (1-x)^a (1+x)^b on [-1, 1]."""
    if a <= -1 or b <= -1:
        raise DomainError("gauss_jacobi: exponents must be > -1")
    x, w = _jacobi_nodes(n, float(a), float(b))
    return QuadratureRule(x, w, (-1.0, 1.0), "gauss_jacobi")


@lru_cache(maxsize=64)
def _tanh_sinh_nodes(level):
    # nodes on (0, 1), generated directly through the logistic form
    # u = 1 / (1 + e^{-pi sinh(kh)}) so the left endpoint keeps full
    # relative precision for algebraic singularities at 0
    h = 0.5 / 2**level
    s_cap = 250.0
    k_max = int(np.ceil(np.arcsinh(s_cap / np.pi) / h))
    k = np.arange(-k_max, k_max + 1)
    s = np.pi * np.sinh(k * h)
    keep = np.abs(s) <= s_cap
    s = s[keep]
    kh = k[keep] * h
    sig = 1.0 / (1.0 + np.exp(-s))
    u = sig
    w = h * np.pi * np.cosh(kh) * sig * (1.0 - sig)
    return u, w


def tanh_sinh(level=3):
    """Tanh-sinh rule on (0, 1); integrates u^{a-1} endpoint singularities
    (a > 0) at double-exponential convergence.  Doubling ``level`` halves h."""
    u, w = _tanh_sinh_nodes(int(level))
    return QuadratureRule(u, w, (0.0, 1.0), "tanh_sinh")


def scaled(rule, lo, hi):
    """Affine image of a finite-interval rule on [lo, hi]."""
    a, b = rule.interval
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("scaled: rule must live on a finite interval")
    slope = (hi - lo) / (b - a)
    return QuadratureRule(
        lo + (rule.nodes - a) * slope, rule.weights * slope, (lo, hi), rule.kind
    )


@lru_cache(maxsize=256)
def _composite_nodes(lo, hi, panels, n):
    # every panel at once, with the element-wise operations of ``scaled``
    base = gauss_legendre(n)
    x, w = base.nodes, base.weights
    edges = np.linspace(lo, hi, panels + 1)
    slope = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
    nodes = (edges[:-1, None] + (x + 1.0) * slope).ravel()
    weights = (w * slope).ravel()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def composite_legendre(lo, hi, panels, n=12):
    """Composite Gauss-Legendre: ``panels`` equal panels of an n-point rule.

    Cached on (lo, hi, panels, n); the nodes and weights are read-only.
    """
    if panels * n > MAX_NODES_PER_AXIS:
        raise DomainError("composite_legendre: node budget exceeded")
    nodes, weights = _composite_nodes(lo, hi, panels, n)
    return QuadratureRule(nodes, weights, (lo, hi), "truncated_line")


def integrate(f, rule):
    """Sum w_i f(x_i) in fixed node order."""
    return np.sum(rule.weights * f(rule.nodes))


_CHUNK_LIMIT = 2**22


def tensor_integrate(rules, f):
    """Tensor-product quadrature of f(x_1, ..., x_n) for up to 3 axes.

    f must broadcast over its array arguments.  Axis order and summation
    order are fixed, so results are deterministic.
    """
    rules = list(rules)
    n = len(rules)
    if not 1 <= n <= 3:
        raise DomainError("tensor_integrate supports 1 to 3 axes")
    if n == 1:
        return integrate(f, rules[0])
    sizes = [len(r) for r in rules]
    grids = []
    for i, r in enumerate(rules):
        shape = [1] * (n - 1)
        shape.insert(i, sizes[i])
        grids.append(r.nodes.reshape(shape))
    if int(np.prod(sizes)) <= _CHUNK_LIMIT:
        vals = f(*grids)
        w = rules[0].weights.reshape(grids[0].shape)
        for i in range(1, n):
            w = w * rules[i].weights.reshape(grids[i].shape)
        return np.sum(w * vals)
    # chunk along the first axis to bound memory
    inner_w = rules[1].weights.reshape(grids[1].shape[1:])
    for i in range(2, n):
        inner_w = inner_w * rules[i].weights.reshape(grids[i].shape[1:])
    total = 0.0 + 0.0j
    w0 = rules[0].weights
    x0 = rules[0].nodes
    for j in range(sizes[0]):
        vals = f(x0[j], *(g[0] for g in grids[1:]))
        total += w0[j] * np.sum(inner_w * vals)
    return total
