"""Gauss rules for the oracles: Gauss-Jacobi and Gauss-Laguerre for the ball
and paraboloid Gram entries, composite Gauss-Legendre panels on the
truncated lines of the Fourier and Parseval integrals.

The Gauss-Jacobi and Gauss-Laguerre rules are built by Golub-Welsch (Math.
Comp. 23, 1969): the nodes are the eigenvalues of the recurrence's Jacobi
matrix (numpy's ``eigvalsh``), each polished by one Newton step, and the
weights come from the polynomials at the nodes, as scipy builds its Gauss
rules; a symmetric weight halves the eigenproblem.

Every call builds its rule; a caller that reuses a rule holds it (the
verifier keeps each parameter draw's rules in its draw).  The one
constant kept for the process is the n-point Gauss-Legendre rule on
[-1, 1], built once per n.  A rule's nodes and weights are read-only, so no
caller can change a rule that another reads, and the oracles sum in fixed
node order, so repeated runs produce bit-identical results.  Every rule size
is checked before anything is allocated: a node or panel count is an index
(``gammafn.is_index``) from 1 to MAX_NODES_PER_AXIS, and a composite rule has at most
MAX_NODES_PER_AXIS nodes in all; anything else raises DomainError.  A
Gauss-Jacobi or Gauss-Laguerre rule has at most MAX_GAUSS_NODES nodes, as
its dense n x n Jacobi matrix is 8 n^2 bytes (8 MB at the limit).  The
largest rules the shipped configs build are 32 nodes in the default sweep,
128 in perfbench's gram-highdeg and 192 on BALL-28's ball axes
(scripts/configs/ball-28.json: |k| + |k2| <= 56 puts n0 at 96 on the
12 2^j ladder); the Fourier and Parseval configs build none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import betaln, eval_genlaguerre, eval_jacobi, gamma

from .errors import DomainError
from .gammafn import is_index

MAX_NODES_PER_AXIS = 2**14
MAX_GAUSS_NODES = 2**10


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


def _check_size(what, n, limit=MAX_NODES_PER_AXIS):
    """``n`` as an int, or DomainError unless it is an index (``is_index``:
    not a bool or a float) in [1, limit]."""
    if not (is_index(n) and 1 <= n <= limit):
        raise DomainError(f"{what} = {n!r}; needs an integer from 1 to {limit}")
    return int(n)


def _eigvalsh(diag, off):
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal ``diag`` and off-diagonal ``off``; only the lower triangle,
    which ``eigvalsh`` reads, is filled."""
    m = len(diag)
    a = np.zeros((m, m))
    a.flat[::m + 1] = diag
    a.flat[m::m + 1] = off
    return np.linalg.eigvalsh(a)


def _golub_welsch(diag, off, mu0, p, dp):
    """Gauss rule of the recurrence with Jacobi matrix (diag, off), for a
    weight of total mass mu0; ``p(k, x)`` is the degree-k polynomial and
    ``dp(x)`` the derivative of the degree-n one, n = len(diag).

    The eigenvalues get one Newton step on p(n, .), and the weights are
    1 / (p(n-1, x) p'(n, x)), each factor scaled to the middle of its log
    range, normalized to mu0 (scipy's ``_gen_roots_and_weights``).  With a
    zero diagonal the matrix couples even rows only to odd columns, through
    B, so the nodes are 0 for odd n and +-sqrt of the eigenvalues of the
    floor(n/2)-size tridiagonal B^T B, symmetrized after the Newton step."""
    n = len(diag)
    symmetric = not diag.any()
    if symmetric:
        c = np.append(off, 0.0)
        h = n // 2
        x = np.sqrt(_eigvalsh(c[0::2][:h] ** 2 + c[1::2] ** 2, c[1::2][:h - 1] * c[2::2][:h - 1]))
        x = np.concatenate((-x[::-1], np.zeros(n % 2), x))
    else:
        x = _eigvalsh(diag, off)
    dy = dp(x)
    x = x - p(n, x) / dy
    fm = p(n - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    if symmetric:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    return QuadratureRule(x, w * (mu0 / w.sum()))


def gauss_laguerre(n, alpha=0.0):
    """n-point rule for integrals against t^alpha e^{-t} on (0, inf)."""
    n = _check_size("gauss_laguerre: n", n, MAX_GAUSS_NODES)
    if alpha <= -1:
        raise DomainError("gauss_laguerre: alpha must be > -1")
    a = float(alpha)
    k = np.arange(n, dtype=float)
    return _golub_welsch(
        2 * k + a + 1, np.sqrt(k[1:] * (k[1:] + a)), gamma(a + 1),
        lambda j, x: eval_genlaguerre(j, a, x),
        lambda x: (n * eval_genlaguerre(n, a, x) - (n + a) * eval_genlaguerre(n - 1, a, x)) / x)


def gauss_jacobi(n, a, b):
    """n-point rule for integrals against (1-x)^a (1+x)^b on [-1, 1]."""
    n = _check_size("gauss_jacobi: n", n, MAX_GAUSS_NODES)
    if a <= -1 or b <= -1:
        raise DomainError("gauss_jacobi: exponents must be > -1")
    a, b = float(a), float(b)
    # the Jacobi matrix of the recurrence DLMF 18.9.2; the k = 0 diagonal
    # entry and the k = 1 off-diagonal entry are the limits of the general
    # terms, which are 0/0 at a + b = 0 and a + b = -1
    k = np.arange(1, n, dtype=float)
    s = 2 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2)], (b - a) * (b + a) / (s * (s + 2))))
    off = 2 / s * np.sqrt((k + a) * (k + b) / (s + 1))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + a + b) / (s[1:] - 1))
    mu0 = np.exp((a + b + 1) * np.log(2.0) + betaln(a + 1, b + 1))
    return _golub_welsch(
        diag, off, mu0, lambda j, x: eval_jacobi(j, a, b, x),
        lambda x: 0.5 * (n + a + b + 1) * eval_jacobi(n - 1, a + 1, b + 1, x))


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
