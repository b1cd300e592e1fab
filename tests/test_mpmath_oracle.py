"""The classical evaluators against mpmath at 40 digits, to degree 30.

Real arguments are the nodes of the 32-point Gauss rule of each family's
weight, where the Gram oracles evaluate the polynomials.  The error at a node
of weight w_i is scaled to the orthonormal polynomial, sqrt(w_i / h_m) |p - p*|:
the rule is exact for p_m^2, so sum_i w_i p_m(x_i)^2 = h_m, and each scaled
value |p_m(x_i)| sqrt(w_i / h_m) is at most 1.  Every scaled error must be
1e-12 or less; the worst seen over 20 draws per family is 3e-14.

Complex arguments (points of the unit box) are asserted only to degree 10,
relative to the largest value at the points.  scipy's complex path is the
2F1 series, which loses digits with the degree as the hypergeometric series
does: Gegenbauer and Jacobi are at about 2e-13 at degree 10, 1e-12 at degree
12 and 1e-6 at degree 30 (Laguerre stays near 1e-14 to degree 30).  No
identity family evaluates a classical polynomial at a complex point.

Parameters are drawn from the ranges of the ORT_1D case generator.
"""

import numpy as np
import pytest

from orthopara.classical import (
    gegenbauer, gegenbauer_norm, jacobi, jacobi_norm, laguerre, laguerre_norm,
)
from orthopara.quadrature import gauss_jacobi, gauss_laguerre

mp = pytest.importorskip("mpmath")

DPS = 40
NODES = 32  # even, so no node is the exact zero of an odd polynomial
REAL_DEGREES = range(31)
COMPLEX_MAX_DEGREE = 10


def _draws(family, count=2):
    rng = np.random.default_rng({"gegen": 1, "jacobi": 2, "laguerre": 3}[family])
    for _ in range(count):
        if family == "gegen":
            mu = float(rng.uniform(0.3, 2.5))
            yield ((mu,), gauss_jacobi(NODES, mu - 0.5, mu - 0.5),
                   lambda m, x: gegenbauer(m, mu, x),
                   lambda m, z: mp.gegenbauer(m, mu, z),
                   lambda m: gegenbauer_norm(m, mu))
        elif family == "jacobi":
            a, b = (float(v) for v in rng.uniform(-0.6, 2.0, 2))
            yield ((a, b), gauss_jacobi(NODES, a, b),
                   lambda m, x: jacobi(m, a, b, x),
                   lambda m, z: mp.jacobi(m, a, b, z),
                   lambda m: jacobi_norm(m, a, b))
        else:
            a = float(rng.uniform(-0.6, 2.5))
            yield ((a,), gauss_laguerre(NODES, a),
                   lambda m, x: laguerre(m, a, x),
                   lambda m, z: mp.laguerre(m, a, z),
                   lambda m: laguerre_norm(m, a))


def _reference(mp_fn, m, points):
    with mp.workdps(DPS):
        return np.array([complex(mp_fn(m, mp.mpmathify(complex(z)))) for z in points])


@pytest.mark.parametrize("family", ["gegen", "jacobi", "laguerre"])
def test_real_arguments_to_degree_30(family):
    for params, rule, evaluate, mp_fn, norm in _draws(family):
        for m in REAL_DEGREES:
            err = np.abs(evaluate(m, rule.nodes) - _reference(mp_fn, m, rule.nodes))
            scaled = np.max(np.sqrt(rule.weights / norm(m)) * err)
            assert scaled <= 1e-12, (params, m, scaled)


@pytest.mark.parametrize("family", ["gegen", "jacobi", "laguerre"])
def test_complex_arguments_to_degree_10(family):
    rng = np.random.default_rng(4)
    z = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    for params, _, evaluate, mp_fn, _ in _draws(family):
        for m in range(COMPLEX_MAX_DEGREE + 1):
            want = _reference(mp_fn, m, z)
            rel = np.abs(evaluate(m, z) - want).max() / np.abs(want).max()
            assert rel <= 1e-12, (params, m, rel)
