"""The classical evaluators and the closed-form transform factors against
mpmath, to degree 30.

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

The six transform factors (``phi_factor``, ``theta_factor``,
``lambda_factor``, ``D_axis``, ``A_t``, ``B_t``) are each a prefactor times a
terminating 3F2 at 1 or 2F1 at 2 of degree n.  They are checked at real
points s and at the imaginary points i s of the Parseval lines, |s| <= 12,
against the formulas of their docstrings in mpmath's hypergeometric
functions (60 digits).  At one point the prefactor and every parameter but
the degree are the same for all degrees, so the error at degree n is scaled
to the largest reference value of degrees 0..n at that point, which is at
least the prefactor: the scale of the values the degree-n recurrence builds
on, and finite at a zero of the degree-n value.  Every scaled error must be
1e-12 or less to degree 30; the worst seen is 1.2e-14.  On the same points
the terminating series these factors used to sum is off by up to 1.7e-10 at
degree 10 and 1.2e5 at degree 30.

The homogenized Gegenbauer factor of the ball and paraboloid bases,
``gegenbauer_homogeneous(m, lam, u, s)`` = s^{m/2} C_m^lam(u / sqrt(s)), is
checked at s = 1 and at s in (0, 1) with |u| <= sqrt(s), for lam in the
range of the ball's factor parameters, against mpmath's Gegenbauer
polynomial (40 digits).  The error is scaled to C_m^lam(1) s^{m/2}, the
largest size of the value at that s (|C_m^lam| <= C_m^lam(1) on [-1, 1] for
lam > 0).  ``ball_homogeneous`` at d = 2 and t in (0, 1] is the product of two
such factors, one at s = t and one at s = t - x_1^2, and its error is scaled
to the product of their scales.  Every scaled error must be 1e-12 or less to
degree 30; the worst seen is 4.6e-15.  On the same points the explicit
alternating sum these factors used to sum is off by up to 2.1e-10 at degree
20 and 9.8e-7 at degree 30.
"""

import mpmath as mp
import numpy as np
import pytest

from orthopara.ball import ball_homogeneous, lambda_param
from orthopara.classical import (
    gegenbauer, gegenbauer_homogeneous, gegenbauer_norm, jacobi, jacobi_norm, laguerre,
    laguerre_norm,
)
from orthopara.quadrature import gauss_jacobi, gauss_laguerre
from orthopara.transforms import (
    A_t, B_t, D_axis, SplitParams, lambda_factor, phi_factor, theta_factor,
)

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


FACTOR_DPS = 60
FACTOR_MAX_DEGREE = 30
FACTORS = ("phi", "theta", "lambda", "D", "A", "B")


def _factor(name, rng):
    """(evaluate(n, s), reference(s) -> [value at degree 0..30]) of one
    factor, d = 1 and k = (n,) or (0,), with parameters from the ranges of
    the FOURIER and PARSEVAL case generators."""
    hyp3f2 = lambda n, a, z, e, f: mp.hyp3f2(-n, a, z, e, f, 1)
    degrees = range(FACTOR_MAX_DEGREE + 1)
    if name == "phi":
        alpha, mu = rng.uniform(0.5, 1.2, 2).tolist()

        def reference(xi):
            ap, am = alpha + 0.5j * xi, alpha - 0.5j * xi
            pref = mp.gamma(ap) * mp.gamma(am) / mp.gamma(2 * alpha)
            return [pref * hyp3f2(n, n + 2 * mu, ap, mu + 0.5, 2 * alpha) for n in degrees]
        return lambda n, xi: phi_factor(1, alpha, mu, (n,), xi), reference
    if name == "theta":
        zeta, eta = rng.uniform(0.5, 1.2, 2).tolist()
        beta, gamma = rng.uniform(-0.3, 0.8, 2).tolist()
        mu = float(rng.uniform(0.3, 1.2))

        def reference(xi):
            return [hyp3f2(n, n + mu + beta + gamma + 1, zeta - 0.5j * xi, mu + beta + 1,
                           zeta + eta) for n in degrees]
        return (lambda n, xi: theta_factor(n, (0,), zeta, eta, beta, gamma, mu, xi),
                reference)
    if name == "lambda":
        zeta = float(rng.uniform(0.5, 1.2))
        beta = float(rng.uniform(-0.3, 0.8))
        mu = float(rng.uniform(0.3, 1.2))

        def reference(xi):
            return [mp.hyp2f1(-n, zeta - 1j * xi, mu + beta + 1, 2) for n in degrees]
        return lambda n, xi: lambda_factor(n, (0,), zeta, mu, beta, xi), reference
    a1, a2, z1, z2, e1, e2 = rng.uniform(0.4, 1.6, 6).tolist()
    if name == "D":
        def reference(x):
            gp, gm = a1 + 0.5 * x, a1 - 0.5 * x
            pref = mp.gamma(gp) * mp.gamma(gm)
            return [pref * hyp3f2(n, n + 2 * (a1 + a2) - 1, gp, a1 + a2, 2 * a1)
                    for n in degrees]
        return lambda n, x: D_axis(1, a1, a2, (n,), x), reference
    sp = SplitParams(a1, a2, z1, z2, e1, e2)
    if name == "A":
        def reference(t):
            arg = z1 - 0.5 * t
            return [mp.gamma(arg) * hyp3f2(n, n + z1 + z2 + e1 + e2 - 1, arg, z1 + z2, z1 + e1)
                    for n in degrees]
        return lambda n, t: A_t(n, (0,), sp, t), reference

    def reference(t):
        arg = z1 - t
        return [mp.gamma(arg) * mp.hyp2f1(-n, arg, z1 + z2, 2) for n in degrees]
    return lambda n, t: B_t(n, (0,), sp, t), reference


@pytest.mark.parametrize("name", FACTORS)
def test_transform_factors_to_degree_30(name):
    rng = np.random.default_rng(FACTORS.index(name))
    for _ in range(2):
        evaluate, reference = _factor(name, rng)
        s = rng.uniform(-12, 12, 5)
        for point in np.concatenate([s, 1j * rng.uniform(-12, 12, 5)]).tolist():
            with mp.workdps(FACTOR_DPS):
                want = [complex(v) for v in reference(mp.mpmathify(point))]
            # the factors take a real argument as a float
            arg = point.real if point.imag == 0 else point
            scale = 0.0
            for n, w in enumerate(want):
                scale = max(scale, abs(w))
                err = abs(complex(evaluate(n, arg)) - w) / scale
                assert err <= 1e-12, (name, point, n, err)


HOMOGENEOUS_MAX_DEGREE = 30


def _homogeneous_mp(m, lam, u, s):
    """s^{m/2} C_m^lam(u / sqrt(s)) and its scale C_m^lam(1) s^{m/2}, in
    mpmath at the working precision."""
    u, s = mp.mpf(u), mp.mpf(s)
    root = mp.sqrt(s) ** m
    return root * mp.gegenbauer(m, lam, u / mp.sqrt(s)), root * mp.gegenbauer(m, lam, 1)


def test_homogeneous_gegenbauer_to_degree_30():
    rng = np.random.default_rng(5)
    s = np.concatenate([np.ones(4), rng.uniform(0, 1, 8)])
    u = np.sqrt(s) * rng.uniform(-1, 1, s.size)
    # two parameters of a low-degree factor and one of the first factor of
    # a degree-30 ball polynomial, mu + |k^2| + 1/2
    for lam in [*rng.uniform(0.3, 2.5, 2).tolist(), float(rng.uniform(10, 31))]:
        for m in range(HOMOGENEOUS_MAX_DEGREE + 1):
            with mp.workdps(DPS):
                want, scale = (np.array(v, dtype=float) for v in zip(
                    *(_homogeneous_mp(m, lam, ui, si) for ui, si in zip(u, s))))
            err = np.max(np.abs(gegenbauer_homogeneous(m, lam, u, s) - want) / scale)
            assert err <= 1e-12, (lam, m, err)


def test_ball_homogeneous_to_degree_30():
    rng = np.random.default_rng(6)
    t = np.concatenate([np.ones(2), rng.uniform(0, 1, 6)])
    radius, angle = np.sqrt(t * rng.uniform(0, 1, t.size)), rng.uniform(0, 2 * np.pi, t.size)
    x = [radius * np.cos(angle), radius * np.sin(angle)]
    for mu in (0.5, 1.5):
        for n in range(HOMOGENEOUS_MAX_DEGREE + 1):
            for k in sorted({(0, n), (n // 2, n - n // 2), (n, 0)}):
                lam = [lambda_param(k, mu, j) for j in (1, 2)]
                want, scale = [], []
                with mp.workdps(DPS):
                    for tp, x1, x2 in zip(t, *x):
                        h1, s1 = _homogeneous_mp(k[0], lam[0], x1, tp)
                        h2, s2 = _homogeneous_mp(k[1], lam[1], x2, mp.mpf(tp) - mp.mpf(x1) ** 2)
                        want.append(float(h1 * h2))
                        scale.append(float(s1 * s2))
                err = np.max(np.abs(ball_homogeneous(k, mu, x, t) - want) / scale)
                assert err <= 1e-12, (mu, k, err)
