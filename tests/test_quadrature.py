import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_genlaguerre, roots_jacobi

import orthopara
from orthopara.classical import jacobi, jacobi_norm, laguerre, laguerre_norm
from orthopara.errors import DomainError
from orthopara.gammafn import gamma
from orthopara.paraboloid import t_rule
from orthopara.quadrature import (
    MAX_GAUSS_NODES, MAX_NODES_PER_AXIS, composite_legendre, gauss_jacobi, gauss_laguerre,
)
from references import tanh_sinh, tensor_integrate


def test_gauss_legendre_basics():
    # one panel on [-1, 1] is the plain Gauss-Legendre rule
    r = composite_legendre(-1.0, 1.0, 1, 1)
    assert r.nodes[0] == 0.0 and r.weights[0] == 2.0
    r5 = composite_legendre(-1.0, 1.0, 1, 5)
    assert np.sum(r5.weights * r5.nodes**8) == pytest.approx(2 / 9, abs=1e-14)
    assert np.sum(r5.weights) == pytest.approx(2.0, abs=1e-12)
    assert (r5.weights > 0).all()
    for panels, n in ((1, 0), (0, 5), (1, 20000), (2000, 12), (2.0, 12), (2, 12.0), (True, 12),
                      (1, True)):
        with pytest.raises(DomainError):
            composite_legendre(-1.0, 1.0, panels, n)


def test_gauss_legendre_exactness_random_polys():
    rng = np.random.default_rng(1)
    for n in (3, 6, 11):
        r = composite_legendre(-1.0, 1.0, 1, n)
        deg = 2 * n - 1
        coefs = rng.uniform(-1, 1, deg + 1)
        got = np.sum(r.weights * np.polyval(coefs, r.nodes))
        # exact antiderivative on [-1, 1]
        integ = np.polyint(coefs)
        want = np.polyval(integ, 1.0) - np.polyval(integ, -1.0)
        assert abs(got - want) < 1e-12 * np.abs(coefs).sum()


def test_gauss_laguerre():
    r = gauss_laguerre(2, 0.0)
    assert np.sum(r.weights * r.nodes) == pytest.approx(1.0, rel=1e-13)
    r = gauss_laguerre(4, 0.0)
    assert np.sum(r.weights * r.nodes**3) == pytest.approx(6.0, rel=1e-13)
    with pytest.raises(DomainError):
        gauss_laguerre(4, -1.5)


def test_gauss_jacobi_beta_moment():
    # integral of (1-x)^0.5 (1+x)^0.5 x^2 on [-1,1] equals pi/8 * ... checked
    # through the refined beta-integral value pi/8 for (1-x^2)^{1/2} x^2
    r3 = gauss_jacobi(3, 0.5, 0.5)
    val3 = np.sum(r3.weights * r3.nodes**2)
    assert val3 == pytest.approx(math.pi / 8, abs=1e-3)
    r = gauss_jacobi(12, 0.5, 0.5)
    val = np.sum(r.weights * r.nodes**2)
    assert val == pytest.approx(math.pi / 8, rel=1e-10)


RULE_SIZES = (1, 2, 3, 16, 17, 64, 128)
JACOBI_EXPONENTS = [(0.0, 0.0), (0.5, 0.5), (-0.6, -0.6), (-0.5, -0.5), (2.5, 2.5),
                    (0.5, -0.5), (0.3, 0.7), (-0.6, 2.0)]
LAGUERRE_ALPHAS = (-0.6, 0.0, 2.5)


def _orthonormality_error(rule, poly, norm):
    # max over j, k <= min(n - 1, 40) of |sum w P_j P_k - delta_jk h_j| / sqrt(h_j h_k):
    # an n-point Gauss rule is exact for degree 2n - 1
    degrees = range(min(len(rule) - 1, 40) + 1)
    values = np.array([poly(j, rule.nodes) for j in degrees])
    h = np.array([norm(j) for j in degrees])
    gram = (values * rule.weights) @ values.T
    return np.max(np.abs(gram - np.diag(h)) / np.sqrt(np.outer(h, h)))


@pytest.mark.parametrize("n", RULE_SIZES)
@pytest.mark.parametrize("a, b", JACOBI_EXPONENTS)
def test_gauss_jacobi_orthonormality(n, a, b):
    # odd and even n, symmetric (a == b) and not
    rule = gauss_jacobi(n, a, b)
    assert np.all(np.diff(rule.nodes) > 0) and np.all(rule.weights > 0)
    err = _orthonormality_error(rule, lambda j, x: jacobi(j, a, b, x),
                                lambda j: jacobi_norm(j, a, b))
    assert err < 1e-11


@pytest.mark.parametrize("n", RULE_SIZES)
@pytest.mark.parametrize("alpha", LAGUERRE_ALPHAS)
def test_gauss_laguerre_orthonormality(n, alpha):
    rule = gauss_laguerre(n, alpha)
    assert np.all(np.diff(rule.nodes) > 0) and np.all(rule.weights > 0)
    err = _orthonormality_error(rule, lambda j, x: laguerre(j, alpha, x),
                                lambda j: laguerre_norm(j, alpha))
    assert err < 1e-11


@pytest.mark.parametrize("a, b", [(-0.3, -0.7), (0.5, -0.5)], ids=["a+b=-1", "a+b=0"])
def test_gauss_jacobi_exponent_sums_minus_one_and_zero(a, b):
    # the recurrence coefficients' general terms are 0/0 here: no warning
    # (every warning fails a test) and exact rules
    for n in (2, 3, 16, 17):
        err = _orthonormality_error(gauss_jacobi(n, a, b), lambda j, x: jacobi(j, a, b, x),
                                    lambda j: jacobi_norm(j, a, b))
        assert err < 1e-11


def _assert_close_to(rule, x, w):
    assert np.all(np.abs(rule.nodes - x) <= 1e-15 * np.maximum(1.0, np.abs(x)))
    assert np.all(np.abs(rule.weights - w) <= 1e-9 * w)


@pytest.mark.parametrize("n", RULE_SIZES)
@pytest.mark.parametrize("a, b", JACOBI_EXPONENTS + [(300.0, 300.0), (600.0, 700.0)])
def test_gauss_jacobi_matches_scipy(n, a, b):
    # scipy's roots_jacobi as an independent reference
    _assert_close_to(gauss_jacobi(n, a, b), *roots_jacobi(n, a, b))


@pytest.mark.parametrize("n", RULE_SIZES)
@pytest.mark.parametrize("alpha", LAGUERRE_ALPHAS)
def test_gauss_laguerre_matches_scipy(n, alpha):
    _assert_close_to(gauss_laguerre(n, alpha), *roots_genlaguerre(n, alpha))


def test_rule_families_leave_scipy_linalg_unimported():
    # a reduced sweep of every family that builds a Gauss rule, in a fresh
    # interpreter: the rules need numpy's eigvalsh, not scipy.linalg
    families = ["ORT_GEGEN", "ORT_JACOBI", "ORT_LAGUERRE", "ORT_BALL", "ORT_PARA_J", "ORT_PARA_L"]
    code = (
        "import sys\n"
        "from orthopara.cli import SweepConfig\n"
        "from orthopara.verifier import generate_cases, run_case\n"
        f"cfg = SweepConfig(families={families!r}, dims=[1, 2], max_degree_1d=2,\n"
        "                  max_degree_multi=1, ort_param_draws=1)\n"
        "cfg.validate()\n"
        "cases = generate_cases(cfg)\n"
        "assert all(run_case(c).passed for c in cases)\n"
        "ran = sorted({c.identity_id for c in cases})\n"
        "print(ran, 'scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(orthopara.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"{sorted(families)!r} False"
    package = Path(orthopara.__file__).parent
    assert not any(name in path.read_text() for path in package.glob("*.py")
                   for name in ("roots_jacobi", "roots_genlaguerre"))


@pytest.mark.parametrize("build", [lambda n: gauss_jacobi(n, 0.5, 0.5),
                                   lambda n: gauss_laguerre(n, 0.5)], ids=["jacobi", "laguerre"])
def test_gauss_rule_sizes_checked(build):
    # a size that is not an index (``is_index``: not a float or a bool) in
    # [1, MAX_GAUSS_NODES] is a DomainError before a rule is built, and a
    # numpy integer size is the int
    for n in (0, -3, 2.0, 2.5, "2", True, MAX_GAUSS_NODES + 1, MAX_NODES_PER_AXIS + 1):
        with pytest.raises(DomainError):
            build(n)
    assert len(build(1)) == 1
    r64, r = build(np.int64(5)), build(5)
    assert np.array_equal(r64.nodes, r.nodes) and np.array_equal(r64.weights, r.weights)


@pytest.mark.parametrize("build", [lambda: gauss_jacobi(8, 0.5, 0.5),
                                   lambda: gauss_laguerre(8, 0.5),
                                   lambda: composite_legendre(-2.0, 3.0, 4, 12),
                                   lambda: t_rule("jacobi", 8, 0.3, 0.4, 0.7, 2),
                                   lambda: t_rule("laguerre", 8, 0.3, 0.0, 0.7, 2)],
                         ids=["jacobi", "laguerre", "composite", "t_jacobi", "t_laguerre"])
def test_rules_are_read_only(build):
    # no caller can change a rule that another call returns
    r = build()
    nodes, weights = r.nodes.copy(), r.weights.copy()
    x, w = r.nodes, r.weights
    with pytest.raises(ValueError):
        x *= 2
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        x.sort()
    again = build()
    assert np.array_equal(again.nodes, nodes) and np.array_equal(again.weights, weights)
    assert not again.nodes.flags.writeable and not again.weights.flags.writeable


def test_tanh_sinh_endpoint_singularity():
    r = tanh_sinh(3)
    val = np.sum(r.weights * r.nodes**-0.5)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_scaled_and_composite():
    # one panel is the affine image of the Gauss-Legendre rule on [0, 3]
    r = composite_legendre(0.0, 3.0, 1, 8)
    assert np.sum(r.weights * r.nodes**2) == pytest.approx(9.0, rel=1e-12)
    c = composite_legendre(0.0, 3.0, panels=5, n=8)
    assert np.sum(c.weights * np.exp(-c.nodes)) == pytest.approx(1 - math.exp(-3), rel=1e-13)


@pytest.mark.parametrize("lo, hi, panels, n", [
    (0.0, 3.0, 5, 8), (0, 1, 4, 10), (0, 2, 4, 10), (0, 1, 3, 8), (-40, 40, 90, 12),
    (-30, 5, 50, 12), (-7.321, 7.321, 16, 12), (-2.5, 11.25, 1, 3),
])
def test_composite_equals_panelwise_scaled(lo, hi, panels, n):
    # the vectorised construction is the per-panel affine map, bit for bit
    x, w = leggauss(n)
    edges = np.linspace(lo, hi, panels + 1)
    slopes = [(edges[i + 1] - edges[i]) / 2.0 for i in range(panels)]
    c = composite_legendre(lo, hi, panels, n)
    assert np.array_equal(c.nodes, np.concatenate(
        [edges[i] + (x + 1.0) * slopes[i] for i in range(panels)]))
    assert np.array_equal(c.weights, np.concatenate([w * s for s in slopes]))
    assert len(c) == panels * n
    # read-only, as every rule
    with pytest.raises(ValueError):
        c.nodes[0] = 0.0
    with pytest.raises(ValueError):
        c.weights[0] = 0.0


def test_line_gamma_decay():
    # |Gamma(1+is)|^2 = pi s / sinh(pi s) integrates to pi/2; it decays like
    # e^{-pi |s|}, so [-T, T] with e^{-pi T} ~ 1e-13 holds the whole integral
    T = 1.1 * math.log(1e12) / math.pi
    r = composite_legendre(-T, T, 64, 12)
    val = np.sum(r.weights * gamma(1 + 1j * r.nodes) * gamma(1 - 1j * r.nodes))
    assert val.real == pytest.approx(math.pi / 2, rel=1e-9)
    assert abs(val.imag) < 1e-12


def test_tensor_product_factorization():
    rx = composite_legendre(0, 1, 4, 10)
    ry = composite_legendre(0, 2, 4, 10)
    f = lambda x, y: np.exp(-x) * np.cos(y)
    got = tensor_integrate([rx, ry], f)
    want = (1 - math.exp(-1)) * math.sin(2.0)
    assert got == pytest.approx(want, rel=1e-12)
    # three axes, chunked path stays consistent with the joint product
    rz = composite_legendre(0, 1, 3, 8)
    g = lambda x, y, z: x * np.ones_like(y) * z
    got3 = tensor_integrate([rx, ry, rz], g)
    assert got3 == pytest.approx(0.5 * 2.0 * 0.5, rel=1e-12)


def test_tensor_ball_volume():
    # area of the unit disk via the slice parametrization
    r = gauss_jacobi(30, 0.5, 0.5)
    r2 = composite_legendre(-1.0, 1.0, 1, 30)
    val = tensor_integrate([r, r2], lambda a, b: np.ones_like(a) * np.ones_like(b) / 2)
    assert val == pytest.approx(math.pi / 2, rel=1e-10)
