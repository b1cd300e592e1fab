import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from orthopara.errors import DomainError
from orthopara.gammafn import gamma
from orthopara.quadrature import (
    MAX_NODES_PER_AXIS, composite_legendre, gauss_jacobi, gauss_laguerre,
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
    for panels, n in ((1, 0), (0, 5), (1, 20000), (2000, 12), (2.0, 12), (2, 12.0)):
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


@pytest.mark.parametrize("build", [lambda n: gauss_jacobi(n, 0.5, 0.5),
                                   lambda n: gauss_laguerre(n, 0.5)], ids=["jacobi", "laguerre"])
def test_gauss_rule_sizes_checked(build):
    # a size that is not an integer in [1, MAX_NODES_PER_AXIS] is a
    # DomainError before scipy sees it, and a numpy integer size is the int
    for n in (0, -3, 2.0, 2.5, "2", MAX_NODES_PER_AXIS + 1):
        with pytest.raises(DomainError):
            build(n)
    assert len(build(1)) == 1
    r64, r = build(np.int64(5)), build(5)
    assert np.array_equal(r64.nodes, r.nodes) and np.array_equal(r64.weights, r.weights)


@pytest.mark.parametrize("build", [lambda: gauss_jacobi(8, 0.5, 0.5),
                                   lambda: gauss_laguerre(8, 0.5),
                                   lambda: composite_legendre(-2.0, 3.0, 4, 12)],
                         ids=["jacobi", "laguerre", "composite"])
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
