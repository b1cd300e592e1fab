import itertools
import math

import numpy as np
import pytest

from orthopara.ball import ball_norm
from orthopara.classical import jacobi, laguerre
from orthopara.errors import DomainError
from orthopara.paraboloid import (
    jacobi_paraboloid, jacobi_paraboloid_norm, laguerre_paraboloid,
    laguerre_paraboloid_norm, radial_alpha,
)
from orthopara.verifier import degree_index_pairs
from slice_tensor import slice_tensor


def test_degenerate_radial_degree():
    # m = n = |k|: the radial factor is degree 0, leaving t^{n/2} P_k(x/sqrt(t))
    t, x = 0.49, [0.3]
    got = jacobi_paraboloid(1, (1,), 0.2, 0.3, 0.7, t, x)
    want = math.sqrt(t) * 2 * 0.7 * (x[0] / math.sqrt(t))
    assert got == pytest.approx(want, rel=1e-13)
    got = laguerre_paraboloid(1, (1,), 0.2, 0.7, t, x)
    assert got == pytest.approx(want, rel=1e-13)


def test_radial_parameter_and_first_laguerre():
    # d=1, beta=0, mu=1/2: alpha_0 = 1/2, so the m=1, k=0 radial factor is
    # L_1^{1/2}(t) = 3/2 - t
    assert radial_alpha(0, 0.0, 0.5, 1) == pytest.approx(0.5)
    t = 0.37
    got = laguerre_paraboloid(1, (0,), 0.0, 0.5, t, [0.1])
    assert got == pytest.approx(1.5 - t, rel=1e-13)


def test_jacobi_radial_factor():
    # m=1, k=0, d=1, beta=gamma=0, mu=1/2: alpha_0 = 0 + 0 + 1/2 + 0 = 1/2,
    # so the value is P_1^{(1/2,0)}(1-2t) (two-term expansion 3/2 - 5(1-s)/4)
    t = 0.29
    got = jacobi_paraboloid(1, (0,), 0.0, 0.0, 0.5, t, [0.2])
    assert got == pytest.approx(jacobi(1, 0.5, 0.0, 1 - 2 * t), rel=1e-13)
    assert got == pytest.approx(1.5 - 2.5 * t, rel=1e-13)


def test_apex_is_regular():
    assert laguerre_paraboloid(2, (2,), 0.0, 0.5, 0.0, [0.0]) == 0.0
    assert np.isfinite(jacobi_paraboloid(2, (1,), 0.1, 0.2, 0.7, 0.0, [0.0]))


def test_domain_checks():
    with pytest.raises(DomainError):
        jacobi_paraboloid(1, (0,), 0.0, 0.0, 0.5, 1.2, [0.1])
    with pytest.raises(DomainError):
        laguerre_paraboloid(1, (0,), 0.0, 0.5, 0.04, [0.3])
    with pytest.raises(DomainError):
        laguerre_paraboloid(0, (1,), 0.0, 0.5, 0.2, [0.1])


def test_unit_inner_product_closed_beta():
    # <1,1> with d=1, b=1, beta=gamma=0, mu=1/2 is 2 * int_0^1 t^{1/2} dt = 4/3
    one = lambda t, x: np.ones(np.broadcast_shapes(np.shape(t), *(np.shape(v) for v in x)))
    got = slice_tensor(lambda t, x: one(t, x) ** 2, 1, 0.5, 16, ("jacobi", 0.0, 0.0))
    assert got == pytest.approx(4 / 3, rel=1e-13)


def test_laguerre_inner_products_inline_computation():
    beta, mu = 0.0, 0.5
    f0 = lambda t, x: laguerre_paraboloid(0, (0,), beta, mu, t, x)
    f1 = lambda t, x: laguerre_paraboloid(1, (0,), beta, mu, t, x)
    off = slice_tensor(lambda t, x: f0(t, x) * f1(t, x), 1, mu, 20, ("laguerre", beta, 0.0))
    assert abs(off) < 1e-10
    diag = slice_tensor(lambda t, x: f1(t, x) ** 2, 1, mu, 20, ("laguerre", beta, 0.0))
    # Gamma(alpha_0 + 2)/1! * ball norm with alpha_0 = 1/2
    want = math.gamma(2.5) * 2.0
    assert diag == pytest.approx(want, rel=1e-12)
    assert laguerre_paraboloid_norm(1, (0,), beta, mu) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_jacobi_gram(d):
    beta, gamma, mu = 0.3, 0.4, 0.6
    pairs = degree_index_pairs(d, 3)
    for (m, k), (m2, k2) in itertools.combinations_with_replacement(pairs, 2):
        f = lambda t, x: jacobi_paraboloid(m, k, beta, gamma, mu, t, x)
        g = lambda t, x: jacobi_paraboloid(m2, k2, beta, gamma, mu, t, x)
        entry = slice_tensor(lambda t, x: f(t, x) * g(t, x), d, mu, 16, ("jacobi", beta, gamma))
        d1 = jacobi_paraboloid_norm(m, k, beta, gamma, mu)
        d2 = jacobi_paraboloid_norm(m2, k2, beta, gamma, mu)
        if (m, k) == (m2, k2):
            assert entry == pytest.approx(d1, rel=1e-10)
        else:
            assert abs(entry) <= 1e-10 * math.sqrt(d1 * d2)


@pytest.mark.parametrize("d", [1, 2])
def test_laguerre_gram(d):
    beta, mu = 0.2, 0.7
    pairs = degree_index_pairs(d, 3)
    for (m, k), (m2, k2) in itertools.combinations_with_replacement(pairs, 2):
        f = lambda t, x: laguerre_paraboloid(m, k, beta, mu, t, x)
        g = lambda t, x: laguerre_paraboloid(m2, k2, beta, mu, t, x)
        entry = slice_tensor(lambda t, x: f(t, x) * g(t, x), d, mu, 16, ("laguerre", beta, 0.0))
        d1 = laguerre_paraboloid_norm(m, k, beta, mu)
        d2 = laguerre_paraboloid_norm(m2, k2, beta, mu)
        if (m, k) == (m2, k2):
            assert entry == pytest.approx(d1, rel=1e-10)
        else:
            assert abs(entry) <= 1e-10 * math.sqrt(d1 * d2)


def _monomials(d, degree):
    out = []
    for alloc in itertools.product(range(degree + 1), repeat=d + 1):
        if sum(alloc) <= degree:
            out.append(alloc)
    return out


@pytest.mark.parametrize(
    "family,d,m,k",
    [
        ("jacobi", 1, 3, (1,)),
        ("jacobi", 2, 3, (1, 1)),
        ("laguerre", 1, 2, (2,)),
        ("laguerre", 2, 3, (0, 2)),
    ],
)
def test_total_degree_by_interpolation(family, d, m, k):
    # fit a total-degree-m polynomial on sample points, check it reproduces
    # the basis function at fresh points
    beta, gamma, mu = 0.3, 0.4, 0.6
    if family == "jacobi":
        f = lambda t, x: jacobi_paraboloid(m, k, beta, gamma, mu, t, x)
    else:
        f = lambda t, x: laguerre_paraboloid(m, k, beta, mu, t, x)
    rng = np.random.default_rng(12)
    monos = _monomials(d, m)
    n_fit = 4 * len(monos)
    t = rng.uniform(0.2, 1.0, n_fit)
    xs = [rng.uniform(-0.3, 0.3, n_fit) for _ in range(d)]
    V = np.column_stack([t**a0 * np.prod([x**a for x, a in zip(xs, rest)], axis=0)
                         for (a0, *rest) in monos])
    vals = f(t, xs)
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    t2 = rng.uniform(0.2, 1.0, 50)
    xs2 = [rng.uniform(-0.3, 0.3, 50) for _ in range(d)]
    V2 = np.column_stack([t2**a0 * np.prod([x**a for x, a in zip(xs2, rest)], axis=0)
                          for (a0, *rest) in monos])
    err = np.abs(V2 @ coef - f(t2, xs2)).max()
    assert err < 1e-10 * max(1.0, np.abs(vals).max())
