import hashlib
import math

import numpy as np
import pytest
import scipy.integrate as si

from orthopara.classical import continuous_hahn, gegenbauer
from orthopara.errors import DomainError
from orthopara.gammafn import beta as betafn
from orthopara.gammafn import gamma, pochhammer
from orthopara.hyper import hyp_terminating
from orthopara.ball import ball_eval
from orthopara.paraboloid import jacobi_paraboloid, laguerre_paraboloid
from orthopara.quadrature import composite_legendre
from orthopara.transforms import (
    A_t, B_t, SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A, eval_A_hahn,
    eval_B, eval_B_hahn, eval_D, eval_D_hahn, eval_g, eval_h_jacobi,
    eval_h_laguerre, fourier_g_closed, fourier_h_jacobi_closed,
    fourier_h_laguerre_closed, lambda_factor, phi_factor, phi_factor_hahn,
    theta_factor,
)
from references import tensor_integrate

PJ = WrapParamsJacobi(alpha=0.8, zeta=1.1, eta=0.9, beta=0.3, gamma=0.4, mu=0.7)
PL = WrapParamsLaguerre(alpha=0.8, zeta=1.1, beta=0.3, mu=0.7)


def sech2(x):
    return 1.0 / np.cosh(x) ** 2


# ---------------------------------------------------------------------------
# wrapped functions


def test_g_trivial():
    x = 0.73
    assert eval_g((0,), 0.8, 0.7, [x]) == pytest.approx(sech2(x) ** 0.8, rel=1e-14)
    assert eval_g((1,), 0.8, 0.7, [x]) == pytest.approx(
        sech2(x) ** 0.8 * 2 * 0.7 * np.tanh(x), rel=1e-14
    )


def test_g_factorization_matches_ball_composition():
    # definitional form: damping prefactor times the ball polynomial at the
    # tanh-substituted point
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        for _ in range(20):
            k = tuple(int(v) for v in rng.integers(0, 3, d))
            alpha, mu = rng.uniform(0.3, 1.5, 2)
            x = rng.uniform(-2, 2, d)
            th = []
            scale = 1.0
            for j in range(d):
                th.append(np.tanh(x[j]) * math.sqrt(scale))
                scale *= 1 - np.tanh(x[j]) ** 2
            pref = np.prod([sech2(x[j]) ** (alpha + 0.25 * (d - (j + 1))) for j in range(d)])
            want = pref * ball_eval(k, mu, th)
            got = eval_g(k, alpha, mu, list(x))
            assert got == pytest.approx(want, rel=1e-13)


def test_h_jacobi_trivial_and_sample():
    t, x = 0.4, -0.9
    want = (1 + np.tanh(t)) ** PJ.zeta * (1 - np.tanh(t)) ** PJ.eta * sech2(x) ** PJ.alpha
    assert eval_h_jacobi(0, (0,), PJ, t, [x]) == pytest.approx(want, rel=1e-14)
    # frozen composition-oracle value at (0.3, 0.7), m=2, k=(1)
    assert eval_h_jacobi(2, (1,), PJ, 0.3, [0.7]) == pytest.approx(
        0.07307248802249999, rel=1e-12
    )


def test_h_jacobi_matches_wrapped_basis():
    rng = np.random.default_rng(6)
    for d in (1, 2):
        for _ in range(15):
            k = tuple(int(v) for v in rng.integers(0, 3, d))
            m = sum(k) + int(rng.integers(0, 3))
            t = rng.uniform(-1.5, 1.5)
            x = rng.uniform(-1.5, 1.5, d)
            s1 = (1 + np.tanh(t)) / 2
            th = []
            scale = 1.0
            for j in range(d):
                th.append(np.tanh(x[j]) * math.sqrt(scale))
                scale *= 1 - np.tanh(x[j]) ** 2
            point_x = [math.sqrt(s1) * v for v in th]
            pref = np.prod([sech2(x[j]) ** (PJ.alpha + 0.25 * (d - (j + 1))) for j in range(d)])
            pref *= (1 + np.tanh(t)) ** PJ.zeta * (1 - np.tanh(t)) ** PJ.eta
            want = pref * jacobi_paraboloid(m, k, PJ.beta, PJ.gamma, PJ.mu, s1, point_x)
            got = eval_h_jacobi(m, k, PJ, t, list(x))
            assert got == pytest.approx(want, rel=1e-12)


def test_h_laguerre_trivial_and_sample():
    t, x = -0.2, 0.5
    want = np.exp(-np.exp(t) / 2 + PL.zeta * t) * sech2(x) ** PL.alpha
    assert eval_h_laguerre(0, (0,), PL, t, [x]) == pytest.approx(want, rel=1e-14)
    assert eval_h_laguerre(1, (0,), PL, 0.1, [-0.4]) == pytest.approx(
        0.5074111869219787, rel=1e-12
    )


def test_h_laguerre_matches_wrapped_basis():
    rng = np.random.default_rng(7)
    for d in (1, 2):
        for _ in range(15):
            k = tuple(int(v) for v in rng.integers(0, 3, d))
            m = sum(k) + int(rng.integers(0, 3))
            t = rng.uniform(-1.5, 1.0)
            x = rng.uniform(-1.5, 1.5, d)
            s1 = np.exp(t)
            th = []
            scale = 1.0
            for j in range(d):
                th.append(np.tanh(x[j]) * math.sqrt(scale))
                scale *= 1 - np.tanh(x[j]) ** 2
            point_x = [math.sqrt(s1) * v for v in th]
            pref = np.prod([sech2(x[j]) ** (PL.alpha + 0.25 * (d - (j + 1))) for j in range(d)])
            pref *= np.exp(-np.exp(t) / 2 + PL.zeta * t)
            want = pref * laguerre_paraboloid(m, k, PL.beta, PL.mu, s1, point_x)
            got = eval_h_laguerre(m, k, PL, t, list(x))
            assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# per-axis transform factor


def test_phi_trivial():
    a = 0.8
    assert phi_factor(1, a, 0.7, (0,), 0.0) == pytest.approx(betafn(a, a), rel=1e-13)


def test_phi_conjugate_symmetry():
    xi = 1.37
    v1 = phi_factor(1, 0.8, 0.7, (2, 1), -xi)
    v2 = phi_factor(1, 0.8, 0.7, (2, 1), xi)
    assert v1 == pytest.approx(np.conj(v2), rel=1e-13)


def test_phi_against_quadrature_oracle():
    # F(g) for d=1, k=(2): phi = F / (2^{2a-1} (2 mu)_2 / 2!)
    alpha, mu, xi = 0.8, 0.6, 1.1
    fre = si.quad(lambda X: np.cos(xi * X) * sech2(X) ** alpha
                  * gegenbauer(2, mu, np.tanh(X)), -40, 40, limit=400)[0]
    fim = si.quad(lambda X: -np.sin(xi * X) * sech2(X) ** alpha
                  * gegenbauer(2, mu, np.tanh(X)), -40, 40, limit=400)[0]
    pref = 2 ** (2 * alpha - 1) * pochhammer(2 * mu, 2) / 2
    want = (fre + 1j * fim) / pref
    assert phi_factor(1, alpha, mu, (2,), xi) == pytest.approx(want, rel=1e-9)
    # frozen value of the same oracle
    assert phi_factor(1, alpha, mu, (2,), xi) == pytest.approx(
        -0.2636346844407706 + 0j, rel=1e-9, abs=1e-12
    )


def test_phi_worked_d1_form():
    # the d=1 factor is B(a+i xi/2, a-i xi/2) 3F2(-k, k+2mu, a+i xi/2; mu+1/2, 2a; 1)
    alpha, mu, xi, k1 = 0.9, 0.6, -0.7, 2
    want = betafn(alpha + 0.5j * xi, alpha - 0.5j * xi) * hyp_terminating(
        [-k1, k1 + 2 * mu, alpha + 0.5j * xi], [mu + 0.5, 2 * alpha], 1.0
    )
    assert phi_factor(1, alpha, mu, (k1,), xi) == pytest.approx(want, rel=1e-13)


def test_phi_hahn_form_agrees():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.integers(1, 3))
        k = tuple(int(v) for v in rng.integers(0, 3, d))
        j = int(rng.integers(1, d + 1))
        alpha, mu = rng.uniform(0.2, 3.0, 2)
        xi = rng.uniform(-3, 3)
        v1 = phi_factor(j, alpha, mu, k, xi)
        v2 = phi_factor_hahn(j, alpha, mu, k, xi)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)
    assert phi_factor_hahn(1, 0.8, 0.7, (0,), 0.4) == pytest.approx(
        phi_factor(1, 0.8, 0.7, (0,), 0.4), rel=1e-14
    )


def test_phi_domain_error():
    with pytest.raises(DomainError):
        phi_factor(1, -0.1, 0.7, (0,), 0.0)
    # the axis must lie in 1..len(k), in both forms
    for fn in (phi_factor, phi_factor_hahn):
        for j in (0, 2):
            with pytest.raises(DomainError):
                fn(j, 0.8, 0.7, (1,), 0.3)


# ---------------------------------------------------------------------------
# closed transform of the ball part


def test_fourier_g_base_cases():
    a = 0.8
    got = fourier_g_closed((0,), a, 0.7, (0.0,))
    assert got == pytest.approx(2 ** (2 * a - 1) * betafn(a, a), rel=1e-13)
    got2 = fourier_g_closed((0, 0), a, 0.7, (0.0, 0.0))
    want2 = 2 ** (4 * a - 1.5) * betafn(a + 0.25, a + 0.25) * betafn(a, a)
    assert got2 == pytest.approx(want2, rel=1e-13)


def test_fourier_g_multi_d_factorization():
    # the closed form equals the product of per-axis 1-D numeric transforms
    k, alpha, mu, d = (1, 2), 0.9, 0.6, 2
    xi = (0.7, -0.4)
    closed = fourier_g_closed(k, alpha, mu, xi)
    direct = 1.0
    for j in (1, 2):
        K = sum(k[j:])
        lam = mu + K + 0.5 * (d - j)
        A = alpha + 0.25 * (d - j) + 0.5 * K
        rule = composite_legendre(-40, 40, 90, 12)
        fx = sech2(rule.nodes) ** A * gegenbauer(k[j - 1], lam, np.tanh(rule.nodes))
        direct *= np.sum(rule.weights * np.exp(-1j * xi[j - 1] * rule.nodes) * fx)
    assert closed == pytest.approx(direct, rel=1e-8)


# ---------------------------------------------------------------------------
# degree-coupling factors and closed h transforms


def test_theta_trivial_and_brute():
    assert theta_factor(2, (2,), 1.1, 0.9, 0.3, 0.4, 0.7, 0.5) == 1.0
    xi = 0.93
    v1 = theta_factor(2, (0,), 1.1, 0.9, 0.3, 0.4, 0.7, -xi)
    v2 = theta_factor(2, (0,), 1.1, 0.9, 0.3, 0.4, 0.7, xi)
    assert v1 == pytest.approx(np.conj(v2), rel=1e-13)
    # frozen brute-force 3-term sum, m=2, k=0, d=1, xi=0.6
    got = theta_factor(2, (0,), 1.1, 0.9, 0.3, 0.4, 0.7, 0.6)
    assert got == pytest.approx(0.0452 + 0.0264j, rel=1e-12)


def test_lambda_trivial_and_two_term():
    assert lambda_factor(1, (1,), 1.1, 0.7, 0.3, 0.5) == 1.0
    zeta, mu, beta, xi = 1.1, 0.7, 0.3, 0.8
    got = lambda_factor(1, (0,), zeta, mu, beta, xi)
    want = 1 - 2 * (zeta - 1j * xi) / (mu + beta + 1)
    assert got == pytest.approx(want, rel=1e-13)
    got3 = lambda_factor(3, (0,), zeta, mu, beta, xi)
    brute = sum(
        pochhammer(-3, j) * pochhammer(zeta - 1j * xi, j)
        / (pochhammer(mu + beta + 1, j) * math.factorial(j)) * 2.0**j
        for j in range(4)
    )
    assert got3 == pytest.approx(brute, rel=1e-12)


def test_fourier_h_jacobi_base_case():
    got = fourier_h_jacobi_closed(0, (0,), PJ, (0.0, 0.0))
    want = (
        2 ** (PJ.zeta + PJ.eta - 1)
        * gamma(PJ.zeta) * gamma(PJ.eta) / gamma(PJ.zeta + PJ.eta)
        * 2 ** (2 * PJ.alpha - 1) * betafn(PJ.alpha, PJ.alpha)
    )
    assert got == pytest.approx(want, rel=1e-13)


def test_fourier_h_laguerre_base_case():
    got = fourier_h_laguerre_closed(0, (0,), PL, (0.0, 0.0))
    want = 2**PL.zeta * gamma(PL.zeta) * 2 ** (2 * PL.alpha - 1) * betafn(PL.alpha, PL.alpha)
    assert got == pytest.approx(want, rel=1e-13)


def test_fourier_h_conjugate_symmetry():
    xi = (0.7, -0.4)
    mxi = (-0.7, 0.4)
    vj = fourier_h_jacobi_closed(2, (1,), PJ, xi)
    assert fourier_h_jacobi_closed(2, (1,), PJ, mxi) == pytest.approx(np.conj(vj), rel=1e-12)
    vl = fourier_h_laguerre_closed(2, (1,), PL, xi)
    assert fourier_h_laguerre_closed(2, (1,), PL, mxi) == pytest.approx(np.conj(vl), rel=1e-12)


def test_fourier_h_conjugate_symmetry_random_draws():
    # Schwarz reflection of every closed transform: real wrapped functions
    # give F(-xi) = conj(F(xi)) for any valid parameter draw
    rng = np.random.default_rng(15)
    for _ in range(40):
        d = int(rng.integers(1, 3))
        k = tuple(int(v) for v in rng.integers(0, 3, d))
        m = sum(k) + int(rng.integers(0, 3))
        pj = WrapParamsJacobi(*(rng.uniform(0.4, 1.5, 3)), rng.uniform(-0.3, 0.8),
                              rng.uniform(-0.3, 0.8), rng.uniform(0.3, 1.2))
        pl = WrapParamsLaguerre(pj.alpha, pj.zeta, pj.beta, pj.mu)
        xi = rng.uniform(-2, 2, d + 1)
        vj = fourier_h_jacobi_closed(m, k, pj, tuple(xi))
        wj = fourier_h_jacobi_closed(m, k, pj, tuple(-xi))
        assert wj == pytest.approx(np.conj(vj), rel=1e-12)
        vl = fourier_h_laguerre_closed(m, k, pl, tuple(xi))
        wl = fourier_h_laguerre_closed(m, k, pl, tuple(-xi))
        assert wl == pytest.approx(np.conj(vl), rel=1e-12)


def test_fourier_h_vs_direct_2d_quadrature():
    # d=1: honest tensor quadrature of the wrapped function against e^{-i xi.(x,t)}
    m, k = 2, (1,)
    xi = (0.7, -0.4)
    t_rule = composite_legendre(-16, 16, 48, 12)
    x_rule = composite_legendre(-22, 22, 60, 12)
    direct = tensor_integrate(
        [t_rule, x_rule],
        lambda t, x: np.exp(-1j * (xi[0] * x + xi[1] * t)) * eval_h_jacobi(m, k, PJ, t, [x]),
    )
    closed = fourier_h_jacobi_closed(m, k, PJ, xi)
    assert closed == pytest.approx(direct, rel=1e-8)
    t_rule = composite_legendre(-30, 5, 50, 12)
    directL = tensor_integrate(
        [t_rule, x_rule],
        lambda t, x: np.exp(-1j * (xi[0] * x + xi[1] * t)) * eval_h_laguerre(m, k, PL, t, [x]),
    )
    closedL = fourier_h_laguerre_closed(m, k, PL, xi)
    assert closedL == pytest.approx(directL, rel=1e-8)


def test_fourier_h_worked_d1_displays():
    # the worked d=1 case, in both the series form and the Hahn-product form
    al, ze, eta, be, ga, mu = PJ.alpha, PJ.zeta, PJ.eta, PJ.beta, PJ.gamma, PJ.mu
    m, k1 = 2, 1
    xi1, xi2 = 0.7, -0.4
    M = m - k1
    closed = fourier_h_jacobi_closed(m, (k1,), PJ, (xi1, xi2))
    phi11 = betafn(al + 0.5j * xi1, al - 0.5j * xi1) * hyp_terminating(
        [-k1, k1 + 2 * mu, al + 0.5j * xi1], [mu + 0.5, 2 * al], 1.0
    )
    theta = hyp_terminating(
        [-m + k1, m + mu + be + ga + 1, 0.5 * k1 + ze - 0.5j * xi2],
        [k1 + mu + be + 1, 0.5 * k1 + ze + eta], 1.0,
    )
    disp = (
        2 ** (ze + eta + 2 * al - 2)
        * pochhammer(k1 + mu + be + 1, M) * gamma(ze + 0.5 * k1 - 0.5j * xi2)
        * gamma(eta + 0.5j * xi2) * pochhammer(2 * mu, k1)
        / (math.factorial(M) * math.factorial(k1) * gamma(0.5 * k1 + ze + eta))
        * phi11 * theta
    )
    assert closed == pytest.approx(disp, rel=1e-13)
    disp_hahn = (
        2 ** (ze + eta + 2 * al - 2)
        * pochhammer(k1 + mu + be + 1, M) * gamma(ze + 0.5 * k1 - 0.5j * xi2)
        * gamma(eta + 0.5j * xi2) * pochhammer(2 * mu, k1)
        / (gamma(0.5 * k1 + ze + eta) * 1j**m * pochhammer(2 * al, k1)
           * pochhammer(mu + 0.5, k1))
        * betafn(al + 0.5j * xi1, al - 0.5j * xi1)
        / (pochhammer(k1 + mu + be + 1, M) * pochhammer(0.5 * k1 + ze + eta, M))
        * continuous_hahn(M, 0.5 * k1 + ze, ga - eta + 1, 0.5 * k1 + mu + be - ze + 1, eta, -xi2 / 2)
        * continuous_hahn(k1, al, mu - al + 0.5, mu - al + 0.5, al, xi1 / 2)
    )
    assert closed == pytest.approx(disp_hahn, rel=1e-13)

    closedL = fourier_h_laguerre_closed(m, (k1,), PL, (xi1, xi2))
    lam = hyp_terminating([-m + k1, ze + 0.5 * k1 - 1j * xi2], [k1 + mu + be + 1], 2.0)
    dispL = (
        2 ** (2 * al + ze + 0.5 * k1 - 1j * xi2 - 1)
        * pochhammer(k1 + mu + be + 1, M) * pochhammer(2 * mu, k1)
        / (math.factorial(k1) * math.factorial(M))
        * gamma(ze + 0.5 * k1 - 1j * xi2) * lam * phi11
    )
    assert closedL == pytest.approx(dispL, rel=1e-13)
    dispL_hahn = (
        2 ** (2 * al + ze + 0.5 * k1 - 1j * xi2 - 1)
        * pochhammer(k1 + mu + be + 1, M) * pochhammer(2 * mu, k1)
        * gamma(ze + 0.5 * k1 - 1j * xi2)
        / (1j**k1 * math.factorial(M) * pochhammer(2 * al, k1) * pochhammer(mu + 0.5, k1))
        * betafn(al + 0.5j * xi1, al - 0.5j * xi1) * lam
        * continuous_hahn(k1, al, mu - al + 0.5, mu - al + 0.5, al, xi1 / 2)
    )
    assert closedL == pytest.approx(dispL_hahn, rel=1e-13)


# ---------------------------------------------------------------------------
# D, A, B families

SP = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
SPB = SplitParams(0.7, 0.9, 0.8, 1.2)


def test_split_params():
    assert SP.mu == pytest.approx(0.7 + 0.9 - 0.5)
    assert SP.beta == pytest.approx(0.8 + 1.2 - 0.7 - 0.9 - 0.5)
    assert SP.gamma == pytest.approx(0.6 + 1.1 - 1)
    sw = SP.swapped()
    assert (sw.alpha1, sw.alpha2, sw.zeta1, sw.zeta2, sw.eta1, sw.eta2) == (
        0.9, 0.7, 1.2, 0.8, 1.1, 0.6
    )
    with pytest.raises(DomainError):
        SplitParams(0.5, -0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        SplitParams(0.5, 0.5, 1.0, 1.0, 0.3, None)


def test_D_trivial_and_worked_d1():
    x = 0.3 + 0.4j
    got = eval_D((0,), 0.7, 0.9, [x])
    assert got == pytest.approx(gamma(0.7 - x / 2) * gamma(0.7 + x / 2), rel=1e-13)
    # d=1 display: Gamma Gamma 3F2(-k, k+2|a|-1, a1+x/2; |a|, 2 a1; 1)
    k1, a1, a2 = 2, 0.7, 0.9
    want = gamma(a1 - x / 2) * gamma(a1 + x / 2) * hyp_terminating(
        [-k1, k1 + 2 * (a1 + a2) - 1, a1 + x / 2], [a1 + a2, 2 * a1], 1.0
    )
    assert eval_D((k1,), a1, a2, [x]) == pytest.approx(want, rel=1e-13)


def test_D_forms_agree():
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = int(rng.integers(1, 3))
        k = tuple(int(v) for v in rng.integers(0, 3, d))
        a1, a2 = rng.uniform(0.2, 3.0, 2)
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        v1 = eval_D(k, a1, a2, x)
        v2 = eval_D_hahn(k, a1, a2, x)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)


def test_A_collapse_and_forms():
    t, x = 0.3 + 0.2j, [-0.4 + 0.1j]
    got = eval_A(1, (1,), SP, t, x)
    want = gamma(0.5 + SP.zeta1 - t / 2) * eval_D((1,), 0.7, 0.9, x)
    assert got == pytest.approx(want, rel=1e-13)
    rng = np.random.default_rng(10)
    for _ in range(200):
        d = int(rng.integers(1, 3))
        k = tuple(int(v) for v in rng.integers(0, 3, d))
        m = sum(k) + int(rng.integers(0, 3))
        sp = SplitParams(*rng.uniform(0.2, 3.0, 6))
        tt = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        xx = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        v1 = eval_A(m, k, sp, tt, xx)
        v2 = eval_A_hahn(m, k, sp, tt, xx)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)


def test_B_collapse_and_hahn_form():
    t, x = 0.3 + 0.2j, [-0.4 + 0.1j]
    got = eval_B(1, (1,), SPB, t, x)
    want = gamma(SPB.zeta1 + 0.5 - t) * eval_D((1,), 0.7, 0.9, x)
    assert got == pytest.approx(want, rel=1e-13)
    # sample value, m=2, k=(1), d=1: composition oracle from parts
    m, k1 = 2, 1
    comp = (
        gamma(SPB.zeta1 + 0.5 * k1 - t)
        * eval_D((k1,), SPB.alpha1, SPB.alpha2, x)
        * hyp_terminating([-m + k1, SPB.zeta1 + 0.5 * k1 - t], [k1 + SPB.abs_zeta], 2.0)
    )
    assert eval_B(m, (k1,), SPB, t, x) == pytest.approx(comp, rel=1e-13)
    assert eval_B_hahn(m, (k1,), SPB, t, x) == pytest.approx(comp, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_B_hahn_form_agrees(d):
    # drawn as FORM_EQUIV_A draws its cases; there is no FORM_EQUIV_B family
    rng = np.random.default_rng(11 + d)
    for _ in range(100):
        k = tuple(int(v) for v in rng.integers(0, 3, d))
        m = sum(k) + int(rng.integers(0, 3))
        sp = SplitParams(*rng.uniform(0.2, 3.0, 4))
        t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        v1 = eval_B(m, k, sp, t, x)
        v2 = eval_B_hahn(m, k, sp, t, x)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)


def test_A_term_by_term_oracle():
    # d=1, m=1, k=0: Gamma(z1 - t/2) [1 + (-1)(1+|z|+|e|-1)(z1-t/2) /
    # ((|z|)(z1+e1))] D_0, assembled from scratch
    t, x = 0.3 + 0.2j, [-0.4 + 0.1j]
    arg = SP.zeta1 - t / 2
    f3 = 1 + (-1) * (1 + SP.abs_zeta + SP.abs_eta - 1) * arg / (
        SP.abs_zeta * (SP.zeta1 + SP.eta1)
    )
    want = gamma(arg) * f3 * gamma(SP.alpha1 - x[0] / 2) * gamma(SP.alpha1 + x[0] / 2)
    assert eval_A(1, (0,), SP, t, x) == pytest.approx(want, rel=1e-13)


def test_A_worked_d1_series_display():
    m, k1 = 2, 1
    t, x1 = 0.3 + 0.2j, -0.4 + 0.1j
    av = eval_A(m, (k1,), SP, t, [x1])
    Dk = gamma(SP.alpha1 - x1 / 2) * gamma(SP.alpha1 + x1 / 2) * hyp_terminating(
        [-k1, k1 + 2 * SP.abs_alpha - 1, SP.alpha1 + x1 / 2],
        [SP.abs_alpha, 2 * SP.alpha1], 1.0,
    )
    disp = Dk * gamma(SP.zeta1 + 0.5 * k1 - 0.5 * t) * hyp_terminating(
        [-m + k1, m + SP.abs_zeta + SP.abs_eta - 1, 0.5 * k1 + SP.zeta1 - 0.5 * t],
        [k1 + SP.abs_zeta, 0.5 * k1 + SP.zeta1 + SP.eta1], 1.0,
    )
    assert av == pytest.approx(disp, rel=1e-13)


def test_A_worked_d1_hahn_display():
    m, k1 = 2, 1
    t, x1 = 0.3 + 0.2j, -0.4 + 0.1j
    M = m - k1
    av = eval_A(m, (k1,), SP, t, [x1])
    disp = (
        math.factorial(M) * math.factorial(k1) * 1j ** (-m)
        / (pochhammer(2 * SP.alpha1, k1) * pochhammer(SP.alpha1 + SP.alpha2, k1)
           * pochhammer(k1 + SP.abs_zeta, M) * pochhammer(0.5 * k1 + SP.zeta1 + SP.eta1, M))
        * gamma(SP.alpha1 - x1 / 2) * gamma(SP.alpha1 + x1 / 2)
        * gamma(SP.zeta1 + 0.5 * k1 - 0.5 * t)
        * continuous_hahn(k1, SP.alpha1, SP.alpha2, SP.alpha2, SP.alpha1, -0.5j * x1)
        * continuous_hahn(M, SP.zeta1 + 0.5 * k1, SP.eta2, SP.zeta2 + 0.5 * k1, SP.eta1, 0.5j * t)
    )
    assert av == pytest.approx(disp, rel=1e-12)


# ---------------------------------------------------------------------------
# the scalar path: a scalar point stays a Python number, an array broadcasts

SP_A = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
SP_B = SplitParams(0.7, 0.9, 0.8, 1.2)
# each evaluator at a point p (and a second point q where it takes d = 2)
POINT_CALLS = {
    "eval_D": lambda p, q: eval_D((1, 2), 0.7, 0.9, [p, q]),
    "eval_D_hahn": lambda p, q: eval_D_hahn((1, 2), 0.7, 0.9, [p, q]),
    "A_t": lambda p, q: A_t(5, (1, 2), SP_A, p),
    "B_t": lambda p, q: B_t(5, (1, 2), SP_B, p),
    "eval_A_hahn": lambda p, q: eval_A_hahn(5, (1, 2), SP_A, p, [q, p]),
    "phi_factor": lambda p, q: phi_factor(1, 0.8, 0.7, (2, 1), p),
    "continuous_hahn": lambda p, q: continuous_hahn(3, 0.7, 0.9, 0.8, 1.2, p),
}


def test_scalar_points_give_scalars_and_arrays_broadcast():
    P = np.array([0.3 + 0.2j, -0.45 + 0.1j, 0.05 - 0.35j])
    Q = np.array([0.1 - 0.4j, 0.5 + 0.1j, -0.2 - 0.3j])
    digest = hashlib.sha256()
    for name, f in POINT_CALLS.items():
        values = f(P, Q)
        assert np.shape(values) == (3,), name
        digest.update(name.encode() + np.asarray(values).tobytes())
        for p, q, want in zip(P, Q, values):
            got = f(complex(p), complex(q))
            assert not isinstance(got, np.ndarray) and np.ndim(got) == 0, name
            # a series may round differently on scalars and on arrays
            assert abs(got - want) <= 1e-13 * abs(want), name
    # the array values, bit for bit those of the evaluators before the
    # scalar path kept Python numbers
    assert digest.hexdigest() == "0cd7ccc73c6eea6c8f9249ef8d5771395135597b2b83dbf9aca65d3eb6aa62cb"
