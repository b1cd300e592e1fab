"""Wrapped basis functions on R^d / R^{d+1}, their closed-form Fourier
transforms, and the Gamma-hypergeometric families they generate.

A function of a multi-index k reads the dimension d as len(k); only a point
or frequency vector is checked against it (len(x) = d, len(xi) = d or d + 1).
k is validated once, into the ``MultiIndex`` a composite hands its factors.

Everything accepts numpy-broadcastable arguments for points and frequencies
(indices and parameters stay scalar), so frequency grids evaluate in one
vectorized pass.  A scalar point (a Python number, a numpy scalar or a 0-d
array) stays a Python number (``classical._points``), so a single point runs
on Python arithmetic and returns a scalar, not a 0-d array; an array of
points passes through unchanged and broadcasts.  The 3F2 at 1 of phi,
theta, D and A and the 2F1 at 2 of lambda and B are continuous Hahn and
Meixner-Pollaczek polynomials in the degree and run their three-term
recurrences (``classical.hahn_3f2``, ``classical.meixner_pollaczek_2f1``);
the Hahn forms (``phi_factor_hahn``, ``eval_D_hahn``, ``eval_A_hahn``) run
``classical.continuous_hahn``'s recurrence in x, a separate body, so each
form equivalence compares two independent computations.  A Gamma prefactor
exp(log Gamma ...) is ``gammafn.cexp`` of its log-gamma sum, so at a scalar
point it is one cmath.exp on a Python complex.  Complex powers of the
strictly positive bases that occur here (2, 1 +- tanh) are principal-branch
exp(w log base), which is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import math

import numpy as np

from .ball import _at_point, lambda_param, tail_sum, validate_multi_index
from .classical import _points, continuous_hahn, gegenbauer, hahn_3f2, meixner_pollaczek_2f1
from .errors import DomainError
from .gammafn import cexp, is_index, log_gamma, pochhammer
from .paraboloid import _degree_split, radial_factor


@dataclass(frozen=True)
class WrapParamsJacobi:
    """Parameters of the height-1 wrapped function (damping exponents
    alpha/zeta/eta plus the weight parameters beta, gamma, mu)."""
    alpha: float
    zeta: float
    eta: float
    beta: float
    gamma: float
    mu: float


@dataclass(frozen=True)
class WrapParamsLaguerre:
    alpha: float
    zeta: float
    beta: float
    mu: float


@dataclass(frozen=True)
class SplitParams:
    """Split positive parameter pairs for the Parseval families.

    mu, beta, gamma are not free: the orthogonality statements hold only
    under the bindings mu = a1+a2-1/2, beta = z1+z2-a1-a2-1/2,
    gamma = e1+e2-1, so they are exposed as derived properties.
    The eta pair is absent for the B family.

    Positivity of every entry is the validity condition of the Parseval
    integrals; the contiguous relations shift parameters freely, so they
    construct instances with check=False.
    """
    alpha1: float
    alpha2: float
    zeta1: float
    zeta2: float
    eta1: float | None = None
    eta2: float | None = None
    check: bool = True

    def __post_init__(self):
        vals = [self.alpha1, self.alpha2, self.zeta1, self.zeta2]
        if (self.eta1 is None) != (self.eta2 is None):
            raise DomainError("eta parameters come as a pair")
        if self.eta1 is not None:
            vals += [self.eta1, self.eta2]
        if self.check and any(v <= 0 for v in vals):
            raise DomainError("split parameters must all be positive")

    @property
    def abs_alpha(self):
        return self.alpha1 + self.alpha2

    @property
    def abs_zeta(self):
        return self.zeta1 + self.zeta2

    @property
    def abs_eta(self):
        return self.eta1 + self.eta2

    @property
    def mu(self):
        return self.abs_alpha - 0.5

    @property
    def beta(self):
        return self.abs_zeta - self.abs_alpha - 0.5

    @property
    def gamma(self):
        return self.abs_eta - 1.0

    def swapped(self):
        """The partner parameter set appearing in the Parseval integrals."""
        return replace(
            self, alpha1=self.alpha2, alpha2=self.alpha1,
            zeta1=self.zeta2, zeta2=self.zeta1,
            eta1=self.eta2, eta2=self.eta1,
        )

    def shifted(self, **deltas):
        """New SplitParams with the named entries shifted additively; a shift
        may leave an entry non-positive, so the result is unchecked."""
        changes = {name: getattr(self, name) + dv for name, dv in deltas.items()}
        return SplitParams(**{**self.__dict__, "check": False, **changes})


# the split parameter names in field order: the B family takes the first
# four, the D factor the first two
SPLIT_NAMES = tuple(f.name for f in fields(SplitParams) if f.name != "check")


def _sech2(x):
    # 1 - tanh^2 x, stable for large |x|
    c = np.cosh(np.asarray(x))
    return 1.0 / (c * c)


def _axis_tail(j, k):
    """Validated k, d = len(k) and K = |k^{j+1}| of the factor on axis j."""
    k = validate_multi_index(k)
    d = len(k)
    if not (is_index(j) and 1 <= j <= d):
        raise DomainError(f"axis factor needs 1 <= j <= len(k), got k = {k}, j = {j!r}")
    return k, d, tail_sum(k, j + 1)


def eval_g(k, alpha, mu, x):
    """Wrapped ball polynomial on R^d:

        g_d(x) = prod_j (1-tanh^2 x_j)^(alpha+(d-j)/4) P_k^mu(theta_1..theta_d)

    with theta_j = tanh x_j prod_{i<j} sqrt(1-tanh^2 x_i).  Computed in the
    equivalent separated form, the product of g_axis over j = 1..d.
    """
    k, d = _at_point(k, x)
    return math.prod(g_axis(j, alpha, mu, k, x[j - 1]) for j in range(1, d + 1))


def g_axis(j, alpha, mu, k, x_j):
    """Factor of g_d on axis j (1-based), K = |k^{j+1}|:

        (1-tanh^2 x_j)^(alpha+(d-j)/4+K/2) C_{k_j}^(mu+K+(d-j)/2)(tanh x_j).
    """
    k, d, K = _axis_tail(j, k)
    x_j = np.asarray(x_j)
    return _sech2(x_j) ** (alpha + 0.25 * (d - j) + 0.5 * K) * gegenbauer(
        k[j - 1], lambda_param(k, mu, j), np.tanh(x_j)
    )


def eval_h_jacobi(m, k, params: WrapParamsJacobi, t, x):
    """Wrapped height-1 basis function on R^{d+1}: h_jacobi_t(t) * g_d(x)."""
    return h_jacobi_t(m, k, params, t) * eval_g(k, params.alpha, params.mu, x)


def h_jacobi_t(m, k, params: WrapParamsJacobi, t):
    """t-factor of the height-1 wrapped function, d = len(k):

        2^{-|k|/2} (1+tanh t)^(zeta+|k|/2) (1-tanh t)^eta
        * P_{m-|k|}^(|k|+mu+beta+(d-1)/2, gamma)(-tanh t),

    the Jacobi polynomial being the paraboloid's ``radial_factor`` at
    (1 + tanh t)/2.
    """
    k, n, d = _degree_split(m, k)
    th = np.tanh(np.asarray(t, dtype=float))
    return (
        2.0 ** (-0.5 * n)
        * (1.0 + th) ** (params.zeta + 0.5 * n)
        * (1.0 - th) ** params.eta
        * radial_factor("jacobi", m, n, params.beta, params.gamma, params.mu, d,
                        0.5 * (1.0 + th))
    )


def eval_h_laguerre(m, k, params: WrapParamsLaguerre, t, x):
    """Wrapped infinite-height basis function on R^{d+1}: h_laguerre_t(t) * g_d(x)."""
    return h_laguerre_t(m, k, params, t) * eval_g(k, params.alpha, params.mu, x)


def h_laguerre_t(m, k, params: WrapParamsLaguerre, t):
    """t-factor of the infinite-height wrapped function, d = len(k):

        e^{-e^t/2 + (zeta+|k|/2) t} L_{m-|k|}^(|k|+mu+beta+(d-1)/2)(e^t),

    the Laguerre polynomial being the paraboloid's ``radial_factor`` at e^t.
    """
    k, n, d = _degree_split(m, k)
    t = np.asarray(t, dtype=float)
    et = np.exp(t)
    return np.exp(-0.5 * et + (params.zeta + 0.5 * n) * t) * radial_factor(
        "laguerre", m, n, params.beta, 0.0, params.mu, d, et)


def _phi_beta_part(j, d, alpha, K, xi_j):
    ap = alpha + 0.5 * (K + 1j * xi_j) + 0.25 * (d - j)
    am = alpha + 0.5 * (K - 1j * xi_j) + 0.25 * (d - j)
    return cexp(log_gamma(ap) + log_gamma(am) - log_gamma(ap + am)), ap


def phi_factor(j, alpha, mu, k, xi_j):
    """Per-axis factor of the closed-form transform of g_d (1-based axis j):

        B(alpha + (K+i xi)/2 + (d-j)/4, alpha + (K-i xi)/2 + (d-j)/4)
        * 3F2(-k_j, k_j+2(K+mu+(d-j)/2), alpha+(K+i xi)/2+(d-j)/4;
               K+mu+(d-j+1)/2, K+2 alpha+(d-j)/2; 1),     K = |k^{j+1}|.
    """
    k, d, K = _axis_tail(j, k)
    if alpha + 0.5 * K + 0.25 * (d - j) <= 0:
        raise DomainError("phi_factor: requires alpha + |k^{j+1}|/2 + (d-j)/4 > 0")
    bpart, ap = _phi_beta_part(j, d, alpha, K, _points(xi_j))
    f = hahn_3f2(k[j - 1], 2 * (K + mu) + d - j + 1, ap,
                 K + mu + 0.5 * (d - j + 1), K + 2 * alpha + 0.5 * (d - j))
    return bpart * f


def phi_factor_hahn(j, alpha, mu, k, xi_j):
    """phi_factor rewritten through a continuous Hahn polynomial at xi/2;
    must agree with phi_factor identically."""
    k, d, K = _axis_tail(j, k)
    if alpha + 0.5 * K + 0.25 * (d - j) <= 0:
        raise DomainError("phi_factor_hahn: requires alpha + |k^{j+1}|/2 + (d-j)/4 > 0")
    kj = k[j - 1]
    A = alpha + 0.5 * K + 0.25 * (d - j)
    Bp = mu - alpha + 0.5 * (K + 1) + 0.25 * (d - j)
    denom = (
        1j**kj
        * pochhammer(K + mu + 0.5 * (d - j + 1), kj)
        * pochhammer(K + 2 * alpha + 0.5 * (d - j), kj)
    )
    if denom == 0:
        raise DomainError("phi_factor_hahn: vanishing Pochhammer denominator")
    xi_j = _points(xi_j)
    bpart, _ = _phi_beta_part(j, d, alpha, K, xi_j)
    p = continuous_hahn(kj, A, Bp, Bp, A, xi_j / 2.0)
    return math.factorial(kj) / denom * bpart * p


def fourier_g_closed(k, alpha, mu, xi):
    """Closed-form Fourier transform of g_d:

        2^(2 d alpha + d(d-5)/4 + sum_j j k_{j+1})
        * prod_j (2(K_j+mu+(d-j)/2))_{k_j} / k_j! * phi_j(xi_j).
    """
    k, d = _at_point(k, xi)
    expo = 2 * d * alpha + d * (d - 5) / 4 + sum(j * k[j] for j in range(1, d))
    out = 2.0**expo
    for j in range(1, d + 1):
        K = tail_sum(k, j + 1)
        kj = k[j - 1]
        out = out * pochhammer(2 * (K + mu + 0.5 * (d - j)), kj) / math.factorial(kj)
        out = out * phi_factor(j, alpha, mu, k, xi[j - 1])
    return out


def theta_factor(m, k, zeta, eta, beta, gamma, mu, xi_last):
    """Degree-coupling factor of the height-1 transform:

        3F2(-m+|k|, m+mu+beta+gamma+(d+1)/2, |k|/2+zeta-i xi/2;
             |k|+mu+beta+(d+1)/2, |k|/2+zeta+eta; 1).
    """
    k, n, d = _degree_split(m, k)
    return hahn_3f2(m - n, n + mu + beta + gamma + 0.5 * (d + 3),
                    0.5 * n + zeta - 0.5j * _points(xi_last),
                    n + mu + beta + 0.5 * (d + 1), 0.5 * n + zeta + eta)


def fourier_h_jacobi_closed(m, k, params: WrapParamsJacobi, xi):
    """Closed-form Fourier transform of the height-1 wrapped function.

    xi is the full frequency point (xi_1..xi_d, xi_{d+1}).
    """
    k, n, d = _degree_split(m, k)
    if params.zeta + 0.5 * n <= 0 or params.eta <= 0:
        raise DomainError("requires zeta + |k|/2 > 0 and eta > 0")
    if len(xi) != d + 1:
        raise DomainError(f"expected {d + 1} frequencies, got {len(xi)}")
    xl = _points(xi[d])
    lg = (
        log_gamma(params.zeta + 0.5 * n - 0.5j * xl)
        + log_gamma(params.eta + 0.5j * xl)
        - log_gamma(0.5 * n + params.zeta + params.eta)
    )
    pref = (
        2.0 ** (params.zeta + params.eta - 1)
        * pochhammer(n + params.mu + params.beta + 0.5 * (d + 1), m - n)
        / math.factorial(m - n)
        * cexp(lg)
    )
    th = theta_factor(
        m, k, params.zeta, params.eta, params.beta, params.gamma, params.mu, xl
    )
    return pref * th * fourier_g_closed(k, params.alpha, params.mu, xi[:d])


def lambda_factor(m, k, zeta, mu, beta, xi_last):
    """Degree-coupling factor of the infinite-height transform:

        2F1(-m+|k|, zeta+|k|/2-i xi; |k|+mu+beta+(d+1)/2; 2).
    """
    k, n, d = _degree_split(m, k)
    return meixner_pollaczek_2f1(m - n, zeta + 0.5 * n - 1j * _points(xi_last),
                                 n + mu + beta + 0.5 * (d + 1))


def fourier_h_laguerre_closed(m, k, params: WrapParamsLaguerre, xi):
    """Closed-form Fourier transform of the infinite-height wrapped function.

    The 2^{-i xi_{d+1}} prefactor is complex of unit modulus.
    """
    k, n, d = _degree_split(m, k)
    if params.zeta + 0.5 * n <= 0:
        raise DomainError("requires zeta + |k|/2 > 0")
    if len(xi) != d + 1:
        raise DomainError(f"expected {d + 1} frequencies, got {len(xi)}")
    xl = _points(xi[d])
    c = params.zeta + 0.5 * n - 1j * xl
    # np.exp, not cexp: the division below would then be CPython's complex
    # division, which rounds otherwise than numpy's
    pref = (
        np.exp(c * math.log(2.0) + log_gamma(c))
        * pochhammer(n + params.mu + params.beta + 0.5 * (d + 1), m - n)
        / math.factorial(m - n)
    )
    lam = lambda_factor(m, k, params.zeta, params.mu, params.beta, xl)
    return pref * lam * fourier_g_closed(k, params.alpha, params.mu, xi[:d])


def eval_D(k, alpha1, alpha2, x):
    """Gamma-hypergeometric product over the x axes: prod_j D_axis(x_j)."""
    k, d = _at_point(k, x)
    return math.prod(D_axis(j, alpha1, alpha2, k, x[j - 1]) for j in range(1, d + 1))


def D_axis(j, alpha1, alpha2, k, x_j):
    """Factor of D_k on axis j (1-based), K = |k^{j+1}|:

        Gamma(a1+(K-x_j)/2+(d-j)/4) Gamma(a1+(K+x_j)/2+(d-j)/4)
        * 3F2(-k_j, k_j+2(K+|a|+(d-j-1)/2), a1+(K+x_j)/2+(d-j)/4;
               K+|a|+(d-j)/2, K+2 a1+(d-j)/2; 1).
    """
    k, d, K = _axis_tail(j, k)
    absa = alpha1 + alpha2
    kj = k[j - 1]
    x_j = _points(x_j)
    gp = alpha1 + 0.5 * (K + x_j) + 0.25 * (d - j)
    gm = alpha1 + 0.5 * (K - x_j) + 0.25 * (d - j)
    return cexp(log_gamma(gp) + log_gamma(gm)) * hahn_3f2(
        kj, 2 * (K + absa) + d - j, gp, K + absa + 0.5 * (d - j),
        K + 2 * alpha1 + 0.5 * (d - j))


def eval_D_hahn(k, alpha1, alpha2, x):
    """eval_D rewritten through continuous Hahn polynomials at -i x_j / 2."""
    k, d = _at_point(k, x)
    absa = alpha1 + alpha2
    lg = 0.0
    rest = 1.0
    for j in range(1, d + 1):
        K = tail_sum(k, j + 1)
        kj = k[j - 1]
        xj = _points(x[j - 1])
        gp = alpha1 + 0.5 * (K + xj) + 0.25 * (d - j)
        gm = alpha1 + 0.5 * (K - xj) + 0.25 * (d - j)
        lg = lg + log_gamma(gp) + log_gamma(gm)
        A1 = alpha1 + 0.5 * K + 0.25 * (d - j)
        A2 = alpha2 + 0.5 * K + 0.25 * (d - j)
        denom = (
            pochhammer(K + 2 * alpha1 + 0.5 * (d - j), kj)
            * pochhammer(K + absa + 0.5 * (d - j), kj)
        )
        rest = rest * (
            math.factorial(kj) * 1j ** (-kj) / denom
            * continuous_hahn(kj, A1, A2, A2, A1, -0.5j * xj)
        )
    return cexp(lg) * rest


def eval_A(m, k, sp: SplitParams, t, x):
    """The height-1 Parseval family: A_t(t) * D_k(x; a1, a2).

    Accepts fully complex (t, x); the Parseval integrals evaluate it at
    (i t, i x) and (-i t, -i x) with the parameter pairs swapped.
    """
    return A_t(m, k, sp, t) * eval_D(k, sp.alpha1, sp.alpha2, x)


def A_t(m, k, sp: SplitParams, t):
    """t-factor of the height-1 Parseval family:

        Gamma(|k|/2+z1-t/2)
        * 3F2(-m+|k|, m+|z|+|e|-1, |k|/2+z1-t/2; |k|+|z|, |k|/2+z1+e1; 1).
    """
    if sp.eta1 is None:
        raise DomainError("the height-1 family requires the eta parameter pair")
    k, n, _ = _degree_split(m, k)
    return _A_t(m - n, n, sp.zeta1, sp.abs_zeta, sp.eta1, sp.abs_eta, t)


def _A_t(M, n, zeta1, Z, eta1, E, t):
    # A_t body for an already validated degree split M = m - |k| >= 0,
    # n = |k|, and the sums Z = |z|, E = |e|
    arg = 0.5 * n + zeta1 - 0.5 * _points(t)
    f = hahn_3f2(M, n + Z + E, arg, n + Z, 0.5 * n + zeta1 + eta1)
    return cexp(log_gamma(arg)) * f


def eval_A_hahn(m, k, sp: SplitParams, t, x):
    """eval_A through the continuous Hahn form of both the t part and D."""
    if sp.eta1 is None:
        raise DomainError("eval_A_hahn requires the eta parameter pair")
    k, n, _ = _degree_split(m, k)
    M = m - n
    t = _points(t)
    arg = 0.5 * n + sp.zeta1 - 0.5 * t
    denom = pochhammer(n + sp.abs_zeta, M) * pochhammer(0.5 * n + sp.zeta1 + sp.eta1, M)
    p = continuous_hahn(
        M, 0.5 * n + sp.zeta1, sp.eta2, 0.5 * n + sp.zeta2, sp.eta1, 0.5j * t,
    )
    return (
        math.factorial(M) * 1j ** (n - m) / denom
        * cexp(log_gamma(arg)) * p
        * eval_D_hahn(k, sp.alpha1, sp.alpha2, x)
    )


def eval_B(m, k, sp: SplitParams, t, x):
    """The infinite-height Parseval family: B_t(t) * D_k(x; a1, a2)."""
    return B_t(m, k, sp, t) * eval_D(k, sp.alpha1, sp.alpha2, x)


def B_t(m, k, sp: SplitParams, t):
    """t-factor of the infinite-height Parseval family:

        Gamma(z1+|k|/2-t) 2F1(-m+|k|, z1+|k|/2-t; |k|+|z|; 2).
    """
    k, n, _ = _degree_split(m, k)
    return _B_t(m - n, n, sp.zeta1, sp.abs_zeta, t)


def _B_t(M, n, zeta1, Z, t):
    # B_t body for an already validated degree split M = m - |k| >= 0,
    # n = |k|, and the sum Z = |z|
    arg = zeta1 + 0.5 * n - _points(t)
    return cexp(log_gamma(arg)) * meixner_pollaczek_2f1(M, arg, n + Z)


def eval_B_hahn(m, k, sp: SplitParams, t, x):
    """eval_B with the x part in continuous Hahn form (the t part keeps its
    2F1 at argument 2)."""
    return B_t(m, k, sp, t) * eval_D_hahn(k, sp.alpha1, sp.alpha2, x)
